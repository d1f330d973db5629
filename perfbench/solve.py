"""Offline solve workloads: whole instances through the solver library.

``solve-meridian``: the dataset layer synthesizes one Meridian-size
latency matrix (1796 nodes, the cleaned size the paper evaluates on)
during set-up. Each operation then solves one instance over it — a
fresh seeded set of servers — end to end: problem views, the §V lower
bound, and the paper's four heuristics.

``solve-coreset``: each operation generates a fresh 5 x 10^4-client
planet instance (a coordinate provider: distances are synthesized on
demand, never stored densely) and solves it through the coreset
pipeline: coreset, reduced weighted solve, expansion and the exact
streamed objective.

No instance repeats within a run, so a cache keyed on instance content
cannot turn the measured work into lookups. Each output is checked as
soon as it is produced, outside the measured time, and then dropped, so
memory does not grow with the number of operations: every assignment
covers every client with a valid server; its D, recomputed here from
the raw distances, equals the D the program reported; D >= LB on the
dense path and D <= the coreset bound on the scale path. Solving the
first instance again must reproduce its D.
"""

from __future__ import annotations

import contextlib
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from common import (
    SETUP_REPEATS,
    end_to_end_metrics,
    peak_rss_mib,
    per_layer_metrics,
    result,
    work_dir,
)
from layers import LAYER_OF_SPAN, install_solve
from repro.obs import install_sink, span, uninstall_sink
from tracing import LayerSink

MERIDIAN_NODES = 1796
MERIDIAN_SERVERS = 20
ALGORITHMS = ("nearest-server", "longest-first-batch", "greedy", "distributed-greedy")

CORESET_CLIENTS = 50_000
CORESET_SERVERS = 32
CORESET_CLUSTERS = 64

REL_TOL = 1e-9


def independent_d(
    cs: np.ndarray, sc: np.ndarray, ss: np.ndarray, server_of: np.ndarray
) -> float:
    """Max interaction path length of an assignment, from raw distances.

    ``cs[c, s]``, ``sc[s, c]`` and ``ss[s, s']`` are the client->server,
    server->client and server->server distances; ``server_of[c]`` is the
    local server index of client ``c``.
    """
    rows = np.arange(server_of.size)
    l_out = np.full(ss.shape[0], -np.inf)
    l_in = np.full(ss.shape[0], -np.inf)
    np.maximum.at(l_out, server_of, cs[rows, server_of])
    np.maximum.at(l_in, server_of, sc[server_of, rows])
    used = np.flatnonzero(np.isfinite(l_out))
    paths = l_out[used][:, None] + ss[np.ix_(used, used)] + l_in[used][None, :]
    return float(paths.max())


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1.0)


def _valid_assignment(server_of: np.ndarray, n_clients: int, n_servers: int) -> bool:
    return (
        server_of.shape == (n_clients,)
        and int(server_of.min()) >= 0
        and int(server_of.max()) < n_servers
    )


def _measure(
    seconds: float,
    op: Callable[[int], Any],
    check: Callable[[Any], bool],
    sink: Optional[LayerSink],
) -> Tuple[List[float], int]:
    """Run ``op(index)`` until the operations' summed time reaches
    ``seconds``, checking each output after its operation's clock stops
    (and, when tracing, with ``sink`` paused: checks are no layer's work).
    Returns the per-operation latencies and the number of outputs that
    failed their check."""
    latencies: List[float] = []
    failed = 0
    perf_counter = time.perf_counter
    measured = 0.0
    while measured < seconds:
        begin = perf_counter()
        output = op(len(latencies))
        latency = perf_counter() - begin
        latencies.append(latency)
        measured += latency
        with sink.paused() if sink is not None else contextlib.nullcontext():
            failed += not check(output)
        del output
    return latencies, failed


def _start_tracing(trace: bool, name: str):
    if not trace:
        return None
    install_solve()
    sink = LayerSink(
        LAYER_OF_SPAN, sample_path=os.path.join(work_dir(), f"spans-{name}.jsonl")
    )
    install_sink(sink)
    return sink


def _finish(
    sink,
    *,
    latencies: List[float],
    failed: int,
    items_per_op: int,
    setup_times: List[float],
    rss_mib: float,
    reproduced: bool,
) -> Dict[str, Any]:
    measured = sum(latencies)
    items = (len(latencies) - failed) * items_per_op
    if sink is not None:
        metrics = per_layer_metrics(
            layer_seconds=sink.self_seconds,
            layer_calls=sink.calls,
            ops=len(latencies),
            items=items,
            measured_seconds=measured,
        )
    else:
        metrics = end_to_end_metrics(
            items=items,
            measured_seconds=measured,
            latency_seconds=measured / len(latencies),
            setup_seconds=setup_times,
            rss_mib=rss_mib,
        )
    return result(
        correct=failed == 0 and reproduced,
        attempted=len(latencies),
        failed=failed,
        metrics=metrics,
    )


# ----------------------------------------------------------------------
# solve-meridian
# ----------------------------------------------------------------------
def _server_set(seed: int, index: int) -> np.ndarray:
    rng = np.random.default_rng((seed, index))
    return np.sort(rng.choice(MERIDIAN_NODES, MERIDIAN_SERVERS, replace=False))


def _solve_dense(matrix, servers: np.ndarray, seed: int):
    from repro.algorithms.base import run_algorithm
    from repro.core import ClientAssignmentProblem, interaction_lower_bound

    with span("views"):
        problem = ClientAssignmentProblem(matrix, servers)
        problem.server_client  # built lazily; every solve below reads it
    with span("lower_bound"):
        lb = interaction_lower_bound(problem)
    solved = []
    for algorithm in ALGORITHMS:
        with span("heuristic"):
            outcome = run_algorithm(algorithm, problem, seed=seed)
        solved.append((np.array(outcome.assignment.server_of), float(outcome.d)))
    return servers, problem.clients, lb, solved


def run_meridian(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    from repro.datasets import synthesize_meridian_like

    setup_times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        matrix = synthesize_meridian_like(MERIDIAN_NODES, seed=seed)
        setup_times.append(time.perf_counter() - started)
    values = matrix.values
    # Warm lazy imports and first-call paths on a small instance.
    _solve_dense(synthesize_meridian_like(200, seed=seed), np.arange(10), seed)

    def check(output) -> bool:
        servers, clients, lb, solved = output
        cs = values[np.ix_(clients, servers)]
        sc = values[np.ix_(servers, clients)]
        ss = values[np.ix_(servers, servers)]
        return all(
            _valid_assignment(server_of, clients.size, servers.size)
            and _close(independent_d(cs, sc, ss, server_of), d)
            and lb <= d * (1.0 + REL_TOL)
            for server_of, d in solved
        )

    def first_ds():
        return [d for _s, d in _solve_dense(matrix, _server_set(seed, 0), seed)[3]]

    expected = first_ds()
    rss_mib = peak_rss_mib()
    sink = _start_tracing(trace, f"solve-meridian-{seed}")
    latencies, failed = _measure(
        seconds,
        lambda index: _solve_dense(matrix, _server_set(seed, index), seed + index),
        check,
        sink,
    )
    if sink is not None:
        uninstall_sink()
    return _finish(
        sink,
        latencies=latencies,
        failed=failed,
        items_per_op=(MERIDIAN_NODES - MERIDIAN_SERVERS) * len(ALGORITHMS),
        setup_times=setup_times,
        rss_mib=rss_mib,
        reproduced=first_ds() == expected,
    )


# ----------------------------------------------------------------------
# solve-coreset
# ----------------------------------------------------------------------
def _planet(seed: int, index: int):
    from repro.datasets import coreset_cell_size_hint, planet_instance

    instance = planet_instance(
        CORESET_CLIENTS,
        CORESET_SERVERS,
        n_clusters=CORESET_CLUSTERS,
        seed=np.random.default_rng((seed, index)),
    )
    return instance, coreset_cell_size_hint(instance)


def _solve_scale(seed: int, index: int):
    from repro.scale import solve_at_scale

    with span("dataset"):
        instance, cell = _planet(seed, index)
    solved = solve_at_scale(
        instance.provider,
        instance.servers,
        instance.clients,
        cell_size=cell,
        seed=seed + index,
    )
    return instance, np.array(solved.server_of), solved.d_expanded, solved.bound


def _check_coreset(output) -> bool:
    instance, server_of, d, bound = output
    provider, servers, clients = instance.provider, instance.servers, instance.clients
    cs = np.asarray(provider.client_server_distances(clients, servers), float)
    sc = np.asarray(provider.server_client_distances(servers, clients), float)
    ss = np.asarray(provider.server_server_distances(servers), float)
    return (
        _valid_assignment(server_of, clients.size, servers.size)
        and _close(independent_d(cs, sc, ss, server_of), d)
        and d <= bound * (1.0 + REL_TOL) + REL_TOL
    )


def run_coreset(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    from repro.datasets import planet_instance
    from repro.scale import solve_at_scale

    setup_times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        _planet(seed, 0)
        setup_times.append(time.perf_counter() - started)
    # Warm lazy imports and first-call paths on a small instance.
    warm = planet_instance(2000, 8, n_clusters=8, seed=seed)
    solve_at_scale(warm.provider, warm.servers, warm.clients, cell_size=1.0, seed=seed)
    expected = _solve_scale(seed, 0)[2]
    rss_mib = peak_rss_mib()
    sink = _start_tracing(trace, f"solve-coreset-{seed}")
    latencies, failed = _measure(
        seconds, lambda index: _solve_scale(seed, index), _check_coreset, sink
    )
    if sink is not None:
        uninstall_sink()
    return _finish(
        sink,
        latencies=latencies,
        failed=failed,
        items_per_op=CORESET_CLIENTS,
        setup_times=setup_times,
        rss_mib=rss_mib,
        reproduced=_solve_scale(seed, 0)[2] == expected,
    )
