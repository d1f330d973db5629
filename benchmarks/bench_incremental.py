"""Old-vs-new candidate-evaluation benchmark for the incremental engine.

Sweeps instance sizes (|C| in {500, 2000, 8000} by default; override
with ``REPRO_BENCH_INCREMENTAL_SIZES=60,120`` for smoke runs) and, per
size, times the candidate-evaluation hot path of the two local-search
style consumers both ways:

- **local-search style**: score all |S| destinations of a sampled
  client — from-scratch ``_objective_after_move`` per destination vs
  one ``IncrementalObjective.batch_delta_D`` call;
- **distributed-greedy style**: compute the ``L(s')`` reply vector for
  a sampled client — from-scratch ``l``-vector rebuild over all |C|
  clients vs one ``IncrementalObjective.candidate_paths`` call.

Both paths score the *same* candidates, and the benchmark asserts they
agree. At sizes where a full from-scratch run is still affordable
(|C| <= 2000) it additionally runs hill-climbing and Distributed-Greedy
end-to-end under both evaluators and asserts identical final D. The
measurements (wall time and evaluation counts) are persisted as a
``bench-table`` result through the standard schema.

Acceptance target (ISSUE 2): >= 5x speedup for both styles at
|C| = 8000. The assertion is gated on |C| >= 4000 so smoke sizes don't
assert on noise.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.algorithms.distributed_greedy import (
    _candidate_lengths_recompute,
    distributed_greedy_detailed,
)
from repro.algorithms.local_search import _objective_after_move, hill_climbing
from repro.algorithms.nearest import nearest_server
from repro.core import (
    ClientAssignmentProblem,
    IncrementalObjective,
    max_interaction_path_length,
)
from repro.experiments.persistence import BenchTable, load_result, save_result
from repro.experiments.reporting import format_table
from repro.net.latency import LatencyMatrix
from repro.obs import Stopwatch

N_SERVERS = 25
N_SAMPLED_CLIENTS = 64
SPEEDUP_TARGET = 5.0
#: Sizes below this only record measurements; at or above it the
#: speedup target is asserted.
ASSERT_FLOOR = 4000
FULL_RUN_CEILING = 2000


def _sizes() -> list:
    raw = os.environ.get("REPRO_BENCH_INCREMENTAL_SIZES", "500,2000,8000")
    return [int(tok) for tok in raw.split(",") if tok.strip()]


def _make_problem(n_clients: int, seed: int) -> ClientAssignmentProblem:
    """A seeded asymmetric instance with |C| clients and N_SERVERS servers."""
    rng = np.random.default_rng(seed)
    n_nodes = n_clients
    values = rng.uniform(5.0, 300.0, size=(n_nodes, n_nodes))
    np.fill_diagonal(values, 0.0)
    matrix = LatencyMatrix(values)
    servers = rng.choice(n_nodes, size=min(N_SERVERS, n_nodes // 2), replace=False)
    return ClientAssignmentProblem(matrix, np.sort(servers))


def _bench_size(n_clients: int, seed: int) -> list:
    """Measure both styles at one size; returns table rows."""
    problem = _make_problem(n_clients, seed)
    initial = nearest_server(problem)
    server_of = initial.server_of.copy()
    n_servers = problem.n_servers
    rng = np.random.default_rng(seed + 1)
    sampled = rng.choice(
        problem.n_clients,
        size=min(N_SAMPLED_CLIENTS, problem.n_clients),
        replace=False,
    )

    # Engine construction is not timed: it corresponds to state a
    # running algorithm maintains anyway, amortized over every query.
    engine = IncrementalObjective(problem, server_of, history=False)
    engine.d()

    rows = []

    # --- local-search style: all destinations of each sampled client.
    with Stopwatch() as old_watch:
        old_scores = np.array(
            [
                [
                    _objective_after_move(problem, server_of, int(c), s)
                    for s in range(n_servers)
                ]
                for c in sampled
            ]
        )
    old_evals = sampled.size * n_servers
    with Stopwatch() as new_watch:
        new_scores = np.array(
            [
                engine.batch_delta_D(int(c), respect_capacities=False)
                for c in sampled
            ]
        )
    assert np.allclose(old_scores, new_scores, rtol=1e-9), (
        "incremental local-search scores diverge from the from-scratch path"
    )
    rows.append(
        [
            n_clients,
            "local-search",
            old_watch.elapsed,
            new_watch.elapsed,
            old_watch.elapsed / max(new_watch.elapsed, 1e-12),
            old_evals,
            old_evals,
        ]
    )

    # --- distributed-greedy style: the L(s') reply vector per client.
    with Stopwatch() as old_watch:
        old_replies = np.array(
            [
                _candidate_lengths_recompute(problem, server_of, int(c))
                for c in sampled
            ]
        )
    with Stopwatch() as new_watch:
        new_replies = np.array(
            [engine.candidate_paths(int(c)) for c in sampled]
        )
    assert np.allclose(old_replies, new_replies, rtol=1e-9), (
        "incremental L(s') replies diverge from the from-scratch path"
    )
    rows.append(
        [
            n_clients,
            "distributed-greedy",
            old_watch.elapsed,
            new_watch.elapsed,
            old_watch.elapsed / max(new_watch.elapsed, 1e-12),
            old_evals,
            old_evals,
        ]
    )

    # --- end-to-end equivalence where the from-scratch run is affordable.
    if n_clients <= FULL_RUN_CEILING:
        hc_new = hill_climbing(
            problem, seed=seed, max_rounds=2, evaluator="incremental"
        )
        hc_old = hill_climbing(
            problem, seed=seed, max_rounds=2, evaluator="recompute"
        )
        assert np.array_equal(hc_new.server_of, hc_old.server_of)
        d_new = max_interaction_path_length(hc_new)
        d_old = max_interaction_path_length(hc_old)
        assert d_new == pytest.approx(d_old, rel=1e-12)

        dga_new = distributed_greedy_detailed(
            problem, initial=initial, evaluator="incremental"
        )
        dga_old = distributed_greedy_detailed(
            problem, initial=initial, evaluator="recompute"
        )
        assert dga_new.trace == dga_old.trace
        assert np.array_equal(
            dga_new.assignment.server_of, dga_old.assignment.server_of
        )
    return rows


def test_incremental_vs_recompute(benchmark, tmp_path):
    sizes = _sizes()

    def run():
        rows = []
        for i, n in enumerate(sizes):
            rows.extend(_bench_size(n, seed=100 + i))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    columns = (
        "n_clients",
        "style",
        "old_seconds",
        "new_seconds",
        "speedup",
        "old_evaluations",
        "new_evaluations",
    )
    table = BenchTable(
        name="bench_incremental",
        columns=columns,
        rows=tuple(tuple(row) for row in rows),
        meta={
            "n_servers": N_SERVERS,
            "n_sampled_clients": N_SAMPLED_CLIENTS,
            "sizes": sizes,
        },
    )
    out = os.environ.get("REPRO_BENCH_OUT")
    if out:
        os.makedirs(out, exist_ok=True)
    path = (
        os.path.join(out, "bench_incremental.json")
        if out
        else str(tmp_path / "bench_incremental.json")
    )
    save_result(path, table)
    assert load_result(path) == table

    print()
    print(
        "Candidate evaluation: from-scratch vs incremental "
        f"({N_SAMPLED_CLIENTS} clients x {N_SERVERS} destinations each)\n"
        + format_table(
            ["|C|", "style", "old (s)", "new (s)", "speedup", "evals"],
            [
                [r[0], r[1], f"{r[2]:.4f}", f"{r[3]:.4f}", f"{r[4]:.1f}x", r[5]]
                for r in rows
            ],
        )
        + f"\nresults written to {path}"
    )

    for row in rows:
        n, style, _old_s, _new_s, speedup = row[0], row[1], row[2], row[3], row[4]
        if n >= ASSERT_FLOOR:
            assert speedup >= SPEEDUP_TARGET, (
                f"{style} at |C|={n}: {speedup:.1f}x < "
                f"{SPEEDUP_TARGET}x target"
            )
