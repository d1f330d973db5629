"""``IncrementalObjective.longest_path_clients`` against the full scan.

Distributed-Greedy takes each round's candidates from the engine, which
walks only the top-k lists of servers that can hold a longest path. It
must return exactly what the full per-client scan returns — the sums,
the ``1e-9`` tolerance and the ascending order of
:func:`repro.core.metrics.clients_on_longest_paths` — after every move
of a Distributed-Greedy walk. The walks cover Meridian-like, tie-heavy
integer and weighted coreset instances, ``k=2`` engines whose lists are
too short for the longest-path set (the member-scan fallback), and
states built by ``assign_many`` batches larger than ``k``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    Assignment,
    ClientAssignmentProblem,
    IncrementalObjective,
    clients_on_longest_paths,
)
from repro.datasets import (
    coreset_cell_size_hint,
    planet_instance,
    synthesize_meridian_like,
)
from repro.net.latency import LatencyMatrix
from repro.scale import build_coreset


def full_scan(engine: IncrementalObjective) -> np.ndarray:
    """The per-client formula Distributed-Greedy used before the engine
    method: both legs of every assigned client against its server's
    best completions."""
    problem = engine.problem
    server_of = engine.server_of
    idx = np.flatnonzero(server_of >= 0)
    home = server_of[idx]
    leg_out = problem.client_server[idx, home].astype(np.float64)
    leg_in = problem.server_client[home, idx].astype(np.float64)
    best_in, best_out = engine.server_reductions()
    threshold = engine.d() - 1e-9
    qualifies = (leg_out + best_in[home] >= threshold) | (
        best_out[home] + leg_in >= threshold
    )
    return idx[qualifies]


def check(engine: IncrementalObjective) -> np.ndarray:
    got = engine.longest_path_clients()
    expected = full_scan(engine)
    assert got.dtype == np.int64
    assert np.array_equal(got, expected)
    if engine.n_assigned == engine.problem.n_clients:
        assignment = Assignment(engine.problem, engine.server_of, validate=False)
        assert np.array_equal(got, clients_on_longest_paths(assignment))
    assert engine.verify()
    return got


def dga_walk(engine: IncrementalObjective, max_moves: int = 400) -> int:
    """Distributed-Greedy's uncapacitated move rule, checking the
    candidates before every round; returns the number of moves."""
    moves = 0
    while moves < max_moves:
        d_current = engine.d()
        moved = False
        for c in check(engine).tolist():
            paths = engine.candidate_paths(c)
            best = int(np.argmin(paths))
            if paths[best] < d_current - 1e-12 and best != engine.server_of[c]:
                engine.apply(c, best)
                moves += 1
                moved = True
                break
        if not moved:
            break
    check(engine)
    return moves


def nearest(problem: ClientAssignmentProblem) -> np.ndarray:
    return np.argmin(problem.client_server, axis=1)


def integer_problem(seed: int, n: int = 70, n_servers: int = 6, high: int = 3):
    rng = np.random.default_rng(seed)
    values = rng.integers(1, high + 1, size=(n, n)).astype(np.float64)
    np.fill_diagonal(values, 0.0)
    servers = np.sort(rng.choice(n, size=n_servers, replace=False))
    return ClientAssignmentProblem(LatencyMatrix(values), servers)


def meridian_problem(seed: int, dtype=np.float64):
    matrix = synthesize_meridian_like(150, seed=seed, dtype=dtype)
    servers = np.sort(
        np.random.default_rng(seed).choice(matrix.n_nodes, size=10, replace=False)
    )
    return ClientAssignmentProblem(matrix, servers)


def coreset_problem(seed: int):
    instance = planet_instance(4000, 32, n_clusters=64, seed=seed)
    coreset = build_coreset(
        instance.provider,
        instance.servers,
        instance.clients,
        cell_size=coreset_cell_size_hint(instance),
    )
    return ClientAssignmentProblem(
        instance.provider,
        instance.servers,
        clients=coreset.representatives,
        client_weights=coreset.weights,
    )


@pytest.fixture
def scans(monkeypatch):
    """Count member scans made by ``longest_path_clients`` itself."""
    counter = {"scans": 0, "inside": False}
    method = IncrementalObjective.longest_path_clients
    members = IncrementalObjective._members

    def wrapped_method(self):
        counter["inside"] = True
        try:
            return method(self)
        finally:
            counter["inside"] = False

    def wrapped_members(self, server):
        if counter["inside"]:
            counter["scans"] += 1
        return members(self, server)

    monkeypatch.setattr(IncrementalObjective, "longest_path_clients", wrapped_method)
    monkeypatch.setattr(IncrementalObjective, "_members", wrapped_members)
    return counter


@pytest.mark.parametrize("k", [2, 8])
@pytest.mark.parametrize("seed", range(3))
def test_meridian_like_walk(seed, k):
    problem = meridian_problem(seed, dtype=np.float32 if seed == 2 else np.float64)
    engine = IncrementalObjective(problem, nearest(problem), k=k, history=False)
    assert dga_walk(engine) > 0


@pytest.mark.parametrize("k", [2, 8])
@pytest.mark.parametrize("seed", range(6))
def test_tie_heavy_integer_walk(seed, k):
    problem = integer_problem(seed)
    engine = IncrementalObjective(problem, nearest(problem), k=k, history=False)
    dga_walk(engine)


@pytest.mark.parametrize("seed", range(2))
def test_weighted_coreset_walk(seed):
    problem = coreset_problem(seed)
    assert problem.client_weights is not None
    engine = IncrementalObjective(problem, nearest(problem), history=False)
    assert dga_walk(engine) > 0


def test_short_lists_fall_back_to_a_member_scan(scans):
    # Few distinct latencies: many members of a server tie for its
    # farthest leg, so a 2-entry list cannot hold every candidate.
    for seed in range(6):
        problem = integer_problem(seed, high=2)
        engine = IncrementalObjective(problem, nearest(problem), k=2, history=False)
        dga_walk(engine)
    assert scans["scans"] > 0


@pytest.mark.parametrize("k", [2, 3, 8])
@pytest.mark.parametrize("seed", range(4))
def test_states_built_by_large_batches(seed, k):
    problem = meridian_problem(seed) if seed % 2 else integer_problem(seed)
    rng = np.random.default_rng(seed)
    engine = IncrementalObjective(problem, k=k)
    order = rng.permutation(problem.n_clients)
    start = 0
    while start < order.size:
        size = int(rng.integers(k + 1, 4 * k + 2))
        engine.assign_many(order[start : start + size], int(rng.integers(problem.n_servers)))
        start += size
        check(engine)
    # Moves after the batches discard listed members and insert below
    # the batches' unlisted ones.
    dga_walk(engine)


def test_large_batch_then_moves_keep_heads_exact():
    # A batch larger than k leaves members out of the lists; after the
    # listed ones leave and a nearer client joins, the server's farthest
    # leg must still be the largest unlisted one.
    rng = np.random.default_rng(0)
    values = rng.uniform(1.0, 100.0, size=(30, 30))
    np.fill_diagonal(values, 0.0)
    problem = ClientAssignmentProblem(LatencyMatrix(values), np.array([0, 1]))
    cs = problem.client_server
    engine = IncrementalObjective(problem, k=2, history=False)
    batch = np.arange(5)
    engine.assign_many(batch, 0)
    by_leg = batch[np.argsort(-cs[batch, 0], kind="stable")]
    engine.apply(int(by_leg[0]), 1)
    engine.apply(5 + int(np.argmin(cs[5:, 0])), 0)
    engine.apply(int(by_leg[1]), 1)
    members = np.flatnonzero(engine.server_of == 0)
    assert engine.l_vectors()[0][0] == cs[members, 0].max()
    assert engine.verify()


def test_empty_engine_has_no_candidates():
    problem = integer_problem(0)
    engine = IncrementalObjective(problem)
    assert engine.longest_path_clients().size == 0
