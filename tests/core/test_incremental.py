"""Randomized property tests for the incremental objective engine.

The engine's contract: after any interleaving of apply/assign/
assign_many/unassign/undo operations, ``d()`` equals the from-scratch
objective, and delta predictions equal the objective that committing
the move would actually produce. The reference here is
``max_interaction_path_length_bruteforce`` — the O(|C|^2) pair
enumeration — so agreement is with the paper's definition, not with the
same server-level reduction the engine uses internally.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    Assignment,
    ClientAssignmentProblem,
    DEFAULT_TOP_K,
    IncrementalObjective,
    count_evaluations,
    max_interaction_path_length,
    max_interaction_path_length_bruteforce,
    record_candidate_evaluations,
)
from repro.errors import InvalidAssignmentError, InvalidParameterError
from repro.kernels import numpy_backend
from repro.net.latency import LatencyMatrix


def _random_problem(rng, n, k, *, symmetric, capacities=None):
    values = rng.uniform(1.0, 100.0, size=(n, n))
    if symmetric:
        values = (values + values.T) / 2.0
    np.fill_diagonal(values, 0.0)
    servers = np.sort(rng.choice(n, size=k, replace=False))
    return ClientAssignmentProblem(
        LatencyMatrix(values), servers, capacities=capacities
    )


def _reference_d(problem, server_of):
    return max_interaction_path_length_bruteforce(
        Assignment(problem, server_of.copy())
    )


@pytest.mark.parametrize("symmetric", [False, True], ids=["asymmetric", "symmetric"])
@pytest.mark.parametrize("capacitated", [False, True], ids=["uncap", "cap"])
def test_random_walk_matches_bruteforce(symmetric, capacitated):
    """>= 1000 random apply/undo steps stay consistent with bruteforce.

    Small k (top-3) forces frequent lazy heap rebuilds, exercising the
    drain path rather than just the cached head.
    """
    rng = np.random.default_rng(20260806 + symmetric + 2 * capacitated)
    n, k_servers = 18, 5
    capacities = 6 if capacitated else None
    problem = _random_problem(
        rng, n, k_servers, symmetric=symmetric, capacities=capacities
    )
    if capacitated:
        # Round-robin keeps the start capacity-feasible; the walk's
        # guard preserves feasibility from there.
        server_of = np.arange(n) % k_servers
        rng.shuffle(server_of)
    else:
        server_of = rng.integers(0, k_servers, n)
    engine = IncrementalObjective(problem, server_of, k=3)
    shadow = server_of.copy()
    undo_depth = 0
    checked = 0

    for step in range(1100):
        roll = rng.random()
        if roll < 0.6 or undo_depth == 0:
            c = int(rng.integers(n))
            s = int(rng.integers(k_servers))
            if capacitated and s != shadow[c]:
                loads = np.bincount(shadow, minlength=k_servers)
                if loads[s] >= capacities:
                    continue
            predicted = engine.delta_D(c, s)
            engine.apply(c, s)
            shadow[c] = s
            undo_depth += 1
            assert engine.d() == pytest.approx(predicted, rel=1e-12)
        else:
            engine.undo()
            undo_depth -= 1
            # The shadow only tracks the head of the walk; resync from
            # the engine (undo correctness is asserted via d() below).
            shadow = engine.server_of.copy()
        if step % 37 == 0:
            assert engine.d() == pytest.approx(
                _reference_d(problem, shadow), rel=1e-9
            )
            checked += 1
    assert checked >= 25
    assert engine.verify()
    assert np.array_equal(engine.server_of, shadow)


def test_batch_delta_matches_committed_objective():
    """batch_delta_D[s] equals d() after actually moving there."""
    rng = np.random.default_rng(7)
    problem = _random_problem(rng, 16, 4, symmetric=False)
    server_of = rng.integers(0, 4, 16)
    engine = IncrementalObjective(problem, server_of)
    for c in range(problem.n_clients):
        scores = engine.batch_delta_D(c, respect_capacities=False)
        assert scores.shape == (problem.n_servers,)
        for s in range(problem.n_servers):
            engine.apply(c, s)
            assert engine.d() == pytest.approx(scores[s], rel=1e-12)
            engine.undo()
        assert engine.d() == pytest.approx(
            _reference_d(problem, engine.server_of), rel=1e-9
        )


def test_batch_delta_respects_capacities():
    rng = np.random.default_rng(11)
    problem = _random_problem(rng, 12, 3, symmetric=False, capacities=4)
    server_of = np.repeat(np.arange(3), 4)  # every server saturated
    engine = IncrementalObjective(problem, server_of)
    scores = engine.batch_delta_D(0)
    home = int(engine.server_of[0])
    for s in range(3):
        if s == home:
            assert np.isfinite(scores[s])
        else:
            assert np.isinf(scores[s])


def test_partial_build_assign_many_unassign_undo():
    rng = np.random.default_rng(23)
    problem = _random_problem(rng, 15, 4, symmetric=False)
    engine = IncrementalObjective(problem)
    assert engine.n_assigned == 0
    with pytest.raises(InvalidAssignmentError):
        engine.assignment()

    first = np.arange(0, 8)
    engine.assign_many(first, 1)
    assert engine.n_assigned == 8
    for c in range(8, 15):
        engine.assign(c, int(rng.integers(4)))
    full_d = engine.d()
    assert full_d == pytest.approx(
        _reference_d(problem, engine.server_of), rel=1e-9
    )

    # assign_many is one undo record: a single undo removes the batch.
    for _ in range(7):
        engine.undo()
    engine.undo()
    assert engine.n_assigned == 0

    # unassign shrinks the assigned set and d() tracks the remainder.
    engine.assign_many(np.arange(15), 2)
    engine.unassign(3)
    assert engine.n_assigned == 14
    remaining = np.delete(np.arange(15), 3)
    sub = ClientAssignmentProblem(
        problem.matrix, problem.servers, clients=problem.clients[remaining]
    )
    expected = max_interaction_path_length_bruteforce(
        Assignment(sub, np.full(14, 2))
    )
    assert engine.d() == pytest.approx(expected, rel=1e-9)
    engine.undo()  # restores client 3
    engine.undo()  # removes the batch
    assert engine.n_assigned == 0


def test_d_bit_identical_to_metrics():
    """engine.d() uses the same reduction as max_interaction_path_length."""
    rng = np.random.default_rng(31)
    problem = _random_problem(rng, 20, 5, symmetric=False)
    server_of = rng.integers(0, 5, 20)
    engine = IncrementalObjective(problem, server_of)
    assert engine.d() == max_interaction_path_length(Assignment(problem, server_of))
    for _ in range(50):
        engine.apply(int(rng.integers(20)), int(rng.integers(5)))
        assert engine.d() == max_interaction_path_length(
            Assignment(problem, engine.server_of.copy())
        )


def test_evaluation_counting():
    rng = np.random.default_rng(41)
    problem = _random_problem(rng, 10, 4, symmetric=False)
    engine = IncrementalObjective(problem, rng.integers(0, 4, 10))
    with count_evaluations() as outer:
        engine.batch_delta_D(0, respect_capacities=False)
        with count_evaluations() as inner:
            engine.delta_D(1, 2)
            record_candidate_evaluations(5)
        assert inner.count == 1 + 5
    # Nested counts propagate to the enclosing counter.
    assert outer.count == problem.n_servers + 1 + 5
    assert engine.n_evaluations >= problem.n_servers + 1


def test_parameter_and_state_errors():
    rng = np.random.default_rng(53)
    problem = _random_problem(rng, 8, 3, symmetric=False)
    with pytest.raises(InvalidParameterError):
        IncrementalObjective(problem, k=1)
    engine = IncrementalObjective(problem, rng.integers(0, 3, 8))
    with pytest.raises(InvalidParameterError):
        engine.undo()
    with pytest.raises(InvalidAssignmentError):
        engine.apply(0, 99)
    with pytest.raises(InvalidAssignmentError):
        engine.apply(99, 0)
    no_history = IncrementalObjective(
        problem, rng.integers(0, 3, 8), history=False
    )
    no_history.apply(0, 1)
    with pytest.raises(InvalidParameterError):
        no_history.undo()


def test_default_top_k_exported():
    assert DEFAULT_TOP_K >= 2


class TestTopListWatermark:
    """Edge cases of the ``_TopList`` eviction watermark (``bound``).

    The list's correctness story: any unlisted member has distance
    <= ``bound``, so the head is trustworthy exactly while
    ``head() >= bound``. These tests pin the transitions where that
    bookkeeping is easiest to get wrong.
    """

    def _top(self, k=3):
        from repro.core.incremental import _TopList

        return _TopList(k)

    def test_eviction_at_exactly_k(self):
        top = self._top(k=3)
        for dist, client in [(10.0, 0), (30.0, 1), (20.0, 2)]:
            top.add(dist, client)
        assert len(top) == 3
        assert top.bound == -np.inf  # nothing skipped or evicted yet
        # The 4th member evicts the smallest and stamps the watermark.
        top.add(25.0, 3)
        assert len(top) == 3
        assert top.clients == [1, 3, 2]
        assert top.bound == 10.0
        assert top.head() == 30.0

    def test_skipped_add_raises_watermark(self):
        top = self._top(k=2)
        top.add(30.0, 0)
        top.add(20.0, 1)
        top.add(5.0, 2)  # not among the top-2: skipped, not inserted
        assert len(top) == 2
        assert top.clients == [0, 1]
        assert top.bound == 5.0
        top.add(1.0, 3)  # below the watermark AND below the tail: skipped
        assert top.bound == 5.0

    def test_partial_drain_then_add_below_watermark(self):
        """After a drain, ``add`` may insert values below the watermark.

        This is exactly why ``bound`` is tracked instead of only
        handling the fully-drained case: the inserted value is *not*
        trustworthy as a maximum (a skipped 18.0 may exist), and
        ``head() >= bound`` is the guard that keeps the head usable.
        """
        top = self._top(k=2)
        top.add(30.0, 0)
        top.add(20.0, 1)
        top.add(18.0, 2)  # skipped; watermark = 18
        assert top.bound == 18.0
        top.discard(1)  # partial drain: one slot opens
        assert len(top) == 1
        top.add(7.0, 3)  # below the watermark, but inserted (list not full)
        assert top.clients == [0, 3]
        # Head is still above the watermark, so it remains the true max.
        assert top.head() == 30.0
        assert top.head() >= top.bound
        top.discard(0)  # now only 7.0 remains, which is < bound = 18:
        assert top.head() < top.bound  # owner must rebuild before trusting

    def test_discard_unlisted_is_noop(self):
        top = self._top(k=2)
        top.add(30.0, 0)
        top.add(20.0, 1)
        top.add(10.0, 2)
        before = top.snapshot()
        top.discard(2)  # client 2 was skipped, not listed
        assert top.snapshot() == before

    def test_rebuild_resets_watermark(self):
        top = self._top(k=2)
        top.add(30.0, 0)
        top.add(20.0, 1)
        top.add(10.0, 2)
        assert top.bound == 10.0
        # Rebuild from <= k members: every member is listed, bound clears.
        top.rebuild(np.array([4.0, 9.0]), np.array([5, 6]))
        assert top.clients == [6, 5]
        assert top.bound == -np.inf
        # Rebuild from > k members: bound is the best *unlisted* distance.
        top.rebuild(np.array([4.0, 9.0, 7.0, 1.0]), np.array([5, 6, 7, 8]))
        assert top.clients == [6, 7]
        assert top.bound == 4.0

    def test_snapshot_restore_round_trip(self):
        top = self._top(k=2)
        top.add(30.0, 0)
        top.add(20.0, 1)
        top.add(10.0, 2)
        state = top.snapshot()
        top.add(40.0, 3)
        top.discard(0)
        top.restore(state)
        assert top.clients == [0, 1]
        assert top.bound == 10.0

    @pytest.mark.parametrize("k", [2, 3])
    def test_unassign_storm_forces_correct_rebuilds(self, k):
        """Draining a server below its watermark stays bruteforce-correct.

        Pile every client onto one server, then unassign the farthest
        ones first — each removal drains the top list's head, pushing it
        below the watermark and forcing ground-truth rebuilds.
        """
        rng = np.random.default_rng(60 + k)
        n, k_servers = 20, 4
        problem = _random_problem(rng, n, k_servers, symmetric=False)
        engine = IncrementalObjective(problem, k=k)
        for c in range(n):
            engine.apply(c, 0)
        # Farthest-first removal order w.r.t. server 0's outbound leg.
        order = np.argsort(-problem.matrix.values[problem.servers[0], :])
        survivors = set(range(n))
        for c in order[: n - 4]:
            engine.unassign(int(c))
            survivors.discard(int(c))
            kept = sorted(survivors)
            # Reference: every ordered survivor pair (a == b included —
            # D's definition takes the max over the full pair grid)
            # routes through server 0.
            s0 = problem.servers[0]
            best = 0.0
            for a in kept:
                for b in kept:
                    best = max(
                        best,
                        problem.matrix.values[a, s0]
                        + problem.matrix.values[s0, b],
                    )
            assert engine.d() == pytest.approx(best, rel=1e-9)
        assert engine.verify()


def _assert_caches_exact(engine):
    """The cached D and reductions equal a from-scratch kernel pass."""
    if engine.n_assigned == 0:
        assert engine.d() == 0.0
        return
    l_out, l_in = engine.l_vectors()
    ss64 = np.asarray(engine.problem.server_server, dtype=np.float64)
    cached = engine._reductions
    assert engine.d() == numpy_backend.objective_refresh(l_out, l_in, ss64)
    if cached is not None:
        fresh = numpy_backend.reduction_top2(ss64, l_in, l_out)
        for got, want in zip(cached, fresh):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("history", [True, False], ids=["history", "no-history"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_caches_survive_commits_exactly(history, dtype, weighted):
    """Seeded walks: the caches a commit keeps or updates stay exact.

    After every commit the cached D equals a fresh ``objective_refresh``
    bit for bit, and reductions still cached equal a fresh
    ``reduction_top2``. Candidate queries between commits warm the
    reductions so the walk exercises commits that keep them (counted,
    so the check is not vacuous).
    """
    rng = np.random.default_rng(
        20261017 + 2 * history + 4 * (dtype is np.float32) + 8 * weighted
    )
    n, k_servers = 48, 5
    values = rng.uniform(1.0, 100.0, size=(n, n))
    np.fill_diagonal(values, 0.0)
    servers = np.sort(rng.choice(n, size=k_servers, replace=False))
    weights = rng.integers(1, 6, size=n) if weighted else None
    problem = ClientAssignmentProblem(
        LatencyMatrix(values, dtype=dtype), servers, client_weights=weights
    )
    engine = IncrementalObjective(problem, k=3, history=history)
    kept = 0
    for _ in range(600):
        if rng.uniform() < 0.3:
            engine.batch_delta_D(int(rng.integers(n)))
        before = engine._reductions
        server_of = engine.server_of
        free = np.flatnonzero(server_of < 0)
        taken = np.flatnonzero(server_of >= 0)
        op = int(rng.integers(10))
        if op < 3:
            engine.apply(int(rng.integers(n)), int(rng.integers(k_servers)))
        elif op < 5 and free.size:
            engine.assign(int(rng.choice(free)), int(rng.integers(k_servers)))
        elif op < 6 and free.size:
            size = int(rng.integers(1, min(free.size, 6) + 1))
            batch = rng.choice(free, size=size, replace=False)
            engine.assign_many(batch, int(rng.integers(k_servers)))
        elif op < 8 and taken.size:
            engine.unassign(int(rng.choice(taken)))
        elif history and engine._undo_stack:
            engine.undo()
        else:
            continue
        if before is not None and engine._reductions is before:
            kept += 1
        _assert_caches_exact(engine)
    assert kept > 0
    assert engine.verify()
