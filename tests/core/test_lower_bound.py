"""Tests for repro.core.lower_bound (super-optimal bound)."""

from unittest import mock

import numpy as np
import pytest

from repro.algorithms import greedy, nearest_server
from repro.core import (
    Assignment,
    ClientAssignmentProblem,
    interaction_lower_bound,
    interaction_lower_bound_bruteforce,
    max_interaction_path_length,
    single_pair_lower_bound,
    solve_branch_and_bound,
)
from repro.core import lower_bound as lower_bound_module
from repro.net.latency import LatencyMatrix


class TestAgainstBruteforce:
    def test_matches_on_random_instances(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            n = int(rng.integers(8, 20))
            matrix = LatencyMatrix.random_metric(n, seed=trial)
            k = int(rng.integers(2, 5))
            servers = rng.choice(n, size=k, replace=False)
            problem = ClientAssignmentProblem(matrix, servers)
            fast = interaction_lower_bound(problem)
            slow = interaction_lower_bound_bruteforce(problem)
            assert fast == slow

    def test_matches_on_asymmetric(self):
        rng = np.random.default_rng(1)
        d = rng.uniform(1.0, 30.0, size=(10, 10))
        np.fill_diagonal(d, 0.0)
        problem = ClientAssignmentProblem(LatencyMatrix(d), servers=[0, 3, 7])
        assert interaction_lower_bound(problem) == interaction_lower_bound_bruteforce(problem)

    def test_blocking_invariance(self, small_problem):
        a = interaction_lower_bound(small_problem, block_size=3)
        b = interaction_lower_bound(small_problem, block_size=512)
        assert a == b


class TestTightenedScan:
    """The pair scan tightens its row and column bounds to the rows
    still pending; whether it does so after every block or (almost)
    never, the bound equals brute force bit for bit."""

    @pytest.mark.parametrize("tighten_after", [0, 1, 4, 10**9])
    @pytest.mark.parametrize("cells", [1, 4, 64])
    @pytest.mark.parametrize("kind", ["int", "float32", "float64"])
    def test_equals_bruteforce(self, tighten_after, cells, kind):
        rng = np.random.default_rng([tighten_after % 97, cells, len(kind)])
        for _ in range(6):
            n = int(rng.integers(2, 24))
            if kind == "int":
                d = rng.integers(1, 5, size=(n, n)).astype(np.float64)
            else:
                d = rng.uniform(1.0, 100.0, size=(n, n))
            if kind == "float32":
                d = d.astype(np.float32)
            np.fill_diagonal(d, 0)
            servers = rng.choice(n, size=int(rng.integers(1, min(n, 6) + 1)), replace=False)
            problem = ClientAssignmentProblem(LatencyMatrix(d), servers)
            with mock.patch.object(
                lower_bound_module, "_PAIR_CELLS", cells
            ), mock.patch.object(lower_bound_module, "_TIGHTEN_AFTER", tighten_after):
                fast = interaction_lower_bound(problem)
            # The unpruned factored form; brute force too, except for
            # float32, where it rounds the second product in float32.
            cs, ss, sc = (
                problem.client_server,
                problem.server_server,
                problem.server_client,
            )
            a = (cs[:, :, None] + ss[None]).min(axis=1).astype(np.float64)
            assert fast == float((a[:, :, None] + sc[None]).min(axis=1).max())
            if kind != "float32":
                assert fast == interaction_lower_bound_bruteforce(problem)


class TestBoundProperty:
    def test_below_every_assignment(self, small_problem):
        lb = interaction_lower_bound(small_problem)
        rng = np.random.default_rng(2)
        for _ in range(20):
            arr = rng.integers(0, small_problem.n_servers, small_problem.n_clients)
            a = Assignment(small_problem, arr)
            assert max_interaction_path_length(a) >= lb - 1e-9

    def test_below_heuristics(self, small_problem):
        lb = interaction_lower_bound(small_problem)
        for fn in (nearest_server, greedy):
            assert max_interaction_path_length(fn(small_problem)) >= lb - 1e-9

    def test_below_optimum(self):
        matrix = LatencyMatrix.random_metric(9, seed=5)
        problem = ClientAssignmentProblem(matrix, servers=[0, 4, 8])
        lb = interaction_lower_bound(problem)
        opt = solve_branch_and_bound(problem).objective
        assert lb <= opt + 1e-9

    def test_single_server_bound_achieved(self, tiny_matrix):
        # With one server the bound is exactly achievable: every client
        # must use that server.
        problem = ClientAssignmentProblem(tiny_matrix, servers=[2])
        lb = interaction_lower_bound(problem)
        a = Assignment(problem, np.zeros(5, dtype=np.int64))
        assert max_interaction_path_length(a) == pytest.approx(lb)


class TestSinglePair:
    def test_consistent_with_global_bound(self, small_problem):
        lb = interaction_lower_bound(small_problem)
        n = small_problem.n_clients
        pair_max = max(
            single_pair_lower_bound(small_problem, i, j)
            for i in range(0, n, 5)
            for j in range(0, n, 5)
        )
        assert pair_max <= lb + 1e-9

    def test_hand_computed(self, tiny_matrix):
        problem = ClientAssignmentProblem(tiny_matrix, servers=[1, 3])
        m = tiny_matrix
        expected = min(
            m.distance(0, 1) + 0 + m.distance(1, 4),
            m.distance(0, 1) + m.distance(1, 3) + m.distance(3, 4),
            m.distance(0, 3) + m.distance(3, 1) + m.distance(1, 4),
            m.distance(0, 3) + 0 + m.distance(3, 4),
        )
        assert single_pair_lower_bound(problem, 0, 4) == pytest.approx(expected)
