"""Tests for Distributed-Greedy Assignment."""

import numpy as np
import pytest

from repro.algorithms import (
    distributed_greedy,
    distributed_greedy_detailed,
    greedy,
    nearest_server,
)
from repro.algorithms.distributed_greedy import _candidate_lengths_recompute
from repro.core import (
    Assignment,
    ClientAssignmentProblem,
    max_interaction_path_length,
)
from repro.net.latency import LatencyMatrix
from repro.placement import random_placement


class TestTrace:
    def test_trace_starts_at_initial_d(self, small_problem):
        result = distributed_greedy_detailed(small_problem)
        initial = nearest_server(small_problem)
        assert result.trace[0] == pytest.approx(
            max_interaction_path_length(initial)
        )

    def test_trace_ends_at_final_d(self, small_problem):
        result = distributed_greedy_detailed(small_problem)
        assert result.trace[-1] == pytest.approx(
            max_interaction_path_length(result.assignment)
        )

    def test_trace_nonincreasing(self, medium_matrix):
        for seed in range(5):
            servers = random_placement(medium_matrix, 10, seed=seed)
            problem = ClientAssignmentProblem(medium_matrix, servers)
            result = distributed_greedy_detailed(problem)
            trace = result.trace
            assert all(
                later <= earlier + 1e-9
                for earlier, later in zip(trace, trace[1:])
            )

    def test_modification_count(self, small_problem):
        result = distributed_greedy_detailed(small_problem)
        assert result.n_modifications == len(result.trace) - 1

    def test_messages_counted(self, small_problem):
        result = distributed_greedy_detailed(small_problem)
        s = small_problem.n_servers
        assert result.n_messages >= s * (s - 1)  # at least the initial round


class TestQuality:
    def test_never_worse_than_initial(self, medium_matrix):
        for seed in range(5):
            servers = random_placement(medium_matrix, 8, seed=seed)
            problem = ClientAssignmentProblem(medium_matrix, servers)
            result = distributed_greedy_detailed(problem)
            assert result.final_d <= result.initial_d + 1e-9

    def test_usually_converges(self, small_problem):
        result = distributed_greedy_detailed(small_problem)
        assert result.converged

    def test_competitive_with_greedy(self, medium_matrix):
        # DGA should be in the same quality class as GA (paper: slightly
        # better on average).
        dga_ds, ga_ds = [], []
        for seed in range(6):
            servers = random_placement(medium_matrix, 10, seed=seed)
            problem = ClientAssignmentProblem(medium_matrix, servers)
            dga_ds.append(distributed_greedy_detailed(problem).final_d)
            ga_ds.append(max_interaction_path_length(greedy(problem)))
        assert np.mean(dga_ds) <= np.mean(ga_ds) * 1.1

    def test_custom_initial_assignment(self, small_problem):
        rng = np.random.default_rng(0)
        arr = rng.integers(0, small_problem.n_servers, small_problem.n_clients)
        initial = Assignment(small_problem, arr)
        result = distributed_greedy_detailed(small_problem, initial=initial)
        assert result.trace[0] == pytest.approx(
            max_interaction_path_length(initial)
        )
        assert result.final_d <= result.trace[0] + 1e-9


class TestBudget:
    def test_max_modifications_respected(self, medium_matrix):
        servers = random_placement(medium_matrix, 10, seed=1)
        problem = ClientAssignmentProblem(medium_matrix, servers)
        result = distributed_greedy_detailed(problem, max_modifications=2)
        assert result.n_modifications <= 2

    def test_zero_budget_returns_initial(self, small_problem):
        result = distributed_greedy_detailed(small_problem, max_modifications=0)
        assert result.n_modifications == 0
        assert result.assignment == nearest_server(small_problem)


class TestCapacitated:
    def test_respects_capacities(self, capacitated_problem):
        result = distributed_greedy_detailed(capacitated_problem)
        assert result.assignment.respects_capacities()

    def test_improves_capacitated_nearest(self, capacitated_problem):
        initial_d = max_interaction_path_length(
            nearest_server(capacitated_problem)
        )
        result = distributed_greedy_detailed(capacitated_problem)
        assert result.final_d <= initial_d + 1e-9


class TestRegistryWrapper:
    def test_wrapper_returns_same_assignment(self, small_problem):
        assert distributed_greedy(small_problem) == distributed_greedy_detailed(
            small_problem
        ).assignment


class TestTieBreak:
    """Equal ``L(s')`` replies go to the lowest server index."""

    @staticmethod
    def _tied_problem():
        # Nodes 0-2 are servers one hop apart; nodes 3 and 4 are clients.
        # Client 3 sits 2 from servers 0 and 1 and 10 from server 2;
        # client 4 sits 1 from server 2 and 5 from the others.
        d = np.array(
            [
                [0, 1, 1, 2, 5],
                [1, 0, 1, 2, 5],
                [1, 1, 0, 10, 1],
                [2, 2, 10, 0, 12],
                [5, 5, 1, 12, 0],
            ],
            dtype=float,
        )
        return ClientAssignmentProblem(LatencyMatrix(d), [0, 1, 2], clients=[3, 4])

    @pytest.mark.parametrize("evaluator", ["incremental", "recompute"])
    def test_equal_replies_move_to_the_lowest_index(self, evaluator):
        problem = self._tied_problem()
        # Both clients start on server 2: client 3's round trip (20) is D.
        start = np.array([2, 2])
        replies = _candidate_lengths_recompute(problem, start, 0)
        assert replies[0] == replies[1] == 4.0
        assert replies[2] == 20.0
        result = distributed_greedy_detailed(
            problem, initial=Assignment(problem, start), evaluator=evaluator
        )
        assert result.trace == (20.0, 4.0)
        assert result.assignment.server_of.tolist() == [0, 2]
