"""Property-based tests (hypothesis) on core invariants.

Strategies generate random problem instances (metric or noisy) and check
the invariants every algorithm and metric must uphold regardless of
input shape.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    distributed_greedy_detailed,
    greedy,
    longest_first_batch,
    nearest_server,
)
from repro.core import (
    Assignment,
    ClientAssignmentProblem,
    OffsetSchedule,
    interaction_lower_bound,
    interaction_lower_bound_bruteforce,
    max_interaction_path_length,
    max_interaction_path_length_bruteforce,
)
from repro.net.latency import LatencyMatrix

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def problems(draw, max_nodes=14, capacitated=False):
    """A random problem instance (possibly non-metric, symmetric)."""
    n = draw(st.integers(min_value=3, max_value=max_nodes))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    d = rng.uniform(1.0, 100.0, size=(n, n))
    d = (d + d.T) / 2.0
    np.fill_diagonal(d, 0.0)
    matrix = LatencyMatrix(d)
    k = draw(st.integers(min_value=1, max_value=n))
    servers = rng.choice(n, size=k, replace=False)
    capacities = None
    if capacitated:
        # Capacity between ceil(n/k) (tight) and n (loose).
        low = -(-n // k)
        capacities = draw(st.integers(min_value=low, max_value=n))
    return ClientAssignmentProblem(matrix, servers, capacities=capacities)


@st.composite
def problems_with_assignments(draw):
    problem = draw(problems())
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    arr = rng.integers(0, problem.n_servers, problem.n_clients)
    return problem, Assignment(problem, arr)


ALGORITHMS = [nearest_server, longest_first_batch, greedy]


class TestMetricInvariants:
    @SETTINGS
    @given(problems_with_assignments())
    def test_fast_d_equals_bruteforce(self, pa):
        _problem, assignment = pa
        assert max_interaction_path_length(assignment) == pytest.approx(
            max_interaction_path_length_bruteforce(assignment)
        )

    @SETTINGS
    @given(problems(max_nodes=10))
    def test_lower_bound_equals_bruteforce(self, problem):
        assert interaction_lower_bound(problem) == interaction_lower_bound_bruteforce(problem)

    @SETTINGS
    @given(problems_with_assignments())
    def test_d_at_least_lower_bound(self, pa):
        problem, assignment = pa
        lb = interaction_lower_bound(problem)
        assert max_interaction_path_length(assignment) >= lb - 1e-9

    @SETTINGS
    @given(problems_with_assignments())
    def test_d_at_least_largest_round_trip(self, pa):
        problem, assignment = pa
        rt = 2 * assignment.client_distances()
        assert max_interaction_path_length(assignment) >= rt.max() - 1e-9


class TestAlgorithmInvariants:
    @SETTINGS
    @given(problems())
    def test_algorithms_produce_valid_assignments(self, problem):
        for fn in ALGORITHMS:
            a = fn(problem)
            assert a.server_of.shape == (problem.n_clients,)
            assert np.all((a.server_of >= 0) & (a.server_of < problem.n_servers))

    @SETTINGS
    @given(problems())
    def test_lfb_never_worse_than_nsa(self, problem):
        d_lfb = max_interaction_path_length(longest_first_batch(problem))
        d_nsa = max_interaction_path_length(nearest_server(problem))
        assert d_lfb <= d_nsa + 1e-9

    @SETTINGS
    @given(problems(capacitated=True))
    def test_capacitated_algorithms_respect_capacities(self, problem):
        for fn in ALGORITHMS:
            assert fn(problem).respects_capacities()

    @SETTINGS
    @given(problems(max_nodes=12))
    def test_dga_trace_monotone_and_bounded(self, problem):
        result = distributed_greedy_detailed(problem)
        trace = result.trace
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
        assert result.final_d <= result.initial_d + 1e-9
        assert result.final_d == pytest.approx(
            max_interaction_path_length(result.assignment)
        )


class TestScheduleInvariants:
    @SETTINGS
    @given(problems_with_assignments())
    def test_minimal_schedule_always_feasible(self, pa):
        _problem, assignment = pa
        report = OffsetSchedule(assignment).check_constraints()
        assert report.feasible

    @SETTINGS
    @given(problems_with_assignments(), st.floats(min_value=1.0, max_value=3.0))
    def test_inflated_delta_feasible(self, pa, factor):
        _problem, assignment = pa
        d = max_interaction_path_length(assignment)
        report = OffsetSchedule(assignment, delta=d * factor).check_constraints()
        assert report.feasible
