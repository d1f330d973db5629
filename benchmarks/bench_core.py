"""Micro-benchmarks for the metric and bound computations.

The O(|C| + |S|^2) D computation and the §V lower bound are the
harness's inner loops; regressions here multiply across the thousands
of runs in the random-placement sweeps. The lower bound is two min-plus
products, the second scanned with exact row/column bound pruning (see
``repro.core.lower_bound``); its benchmark also checks the pruned value
against the brute-force oracle. With ``--benchmark-disable`` each
function runs once, so the assertions double as a smoke test.
"""

import numpy as np
import pytest

from repro.algorithms import nearest_server
from repro.core import (
    ClientAssignmentProblem,
    OffsetSchedule,
    clients_on_longest_paths,
    interaction_lower_bound,
    interaction_lower_bound_bruteforce,
    max_interaction_path_length,
)
from repro.placement import random_placement


@pytest.fixture(scope="module")
def instance(bench_matrix):
    servers = random_placement(bench_matrix, 80, seed=0)
    return ClientAssignmentProblem(bench_matrix, servers)


@pytest.fixture(scope="module")
def assignment(instance):
    return nearest_server(instance)


def test_max_interaction_path_length(benchmark, assignment):
    d = benchmark(max_interaction_path_length, assignment)
    assert d > 0


def test_lower_bound(benchmark, instance):
    lb = benchmark(interaction_lower_bound, instance)
    assert lb > 0
    assert lb == interaction_lower_bound_bruteforce(instance)


def test_clients_on_longest_paths(benchmark, assignment):
    involved = benchmark(clients_on_longest_paths, assignment)
    assert involved.size >= 1


def test_offset_schedule_construction(benchmark, assignment):
    schedule = benchmark(OffsetSchedule, assignment)
    assert schedule.check_constraints().feasible


def test_problem_construction(benchmark, bench_matrix):
    servers = random_placement(bench_matrix, 80, seed=1)
    problem = benchmark(ClientAssignmentProblem, bench_matrix, servers)
    assert problem.n_servers == 80
