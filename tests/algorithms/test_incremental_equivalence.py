"""Rewired heuristics produce the same result under both evaluators.

Every algorithm that moved onto the incremental engine kept its
from-scratch evaluation path behind ``evaluator="recompute"``. On seeded
instances the two paths must walk the same trajectory — same moves in
the same order — and therefore end at the same assignment and objective.
This is the regression net for the engine rewiring: any divergence in
gating, tie-breaking, or floating point evaluation order shows up here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.distributed_greedy import distributed_greedy_detailed
from repro.algorithms.local_search import hill_climbing, simulated_annealing
from repro.core import ClientAssignmentProblem, max_interaction_path_length
from repro.datasets.synthetic import small_world_latencies
from repro.errors import InvalidParameterError
from repro.net.latency import LatencyMatrix
from repro.placement import random_placement


def _problems():
    cases = []
    for n, k, seed in [(30, 4, 1), (50, 6, 2), (70, 8, 3)]:
        matrix = small_world_latencies(n, seed=seed)
        servers = random_placement(matrix, k, seed=seed)
        cases.append(ClientAssignmentProblem(matrix, servers))
        cases.append(
            ClientAssignmentProblem(matrix, servers, capacities=-(-n // k) + 2)
        )
    # One asymmetric instance: the engine handles both legs separately.
    rng = np.random.default_rng(9)
    values = rng.uniform(1.0, 100.0, size=(40, 40))
    np.fill_diagonal(values, 0.0)
    asym = LatencyMatrix(values)
    cases.append(
        ClientAssignmentProblem(asym, random_placement(asym, 5, seed=9))
    )
    # float32 storage: the engine accumulates in float64 throughout.
    f32 = small_world_latencies(60, seed=6, dtype=np.float32)
    cases.append(ClientAssignmentProblem(f32, random_placement(f32, 7, seed=6)))
    # Weighted clients, as the coreset's reduced instances carry.
    matrix = small_world_latencies(45, seed=5)
    weights = np.random.default_rng(5).integers(1, 6, size=45)
    cases.append(
        ClientAssignmentProblem(
            matrix, random_placement(matrix, 5, seed=5), client_weights=weights
        )
    )
    # Small-alphabet integer latencies: many clients tie on a longest
    # path, so the candidate set (and n_messages) is large.
    rng = np.random.default_rng(11)
    values = np.triu(rng.integers(1, 5, size=(50, 50)).astype(np.float64), 1)
    ties = LatencyMatrix(values + values.T)
    cases.append(ClientAssignmentProblem(ties, random_placement(ties, 6, seed=11)))
    return cases


PROBLEMS = _problems()


@pytest.mark.parametrize("idx", range(len(PROBLEMS)))
def test_hill_climbing_equivalent(idx):
    problem = PROBLEMS[idx]
    new = hill_climbing(problem, seed=idx, evaluator="incremental")
    old = hill_climbing(problem, seed=idx, evaluator="recompute")
    assert np.array_equal(new.server_of, old.server_of)
    assert max_interaction_path_length(new) == pytest.approx(
        max_interaction_path_length(old), rel=1e-12
    )


@pytest.mark.parametrize("idx", range(len(PROBLEMS)))
def test_simulated_annealing_equivalent(idx):
    problem = PROBLEMS[idx]
    new = simulated_annealing(
        problem, seed=idx, n_steps=400, evaluator="incremental"
    )
    old = simulated_annealing(
        problem, seed=idx, n_steps=400, evaluator="recompute"
    )
    # Identical RNG draw order + identical accept/reject decisions.
    assert np.array_equal(new.server_of, old.server_of)


@pytest.mark.parametrize("idx", range(len(PROBLEMS)))
def test_distributed_greedy_equivalent(idx):
    problem = PROBLEMS[idx]
    new = distributed_greedy_detailed(
        problem, seed=idx, evaluator="incremental"
    )
    old = distributed_greedy_detailed(problem, seed=idx, evaluator="recompute")
    assert new.trace == old.trace
    assert new.n_messages == old.n_messages
    assert new.n_modifications == old.n_modifications
    assert np.array_equal(new.assignment.server_of, old.assignment.server_of)


@pytest.mark.parametrize(
    "fn",
    [hill_climbing, simulated_annealing, distributed_greedy_detailed],
    ids=["hill-climbing", "simulated-annealing", "distributed-greedy"],
)
def test_unknown_evaluator_rejected(fn):
    with pytest.raises(InvalidParameterError):
        fn(PROBLEMS[0], evaluator="telepathy")
