"""The run_algorithm facade and AssignmentResult contract."""

from __future__ import annotations

import pytest

from repro.algorithms import (
    algorithm_names,
    get_algorithm,
    run_algorithm,
)
from repro.core import AssignmentResult, max_interaction_path_length
from repro.errors import ReproError, UnknownAlgorithmError


def test_result_fields(small_problem):
    result = run_algorithm("greedy", small_problem, seed=0)
    assert isinstance(result, AssignmentResult)
    assert result.algorithm == "greedy"
    assert result.seed == 0
    assert result.problem is small_problem
    assert result.d == max_interaction_path_length(result.assignment)
    assert result.elapsed_seconds > 0
    assert result.n_evaluations > 0
    summary = result.summary()
    assert "greedy" in summary and "evaluations" in summary


def test_matches_direct_call(small_problem):
    for name in ("nearest-server", "greedy", "distributed-greedy"):
        direct = get_algorithm(name)(small_problem, seed=3)
        via_facade = run_algorithm(name, small_problem, seed=3)
        assert (via_facade.assignment.server_of == direct.server_of).all()


def test_detailed_algorithms_expose_extras(small_problem):
    result = run_algorithm("distributed-greedy", small_problem, seed=1)
    assert result.trace is not None and len(result.trace) >= 1
    assert result.extras["n_messages"] > 0
    assert "n_modifications" in result.extras
    assert result.extras["converged"] in (True, False)


def test_kwargs_forwarded(small_problem):
    limited = run_algorithm(
        "distributed-greedy", small_problem, seed=1, max_modifications=0
    )
    assert limited.extras["n_modifications"] == 0


def test_every_registered_algorithm_runs(small_problem):
    for name in algorithm_names():
        result = run_algorithm(name, small_problem, seed=0)
        assert result.d > 0
        assert result.assignment.problem is small_problem


def test_unknown_algorithm_error():
    with pytest.raises(UnknownAlgorithmError) as excinfo:
        get_algorithm("no-such-algorithm")
    message = str(excinfo.value)
    assert "no-such-algorithm" in message
    assert "greedy" in message  # lists what IS available

    # KeyError-compatible for pre-facade callers, and a ReproError.
    with pytest.raises(KeyError):
        get_algorithm("no-such-algorithm")
    with pytest.raises(ReproError):
        run_algorithm("no-such-algorithm", None)


def test_evaluation_counts_scale(small_problem):
    few = run_algorithm("nearest-server", small_problem, seed=0)
    many = run_algorithm("distributed-greedy", small_problem, seed=0)
    assert many.n_evaluations > few.n_evaluations > 0
