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


class TestBackendForwarding:
    def test_backend_forwarded_to_engine_algorithms(self, small_problem):
        baseline = run_algorithm("distributed-greedy", small_problem, seed=2)
        explicit = run_algorithm(
            "distributed-greedy", small_problem, seed=2, backend="numpy"
        )
        assert (
            explicit.assignment.server_of == baseline.assignment.server_of
        ).all()
        assert explicit.d == pytest.approx(baseline.d, rel=1e-12)

    def test_backend_ignored_by_engineless_algorithms(self, small_problem):
        # nearest-server never builds an engine; the knob is dropped
        # rather than crashing the facade.
        result = run_algorithm(
            "nearest-server", small_problem, seed=0, backend="numpy"
        )
        assert result.algorithm == "nearest-server"

    def test_invalid_backend_rejected(self, small_problem):
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            run_algorithm("greedy", small_problem, seed=0, backend="gpu")

    @pytest.mark.parametrize("name", ["greedy", "greedy-absolute"])
    def test_numba_request_fails_loudly_when_absent(self, small_problem, name):
        # Both registry names build the engine; neither may fall back
        # to numpy silently when numba was asked for.
        from repro.errors import KernelBackendError
        from repro.kernels import numba_available

        if numba_available():
            pytest.skip("numba importable here; the error path is unreachable")
        with pytest.raises(KernelBackendError):
            run_algorithm(name, small_problem, seed=0, backend="numba")
