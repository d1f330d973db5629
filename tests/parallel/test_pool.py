"""TrialPool: serial/parallel equivalence, failure containment, stats."""

from __future__ import annotations

import multiprocessing
import os
import pickle

import numpy as np
import pytest

from repro.datasets.synthetic import small_world_latencies
from repro.errors import TrialExecutionError
from repro.parallel import (
    TrialOutcome,
    TrialPool,
    resolve_workers,
    run_trials,
    successful_values,
)


# ----------------------------------------------------------------------
# Module-level trial functions (workers import them by qualified name)
# ----------------------------------------------------------------------
def _square(matrix, task):
    return task * task


def _matrix_row_sum(matrix, task):
    return float(matrix.values[task].sum())


def _has_matrix(matrix, task):
    return matrix is not None


def _fail_on_three(matrix, task):
    if task == 3:
        raise ValueError("three is right out")
    return task


def _fail_always(matrix, task):
    raise ValueError(f"no trial {task}")


def _flaky_until_marker(matrix, task):
    """Raises once, then succeeds: the marker file survives the retry."""
    index, marker = task
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as fh:
            fh.write("attempted")
        raise RuntimeError("first attempt always fails")
    return index


def _crash_until_marker(matrix, task):
    """Kills its worker process once, then succeeds on re-execution."""
    index, marker = task
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as fh:
            fh.write("attempted")
        os._exit(17)
    return index


def _poison(matrix, task):
    """A task that kills any worker that runs it, every time."""
    index, poisoned = task
    if index == poisoned:
        os._exit(23)
    return index


# ----------------------------------------------------------------------
def test_resolve_workers():
    assert resolve_workers(0) == 0
    assert resolve_workers(None) == 0
    assert resolve_workers("serial") == 0
    assert resolve_workers("2") == 2
    assert resolve_workers(3) == 3
    assert resolve_workers(-1) >= 1


def test_serial_map_preserves_order_and_values():
    with TrialPool(0) as pool:
        outcomes = pool.map_trials(_square, [3, 1, 4, 1, 5])
    assert [o.index for o in outcomes] == [0, 1, 2, 3, 4]
    assert [o.value for o in outcomes] == [9, 1, 16, 1, 25]
    assert all(o.ok and not o.retried for o in outcomes)
    assert pool.stats.n_trials == 5
    assert pool.stats.n_failed == 0


def test_parallel_matches_serial_results():
    tasks = list(range(23))
    with TrialPool(0) as pool:
        serial = pool.map_trials(_square, tasks)
    with TrialPool(2, chunk_size=3) as pool:
        parallel = pool.map_trials(_square, tasks)
    assert [o.value for o in serial] == [o.value for o in parallel]
    assert [o.index for o in parallel] == list(range(23))


def test_parallel_delivers_matrix_to_workers():
    matrix = small_world_latencies(30, seed=5)
    tasks = list(range(matrix.n_nodes))
    expected = [float(matrix.values[i].sum()) for i in tasks]
    with TrialPool(2) as pool:
        outcomes = pool.map_trials(_matrix_row_sum, tasks, matrix=matrix)
    assert [o.value for o in outcomes] == expected


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_matrix_pickle_round_trip_keeps_dtype_and_values(dtype):
    matrix = small_world_latencies(12, seed=3).astype(dtype)
    restored = pickle.loads(pickle.dumps(matrix))
    assert restored.dtype == np.dtype(dtype)
    assert restored.values.tobytes() == matrix.values.tobytes()
    assert not restored.values.flags.writeable


def test_spawned_workers_receive_the_matrix(monkeypatch):
    """Without fork the executor's initializer pickles the matrix over."""
    import repro.parallel.pool as pool_module

    monkeypatch.setattr(
        pool_module, "_mp_context", lambda: multiprocessing.get_context("spawn")
    )
    matrix = small_world_latencies(16, seed=4)
    tasks = list(range(matrix.n_nodes))
    expected = [float(matrix.values[i].sum()) for i in tasks]
    with TrialPool(2) as pool:
        outcomes = pool.map_trials(_matrix_row_sum, tasks, matrix=matrix)
    assert [o.value for o in outcomes] == expected


def test_new_matrix_replaces_the_executor_and_none_reuses_it():
    first = small_world_latencies(10, seed=1)
    second = small_world_latencies(14, seed=2)
    with TrialPool(2) as pool:
        pool.map_trials(_matrix_row_sum, [0], matrix=first)
        executor = pool._executor
        # A matrix-less call runs on the same workers and passes None.
        assert [o.value for o in pool.map_trials(_has_matrix, [0])] == [False]
        assert pool._executor is executor
        (outcome,) = pool.map_trials(_matrix_row_sum, [13], matrix=second)
        assert pool._executor is not executor
    assert outcome.value == float(second.values[13].sum())


def test_empty_task_list():
    with TrialPool(2) as pool:
        assert pool.map_trials(_square, []) == []
    assert pool.stats.n_trials == 0


def test_exception_is_contained_and_retried_inline():
    with TrialPool(0) as pool:
        outcomes = pool.map_trials(_fail_on_three, [1, 2, 3, 4])
    ok = [o for o in outcomes if o.ok]
    bad = [o for o in outcomes if not o.ok]
    assert [o.value for o in ok] == [1, 2, 4]
    assert len(bad) == 1 and bad[0].index == 2
    assert bad[0].retried
    assert "ValueError" in bad[0].error
    assert pool.stats.n_failed == 1
    assert pool.stats.n_retried == 1


def test_transient_exception_recovers_on_in_place_retry(tmp_path):
    marker = str(tmp_path / "attempted")
    with TrialPool(0) as pool:
        outcomes = pool.map_trials(_flaky_until_marker, [(7, marker)])
    (outcome,) = outcomes
    assert outcome.ok and outcome.value == 7 and outcome.retried


def test_worker_crash_is_retried_then_isolated(tmp_path):
    """A worker killed mid-chunk costs a retry, not the sweep."""
    marker = str(tmp_path / "crashed-once")
    tasks = [(i, marker) for i in range(6)]
    with TrialPool(2, chunk_size=2) as pool:
        outcomes = pool.map_trials(_crash_until_marker, tasks)
    assert [o.index for o in outcomes] == list(range(6))
    assert all(o.ok for o in outcomes)
    assert [o.value for o in outcomes] == list(range(6))
    assert pool.stats.n_crashed_chunks >= 1
    assert pool.stats.n_failed == 0


def test_poison_task_reported_failed_not_fatal():
    """A task that always kills its worker fails alone; others succeed."""
    tasks = [(i, 4) for i in range(8)]
    with TrialPool(2, chunk_size=2) as pool:
        outcomes = pool.map_trials(_poison, tasks)
    assert [o.index for o in outcomes] == list(range(8))
    by_index = {o.index: o for o in outcomes}
    assert not by_index[4].ok
    assert "crashed" in by_index[4].error
    for i in range(8):
        if i != 4:
            assert by_index[i].ok and by_index[i].value == i
    assert pool.stats.n_failed == 1


def test_pool_rejects_use_after_close():
    pool = TrialPool(0)
    pool.close()
    with pytest.raises(RuntimeError, match="closed"):
        pool.map_trials(_square, [1])


def test_run_trials_without_pool_is_serial():
    outcomes = run_trials(_square, [2, 3])
    assert [o.value for o in outcomes] == [4, 9]


def test_successful_values_filters_and_raises():
    good = [TrialOutcome(index=0, value=1), TrialOutcome(index=1, value=2)]
    mixed = good + [TrialOutcome(index=2, error="boom")]
    assert successful_values(mixed, context="x") == [1, 2]
    assert successful_values([], context="x") == []
    with pytest.raises(TrialExecutionError, match="all 1 trial"):
        successful_values(
            [TrialOutcome(index=0, error="boom")], context="sweep point"
        )


def test_stats_describe_mentions_backend():
    with TrialPool(0) as pool:
        pool.map_trials(_square, [1, 2])
    line = pool.stats.describe()
    assert "serial" in line
    assert "2 trials" in line


def test_chunking_never_drops_tasks():
    tasks = list(range(17))
    for chunk_size in (1, 2, 5, 17, 100):
        with TrialPool(2, chunk_size=chunk_size) as pool:
            outcomes = pool.map_trials(_square, tasks)
        assert [o.value for o in outcomes] == [t * t for t in tasks]


def test_trial_outcomes_carry_wall_time():
    with TrialPool(0) as pool:
        outcomes = pool.map_trials(_square, [1, 2, 3])
    assert all(o.seconds >= 0.0 for o in outcomes)
    assert pool.stats.trial_seconds >= 0.0
    assert pool.stats.wall_seconds > 0.0


def test_values_identical_to_single_worker():
    matrix = small_world_latencies(20, seed=9)
    tasks = list(range(matrix.n_nodes))
    with TrialPool(1) as pool:
        one = pool.map_trials(_matrix_row_sum, tasks, matrix=matrix)
    with TrialPool(3) as pool:
        three = pool.map_trials(_matrix_row_sum, tasks, matrix=matrix)
    assert np.array_equal(
        [o.value for o in one], [o.value for o in three]
    )


def test_retry_counters_reach_registry(tmp_path):
    from repro.obs import registry

    before = registry().counter("pool.retry.attempts").value
    marker = str(tmp_path / "counted")
    with TrialPool(0) as pool:
        (outcome,) = pool.map_trials(_flaky_until_marker, [(0, marker)])
    assert outcome.ok and outcome.retried
    assert registry().counter("pool.retry.attempts").value == before + 1
