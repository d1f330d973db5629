"""Process-pool trial fan-out with a deterministic serial twin.

:class:`TrialPool` runs batches of independent experiment trials —
(placement, algorithm, seed) evaluations — either inline (``workers=0``,
the default) or across a ``concurrent.futures.ProcessPoolExecutor``.
The two backends execute the *same* trial functions on the *same*
per-trial derived seeds and reassemble results in submission order, so
**parallel and serial runs produce bit-identical results** regardless
of worker count or completion order. That contract is what lets the
figure/claims layer expose a ``--workers`` knob without forking its
result schema (and what ``benchmarks/bench_parallel.py`` asserts).

Design notes
------------

- **Chunked scheduling.** Tasks are grouped into chunks (default: ~4
  chunks per worker) so per-task IPC overhead is amortized; a chunk is
  the unit of submission, a task the unit of failure.
- **Shared matrices.** Each ``map_trials`` call names the latency
  matrix its trials read; the pool publishes it once via
  :mod:`repro.parallel.shm` and ships only the handle. Matrices are
  keyed by identity, so a full evaluation publishing one matrix pays
  one copy total.
- **Failure containment.** A trial that raises is retried once,
  immediately, inside the worker, then reported as a failed
  :class:`TrialOutcome` — it cannot kill the sweep. A worker *crash*
  (hard exit, OOM kill)
  invalidates the executor; the pool rebuilds it once and re-runs the
  affected tasks in single-task chunks so a poison task is isolated
  and reported instead of re-killing healthy trials.
- **Interrupts.** ``KeyboardInterrupt`` cancels outstanding chunks,
  tears the executor down without waiting and re-raises — published
  shared memory is unlinked by the ``close()``/context-manager path.
- **Determinism.** The pool never generates randomness: seeds ride in
  the task objects (derived by callers via
  :func:`repro.utils.rng.derive_seed`), and outcomes are ordered by
  task index, not completion time.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import TrialExecutionError
from repro.net.latency import LatencyMatrix
from repro.obs import SECONDS_BUCKETS, registry, span
from repro.obs.aggregate import (
    Snapshot,
    empty_snapshot,
    merge_into_registry,
    merge_snapshots,
    snapshot_delta,
)
from repro.parallel.cache import CacheStats
from repro.parallel.shm import (
    PublishedMatrix,
    SharedMatrixHandle,
    attach_matrix,
    publish_matrix,
)

#: A trial function: ``fn(matrix, task) -> result``. Must be a
#: module-level callable (workers import it by qualified name) and
#: deterministic given ``(matrix, task)`` — the determinism contract
#: rests on trial functions deriving all randomness from task seeds.
TrialFn = Callable[[Optional[LatencyMatrix], Any], Any]

WorkersLike = Union[int, str, None]


def resolve_workers(workers: WorkersLike) -> int:
    """Normalize a worker-count spec to an integer.

    ``0`` / ``None`` / ``"serial"`` mean inline execution; ``-1`` (or
    any negative) means one worker per CPU; positive integers pass
    through.
    """
    if workers is None:
        return 0
    if isinstance(workers, str):
        if workers.lower() == "serial":
            return 0
        workers = int(workers)
    if workers < 0:
        return os.cpu_count() or 1
    return int(workers)


@dataclass(frozen=True)
class TrialOutcome:
    """One trial's result envelope.

    ``value`` is the trial function's return value when ``ok``;
    ``error`` is a one-line description otherwise. ``seconds`` is the
    trial's own wall time as measured inside the executing process.
    """

    index: int
    value: Any = None
    error: Optional[str] = None
    seconds: float = 0.0
    retried: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class PoolStats:
    """Aggregate counters over a :class:`TrialPool`'s lifetime."""

    workers: int = 0
    n_trials: int = 0
    n_failed: int = 0
    n_retried: int = 0
    n_crashed_chunks: int = 0
    #: Sum of per-trial wall times (CPU-side work, all processes).
    trial_seconds: float = 0.0
    #: Parent-side wall time spent inside ``map_trials``.
    wall_seconds: float = 0.0
    #: Instance-cache counters aggregated across worker processes.
    cache: CacheStats = field(default_factory=CacheStats)

    def describe(self) -> str:
        """One-line human-readable summary for progress reports."""
        backend = "serial" if self.workers == 0 else f"{self.workers} workers"
        parallelism = (
            self.trial_seconds / self.wall_seconds if self.wall_seconds else 0.0
        )
        line = (
            f"{self.n_trials} trials on {backend}: "
            f"{self.trial_seconds:.2f}s of trial work in "
            f"{self.wall_seconds:.2f}s wall ({parallelism:.1f}x), "
            f"instance cache {self.cache.hits}/{self.cache.lookups} hits"
        )
        if self.n_failed or self.n_retried:
            line += f", {self.n_retried} retried, {self.n_failed} failed"
        return line


# ----------------------------------------------------------------------
# Worker-side execution (shared verbatim by the serial backend)
# ----------------------------------------------------------------------
def _execute_chunk(
    fn: TrialFn,
    matrix: Optional[LatencyMatrix],
    items: Sequence[Tuple[int, Any]],
) -> Tuple[List[TrialOutcome], Snapshot]:
    """Run one chunk of ``(index, task)`` items against ``matrix``.

    Trial exceptions are contained per task: one immediate in-place
    retry, then a failed outcome. Returns outcomes plus the
    metrics-registry snapshot delta accrued while running the chunk
    (instance-cache hits/misses, engine commits, algorithm counters,
    ...) — a plain picklable dict, mergeable across workers via
    :func:`repro.obs.aggregate.merge_snapshots`.
    """
    before = registry().snapshot()
    outcomes: List[TrialOutcome] = []
    for index, task in items:
        start = time.perf_counter()
        for attempt in (0, 1):
            try:
                value, error = fn(matrix, task), None
                break
            except KeyboardInterrupt:
                raise
            except BaseException as exc:
                value, error = None, f"{type(exc).__name__}: {exc}"
                if attempt == 0:
                    first_failure = type(exc).__name__
                    registry().counter("pool.retry.attempts").inc()
        else:  # both attempts raised
            error += f" (first attempt: {first_failure})"
        outcomes.append(
            TrialOutcome(
                index=index,
                value=value,
                error=error,
                seconds=time.perf_counter() - start,
                retried=attempt > 0,
            )
        )
    return outcomes, snapshot_delta(registry().snapshot(), before)


def _cache_stats_from_delta(delta: Snapshot) -> CacheStats:
    """The instance-cache counters embedded in a metrics delta."""
    counters = delta.get("counters", {})
    return CacheStats(
        hits=int(counters.get("parallel.cache.hits", 0)),
        misses=int(counters.get("parallel.cache.misses", 0)),
        evictions=int(counters.get("parallel.cache.evictions", 0)),
    )


def _run_chunk_remote(
    fn: TrialFn,
    handle: Optional[SharedMatrixHandle],
    items: Sequence[Tuple[int, Any]],
) -> Tuple[List[TrialOutcome], Snapshot]:
    """Worker entry point: attach the shared matrix, run the chunk."""
    matrix = attach_matrix(handle) if handle is not None else None
    return _execute_chunk(fn, matrix, items)


def _default_chunk_size(n_tasks: int, workers: int) -> int:
    """~4 chunks per worker balances IPC overhead against stragglers."""
    if workers <= 0:
        return max(1, n_tasks)
    return max(1, -(-n_tasks // (workers * 4)))


def _mp_context():
    """The multiprocessing start method for worker processes.

    ``fork`` (where available) keeps worker start cheap and inherits
    ``sys.path``/imports; override with
    ``REPRO_PARALLEL_START_METHOD=spawn|forkserver|fork`` when
    debugging start-method-specific behavior.
    """
    preferred = os.environ.get("REPRO_PARALLEL_START_METHOD")
    methods = multiprocessing.get_all_start_methods()
    if preferred:
        return multiprocessing.get_context(preferred)
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class TrialPool:
    """A reusable trial executor with serial and process backends.

    Parameters
    ----------
    workers:
        ``0`` or ``"serial"`` — run trials inline (deterministic
        debugging, CI); ``-1`` — one worker per CPU; ``N > 0`` — a pool
        of ``N`` processes.
    chunk_size:
        Tasks per submitted chunk; default auto-sizes to ~4 chunks per
        worker per ``map_trials`` call.

    Use as a context manager (or call :meth:`close`) so worker
    processes and shared-memory segments are reclaimed deterministically.
    """

    def __init__(
        self,
        workers: WorkersLike = 0,
        *,
        chunk_size: Optional[int] = None,
    ) -> None:
        self.workers = resolve_workers(workers)
        self.chunk_size = chunk_size
        self.stats = PoolStats(workers=self.workers)
        self._executor: Optional[ProcessPoolExecutor] = None
        self._published: Dict[int, PublishedMatrix] = {}
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def is_serial(self) -> bool:
        """Whether trials run inline in this process."""
        return self.workers == 0

    def __enter__(self) -> "TrialPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Shut down workers and unlink published shared memory."""
        if self._closed:
            return
        self._closed = True
        self._teardown_executor(wait=True)
        published, self._published = self._published, {}
        for publication in published.values():
            publication.close()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    def map_trials(
        self,
        fn: TrialFn,
        tasks: Sequence[Any],
        *,
        matrix: Optional[LatencyMatrix] = None,
    ) -> List[TrialOutcome]:
        """Run ``fn(matrix, task)`` for every task; outcomes in task order.

        ``matrix`` is delivered to workers through shared memory (one
        publication per distinct matrix per pool). Failed trials come
        back as non-``ok`` outcomes; the call itself only raises on
        ``KeyboardInterrupt`` or pool misuse.
        """
        if self._closed:
            raise RuntimeError("TrialPool is closed")
        tasks = list(tasks)
        if not tasks:
            return []
        start = time.perf_counter()
        with span(
            "pool.map_trials", tasks=len(tasks), workers=self.workers
        ):
            if self.is_serial:
                # Inline execution: trial-side metric increments land
                # directly in this process's registry, so the delta is
                # only *read* (for the cache view), never merged back.
                outcomes, delta = _execute_chunk(
                    fn, matrix, list(enumerate(tasks))
                )
            else:
                outcomes, delta = self._map_parallel(fn, tasks, matrix)
                # Worker increments happened in forked registries: fold
                # the combined delta into the parent's.
                merge_into_registry(delta)
        outcomes.sort(key=lambda o: o.index)
        n_failed = sum(1 for o in outcomes if not o.ok)
        n_retried = sum(1 for o in outcomes if o.retried)
        trial_seconds = sum(o.seconds for o in outcomes)
        self.stats.n_trials += len(outcomes)
        self.stats.n_failed += n_failed
        self.stats.n_retried += n_retried
        self.stats.trial_seconds += trial_seconds
        self.stats.wall_seconds += time.perf_counter() - start
        self.stats.cache = self.stats.cache + _cache_stats_from_delta(delta)
        metrics = registry()
        metrics.counter("pool.trials").inc(len(outcomes))
        metrics.counter("pool.failed").inc(n_failed)
        metrics.counter("pool.retried").inc(n_retried)
        seconds = metrics.histogram("pool.trial_seconds", SECONDS_BUCKETS)
        for outcome in outcomes:
            seconds.observe(outcome.seconds)
        return outcomes

    # ------------------------------------------------------------------
    # Parallel backend
    # ------------------------------------------------------------------
    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=_mp_context()
            )
        return self._executor

    def _teardown_executor(self, *, wait: bool) -> None:
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=True)

    def _handle_for(
        self, matrix: Optional[LatencyMatrix]
    ) -> Optional[SharedMatrixHandle]:
        if matrix is None:
            return None
        publication = self._published.get(id(matrix))
        if publication is None:
            publication = publish_matrix(matrix)
            self._published[id(matrix)] = publication
        return publication.handle

    def _map_parallel(
        self,
        fn: TrialFn,
        tasks: List[Any],
        matrix: Optional[LatencyMatrix],
    ) -> Tuple[List[TrialOutcome], Snapshot]:
        handle = self._handle_for(matrix)
        chunk_size = self.chunk_size or _default_chunk_size(
            len(tasks), self.workers
        )
        indexed = list(enumerate(tasks))
        chunks = [
            indexed[i : i + chunk_size]
            for i in range(0, len(indexed), chunk_size)
        ]
        outcomes: List[TrialOutcome] = []
        delta_total = empty_snapshot()
        crashed: List[Tuple[int, Any]] = []
        executor = self._ensure_executor()
        futures = {
            executor.submit(_run_chunk_remote, fn, handle, chunk): chunk
            for chunk in chunks
        }
        try:
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                broken = False
                for future in done:
                    chunk = futures[future]
                    try:
                        chunk_outcomes, chunk_delta = future.result()
                    except BrokenProcessPool:
                        # The executor died under this chunk; collect it
                        # for isolated re-execution.
                        self.stats.n_crashed_chunks += 1
                        registry().counter("pool.crashed_chunks").inc()
                        broken = True
                        crashed.extend(chunk)
                    except KeyboardInterrupt:
                        raise
                    except BaseException as exc:
                        # Infrastructure failure for this chunk only
                        # (e.g. result unpickling): fail its tasks.
                        outcomes.extend(
                            TrialOutcome(
                                index=index,
                                error=f"{type(exc).__name__}: {exc}",
                            )
                            for index, _task in chunk
                        )
                    else:
                        outcomes.extend(chunk_outcomes)
                        delta_total = merge_snapshots(delta_total, chunk_delta)
                if broken:
                    # Every still-pending chunk will raise the same way
                    # (and may have been lost mid-flight): re-run them
                    # all in the isolation path rather than trusting a
                    # dead executor.
                    for other in pending:
                        crashed.extend(futures[other])
                    pending = set()
                    self._teardown_executor(wait=False)
        except KeyboardInterrupt:
            self._teardown_executor(wait=False)
            raise
        if crashed:
            retried, rerun_delta = self._rerun_crashed(fn, handle, crashed)
            outcomes.extend(retried)
            delta_total = merge_snapshots(delta_total, rerun_delta)
        return outcomes, delta_total

    def _rerun_crashed(
        self,
        fn: TrialFn,
        handle: Optional[SharedMatrixHandle],
        items: List[Tuple[int, Any]],
    ) -> Tuple[List[TrialOutcome], Snapshot]:
        """Re-run tasks from crashed chunks, one task per submission.

        A fresh executor isolates each suspect task; a task that kills
        its worker again is reported failed (never re-executed in the
        parent, where it could take the whole sweep down).
        """
        outcomes: List[TrialOutcome] = []
        delta_total = empty_snapshot()
        for index, task in sorted(items, key=lambda item: item[0]):
            executor = self._ensure_executor()
            future = executor.submit(
                _run_chunk_remote, fn, handle, [(index, task)]
            )
            try:
                task_outcomes, task_delta = future.result()
            except BrokenProcessPool:
                self.stats.n_crashed_chunks += 1
                registry().counter("pool.crashed_chunks").inc()
                self._teardown_executor(wait=False)
                outcomes.append(
                    TrialOutcome(
                        index=index,
                        error="worker process crashed (twice)",
                        retried=True,
                    )
                )
            except KeyboardInterrupt:
                self._teardown_executor(wait=False)
                raise
            except BaseException as exc:
                outcomes.append(
                    TrialOutcome(
                        index=index,
                        error=f"{type(exc).__name__}: {exc}",
                        retried=True,
                    )
                )
            else:
                delta_total = merge_snapshots(delta_total, task_delta)
                outcomes.extend(
                    replace(o, retried=True) for o in task_outcomes
                )
        return outcomes, delta_total


def run_trials(
    fn: TrialFn,
    tasks: Sequence[Any],
    *,
    matrix: Optional[LatencyMatrix] = None,
    pool: Optional[TrialPool] = None,
) -> List[TrialOutcome]:
    """Run trials on ``pool``, or inline when no pool is given.

    The standard entry point for experiment functions whose ``pool``
    parameter defaults to ``None`` (= serial execution): behavior and
    results are identical either way, only the executor differs.
    """
    if pool is not None:
        return pool.map_trials(fn, tasks, matrix=matrix)
    with TrialPool(0) as serial:
        return serial.map_trials(fn, tasks, matrix=matrix)


def successful_values(
    outcomes: Sequence[TrialOutcome], *, context: str
) -> List[Any]:
    """Values of successful outcomes; raises when *none* succeeded.

    The experiment layer tolerates individual failed trials (they are
    excluded from aggregation and surfaced in pool stats) but refuses
    to aggregate zero trials into a data point.
    """
    values = [o.value for o in outcomes if o.ok]
    if outcomes and not values:
        first = next(o for o in outcomes if not o.ok)
        raise TrialExecutionError(
            f"{context}: all {len(outcomes)} trial(s) failed "
            f"(first error: {first.error})"
        )
    return values
