"""Parallel experiment execution (see ``docs/parallel.md``).

Three pieces:

- :class:`~repro.parallel.pool.TrialPool` — process-pool trial fan-out
  with a bit-identical serial backend (``workers=0``), chunked
  scheduling, per-trial wall-time capture and crash containment;
- :mod:`repro.parallel.shm` — publish the latency matrix once via
  POSIX shared memory instead of pickling it per task;
- :class:`~repro.parallel.cache.InstanceCache` — build each unique
  problem instance (and its lower bound) once per process per sweep.
"""

from repro.parallel.cache import (
    PLACEMENT_STRATEGIES,
    CachedInstance,
    CacheStats,
    InstanceCache,
    instance_cache,
)
from repro.parallel.pool import (
    PoolStats,
    TrialOutcome,
    TrialPool,
    resolve_workers,
    run_trials,
    successful_values,
)
from repro.parallel.shm import (
    PublishedMatrix,
    SharedMatrixHandle,
    attach_matrix,
    publish_matrix,
    shared_memory_available,
)

__all__ = [
    "TrialPool",
    "TrialOutcome",
    "PoolStats",
    "resolve_workers",
    "run_trials",
    "successful_values",
    "InstanceCache",
    "CachedInstance",
    "CacheStats",
    "instance_cache",
    "PLACEMENT_STRATEGIES",
    "PublishedMatrix",
    "SharedMatrixHandle",
    "publish_matrix",
    "attach_matrix",
    "shared_memory_available",
]
