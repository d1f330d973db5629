"""Parallel experiment execution (see ``docs/parallel.md``).

:class:`~repro.parallel.pool.TrialPool` fans trials out across worker
processes with a bit-identical serial backend (``workers=0``), chunked
scheduling, per-trial wall-time capture and crash containment. Its
workers receive the latency matrix once, when they start: ``fork``
workers inherit it, other start methods unpickle one copy each.
"""

from repro.parallel.pool import (
    PoolStats,
    TrialOutcome,
    TrialPool,
    resolve_workers,
    run_trials,
    successful_values,
)

__all__ = [
    "TrialPool",
    "TrialOutcome",
    "PoolStats",
    "resolve_workers",
    "run_trials",
    "successful_values",
]
