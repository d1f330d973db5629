"""Keyed cache of problem instances and their lower bounds.

Sweeps rebuild the same :class:`~repro.core.problem.ClientAssignmentProblem`
far more often than they need to: Fig. 10 re-places the same servers for
every capacity on its x-axis, the claims checklist re-generates figure
panels that share placements, and every consumer re-derives the
super-optimal lower bound even though it depends only on the
uncapacitated instance. This cache builds each unique instance once per
process and hoists the lower bound to the placement level (shared
across all capacities of that placement).

Keys are ``(matrix identity, matrix dtype, placement strategy,
n_servers, seed, capacity)``; the lower bound is cached one level up,
without the capacity component. Identity of the matrix is its object
id — entries hold a reference to the matrix, so ids cannot be recycled
while an entry lives. The dtype component closes a former aliasing
hole: a float32 trial must never be served a problem or lower bound
built for a float64 twin of the same matrix object id. The cache is
LRU-bounded and exposes hit/miss counters that
:class:`~repro.parallel.pool.TrialPool` aggregates across worker
processes for reports.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from repro.core import ClientAssignmentProblem, interaction_lower_bound
from repro.net.latency import LatencyMatrix
from repro.obs.metrics import registry
from repro.placement import kcenter_a, kcenter_b, random_placement

#: Canonical placement-strategy registry used by the experiment layer.
#: (:data:`repro.experiments.runner.PLACEMENTS` aliases this.)
PLACEMENT_STRATEGIES: Dict[str, Callable] = {
    "random": random_placement,
    "k-center-a": kcenter_a,
    "k-center-b": kcenter_b,
}


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters of an :class:`InstanceCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when unused)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def __sub__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            hits=self.hits - other.hits,
            misses=self.misses - other.misses,
            evictions=self.evictions - other.evictions,
        )

    def __add__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
        )


@dataclass(frozen=True)
class CachedInstance:
    """A built problem instance plus its placement-level lower bound."""

    servers: np.ndarray
    problem: ClientAssignmentProblem
    #: Super-optimal interaction lower bound of the *uncapacitated*
    #: instance (the bound ignores capacities; see paper §III).
    lower_bound: float


class InstanceCache:
    """LRU cache of :class:`CachedInstance` objects.

    One cache per process is the intended deployment (see
    :func:`instance_cache`): trials executing in the same worker share
    placements, problems and lower bounds with zero coordination.
    Caching is a pure optimization — every cached value is a
    deterministic function of its key, so hit patterns can never change
    results.
    """

    def __init__(self, maxsize: int = 256) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._entries: "OrderedDict[tuple, CachedInstance]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        # Mirrored into the metrics registry so worker-side counters
        # flow back to the parent through the pool's snapshot deltas.
        metrics = registry()
        self._m_hits = metrics.counter("parallel.cache.hits")
        self._m_misses = metrics.counter("parallel.cache.misses")
        self._m_evictions = metrics.counter("parallel.cache.evictions")

    # ------------------------------------------------------------------
    @property
    def stats(self) -> CacheStats:
        """Current hit/miss/eviction counters."""
        return CacheStats(self._hits, self._misses, self._evictions)

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop all entries and reset counters."""
        self._entries.clear()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------
    def instance(
        self,
        matrix: LatencyMatrix,
        placement: str,
        n_servers: int,
        seed: Optional[int],
        *,
        capacity: Optional[int] = None,
    ) -> CachedInstance:
        """The (cached) instance for one placement coordinate.

        Builds the server set with the named placement strategy, wraps
        it into a problem (optionally capacitated) and computes the
        uncapacitated lower bound — each exactly once per unique key.
        """
        if placement not in PLACEMENT_STRATEGIES:
            raise KeyError(
                f"unknown placement {placement!r}; available: "
                f"{tuple(PLACEMENT_STRATEGIES)}"
            )
        dtype = str(matrix.dtype)
        key = (id(matrix), dtype, placement, n_servers, seed, capacity)
        hit = self._entries.get(key)
        if hit is not None:
            self._hits += 1
            self._m_hits.inc()
            self._entries.move_to_end(key)
            return hit
        base_key = (id(matrix), dtype, placement, n_servers, seed, None)
        base = self._entries.get(base_key)
        if base is not None and capacity is not None:
            # Same placement, new capacity: reuse servers + lower bound.
            # Counted as a hit — the expensive work (placement
            # construction, lower bound) was served from cache; only the
            # cheap capacity wrapper is fresh.
            self._hits += 1
            self._m_hits.inc()
            self._entries.move_to_end(base_key)
            entry = CachedInstance(
                servers=base.servers,
                problem=base.problem.with_capacity(capacity),
                lower_bound=base.lower_bound,
            )
        else:
            self._misses += 1
            self._m_misses.inc()
            servers = PLACEMENT_STRATEGIES[placement](
                matrix, n_servers, seed=seed
            )
            problem = ClientAssignmentProblem(matrix, servers)
            lower_bound = float(interaction_lower_bound(problem))
            if capacity is not None:
                if base is None:
                    # Park the uncapacitated base too: the next capacity
                    # on this placement's sweep reuses it.
                    self._store(
                        base_key,
                        CachedInstance(servers, problem, lower_bound),
                    )
                problem = problem.with_capacity(capacity)
            entry = CachedInstance(servers, problem, lower_bound)
        self._store(key, entry)
        return entry

    def _store(self, key: tuple, entry: CachedInstance) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self._evictions += 1
            self._m_evictions.inc()


#: Process-global cache shared by all trial functions in this process.
_PROCESS_CACHE: Optional[InstanceCache] = None


def instance_cache() -> InstanceCache:
    """The process-global :class:`InstanceCache` (created on first use)."""
    global _PROCESS_CACHE
    if _PROCESS_CACHE is None:
        _PROCESS_CACHE = InstanceCache()
    return _PROCESS_CACHE
