"""Instance cache: keying, LRU bounds, capacity-base sharing, counters."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import interaction_lower_bound
from repro.datasets.synthetic import small_world_latencies
from repro.parallel.cache import (
    CacheStats,
    InstanceCache,
    instance_cache,
)


@pytest.fixture
def matrix():
    return small_world_latencies(30, seed=11)


def test_miss_then_hit(matrix):
    cache = InstanceCache()
    first = cache.instance(matrix, "random", 5, 7)
    second = cache.instance(matrix, "random", 5, 7)
    assert first is second
    assert cache.stats == CacheStats(hits=1, misses=1)


def test_distinct_keys_distinct_entries(matrix):
    cache = InstanceCache()
    a = cache.instance(matrix, "random", 5, 7)
    b = cache.instance(matrix, "random", 5, 8)       # other seed
    c = cache.instance(matrix, "random", 6, 7)       # other size
    d = cache.instance(matrix, "k-center-a", 5, 7)   # other placement
    entries = [a, b, c, d]
    assert len({id(e) for e in entries}) == 4
    assert cache.stats.misses == 4


def test_cached_values_match_direct_construction(matrix):
    cache = InstanceCache()
    cached = cache.instance(matrix, "k-center-b", 6, 3)
    from repro.core import ClientAssignmentProblem
    from repro.placement import kcenter_b

    servers = kcenter_b(matrix, 6, seed=3)
    problem = ClientAssignmentProblem(matrix, servers)
    assert np.array_equal(cached.servers, servers)
    assert cached.lower_bound == pytest.approx(
        float(interaction_lower_bound(problem))
    )


def test_capacity_sweep_shares_base(matrix):
    """Fig. 10's pattern: one placement, many capacities — one build."""
    cache = InstanceCache()
    base = cache.instance(matrix, "random", 5, 7)
    capped_entries = [
        cache.instance(matrix, "random", 5, 7, capacity=c)
        for c in (8, 10, 20)
    ]
    for entry in capped_entries:
        assert entry.servers is base.servers
        assert entry.lower_bound == base.lower_bound
        assert entry.problem.capacities is not None
    # Base sharing counts as hits: placement + lower bound were reused.
    assert cache.stats == CacheStats(hits=3, misses=1)


def test_capacity_first_parks_base(matrix):
    """Asking for a capacitated instance first still caches the base."""
    cache = InstanceCache()
    capped = cache.instance(matrix, "random", 4, 2, capacity=8)
    assert cache.stats.misses == 1
    second = cache.instance(matrix, "random", 4, 2, capacity=12)
    assert cache.stats.hits == 1
    assert second.servers is capped.servers


def test_lru_eviction():
    cache = InstanceCache(maxsize=2)
    m = small_world_latencies(20, seed=1)
    cache.instance(m, "random", 4, 0)
    cache.instance(m, "random", 4, 1)
    cache.instance(m, "random", 4, 2)  # evicts seed 0
    assert len(cache) == 2
    assert cache.stats.evictions == 1
    cache.instance(m, "random", 4, 0)  # rebuilt: it was evicted
    assert cache.stats.hits == 0


def test_unknown_placement_rejected(matrix):
    cache = InstanceCache()
    with pytest.raises(KeyError, match="unknown placement"):
        cache.instance(matrix, "nope", 5, 0)


def test_bad_maxsize_rejected():
    with pytest.raises(ValueError, match="maxsize"):
        InstanceCache(maxsize=0)


def test_clear_resets(matrix):
    cache = InstanceCache()
    cache.instance(matrix, "random", 5, 7)
    cache.clear()
    assert len(cache) == 0
    assert cache.stats == CacheStats()


def test_stats_arithmetic():
    a = CacheStats(hits=3, misses=2, evictions=1)
    b = CacheStats(hits=1, misses=1, evictions=0)
    assert a + b == CacheStats(hits=4, misses=3, evictions=1)
    assert a - b == CacheStats(hits=2, misses=1, evictions=1)
    assert a.lookups == 5
    assert a.hit_rate == pytest.approx(0.6)
    assert CacheStats().hit_rate == 0.0


def test_process_global_cache_is_singleton():
    assert instance_cache() is instance_cache()

def test_dtype_participates_in_the_key(matrix):
    """float32 and float64 variants of one instance never alias, even
    if object ids were recycled across garbage collections."""
    cache = InstanceCache()
    f64 = cache.instance(matrix, "random", 5, 7)
    f32_matrix = matrix.astype(np.float32)
    f32 = cache.instance(f32_matrix, "random", 5, 7)
    assert f64 is not f32
    assert cache.stats.misses == 2
    assert f32.problem.matrix.dtype == np.dtype(np.float32)
    # The capacity sweep shares its base per dtype, not across dtypes.
    capped = cache.instance(f32_matrix, "random", 5, 7, capacity=9)
    assert capped.problem.matrix.dtype == np.dtype(np.float32)
