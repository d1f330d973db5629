"""Coreset construction: the epsilon bound is the load-bearing invariant."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core import Assignment, ClientAssignmentProblem
from repro.core.metrics import max_interaction_path_length
from repro.datasets import coreset_cell_size_hint, planet_instance
from repro.datasets.synthetic import small_world_latencies
from repro.errors import InvalidParameterError
from repro.net.latency import LatencyMatrix
from repro.net.provider import CoordinateProvider
from repro.obs import MetricsRegistry, use_registry
from repro.scale import build_coreset, expanded_objective
from repro.scale import coreset as coreset_module


@pytest.fixture
def dense_instance():
    matrix = small_world_latencies(60, seed=5)
    servers = np.array([3, 17, 41, 55], dtype=np.int64)
    mask = np.ones(60, dtype=bool)
    mask[servers] = False
    clients = np.flatnonzero(mask).astype(np.int64)
    return matrix, servers, clients


def test_structure(dense_instance):
    matrix, servers, clients = dense_instance
    coreset = build_coreset(matrix, servers, clients, cell_size=20.0)
    assert coreset.n_clients == clients.size
    assert coreset.n_representatives == coreset.representatives.size
    assert coreset.weights.sum() == clients.size
    assert coreset.labels.shape == (clients.size,)
    assert coreset.labels.min() >= 0
    assert coreset.labels.max() < coreset.n_representatives
    # Every representative is one of its own members.
    reps = set(int(r) for r in coreset.representatives)
    assert reps <= set(int(c) for c in clients)
    assert coreset.reduction_ratio == pytest.approx(
        clients.size / coreset.n_representatives
    )


def test_epsilon_is_the_max_profile_deviation(dense_instance):
    """epsilon must dominate |d(c,s) - d(rep(c),s)| in both directions
    for every client and every server — the inequality the 2-epsilon
    expansion bound is proved from."""
    matrix, servers, clients = dense_instance
    coreset = build_coreset(matrix, servers, clients, cell_size=15.0)
    reps = coreset.representatives[coreset.labels]
    cs = matrix.client_server_distances(clients, servers)
    cs_rep = matrix.client_server_distances(reps, servers)
    sc = matrix.server_client_distances(servers, clients).T
    sc_rep = matrix.server_client_distances(servers, reps).T
    worst = max(
        np.abs(cs - cs_rep).max(), np.abs(sc - sc_rep).max()
    )
    assert worst <= coreset.epsilon + 1e-12
    assert coreset.epsilon < coreset.cell_size


@pytest.mark.parametrize("cell_size", [5.0, 20.0, 80.0])
def test_expansion_bound_holds_for_any_reduced_assignment(
    dense_instance, cell_size
):
    """D(expanded) <= D(reduced) + 2 epsilon, for arbitrary (not just
    optimized) assignments of the representatives."""
    matrix, servers, clients = dense_instance
    coreset = build_coreset(matrix, servers, clients, cell_size=cell_size)
    reduced_problem = ClientAssignmentProblem(
        matrix, servers, clients=coreset.representatives
    )
    rng = np.random.default_rng(9)
    for trial in range(5):
        reduced_server_of = rng.integers(
            0, servers.size, size=coreset.n_representatives
        ).astype(np.int64)
        d_reduced = max_interaction_path_length(
            Assignment(reduced_problem, reduced_server_of)
        )
        server_of = coreset.expand(reduced_server_of)
        d_expanded = expanded_objective(
            matrix, servers, clients, server_of
        )
        assert d_expanded <= d_reduced + 2.0 * coreset.epsilon + 1e-9


def test_chunk_size_invariance():
    """Representatives, labels and epsilon must not depend on the
    streaming chunk size."""
    instance = planet_instance(3000, 8, n_clusters=16, seed=11)
    baseline = build_coreset(
        instance.provider,
        instance.servers,
        instance.clients,
        cell_size=8.0,
        chunk_size=instance.clients.size + 1,
    )
    for chunk_size in (64, 257, 1000):
        other = build_coreset(
            instance.provider,
            instance.servers,
            instance.clients,
            cell_size=8.0,
            chunk_size=chunk_size,
        )
        assert np.array_equal(other.representatives, baseline.representatives)
        assert np.array_equal(other.labels, baseline.labels)
        assert np.array_equal(other.weights, baseline.weights)
        assert other.epsilon == baseline.epsilon


def test_clustered_geometry_reduces(dense_instance):
    instance = planet_instance(5000, 8, n_clusters=16, seed=2)
    coreset = build_coreset(
        instance.provider, instance.servers, instance.clients, cell_size=8.0
    )
    assert coreset.reduction_ratio > 3.0


def test_expand_maps_members_to_representative_servers(dense_instance):
    matrix, servers, clients = dense_instance
    coreset = build_coreset(matrix, servers, clients, cell_size=25.0)
    reduced = np.arange(coreset.n_representatives) % servers.size
    expanded = coreset.expand(reduced.astype(np.int64))
    assert expanded.shape == (clients.size,)
    for i in range(clients.size):
        assert expanded[i] == reduced[coreset.labels[i]]


def test_invalid_parameters(dense_instance):
    matrix, servers, clients = dense_instance
    with pytest.raises(InvalidParameterError):
        build_coreset(matrix, servers, clients, cell_size=0.0)
    with pytest.raises(InvalidParameterError):
        build_coreset(matrix, servers, np.array([], dtype=np.int64), cell_size=5.0)
    with pytest.raises(InvalidParameterError, match="need at least one server"):
        build_coreset(matrix, np.array([], dtype=np.int64), clients, cell_size=5.0)


def test_key_collision_falls_back_to_exact_rows(monkeypatch):
    """A mixing vector that keys every cell alike forces the collision
    branch; the exact fallback must give the identical coreset."""
    instance = planet_instance(3000, 8, n_clusters=16, seed=11)

    def build():
        return build_coreset(
            instance.provider,
            instance.servers,
            instance.clients,
            cell_size=8.0,
            chunk_size=257,
        )

    expected = build()
    fallbacks = []
    exact = coreset_module._dedup_rows

    def counting(quantized):
        fallbacks.append(quantized.shape[0])
        return exact(quantized)

    monkeypatch.setattr(
        coreset_module,
        "_mixing_vector",
        lambda width: np.zeros(width, dtype=np.int64),
    )
    monkeypatch.setattr(coreset_module, "_dedup_rows", counting)
    collided = build()
    # Every chunk holds more than one cell, so every chunk collided.
    assert len(fallbacks) == -(-instance.clients.size // 257)
    assert np.array_equal(collided.representatives, expected.representatives)
    assert np.array_equal(collided.labels, expected.labels)
    assert np.array_equal(collided.weights, expected.weights)
    assert collided.epsilon == expected.epsilon


def test_coreset_arrays_are_readonly(dense_instance):
    matrix, servers, clients = dense_instance
    coreset = build_coreset(matrix, servers, clients, cell_size=20.0)
    for arr in (coreset.representatives, coreset.weights, coreset.labels):
        assert not arr.flags.writeable


def test_cross_chunk_key_collision_falls_back_to_exact_rows(monkeypatch):
    """One client per chunk never collides within its chunk, so with an
    all-zero mixing vector every chunk's key hits the first known group
    and any other cell differs from that group's row: the merge must
    take the exact fallback over the known rows and still give the
    identical coreset."""
    instance = planet_instance(400, 4, n_clusters=8, seed=3)

    def build():
        return build_coreset(
            instance.provider,
            instance.servers,
            instance.clients,
            cell_size=8.0,
            chunk_size=1,
        )

    expected = build()
    assert expected.n_representatives > 1
    stacked = []
    exact = coreset_module._dedup_rows

    def counting(quantized):
        stacked.append(quantized.shape[0])
        return exact(quantized)

    monkeypatch.setattr(
        coreset_module,
        "_mixing_vector",
        lambda width: np.zeros(width, dtype=np.int64),
    )
    monkeypatch.setattr(coreset_module, "_dedup_rows", counting)
    collided = build()
    # Each fallback stacked the chunk's one row under the known rows.
    assert stacked and min(stacked) > 1
    assert np.array_equal(collided.representatives, expected.representatives)
    assert np.array_equal(collided.labels, expected.labels)
    assert np.array_equal(collided.weights, expected.weights)
    assert collided.epsilon == expected.epsilon


def _synthesized_elements(provider, servers, clients):
    metrics = MetricsRegistry()
    with use_registry(metrics):
        build_coreset(provider, servers, clients, cell_size=8.0, chunk_size=500)
    return metrics.snapshot()["counters"]["provider.coordinate.elements"]


def test_mirrored_legs_synthesize_one_block():
    """Planet servers have zero height, so the client→server block is
    the server→client one transposed and only it is synthesized."""
    instance = planet_instance(2000, 8, n_clusters=8, seed=4)
    servers, clients = instance.servers, instance.clients
    assert _synthesized_elements(instance.provider, servers, clients) == (
        clients.size * servers.size
    )


def test_unmirrored_legs_synthesize_both_blocks():
    instance = planet_instance(2000, 8, n_clusters=8, seed=4)
    servers, clients = instance.servers, instance.clients
    heights = np.full(instance.provider.n_nodes, 0.5)
    provider = CoordinateProvider(
        instance.provider.coordinates, heights=heights
    )
    assert _synthesized_elements(provider, servers, clients) == (
        2 * clients.size * servers.size
    )


def test_dense_matrix_takes_the_two_block_path(monkeypatch, dense_instance):
    """A matrix is never inspected for symmetry, even a symmetric one."""
    matrix, servers, clients = dense_instance
    calls = []
    original = LatencyMatrix.server_client_distances

    def counting(self, servers, clients):
        calls.append(len(clients))
        return original(self, servers, clients)

    monkeypatch.setattr(LatencyMatrix, "server_client_distances", counting)
    build_coreset(matrix, servers, clients, cell_size=20.0, chunk_size=16)
    assert sum(calls) == clients.size


def test_peak_memory_stays_within_the_stated_bound():
    """``build_coreset`` promises O(chunk · |S| + |R| · |S|) memory. On
    a planet instance of ``4 * DEFAULT_CHUNK_SIZE`` clients and 32
    servers (mirrored legs, so profile width 32), the traced peak of the
    default build, in units of ``chunk·width·8 + |R|·width·8`` bytes,
    measured 3.2–3.3 on seeds 0 and 1. The derivation: at most three
    chunk-wide blocks are live at once (the profile block, its quantized
    cells, and either the float quotient before its int64 cast or the
    members' representative profiles used for ε), the representatives'
    profile array exists twice while it grows (2 |R|-wide copies), and
    the chunk keys and the |C| labels add a little more. The bound of 4
    units leaves about 20 % headroom; building the whole instance as one
    chunk, as a 65 536 default did, reads about 7 units, and storing
    every group's quantized row beside its profile about 3.7."""
    instance = planet_instance(
        4 * coreset_module.DEFAULT_CHUNK_SIZE, 32, n_clusters=64, seed=0
    )
    cell = coreset_cell_size_hint(instance)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        coreset = build_coreset(
            instance.provider, instance.servers, instance.clients, cell_size=cell
        )
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    width = instance.n_servers
    unit = 8 * width * (coreset_module.DEFAULT_CHUNK_SIZE + coreset.n_representatives)
    assert peak < 4 * unit, (peak / unit, peak, unit)
