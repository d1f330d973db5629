"""Latency providers: protocol conformance and dense/coordinate identity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.synthetic import small_world_latencies
from repro.net.coordinates import VivaldiEmbedding
from repro.net.latency import LatencyMatrix, pairwise_euclidean
from repro.net.provider import (
    CoordinateProvider,
    LatencyProvider,
    legs_mirror,
    provider_name,
)
from repro.obs import MetricsRegistry, use_registry


@pytest.fixture
def coords():
    rng = np.random.default_rng(42)
    return rng.uniform(0.0, 100.0, size=(30, 3))


def test_both_sources_satisfy_the_protocol(coords):
    assert isinstance(LatencyMatrix.from_coordinates(coords), LatencyProvider)
    assert isinstance(CoordinateProvider(coords), LatencyProvider)


def test_provider_name(coords):
    assert provider_name(CoordinateProvider(coords)) == "coordinate"
    assert provider_name(small_world_latencies(10, seed=0)) == "dense"


class TestDenseCoordinateIdentity:
    """Every view of a CoordinateProvider must be byte-identical to the
    dense matrix built from the same coordinates."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("scale", [1.0, 2.5])
    def test_materialize_matches_from_coordinates(self, coords, dtype, scale):
        dense = LatencyMatrix.from_coordinates(
            coords, scale=scale, min_latency=0.5, dtype=dtype
        )
        provider = CoordinateProvider(
            coords, scale=scale, min_latency=0.5, dtype=dtype
        )
        assert np.array_equal(provider.materialize().values, dense.values)

    def test_views_match_dense_slices(self, coords):
        dense = LatencyMatrix.from_coordinates(coords, min_latency=0.5)
        provider = CoordinateProvider(coords, min_latency=0.5)
        rng = np.random.default_rng(7)
        clients = rng.choice(30, size=12, replace=False).astype(np.int64)
        servers = rng.choice(30, size=5, replace=False).astype(np.int64)
        assert np.array_equal(
            provider.client_server_distances(clients, servers),
            dense.client_server_distances(clients, servers),
        )
        assert np.array_equal(
            provider.server_client_distances(servers, clients),
            dense.server_client_distances(servers, clients),
        )
        assert np.array_equal(
            provider.server_server_distances(servers),
            dense.server_server_distances(servers),
        )

    def test_scalar_distance_matches(self, coords):
        dense = LatencyMatrix.from_coordinates(coords)
        provider = CoordinateProvider(coords)
        for u, v in ((0, 1), (5, 5), (29, 3)):
            assert provider.distance(u, v) == dense.distance(u, v)

    def test_overlapping_rows_and_cols_floor_only_off_diagonal(self, coords):
        """A block that contains (i, i) pairs must keep the zero
        diagonal even when min_latency would floor it."""
        provider = CoordinateProvider(coords, min_latency=50.0)
        nodes = np.arange(10, dtype=np.int64)
        block = provider._block(nodes, nodes)
        assert np.array_equal(np.diag(block), np.zeros(10))
        off = block[~np.eye(10, dtype=bool)]
        assert np.all(off >= 50.0)


def test_from_embedding_round_trip(coords):
    matrix = LatencyMatrix.from_coordinates(coords, min_latency=0.1)
    embedding = VivaldiEmbedding(dims=3)
    embedding.fit(matrix, rounds=30, seed=0)
    provider = CoordinateProvider.from_embedding(embedding)
    nodes = np.arange(matrix.n_nodes, dtype=np.int64)
    predicted = embedding.predict_matrix()
    assert np.array_equal(
        provider.server_server_distances(nodes), predicted.values
    )


def test_astype_changes_dtype_only(coords):
    provider = CoordinateProvider(coords)
    f32 = provider.astype(np.float32)
    assert f32.dtype == np.dtype(np.float32)
    assert np.array_equal(f32.coordinates, provider.coordinates)
    assert f32.materialize().values.dtype == np.dtype(np.float32)


def test_row_synthesis_is_instrumented(coords):
    metrics = MetricsRegistry()
    provider = CoordinateProvider(coords)
    with use_registry(metrics):
        provider.client_server_distances(
            np.arange(4, dtype=np.int64), np.arange(4, 7, dtype=np.int64)
        )
    snap = metrics.snapshot()["counters"]
    assert snap["provider.coordinate.calls"] == 1
    assert snap["provider.coordinate.rows"] == 4
    assert snap["provider.coordinate.elements"] == 12


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_legs_mirror_when_server_heights_are_zero(coords, dtype):
    """Zero server heights make the client→server block the bitwise
    transpose of the server→client one, whatever the client heights."""
    n = coords.shape[0]
    servers = np.array([0, 3, 7], dtype=np.int64)
    clients = np.setdiff1d(np.arange(n), servers)
    heights = np.random.default_rng(2).uniform(0.0, 5.0, n)
    heights[servers] = 0.0
    for provider in (
        CoordinateProvider(coords, dtype=dtype),
        CoordinateProvider(coords, heights=heights, scale=1.7, dtype=dtype),
    ):
        assert legs_mirror(provider, servers)
        cs = provider.client_server_distances(clients, servers)
        sc = provider.server_client_distances(servers, clients)
        assert cs.tobytes() == np.ascontiguousarray(sc.T).tobytes()
    heights[servers[1]] = 0.25
    assert not legs_mirror(CoordinateProvider(coords, heights=heights), servers)


def test_legs_mirror_is_false_for_matrices(coords):
    """Decided by construction: even a symmetric matrix is not checked."""
    matrix = LatencyMatrix.from_coordinates(coords)
    assert not legs_mirror(matrix, np.array([0, 1], dtype=np.int64))


def test_invalid_inputs_rejected():
    from repro.errors import InvalidParameterError

    with pytest.raises(InvalidParameterError):
        CoordinateProvider(np.empty((0, 3)))
    with pytest.raises(InvalidParameterError):
        CoordinateProvider(np.full((4, 2), np.nan))
    with pytest.raises(InvalidParameterError):
        CoordinateProvider(np.ones((4, 2)), heights=np.array([1.0, -2.0, 0, 0]))
    with pytest.raises(InvalidParameterError):
        CoordinateProvider(np.ones((4, 2)), scale=0.0)
    with pytest.raises(InvalidParameterError):
        CoordinateProvider(np.ones((4, 2)), min_latency=0.0)


def test_provider_is_immutable(coords):
    provider = CoordinateProvider(coords)
    with pytest.raises(AttributeError):
        provider.anything = 1
    assert not provider.coordinates.flags.writeable


def oracle_block(provider: CoordinateProvider, rows, cols) -> np.ndarray:
    """The historical row-major ``_block`` body: every request built in
    the ``(rows, cols)`` orientation, with the diagonal mask always
    computed. The long-axis synthesis must match it bit for bit."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    d = pairwise_euclidean(provider._coords[rows], provider._coords[cols])
    if provider._scale != 1.0:
        d *= provider._scale
    if provider._heights is not None:
        d += provider._heights[rows][:, None]
        d += provider._heights[cols][None, :]
    np.maximum(d, provider._min_latency, out=d)
    same = rows[:, None] == cols[None, :]
    if same.any():
        d[same] = 0.0
    return np.asarray(d, dtype=provider._dtype)


def _assert_same_block(got: np.ndarray, expected: np.ndarray) -> None:
    assert got.flags.c_contiguous
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


#: (rows, cols) node ids over a 60-node universe: tall, wide and square
#: requests; overlapping ids (floor and zero diagonal both present);
#: disjoint id ranges in both orders.
BLOCK_CASES = {
    "tall-overlapping": (np.arange(0, 40), np.array([3, 17, 25, 39])),
    "wide-overlapping": (np.array([3, 17, 25, 39]), np.arange(0, 40)),
    "square-overlapping": (np.arange(0, 20), np.arange(1, 21)[::-1]),
    "tall-disjoint-rows-above": (np.arange(20, 60), np.arange(0, 6)),
    "tall-disjoint-rows-below": (np.arange(0, 40), np.arange(50, 56)),
    "wide-disjoint-rows-above": (np.arange(54, 60), np.arange(0, 40)),
    "wide-disjoint-rows-below": (np.arange(0, 6), np.arange(20, 60)),
    "square-disjoint": (np.arange(30, 40), np.arange(0, 10)),
    "interleaved": (np.arange(0, 60, 2), np.arange(1, 60, 7)),
}


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("scale", [1.0, 2.5])
@pytest.mark.parametrize("with_heights", [False, True])
def test_block_matches_the_row_major_oracle(case, dtype, scale, with_heights):
    """Every view equals the historical row-major body bit for bit and
    is C-contiguous, whichever orientation the block was built in."""
    rng = np.random.default_rng(5)
    coords = rng.uniform(0.0, 100.0, size=(60, 3))
    # Two nodes share coordinates and have zero height, so the floor
    # (25.0) reaches a pair off the diagonal too.
    coords[17] = coords[3]
    heights = rng.uniform(0.0, 20.0, 60) if with_heights else None
    if heights is not None:
        heights[[3, 17]] = 0.0
    provider = CoordinateProvider(
        coords, heights=heights, scale=scale, min_latency=25.0, dtype=dtype
    )
    rows, cols = BLOCK_CASES[case]
    expected = oracle_block(provider, rows, cols)
    if case.endswith("overlapping"):
        assert np.any(expected == 0.0) and np.any(expected == 25.0)
    _assert_same_block(provider.client_server_distances(rows, cols), expected)
    _assert_same_block(
        provider.server_client_distances(rows, cols), expected
    )
    _assert_same_block(
        provider.server_server_distances(rows), oracle_block(provider, rows, rows)
    )
    _assert_same_block(
        provider.server_server_distances(cols), oracle_block(provider, cols, cols)
    )
