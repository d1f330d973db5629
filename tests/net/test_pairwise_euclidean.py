"""The shared coordinate-distance helper ``pairwise_euclidean``.

Every coordinate synthesizer in the package computes its distances with
:func:`repro.net.latency.pairwise_euclidean`. For up to 7 dimensions it
must equal the historical ``np.sqrt((diff**2).sum(axis=2))`` bit for
bit (every data set in the package uses 5 or fewer); at any dimension
the dense matrix, the on-demand provider and the Vivaldi prediction
built from the same points must agree byte for byte, because they share
the helper.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets import synthesize_meridian_like
from repro.net.coordinates import VivaldiEmbedding
from repro.net.latency import LatencyMatrix, pairwise_euclidean
from repro.net.provider import CoordinateProvider

#: sha256 of ``synthesize_meridian_like(1796, seed=1).values``, generated
#: with the historical ``(n, n, dims)`` norm before the helper existed.
MERIDIAN_1796_SEED1_SHA256 = (
    "9952881e19918d940110be7de67e550581c57a5eac3ea766a09174c7cc0726a1"
)


def historical_norm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


@st.composite
def point_blocks(draw):
    dims = draw(st.integers(min_value=1, max_value=7))
    rows = draw(st.sampled_from([1, 2, 3, 17, 64]))
    cols = draw(st.sampled_from([1, 2, 5, 33]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    # Per-dimension scales far apart make the summation order matter.
    scale = 10.0 ** rng.uniform(-6, 6, size=dims)
    a = rng.normal(size=(rows, dims)) * scale
    b = rng.normal(size=(cols, dims)) * scale
    if draw(st.booleans()):
        b[: min(rows, cols)] = a[: min(rows, cols)]  # exact zeros too
    return a, b


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(blocks=point_blocks())
def test_matches_historical_norm_bit_for_bit(blocks):
    a, b = blocks
    got = pairwise_euclidean(a, b)
    expected = historical_norm(a, b)
    assert got.dtype == expected.dtype == np.float64
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def test_zero_dimensional_points():
    assert np.array_equal(pairwise_euclidean(np.zeros((3, 0)), np.zeros((2, 0))), np.zeros((3, 2)))


@pytest.mark.parametrize("dims", range(1, 13))
def test_dense_provider_and_vivaldi_agree(dims):
    rng = np.random.default_rng(dims)
    coords = rng.normal(size=(40, dims)) * 30.0
    dense = LatencyMatrix.from_coordinates(coords, scale=1.7, min_latency=0.5)
    provider = CoordinateProvider(coords, scale=1.7, min_latency=0.5)
    assert provider.materialize().values.tobytes() == dense.values.tobytes()

    embedding = VivaldiEmbedding(dims).fit(
        LatencyMatrix.random_metric(30, seed=dims, dim=3), rounds=2, seed=dims
    )
    assert embedding.heights.any()
    predicted = embedding.predict_matrix()
    synthesized = CoordinateProvider.from_embedding(embedding).materialize()
    assert synthesized.values.tobytes() == predicted.values.tobytes()


def test_meridian_like_matrix_is_unchanged():
    values = np.ascontiguousarray(synthesize_meridian_like(1796, seed=1).values)
    assert hashlib.sha256(values.tobytes()).hexdigest() == MERIDIAN_1796_SEED1_SHA256
