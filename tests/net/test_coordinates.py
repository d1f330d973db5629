"""Tests for repro.net.coordinates (Vivaldi embedding)."""

import numpy as np
import pytest

from repro.net.coordinates import VivaldiEmbedding, embed_latencies
from repro.net.latency import LatencyMatrix


@pytest.fixture(scope="module")
def metric_matrix():
    # A genuinely low-dimensional latency structure Vivaldi can recover.
    return LatencyMatrix.random_metric(40, seed=3, dim=3, scale=100.0)


class TestConstruction:
    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            VivaldiEmbedding(0)

    def test_invalid_ce(self):
        with pytest.raises(ValueError):
            VivaldiEmbedding(2, ce=1.5)

    def test_unfitted_access_raises(self):
        emb = VivaldiEmbedding(2)
        assert not emb.fitted
        with pytest.raises(RuntimeError):
            _ = emb.coordinates
        with pytest.raises(RuntimeError):
            emb.predict(0, 1)


class TestFit:
    def test_fit_returns_self_and_sets_state(self, metric_matrix):
        emb = VivaldiEmbedding(3).fit(metric_matrix, rounds=10, seed=0)
        assert emb.fitted
        assert emb.coordinates.shape == (40, 3)
        assert emb.heights.shape == (40,)
        assert np.all(emb.heights >= 0)

    def test_deterministic_per_seed(self, metric_matrix):
        a = VivaldiEmbedding(2).fit(metric_matrix, rounds=5, seed=7)
        b = VivaldiEmbedding(2).fit(metric_matrix, rounds=5, seed=7)
        np.testing.assert_array_equal(a.coordinates, b.coordinates)

    def test_invalid_fit_params(self, metric_matrix):
        with pytest.raises(ValueError):
            VivaldiEmbedding(2).fit(metric_matrix, rounds=0)
        with pytest.raises(ValueError):
            VivaldiEmbedding(2).fit(metric_matrix, neighbors=0)


class TestPrediction:
    def test_predicted_matrix_is_valid(self, metric_matrix):
        emb = VivaldiEmbedding(3).fit(metric_matrix, rounds=15, seed=0)
        predicted = emb.predict_matrix()
        assert predicted.n_nodes == 40
        assert np.all(np.diag(predicted.values) == 0.0)

    def test_predict_pair_consistent_with_matrix(self, metric_matrix):
        emb = VivaldiEmbedding(3).fit(metric_matrix, rounds=10, seed=0)
        predicted = emb.predict_matrix()
        n = metric_matrix.n_nodes
        for u in range(n):
            for v in range(n):
                expected = 0.0 if u == v else max(emb.predict(u, v), 0.1)
                assert predicted.distance(u, v) == expected

    def test_predict_pair_equals_matrix_on_meridian_like(self):
        # Heights on and a non-metric matrix: every off-diagonal entry
        # is the same float sum in both paths.
        from repro.datasets import synthesize_meridian_like

        emb = VivaldiEmbedding(3).fit(
            synthesize_meridian_like(60, seed=0), rounds=10, seed=0
        )
        values = emb.predict_matrix().values
        pairs = np.array(
            [[0.0 if u == v else max(emb.predict(u, v), 0.1) for v in range(60)]
             for u in range(60)]
        )
        assert pairs.tobytes() == values.tobytes()

    def test_error_decreases_with_rounds(self, metric_matrix):
        few = VivaldiEmbedding(3).fit(metric_matrix, rounds=2, seed=1)
        many = VivaldiEmbedding(3).fit(metric_matrix, rounds=40, seed=1)
        err_few = few.quality(metric_matrix).median_relative_error
        err_many = many.quality(metric_matrix).median_relative_error
        assert err_many < err_few

    def test_recovers_low_dim_structure(self, metric_matrix):
        # On genuinely 3-D data Vivaldi should land well under 25%
        # median relative error.
        _est, quality = embed_latencies(
            metric_matrix, dims=3, rounds=40, seed=0, use_height=False
        )
        assert quality.median_relative_error < 0.25

    def test_height_helps_on_access_delay_structure(self):
        # A star-like structure: pairwise latency = h_u + h_v. Heights
        # capture this exactly; a pure Euclidean embedding cannot.
        rng = np.random.default_rng(0)
        h = rng.uniform(5.0, 50.0, size=30)
        d = h[:, None] + h[None, :]
        np.fill_diagonal(d, 0.0)
        matrix = LatencyMatrix(d)
        _with_h, q_h = embed_latencies(matrix, rounds=40, use_height=True, seed=1)
        _no_h, q_e = embed_latencies(matrix, rounds=40, use_height=False, seed=1)
        assert q_h.median_relative_error < q_e.median_relative_error
