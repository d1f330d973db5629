"""Network coordinate embedding (Vivaldi) for latency estimation.

The paper's heuristics consume measured client-server latencies
("obtained with existing tools like ping and King", §IV). Deployed
systems frequently avoid O(n^2) measurement by embedding hosts into a
low-dimensional coordinate space and *predicting* latencies — Vivaldi
(Dabek et al., SIGCOMM'04) is the standard decentralized algorithm and
was designed against the very same MIT King data set the paper uses.

This module implements Vivaldi with the height-vector extension so the
reproduction can answer a question the paper leaves open: **how much
interactivity do the assignment heuristics lose when they run on
estimated rather than measured latencies?** (See
:mod:`repro.experiments.ablations` for the experiment.)

The implementation follows the original paper's adaptive-timestep
algorithm: each node keeps a coordinate and a confidence weight; on each
"measurement" of a sampled neighbor, the node moves along the error
gradient with a step scaled by the relative confidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.net.latency import LatencyMatrix, pairwise_euclidean
from repro.utils.rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class EmbeddingQuality:
    """Prediction-error statistics of a fitted embedding."""

    #: Median of |predicted - actual| / actual over off-diagonal pairs.
    median_relative_error: float
    #: 90th percentile of the relative error.
    p90_relative_error: float
    #: Mean absolute prediction error (ms).
    mean_absolute_error: float


class VivaldiEmbedding:
    """Decentralized spring-relaxation network coordinates.

    Parameters
    ----------
    dims:
        Euclidean dimensionality (Vivaldi's sweet spot is 2-5).
    use_height:
        Add the "height" component modelling access-link delay: predicted
        latency is ``|x_u - x_v| + h_u + h_v``. Matches the additive
        access-delay structure of real (and our synthetic) matrices.
    ce:
        Vivaldi's tuning constant for the adaptive timestep (0 < ce < 1).
    """

    def __init__(
        self,
        dims: int = 3,
        *,
        use_height: bool = True,
        ce: float = 0.25,
    ) -> None:
        if dims < 1:
            raise ValueError(f"dims must be >= 1, got {dims}")
        if not 0.0 < ce < 1.0:
            raise ValueError(f"ce must be in (0, 1), got {ce}")
        self.dims = dims
        self.use_height = use_height
        self.ce = ce
        self._coords: Optional[np.ndarray] = None
        self._heights: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @property
    def fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._coords is not None

    @property
    def coordinates(self) -> np.ndarray:
        """``(n, dims)`` fitted coordinates (read-only view)."""
        self._require_fitted()
        return self._coords

    @property
    def heights(self) -> np.ndarray:
        """Length-``n`` fitted heights (zeros when disabled)."""
        self._require_fitted()
        return self._heights

    def _require_fitted(self) -> None:
        if not self.fitted:
            raise RuntimeError("embedding is not fitted; call fit() first")

    # ------------------------------------------------------------------
    def fit(
        self,
        matrix: LatencyMatrix,
        *,
        rounds: int = 50,
        neighbors: int = 16,
        seed: SeedLike = 0,
    ) -> "VivaldiEmbedding":
        """Fit coordinates to a latency matrix.

        Each round, every node samples ``neighbors`` random peers and
        performs one Vivaldi update per sample — mimicking the gossip
        pattern of the deployed protocol (a node never sees the full
        matrix).
        """
        if rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {rounds}")
        if neighbors < 1:
            raise ValueError(f"neighbors must be >= 1, got {neighbors}")
        rng = ensure_rng(seed)
        n = matrix.n_nodes
        d = matrix.values
        coords = rng.normal(0.0, 1.0, size=(n, self.dims))
        heights = np.zeros(n)
        weights = np.ones(n)  # local error estimates (1 = clueless)
        k = min(neighbors, max(n - 1, 1))

        for _ in range(rounds):
            order = rng.permutation(n)
            for u in order:
                peers = rng.choice(n - 1, size=k, replace=False)
                peers = np.where(peers >= u, peers + 1, peers)
                for v in peers:
                    rtt = d[u, v]
                    if rtt <= 0:
                        continue
                    diff = coords[u] - coords[v]
                    dist = float(np.linalg.norm(diff))
                    predicted = dist
                    if self.use_height:
                        predicted += heights[u] + heights[v]
                    # Relative confidence of u versus v.
                    w = weights[u] / (weights[u] + weights[v])
                    err = abs(predicted - rtt) / rtt
                    # Update local error estimate (exponential moving).
                    weights[u] = err * self.ce * w + weights[u] * (1 - self.ce * w)
                    # Move along the gradient.
                    delta = self.ce * w * (rtt - predicted)
                    if dist > 1e-12:
                        direction = diff / dist
                    else:
                        direction = rng.normal(size=self.dims)
                        direction /= np.linalg.norm(direction)
                    coords[u] += delta * direction
                    if self.use_height:
                        heights[u] = max(0.0, heights[u] + delta * 0.5)

        self._coords = coords
        self._coords.setflags(write=False)
        self._heights = heights
        self._heights.setflags(write=False)
        return self

    # ------------------------------------------------------------------
    def predict_matrix(self, *, min_latency: float = 0.1) -> LatencyMatrix:
        """The full predicted latency matrix from the fitted coordinates."""
        self._require_fitted()
        dist = pairwise_euclidean(self._coords, self._coords)
        if self.use_height:
            dist += self._heights[:, None]
            dist += self._heights[None, :]
        np.maximum(dist, min_latency, out=dist)
        np.fill_diagonal(dist, 0.0)
        return LatencyMatrix(dist, validate=False)

    def predict(self, u: int, v: int) -> float:
        """Predicted latency for one pair.

        The same float operations as :meth:`predict_matrix`'s entry
        ``(u, v)`` before its ``min_latency`` floor.
        """
        self._require_fitted()
        if u == v:
            return 0.0
        coords = self._coords
        dist = float(pairwise_euclidean(coords[u : u + 1], coords[v : v + 1])[0, 0])
        if self.use_height:
            dist = (dist + float(self._heights[u])) + float(self._heights[v])
        return max(dist, 0.0)

    def quality(self, matrix: LatencyMatrix) -> EmbeddingQuality:
        """Prediction-error statistics against the true matrix."""
        predicted = self.predict_matrix().values
        actual = matrix.values
        n = actual.shape[0]
        off = ~np.eye(n, dtype=bool)
        rel = np.abs(predicted[off] - actual[off]) / actual[off]
        return EmbeddingQuality(
            median_relative_error=float(np.median(rel)),
            p90_relative_error=float(np.percentile(rel, 90)),
            mean_absolute_error=float(np.abs(predicted[off] - actual[off]).mean()),
        )


def embed_latencies(
    matrix: LatencyMatrix,
    *,
    dims: int = 3,
    rounds: int = 50,
    neighbors: int = 16,
    use_height: bool = True,
    seed: SeedLike = 0,
) -> Tuple[LatencyMatrix, EmbeddingQuality]:
    """One-call helper: fit Vivaldi and return (estimated matrix, quality)."""
    embedding = VivaldiEmbedding(dims, use_height=use_height)
    embedding.fit(matrix, rounds=rounds, neighbors=neighbors, seed=seed)
    return embedding.predict_matrix(), embedding.quality(matrix)
