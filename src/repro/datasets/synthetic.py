"""Synthetic Internet latency matrices with realistic distortions.

:class:`InternetLatencyModel` layers the distortions observed in real
King-style measurements on top of a clustered Euclidean embedding:

1. **Clustered geometry** — hosts group into unequal clusters (continents
   / major ASes); intra-cluster latencies are much smaller than
   inter-cluster ones (:func:`repro.net.topology.clustered_points`).
2. **Access-link inflation** — each host gets a nonnegative additive
   "last-mile" delay applied to all of its measurements, producing the
   hub-spoke structure of DSL/cable hosts and a heavy right tail.
3. **Multiplicative noise** — per-pair lognormal measurement noise.
4. **Asymmetry** — independent noise per direction plus a small per-host
   directional bias; King round-trip halving hides most but not all
   asymmetry.
5. **Path inefficiency spikes** — a random subset of pairs is inflated
   by a large factor (BGP detours), creating triangle-inequality
   violations: the detour through a third host beats the direct path.
   This is the property that breaks Nearest-Server Assignment's
   3-approximation guarantee on real data (paper §V-A, footnote 2).
6. **Missing measurements** — a random subset of pairs is marked NaN so
   the cleaning pipeline (drop incomplete nodes, as the paper does:
   2500 -> 1796 for Meridian) has real work to do.

All randomness flows from a single seed for reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.net.latency import LatencyMatrix, pairwise_euclidean
from repro.net.topology import clustered_points
from repro.utils.rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class InternetLatencyModel:
    """Parameter bundle for synthetic Internet latency generation.

    Latency unit is milliseconds. Defaults are tuned so that generated
    matrices match the gross statistics reported for King data sets:
    median ~50-100 ms, a right tail into the hundreds, and a triangle
    violation rate of a few percent.
    """

    n_nodes: int
    #: Number of geographic clusters.
    n_clusters: int = 8
    #: Embedding dimension; ~5 fits Internet latency well (Vivaldi et al.).
    dim: int = 5
    #: Cluster standard deviation in the unit hypercube.
    cluster_spread: float = 0.07
    #: Scale converting embedding distance to milliseconds.
    geo_scale: float = 180.0
    #: Mean of each host's additive access delay (exponential), ms.
    access_delay_mean: float = 8.0
    #: Sigma of the per-pair lognormal measurement noise.
    noise_sigma: float = 0.10
    #: Standard deviation of per-host directional bias (fractional).
    asymmetry_sigma: float = 0.02
    #: Fraction of ordered pairs inflated as BGP-detour spikes.
    spike_fraction: float = 0.04
    #: Multiplicative inflation of spiked pairs (lognormal mean factor).
    spike_strength: float = 0.8
    #: Fraction of ordered pairs whose measurement is missing (NaN).
    missing_fraction: float = 0.0
    #: Force output symmetric (King reports halved round trips).
    symmetric: bool = True
    #: Floor for any off-diagonal latency, ms.
    min_latency: float = 0.5

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ValueError(f"n_nodes must be >= 2, got {self.n_nodes}")
        for name in ("cluster_spread", "geo_scale", "min_latency"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in (
            "access_delay_mean",
            "noise_sigma",
            "asymmetry_sigma",
            "spike_strength",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        for name in ("spike_fraction", "missing_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {value}")

    # ------------------------------------------------------------------
    def generate_raw(self, seed: SeedLike = None) -> np.ndarray:
        """Generate the raw measurement matrix (may contain NaN).

        Returns an ``(n, n)`` float array with a zero diagonal. Use
        :meth:`generate` for a validated, cleaned
        :class:`~repro.net.latency.LatencyMatrix`.
        """
        rng = ensure_rng(seed)
        n = self.n_nodes

        points = clustered_points(
            n,
            n_clusters=self.n_clusters,
            dim=self.dim,
            cluster_spread=self.cluster_spread,
            seed=rng,
        )
        base = pairwise_euclidean(points, points)
        base *= self.geo_scale

        # Per-host additive access delay, applied on both endpoints.
        access = rng.exponential(self.access_delay_mean, size=n)
        base += access[:, None]
        base += access[None, :]

        # Per-pair multiplicative lognormal measurement noise.
        if self.noise_sigma > 0:
            base = base * rng.lognormal(0.0, self.noise_sigma, size=(n, n))

        # Small per-host directional bias (outgoing faster/slower).
        if self.asymmetry_sigma > 0:
            bias = rng.normal(0.0, self.asymmetry_sigma, size=n)
            base = base * (1.0 + bias[:, None] - bias[None, :])

        # BGP detour spikes: inflate a random subset of pairs. Spikes are
        # what create triangle-inequality violations — a spiked pair
        # (u, v) usually has a third host w with d(u,w)+d(w,v) < d(u,v).
        if self.spike_fraction > 0:
            spikes = rng.uniform(size=(n, n)) < self.spike_fraction
            factors = 1.0 + rng.lognormal(
                np.log(max(self.spike_strength, 1e-9)), 0.5, size=(n, n)
            )
            base = np.where(spikes, base * factors, base)

        if self.symmetric:
            base = (base + base.T) / 2.0

        np.maximum(base, self.min_latency, out=base)
        np.fill_diagonal(base, 0.0)

        if self.missing_fraction > 0:
            missing = rng.uniform(size=(n, n)) < self.missing_fraction
            if self.symmetric:
                missing = missing | missing.T
            np.fill_diagonal(missing, False)
            base = np.where(missing, np.nan, base)

        return base

    def generate(self, seed: SeedLike = None, *, dtype=None) -> LatencyMatrix:
        """Generate a complete (NaN-free) validated latency matrix.

        When ``missing_fraction > 0`` the raw matrix is cleaned by
        dropping incomplete nodes exactly as the paper does for Meridian;
        the resulting matrix therefore has *fewer* than ``n_nodes`` rows.
        Synthesis always runs in float64; ``dtype`` selects the storage
        type of the result (``None`` = float64).
        """
        raw = self.generate_raw(seed)
        if np.isnan(raw).any():
            from repro.datasets.cleaning import drop_incomplete_nodes

            cleaned, _report = drop_incomplete_nodes(raw, dtype=dtype)
            return cleaned
        from repro.datasets.io import as_latency_matrix

        return as_latency_matrix(raw, dtype=dtype, where="synthetic matrix")


def small_world_latencies(
    n: int, *, seed: SeedLike = None, scale: float = 120.0, dtype=None
) -> LatencyMatrix:
    """A quick non-clustered synthetic matrix for unit tests.

    Uniform points in a 3-D cube with mild lognormal noise — cheaper than
    the full :class:`InternetLatencyModel` and still non-metric.
    ``dtype`` selects the storage type (``None`` = float64).
    """
    rng = ensure_rng(seed)
    coords = rng.uniform(0.0, 1.0, size=(n, 3))
    d = pairwise_euclidean(coords, coords)
    d *= scale
    d = d * rng.lognormal(0.0, 0.15, size=(n, n))
    d = (d + d.T) / 2.0
    np.fill_diagonal(d, 0.0)
    off = ~np.eye(n, dtype=bool)
    d[off] = np.maximum(d[off], 0.5)
    from repro.datasets.io import as_latency_matrix

    return as_latency_matrix(d, dtype=dtype, where="small-world matrix")
