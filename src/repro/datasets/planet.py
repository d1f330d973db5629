"""Planet-scale coordinate instances for the million-client pipeline.

The dense synthetic generators top out where O(n^2) memory does; this
module generates **coordinate** universes consumed through a
:class:`~repro.net.provider.CoordinateProvider` — O(n · dims) memory,
any client count. Geometry mirrors the dense
:class:`~repro.datasets.synthetic.InternetLatencyModel` at planet
scale: hosts concentrate in unequal metro clusters (within which
latency profiles nearly coincide — exactly the structure the coreset
layer of :mod:`repro.scale` collapses), plus per-host access-link
height terms.

Servers are placed deterministically at the cluster centers of the
largest clusters (one per cluster, round-robin when ``n_servers``
exceeds the cluster count), which is the deployed-CDN shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InvalidParameterError
from repro.net.provider import CoordinateProvider
from repro.utils.rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class PlanetInstance:
    """A generated planet-scale instance.

    ``provider`` spans servers and clients in one node universe:
    servers occupy node ids ``0 .. n_servers-1`` (:attr:`servers`),
    clients the rest (:attr:`clients`).
    """

    provider: CoordinateProvider
    servers: np.ndarray
    clients: np.ndarray
    #: Cluster index of every node (servers first).
    cluster_of: np.ndarray

    def __post_init__(self) -> None:
        for name in ("servers", "clients", "cluster_of"):
            getattr(self, name).setflags(write=False)

    @property
    def n_clients(self) -> int:
        """Number of client nodes."""
        return int(self.clients.size)

    @property
    def n_servers(self) -> int:
        """Number of server nodes."""
        return int(self.servers.size)


def planet_instance(
    n_clients: int,
    n_servers: int,
    *,
    n_clusters: int = 64,
    dim: int = 3,
    cluster_spread: float = 0.004,
    geo_scale: float = 180.0,
    access_delay_mean: float = 2.0,
    min_latency: float = 0.1,
    dtype=np.float64,
    seed: SeedLike = 0,
) -> PlanetInstance:
    """Generate a clustered coordinate universe of any size.

    Clients are dealt to ``n_clusters`` metro clusters with a heavy-
    tailed (Zipf-like) size distribution and jittered around the
    cluster center by ``cluster_spread`` (units of the unit hypercube;
    the default keeps intra-metro latency ~1 ms against inter-metro
    distances of ~100 ms, so metro-mates have near-identical latency
    profiles). Heights model access-link delay (exponential,
    mean ``access_delay_mean`` ms); servers sit at cluster centers with
    zero height (datacenter peering). All randomness flows from
    ``seed``.
    """
    if n_clients < 1:
        raise InvalidParameterError(f"n_clients must be >= 1, got {n_clients}")
    if n_servers < 1:
        raise InvalidParameterError(f"n_servers must be >= 1, got {n_servers}")
    if n_clusters < 1:
        raise InvalidParameterError(
            f"n_clusters must be >= 1, got {n_clusters}"
        )
    rng = ensure_rng(seed)
    centers = rng.uniform(0.0, 1.0, size=(n_clusters, dim))

    # Zipf-like cluster popularity (metro populations are heavy-tailed).
    popularity = 1.0 / np.arange(1, n_clusters + 1, dtype=np.float64)
    popularity /= popularity.sum()
    client_cluster = rng.choice(n_clusters, size=n_clients, p=popularity)

    # Servers at the centers of the most popular clusters, round-robin.
    server_cluster = np.arange(n_servers, dtype=np.int64) % n_clusters

    n = n_servers + n_clients
    coords = np.empty((n, dim), dtype=np.float64)
    coords[:n_servers] = centers[server_cluster]
    coords[n_servers:] = centers[client_cluster] + rng.normal(
        0.0, cluster_spread, size=(n_clients, dim)
    )
    coords *= geo_scale

    heights = np.empty(n, dtype=np.float64)
    heights[:n_servers] = 0.0
    heights[n_servers:] = rng.exponential(access_delay_mean, size=n_clients)

    provider = CoordinateProvider(
        coords,
        heights=heights,
        min_latency=min_latency,
        dtype=dtype,
    )
    cluster_of = np.concatenate(
        [server_cluster, client_cluster.astype(np.int64)]
    )
    return PlanetInstance(
        provider=provider,
        servers=np.arange(n_servers, dtype=np.int64),
        clients=np.arange(n_servers, n, dtype=np.int64),
        cluster_of=cluster_of,
    )


def coreset_cell_size_hint(instance: PlanetInstance) -> float:
    """A reasonable coreset cell size for a generated instance.

    Metro-mates' profiles differ by the intra-cluster jitter plus their
    height difference; quantizing at a few multiples of the expected
    jitter collapses each metro to a handful of cells without
    meaningfully loosening the ``2 * epsilon`` bound relative to
    inter-metro distances.
    """
    coords = instance.provider.coordinates
    spread = float(np.std(coords[instance.clients], axis=0).mean())
    return max(1.0, 0.15 * spread)
