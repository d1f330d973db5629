"""Parametric topologies and the paper's illustrative gadgets.

Two kinds of builders live here:

1. **Gadgets** reproducing the paper's worked examples — the Fig. 4
   network showing that Nearest-Server Assignment's approximation ratio
   of 3 is tight, and the Fig. 5 network where Longest-First-Batch beats
   Nearest-Server (9 vs 12).
2. **Generators** for synthetic networks used by tests and the dataset
   substrate: clustered Euclidean point clouds (the backbone of the
   Meridian-like generator), Waxman random graphs, and simple structured
   graphs (star / ring / line / grid).

Gadget functions return both the network and the intended server/client
index sets so tests and benchmarks cannot mis-wire them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.net.graph import NetworkGraph
from repro.net.latency import LatencyMatrix, pairwise_euclidean
from repro.utils.rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class GadgetInstance:
    """A gadget network plus its designated servers and clients."""

    matrix: LatencyMatrix
    servers: Tuple[int, ...]
    clients: Tuple[int, ...]
    #: Human-readable notes (expected optimal values etc.).
    notes: str = ""


def approx_ratio_gadget(a: float = 10.0, epsilon: float = 1.0) -> GadgetInstance:
    """The paper's Fig. 4 network (tightness of NSA's 3-approximation).

    Nodes: ``c1=0, c2=1, s=2, s1=3, s2=4``. Distances: ``d(c1,s) =
    d(c2,s) = a``; ``d(c1,s1) = d(c2,s2) = a - epsilon``. With shortest
    path routing the remaining pairs follow. Nearest-Server assigns
    ``c1 -> s1`` and ``c2 -> s2`` giving maximum interaction path length
    ``6a - 4*epsilon``; the optimum assigns both clients to ``s`` for
    ``2a``. The ratio approaches 3 as ``epsilon -> 0``.
    """
    if not 0 < epsilon < a:
        raise ValueError(f"need 0 < epsilon < a, got a={a}, epsilon={epsilon}")
    c1, c2, s, s1, s2 = range(5)
    graph = NetworkGraph(5)
    graph.add_link(c1, s, a)
    graph.add_link(c2, s, a)
    graph.add_link(c1, s1, a - epsilon)
    graph.add_link(c2, s2, a - epsilon)
    return GadgetInstance(
        matrix=graph.to_latency_matrix(),
        servers=(s, s1, s2),
        clients=(c1, c2),
        notes=(
            f"Fig.4 gadget: NSA D = {6 * a - 4 * epsilon}, optimal D = {2 * a}; "
            "ratio -> 3 as epsilon -> 0"
        ),
    )


def lfb_gadget() -> GadgetInstance:
    """The paper's Fig. 5 network (LFB beats NSA).

    Nodes: ``c1=0, c2=1, s1=2, s2=3``. Link lengths follow Fig. 5:
    ``d(c1,s1)=5, d(c2,s1)=4, d(s1,s2)=4, d(c2,s2)=3, d(c1,c2)=7``.
    Nearest-Server assigns ``c1->s1, c2->s2`` with maximum interaction
    path length ``5+4+3 = 12``; Longest-First-Batch assigns both clients
    to ``s1`` with ``5+4 = 9``.
    """
    c1, c2, s1, s2 = range(4)
    graph = NetworkGraph(4)
    graph.add_link(c1, s1, 5.0)
    graph.add_link(c2, s1, 4.0)
    graph.add_link(s1, s2, 4.0)
    graph.add_link(c2, s2, 3.0)
    graph.add_link(c1, c2, 7.0)
    return GadgetInstance(
        matrix=graph.to_latency_matrix(),
        servers=(s1, s2),
        clients=(c1, c2),
        notes="Fig.5 gadget: NSA D = 12, LFB D = 9",
    )


# ----------------------------------------------------------------------
# Structured graphs
# ----------------------------------------------------------------------
def star_graph(n_leaves: int, spoke_latency: float = 1.0) -> NetworkGraph:
    """A star: node 0 is the hub, nodes ``1..n_leaves`` are leaves."""
    graph = NetworkGraph(n_leaves + 1)
    for leaf in range(1, n_leaves + 1):
        graph.add_link(0, leaf, spoke_latency)
    return graph


def ring_graph(n: int, link_latency: float = 1.0) -> NetworkGraph:
    """A cycle of ``n >= 3`` nodes."""
    if n < 3:
        raise ValueError(f"a ring needs at least 3 nodes, got {n}")
    graph = NetworkGraph(n)
    for u in range(n):
        graph.add_link(u, (u + 1) % n, link_latency)
    return graph


def line_graph(n: int, link_latency: float = 1.0) -> NetworkGraph:
    """A path of ``n >= 2`` nodes."""
    if n < 2:
        raise ValueError(f"a line needs at least 2 nodes, got {n}")
    graph = NetworkGraph(n)
    for u in range(n - 1):
        graph.add_link(u, u + 1, link_latency)
    return graph


def grid_graph(rows: int, cols: int, link_latency: float = 1.0) -> NetworkGraph:
    """A ``rows x cols`` 4-neighbor grid; node id is ``r * cols + c``."""
    if rows < 1 or cols < 1:
        raise ValueError(f"grid dimensions must be >= 1, got {rows}x{cols}")
    graph = NetworkGraph(rows * cols)
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                graph.add_link(u, u + 1, link_latency)
            if r + 1 < rows:
                graph.add_link(u, u + cols, link_latency)
    return graph


def waxman_graph(
    n: int,
    *,
    alpha: float = 0.4,
    beta: float = 0.2,
    scale: float = 100.0,
    seed: SeedLike = None,
) -> NetworkGraph:
    """A Waxman random graph over uniform points in the unit square.

    Nodes ``u, v`` are linked with probability
    ``alpha * exp(-dist(u, v) / (beta * L))`` where ``L`` is the maximum
    pairwise distance; link latency is the Euclidean distance times
    ``scale``. A spanning chain over the x-sorted nodes is added to
    guarantee connectivity (standard practice for Waxman topologies in
    simulation).
    """
    if n < 2:
        raise ValueError(f"waxman graph needs >= 2 nodes, got {n}")
    rng = ensure_rng(seed)
    coords = rng.uniform(0.0, 1.0, size=(n, 2))
    dist = pairwise_euclidean(coords, coords)
    max_dist = float(dist.max()) or 1.0
    graph = NetworkGraph(n)
    prob = alpha * np.exp(-dist / (beta * max_dist))
    draws = rng.uniform(size=(n, n))
    for u in range(n):
        for v in range(u + 1, n):
            if draws[u, v] < prob[u, v]:
                graph.add_link(u, v, max(dist[u, v] * scale, 1e-6))
    order = np.argsort(coords[:, 0])
    for i in range(n - 1):
        u, v = int(order[i]), int(order[i + 1])
        if not graph.has_link(u, v):
            graph.add_link(u, v, max(dist[u, v] * scale, 1e-6))
    return graph


# ----------------------------------------------------------------------
# Clustered Euclidean point clouds (dataset backbone)
# ----------------------------------------------------------------------
def clustered_points(
    n: int,
    *,
    n_clusters: int = 5,
    dim: int = 5,
    cluster_spread: float = 0.08,
    seed: SeedLike = None,
) -> np.ndarray:
    """Points grouped into Gaussian clusters in the unit hypercube.

    Models the continental/AS clustering of Internet hosts: cluster
    centers are uniform in the hypercube; members are normal around their
    center with standard deviation ``cluster_spread``. Cluster sizes are
    drawn from a symmetric Dirichlet so clusters are unequal, like real
    geographic regions.
    """
    if n < 1:
        raise ValueError(f"need at least 1 point, got {n}")
    if n_clusters < 1:
        raise ValueError(f"need at least 1 cluster, got {n_clusters}")
    rng = ensure_rng(seed)
    n_clusters = min(n_clusters, n)
    centers = rng.uniform(0.15, 0.85, size=(n_clusters, dim))
    weights = rng.dirichlet(np.full(n_clusters, 2.0))
    counts = np.floor(weights * n).astype(int)
    # Distribute the remainder to the largest clusters.
    remainder = n - counts.sum()
    for i in np.argsort(-weights)[:remainder]:
        counts[i] += 1
    points = []
    for center, count in zip(centers, counts):
        if count == 0:
            continue
        points.append(rng.normal(loc=center, scale=cluster_spread, size=(count, dim)))
    out = np.vstack(points)
    rng.shuffle(out, axis=0)
    return out


def clustered_euclidean_matrix(
    n: int,
    *,
    n_clusters: int = 5,
    dim: int = 5,
    cluster_spread: float = 0.08,
    scale: float = 150.0,
    seed: SeedLike = None,
) -> LatencyMatrix:
    """A metric latency matrix from clustered points.

    This is the noise-free core of the Meridian-like generator; the
    dataset layer adds the non-metric distortions on top.
    """
    points = clustered_points(
        n, n_clusters=n_clusters, dim=dim, cluster_spread=cluster_spread, seed=seed
    )
    return LatencyMatrix.from_coordinates(points, scale=scale, min_latency=0.1)
