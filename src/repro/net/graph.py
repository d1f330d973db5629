"""Link-level network graphs (the paper's ``G = (V, E)`` model).

A :class:`NetworkGraph` stores an undirected (or directed) weighted graph
and converts it to the all-pairs :class:`~repro.net.latency.LatencyMatrix`
via shortest-path routing — the paper's §II-A extension of the link
distance function to arbitrary node pairs.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.errors import GraphError
from repro.net.latency import LatencyMatrix
from repro.net.routing import all_pairs_shortest_paths, dijkstra


class NetworkGraph:
    """A weighted graph with positive link latencies.

    Parameters
    ----------
    n_nodes:
        Number of nodes; node ids are ``0..n_nodes-1``.
    directed:
        When ``False`` (default, matching the paper), adding a link
        ``(u, v)`` also adds ``(v, u)`` with the same latency.
    """

    def __init__(self, n_nodes: int, *, directed: bool = False) -> None:
        if n_nodes <= 0:
            raise GraphError(f"graph needs at least one node, got {n_nodes}")
        self._n = n_nodes
        self._directed = directed
        self._adj: List[Dict[int, float]] = [dict() for _ in range(n_nodes)]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_link(self, u: int, v: int, latency: float) -> None:
        """Add (or tighten) a link of the given positive latency.

        Re-adding an existing link keeps the smaller latency, which makes
        gadget construction idempotent.
        """
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise GraphError("self-loops are not allowed")
        if not latency > 0:
            raise GraphError(f"link latency must be positive, got {latency}")
        current = self._adj[u].get(v)
        if current is None or latency < current:
            self._adj[u][v] = latency
        if not self._directed:
            current = self._adj[v].get(u)
            if current is None or latency < current:
                self._adj[v][u] = latency

    def add_links(self, links: Iterable[Tuple[int, int, float]]) -> None:
        """Add many ``(u, v, latency)`` links."""
        for u, v, latency in links:
            self.add_link(u, v, latency)

    @classmethod
    def from_links(
        cls,
        n_nodes: int,
        links: Iterable[Tuple[int, int, float]],
        *,
        directed: bool = False,
    ) -> "NetworkGraph":
        """Build a graph from an edge list in one call."""
        graph = cls(n_nodes, directed=directed)
        graph.add_links(links)
        return graph

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def n_links(self) -> int:
        """Number of (directed) adjacency entries; an undirected link
        counts once."""
        total = sum(len(nbrs) for nbrs in self._adj)
        return total if self._directed else total // 2

    def neighbors(self, u: int) -> Dict[int, float]:
        """Mapping of neighbor -> link latency for node ``u`` (a copy)."""
        self._check_node(u)
        return dict(self._adj[u])

    def has_link(self, u: int, v: int) -> bool:
        """Whether a direct link ``u -> v`` exists."""
        self._check_node(u)
        self._check_node(v)
        return v in self._adj[u]

    def link_latency(self, u: int, v: int) -> float:
        """Latency of the direct link ``u -> v``; raises if absent."""
        if not self.has_link(u, v):
            raise GraphError(f"no link between {u} and {v}")
        return self._adj[u][v]

    def _check_node(self, u: int) -> None:
        if not 0 <= u < self._n:
            raise GraphError(f"node {u} out of range for {self._n} nodes")

    def _adjacency_lists(self) -> List[List[Tuple[int, float]]]:
        return [list(nbrs.items()) for nbrs in self._adj]

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def shortest_distances_from(self, source: int) -> np.ndarray:
        """Single-source shortest-path distances (``inf`` = unreachable)."""
        self._check_node(source)
        return dijkstra(self._adjacency_lists(), source)

    def is_connected(self) -> bool:
        """Whether every node is reachable from node 0 (undirected view
        for directed graphs is *not* taken; reachability is as-routed)."""
        return bool(np.all(np.isfinite(self.shortest_distances_from(0))))

    def to_latency_matrix(self) -> LatencyMatrix:
        """All-pairs shortest-path distances as a :class:`LatencyMatrix`.

        Raises :class:`~repro.errors.GraphError` when the graph is not
        strongly connected (some pair has no routing path), because the
        assignment problem requires finite ``d(u, v)`` for all pairs.
        """
        dist = all_pairs_shortest_paths(self._adjacency_lists())
        if not np.all(np.isfinite(dist)):
            raise GraphError(
                "graph is disconnected; latency matrix would contain inf"
            )
        return LatencyMatrix(dist, validate=False)
