"""Pluggable latency providers: dense matrices and coordinate synthesis.

Every consumer in the package reads latencies through four views — the
``(|C|, |S|)`` client→server block, its ``(|S|, |C|)`` transpose-
direction twin, the ``(|S|, |S|)`` server block, and single-pair
lookups. :class:`LatencyProvider` names that contract as a structural
protocol so the *representation* behind it becomes pluggable:

- :class:`~repro.net.latency.LatencyMatrix` — the historical dense
  ``n x n`` array; slicing a view is a fancy-index, results are exactly
  what they always were.
- :class:`CoordinateProvider` (this module) — synthesizes any requested
  block on demand from Euclidean/Vivaldi coordinates, so a planet-scale
  instance never materializes the O(n^2) matrix. A provider built from
  the same coordinates a matrix was built from returns **byte-identical**
  blocks (same elementwise float operations in the same order as
  :meth:`LatencyMatrix.from_coordinates` /
  :meth:`VivaldiEmbedding.predict_matrix`), which is what lets the
  assignment layer treat the two interchangeably (test-enforced in
  ``tests/scale/test_provider.py``).

Block synthesis is instrumented through the observability registry
(``provider.coordinate.calls`` / ``.rows`` / ``.elements``) so
matrix-free runs remain observable — ``repro obs`` renders these in its
memory section (see docs/scaling.md).
"""

from __future__ import annotations

from typing import Optional, Protocol, runtime_checkable

import numpy as np

from repro.errors import InvalidParameterError
from repro.net.latency import LatencyMatrix, _check_dtype, pairwise_euclidean
from repro.obs.metrics import registry


@runtime_checkable
class LatencyProvider(Protocol):
    """Structural protocol of a latency source over ``n_nodes`` nodes.

    :class:`~repro.net.latency.LatencyMatrix` satisfies it with array
    slices; :class:`CoordinateProvider` satisfies it by synthesizing
    blocks on demand. ``d(u, v)`` is the one-way latency from node ``u``
    to node ``v``; the diagonal is zero and off-diagonal entries are
    strictly positive, exactly as :class:`LatencyMatrix` validates.
    """

    @property
    def n_nodes(self) -> int:
        """Number of nodes in the universe."""
        ...

    @property
    def dtype(self) -> np.dtype:
        """Element type of returned blocks (float32 or float64)."""
        ...

    def distance(self, u: int, v: int) -> float:
        """One-way latency ``d(u, v)``."""
        ...

    def client_server_distances(
        self, clients: np.ndarray, servers: np.ndarray
    ) -> np.ndarray:
        """The ``(len(clients), len(servers))`` block ``d[c, s]``."""
        ...

    def server_client_distances(
        self, servers: np.ndarray, clients: np.ndarray
    ) -> np.ndarray:
        """The ``(len(servers), len(clients))`` block ``d[s, c]``."""
        ...

    def server_server_distances(self, servers: np.ndarray) -> np.ndarray:
        """The ``(len(servers), len(servers))`` block ``d[s, s']``."""
        ...


class CoordinateProvider:
    """Latencies synthesized on demand from coordinate embeddings.

    Predicted latency between distinct nodes is
    ``max(|x_u - x_v| * scale + h_u + h_v, min_latency)`` — Euclidean
    distance, optional Vivaldi height terms, floored to respect strict
    positivity; the diagonal is zero. Any requested block takes its
    distances from :func:`~repro.net.latency.pairwise_euclidean`, the one
    helper :meth:`LatencyMatrix.from_coordinates` (``heights=None``) and
    :meth:`VivaldiEmbedding.predict_matrix` (``scale=1.0``) use too, and
    applies scale, heights and floor in their order, so a provider and a
    matrix built from the same inputs agree byte for byte on every view,
    for any number of dimensions.

    Memory is O(n · dims): a million-node universe costs ~24 MB of
    coordinates instead of an 8 TB matrix.
    """

    __slots__ = ("_coords", "_heights", "_scale", "_min_latency", "_dtype")

    def __init__(
        self,
        coords: np.ndarray,
        *,
        heights: Optional[np.ndarray] = None,
        scale: float = 1.0,
        min_latency: float = 1e-6,
        dtype=np.float64,
    ) -> None:
        coords = np.asarray(coords, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[0] == 0:
            raise InvalidParameterError(
                f"coords must be a non-empty (n, dims) array, "
                f"got shape {coords.shape}"
            )
        if not np.all(np.isfinite(coords)):
            raise InvalidParameterError("coords contain NaN or infinite entries")
        if heights is not None:
            heights = np.asarray(heights, dtype=np.float64)
            if heights.shape != (coords.shape[0],):
                raise InvalidParameterError(
                    f"heights must have length n={coords.shape[0]}, "
                    f"got shape {heights.shape}"
                )
            if not np.all(np.isfinite(heights)) or np.any(heights < 0):
                raise InvalidParameterError(
                    "heights must be finite and nonnegative"
                )
            heights = heights.copy()
            heights.setflags(write=False)
        if not (np.isfinite(scale) and scale > 0):
            raise InvalidParameterError(f"scale must be positive, got {scale}")
        if not (np.isfinite(min_latency) and min_latency > 0):
            raise InvalidParameterError(
                f"min_latency must be positive, got {min_latency}"
            )
        coords = coords.copy()
        coords.setflags(write=False)
        object.__setattr__(self, "_coords", coords)
        object.__setattr__(self, "_heights", heights)
        object.__setattr__(self, "_scale", float(scale))
        object.__setattr__(self, "_min_latency", float(min_latency))
        object.__setattr__(self, "_dtype", _check_dtype(dtype))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("CoordinateProvider is immutable")

    # ------------------------------------------------------------------
    @classmethod
    def from_embedding(
        cls, embedding, *, min_latency: float = 0.1, dtype=np.float64
    ) -> "CoordinateProvider":
        """Wrap a fitted :class:`~repro.net.coordinates.VivaldiEmbedding`.

        The default ``min_latency`` matches
        :meth:`~repro.net.coordinates.VivaldiEmbedding.predict_matrix`,
        so ``provider.server_server_distances(all_nodes)`` reproduces
        the predicted matrix byte for byte.
        """
        heights = embedding.heights if embedding.use_height else None
        return cls(
            embedding.coordinates,
            heights=heights,
            min_latency=min_latency,
            dtype=dtype,
        )

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of nodes in the universe."""
        return int(self._coords.shape[0])

    @property
    def dtype(self) -> np.dtype:
        """Element type of synthesized blocks."""
        return self._dtype

    @property
    def coordinates(self) -> np.ndarray:
        """The ``(n, dims)`` coordinates (read-only view)."""
        return self._coords

    def astype(self, dtype) -> "CoordinateProvider":
        """The same provider emitting ``dtype`` blocks; ``self`` if equal."""
        dt = _check_dtype(dtype)
        if dt == self._dtype:
            return self
        return CoordinateProvider(
            self._coords,
            heights=self._heights,
            scale=self._scale,
            min_latency=self._min_latency,
            dtype=dt,
        )

    def __len__(self) -> int:
        return self.n_nodes

    def __repr__(self) -> str:
        h = "heights" if self._heights is not None else "no heights"
        return (
            f"CoordinateProvider(n={self.n_nodes}, "
            f"dims={self._coords.shape[1]}, {h}, dtype={self._dtype})"
        )

    # ------------------------------------------------------------------
    def _block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Synthesize the ``(len(rows), len(cols))`` latency block.

        Distances are computed in float64 by
        :func:`~repro.net.latency.pairwise_euclidean`, scaled, raised by
        the heights and floored in place, and cast to the provider dtype
        at the end — the exact pipeline of
        :meth:`LatencyMatrix.from_coordinates`, which is what makes
        dense and synthesized views byte-identical.

        A tall request (more rows than columns, such as a chunk of
        clients against the servers) is built in the ``(cols, rows)``
        orientation, so every ufunc runs along the long axis, and is
        returned as a C-contiguous transpose. Each element sees the same
        operations in the same order either way: ``(a - b)**2`` is
        bitwise ``(b - a)**2``, the coordinates are summed left to
        right, then the row's height is added, then the column's, then
        the floor applies. The diagonal mask is skipped when the id
        ranges of ``rows`` and ``cols`` are disjoint. The largest
        temporaries are the float64 block itself and, for a tall
        request, the transposed copy returned.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        tall = rows.size > cols.size
        # d[i, j] is the latency between outer[i] and inner[j].
        outer, inner = (cols, rows) if tall else (rows, cols)
        d = pairwise_euclidean(self._coords[outer], self._coords[inner])
        if self._scale != 1.0:
            d *= self._scale
        if self._heights is not None:
            row_heights = self._heights[rows]
            col_heights = self._heights[cols]
            if tall:
                d += row_heights[None, :]
                d += col_heights[:, None]
            else:
                d += row_heights[:, None]
                d += col_heights[None, :]
        # Flooring the diagonal too is harmless: it is zeroed next.
        np.maximum(d, self._min_latency, out=d)
        if not _disjoint(rows, cols):
            same = outer[:, None] == inner[None, :]
            if same.any():
                d[same] = 0.0
        metrics = registry()
        metrics.counter("provider.coordinate.calls").inc()
        metrics.counter("provider.coordinate.rows").inc(int(rows.size))
        metrics.counter("provider.coordinate.elements").inc(
            int(rows.size) * int(cols.size)
        )
        if tall:
            return np.ascontiguousarray(d.T, dtype=self._dtype)
        return np.asarray(d, dtype=self._dtype)

    def distance(self, u: int, v: int) -> float:
        """One-way latency ``d(u, v)``."""
        return float(
            self._block(np.array([u], dtype=np.int64),
                        np.array([v], dtype=np.int64))[0, 0]
        )

    def client_server_distances(
        self, clients: np.ndarray, servers: np.ndarray
    ) -> np.ndarray:
        """The ``(len(clients), len(servers))`` block ``d[c, s]``."""
        return self._block(clients, servers)

    def server_client_distances(
        self, servers: np.ndarray, clients: np.ndarray
    ) -> np.ndarray:
        """The ``(len(servers), len(clients))`` block ``d[s, c]``."""
        return self._block(servers, clients)

    def server_server_distances(self, servers: np.ndarray) -> np.ndarray:
        """The ``(len(servers), len(servers))`` block ``d[s, s']``."""
        return self._block(servers, servers)

    # ------------------------------------------------------------------
    def materialize(
        self, nodes: Optional[np.ndarray] = None
    ) -> LatencyMatrix:
        """A dense :class:`LatencyMatrix` over ``nodes`` (default: all).

        Intended for small subsets (tests, reduced instances); asking
        for the full universe of a planet-scale provider defeats its
        purpose and costs O(n^2) memory.
        """
        if nodes is None:
            nodes = np.arange(self.n_nodes, dtype=np.int64)
        block = self._block(nodes, nodes)
        # Valid by construction: zero diagonal, positive off-diagonals.
        return LatencyMatrix(block, validate=False)


def _disjoint(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether the id ranges of ``a`` and ``b`` cannot share a node."""
    return (
        a.size == 0
        or b.size == 0
        or int(a.min()) > int(b.max())
        or int(a.max()) < int(b.min())
    )


def legs_mirror(provider: LatencyProvider, servers: np.ndarray) -> bool:
    """Whether ``d(c, s) == d(s, c)`` bit for bit for every node ``c``
    and every server ``s`` in ``servers``, decided by construction.

    True for a :class:`CoordinateProvider` whose ``servers`` have zero
    height (or that has no heights): its block pipeline is symmetric
    elementwise — Euclidean distance, scale, floor, diagonal and cast —
    and ``(d + h_c) + 0.0 == (d + 0.0) + h_c``, so the client→server
    block is the exact transpose of the server→client one. False for a
    :class:`~repro.net.latency.LatencyMatrix` and any other provider,
    which are never inspected element by element.
    """
    if not isinstance(provider, CoordinateProvider):
        return False
    heights = provider._heights
    return heights is None or bool(np.all(heights[servers] == 0.0))


def provider_name(provider: LatencyProvider) -> str:
    """A short stable label for cache keys and manifests."""
    if isinstance(provider, LatencyMatrix):
        return "dense"
    if isinstance(provider, CoordinateProvider):
        return "coordinate"
    return type(provider).__name__
