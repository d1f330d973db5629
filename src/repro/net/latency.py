"""All-pairs latency matrices and their structural analysis.

A :class:`LatencyMatrix` wraps a square numpy array ``d`` where
``d[u, v]`` is the one-way network latency from node ``u`` to node ``v``
(milliseconds by convention). This is exactly the representation the
Meridian and MIT King data sets provide and the representation every
assignment algorithm in the paper consumes — the heuristics "are generic
and not tied to any particular routing strategy" (§IV).

Real Internet latencies famously violate the triangle inequality, which
is why the paper's 3-approximation bound for Nearest-Server Assignment
does not hold on the experimental data (§V-A, footnote 2).
:meth:`LatencyMatrix.triangle_inequality_report` quantifies the violation
rate so tests can assert that our synthetic data sets reproduce this
property of the real ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.errors import InvalidLatencyMatrixError
from repro.utils.rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class TriangleInequalityReport:
    """Summary of triangle-inequality violations in a latency matrix.

    A triple ``(u, w, v)`` *violates* the triangle inequality when the
    detour through ``w`` is shorter than the direct latency:
    ``d[u, w] + d[w, v] < d[u, v]``.
    """

    #: Number of ordered triples sampled (or examined exhaustively).
    triples_examined: int
    #: Number of sampled triples that violate the triangle inequality.
    violations: int
    #: Mean relative severity ``(d_uv - (d_uw + d_wv)) / d_uv`` over
    #: violating triples (0.0 when there are none).
    mean_severity: float
    #: Maximum relative severity over violating triples.
    max_severity: float

    @property
    def violation_rate(self) -> float:
        """Fraction of examined triples that violate the inequality."""
        if self.triples_examined == 0:
            return 0.0
        return self.violations / self.triples_examined


#: Element types a latency matrix may carry. float64 is the default;
#: float32 halves the memory footprint of |C| >= 50k instances (the
#: dominant cost at scale) at ~1e-7 relative rounding on entry values.
ALLOWED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def _check_dtype(dtype) -> np.dtype:
    dt = np.dtype(dtype)
    if dt not in ALLOWED_DTYPES:
        raise InvalidLatencyMatrixError(
            f"latency matrix dtype must be float32 or float64, got {dt}"
        )
    return dt


def pairwise_euclidean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The ``(len(a), len(b))`` float64 block ``|a[i] - b[j]|``.

    Every coordinate synthesizer in the package computes its distances
    here, so dense matrices and on-demand blocks built from the same
    points agree byte for byte. The squared differences are added one
    coordinate at a time, left to right and in place, then square-rooted
    in place: no ``(len(a), len(b), dims)`` temporary is built. For up to
    7 dimensions this is bit for bit the historical
    ``np.sqrt(((a[:, None] - b[None]) ** 2).sum(axis=2))``, because numpy
    sums so short an axis left to right; from 8 dimensions up numpy's
    unrolled summation differs from it by a few ULPs.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[1] == 0:
        return np.zeros((a.shape[0], b.shape[0]))
    out = np.empty((a.shape[0], b.shape[0]))
    np.subtract(a[:, 0, None], b[None, :, 0], out=out)
    np.multiply(out, out, out=out)
    if a.shape[1] > 1:
        term = np.empty_like(out)
        for k in range(1, a.shape[1]):
            np.subtract(a[:, k, None], b[None, :, k], out=term)
            np.multiply(term, term, out=term)
            out += term
    return np.sqrt(out, out=out)


class LatencyMatrix:
    """An immutable all-pairs latency matrix over ``n`` nodes.

    Parameters
    ----------
    values:
        Square array of one-way latencies. The diagonal must be zero; all
        off-diagonal entries must be finite and strictly positive (the
        paper assumes ``d(u, v) > 0`` for ``u != v``).
    validate:
        Skip structural validation when ``False`` (used internally after
        operations that preserve validity by construction).
    dtype:
        Element type — ``numpy.float32`` or ``numpy.float64``. ``None``
        (default) preserves a float32/float64 input array's dtype and
        coerces anything else to float64, so pre-dtype callers see no
        change. See ``docs/performance.md`` for the float32 trade-offs.

    Notes
    -----
    The matrix need not be symmetric: King measurements are round-trip
    based and the loaders symmetrize them, but asymmetric inputs are
    legal. Convenience constructors cover the common sources.
    """

    __slots__ = ("_d",)

    def __init__(
        self, values: np.ndarray, *, validate: bool = True, dtype=None
    ) -> None:
        d = np.asarray(values)
        if dtype is not None:
            d = np.asarray(d, dtype=_check_dtype(dtype))
        elif d.dtype not in ALLOWED_DTYPES:
            d = np.asarray(d, dtype=np.float64)
        if validate:
            self._validate(d)
        d = d.copy()
        d.setflags(write=False)
        object.__setattr__(self, "_d", d)

    # Using __slots__ with object.__setattr__ keeps instances immutable in
    # spirit; the underlying array is marked read-only as well.
    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LatencyMatrix is immutable")

    def __reduce__(self):
        # Rebuild through the constructor: a fresh read-only copy.
        return LatencyMatrix, (self._d,)

    @staticmethod
    def _validate(d: np.ndarray) -> None:
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise InvalidLatencyMatrixError(
                f"latency matrix must be square, got shape {d.shape}"
            )
        if d.shape[0] == 0:
            raise InvalidLatencyMatrixError("latency matrix must be non-empty")
        if not np.all(np.isfinite(d)):
            raise InvalidLatencyMatrixError(
                "latency matrix contains NaN or infinite entries"
            )
        if np.any(np.diag(d) != 0.0):
            raise InvalidLatencyMatrixError("latency matrix diagonal must be zero")
        off_diag = d[~np.eye(d.shape[0], dtype=bool)]
        if off_diag.size and np.any(off_diag <= 0.0):
            raise InvalidLatencyMatrixError(
                "off-diagonal latencies must be strictly positive"
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_coordinates(
        cls,
        coords: np.ndarray,
        *,
        scale: float = 1.0,
        min_latency: float = 1e-6,
        dtype=np.float64,
    ) -> "LatencyMatrix":
        """Build a (symmetric, metric) matrix from Euclidean coordinates.

        ``coords`` has shape ``(n, dim)``. Distances are scaled by
        ``scale`` and floored at ``min_latency`` to respect strict
        positivity. Distances are always computed in float64; ``dtype``
        selects the storage type of the result.
        """
        coords = np.asarray(coords, dtype=np.float64)
        if coords.ndim != 2:
            raise ValueError(f"coords must be 2-D, got shape {coords.shape}")
        d = pairwise_euclidean(coords, coords)
        d *= scale
        np.maximum(d, min_latency, out=d)
        np.fill_diagonal(d, 0.0)
        return cls(d, dtype=dtype)

    @classmethod
    def random_metric(
        cls, n: int, *, seed: SeedLike = None, dim: int = 2, scale: float = 100.0
    ) -> "LatencyMatrix":
        """A random metric matrix from uniform points in a unit hypercube.

        Handy for tests that need triangle-inequality-respecting inputs
        (e.g. verifying the 3-approximation bound of Theorem 2).
        """
        rng = ensure_rng(seed)
        coords = rng.uniform(0.0, 1.0, size=(n, dim))
        return cls.from_coordinates(coords, scale=scale)

    # ------------------------------------------------------------------
    # Array access
    # ------------------------------------------------------------------
    @property
    def values(self) -> np.ndarray:
        """The underlying (read-only) ``(n, n)`` float array."""
        return self._d

    @property
    def dtype(self) -> np.dtype:
        """Element type of the stored matrix (float32 or float64)."""
        return self._d.dtype

    def astype(self, dtype) -> "LatencyMatrix":
        """The same matrix stored as ``dtype``; ``self`` when unchanged.

        Downcasting float64 → float32 rounds entries to ~7 significant
        digits; structural validity (zero diagonal, positive
        off-diagonals) is preserved by rounding for any realistic
        latency range, so no re-validation runs.
        """
        dt = _check_dtype(dtype)
        if dt == self._d.dtype:
            return self
        return LatencyMatrix(self._d, validate=False, dtype=dt)

    @property
    def n_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self._d.shape[0]

    def __len__(self) -> int:
        return self.n_nodes

    def __getitem__(self, key):
        return self._d[key]

    def distance(self, u: int, v: int) -> float:
        """One-way latency ``d(u, v)``."""
        return float(self._d[u, v])

    def submatrix(self, nodes: Iterable[int]) -> "LatencyMatrix":
        """Restrict the matrix to the given nodes (in the given order)."""
        idx = np.asarray(list(nodes), dtype=np.int64)
        if idx.size == 0:
            raise InvalidLatencyMatrixError("cannot take an empty submatrix")
        return LatencyMatrix(self._d[np.ix_(idx, idx)], validate=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatencyMatrix):
            return NotImplemented
        return self._d.shape == other._d.shape and bool(np.all(self._d == other._d))

    def __hash__(self) -> int:
        return hash((self._d.shape, self._d.tobytes()))

    def __repr__(self) -> str:
        return (
            f"LatencyMatrix(n={self.n_nodes}, "
            f"mean={self.mean_latency():.2f}, max={self.max_latency():.2f})"
        )

    # ------------------------------------------------------------------
    # Structural properties
    # ------------------------------------------------------------------
    def is_symmetric(self, *, rtol: float = 1e-9, atol: float = 1e-9) -> bool:
        """Whether ``d(u, v) == d(v, u)`` for all pairs (within tolerance)."""
        return bool(np.allclose(self._d, self._d.T, rtol=rtol, atol=atol))

    def symmetrized(self) -> "LatencyMatrix":
        """Return the symmetric matrix ``(d + d.T) / 2``."""
        return LatencyMatrix((self._d + self._d.T) / 2.0, validate=False)

    def mean_latency(self) -> float:
        """Mean of off-diagonal entries."""
        n = self.n_nodes
        if n == 1:
            return 0.0
        mask = ~np.eye(n, dtype=bool)
        return float(self._d[mask].mean())

    def max_latency(self) -> float:
        """Maximum entry (network diameter in the all-pairs view)."""
        return float(self._d.max())

    def min_latency(self) -> float:
        """Minimum off-diagonal entry."""
        n = self.n_nodes
        if n == 1:
            return 0.0
        mask = ~np.eye(n, dtype=bool)
        return float(self._d[mask].min())

    def latency_percentile(self, q: float) -> float:
        """The ``q``-th percentile of off-diagonal latencies (``0<=q<=100``)."""
        n = self.n_nodes
        mask = ~np.eye(n, dtype=bool)
        return float(np.percentile(self._d[mask], q))

    def triangle_inequality_report(
        self,
        *,
        max_triples: int = 200_000,
        seed: SeedLike = 0,
    ) -> TriangleInequalityReport:
        """Measure triangle-inequality violations.

        Examines all ordered triples ``(u, w, v)`` of distinct nodes when
        their count does not exceed ``max_triples``; otherwise samples
        ``max_triples`` triples uniformly at random (with the given seed,
        so reports are reproducible).
        """
        n = self.n_nodes
        if n < 3:
            return TriangleInequalityReport(0, 0, 0.0, 0.0)
        total = n * (n - 1) * (n - 2)
        d = self._d
        if total <= max_triples:
            # Exhaustive: vectorize over w for each (u, v) pair.
            direct = d[:, None, :]  # d[u, v] broadcast over w -> (u, w, v)
            detour = d[:, :, None] + d[None, :, :]  # d[u,w] + d[w,v]
            sev = (direct - detour) / np.where(direct > 0, direct, 1.0)
            # Mask out triples with repeated nodes.
            idx = np.arange(n)
            valid = np.ones((n, n, n), dtype=bool)
            valid[idx, idx, :] = False  # u == w
            valid[idx, :, idx] = False  # u == v
            valid[:, idx, idx] = False  # w == v
            sev = np.where(valid, sev, -np.inf)
            viol = sev > 1e-12
            count = int(viol.sum())
            if count:
                vals = sev[viol]
                return TriangleInequalityReport(total, count, float(vals.mean()), float(vals.max()))
            return TriangleInequalityReport(total, 0, 0.0, 0.0)
        rng = ensure_rng(seed)
        u = rng.integers(0, n, size=max_triples)
        w = rng.integers(0, n, size=max_triples)
        v = rng.integers(0, n, size=max_triples)
        distinct = (u != w) & (u != v) & (w != v)
        u, w, v = u[distinct], w[distinct], v[distinct]
        direct = d[u, v]
        detour = d[u, w] + d[w, v]
        sev = (direct - detour) / direct
        viol = sev > 1e-12
        count = int(viol.sum())
        examined = int(u.size)
        if count:
            vals = sev[viol]
            return TriangleInequalityReport(examined, count, float(vals.mean()), float(vals.max()))
        return TriangleInequalityReport(examined, 0, 0.0, 0.0)

    def satisfies_triangle_inequality(self, *, tol: float = 1e-9) -> bool:
        """Exact check that no detour beats a direct latency.

        Uses one round of min-plus squaring: the matrix is metric iff
        ``min_w(d[u,w] + d[w,v]) >= d[u,v]`` for all pairs. O(n^3) via a
        blocked numpy loop — fine up to a few thousand nodes.
        """
        d = self._d
        n = self.n_nodes
        for u in range(n):
            best = np.min(d[u][:, None] + d, axis=0)  # min over w of d[u,w]+d[w,v]
            if np.any(best < d[u] - tol):
                return False
        return True

    def metric_closure(self) -> "LatencyMatrix":
        """Shortest-path (min-plus) closure of the matrix.

        Returns the matrix of shortest-path distances treating every
        entry as a direct link. The result always satisfies the triangle
        inequality. Uses repeated min-plus squaring, O(n^3 log n).
        """
        d = self._d.copy()
        n = self.n_nodes
        steps = max(1, int(np.ceil(np.log2(max(n - 1, 1)))))
        for _ in range(steps):
            new = d.copy()
            for u in range(n):
                new[u] = np.minimum(new[u], np.min(d[u][:, None] + d, axis=0))
            if np.array_equal(new, d):
                break
            d = new
        return LatencyMatrix(d, validate=False)

    # ------------------------------------------------------------------
    # Stacked views used by the problem/metrics layer
    # ------------------------------------------------------------------
    def client_server_distances(
        self, clients: np.ndarray, servers: np.ndarray
    ) -> np.ndarray:
        """The ``(len(clients), len(servers))`` slice ``d[c, s]``."""
        return self._d[np.ix_(np.asarray(clients), np.asarray(servers))]

    def server_client_distances(
        self, servers: np.ndarray, clients: np.ndarray
    ) -> np.ndarray:
        """The ``(len(servers), len(clients))`` slice ``d[s, c]``."""
        return self._d[np.ix_(np.asarray(servers), np.asarray(clients))]

    def server_server_distances(self, servers: np.ndarray) -> np.ndarray:
        """The ``(len(servers), len(servers))`` slice ``d[s, s']``."""
        s = np.asarray(servers)
        return self._d[np.ix_(s, s)]


def describe(matrix: LatencyMatrix) -> str:
    """One-line human-readable summary used by the CLI."""
    report = matrix.triangle_inequality_report(max_triples=50_000)
    return (
        f"{matrix.n_nodes} nodes, latency min/mean/p90/max = "
        f"{matrix.min_latency():.1f}/{matrix.mean_latency():.1f}/"
        f"{matrix.latency_percentile(90):.1f}/{matrix.max_latency():.1f} ms, "
        f"symmetric={matrix.is_symmetric()}, "
        f"triangle-violation-rate={report.violation_rate:.3f}"
    )
