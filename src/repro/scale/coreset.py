"""Client coresets: weighted super-clients with an additive D bound.

The objective D is a *maximum* over client pairs, so two clients whose
latency profiles — the ``2|S|`` vector of distances to and from every
server — differ by at most ``epsilon`` per coordinate are exchangeable
up to ``epsilon`` per path leg. Grid-quantizing profiles at cell size
``cell_size`` groups such clients; keeping one **representative** per
occupied cell with the cell population as its integer weight yields a
reduced instance whose size depends on the latency geometry, not on
|C|.

**Guarantee.** Let ``eps`` be the *achieved* deviation
(:attr:`Coreset.epsilon`): the maximum over clients ``c`` and servers
``s`` of ``|d(c, s) - d(rep(c), s)|`` and ``|d(s, c) - d(s, rep(c))|``.
Expanding a reduced assignment by giving every client its
representative's server changes each interaction path's two client legs
by at most ``eps`` each, hence::

    D_expanded <= D_reduced + 2 * eps

(``tests/scale/test_coreset.py`` enforces this on random instances;
``eps < cell_size`` always holds since cell-mates share every floor
bucket.)

Construction is **chunked**: profiles are synthesized
``chunk_size`` clients at a time through the
:class:`~repro.net.provider.LatencyProvider` views, so peak memory is
O(chunk_size · |S| + |R| · |S|) — a million clients never materialize a
dense ``|C| x |S|`` block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Tuple

import numpy as np

from repro.errors import InvalidParameterError
from repro.net.provider import LatencyProvider
from repro.obs.metrics import registry
from repro.types import IndexArrayLike, as_index_array

#: Default number of clients whose profiles are synthesized per chunk.
DEFAULT_CHUNK_SIZE = 65536


@lru_cache(maxsize=None)
def _mixing_vector(width: int) -> np.ndarray:
    """``width`` fixed odd int64 multipliers for :func:`_dedup_cells`.

    Column ``i`` gets the splitmix64 finalizer of ``i + 1``: a constant
    of the module, not a parameter, so cell keys never depend on the
    caller.
    """
    z = np.arange(1, width + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    mix = (z | np.uint64(1)).view(np.int64)
    mix.setflags(write=False)
    return mix


def _dedup_rows(quantized: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Exact row-wise dedup: ``(first, inverse)`` of the distinct rows."""
    _cells, first, inverse = np.unique(
        quantized, axis=0, return_index=True, return_inverse=True
    )
    return first, inverse.reshape(-1)


def _dedup_cells(quantized: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Partition the rows of ``quantized`` into distinct cells.

    Returns ``(first, inverse)``: ``first[j]`` is the first row of cell
    ``j`` and ``inverse[i]`` the cell of row ``i``. Each row is keyed by
    one wrapping int64 dot product with :func:`_mixing_vector`, so a
    1-D sort replaces the row-wise sort of ``np.unique(axis=0)``. The
    partition is then verified exactly — every row must equal its
    cell's first row — and a key collision falls back to the row-wise
    dedup. Cell numbering differs between the two, but the caller only
    relies on ``first`` and ``inverse`` agreeing, so results do not.
    """
    keys = quantized @ _mixing_vector(quantized.shape[1])
    _keys, first, inverse = np.unique(
        keys, return_index=True, return_inverse=True
    )
    if np.array_equal(quantized, quantized[first[inverse]]):
        return first, inverse
    return _dedup_rows(quantized)


@dataclass(frozen=True)
class Coreset:
    """A weighted reduction of a client set (see module docs).

    ``representatives[g]`` is the *node id* of group ``g``'s
    representative; ``labels[i]`` maps input client ``i`` (positional,
    in the order the client nodes were given) to its group;
    ``weights[g]`` counts the group's members. ``epsilon`` is the
    achieved per-coordinate profile deviation — the quantity the
    ``D_expanded <= D_reduced + 2 * epsilon`` bound is stated in —
    and ``cell_size`` the quantization cell it was built with
    (``epsilon < cell_size`` by construction).
    """

    representatives: np.ndarray
    weights: np.ndarray
    labels: np.ndarray
    epsilon: float
    cell_size: float

    def __post_init__(self) -> None:
        for name in ("representatives", "weights", "labels"):
            getattr(self, name).setflags(write=False)

    @property
    def n_clients(self) -> int:
        """Number of input clients."""
        return int(self.labels.size)

    @property
    def n_representatives(self) -> int:
        """Number of super-clients in the reduced instance."""
        return int(self.representatives.size)

    @property
    def reduction_ratio(self) -> float:
        """``|C| / |R|`` — how many clients one super-client stands for."""
        return self.n_clients / max(1, self.n_representatives)

    def expand(self, server_of_representatives: np.ndarray) -> np.ndarray:
        """Expand a reduced assignment to all clients.

        ``server_of_representatives[g]`` is group ``g``'s server (any
        index space); every member inherits its representative's server.
        """
        server_of = np.asarray(server_of_representatives)
        if server_of.shape != (self.n_representatives,):
            raise InvalidParameterError(
                f"expected one server per representative "
                f"({self.n_representatives}), got shape {server_of.shape}"
            )
        return server_of[self.labels]

    def __repr__(self) -> str:
        return (
            f"Coreset({self.n_clients} clients -> "
            f"{self.n_representatives} representatives, "
            f"epsilon={self.epsilon:.4g})"
        )


def build_coreset(
    provider: LatencyProvider,
    servers: IndexArrayLike,
    clients: IndexArrayLike,
    *,
    cell_size: float,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Coreset:
    """Group ``clients`` into weighted super-clients (see module docs).

    ``cell_size`` is the quantization grid pitch in latency units (ms
    for the bundled data sets): clients whose profiles fall in the same
    grid cell collapse into one representative — the first member
    encountered, so the construction is deterministic in the client
    order. The achieved :attr:`Coreset.epsilon` is measured, not
    assumed, and is strictly below ``cell_size``.
    """
    if not (np.isfinite(cell_size) and cell_size > 0):
        raise InvalidParameterError(
            f"cell_size must be positive, got {cell_size}"
        )
    if chunk_size < 1:
        raise InvalidParameterError(
            f"chunk_size must be >= 1, got {chunk_size}"
        )
    server_arr = as_index_array(servers, "servers")
    client_arr = as_index_array(clients, "clients")
    if server_arr.size == 0:
        raise InvalidParameterError("need at least one server")
    if client_arr.size == 0:
        raise InvalidParameterError("need at least one client")
    n_servers = int(server_arr.size)

    #: quantized-profile bytes -> group index
    groups: Dict[bytes, int] = {}
    rep_nodes: list = []
    rep_profiles: list = []
    labels = np.empty(client_arr.size, dtype=np.int64)
    epsilon = 0.0

    for start in range(0, client_arr.size, chunk_size):
        block = client_arr[start : start + chunk_size]
        # (B, 2|S|) profiles in float64 so quantization cannot alias
        # across dtypes; filled in place so neither block outlives its
        # copy.
        profiles = np.empty((block.size, 2 * n_servers), dtype=np.float64)
        profiles[:, :n_servers] = provider.client_server_distances(
            block, server_arr
        )
        profiles[:, n_servers:] = provider.server_client_distances(
            server_arr, block
        ).T
        quantized = np.floor(profiles / cell_size).astype(np.int64)
        # Dedup within the chunk first, then resolve each distinct cell
        # against the global dictionary — the per-row Python cost
        # scales with distinct cells, not clients. ``first`` points at
        # the *first* chunk member of each cell, and iterating distinct
        # cells by that first occurrence numbers new groups in global
        # first-encounter order, keeping representatives, labels and
        # weights identical to a naive one-pass scan for every
        # chunk_size.
        first, inverse = _dedup_cells(quantized)
        cell_to_group = np.empty(first.size, dtype=np.int64)
        for j in np.argsort(first):
            member = int(first[j])
            key = quantized[member].tobytes()
            group = groups.get(key)
            if group is None:
                group = len(rep_nodes)
                groups[key] = group
                rep_nodes.append(int(block[member]))
                # A copy, not a row view: a view would keep the whole
                # chunk's profile block alive for the rest of the build.
                rep_profiles.append(profiles[member].copy())
            cell_to_group[j] = group
        chunk_labels = cell_to_group[inverse]
        labels[start : start + block.size] = chunk_labels
        # Achieved deviation, vectorized per chunk: every member against
        # its representative's profile, in place (|rep - p| is bitwise
        # |p - rep|).
        deviation = np.asarray(rep_profiles)[chunk_labels]
        deviation -= profiles
        np.abs(deviation, out=deviation)
        epsilon = max(epsilon, float(deviation.max(initial=0.0)))

    representatives = np.asarray(rep_nodes, dtype=np.int64)
    weights = np.bincount(labels, minlength=representatives.size).astype(
        np.int64
    )
    metrics = registry()
    metrics.counter("scale.coreset.clients").inc(int(client_arr.size))
    metrics.counter("scale.coreset.representatives").inc(
        int(representatives.size)
    )
    return Coreset(
        representatives=representatives,
        weights=weights,
        labels=labels,
        epsilon=epsilon,
        cell_size=float(cell_size),
    )
