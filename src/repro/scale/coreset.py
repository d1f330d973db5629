"""Client coresets: weighted super-clients with an additive D bound.

The objective D is a *maximum* over client pairs, so two clients whose
latency profiles — the vector of distances to and from every server —
differ by at most ``epsilon`` per coordinate are exchangeable up to
``epsilon`` per path leg. Grid-quantizing profiles at cell size
``cell_size`` groups such clients; keeping one **representative** per
occupied cell with the cell population as its integer weight yields a
reduced instance whose size depends on the latency geometry, not on
|C|.

The profile is ``2|S|`` wide in general: the ``d(c, s)`` legs, then
the ``d(s, c)`` legs. When the provider guarantees by construction that
the two mirror each other bit for bit
(:func:`~repro.net.provider.legs_mirror`, e.g. a coordinate provider
whose servers have zero height), the second half would repeat the first,
so the profile is the ``|S|`` client→server legs alone: same cells,
same ``epsilon``, half the synthesis.

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
``chunk_size`` clients at a time (by default a cache-sized
:data:`DEFAULT_CHUNK_SIZE`) through the
:class:`~repro.net.provider.LatencyProvider` views, so peak memory is
O(chunk_size · |S| + |R| · |S|) — a million clients never materialize a
dense ``|C| x |S|`` block. Each chunk's cells are merged into the groups
found so far by a **sorted-key merge** (:func:`_merge_cells`): one int64
key per quantized row, a ``searchsorted`` against the known groups'
sorted keys, and an exact row check, with no per-cell Python work.
Known groups keep their key and float profile only: a group's quantized
row is recomputed from its profile where a check needs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from repro.errors import InvalidParameterError
from repro.net.provider import LatencyProvider, legs_mirror
from repro.obs.metrics import registry
from repro.types import IndexArrayLike, as_index_array

#: Default number of clients whose profiles are synthesized per chunk.
#: A cache-sized block (2 MiB of float64 at 32 servers): of 4096, 8192
#: and 16384, 8192 balanced peak memory against the per-chunk merge
#: cost, which grows with the number of known groups (see
#: docs/performance.md).
DEFAULT_CHUNK_SIZE = 8192


@lru_cache(maxsize=None)
def _mixing_vector(width: int) -> np.ndarray:
    """``width`` fixed odd int64 multipliers that key quantized rows.

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


def _quantize(profiles: np.ndarray, cell_size: float) -> np.ndarray:
    """The int64 grid cells ``floor(profiles / cell_size)``, row by row."""
    quantized = profiles / cell_size
    np.floor(quantized, out=quantized)
    return quantized.astype(np.int64)


def _merge_cells(
    quantized: np.ndarray,
    keys: np.ndarray,
    group_keys: np.ndarray,
    rep_profiles: np.ndarray,
    cell_size: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Label one chunk's quantized rows with known or new groups.

    ``keys[i]`` is row ``i``'s cell key; ``group_keys[g]`` and
    ``rep_profiles[g]`` are the key and representative's float profile
    of known group ``g`` of ``n``, whose quantized row is
    ``_quantize(rep_profiles[g], cell_size)`` exactly: it is recomputed
    only where a check needs it, never stored. Returns
    ``(labels, founders)``: ``labels[i]`` is row ``i``'s group and
    ``founders`` the first rows of the cells that open the new groups
    ``n, n + 1, ...``, in first-encounter order — the numbering of a
    one-pass scan over all clients, whatever the chunk.

    A 1-D ``np.unique`` over the keys splits the chunk into cells and a
    ``searchsorted`` looks each cell's key up among the known groups.
    Both are verified exactly: every row must equal its cell's first
    row, and every key hit must equal its group's row. A key that no
    known group holds has no known row either, so a miss needs no
    check. A 64-bit key collision — two cells of the chunk sharing a
    key, or a hit on a group with another row (``group_keys`` may hold
    a key twice after an earlier collision) — fails a check, and the
    chunk falls back to one exact row-wise dedup stacked under the
    known rows. Known rows are distinct, so a cell whose first row lies
    among them *is* that group; the groups come out the same either
    way.
    """
    n_groups = rep_profiles.shape[0]
    cell_keys, first, inverse = np.unique(
        keys, return_index=True, return_inverse=True
    )
    order = np.argsort(group_keys)
    known_keys = group_keys[order]
    at = np.searchsorted(known_keys, cell_keys)
    hit = at < n_groups
    hit[hit] = known_keys[at[hit]] == cell_keys[hit]
    group = np.empty(first.size, dtype=np.int64)
    group[hit] = order[at[hit]]
    if not (
        np.array_equal(quantized, quantized[first[inverse]])
        and np.array_equal(
            _quantize(rep_profiles[group[hit]], cell_size),
            quantized[first[hit]],
        )
    ):
        first, inverse = _dedup_rows(
            np.concatenate((_quantize(rep_profiles, cell_size), quantized))
        )
        inverse = inverse[n_groups:]
        hit = first < n_groups
        group = np.where(hit, first, 0)
        first = first - n_groups
    new = np.flatnonzero(~hit)
    new = new[np.argsort(first[new])]
    group[new] = np.arange(n_groups, n_groups + new.size)
    return group[inverse], first[new]


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
    mirrored = legs_mirror(provider, server_arr)
    width = n_servers if mirrored else 2 * n_servers
    mix = _mixing_vector(width)

    # The known groups, each array grown once per chunk: per group its
    # cell key, float profile and representative node.
    group_keys = np.empty(0, dtype=np.int64)
    rep_profiles = np.empty((0, width), dtype=np.float64)
    representatives = np.empty(0, dtype=np.int64)
    labels = np.empty(client_arr.size, dtype=np.int64)
    epsilon = 0.0

    for start in range(0, client_arr.size, chunk_size):
        block = client_arr[start : start + chunk_size]
        # Profiles in float64 so quantization cannot alias across dtypes.
        if mirrored:
            profiles = np.asarray(
                provider.client_server_distances(block, server_arr),
                dtype=np.float64,
            )
        else:
            profiles = np.empty((block.size, width), dtype=np.float64)
            profiles[:, :n_servers] = provider.client_server_distances(
                block, server_arr
            )
            profiles[:, n_servers:] = provider.server_client_distances(
                server_arr, block
            ).T
        quantized = _quantize(profiles, cell_size)
        keys = quantized @ mix
        chunk_labels, founders = _merge_cells(
            quantized, keys, group_keys, rep_profiles, cell_size
        )
        group_keys = np.concatenate((group_keys, keys[founders]))
        # Fancy indexing copies, so no chunk's profile block outlives
        # its chunk.
        rep_profiles = np.concatenate((rep_profiles, profiles[founders]))
        representatives = np.concatenate((representatives, block[founders]))
        labels[start : start + block.size] = chunk_labels
        # Achieved deviation, vectorized per chunk: every member against
        # its representative's profile, in place (|rep - p| is bitwise
        # |p - rep|).
        deviation = rep_profiles[chunk_labels]
        deviation -= profiles
        np.abs(deviation, out=deviation)
        epsilon = max(epsilon, float(deviation.max(initial=0.0)))

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
