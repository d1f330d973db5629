"""Coreset → reduced solve → expansion: the million-client pipeline.

:func:`solve_at_scale` is the facade: build a
:class:`~repro.scale.coreset.Coreset` over the client set, solve the
reduced weighted instance with any registered algorithm through
:func:`~repro.algorithms.base.run_algorithm`, expand the result back to
every client, and evaluate the **exact** expanded objective by
streaming clients through the provider in chunks (per-server
farthest-leg maxima, then the O(|S|^2) server reduction — never a dense
``|C| x |S|`` block). The additive guarantee

    ``D_expanded <= D_reduced + 2 * coreset.epsilon``

is re-checked on every run and a violation raises — it would mean the
coreset invariant itself is broken, not merely a bad solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from repro.algorithms.base import run_algorithm
from repro.core.problem import ClientAssignmentProblem
from repro.core.results import AssignmentResult
from repro.errors import InvalidParameterError, ScaleBoundError
from repro.net.provider import LatencyProvider, provider_name
from repro.obs import Stopwatch, registry, span
from repro.scale.coreset import DEFAULT_CHUNK_SIZE, Coreset, build_coreset
from repro.types import IndexArrayLike, as_index_array


@dataclass(frozen=True)
class ScaleResult:
    """Outcome of :func:`solve_at_scale`.

    ``server_of`` maps every input client (positional, in the order the
    client nodes were given) to a local server index of ``servers``.
    ``d_expanded`` is the exact objective of that full assignment;
    ``d_reduced`` the reduced instance's objective; ``bound`` is
    ``d_reduced + 2 * coreset.epsilon`` (always ``>= d_expanded``).
    """

    server_of: np.ndarray
    d_expanded: float
    d_reduced: float
    bound: float
    coreset: Coreset
    reduced: AssignmentResult
    algorithm: str
    elapsed_seconds: float

    def __post_init__(self) -> None:
        self.server_of.setflags(write=False)

    @property
    def epsilon(self) -> float:
        """The coreset's achieved profile deviation."""
        return self.coreset.epsilon

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready scalar summary (for benchmarks and the CLI)."""
        return {
            "algorithm": self.algorithm,
            "n_clients": self.coreset.n_clients,
            "n_representatives": self.coreset.n_representatives,
            "reduction_ratio": self.coreset.reduction_ratio,
            "epsilon": self.epsilon,
            "cell_size": self.coreset.cell_size,
            "d_reduced": self.d_reduced,
            "d_expanded": self.d_expanded,
            "bound": self.bound,
            "elapsed_seconds": self.elapsed_seconds,
        }


def expanded_objective(
    provider: LatencyProvider,
    servers: np.ndarray,
    clients: np.ndarray,
    server_of: np.ndarray,
    *,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> float:
    """Exact D of a full assignment, streamed in O(|S|^2) memory.

    Accumulates per-server farthest outgoing/incoming client legs over
    client chunks, then reduces ``max l_out[s1] + d(s1, s2) + l_in[s2]``
    over used servers — the same decomposition as
    :func:`repro.core.metrics.max_interaction_path_length`, without ever
    holding a ``|C| x |S|`` block. Each client needs only its own
    server's two legs, so every chunk is grouped by server and only the
    ``(members, [s])`` and ``([s], members)`` blocks are synthesized:
    O(|C|) latencies in all, not O(|C| |S|).

    ``server_of[i]`` must be a local server index in ``[0, |S|)`` for
    each of the ``|C|`` clients; anything else raises
    :class:`~repro.errors.InvalidParameterError`.
    """
    server_arr = np.asarray(servers, dtype=np.int64)
    client_arr = np.asarray(clients, dtype=np.int64)
    n_servers = int(server_arr.size)
    if n_servers == 0:
        raise InvalidParameterError("need at least one server")
    if client_arr.size == 0:
        raise InvalidParameterError("need at least one client")
    if chunk_size < 1:
        raise InvalidParameterError(
            f"chunk_size must be >= 1, got {chunk_size}"
        )
    server_of = np.asarray(server_of)
    if server_of.shape != (client_arr.size,) or not np.issubdtype(
        server_of.dtype, np.integer
    ):
        raise InvalidParameterError(
            f"expected one integer server index per client "
            f"({client_arr.size}), got {server_of.dtype} array of "
            f"shape {server_of.shape}"
        )
    low, high = int(server_of.min()), int(server_of.max())
    if low < 0 or high >= n_servers:
        raise InvalidParameterError(
            f"server indices must lie in [0, {n_servers}), "
            f"got [{low}, {high}]"
        )
    l_out = np.full(n_servers, -np.inf)
    l_in = np.full(n_servers, -np.inf)
    for start in range(0, client_arr.size, chunk_size):
        block = client_arr[start : start + chunk_size]
        assigned = server_of[start : start + block.size]
        counts = np.bincount(assigned, minlength=n_servers)
        bounds = np.concatenate(([0], np.cumsum(counts)))
        order = np.argsort(assigned)
        for s in np.flatnonzero(counts):
            members = block[order[bounds[s] : bounds[s + 1]]]
            target = server_arr[s : s + 1]
            cs = provider.client_server_distances(members, target)
            sc = provider.server_client_distances(target, members)
            l_out[s] = max(l_out[s], float(cs.max()))
            l_in[s] = max(l_in[s], float(sc.max()))
    used = np.flatnonzero(np.isfinite(l_out))
    ss = np.asarray(
        provider.server_server_distances(server_arr), dtype=np.float64
    )
    sub = ss[np.ix_(used, used)]
    totals = l_out[used][:, None] + sub + l_in[used][None, :]
    return float(totals.max())


def solve_at_scale(
    provider: LatencyProvider,
    servers: IndexArrayLike,
    clients: Optional[IndexArrayLike] = None,
    *,
    cell_size: float,
    algorithm: str = "distributed-greedy",
    seed: Optional[int] = None,
    backend: Optional[str] = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    **kwargs: Any,
) -> ScaleResult:
    """Solve a (possibly enormous) instance via the coreset pipeline.

    ``clients`` defaults to every node not hosting a server. The reduced
    instance carries the coreset's weights (so a future capacitated
    variant charges each super-client its true demand) and is solved
    uncapacitated by ``algorithm`` through the standard
    :func:`~repro.algorithms.base.run_algorithm` facade — every
    registered heuristic works unchanged, since |R| is small.

    Peak memory is O(chunk_size · |S| + |R| · |S| + |S|^2); with a
    :class:`~repro.net.provider.CoordinateProvider` no dense
    ``|C| x |S|`` block exists at any point.
    """
    server_arr = as_index_array(servers, "servers")
    if clients is None:
        mask = np.ones(provider.n_nodes, dtype=bool)
        mask[server_arr] = False
        client_arr = np.flatnonzero(mask).astype(np.int64)
    else:
        client_arr = as_index_array(clients, "clients")
    if client_arr.size == 0:
        raise InvalidParameterError("need at least one client")

    with span(
        "scale.solve",
        provider=provider_name(provider),
        clients=int(client_arr.size),
        servers=int(server_arr.size),
        algorithm=algorithm,
    ), Stopwatch() as watch:
        with span("scale.coreset"):
            coreset = build_coreset(
                provider,
                server_arr,
                client_arr,
                cell_size=cell_size,
                chunk_size=chunk_size,
            )
        with span("scale.reduce_solve", representatives=coreset.n_representatives):
            reduced_problem = ClientAssignmentProblem(
                provider,
                server_arr,
                clients=coreset.representatives,
                client_weights=coreset.weights,
            )
            reduced = run_algorithm(
                algorithm,
                reduced_problem,
                seed=seed,
                backend=backend,
                **kwargs,
            )
        with span("scale.expand"):
            server_of = coreset.expand(reduced.assignment.server_of)
            d_expanded = expanded_objective(
                provider,
                server_arr,
                client_arr,
                server_of,
                chunk_size=chunk_size,
            )
    bound = reduced.d + 2.0 * coreset.epsilon
    if d_expanded > bound * (1.0 + 1e-9) + 1e-9:
        raise ScaleBoundError(
            f"expanded D {d_expanded} exceeds the coreset bound "
            f"{bound} (= reduced D {reduced.d} + 2 * epsilon "
            f"{coreset.epsilon}); the coreset invariant is broken"
        )
    metrics = registry()
    metrics.counter("scale.solves").inc()
    metrics.gauge("scale.last_reduction_ratio").set(coreset.reduction_ratio)
    return ScaleResult(
        server_of=server_of,
        d_expanded=d_expanded,
        d_reduced=reduced.d,
        bound=bound,
        coreset=coreset,
        reduced=reduced,
        algorithm=algorithm,
        elapsed_seconds=watch.elapsed,
    )
