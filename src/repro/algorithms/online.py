"""Online client assignment under churn.

The paper's §VI argues that, unlike server placement, client assignment
"can be adjusted promptly to adapt to system dynamics". This module
makes that concrete: an :class:`OnlineAssignmentManager` maintains an
assignment while clients **join and leave**, using the same move-cost
machinery as Distributed-Greedy:

- **join**: the arriving client is placed on the server minimizing the
  resulting maximum interaction path length through that client
  (``L(s') = max_{s''} d(c, s') + d(s', s'') + l(s'')``), respecting
  capacities — an O(|S|^2) decision, no global recomputation;
- **leave**: the client is removed and its server's farthest-client
  summary refreshed;
- **rebalance**: run a bounded number of Distributed-Greedy
  modifications to repair accumulated drift.

A :func:`simulate_churn` driver replays a Poisson arrival/departure
process and records D over time with and without periodic rebalancing,
so the value of prompt reassignment is measurable (see
``benchmarks/bench_online.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.algorithms.policies import (
    OnlinePolicy,
    PlacementView,
    resolve_policy,
    validate_policy_name,
)
from repro.core.assignment import Assignment
from repro.core.incremental import DEFAULT_TOP_K, IncrementalObjective
from repro.core.metrics import max_interaction_path_length
from repro.core.problem import ClientAssignmentProblem
from repro.errors import (
    CapacityError,
    FailoverError,
    InvalidAssignmentError,
    InvalidParameterError,
)
from repro.net.latency import LatencyMatrix
from repro.net.provider import LatencyProvider
from repro.obs import registry
from repro.types import IndexArrayLike, as_index_array
from repro.utils.rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class OnlineConfig:
    """Typed configuration for :class:`OnlineAssignmentManager`.

    Consolidates the manager's former keyword sprawl into one validated
    object that can be passed around, serialized (:meth:`to_dict` /
    :meth:`from_dict`), and shared between the library path and the
    service layer (:mod:`repro.service`).

    Parameters
    ----------
    capacity:
        Optional uniform per-server client capacity (``None`` =
        unlimited).
    join_policy:
        Placement rule for arrivals, by name from the
        :mod:`repro.algorithms.policies` registry: ``"greedy"``
        minimizes the resulting D, ``"nearest"`` is the
        deployed-system default; ``"threshold"`` and ``"spread"`` are
        remediation-style policies (see ``docs/scenarios.md``).
    backend:
        Kernel backend for the manager's incremental engine — one of
        ``"auto"`` (default), ``"numba"``, ``"numpy"``; see
        :func:`repro.kernels.resolve_backend` and
        ``docs/performance.md``.
    top_k:
        Per-server, per-direction top-k retention of the engine's
        farthest-client lists (default
        :data:`repro.core.incremental.DEFAULT_TOP_K`). Larger values
        trade memory for fewer lazy rebuilds under heavy churn.
    """

    capacity: Optional[int] = None
    join_policy: str = "greedy"
    backend: str = "auto"
    top_k: int = DEFAULT_TOP_K

    def __post_init__(self) -> None:
        if self.capacity is not None and self.capacity < 1:
            raise InvalidParameterError(
                f"capacity must be >= 1, got {self.capacity}"
            )
        validate_policy_name(self.join_policy)
        from repro.kernels import validate_backend_name

        validate_backend_name(self.backend)
        if self.top_k < 2:
            raise InvalidParameterError(
                f"top_k must be >= 2, got {self.top_k}"
            )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable view (stable keys, scalars only)."""
        return {
            "capacity": None if self.capacity is None else int(self.capacity),
            "join_policy": self.join_policy,
            "backend": self.backend,
            "top_k": int(self.top_k),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "OnlineConfig":
        """Rebuild a config from :meth:`to_dict` output.

        ``backend`` / ``top_k`` default when absent so
        configs (and checkpoints) serialized before those knobs existed
        keep loading.
        """
        capacity = data.get("capacity")
        return cls(
            capacity=None if capacity is None else int(capacity),
            join_policy=str(data.get("join_policy", "greedy")),
            backend=str(data.get("backend", "auto")),
            top_k=int(data.get("top_k", DEFAULT_TOP_K)),
        )


class OnlineAssignmentManager:
    """Maintains a client assignment under joins, leaves and rebalances.

    Parameters
    ----------
    matrix:
        Latency source over the node universe — a dense
        :class:`~repro.net.latency.LatencyMatrix` or any other
        :class:`~repro.net.provider.LatencyProvider`.
    servers:
        Node indices hosting servers.
    config:
        An :class:`OnlineConfig` (default: uncapacitated, greedy joins).
    client_nodes:
        Optional restriction of the joinable client universe to these
        node indices (the scenario harness passes a planet instance's
        client nodes). ``None`` (the default) keeps the historical
        behavior — every node may join.

    Notes
    -----
    Clients are identified by their **node index** in the matrix. The
    manager's state lives in an
    :class:`~repro.core.incremental.IncrementalObjective` over the
    client universe (partial assignment: unconnected nodes are simply
    unassigned), which keeps the per-server farthest-client summaries
    (the ``l(s)`` of the paper's §IV-D, split by direction) and the
    best-completion reductions cached. Joins and move-cost queries are
    O(|S|) on warm caches and the current D is always available from the
    engine's cache — independent of the number of connected clients.
    """

    def __init__(
        self,
        matrix: LatencyProvider,
        servers: IndexArrayLike,
        config: Optional[OnlineConfig] = None,
        *,
        client_nodes: Optional[IndexArrayLike] = None,
    ) -> None:
        config = config or OnlineConfig()
        self._matrix = matrix
        self._n_nodes = int(matrix.n_nodes)
        self._servers = as_index_array(servers, "servers")
        if self._servers.size == 0:
            raise InvalidParameterError("need at least one server")
        self._config = config
        self._capacity = config.capacity
        self._join_policy = config.join_policy
        self._policy = resolve_policy(config.join_policy)
        #: node -> local server index
        self._assigned: Dict[int, int] = {}
        #: per-server member node sets
        self._members: List[Set[int]] = [set() for _ in range(self._servers.size)]
        #: per-server liveness; crashed servers are excluded from every
        #: placement decision until reactivated
        self._active = np.ones(self._servers.size, dtype=bool)
        #: per-server reachability; partitioned servers are excluded
        #: from placement like crashed ones, but keep their members
        #: (clients ride out the partition on a stale assignment)
        self._reachable = np.ones(self._servers.size, dtype=bool)
        #: ``_active & _reachable`` and its count, refreshed only when
        #: liveness or reachability changes (placement reads them on
        #: every event)
        self._usable_mask = np.ones(self._servers.size, dtype=bool)
        self._n_usable = int(self._servers.size)
        # Incremental objective over the client universe; connected
        # clients are assigned, everything else stays unassigned. The
        # manager's uniform capacity and liveness masks are applied at
        # decision time, so the engine's problem carries no capacities.
        # Without a client_nodes restriction the universe's local client
        # index coincides with the node index (clients default to every
        # node), so no translation happens on that path; a restricted
        # universe carries an explicit node -> engine-index map.
        if client_nodes is None:
            self._client_nodes: Optional[np.ndarray] = None
            self._node_to_engine: Optional[Dict[int, int]] = None
            self._universe = ClientAssignmentProblem(matrix, self._servers)
        else:
            nodes = as_index_array(client_nodes, "client_nodes")
            if nodes.size == 0:
                raise InvalidParameterError(
                    "client_nodes must be non-empty when given"
                )
            self._client_nodes = nodes
            self._node_to_engine = {int(n): i for i, n in enumerate(nodes)}
            self._universe = ClientAssignmentProblem(
                matrix, self._servers, clients=nodes
            )
        self._engine = IncrementalObjective(
            self._universe,
            history=False,
            k=config.top_k,
            backend=config.backend,
        )
        # Bound once, like the engine's own instruments: joins and
        # leaves pay one attribute-add each.
        metrics = registry()
        self._m_joins = metrics.counter("online.joins")
        self._m_leaves = metrics.counter("online.leaves")

    def _engine_index(self, client_node: int) -> int:
        """The engine's local client index for a node (identity when the
        universe is unrestricted)."""
        if self._node_to_engine is None:
            return client_node
        try:
            return self._node_to_engine[client_node]
        except KeyError:
            raise InvalidAssignmentError(
                f"client node {client_node} is outside this manager's "
                f"client universe"
            ) from None

    # ------------------------------------------------------------------
    @property
    def n_servers(self) -> int:
        """Number of servers."""
        return int(self._servers.size)

    @property
    def config(self) -> OnlineConfig:
        """The manager's resolved configuration."""
        return self._config

    @property
    def capacity(self) -> Optional[int]:
        """Uniform per-server client capacity (None = unlimited)."""
        return self._capacity

    @property
    def server_nodes(self) -> np.ndarray:
        """Node indices of the servers (copy)."""
        return self._servers.copy()

    @property
    def matrix(self) -> LatencyProvider:
        """The latency provider the manager operates on."""
        return self._matrix

    @property
    def client_nodes(self) -> Optional[np.ndarray]:
        """The restricted client universe, or ``None`` (= every node)."""
        if self._client_nodes is None:
            return None
        return self._client_nodes.copy()

    @property
    def n_clients(self) -> int:
        """Number of currently connected clients."""
        return len(self._assigned)

    @property
    def clients(self) -> Tuple[int, ...]:
        """Currently connected client nodes (sorted)."""
        return tuple(sorted(self._assigned))

    def server_of(self, client_node: int) -> int:
        """Local server index of a connected client."""
        return self._assigned[client_node]

    def is_connected(self, client_node: int) -> bool:
        """Whether ``client_node`` is currently connected."""
        return client_node in self._assigned

    def loads(self) -> np.ndarray:
        """Per-server client counts."""
        return self._engine.loads

    # ------------------------------------------------------------------
    # Server liveness (fail-stop crash / recovery support)
    # ------------------------------------------------------------------
    @property
    def n_active_servers(self) -> int:
        """Number of servers currently up."""
        return int(self._active.sum())

    def is_active(self, server: int) -> bool:
        """Whether local server ``server`` is up."""
        self._check_server_index(server)
        return bool(self._active[server])

    def members_of(self, server: int) -> Tuple[int, ...]:
        """Client nodes currently assigned to a server (sorted)."""
        self._check_server_index(server)
        return tuple(sorted(self._members[server]))

    def _check_server_index(self, server: int) -> None:
        if not 0 <= server < self.n_servers:
            raise InvalidParameterError(
                f"server index {server} out of range [0, {self.n_servers})"
            )

    def deactivate_server(self, server: int) -> Tuple[int, ...]:
        """Mark a server as crashed (fail-stop).

        The server is excluded from every subsequent placement decision
        (joins, evacuations, rebalances) until
        :meth:`reactivate_server`. Its members are **not** moved — call
        :meth:`evacuate` to reassign them. Returns the stranded client
        nodes so the caller can drive the evacuation. Idempotent.
        """
        self._check_server_index(server)
        self._active[server] = False
        self._refresh_usable()
        return tuple(sorted(self._members[server]))

    def reactivate_server(self, server: int) -> None:
        """Mark a previously crashed server as up again. Idempotent.

        The recovered server starts empty; run :meth:`rebalance` to move
        clients back onto it where that shortens interaction paths.
        """
        self._check_server_index(server)
        self._active[server] = True
        self._refresh_usable()

    # ------------------------------------------------------------------
    # Server reachability (network partition support)
    # ------------------------------------------------------------------
    @property
    def n_reachable_servers(self) -> int:
        """Number of servers not currently behind a partition."""
        return int(self._reachable.sum())

    @property
    def n_usable_servers(self) -> int:
        """Number of servers both up and reachable."""
        return self._n_usable

    def is_reachable(self, server: int) -> bool:
        """Whether local server ``server`` is on our side of the network."""
        self._check_server_index(server)
        return bool(self._reachable[server])

    def partition_server(self, server: int) -> Tuple[int, ...]:
        """Mark a server as unreachable (network partition). Idempotent.

        Unlike :meth:`deactivate_server`, the server is presumed still
        *running*: its members stay assigned (serving with a stale
        assignment) but it is excluded from every placement decision —
        joins, moves, evacuations and rebalances — until
        :meth:`heal_server`. Returns the member nodes riding out the
        partition.
        """
        self._check_server_index(server)
        self._reachable[server] = False
        self._refresh_usable()
        return tuple(sorted(self._members[server]))

    def heal_server(self, server: int) -> None:
        """Mark a partitioned server as reachable again. Idempotent."""
        self._check_server_index(server)
        self._reachable[server] = True
        self._refresh_usable()

    def _refresh_usable(self) -> None:
        self._usable_mask = self._active & self._reachable
        self._n_usable = int(self._usable_mask.sum())

    def move(self, client_node: int, server: int) -> None:
        """Reassign a connected client to a specific usable server."""
        if client_node not in self._assigned:
            raise InvalidAssignmentError(f"client {client_node} is not connected")
        self._check_server_index(server)
        if not self._active[server]:
            raise FailoverError(f"cannot move client onto down server {server}")
        if not self._reachable[server]:
            raise FailoverError(
                f"cannot move client onto unreachable server {server}"
            )
        if (
            self._capacity is not None
            and self._assigned[client_node] != server
            and len(self._members[server]) >= self._capacity
        ):
            raise CapacityError(f"server {server} is at capacity")
        old = self._assigned[client_node]
        if old != server:
            self._rebind(client_node, old, server)

    def _rebind(self, client_node: int, old: int, server: int) -> None:
        """Move a connected client between two distinct servers, unchecked."""
        self._members[old].discard(client_node)
        self._members[server].add(client_node)
        self._assigned[client_node] = server
        self._engine.apply(self._engine_index(client_node), server)

    def evacuate(self, server: int) -> List[Tuple[int, int]]:
        """Reassign every client of ``server`` onto the active servers.

        Capacity-aware and greedy: clients are drained farthest-first
        (largest round trip to their dead server first) and each is
        placed by the same ``L(s')`` move-cost rule as a join. The whole
        evacuation is feasibility-checked up front so a failed
        evacuation never leaves the manager half-moved; insufficient
        surviving capacity raises :class:`~repro.errors.FailoverError`.

        Returns the ``(client_node, new_server)`` moves made.
        """
        self._check_server_index(server)
        stranded = self._members[server]
        if not stranded:
            return []
        if self._active[server]:
            raise FailoverError(
                f"server {server} is still active; deactivate it before "
                f"evacuating (or use move() to drain it)"
            )
        usable = self._usable_mask
        if not usable.any():
            raise FailoverError(
                "every server is down or unreachable; nowhere to evacuate to"
            )
        if self._capacity is not None:
            loads = self.loads()
            free = int(
                (self._capacity - loads[usable]).clip(min=0).sum()
            )
            if free < len(stranded):
                raise FailoverError(
                    f"cannot evacuate server {server}: {len(stranded)} "
                    f"client(s) stranded but only {free} free slot(s) on "
                    f"surviving servers"
                )
        # Round trips to the dead server via provider block calls — one
        # (|stranded|, 1) slice per direction, never the dense matrix.
        stranded_arr = np.fromiter(stranded, dtype=np.int64, count=len(stranded))
        node = self._servers[server]
        node_arr = np.array([node], dtype=np.int64)
        to_node = self._matrix.client_server_distances(stranded_arr, node_arr)
        from_node = self._matrix.server_client_distances(node_arr, stranded_arr)
        round_trip = {
            int(c): max(float(to_node[i, 0]), float(from_node[0, i]))
            for i, c in enumerate(stranded_arr)
        }
        order = sorted(stranded, key=lambda c: (-round_trip[c], c))
        moves: List[Tuple[int, int]] = []
        for client in order:
            costs = self.candidate_costs(client)
            best = int(costs.argmin())
            if not math.isfinite(costs.item(best)):
                # Unreachable given the up-front feasibility check, but
                # fail loudly rather than corrupt state.
                raise FailoverError(
                    f"no feasible server for evacuated client {client}"
                )
            # A finite cost already means usable and unsaturated: the
            # down home server is masked, so move()'s checks hold.
            self._rebind(client, server, best)
            moves.append((client, best))
        return moves

    # ------------------------------------------------------------------
    def current_d(self) -> float:
        """The maximum interaction path length of the current state.

        Served from the incremental engine's cache (exact, directional).
        Returns 0.0 with no clients connected.
        """
        return self._engine.d()

    def candidate_costs(self, client_node: int) -> np.ndarray:
        """Masked ``L(s')`` vector for a client (policy seam).

        For an arriving client this is the cost vector a policy ranks
        (:meth:`~repro.algorithms.policies.PlacementView.path_costs`).
        For a connected client the cost of staying put is included
        (own contribution excluded by the engine; own capacity slot
        credited back), so remediation policies can compare "stay"
        against every alternative. Unusable or saturated servers hold
        ``+inf``. Served by the incremental engine in O(|S|) on warm
        caches.
        """
        # candidate_paths returns a fresh vector, so it is masked in place.
        costs = self._engine.candidate_paths(self._engine_index(client_node))
        if self._capacity is not None:
            loads = self._engine.loads
            home = self._assigned.get(client_node)
            if home is not None:
                loads[home] -= 1
            costs[loads >= self._capacity] = np.inf
        if self._n_usable < costs.size:
            costs[~self._usable_mask] = np.inf
        return costs

    def nearest_join_costs(self, client_node: int) -> np.ndarray:
        """Masked outgoing legs for a join (the historical nearest rule)."""
        costs = self._matrix.client_server_distances(
            np.array([client_node], dtype=np.int64), self._servers
        )[0].astype(float)
        if self._capacity is not None:
            costs[self._engine.loads >= self._capacity] = np.inf
        if self._n_usable < costs.size:
            costs[~self._usable_mask] = np.inf
        return costs

    @property
    def policy(self) -> OnlinePolicy:
        """The manager's resolved placement policy instance."""
        return self._policy

    # ------------------------------------------------------------------
    def join(self, client_node: int) -> int:
        """Connect a new client; returns its assigned local server index.

        The placement decision is delegated to the manager's
        :class:`~repro.algorithms.policies.OnlinePolicy`. Raises
        :class:`~repro.errors.InvalidAssignmentError` if already
        connected and :class:`~repro.errors.CapacityError` when every
        server is saturated.
        """
        if client_node in self._assigned:
            raise InvalidAssignmentError(f"client {client_node} already connected")
        if not 0 <= client_node < self._n_nodes:
            raise InvalidAssignmentError(f"client node {client_node} out of range")
        engine_idx = self._engine_index(client_node)
        best = self._policy.choose_server(PlacementView(self, client_node))
        self._assigned[client_node] = best
        self._members[best].add(client_node)
        self._engine.apply(engine_idx, best)
        self._m_joins.inc()
        return best

    def leave(self, client_node: int) -> None:
        """Disconnect a client."""
        try:
            server = self._assigned.pop(client_node)
        except KeyError:
            raise InvalidAssignmentError(
                f"client {client_node} is not connected"
            ) from None
        self._members[server].discard(client_node)
        self._engine.unassign(self._engine_index(client_node))
        self._m_leaves.inc()

    def restore_client(self, client_node: int, server: int) -> None:
        """Install a client→server binding verbatim (recovery path).

        Used by :mod:`repro.resilience.checkpoint` to rebuild a
        manager from a snapshot: the binding was legal when it was
        recorded, so no placement policy runs and liveness /
        reachability / capacity checks are bypassed — a binding onto a
        currently-down server is exactly what a mid-outage checkpoint
        contains.
        """
        if client_node in self._assigned:
            raise InvalidAssignmentError(f"client {client_node} already connected")
        if not 0 <= client_node < self._n_nodes:
            raise InvalidAssignmentError(f"client node {client_node} out of range")
        self._check_server_index(server)
        engine_idx = self._engine_index(client_node)
        self._assigned[client_node] = server
        self._members[server].add(client_node)
        self._engine.apply(engine_idx, server)

    def rebalance(self, *, max_moves: int = 16) -> int:
        """Run bounded Distributed-Greedy repair; returns moves made."""
        if len(self._assigned) < 1 or max_moves < 1:
            return 0
        result = self._run_dga(max_moves)
        registry().counter("online.rebalance_moves").inc(result)
        return result

    def _run_dga(self, max_moves: int) -> int:
        from repro.algorithms.distributed_greedy import distributed_greedy_detailed

        # Repair runs over the *usable* servers only, so a bounded
        # rebalance can never move a client onto a crashed or
        # partitioned server.
        usable = np.flatnonzero(self._usable_mask)
        n_assigned = len(self._assigned)
        all_nodes = np.fromiter(self._assigned, dtype=np.int64, count=n_assigned)
        all_homes = np.fromiter(
            self._assigned.values(), dtype=np.int64, count=n_assigned
        )
        n_stranded = int(np.count_nonzero(~self._active[all_homes]))
        if n_stranded:
            raise FailoverError(
                f"{n_stranded} client(s) still assigned to down "
                f"server(s); evacuate before rebalancing"
            )
        # Clients riding out a partition on an unreachable server keep
        # their stale assignment: they cannot be reached to be moved,
        # so the repair problem covers only clients on usable servers.
        reachable = self._reachable[all_homes]
        order = np.argsort(all_nodes[reachable])
        nodes_arr = all_nodes[reachable][order]
        homes = all_homes[reachable][order]
        if not nodes_arr.size or usable.size == 0:
            return 0
        problem = ClientAssignmentProblem(
            self._matrix,
            self._servers[usable],
            clients=nodes_arr,
            capacities=self._capacity,
        )
        to_sub = np.full(self.n_servers, -1, dtype=np.int64)
        to_sub[usable] = np.arange(usable.size)
        result = distributed_greedy_detailed(
            problem,
            initial=Assignment(problem, to_sub[homes]),
            max_modifications=max_moves,
        )
        # Fold the improved assignment back into the live state. Applied
        # directly (not via move()) because the final assignment honors
        # capacities even where individual steps would transiently not.
        placed = usable[result.assignment.server_of]
        for local_idx in np.flatnonzero(placed != homes).tolist():
            self._rebind(
                int(nodes_arr[local_idx]),
                int(homes[local_idx]),
                int(placed[local_idx]),
            )
        return result.n_modifications

    # ------------------------------------------------------------------
    def snapshot(self) -> Tuple[ClientAssignmentProblem, Assignment, Tuple[int, ...]]:
        """Freeze the current state into problem + assignment objects.

        Returns ``(problem, assignment, client_nodes)`` where
        ``client_nodes[i]`` is the node of local client ``i``.
        """
        if not self._assigned:
            raise InvalidAssignmentError("no clients connected")
        nodes = tuple(sorted(self._assigned))
        problem = ClientAssignmentProblem(
            self._matrix,
            self._servers,
            clients=list(nodes),
            capacities=self._capacity,
        )
        server_of = np.array([self._assigned[n] for n in nodes], dtype=np.int64)
        return problem, Assignment(problem, server_of), nodes

    def verify(self) -> bool:
        """Internal consistency check: the cached D equals a from-scratch
        recompute exactly (the engine's cache is bit-identical)."""
        if not self._assigned:
            return True
        _problem, assignment, _nodes = self.snapshot()
        return max_interaction_path_length(assignment) == self.current_d()


# ----------------------------------------------------------------------
# Churn driver
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChurnTracePoint:
    """State after one churn event."""

    event_index: int
    event: str  # "join" | "leave" | "rebalance"
    n_clients: int
    d: float


@dataclass(frozen=True)
class ChurnResult:
    """Outcome of a churn simulation."""

    trace: Tuple[ChurnTracePoint, ...]
    moves_by_rebalance: int

    def mean_d(self) -> float:
        """Time-average D over the trace (ignoring empty-system points)."""
        values = [p.d for p in self.trace if p.n_clients > 0]
        return float(np.mean(values)) if values else 0.0

    def final_d(self) -> float:
        """D after the last event."""
        return self.trace[-1].d if self.trace else 0.0


def simulate_churn(
    matrix: LatencyProvider,
    servers: IndexArrayLike,
    *,
    n_events: int = 200,
    join_probability: float = 0.55,
    rebalance_every: Optional[int] = None,
    rebalance_moves: int = 8,
    capacity: Optional[int] = None,
    join_policy: str = "greedy",
    backend: str = "auto",
    seed: SeedLike = 0,
) -> ChurnResult:
    """Replay a random join/leave sequence through the online manager.

    Joins pick a uniformly random unconnected node; leaves pick a
    uniformly random connected client. When ``rebalance_every`` is set,
    a bounded Distributed-Greedy repair runs after every that-many
    events. Returns the D-over-time trace. ``join_policy`` selects the
    placement rule for arrivals ("greedy" = minimize resulting D,
    "nearest" = deployed-system default); ``backend`` the manager's
    kernel backend.
    """
    if not 0.0 < join_probability < 1.0:
        raise InvalidParameterError("join_probability must be in (0, 1)")
    rng = ensure_rng(seed)
    manager = OnlineAssignmentManager(
        matrix,
        servers,
        OnlineConfig(
            capacity=capacity, join_policy=join_policy, backend=backend
        ),
    )
    server_set = set(int(s) for s in as_index_array(servers))
    candidates = [u for u in range(matrix.n_nodes) if u not in server_set]
    trace: List[ChurnTracePoint] = []
    total_moves = 0

    for i in range(n_events):
        connected = manager.clients
        do_join = (not connected) or (
            len(connected) < len(candidates) and rng.uniform() < join_probability
        )
        if do_join:
            free = [u for u in candidates if u not in manager._assigned]
            node = int(free[rng.integers(0, len(free))])
            try:
                manager.join(node)
                event = "join"
            except CapacityError:
                if not connected:
                    continue
                manager.leave(int(connected[rng.integers(0, len(connected))]))
                event = "leave"
        else:
            manager.leave(int(connected[rng.integers(0, len(connected))]))
            event = "leave"
        trace.append(
            ChurnTracePoint(i, event, manager.n_clients, manager.current_d())
        )
        if rebalance_every and (i + 1) % rebalance_every == 0 and manager.n_clients:
            moves = manager.rebalance(max_moves=rebalance_moves)
            total_moves += moves
            trace.append(
                ChurnTracePoint(
                    i, "rebalance", manager.n_clients, manager.current_d()
                )
            )
    return ChurnResult(trace=tuple(trace), moves_by_rebalance=total_moves)
