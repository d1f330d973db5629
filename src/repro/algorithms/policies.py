"""Pluggable online placement policies (the ``OnlinePolicy`` seam).

The online manager's join decision used to be a two-way branch on
``join_policy in ("greedy", "nearest")``. This module turns that branch
into a small protocol so new placement rules — in particular the
remediation strategies of the online facility assignment literature
(threshold-based reassignment, capacity-aware spread) — plug into
:class:`~repro.algorithms.online.OnlineAssignmentManager` without
touching the manager.

A policy sees one arriving client through a :class:`PlacementView`: a
lazy bundle of per-server cost vectors (nearest legs and full candidate
path lengths ``L(s')``), current loads and the capacity. Both cost
vectors arrive already masked — saturated, crashed and partitioned
servers hold ``+inf`` — so a policy only ranks finite entries. The
historical rules (``greedy``, ``nearest``) are re-expressed here with
the **exact same float operations in the same order** as the former
inline code, which is what keeps the refactor byte-identical
(test-enforced against pre-refactor decision traces in
``tests/algorithms/test_policy_seam.py``).

Policies may also implement :meth:`OnlinePolicy.maintain` — a bounded
background remediation pass the scenario harness invokes between
events (see ``docs/scenarios.md`` for the authoring guide).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Union

import numpy as np

from repro.errors import (
    CapacityError,
    FailoverError,
    InvalidParameterError,
)


class PlacementView:
    """What a policy sees when placing one arriving client.

    Bound to the manager placing the client — an
    :class:`~repro.algorithms.online.OnlineAssignmentManager`, which
    provides ``n_servers``, ``capacity``, ``loads()``,
    ``nearest_join_costs(node)`` and ``candidate_costs(node)``. Cost
    vectors are built lazily (a nearest-style policy never pays for the
    ``L(s')`` reduction) and cached (a policy may consult both without
    recomputation). Both are masked: unusable or saturated servers hold
    ``+inf``.
    """

    __slots__ = ("client_node", "_manager", "_nearest", "_paths", "_loads")

    def __init__(self, manager: Any, client_node: int) -> None:
        self._manager = manager
        self.client_node = client_node
        self._nearest: Optional[np.ndarray] = None
        self._paths: Optional[np.ndarray] = None
        self._loads: Optional[np.ndarray] = None

    @property
    def n_servers(self) -> int:
        """Number of servers."""
        return self._manager.n_servers

    @property
    def capacity(self) -> Optional[int]:
        """Uniform per-server capacity (``None`` = unlimited)."""
        return self._manager.capacity

    def nearest_costs(self) -> np.ndarray:
        """Masked outgoing legs ``d(c, s')`` per server."""
        if self._nearest is None:
            self._nearest = self._manager.nearest_join_costs(self.client_node)
        return self._nearest

    def path_costs(self) -> np.ndarray:
        """Masked candidate path lengths ``L(s')`` per server."""
        if self._paths is None:
            self._paths = self._manager.candidate_costs(self.client_node)
        return self._paths

    def loads(self) -> np.ndarray:
        """Current per-server client counts."""
        if self._loads is None:
            self._loads = self._manager.loads()
        return self._loads


def best_finite(costs: np.ndarray) -> int:
    """Index of the minimum cost; raises when no server is feasible.

    This is verbatim the manager's historical selection rule, including
    the exact :class:`~repro.errors.CapacityError` message.
    """
    best = int(costs.argmin())
    if not math.isfinite(costs.item(best)):
        raise CapacityError("all active servers are at capacity")
    return best


class OnlinePolicy:
    """Base class for online placement policies.

    Subclasses override :meth:`choose_server` (mandatory) and may
    override :meth:`maintain` (bounded background remediation; the
    default does nothing). A policy instance belongs to one manager —
    it may keep state (e.g. a scan cursor) across calls.
    """

    #: Registry name; set by subclasses.
    name: str = "?"

    def choose_server(self, view: PlacementView) -> int:
        """Pick the server for the arriving client in ``view``.

        Must return an index with a finite cost, or raise
        :class:`~repro.errors.CapacityError` when none exists
        (:func:`best_finite` implements both).
        """
        raise NotImplementedError

    def maintain(self, manager: object, *, max_moves: int = 1) -> int:
        """Optional remediation pass between events; returns moves made.

        ``manager`` is an online manager exposing ``clients``,
        ``server_of``, ``candidate_costs`` and ``move``. The default is
        a no-op so pure placement policies cost nothing.
        """
        return 0

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class GreedyPolicy(OnlinePolicy):
    """Minimize the resulting D (the paper's §VI move-cost rule)."""

    name = "greedy"

    def choose_server(self, view: PlacementView) -> int:
        return best_finite(view.path_costs())


class NearestPolicy(OnlinePolicy):
    """Attach to the closest feasible server (deployed-system default)."""

    name = "nearest"

    def choose_server(self, view: PlacementView) -> int:
        return best_finite(view.nearest_costs())


class ThresholdPolicy(OnlinePolicy):
    """Nearest placement with threshold-triggered greedy remediation.

    The threshold rule of the online facility assignment literature:
    place each arrival on its nearest feasible server *unless* that
    choice would inflate the resulting path length more than ``tau``
    times past the best achievable — then fall back to the greedy
    (D-minimizing) choice. :meth:`maintain` applies the same test to
    already-connected clients in a bounded round-robin scan, migrating
    clients whose current path cost has drifted past ``tau`` times
    their best alternative (e.g. after a flash crowd or a partition).
    """

    name = "threshold"

    def __init__(self, tau: float = 1.5, scan: int = 8) -> None:
        if tau < 1.0:
            raise InvalidParameterError(f"tau must be >= 1.0, got {tau}")
        if scan < 1:
            raise InvalidParameterError(f"scan must be >= 1, got {scan}")
        self.tau = float(tau)
        self.scan = int(scan)
        self._cursor = 0

    def choose_server(self, view: PlacementView) -> int:
        nearest = view.nearest_costs()
        s_near = int(nearest.argmin())
        paths = view.path_costs()
        s_best = best_finite(paths)
        if not math.isfinite(nearest.item(s_near)):
            return s_best
        if paths.item(s_near) > self.tau * paths.item(s_best):
            return s_best
        return s_near

    def maintain(self, manager: object, *, max_moves: int = 1) -> int:
        clients = manager.clients
        n = len(clients)
        if n == 0 or max_moves < 1:
            return 0
        moves = 0
        scan = min(self.scan, n)
        for k in range(scan):
            node = clients[(self._cursor + k) % n]
            costs = manager.candidate_costs(node)
            best = int(np.argmin(costs))
            if not np.isfinite(costs[best]):
                continue
            current = manager.server_of(node)
            if best == current:
                continue
            if costs[current] > self.tau * costs[best]:
                try:
                    manager.move(node, best)
                except (CapacityError, FailoverError):
                    continue
                moves += 1
                if moves >= max_moves:
                    break
        self._cursor = (self._cursor + scan) % n
        return moves

    def __repr__(self) -> str:
        return f"ThresholdPolicy(tau={self.tau}, scan={self.scan})"


class SpreadPolicy(OnlinePolicy):
    """Capacity-aware spread: least-loaded among the near-best servers.

    Among the servers whose candidate path length is within
    ``(1 + slack)`` of the best, pick the least loaded (ties broken by
    smaller cost, then smaller index). Trades a bounded amount of path
    length for load headroom, so capacity-exhaustion adversaries cannot
    saturate the single greedy-optimal server and force rejections.
    """

    name = "spread"

    def __init__(self, slack: float = 0.1) -> None:
        if slack < 0.0:
            raise InvalidParameterError(f"slack must be >= 0, got {slack}")
        self.slack = float(slack)

    def choose_server(self, view: PlacementView) -> int:
        paths = view.path_costs()
        best = best_finite(paths)
        limit = paths[best] * (1.0 + self.slack)
        eligible = np.flatnonzero(np.isfinite(paths) & (paths <= limit))
        loads = view.loads()
        # lexsort keys are least-significant first: index, cost, load.
        order = np.lexsort(
            (eligible, paths[eligible], loads[eligible])
        )
        return int(eligible[order[0]])

    def __repr__(self) -> str:
        return f"SpreadPolicy(slack={self.slack})"


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
PolicyFactory = Callable[[], OnlinePolicy]

_POLICIES: Dict[str, PolicyFactory] = {}


def register_policy(name: str, factory: PolicyFactory) -> None:
    """Register a policy factory under ``name`` (overwrites allowed)."""
    _POLICIES[name] = factory


def policy_names() -> List[str]:
    """Registered policy names, sorted."""
    return sorted(_POLICIES)


def validate_policy_name(name: str) -> None:
    """Raise :class:`~repro.errors.InvalidParameterError` for unknown names."""
    if name not in _POLICIES:
        raise InvalidParameterError(
            f"join_policy must be one of {policy_names()}, got {name!r}"
        )


def resolve_policy(spec: Union[str, OnlinePolicy]) -> OnlinePolicy:
    """A fresh policy instance for a name, or a policy object verbatim.

    Each manager gets its own instance so stateful policies (scan
    cursors) never share state across managers.
    """
    if isinstance(spec, OnlinePolicy):
        return spec
    validate_policy_name(spec)
    return _POLICIES[spec]()


register_policy("greedy", GreedyPolicy)
register_policy("nearest", NearestPolicy)
register_policy("threshold", ThresholdPolicy)
register_policy("spread", SpreadPolicy)
