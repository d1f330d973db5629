"""The one event semantics of the online assignment stack.

Every path except the oracle — :class:`~repro.resilience.runtime.
DurableRuntime` (live events and WAL re-execution), the chaos harness
and the scenario harness — maps wire-vocabulary events
(``{"op": "join", "node": 7}``, ``{"op": "partition", "servers": [2]}``,
``{"op": "rebalance", "max_moves": 8}``, ...) onto the (manager,
failover controller, degrade machine) stack through :func:`check_event`,
which validates before anything is logged and returns the canonical
record data the WAL stores, and :func:`apply_event`.
:mod:`repro.service.replay` keeps an independent copy on purpose: it is
the oracle the equivalence suite checks this one against.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.errors import (
    CapacityError,
    InvalidAssignmentError,
    InvalidParameterError,
    UnknownOperationError,
)
from repro.faults.failover import FailoverController
from repro.obs import registry
from repro.resilience.degrade import HEALTHY, DegradeController

#: Session event operations, in the wire vocabulary.
EVENT_OPS = frozenset(
    {"join", "leave", "crash", "recover", "partition", "heal", "rebalance"}
)


def check_event(
    manager: Any,
    controller: FailoverController,
    degrade: DegradeController,
    op: str,
    data: Dict[str, Any],
) -> Dict[str, Any]:
    """Validate one event; return its canonical record data.

    Raises the library error a runtime reports for an event that the
    current state refuses (a duplicate join, crashing a down server,
    a negative move budget, ...). Nothing is mutated.
    """
    if op not in EVENT_OPS:
        raise UnknownOperationError(f"unknown session event op {op!r}")
    if op == "join":
        node = int(data["node"])
        if not 0 <= node < manager.matrix.n_nodes:
            raise InvalidAssignmentError(f"client node {node} out of range")
        if manager.is_connected(node):
            raise InvalidAssignmentError(f"client {node} already connected")
        if degrade.in_backlog(node):
            raise InvalidAssignmentError(f"client {node} already queued")
        return {"node": node}
    if op == "leave":
        return {"node": int(data["node"])}
    if op in ("crash", "recover"):
        server = int(data["server"])
        if op == "crash" and not manager.is_active(server):
            raise InvalidParameterError(f"server {server} is already down")
        if op == "recover" and manager.is_active(server):
            raise InvalidParameterError(f"server {server} is already up")
        return {"server": server}
    if op in ("partition", "heal"):
        subset = sorted(int(s) for s in data["servers"])
        if not subset:
            raise InvalidParameterError(f"{op} needs at least one server")
        for server in subset:
            if op == "partition" and not manager.is_reachable(server):
                raise InvalidParameterError(
                    f"server {server} is already unreachable"
                )
            if op == "heal" and manager.is_reachable(server):
                raise InvalidParameterError(f"server {server} is reachable")
        return {"servers": subset}
    max_moves = int(data.get("max_moves", 16))
    if max_moves < 0:
        raise InvalidParameterError(f"max_moves must be >= 0, got {max_moves}")
    return {"max_moves": max_moves}


def apply_event(
    manager: Any,
    controller: FailoverController,
    degrade: DegradeController,
    op: str,
    data: Dict[str, Any],
    *,
    time: float = 0.0,
) -> Tuple[str, Dict[str, Any]]:
    """Apply one checked event; return ``(outcome, envelope extras)``.

    ``data`` is :func:`check_event` output (or a WAL record's payload,
    which is the same thing). ``time`` stamps crash/recovery records.
    Joins that cannot be admitted queue FIFO up to the degrade
    policy's backlog watermark and are rejected beyond it; a crash
    sheds only the stranded clients no surviving slot can hold.
    """
    extras: Dict[str, Any] = {}
    if op == "join":
        node = data["node"]
        # An admitted join found the machine healthy, and a healthy
        # tick never drains the backlog, so the server is final here.
        server = None
        if degrade.state != HEALTHY:
            outcome = degrade.admission_blocked(node, "degraded")
        else:
            try:
                server = manager.join(node)
                outcome = "assigned"
            except CapacityError:
                outcome = degrade.admission_blocked(node, "capacity-exhausted")
        extras["server"] = server
    elif op == "leave":
        node = data["node"]
        if manager.is_connected(node):
            manager.leave(node)
            outcome = "left"
        elif degrade.discard_queued(node):
            outcome = "dequeued"
        else:
            registry().counter("resilience.absent_leaves").inc()
            outcome = "absent"
    elif op == "crash":
        server = data["server"]
        crash = controller.on_crash(server, time=time)
        outcome = "crashed"
        extras.update(
            server=server,
            evacuated=crash.n_evacuated,
            shed=[int(c) for c in crash.shed],
        )
    elif op == "recover":
        server = data["server"]
        recovery = controller.on_recover(server, time=time)
        outcome = "recovered"
        extras.update(server=server, rebalance_moves=recovery.rebalance_moves)
    elif op == "partition":
        stale: List[int] = []
        for server in data["servers"]:
            stale.extend(manager.partition_server(server))
        registry().counter("resilience.partitions").inc()
        outcome = "partitioned"
        extras.update(servers=data["servers"], stale=sorted(int(c) for c in stale))
    elif op == "heal":
        for server in data["servers"]:
            manager.heal_server(server)
        registry().counter("resilience.heals").inc()
        outcome = "healed"
        extras["servers"] = data["servers"]
    elif op == "rebalance":
        outcome = "rebalanced"
        extras["moves"] = manager.rebalance(max_moves=data["max_moves"])
    else:
        raise UnknownOperationError(f"unknown session event op {op!r}")
    degrade.tick()
    return outcome, extras


__all__ = ["EVENT_OPS", "apply_event", "check_event"]
