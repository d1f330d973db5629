"""The library-path replayer for the output-equivalence contract.

:func:`replay_events` drives an event sequence straight through
:class:`~repro.algorithms.online.OnlineAssignmentManager` +
:class:`~repro.faults.failover.FailoverController` +
:class:`~repro.resilience.degrade.DegradeController` — no
:class:`~repro.service.core.AssignmentService`, no
:class:`~repro.resilience.runtime.DurableRuntime`, no wire protocol —
and emits the exact per-event envelopes and final state digest the
service is required to produce for the same events.

This duplication is the point: the replayer is an *independent*
implementation of the event semantics, so the equivalence suite
(``tests/service/test_equivalence.py``) comparing it byte-for-byte
against the service catches a divergence introduced on either side.
The envelopes carry the same canonical keys as
:meth:`repro.service.core.Session._event_envelope` (``op``,
``outcome``, ``d`` hex-encoded, ``clients``, ``health``, ``seq``), and
the digest is computed over a state dict laid out exactly like
:meth:`repro.resilience.runtime.DurableRuntime.state_dict`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Tuple

from repro.errors import (
    BadRequestError,
    CapacityError,
    InvalidAssignmentError,
    InvalidParameterError,
    ReproError,
    UnknownOperationError,
    error_code,
)
from repro.faults.failover import FailoverController
from repro.net.latency import LatencyMatrix
from repro.obs import fingerprint_matrix
from repro.resilience.checkpoint import encode_float, state_digest
from repro.resilience.degrade import HEALTHY, DegradeController
from repro.resilience.runtime import STATE_SCHEMA
from repro.service.core import EVENT_OPS, SessionConfig


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of one library-path replay.

    ``trajectory`` holds one reply envelope per event (inline
    ``error`` entries for events the runtime would reject, matching
    the service's ``batch`` tolerance); ``digest`` is the final state
    digest; ``outcomes`` counts envelopes per outcome string.
    """

    trajectory: Tuple[Dict[str, Any], ...]
    digest: str
    outcomes: Dict[str, int] = field(default_factory=dict)


def trajectory_digest(trajectory: Iterable[Dict[str, Any]]) -> str:
    """SHA-256 over the canonical JSON of a trajectory.

    Canonicalization matches the wire encoder (sorted keys, compact
    separators), so two trajectories digest equal iff their wire bytes
    would be identical.
    """
    blob = json.dumps(
        list(trajectory), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


class _Replayer:
    """Manager + failover + degrade, evented by hand."""

    def __init__(self, matrix: LatencyMatrix, config: SessionConfig) -> None:
        from repro.algorithms.online import OnlineAssignmentManager

        self.matrix = matrix
        self.config = config
        self.servers = config.resolve_servers(matrix)
        self.manager = OnlineAssignmentManager(
            matrix, self.servers, config.online
        )
        self.controller = FailoverController(
            self.manager,
            readmit_moves=config.readmit_moves,
            shed_policy=config.shed_policy,
        )
        self.degrade = DegradeController(self.manager, config.degrade_policy())
        # Seq 1 is the runtime's "open" genesis record; events follow.
        self.seq = 1

    # -- event semantics (mirrors repro.resilience.events) -------------
    def apply(self, event: Dict[str, Any]) -> Dict[str, Any]:
        op = event.get("op")
        if op not in EVENT_OPS:
            raise UnknownOperationError(f"unknown session event op {op!r}")
        handler = getattr(self, f"_apply_{op}")
        self.seq += 1
        try:
            return handler(event)
        except ReproError:
            self.seq -= 1
            raise

    def _envelope(self, op: str, outcome: str, **extra: Any) -> Dict[str, Any]:
        self.degrade.tick()
        result = {
            "op": op,
            "outcome": outcome,
            "d": encode_float(self.manager.current_d()),
            "clients": self.manager.n_clients,
            "health": self.degrade.state,
            "seq": self.seq,
        }
        result.update(extra)
        return result

    def _apply_join(self, event: Dict[str, Any]) -> Dict[str, Any]:
        node = _int_field(event, "node")
        if not 0 <= node < self.matrix.n_nodes:
            raise InvalidAssignmentError(f"client node {node} out of range")
        if self.manager.is_connected(node):
            raise InvalidAssignmentError(f"client {node} already connected")
        if self.degrade.in_backlog(node):
            raise InvalidAssignmentError(f"client {node} already queued")
        if self.degrade.state != HEALTHY:
            outcome = self.degrade.admission_blocked(node, "degraded")
        else:
            try:
                self.manager.join(node)
                outcome = "assigned"
            except CapacityError:
                outcome = self.degrade.admission_blocked(
                    node, "capacity-exhausted"
                )
        server = (
            self.manager.server_of(node) if outcome == "assigned" else None
        )
        return self._envelope("join", outcome, server=server)

    def _apply_leave(self, event: Dict[str, Any]) -> Dict[str, Any]:
        node = _int_field(event, "node")
        if self.manager.is_connected(node):
            self.manager.leave(node)
            outcome = "left"
        elif self.degrade.discard_queued(node):
            outcome = "dequeued"
        else:
            outcome = "absent"
        return self._envelope("leave", outcome)

    def _apply_crash(self, event: Dict[str, Any]) -> Dict[str, Any]:
        server = _int_field(event, "server")
        if not self.manager.is_active(server):
            raise InvalidParameterError(f"server {server} is already down")
        record = self.controller.on_crash(server, time=float(self.seq))
        return self._envelope(
            "crash",
            "crashed",
            server=server,
            evacuated=record.n_evacuated,
            shed=[int(c) for c in record.shed],
        )

    def _apply_recover(self, event: Dict[str, Any]) -> Dict[str, Any]:
        server = _int_field(event, "server")
        if self.manager.is_active(server):
            raise InvalidParameterError(f"server {server} is already up")
        record = self.controller.on_recover(server, time=float(self.seq))
        return self._envelope(
            "recover",
            "recovered",
            server=server,
            rebalance_moves=record.rebalance_moves,
        )

    def _apply_partition(self, event: Dict[str, Any]) -> Dict[str, Any]:
        servers = _int_list_field(event, "servers")
        for server in servers:
            if not self.manager.is_reachable(server):
                raise InvalidParameterError(
                    f"server {server} is already unreachable"
                )
        stale: List[int] = []
        for server in servers:
            stale.extend(self.manager.partition_server(server))
        return self._envelope(
            "partition",
            "partitioned",
            servers=servers,
            stale=[int(c) for c in sorted(stale)],
        )

    def _apply_heal(self, event: Dict[str, Any]) -> Dict[str, Any]:
        servers = _int_list_field(event, "servers")
        for server in servers:
            if self.manager.is_reachable(server):
                raise InvalidParameterError(f"server {server} is reachable")
        for server in servers:
            self.manager.heal_server(server)
        return self._envelope("heal", "healed", servers=servers)

    def _apply_rebalance(self, event: Dict[str, Any]) -> Dict[str, Any]:
        max_moves = event.get("max_moves", 16)
        if not _is_int(max_moves):
            raise BadRequestError("'max_moves' must be an integer")
        if max_moves < 0:
            raise InvalidParameterError(
                f"max_moves must be >= 0, got {max_moves}"
            )
        moves = self.manager.rebalance(max_moves=max_moves)
        return self._envelope("rebalance", "rebalanced", moves=moves)

    # -- state capture (mirrors DurableRuntime.state_dict) --------------
    def state_dict(self) -> Dict[str, Any]:
        manager = self.manager
        policy = self.degrade.policy
        return {
            "schema": STATE_SCHEMA,
            "config": {
                "servers": [int(s) for s in self.servers],
                "capacity": self.config.online.capacity,
                "join_policy": self.config.online.join_policy,
                "top_k": int(self.config.online.top_k),
                "readmit_moves": int(self.config.readmit_moves),
                "shed_policy": self.config.shed_policy,
                "max_backlog": policy.max_backlog,
                "d_budget": (
                    None
                    if policy.d_budget is None
                    else encode_float(policy.d_budget)
                ),
                "matrix_fingerprint": fingerprint_matrix(self.matrix),
            },
            "applied_seq": self.seq,
            "manager": {
                "assigned": [
                    [int(node), int(manager.server_of(node))]
                    for node in manager.clients
                ],
                "inactive": [
                    s
                    for s in range(manager.n_servers)
                    if not manager.is_active(s)
                ],
                "unreachable": [
                    s
                    for s in range(manager.n_servers)
                    if not manager.is_reachable(s)
                ],
                "d": encode_float(manager.current_d()),
            },
            "failover": {
                "crashes": [r.to_dict() for r in self.controller.crash_records],
                "recoveries": [
                    r.to_dict() for r in self.controller.recovery_records
                ],
            },
            "degrade": self.degrade.to_dict(),
        }


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_field(event: Dict[str, Any], key: str) -> int:
    """The service's wire check for an integer event field."""
    value = event.get(key)
    if not _is_int(value):
        raise BadRequestError(f"'{key}' must be an integer")
    return value


def _int_list_field(event: Dict[str, Any], key: str) -> List[int]:
    """The service's wire check for a server-list field, sorted."""
    value = event.get(key)
    if not isinstance(value, list) or not value or not all(
        _is_int(v) for v in value
    ):
        raise BadRequestError(f"'{key}' must be a non-empty list of integers")
    return sorted(value)


def replay_events(
    matrix: LatencyMatrix,
    config: SessionConfig,
    events: Iterable[Dict[str, Any]],
) -> ReplayResult:
    """Replay ``events`` through the raw library stack.

    Events the runtime would reject (e.g. crashing an already-down
    server) become inline ``{"op": ..., "error": {...}}`` entries and
    the replay continues — the same tolerance as the service's
    ``batch`` op, so both paths stay comparable even on adversarial
    sequences.
    """
    replayer = _Replayer(matrix, config)
    trajectory: List[Dict[str, Any]] = []
    outcomes: Dict[str, int] = {}
    for event in events:
        try:
            envelope = replayer.apply(dict(event))
        except ReproError as exc:
            trajectory.append(
                {
                    "op": event.get("op"),
                    "error": {
                        "code": error_code(exc),
                        "message": str(exc),
                    },
                }
            )
            continue
        outcome = envelope["outcome"]
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        trajectory.append(envelope)
    return ReplayResult(
        trajectory=tuple(trajectory),
        digest=state_digest(replayer.state_dict()),
        outcomes=outcomes,
    )


__all__ = ["ReplayResult", "replay_events", "trajectory_digest"]
