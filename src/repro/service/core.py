"""The transport-agnostic assignment service core.

:class:`AssignmentService` multiplexes named **sessions**, each an
independent online-assignment world: a latency matrix (synthesized from
a seeded spec and shared across sessions), a server placement, and a
:class:`~repro.resilience.runtime.DurableRuntime` (volatile or
WAL-backed per the session's
:class:`~repro.resilience.runtime.DurabilityConfig`) carrying the
online manager, failover controller and degraded-mode state machine.

The single entry point is :meth:`AssignmentService.handle`: a plain
dict request in, a plain dict reply out — the asyncio server
(:mod:`repro.service.server`) adds nothing but framing, so driving
``handle`` in-process and driving the TCP socket are **output
equivalent** by construction. All library exceptions surface as
structured error replies carrying the stable codes of
:mod:`repro.errors`.

Determinism contract: every reply is a pure function of the session's
event history (no wall clocks, no RNG inside the service), so a seeded
event sequence produces byte-identical reply streams across runs,
transports, and durability modes. Durability contract: a request's
reply is built after its session commits, so in a WAL session every
event a reply acknowledges is fsynced — one WAL fsync per request,
whether it carries one event or a whole ``batch``.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from repro.algorithms.online import OnlineConfig
from repro.core import interaction_lower_bound
from repro.errors import (
    BadRequestError,
    InvalidParameterError,
    ReproError,
    SessionStateError,
    UnknownOperationError,
    UnknownSessionError,
)
from repro.net.latency import LatencyMatrix
from repro.obs import fingerprint_matrix, registry
from repro.resilience.checkpoint import encode_float
from repro.resilience.degrade import DegradePolicy
from repro.resilience.events import EVENT_OPS
from repro.resilience.runtime import DurabilityConfig, DurableRuntime
from repro.service.protocol import OPS, error_reply, ok_reply, parse_request
from repro._version import __version__

#: Supported ``query`` targets.
QUERY_WHATS = frozenset(
    {"d", "health", "digest", "stats", "backlog", "interactivity", "config"}
)

_PLACEMENTS = ("k-center-b", "k-center-a", "random")


@dataclass(frozen=True)
class SessionConfig:
    """Everything needed to (re)build one session deterministically.

    The matrix is specified, not shipped: the service synthesizes it
    from ``(kind, nodes, matrix_seed)`` and caches it across sessions,
    so a remote client and an in-process replayer that agree on the
    spec operate on bit-identical latencies.

    Parameters
    ----------
    nodes, kind, matrix_seed:
        Synthetic latency matrix spec (``"meridian"`` or ``"mit"``).
    n_servers, placement, placement_seed:
        Server placement over the matrix (ignored when ``servers``
        lists explicit node indices).
    servers:
        Explicit server node indices; overrides the placement spec.
    online:
        Capacity and join policy
        (:class:`~repro.algorithms.online.OnlineConfig`).
    durability:
        Volatile (``mode="off"``) or WAL-backed (``mode="wal"``)
        runtime (:class:`~repro.resilience.runtime.DurabilityConfig`).
    max_backlog, d_budget:
        Degraded-mode policy
        (:class:`~repro.resilience.degrade.DegradePolicy`).
    readmit_moves, shed_policy:
        Failover behavior (see
        :class:`~repro.faults.failover.FailoverController`).
    """

    nodes: int = 120
    kind: str = "meridian"
    matrix_seed: int = 0
    n_servers: int = 8
    placement: str = "k-center-b"
    placement_seed: int = 0
    servers: Optional[Tuple[int, ...]] = None
    online: OnlineConfig = field(default_factory=OnlineConfig)
    durability: DurabilityConfig = field(
        default_factory=lambda: DurabilityConfig(mode="off")
    )
    max_backlog: int = 64
    d_budget: Optional[float] = None
    readmit_moves: int = 8
    shed_policy: str = "shed"

    def __post_init__(self) -> None:
        if self.nodes < 2:
            raise InvalidParameterError(f"nodes must be >= 2, got {self.nodes}")
        if self.kind not in ("meridian", "mit"):
            raise InvalidParameterError(
                f"kind must be 'meridian' or 'mit', got {self.kind!r}"
            )
        if self.servers is None and self.n_servers < 1:
            raise InvalidParameterError(
                f"n_servers must be >= 1, got {self.n_servers}"
            )
        if self.placement not in _PLACEMENTS:
            raise InvalidParameterError(
                f"placement must be one of {_PLACEMENTS}, "
                f"got {self.placement!r}"
            )

    # -- serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable view (the wire shape of ``open_session``)."""
        return {
            "nodes": int(self.nodes),
            "kind": self.kind,
            "matrix_seed": int(self.matrix_seed),
            "n_servers": int(self.n_servers),
            "placement": self.placement,
            "placement_seed": int(self.placement_seed),
            "servers": (
                None if self.servers is None else [int(s) for s in self.servers]
            ),
            "capacity": self.online.capacity,
            "join_policy": self.online.join_policy,
            "durability": self.durability.mode,
            "checkpoint_every": self.durability.checkpoint_every,
            "max_backlog": int(self.max_backlog),
            "d_budget": self.d_budget,
            "readmit_moves": int(self.readmit_moves),
            "shed_policy": self.shed_policy,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SessionConfig":
        """Rebuild a config from wire parameters (unknown keys rejected)."""
        known = {
            "nodes", "kind", "matrix_seed", "n_servers", "placement",
            "placement_seed", "servers", "capacity", "join_policy",
            "durability", "checkpoint_every", "max_backlog",
            "d_budget", "readmit_moves", "shed_policy",
        }
        unknown = sorted(set(data) - known)
        if unknown:
            raise BadRequestError(f"unknown session parameters: {unknown}")
        servers = data.get("servers")
        capacity = data.get("capacity")
        d_budget = data.get("d_budget")
        checkpoint_every = data.get("checkpoint_every", 25)
        try:
            return cls(
                nodes=int(data.get("nodes", 120)),
                kind=str(data.get("kind", "meridian")),
                matrix_seed=int(data.get("matrix_seed", 0)),
                n_servers=int(data.get("n_servers", 8)),
                placement=str(data.get("placement", "k-center-b")),
                placement_seed=int(data.get("placement_seed", 0)),
                servers=(
                    None
                    if servers is None
                    else tuple(int(s) for s in servers)
                ),
                online=OnlineConfig(
                    capacity=None if capacity is None else int(capacity),
                    join_policy=str(data.get("join_policy", "greedy")),
                ),
                durability=DurabilityConfig(
                    mode=str(data.get("durability", "off")),
                    checkpoint_every=(
                        None
                        if checkpoint_every is None
                        else int(checkpoint_every)
                    ),
                ),
                max_backlog=int(data.get("max_backlog", 64)),
                d_budget=None if d_budget is None else float(d_budget),
                readmit_moves=int(data.get("readmit_moves", 8)),
                shed_policy=str(data.get("shed_policy", "shed")),
            )
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ReproError):
                raise
            raise BadRequestError(f"invalid session parameters: {exc}") from None

    # -- resolution ----------------------------------------------------
    def build_matrix(self) -> LatencyMatrix:
        """Synthesize the session's latency matrix from its spec."""
        from repro.datasets import synthesize_meridian_like, synthesize_mit_like

        if self.kind == "mit":
            return synthesize_mit_like(self.nodes, seed=self.matrix_seed)
        return synthesize_meridian_like(self.nodes, seed=self.matrix_seed)

    def resolve_servers(self, matrix: LatencyMatrix) -> Tuple[int, ...]:
        """The session's server node indices (explicit or placed)."""
        if self.servers is not None:
            return tuple(int(s) for s in self.servers)
        from repro.placement import kcenter_a, kcenter_b, random_placement

        place = {
            "k-center-b": kcenter_b,
            "k-center-a": kcenter_a,
            "random": random_placement,
        }[self.placement]
        placed = place(matrix, self.n_servers, seed=self.placement_seed)
        return tuple(int(s) for s in placed)

    def degrade_policy(self) -> DegradePolicy:
        """The session's degraded-mode policy object."""
        return DegradePolicy(max_backlog=self.max_backlog, d_budget=self.d_budget)


@dataclass(frozen=True)
class SessionInfo:
    """Summary row for ``list_sessions``."""

    session: str
    n_clients: int
    n_servers: int
    health: str
    events: int
    durability: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "session": self.session,
            "n_clients": self.n_clients,
            "n_servers": self.n_servers,
            "health": self.health,
            "events": self.events,
            "durability": self.durability,
        }


class Session:
    """One live assignment world inside the service."""

    def __init__(
        self,
        session_id: str,
        config: SessionConfig,
        matrix: LatencyMatrix,
        runtime: DurableRuntime,
    ) -> None:
        self.id = session_id
        self.config = config
        self.matrix = matrix
        self.runtime = runtime
        self.events = 0
        self.closed = False
        # Every event envelope reads the manager and the degrade
        # machine; bind them once instead of hopping through the
        # runtime's properties per event.
        self._manager = runtime.manager
        self._degrade = runtime.degrade

    # ------------------------------------------------------------------
    def info(self) -> SessionInfo:
        return SessionInfo(
            session=self.id,
            n_clients=self.runtime.n_clients,
            n_servers=self.runtime.manager.n_servers,
            health=self.runtime.health,
            events=self.events,
            durability=self.config.durability.mode,
        )

    def _event_envelope(
        self, op: str, outcome: str, extras: Dict[str, Any]
    ) -> Dict[str, Any]:
        """The canonical per-event reply: ``extras`` (the applier's
        fresh dict, filled in place) plus the state keys.

        ``d`` is the hex-encoded current D (byte-stable across paths);
        the same five keys — op, outcome, d, clients, health — form
        the trajectory entries of the output-equivalence contract.
        """
        self.events += 1
        manager = self._manager
        extras["op"] = op
        extras["outcome"] = outcome
        extras["d"] = encode_float(manager.current_d())
        extras["clients"] = manager.n_clients
        extras["health"] = self._degrade.state
        extras["seq"] = self.runtime.applied_seq
        return extras

    def apply_event(self, op: str, params: Dict[str, Any]) -> Dict[str, Any]:
        """Apply one session event and build its reply envelope."""
        spec = _EVENT_FIELDS.get(op)
        if spec is None:
            raise UnknownOperationError(f"unknown session event op {op!r}")
        key, require = spec
        outcome, extras = self.runtime.apply(op, {key: require(params, key)})
        return self._event_envelope(op, outcome, extras)

    def query(self, what: str) -> Dict[str, Any]:
        """Read-only session introspection."""
        runtime = self.runtime
        manager = runtime.manager
        if what == "d":
            return {
                "d": encode_float(runtime.current_d()),
                "d_ms": runtime.current_d(),
            }
        if what == "health":
            degrade = runtime.degrade
            return {
                "health": runtime.health,
                "backlog": len(degrade.backlog),
                "violation": degrade.violation(),
            }
        if what == "digest":
            return {"digest": runtime.digest(), "seq": runtime.applied_seq}
        if what == "backlog":
            return {"backlog": [int(n) for n in runtime.degrade.backlog]}
        if what == "config":
            return {"config": self.config.to_dict()}
        if what == "stats":
            degrade = runtime.degrade
            return {
                "session": self.id,
                "events": self.events,
                "seq": runtime.applied_seq,
                "n_clients": manager.n_clients,
                "n_servers": manager.n_servers,
                "n_active": manager.n_active_servers,
                "n_reachable": manager.n_reachable_servers,
                "n_usable": manager.n_usable_servers,
                "loads": [int(x) for x in manager.loads()],
                "health": runtime.health,
                "backlog": len(degrade.backlog),
                "queued": degrade.n_queued,
                "rejected": degrade.n_rejected,
                "drained": degrade.n_drained,
                "durability": self.config.durability.mode,
                "d": encode_float(runtime.current_d()),
            }
        if what == "interactivity":
            d = runtime.current_d()
            if manager.n_clients == 0:
                return {"d_ms": d, "lower_bound_ms": None, "normalized": None}
            problem, _assignment, _nodes = manager.snapshot()
            lb = interaction_lower_bound(problem.uncapacitated())
            return {
                "d_ms": d,
                "lower_bound_ms": lb,
                "normalized": (d / lb) if lb > 0 else None,
            }
        raise BadRequestError(
            f"unknown query {what!r}; expected one of {sorted(QUERY_WHATS)}"
        )

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.runtime.close()


def _require_int(
    params: Dict[str, Any], key: str, default: Optional[int] = None
) -> int:
    value = params.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise BadRequestError(f"'{key}' must be an integer")
    return value


def _require_int_list(params: Dict[str, Any], key: str) -> List[int]:
    value = params.get(key)
    if not isinstance(value, list) or not value or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in value
    ):
        raise BadRequestError(f"'{key}' must be a non-empty list of integers")
    return [int(v) for v in value]


#: Wire-input field and validator of each session event op.
_EVENT_FIELDS = {
    "join": ("node", _require_int),
    "leave": ("node", _require_int),
    "crash": ("server", _require_int),
    "recover": ("server", _require_int),
    "partition": ("servers", _require_int_list),
    "heal": ("servers", _require_int_list),
    "rebalance": ("max_moves", partial(_require_int, default=16)),
}


class AssignmentService:
    """Transport-agnostic session multiplexer over the assignment stack.

    Parameters
    ----------
    base_dir:
        Home for WAL-backed session directories
        (``<base_dir>/<session-id>/``). When omitted, a temporary
        directory is created on first durable session and removed by
        :meth:`close`.
    default_config:
        Template applied when ``open_session`` omits parameters
        (wire parameters override field by field).

    Notes
    -----
    The service is synchronous and single-threaded by design: the
    asyncio server calls :meth:`handle` inline on its event loop, so
    requests are applied in arrival order and every session's history
    is a total order — the property the output-equivalence suite
    relies on. Matrices are cached by spec across sessions.
    """

    def __init__(
        self,
        *,
        base_dir: Optional[str] = None,
        default_config: Optional[SessionConfig] = None,
    ) -> None:
        self._base_dir = None if base_dir is None else os.fspath(base_dir)
        self._owns_base_dir = False
        self._default_config = default_config or SessionConfig()
        self._sessions: Dict[str, Session] = {}
        self._next_session = 1
        self._matrices: Dict[Tuple[str, int, int], LatencyMatrix] = {}
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def sessions(self) -> Tuple[str, ...]:
        """Live session ids, in open order."""
        return tuple(self._sessions)

    def matrix_for(self, config: SessionConfig) -> LatencyMatrix:
        """The (cached) latency matrix for a session spec."""
        key = (config.kind, int(config.nodes), int(config.matrix_seed))
        matrix = self._matrices.get(key)
        if matrix is None:
            matrix = config.build_matrix()
            self._matrices[key] = matrix
        return matrix

    def _session_dir(self, session_id: str) -> str:
        if self._base_dir is None:
            self._base_dir = tempfile.mkdtemp(prefix="repro-service-")
            self._owns_base_dir = True
        return os.path.join(self._base_dir, session_id)

    # ------------------------------------------------------------------
    def open_session(
        self,
        config: Optional[SessionConfig] = None,
        *,
        name: Optional[str] = None,
    ) -> Session:
        """Create a session; returns the live :class:`Session`."""
        self._require_open()
        config = config or self._default_config
        if name is not None:
            if not isinstance(name, str) or not name or "/" in name:
                raise BadRequestError(
                    "session name must be a non-empty string without '/'"
                )
            session_id = name
        else:
            session_id = f"s{self._next_session}"
        if session_id in self._sessions:
            raise SessionStateError(f"session {session_id!r} is already open")
        matrix = self.matrix_for(config)
        servers = config.resolve_servers(matrix)
        directory = (
            self._session_dir(session_id) if config.durability.durable else None
        )
        runtime = DurableRuntime(
            directory,
            matrix,
            servers,
            online=config.online,
            durability=config.durability,
            readmit_moves=config.readmit_moves,
            shed_policy=config.shed_policy,
            policy=config.degrade_policy(),
        )
        session = Session(session_id, config, matrix, runtime)
        self._sessions[session_id] = session
        self._next_session += 1
        metrics = registry()
        metrics.counter("service.sessions_opened").inc()
        metrics.gauge("service.sessions").set(len(self._sessions))
        return session

    def session(self, session_id: Any) -> Session:
        """Look up a live session by id."""
        self._require_open()
        if not isinstance(session_id, str):
            raise BadRequestError("'session' must be a string id")
        session = self._sessions.get(session_id)
        if session is None:
            raise UnknownSessionError(f"no such session: {session_id!r}")
        return session

    def close_session(self, session_id: Any) -> Dict[str, Any]:
        """Close a session and drop it from the table."""
        session = self.session(session_id)
        stats = session.query("stats")
        session.close()
        del self._sessions[session_id]
        metrics = registry()
        metrics.counter("service.sessions_closed").inc()
        metrics.gauge("service.sessions").set(len(self._sessions))
        return {"closed": session_id, "final": stats}

    # ------------------------------------------------------------------
    def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Serve one request dict; always returns a reply dict.

        Library and service exceptions become structured error replies
        (stable ``error.code``); they never propagate to the caller —
        a misbehaving client cannot take the server down.
        """
        request_id = request.get("id") if isinstance(request, dict) else None
        metrics = registry()
        metrics.counter("service.requests").inc()
        try:
            if not isinstance(request, dict):
                raise BadRequestError("request must be a JSON object")
            parse_request(request)
            op = request["op"]
            if op not in OPS:
                raise UnknownOperationError(
                    f"unknown op {op!r}; expected one of {sorted(OPS)}"
                )
            return ok_reply(request_id, self._dispatch(op, request))
        except ReproError as exc:
            metrics.counter("service.errors").inc()
            metrics.counter(f"service.errors.{type(exc).code}").inc()
            return error_reply(request_id, exc)
        except Exception as exc:  # pragma: no cover - defensive boundary
            metrics.counter("service.internal_errors").inc()
            return error_reply(request_id, exc)

    def _dispatch(self, op: str, request: Dict[str, Any]) -> Dict[str, Any]:
        if op == "ping":
            return {
                "pong": True,
                "version": __version__,
                "sessions": len(self._sessions),
            }
        if op == "open_session":
            params = {
                key: value
                for key, value in request.items()
                if key not in ("id", "op", "session")
            }
            merged = dict(self._default_config.to_dict())
            merged.update(params)
            config = SessionConfig.from_dict(merged)
            session = self.open_session(
                config, name=request.get("session")
            )
            return {
                "session": session.id,
                "servers": [int(s) for s in session.runtime.manager.server_nodes],
                "matrix_fingerprint": fingerprint_matrix(session.matrix),
                "durability": config.durability.mode,
                "wal": session.runtime.wal.path,
            }
        if op == "close_session":
            return self.close_session(request.get("session"))
        if op == "list_sessions":
            return {
                "sessions": [
                    self._sessions[sid].info().to_dict()
                    for sid in self._sessions
                ]
            }
        if op == "query":
            session = self.session(request.get("session"))
            what = request.get("what", "stats")
            if not isinstance(what, str):
                raise BadRequestError("'what' must be a string")
            return session.query(what)
        if op == "batch" or op in EVENT_OPS:
            session = self.session(request.get("session"))
            # The reply is the commit point: whatever the request
            # applied, error entries and error replies included, is
            # durable before the reply is sent.
            try:
                if op == "batch":
                    return self._batch(session, request)
                result = session.apply_event(op, request)
                registry().counter(f"service.events.{op}").inc()
                return result
            finally:
                session.runtime.commit()
        raise UnknownOperationError(f"unknown op {op!r}")

    def _batch(self, session: Session, request: Dict[str, Any]) -> Dict[str, Any]:
        """Apply a list of session events in order (throughput path).

        The whole list is checked for shape (objects carrying a session
        event op) before any event is applied, so a refused batch
        changes nothing. Individual event failures become inline
        ``error`` entries and the batch continues — matching the
        tolerance of the library replay path, and keeping one bad event
        from poisoning a pipelined stream. The caller commits once, after
        the last event: one WAL fsync acknowledges the batch.
        """
        events = request.get("events")
        if not isinstance(events, list):
            raise BadRequestError("'events' must be a list")
        for event in events:
            if not isinstance(event, dict):
                raise BadRequestError("each batch event must be an object")
            op = event.get("op")
            if not isinstance(op, str) or op not in EVENT_OPS:
                raise BadRequestError(
                    f"batch events must be one of {sorted(EVENT_OPS)}, "
                    f"got {op!r}"
                )
        results: List[Dict[str, Any]] = []
        applied: Dict[str, int] = {}
        apply_event = session.apply_event
        metrics = registry()
        for event in events:
            op = event["op"]
            try:
                results.append(apply_event(op, event))
            except ReproError as exc:
                metrics.counter("service.errors").inc()
                metrics.counter(f"service.errors.{type(exc).code}").inc()
                results.append(
                    {
                        "op": op,
                        "error": {
                            "code": type(exc).code,
                            "message": str(exc),
                        },
                    }
                )
            else:
                applied[op] = applied.get(op, 0) + 1
        for op, count in applied.items():
            metrics.counter(f"service.events.{op}").inc(count)
        return {"results": results, "count": len(results)}

    # ------------------------------------------------------------------
    def _require_open(self) -> None:
        if self._closed:
            raise SessionStateError("service is closed")

    def close(self) -> None:
        """Close every session and release service resources."""
        if self._closed:
            return
        self._closed = True
        for session in self._sessions.values():
            session.close()
        self._sessions.clear()
        if self._owns_base_dir and self._base_dir is not None:
            shutil.rmtree(self._base_dir, ignore_errors=True)

    def __enter__(self) -> "AssignmentService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


__all__ = [
    "EVENT_OPS",
    "QUERY_WHATS",
    "AssignmentService",
    "Session",
    "SessionConfig",
    "SessionInfo",
]
