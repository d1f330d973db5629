"""Declarative DSL for adversarial online-assignment workloads.

A :class:`Scenario` is a seeded, declarative description of an
arrival/departure sequence against one problem instance: a list of
:class:`Segment` building blocks (flash crowds, regional outages,
diurnal waves, correlated join/leave bursts, capacity-exhaustion
adversaries, a load-following "nemesis") over an :class:`InstanceSpec`.
Scenarios round-trip through JSON (:meth:`Scenario.to_dict` /
:meth:`Scenario.from_dict`) so adversarial workloads are shareable
artifacts, not code.

Compilation (:meth:`Scenario.compile`) resolves the declarative
segments into a concrete :class:`ScenarioTrace` — a flat, canonically
ordered list of :class:`ScenarioEvent` records. The trace is
**oblivious**: it is a pure function of the scenario (same seed ⇒
byte-identical trace, via the shared :mod:`repro.sim.sequencing`
ordering rule), fixed before any policy sees it, so every policy in a
comparison faces exactly the same adversary. Targeted segments
(capacity crunch, nemesis) aim using a *model* of nearest-server loads
maintained during compilation — adversarial pressure without breaking
obliviousness.

Fault segments compose with :class:`repro.faults.FaultSchedule`: a
:class:`RegionalOutage` becomes a
:class:`~repro.faults.models.DownInterval` (or
:class:`~repro.faults.models.Partition`), and the schedule's
``all_events()`` merge — availability-restoring edges before
availability-removing ones at shared instants — is what lands in the
trace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ScenarioError
from repro.faults import FaultSchedule
from repro.faults.models import DownInterval, Partition
from repro.sim.sequencing import ordered_timed

#: Tie order of event classes at a shared instant. Fault edges keep the
#: :meth:`FaultSchedule.all_events` contract (restore before remove);
#: churn follows faults, explicit rebalances come last.
_CLASS_ORDER = {
    "recover": 0,
    "heal": 1,
    "crash": 2,
    "partition": 3,
    "join": 4,
    "leave": 4,
    "rebalance": 5,
}

_INSTANCE_KINDS = ("planet", "meridian", "mit")


# ----------------------------------------------------------------------
# Instance specification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class InstanceSpec:
    """The problem instance a scenario runs against.

    ``kind`` selects the generator: ``"planet"`` (coordinate provider,
    library path only) or ``"meridian"``/``"mit"`` (dense
    synthetic matrices, placement-resolved servers — the kinds the wire
    service can synthesize, so these replay over TCP too).
    """

    kind: str = "planet"
    n_clients: int = 200
    n_servers: int = 8
    n_clusters: int = 16
    seed: int = 0
    capacity: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in _INSTANCE_KINDS:
            raise ScenarioError(
                f"instance kind must be one of {_INSTANCE_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.n_clients < 1:
            raise ScenarioError(
                f"n_clients must be >= 1, got {self.n_clients}"
            )
        if self.n_servers < 1:
            raise ScenarioError(
                f"n_servers must be >= 1, got {self.n_servers}"
            )
        if self.capacity is not None and self.capacity < 1:
            raise ScenarioError(
                f"capacity must be >= 1 when given, got {self.capacity}"
            )

    # ------------------------------------------------------------------
    @property
    def nodes(self) -> int:
        """Size of the node universe (servers + clients)."""
        return self.n_clients + self.n_servers

    def build(self) -> "BuiltInstance":
        """Materialize the provider, server nodes and client universe."""
        if self.kind == "planet":
            from repro.datasets import planet_instance

            inst = planet_instance(
                self.n_clients,
                self.n_servers,
                n_clusters=self.n_clusters,
                seed=self.seed,
            )
            return BuiltInstance(
                spec=self,
                provider=inst.provider,
                servers=np.asarray(inst.servers, dtype=np.int64),
                clients=np.asarray(inst.clients, dtype=np.int64),
            )
        config = self.session_config()
        matrix = config.build_matrix()
        servers = np.asarray(config.resolve_servers(matrix), dtype=np.int64)
        mask = np.ones(self.nodes, dtype=bool)
        mask[servers] = False
        clients = np.flatnonzero(mask).astype(np.int64)
        return BuiltInstance(
            spec=self, provider=matrix, servers=servers, clients=clients
        )

    def session_config(self, online: Any = None) -> Any:
        """The :class:`~repro.service.core.SessionConfig` twin of this
        spec (wire-path replay opens its session with exactly this, so
        the service synthesizes the same matrix and placement)."""
        if self.kind == "planet":
            raise ScenarioError(
                "planet instances cannot run over the wire: the service "
                "synthesizes only meridian/mit matrices"
            )
        from repro.service.core import SessionConfig

        kwargs: Dict[str, Any] = dict(
            nodes=self.nodes,
            kind=self.kind,
            matrix_seed=self.seed,
            n_servers=self.n_servers,
            placement="k-center-b",
            placement_seed=0,
        )
        if online is not None:
            kwargs["online"] = online
        return SessionConfig(**kwargs)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "n_clients": self.n_clients,
            "n_servers": self.n_servers,
            "n_clusters": self.n_clusters,
            "seed": self.seed,
            "capacity": self.capacity,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "InstanceSpec":
        return cls(**data)


@dataclass(frozen=True)
class BuiltInstance:
    """A materialized instance: provider + server and client node sets."""

    spec: InstanceSpec
    provider: Any
    servers: np.ndarray
    clients: np.ndarray

    @property
    def capacity(self) -> Optional[int]:
        return self.spec.capacity


# ----------------------------------------------------------------------
# Segments
# ----------------------------------------------------------------------
#: A churn intent: ``(time, op, target_server)`` where ``op`` is one of
#: join / join-near / join-nemesis / leave / leave-near and
#: ``target_server`` is a local server index (or None).
Intent = Tuple[float, str, Optional[int]]


def _require_positive(name: str, value: float) -> None:
    if value <= 0:
        raise ScenarioError(f"{name} must be positive, got {value}")


def _require_nonnegative(name: str, value: float) -> None:
    if value < 0:
        raise ScenarioError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True)
class Segment:
    """Base class for scenario building blocks.

    Subclasses declare a stable ``kind`` (the JSON discriminator),
    emit churn :data:`Intent` records from :meth:`intents`, and/or
    contribute fault windows from :meth:`down_intervals` /
    :meth:`partitions`.
    """

    kind = "?"

    def intents(self, rng: np.random.Generator) -> List[Intent]:
        return []

    def down_intervals(self) -> List[DownInterval]:
        return []

    def partitions(self) -> List[Partition]:
        return []

    def to_dict(self) -> Dict[str, Any]:
        data = {"kind": self.kind}
        data.update(self.__dict__)
        return data


@dataclass(frozen=True)
class FlashCrowd(Segment):
    """``joins`` arrivals packed uniformly into a short window.

    With ``server`` set, arrivals are the unconnected clients nearest
    to that server (a *regional* flash crowd) instead of uniformly
    random ones.
    """

    kind = "flash-crowd"

    start: float = 0.0
    duration: float = 10.0
    joins: int = 100
    server: Optional[int] = None

    def __post_init__(self) -> None:
        _require_nonnegative("start", self.start)
        _require_positive("duration", self.duration)
        _require_nonnegative("joins", self.joins)

    def intents(self, rng: np.random.Generator) -> List[Intent]:
        op = "join" if self.server is None else "join-near"
        times = self.start + self.duration * rng.random(self.joins)
        return [(float(t), op, self.server) for t in times]


@dataclass(frozen=True)
class DiurnalWave(Segment):
    """Sinusoidally modulated arrivals (day/night cycle), by thinning.

    Candidate arrivals are uniform over the window at the peak density;
    each survives with probability proportional to the instantaneous
    sinusoidal rate (trough fraction ``trough``), mirroring
    :func:`repro.sim.workload.diurnal_workload`.
    """

    kind = "diurnal"

    start: float = 0.0
    duration: float = 100.0
    period: float = 50.0
    joins: int = 120
    trough: float = 0.1

    def __post_init__(self) -> None:
        _require_nonnegative("start", self.start)
        _require_positive("duration", self.duration)
        _require_positive("period", self.period)
        _require_nonnegative("joins", self.joins)
        if not 0.0 < self.trough <= 1.0:
            raise ScenarioError(
                f"trough must be in (0, 1], got {self.trough}"
            )

    def intents(self, rng: np.random.Generator) -> List[Intent]:
        out: List[Intent] = []
        times = self.start + self.duration * rng.random(self.joins)
        accept = rng.random(self.joins)
        mid = (1.0 + self.trough) / 2.0
        amplitude = (1.0 - self.trough) / 2.0
        for t, u in zip(times, accept):
            rate = mid + amplitude * np.sin(
                2.0 * np.pi * (t - self.start) / self.period
            )
            if u < rate:
                out.append((float(t), "join", None))
        return out


@dataclass(frozen=True)
class CorrelatedBursts(Segment):
    """Repeated synchronized join bursts, each echoed by a leave burst.

    Every ``period``, ``joins`` clients arrive within a ``width``-wide
    spike and ``leaves`` clients depart half a period later — the
    session-storm pattern (match start / match end) that stresses both
    admission and the D recovery after mass departures.
    """

    kind = "correlated-bursts"

    start: float = 0.0
    period: float = 20.0
    bursts: int = 4
    joins: int = 30
    leaves: int = 25
    width: float = 0.5

    def __post_init__(self) -> None:
        _require_nonnegative("start", self.start)
        _require_positive("period", self.period)
        _require_positive("bursts", self.bursts)
        _require_nonnegative("joins", self.joins)
        _require_nonnegative("leaves", self.leaves)
        _require_positive("width", self.width)

    def intents(self, rng: np.random.Generator) -> List[Intent]:
        out: List[Intent] = []
        for b in range(self.bursts):
            base = self.start + b * self.period
            for t in base + self.width * rng.random(self.joins):
                out.append((float(t), "join", None))
            leave_base = base + self.period / 2.0
            for t in leave_base + self.width * rng.random(self.leaves):
                out.append((float(t), "leave", None))
        return out


@dataclass(frozen=True)
class CapacityCrunch(Segment):
    """Arrivals aimed at one server's neighborhood to exhaust its slots.

    The adversary of the capacitated online problem: every join is the
    unconnected client nearest to ``server``, so a policy that always
    takes the locally best server saturates it and starts rejecting,
    while a capacity-aware policy spreads the crowd.
    """

    kind = "capacity-crunch"

    start: float = 0.0
    duration: float = 20.0
    joins: int = 80
    server: int = 0

    def __post_init__(self) -> None:
        _require_nonnegative("start", self.start)
        _require_positive("duration", self.duration)
        _require_nonnegative("joins", self.joins)
        _require_nonnegative("server", self.server)

    def intents(self, rng: np.random.Generator) -> List[Intent]:
        times = self.start + self.duration * rng.random(self.joins)
        return [(float(t), "join-near", self.server) for t in times]


@dataclass(frozen=True)
class NemesisChurn(Segment):
    """A load-following adversary: each join targets the hottest server.

    At compile time the DSL maintains a nearest-server load model;
    every nemesis join picks the unconnected client nearest to the
    *currently most loaded* server (by that model), and every nemesis
    leave removes a client of the *least* loaded one — continuously
    pushing the system toward imbalance. The resolved trace stays
    oblivious: targets are fixed by the model, not by the policy under
    test.
    """

    kind = "nemesis"

    start: float = 0.0
    duration: float = 30.0
    events: int = 60
    leave_fraction: float = 0.25

    def __post_init__(self) -> None:
        _require_nonnegative("start", self.start)
        _require_positive("duration", self.duration)
        _require_nonnegative("events", self.events)
        if not 0.0 <= self.leave_fraction < 1.0:
            raise ScenarioError(
                f"leave_fraction must be in [0, 1), got {self.leave_fraction}"
            )

    def intents(self, rng: np.random.Generator) -> List[Intent]:
        out: List[Intent] = []
        times = self.start + self.duration * rng.random(self.events)
        rolls = rng.random(self.events)
        for t, roll in zip(times, rolls):
            if roll < self.leave_fraction:
                out.append((float(t), "leave-nemesis", None))
            else:
                out.append((float(t), "join-nemesis", None))
        return out


@dataclass(frozen=True)
class Drain(Segment):
    """``leaves`` random departures spread uniformly over a window."""

    kind = "drain"

    start: float = 0.0
    duration: float = 10.0
    leaves: int = 50

    def __post_init__(self) -> None:
        _require_nonnegative("start", self.start)
        _require_positive("duration", self.duration)
        _require_nonnegative("leaves", self.leaves)

    def intents(self, rng: np.random.Generator) -> List[Intent]:
        times = self.start + self.duration * rng.random(self.leaves)
        return [(float(t), "leave", None) for t in times]


@dataclass(frozen=True)
class RegionalOutage(Segment):
    """One server lost for a window: a crash or (with ``partition``) a
    network partition.

    Composes with :class:`repro.faults.FaultSchedule`: the segment
    contributes a :class:`~repro.faults.models.DownInterval` or
    :class:`~repro.faults.models.Partition` and the schedule's merged
    edge ordering decides same-instant ties.
    """

    kind = "regional-outage"

    server: int = 0
    start: float = 10.0
    duration: float = 10.0
    partition: bool = False

    def __post_init__(self) -> None:
        _require_nonnegative("server", self.server)
        _require_nonnegative("start", self.start)
        _require_positive("duration", self.duration)

    def down_intervals(self) -> List[DownInterval]:
        if self.partition:
            return []
        return [
            DownInterval(
                server=self.server,
                start=self.start,
                end=self.start + self.duration,
            )
        ]

    def partitions(self) -> List[Partition]:
        if not self.partition:
            return []
        return [
            Partition(
                servers=(self.server,),
                start=self.start,
                end=self.start + self.duration,
            )
        ]


#: JSON discriminator → segment class.
SEGMENT_KINDS: Dict[str, Callable[..., Segment]] = {
    cls.kind: cls
    for cls in (
        FlashCrowd,
        DiurnalWave,
        CorrelatedBursts,
        CapacityCrunch,
        NemesisChurn,
        Drain,
        RegionalOutage,
    )
}


def segment_from_dict(data: Dict[str, Any]) -> Segment:
    """Rebuild a segment from its ``kind``-discriminated dict."""
    payload = dict(data)
    kind = payload.pop("kind", None)
    cls = SEGMENT_KINDS.get(kind)
    if cls is None:
        raise ScenarioError(
            f"unknown segment kind {kind!r}; known: "
            f"{sorted(SEGMENT_KINDS)}"
        )
    try:
        return cls(**payload)
    except TypeError as exc:
        raise ScenarioError(f"bad {kind!r} segment: {exc}") from None


# ----------------------------------------------------------------------
# Compiled trace
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioEvent:
    """One resolved event of a compiled scenario.

    ``op`` matches the service wire vocabulary (``join``/``leave``/
    ``crash``/``recover``/``partition``/``heal``/``rebalance``);
    ``server`` holds local server indices, ``node`` global node ids.
    """

    time: float
    seq: int
    op: str
    node: Optional[int] = None
    server: Optional[int] = None
    max_moves: Optional[int] = None

    def to_event_dict(self) -> Dict[str, Any]:
        """The wire-protocol ``batch`` event for this record."""
        if self.op in ("join", "leave"):
            return {"op": self.op, "node": self.node}
        if self.op in ("crash", "recover"):
            return {"op": self.op, "server": self.server}
        if self.op in ("partition", "heal"):
            return {"op": self.op, "servers": [self.server]}
        if self.op == "rebalance":
            return {"op": self.op, "max_moves": self.max_moves or 8}
        raise ScenarioError(f"unknown scenario op {self.op!r}")


_FAULT_OPS = frozenset({"crash", "recover", "partition", "heal"})


@dataclass(frozen=True)
class ScenarioTrace:
    """A compiled scenario: a fixed, canonically ordered event list."""

    name: str
    events: Tuple[ScenarioEvent, ...]

    @property
    def n_events(self) -> int:
        return len(self.events)

    @property
    def n_joins(self) -> int:
        return sum(1 for e in self.events if e.op == "join")

    @property
    def n_leaves(self) -> int:
        return sum(1 for e in self.events if e.op == "leave")

    @property
    def has_faults(self) -> bool:
        return any(e.op in _FAULT_OPS for e in self.events)


# ----------------------------------------------------------------------
# Scenario
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Scenario:
    """A named, seeded adversarial workload over one instance."""

    name: str
    instance: InstanceSpec = field(default_factory=InstanceSpec)
    segments: Tuple[Segment, ...] = ()
    seed: int = 0
    #: Insert an explicit bounded rebalance every N churn events
    #: (0 disables).
    rebalance_every: int = 0
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioError("scenario name must be non-empty")
        object.__setattr__(self, "segments", tuple(self.segments))
        for segment in self.segments:
            if not isinstance(segment, Segment):
                raise ScenarioError(
                    f"segments must be Segment instances, got "
                    f"{type(segment).__name__}"
                )
        if self.rebalance_every < 0:
            raise ScenarioError(
                f"rebalance_every must be >= 0, got {self.rebalance_every}"
            )

    # ------------------------------------------------------------------
    def fault_schedule(self) -> FaultSchedule:
        """The composed fault timeline of every fault-bearing segment."""
        downs: List[DownInterval] = []
        parts: List[Partition] = []
        for segment in self.segments:
            downs.extend(segment.down_intervals())
            parts.extend(segment.partitions())
        for interval in downs:
            if interval.server >= self.instance.n_servers:
                raise ScenarioError(
                    f"outage server {interval.server} out of range for "
                    f"{self.instance.n_servers} servers"
                )
        for part in parts:
            for server in part.servers:
                if server >= self.instance.n_servers:
                    raise ScenarioError(
                        f"partition server {server} out of range for "
                        f"{self.instance.n_servers} servers"
                    )
        return FaultSchedule(downs, partitions=parts)

    # ------------------------------------------------------------------
    def compile(
        self, built: Optional[BuiltInstance] = None
    ) -> ScenarioTrace:
        """Resolve the declarative segments into a fixed event trace.

        A pure function of the scenario (and its seed): segment intents
        are gathered, merged with the fault timeline under the shared
        :mod:`repro.sim.sequencing` ordering, then resolved against a
        compile-time population model (who is connected, model loads
        for nemesis targeting). ``built`` skips rebuilding the instance
        when the caller already has it.
        """
        if built is None:
            built = self.instance.build()
        rng = np.random.default_rng(self.seed)
        intents: List[Intent] = []
        for segment in self.segments:
            intents.extend(segment.intents(rng))

        # One keyed record per intent/fault edge; the composite key
        # (class priority, emission index) makes ordering total and
        # deterministic under the shared (time, key) rule.
        keyed: List[Tuple[float, Tuple[int, int, str, Optional[int]]]] = []
        for i, (t, op, server) in enumerate(intents):
            keyed.append((t, (_CLASS_ORDER["join"], i, op, server)))
        for i, edge in enumerate(self.fault_schedule().all_events()):
            keyed.append(
                (edge.time, (_CLASS_ORDER[edge.kind], i, edge.kind, edge.server))
            )

        resolver = _Resolver(built, rng)
        events: List[ScenarioEvent] = []
        churn = 0
        for time, (_, _, op, server) in ordered_timed(keyed):
            record = resolver.resolve(time, op, server, len(events))
            if record is None:
                continue
            events.append(record)
            if record.op in ("join", "leave"):
                churn += 1
                if self.rebalance_every and churn % self.rebalance_every == 0:
                    events.append(
                        ScenarioEvent(
                            time=time,
                            seq=len(events),
                            op="rebalance",
                            max_moves=8,
                        )
                    )
        return ScenarioTrace(name=self.name, events=tuple(events))

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "instance": self.instance.to_dict(),
            "segments": [s.to_dict() for s in self.segments],
            "seed": self.seed,
            "rebalance_every": self.rebalance_every,
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Scenario":
        try:
            payload = dict(data)
            instance = InstanceSpec.from_dict(payload.pop("instance", {}))
            segments = tuple(
                segment_from_dict(s) for s in payload.pop("segments", [])
            )
            return cls(instance=instance, segments=segments, **payload)
        except ScenarioError:
            raise
        except (TypeError, KeyError, AttributeError) as exc:
            raise ScenarioError(f"bad scenario document: {exc}") from None

    def dumps(self, *, indent: Optional[int] = 2) -> str:
        """The scenario as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "Scenario":
        """Parse a scenario from its JSON document."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid scenario JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ScenarioError("scenario JSON must be an object")
        return cls.from_dict(data)


# ----------------------------------------------------------------------
# Compile-time resolver
# ----------------------------------------------------------------------
class _Resolver:
    """Resolves churn intents against the compile-time population model.

    Tracks who is connected, keeps a nearest-server load model (for
    nemesis and targeted segments) and turns abstract intents into
    concrete node-level events. Joins with an empty unconnected pool
    and leaves with an empty connected pool are dropped (the scenario
    over-asked; the trace stays feasible by construction).
    """

    def __init__(self, built: BuiltInstance, rng: np.random.Generator) -> None:
        self._rng = rng
        clients = built.clients
        self._nodes = [int(n) for n in clients]
        # d(c, s) for targeting; one block call at compile time.
        self._cs = np.asarray(
            built.provider.client_server_distances(clients, built.servers),
            dtype=np.float64,
        )
        self._nearest = np.argmin(self._cs, axis=1)
        self._index_of = {node: i for i, node in enumerate(self._nodes)}
        # Per-server client orderings by proximity, built lazily.
        self._near_order: Dict[int, np.ndarray] = {}
        self._n_servers = int(built.servers.size)
        self._connected: set = set()
        self._pool = list(self._nodes)  # sorted (clients are sorted)
        self._loads = np.zeros(self._n_servers, dtype=np.int64)

    # -- model maintenance ---------------------------------------------
    def _model_join(self, node: int) -> None:
        self._connected.add(node)
        self._pool.remove(node)
        self._loads[self._nearest[self._index_of[node]]] += 1

    def _model_leave(self, node: int) -> None:
        self._connected.discard(node)
        # Keep the pool sorted so rng-indexed picks stay deterministic.
        import bisect

        bisect.insort(self._pool, node)
        self._loads[self._nearest[self._index_of[node]]] -= 1

    def _order_near(self, server: int) -> np.ndarray:
        order = self._near_order.get(server)
        if order is None:
            order = np.argsort(self._cs[:, server], kind="stable")
            self._near_order[server] = order
        return order

    # -- picks ---------------------------------------------------------
    def _pick_join(self, server: Optional[int]) -> Optional[int]:
        if not self._pool:
            return None
        if server is None:
            return self._pool[int(self._rng.integers(len(self._pool)))]
        server = server % self._n_servers
        for idx in self._order_near(server):
            node = self._nodes[int(idx)]
            if node not in self._connected:
                return node
        return None

    def _pick_leave(self, server: Optional[int]) -> Optional[int]:
        if not self._connected:
            return None
        if server is None:
            ordered = sorted(self._connected)
            return ordered[int(self._rng.integers(len(ordered)))]
        server = server % self._n_servers
        for idx in self._order_near(server):
            node = self._nodes[int(idx)]
            if node in self._connected:
                return node
        return None

    # -- entry point ---------------------------------------------------
    def resolve(
        self, time: float, op: str, server: Optional[int], seq: int
    ) -> Optional[ScenarioEvent]:
        if op in _FAULT_OPS:
            return ScenarioEvent(time=time, seq=seq, op=op, server=server)
        if op == "join-nemesis":
            op, server = "join-near", int(np.argmax(self._loads))
        elif op == "leave-nemesis":
            op, server = "leave-near", int(np.argmin(self._loads))
        if op in ("join", "join-near"):
            node = self._pick_join(server if op == "join-near" else None)
            if node is None:
                return None
            self._model_join(node)
            return ScenarioEvent(time=time, seq=seq, op="join", node=node)
        if op in ("leave", "leave-near"):
            node = self._pick_leave(server if op == "leave-near" else None)
            if node is None:
                return None
            self._model_leave(node)
            return ScenarioEvent(time=time, seq=seq, op="leave", node=node)
        raise ScenarioError(f"unknown intent op {op!r}")
