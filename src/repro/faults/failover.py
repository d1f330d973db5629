"""Failover control: crash evacuation and recovery re-admission.

:class:`FailoverController` drives an
:class:`~repro.algorithms.online.OnlineAssignmentManager` through the
crash/recover edges of a fault schedule:

- **crash** — the dead server is deactivated and its clients evacuated
  capacity-aware onto the survivors, each placed by the same ``L(s')``
  move-cost rule a join uses. When surviving capacity cannot hold every
  stranded client, the controller either fails loudly
  (``shed_policy="strict"``) or degrades gracefully by disconnecting the
  overflow (``shed_policy="shed"``), farthest clients first.
- **recover** — the server is reactivated and, optionally, a bounded
  Distributed-Greedy rebalance re-admits it, pulling back the clients
  whose interaction paths it shortens.

Every transition is recorded (:class:`CrashRecord`,
:class:`RecoveryRecord`) with the D before and after, so experiments
can report the degraded-mode inflation and the post-recovery repair
quality without re-deriving them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Tuple

import numpy as np

from repro.algorithms.online import OnlineAssignmentManager
from repro.core.incremental import count_evaluations
from repro.errors import FailoverError, InvalidParameterError
from repro.faults.schedule import FaultEvent
from repro.obs import registry, span


@dataclass(frozen=True)
class CrashRecord:
    """Outcome of handling one server crash."""

    time: float
    server: int
    #: Clients moved: (client_node, new_local_server) in evacuation order.
    moves: Tuple[Tuple[int, int], ...]
    #: Clients disconnected because no surviving capacity could hold them.
    shed: Tuple[int, ...]
    #: D immediately before the crash.
    d_before: float
    #: D after the evacuation (the degraded-mode value).
    d_degraded: float
    #: Candidate (client, server) evaluations spent on the repair.
    n_evaluations: int = 0

    @property
    def n_evacuated(self) -> int:
        return len(self.moves)

    @property
    def inflation(self) -> float:
        """Degraded D as a multiple of the pre-fault D (1.0 = no change)."""
        if self.d_before <= 0.0:
            return 1.0
        return self.d_degraded / self.d_before

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (floats hex-encoded, bit-exact)."""
        return {
            "time": float(self.time).hex(),
            "server": self.server,
            "moves": [[int(c), int(s)] for c, s in self.moves],
            "shed": [int(c) for c in self.shed],
            "d_before": float(self.d_before).hex(),
            "d_degraded": float(self.d_degraded).hex(),
            "n_evaluations": self.n_evaluations,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CrashRecord":
        """Inverse of :meth:`to_dict`."""
        return cls(
            time=float.fromhex(data["time"]),
            server=int(data["server"]),
            moves=tuple((int(c), int(s)) for c, s in data["moves"]),
            shed=tuple(int(c) for c in data["shed"]),
            d_before=float.fromhex(data["d_before"]),
            d_degraded=float.fromhex(data["d_degraded"]),
            n_evaluations=int(data["n_evaluations"]),
        )


@dataclass(frozen=True)
class RecoveryRecord:
    """Outcome of handling one server recovery."""

    time: float
    server: int
    #: Bounded Distributed-Greedy moves run after reactivation.
    rebalance_moves: int
    #: D immediately before the recovery (degraded value).
    d_before: float
    #: D after reactivation + rebalance.
    d_after: float
    #: Candidate (client, server) evaluations spent on the re-admission.
    n_evaluations: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (floats hex-encoded, bit-exact)."""
        return {
            "time": float(self.time).hex(),
            "server": self.server,
            "rebalance_moves": self.rebalance_moves,
            "d_before": float(self.d_before).hex(),
            "d_after": float(self.d_after).hex(),
            "n_evaluations": self.n_evaluations,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RecoveryRecord":
        """Inverse of :meth:`to_dict`."""
        return cls(
            time=float.fromhex(data["time"]),
            server=int(data["server"]),
            rebalance_moves=int(data["rebalance_moves"]),
            d_before=float.fromhex(data["d_before"]),
            d_after=float.fromhex(data["d_after"]),
            n_evaluations=int(data["n_evaluations"]),
        )


class FailoverController:
    """Applies crash/recover events to an online assignment manager.

    Parameters
    ----------
    manager:
        The live assignment state to repair.
    readmit_moves:
        Distributed-Greedy move budget spent when a server recovers
        (0 disables re-admission rebalancing; clients then only return
        through later joins or explicit rebalances).
    shed_policy:
        ``"strict"`` raises :class:`~repro.errors.FailoverError` when
        surviving capacity cannot hold the stranded clients; ``"shed"``
        disconnects the overflow (farthest-first) and records it.
    """

    def __init__(
        self,
        manager: OnlineAssignmentManager,
        *,
        readmit_moves: int = 8,
        shed_policy: str = "strict",
    ) -> None:
        if readmit_moves < 0:
            raise InvalidParameterError(
                f"readmit_moves must be nonnegative, got {readmit_moves}"
            )
        if shed_policy not in ("strict", "shed"):
            raise InvalidParameterError(
                f"shed_policy must be 'strict' or 'shed', got {shed_policy!r}"
            )
        self._manager = manager
        self._readmit_moves = readmit_moves
        self._shed_policy = shed_policy
        self._crashes: List[CrashRecord] = []
        self._recoveries: List[RecoveryRecord] = []

    # ------------------------------------------------------------------
    @property
    def crash_records(self) -> Tuple[CrashRecord, ...]:
        """All crashes handled, in order."""
        return tuple(self._crashes)

    @property
    def recovery_records(self) -> Tuple[RecoveryRecord, ...]:
        """All recoveries handled, in order."""
        return tuple(self._recoveries)

    def restore_records(
        self,
        crashes: Iterable[CrashRecord],
        recoveries: Iterable[RecoveryRecord],
    ) -> None:
        """Replace the record history (checkpoint recovery path).

        Refuses to overwrite live history: a controller being restored
        must be freshly constructed.
        """
        if self._crashes or self._recoveries:
            raise FailoverError(
                "cannot restore records onto a controller with history"
            )
        self._crashes = list(crashes)
        self._recoveries = list(recoveries)

    # ------------------------------------------------------------------
    def on_crash(self, server: int, *, time: float = 0.0) -> CrashRecord:
        """Handle a fail-stop crash of local server ``server``.

        Deactivates the server and evacuates its clients onto the
        survivors. See the class docstring for the shed semantics.
        """
        manager = self._manager
        d_before = manager.current_d()
        stranded = manager.deactivate_server(server)
        shed: Tuple[int, ...] = ()
        with span(
            "failover.crash", server=server, stranded=len(stranded)
        ), count_evaluations() as counter:
            if stranded and self._shed_policy == "shed":
                if manager.n_usable_servers == 0:
                    # Total outage: nothing to evacuate to — disconnect all.
                    for client in stranded:
                        manager.leave(client)
                    shed = stranded
                else:
                    shed = self._shed_overflow(server, len(stranded))
            moves = tuple(manager.evacuate(server))
        metrics = registry()
        metrics.counter("failover.crashes").inc()
        metrics.counter("failover.evacuations").inc(len(moves))
        metrics.counter("failover.shed").inc(len(shed))
        record = CrashRecord(
            time=time,
            server=server,
            moves=moves,
            shed=shed,
            d_before=d_before,
            d_degraded=manager.current_d(),
            n_evaluations=counter.count,
        )
        self._crashes.append(record)
        return record

    def _shed_overflow(self, server: int, n_stranded: int) -> Tuple[int, ...]:
        """Disconnect stranded clients that no surviving slot can hold."""
        manager = self._manager
        capacity = manager.capacity
        if capacity is None:
            return ()
        loads = manager.loads()
        free = 0
        for s in range(manager.n_servers):
            if (
                s != server
                and manager.is_active(s)
                and manager.is_reachable(s)
            ):
                free += max(0, capacity - int(loads[s]))
        overflow = n_stranded - free
        if overflow <= 0:
            return ()
        # Shed the farthest clients: they inflate the degraded D most
        # and are the least likely to find a nearby surviving slot.
        # Provider block calls keep this dense-free.
        members = np.asarray(manager.members_of(server), dtype=np.int64)
        node = manager.server_nodes[server]
        node_arr = np.array([node], dtype=np.int64)
        to_node = manager.matrix.client_server_distances(members, node_arr)
        from_node = manager.matrix.server_client_distances(node_arr, members)
        round_trip = {
            int(c): max(float(to_node[i, 0]), float(from_node[0, i]))
            for i, c in enumerate(members)
        }
        victims = sorted(
            manager.members_of(server),
            key=lambda c: (-round_trip[c], c),
        )[:overflow]
        for client in victims:
            manager.leave(client)
        return tuple(victims)

    def on_recover(self, server: int, *, time: float = 0.0) -> RecoveryRecord:
        """Handle the recovery of local server ``server``.

        Reactivates it and spends the ``readmit_moves`` budget pulling
        clients back where that shortens their interaction paths.
        """
        manager = self._manager
        d_before = manager.current_d()
        manager.reactivate_server(server)
        moves = 0
        with span(
            "failover.recover", server=server
        ), count_evaluations() as counter:
            if self._readmit_moves > 0 and manager.n_clients > 0:
                moves = manager.rebalance(max_moves=self._readmit_moves)
        registry().counter("failover.recoveries").inc()
        record = RecoveryRecord(
            time=time,
            server=server,
            rebalance_moves=moves,
            d_before=d_before,
            d_after=manager.current_d(),
            n_evaluations=counter.count,
        )
        self._recoveries.append(record)
        return record

    def apply(self, event: FaultEvent) -> None:
        """Dispatch one availability edge from a fault schedule.

        Partition edges need no repair work — members ride out the
        window on their stale assignment — so they pass straight
        through to the manager's reachability mask.
        """
        if event.kind == "crash":
            self.on_crash(event.server, time=event.time)
        elif event.kind == "recover":
            self.on_recover(event.server, time=event.time)
        elif event.kind == "partition":
            self._manager.partition_server(event.server)
            registry().counter("failover.partitions").inc()
        elif event.kind == "heal":
            self._manager.heal_server(event.server)
            registry().counter("failover.heals").inc()
        else:
            raise FailoverError(f"unknown fault event kind {event.kind!r}")
