"""Fault-injection churn experiments: D over time through crash cycles.

:func:`simulate_churn_with_faults` extends
:func:`~repro.algorithms.online.simulate_churn` with a
:class:`~repro.faults.schedule.FaultSchedule`: Poisson-style joins and
leaves tick at unit-spaced times while the schedule's crash/recover
edges fire in between, each handled by a
:class:`~repro.faults.failover.FailoverController`. The result carries
the full D-over-time trace plus per-crash :class:`CrashCycle` summaries
— pre-fault D, degraded D after evacuation, and D after the server
returns and a bounded rebalance runs — which is exactly the recovery
timeline the paper's §VI "prompt adaptation" argument predicts client
assignment can deliver and server placement cannot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.algorithms.online import OnlineAssignmentManager, OnlineConfig
from repro.errors import CapacityError, InvalidParameterError
from repro.faults.failover import (
    CrashRecord,
    FailoverController,
    RecoveryRecord,
)
from repro.faults.schedule import FaultSchedule
from repro.types import IndexArrayLike, as_index_array
from repro.utils.rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class FaultTracePoint:
    """State after one timeline event."""

    time: float
    event: str  # "join" | "leave" | "crash" | "recover" | "rebalance"
    n_clients: int
    n_active_servers: int
    d: float


@dataclass(frozen=True)
class CrashCycle:
    """One crash → degraded mode → recovery arc, summarized."""

    server: int
    crash_time: float
    #: None when the server never recovers within the horizon.
    recover_time: Optional[float]
    #: D just before the crash.
    d_pre_fault: float
    #: D after the evacuation (degraded mode).
    d_degraded: float
    #: D after recovery + bounded rebalance; None without a recovery.
    d_after_recovery: Optional[float]
    n_evacuated: int
    n_shed: int
    rebalance_moves: int

    @property
    def inflation(self) -> float:
        """Degraded D over pre-fault D (1.0 = crash cost nothing)."""
        if self.d_pre_fault <= 0.0:
            return 1.0
        return self.d_degraded / self.d_pre_fault

    @property
    def recovery_ratio(self) -> Optional[float]:
        """Post-recovery D over pre-fault D (→ 1.0 = full repair)."""
        if self.d_after_recovery is None:
            return None
        if self.d_pre_fault <= 0.0:
            return 1.0
        return self.d_after_recovery / self.d_pre_fault


@dataclass(frozen=True)
class FaultChurnResult:
    """Outcome of a fault-injection churn run."""

    trace: Tuple[FaultTracePoint, ...]
    crash_records: Tuple[CrashRecord, ...]
    recovery_records: Tuple[RecoveryRecord, ...]
    moves_by_rebalance: int

    def mean_d(self) -> float:
        """Time-average D (ignoring empty-system points)."""
        values = [p.d for p in self.trace if p.n_clients > 0]
        return float(np.mean(values)) if values else 0.0

    def peak_d(self) -> float:
        """Worst D seen anywhere on the trace."""
        return max((p.d for p in self.trace), default=0.0)

    def final_d(self) -> float:
        """D after the last event."""
        return self.trace[-1].d if self.trace else 0.0

    def total_shed(self) -> int:
        """Clients disconnected because no surviving capacity held them."""
        return sum(len(r.shed) for r in self.crash_records)

    def cycles(self) -> Tuple[CrashCycle, ...]:
        """Pair each crash with its recovery into arc summaries."""
        recoveries = list(self.recovery_records)
        out: List[CrashCycle] = []
        for crash in self.crash_records:
            match: Optional[RecoveryRecord] = None
            for i, rec in enumerate(recoveries):
                if rec.server == crash.server and rec.time >= crash.time:
                    match = recoveries.pop(i)
                    break
            out.append(
                CrashCycle(
                    server=crash.server,
                    crash_time=crash.time,
                    recover_time=None if match is None else match.time,
                    d_pre_fault=crash.d_before,
                    d_degraded=crash.d_degraded,
                    d_after_recovery=None if match is None else match.d_after,
                    n_evacuated=crash.n_evacuated,
                    n_shed=len(crash.shed),
                    rebalance_moves=0 if match is None else match.rebalance_moves,
                )
            )
        return tuple(out)


def simulate_churn_with_faults(
    matrix,
    servers: IndexArrayLike,
    schedule: FaultSchedule,
    *,
    n_events: int = 200,
    join_probability: float = 0.55,
    rebalance_every: Optional[int] = None,
    rebalance_moves: int = 8,
    capacity: Optional[int] = None,
    join_policy: str = "greedy",
    readmit_moves: int = 8,
    shed_policy: str = "shed",
    seed: SeedLike = 0,
) -> FaultChurnResult:
    """Replay churn through crash/recover cycles and record D over time.

    Churn event ``i`` ticks at time ``i`` (unit spacing); the schedule's
    crash/recover edges fire at their own times in between, so a
    schedule built with ``horizon = n_events`` spans the whole run.
    Joins, leaves and periodic rebalances follow the same rules as
    :func:`~repro.algorithms.online.simulate_churn`; crashes evacuate
    through a :class:`~repro.faults.failover.FailoverController` with
    the given ``readmit_moves`` and ``shed_policy``. Fully deterministic
    under ``seed`` for a fixed schedule.
    """
    if not 0.0 < join_probability < 1.0:
        raise InvalidParameterError("join_probability must be in (0, 1)")
    if n_events < 1:
        raise InvalidParameterError(f"n_events must be >= 1, got {n_events}")
    rng = ensure_rng(seed)
    schedule.reset()
    manager = OnlineAssignmentManager(
        matrix, servers, OnlineConfig(capacity=capacity, join_policy=join_policy)
    )
    controller = FailoverController(
        manager, readmit_moves=readmit_moves, shed_policy=shed_policy
    )
    server_set = set(int(s) for s in as_index_array(servers))
    candidates = [u for u in range(matrix.n_nodes) if u not in server_set]
    fault_events = [e for e in schedule.events() if e.time < n_events]
    next_fault = 0
    trace: List[FaultTracePoint] = []
    total_moves = 0

    def snap(time: float, event: str) -> None:
        trace.append(
            FaultTracePoint(
                time,
                event,
                manager.n_clients,
                manager.n_active_servers,
                manager.current_d(),
            )
        )

    for i in range(n_events):
        # Fire every fault edge due before this churn tick.
        while next_fault < len(fault_events) and fault_events[next_fault].time <= i:
            event = fault_events[next_fault]
            next_fault += 1
            controller.apply(event)
            snap(event.time, event.kind)
        connected = manager.clients
        connected_set = set(connected)
        free = [u for u in candidates if u not in connected_set]
        do_join = (not connected) or (free and rng.uniform() < join_probability)
        if do_join and free:
            node = int(free[rng.integers(0, len(free))])
            try:
                manager.join(node)
                event_name = "join"
            except CapacityError:
                if not connected:
                    continue
                manager.leave(int(connected[rng.integers(0, len(connected))]))
                event_name = "leave"
        elif connected:
            manager.leave(int(connected[rng.integers(0, len(connected))]))
            event_name = "leave"
        else:
            continue
        snap(float(i), event_name)
        if rebalance_every and (i + 1) % rebalance_every == 0 and manager.n_clients:
            total_moves += manager.rebalance(max_moves=rebalance_moves)
            snap(float(i), "rebalance")
    # Fault edges scheduled after the last churn tick but inside the
    # horizon still fire (e.g. a recovery just before the end).
    while next_fault < len(fault_events):
        event = fault_events[next_fault]
        next_fault += 1
        controller.apply(event)
        snap(event.time, event.kind)
    return FaultChurnResult(
        trace=tuple(trace),
        crash_records=controller.crash_records,
        recovery_records=controller.recovery_records,
        moves_by_rebalance=total_moves,
    )
