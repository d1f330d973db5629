"""Deterministic, composable fault schedules.

A :class:`FaultSchedule` bundles the three fault classes of
:mod:`repro.faults.models` behind one queryable object:

- ``is_down(server, t)`` / ``events()`` — the fail-stop crash timeline,
  consumed by the failover controller and the churn driver;
- ``latency_factor(src, dst, t)`` — the product of all latency spikes
  covering a link at a time, applied by the simulator on top of jitter;
- ``message_fate(rng)`` — the per-message drop/duplicate decision.

Everything is deterministic given the schedule contents and the
caller's seeded RNG: building the same schedule and replaying the same
simulation seed yields bit-identical fault sequences, which is what
makes fault-injection tests reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import FaultScheduleError
from repro.faults.models import (
    DownInterval,
    LatencySpike,
    LossModel,
    MessageFate,
    NoLoss,
    Partition,
    exponential_crash_schedule,
)
from repro.utils.rng import SeedLike


@dataclass(frozen=True)
class FaultEvent:
    """One edge of a fault timeline: a server changing availability.

    ``kind`` is ``"crash"``/``"recover"`` for the fail-stop timeline
    and ``"partition"``/``"heal"`` for reachability edges.
    """

    time: float
    kind: str  # "crash" | "recover" | "partition" | "heal"
    server: int


class FaultSchedule:
    """Composition of crash timeline, latency spikes and message loss.

    Parameters
    ----------
    down_intervals:
        Fail-stop outages; intervals of one server must not overlap.
    spikes:
        Windowed latency degradations.
    loss:
        Per-message fate model; default :class:`~repro.faults.models.
        NoLoss`.
    partitions:
        Reachability outages (:class:`~repro.faults.models.Partition`);
        windows isolating one server must not overlap.
    """

    def __init__(
        self,
        down_intervals: Iterable[DownInterval] = (),
        *,
        spikes: Iterable[LatencySpike] = (),
        loss: Optional[LossModel] = None,
        partitions: Iterable[Partition] = (),
    ) -> None:
        self._intervals: Tuple[DownInterval, ...] = tuple(
            sorted(down_intervals, key=lambda iv: (iv.start, iv.server))
        )
        self._spikes: Tuple[LatencySpike, ...] = tuple(spikes)
        self._loss = loss if loss is not None else NoLoss()
        self._partitions: Tuple[Partition, ...] = tuple(
            sorted(partitions, key=lambda p: (p.start, p.servers))
        )
        by_server: Dict[int, List[DownInterval]] = {}
        for iv in self._intervals:
            by_server.setdefault(iv.server, []).append(iv)
        for server, ivs in by_server.items():
            for a, b in zip(ivs, ivs[1:]):
                if b.start < a.end:
                    raise FaultScheduleError(
                        f"overlapping outages for server {server}: "
                        f"[{a.start}, {a.end}) and [{b.start}, {b.end})"
                    )
        self._by_server = by_server
        unreachable_by_server: Dict[int, List[Partition]] = {}
        for p in self._partitions:
            for server in p.servers:
                unreachable_by_server.setdefault(server, []).append(p)
        for server, windows in unreachable_by_server.items():
            for a, b in zip(windows, windows[1:]):
                if b.start < a.end:
                    raise FaultScheduleError(
                        f"overlapping partitions for server {server}: "
                        f"[{a.start}, {a.end}) and [{b.start}, {b.end})"
                    )
        self._unreachable_by_server = unreachable_by_server

    # ------------------------------------------------------------------
    @classmethod
    def generate(
        cls,
        n_servers: int,
        horizon: float,
        *,
        mttf: float,
        mttr: float,
        seed: SeedLike = 0,
        max_concurrent_down: Optional[int] = None,
        spikes: Iterable[LatencySpike] = (),
        loss: Optional[LossModel] = None,
        partitions: Iterable[Partition] = (),
    ) -> "FaultSchedule":
        """Draw a crash timeline from MTTF/MTTR and wrap it up.

        Thin convenience over :func:`~repro.faults.models.
        exponential_crash_schedule`; see there for semantics.
        ``partitions`` (explicit or from :func:`~repro.faults.models.
        random_partition_schedule`) ride along unchanged.
        """
        intervals = exponential_crash_schedule(
            n_servers,
            horizon,
            mttf=mttf,
            mttr=mttr,
            seed=seed,
            max_concurrent_down=max_concurrent_down,
        )
        return cls(intervals, spikes=spikes, loss=loss, partitions=partitions)

    # ------------------------------------------------------------------
    @property
    def down_intervals(self) -> Tuple[DownInterval, ...]:
        """All outages, sorted by start time."""
        return self._intervals

    @property
    def partitions(self) -> Tuple[Partition, ...]:
        """All partition windows, sorted by start time."""
        return self._partitions

    def reset(self) -> None:
        """Reset stateful components (burst-loss chains) for a new run."""
        self._loss.reset()

    # ------------------------------------------------------------------
    def is_down(self, server: int, wall: float) -> bool:
        """Whether local server ``server`` is crashed at ``wall``."""
        return any(
            iv.covers(wall) for iv in self._by_server.get(server, ())
        )

    def servers_down(self, wall: float) -> Tuple[int, ...]:
        """Local indices of all servers down at ``wall`` (sorted)."""
        return tuple(
            sorted(
                server
                for server, ivs in self._by_server.items()
                if any(iv.covers(wall) for iv in ivs)
            )
        )

    def events(self) -> List[FaultEvent]:
        """The crash/recover edges in time order.

        Recoveries at ``inf`` (never-recovering crashes) are omitted.
        Ties are ordered recover-before-crash so that a back-to-back
        handoff at the same instant never reports every server down.
        """
        out: List[FaultEvent] = []
        for iv in self._intervals:
            out.append(FaultEvent(iv.start, "crash", iv.server))
            if np.isfinite(iv.end):
                out.append(FaultEvent(iv.end, "recover", iv.server))
        order = {"recover": 0, "crash": 1}
        out.sort(key=lambda e: (e.time, order[e.kind], e.server))
        return out

    # ------------------------------------------------------------------
    def is_unreachable(self, server: int, wall: float) -> bool:
        """Whether ``server`` is behind a partition at ``wall``."""
        return any(
            p.covers(wall)
            for p in self._unreachable_by_server.get(server, ())
        )

    def servers_unreachable(self, wall: float) -> Tuple[int, ...]:
        """Local indices of all servers partitioned at ``wall`` (sorted)."""
        return tuple(
            sorted(
                server
                for server, windows in self._unreachable_by_server.items()
                if any(p.covers(wall) for p in windows)
            )
        )

    def partition_events(self) -> List[FaultEvent]:
        """The partition/heal edges in time order, one per server.

        Heals at ``inf`` are omitted; ties order heal-before-partition,
        mirroring :meth:`events`.
        """
        out: List[FaultEvent] = []
        for p in self._partitions:
            for server in p.servers:
                out.append(FaultEvent(p.start, "partition", server))
                if np.isfinite(p.end):
                    out.append(FaultEvent(p.end, "heal", server))
        order = {"heal": 0, "partition": 1}
        out.sort(key=lambda e: (e.time, order[e.kind], e.server))
        return out

    def all_events(self) -> List[FaultEvent]:
        """Crash/recover and partition/heal edges merged in time order.

        At a shared instant, availability-restoring edges (recover,
        heal) sort before availability-removing ones (crash,
        partition), so a same-instant handoff never reports every
        server unavailable. :meth:`events` keeps its crash/recover-only
        contract for existing consumers.
        """
        order = {"recover": 0, "heal": 1, "crash": 2, "partition": 3}
        merged = self.events() + self.partition_events()
        merged.sort(key=lambda e: (e.time, order[e.kind], e.server))
        return merged

    # ------------------------------------------------------------------
    def latency_factor(self, src_node: int, dst_node: int, wall: float) -> float:
        """Product of all spike factors covering (src, dst) at ``wall``."""
        factor = 1.0
        for spike in self._spikes:
            if spike.applies(src_node, dst_node, wall):
                factor *= spike.factor
        return factor

    def message_fate(self, rng: np.random.Generator) -> str:
        """Fate of the next message (delegates to the loss model)."""
        return self._loss.classify(rng)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"FaultSchedule({len(self._intervals)} outage(s), "
            f"{len(self._spikes)} spike(s), "
            f"{len(self._partitions)} partition(s), loss={self._loss!r})"
        )
