"""Chaos harness: kill the runtime mid-workload, recover, diff.

The property the whole resilience layer is gated on:

    for every kill point ``k`` in a seeded churn-under-faults workload,
    abandoning the runtime after event ``k`` (optionally with a torn
    WAL tail) and recovering from disk yields (1) a **byte-identical**
    state digest to the uninterrupted baseline at event ``k``, and
    (2) an **identical D/interactivity trajectory and final digest**
    when the remaining events are replayed on the recovered runtime.

:func:`chaos_workload` draws the workload: joins/leaves from a seeded
churn process interleaved with crash/recover edges from an
MTTF/MTTR :class:`~repro.faults.schedule.FaultSchedule` and
partition/heal edges from
:func:`~repro.faults.models.random_partition_schedule`. The generator
tracks its own believed-connected set, so the event list is fixed
up-front — the runtime's admission outcomes (queued, rejected) never
feed back into the workload, which is what makes baseline and replay
see the same events.

:func:`run_chaos` runs the baseline and every kill point and returns a
:class:`ChaosReport`; ``repro chaos`` is the CLI wrapper and the
``chaos-smoke`` CI job asserts ``report.ok`` at a fixed seed.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import InvalidParameterError
from repro.faults.models import random_partition_schedule
from repro.faults.schedule import FaultSchedule
from repro.net.latency import LatencyMatrix
from repro.obs import registry, span
from repro.resilience.degrade import DegradePolicy
from repro.resilience.runtime import WAL_NAME, DurableRuntime
from repro.types import IndexArrayLike, as_index_array
from repro.utils.rng import SeedLike, derive_seed, ensure_rng


def chaos_workload(
    matrix: LatencyMatrix,
    servers: IndexArrayLike,
    *,
    n_events: int = 120,
    join_probability: float = 0.6,
    mttf: Optional[float] = None,
    mttr: Optional[float] = None,
    partition_mtbp: Optional[float] = None,
    partition_mttr: Optional[float] = None,
    seed: SeedLike = 0,
) -> Tuple[Dict[str, Any], ...]:
    """Draw a deterministic churn-under-faults event list.

    Events are wire-vocabulary dicts (see
    :mod:`repro.resilience.events`), e.g. ``{"op": "join", "node": 7}``
    or ``{"op": "partition", "servers": [2]}``.

    One churn event (join or leave) per integer tick; crash/recover and
    partition/heal edges fire at the tick their schedule time rounds
    into. Defaults scale the fault rates to ``n_events`` so a typical
    workload sees a handful of crashes and at least one partition
    window. ``mttf=float('inf')``-style suppression: pass huge values
    to disable a fault class.
    """
    if n_events < 1:
        raise InvalidParameterError(f"n_events must be >= 1, got {n_events}")
    if not 0.0 < join_probability < 1.0:
        raise InvalidParameterError("join_probability must be in (0, 1)")
    server_array = as_index_array(servers, "servers")
    n_servers = int(server_array.size)
    horizon = float(n_events)
    mttf = float(mttf) if mttf is not None else max(8.0, horizon / 2)
    mttr = float(mttr) if mttr is not None else max(4.0, horizon / 10)
    partition_mtbp = (
        float(partition_mtbp) if partition_mtbp is not None else horizon / 2
    )
    partition_mttr = (
        float(partition_mttr) if partition_mttr is not None else horizon / 8
    )
    base_seed = seed if isinstance(seed, int) else None
    crash_seed = derive_seed(base_seed, 1)
    partition_seed = derive_seed(base_seed, 2)
    schedule = FaultSchedule.generate(
        n_servers,
        horizon,
        mttf=mttf,
        mttr=mttr,
        seed=crash_seed if crash_seed is not None else 1,
        max_concurrent_down=max(1, n_servers - 1),
        partitions=random_partition_schedule(
            n_servers,
            horizon,
            mtbp=partition_mtbp,
            mttr=partition_mttr,
            seed=partition_seed if partition_seed is not None else 2,
        ),
    )
    fault_edges = schedule.all_events()
    rng = ensure_rng(seed)
    server_set = set(int(s) for s in server_array)
    candidates = [u for u in range(matrix.n_nodes) if u not in server_set]
    believed: Set[int] = set()
    # Mirror of the availability masks, so the generator never emits a
    # crash for a down server or a heal for a reachable one even after
    # the concurrency-capped schedule skipped edges.
    down: Set[int] = set()
    unreachable: Set[int] = set()
    events: List[Dict[str, Any]] = []
    edge_index = 0
    for tick in range(n_events):
        while edge_index < len(fault_edges) and fault_edges[edge_index].time <= tick:
            edge = fault_edges[edge_index]
            edge_index += 1
            if edge.kind == "crash" and edge.server not in down:
                down.add(edge.server)
                events.append({"op": "crash", "server": edge.server})
            elif edge.kind == "recover" and edge.server in down:
                down.remove(edge.server)
                events.append({"op": "recover", "server": edge.server})
            elif edge.kind == "partition" and edge.server not in unreachable:
                unreachable.add(edge.server)
                events.append({"op": "partition", "servers": [edge.server]})
            elif edge.kind == "heal" and edge.server in unreachable:
                unreachable.remove(edge.server)
                events.append({"op": "heal", "servers": [edge.server]})
        do_join = (not believed) or (
            len(believed) < len(candidates)
            and rng.uniform() < join_probability
        )
        if do_join:
            free = [u for u in candidates if u not in believed]
            node = int(free[rng.integers(0, len(free))])
            believed.add(node)
            events.append({"op": "join", "node": node})
        else:
            pool = sorted(believed)
            node = int(pool[rng.integers(0, len(pool))])
            believed.remove(node)
            events.append({"op": "leave", "node": node})
    return tuple(events)


#: Bytes appended to simulate a writer killed mid-record: valid-looking
#: JSON prefix, no checksum, no terminating newline.
TORN_TAIL = b'{"crc":"00000000","data":{"node":'


@dataclass(frozen=True)
class KillPointResult:
    """Recovery verification at one kill point."""

    kill_point: int
    #: WAL records replayed on top of the checkpoint during recovery.
    replayed: int
    torn_tail: bool
    recovery_seconds: float
    #: Recovered digest == baseline digest at the kill point.
    state_match: bool
    #: D after every remaining event matches the baseline bit-for-bit.
    trajectory_match: bool
    #: Digest after replaying the full remainder matches the baseline's.
    final_match: bool

    @property
    def ok(self) -> bool:
        return self.state_match and self.trajectory_match and self.final_match


@dataclass(frozen=True)
class ChaosReport:
    """Outcome of a full chaos run (baseline + all kill points)."""

    n_events: int
    kill_points: Tuple[int, ...]
    results: Tuple[KillPointResult, ...]
    baseline_final_digest: str
    baseline_final_d: float
    baseline_health: str

    @property
    def ok(self) -> bool:
        """Whether every kill point recovered byte-identically."""
        return all(r.ok for r in self.results)

    def render(self) -> str:
        """Human-readable verdict table."""
        lines = [
            f"chaos: {self.n_events} events, "
            f"{len(self.kill_points)} kill point(s), "
            f"baseline D={self.baseline_final_d:.4f} "
            f"({self.baseline_health}), "
            f"digest {self.baseline_final_digest[:12]}…",
            "kill  replayed  torn  state  trajectory  final  recovery",
        ]
        for r in self.results:
            lines.append(
                f"{r.kill_point:4d}  {r.replayed:8d}  "
                f"{'yes' if r.torn_tail else ' no'}  "
                f"{'  ok' if r.state_match else 'FAIL'}  "
                f"{'        ok' if r.trajectory_match else '      FAIL'}  "
                f"{'  ok' if r.final_match else 'FAIL'}  "
                f"{r.recovery_seconds * 1e3:7.1f}ms"
            )
        lines.append("verdict: " + ("OK" if self.ok else "MISMATCH"))
        return "\n".join(lines)


def run_chaos(
    matrix: LatencyMatrix,
    servers: IndexArrayLike,
    base_dir: os.PathLike,
    *,
    workload: Optional[Sequence[Dict[str, Any]]] = None,
    n_events: int = 120,
    kill_points: Sequence[int] = (),
    seed: SeedLike = 0,
    capacity: Optional[int] = None,
    policy: Optional[DegradePolicy] = None,
    checkpoint_every: int = 20,
    tear_tail: bool = True,
) -> ChaosReport:
    """Run the kill/recover/diff property over a workload.

    Every event is applied and committed as its own acknowledged
    request. For each kill point ``k``: replay events ``[0, k)`` into a
    fresh runtime under ``base_dir/kill-k``, abandon it (nothing is
    pending, so no acknowledged event is lost),
    optionally append a torn tail to its WAL, recover from disk,
    compare digests against the baseline at ``k``, then replay the
    remaining events and compare the D trajectory (exact float
    equality) and final digest. Empty ``kill_points`` defaults to three
    indices spread across the workload.
    """
    events = tuple(workload) if workload is not None else chaos_workload(
        matrix, servers, n_events=n_events, seed=seed
    )
    n_total = len(events)
    if not kill_points:
        kill_points = (
            max(1, n_total // 4),
            max(1, n_total // 2),
            max(1, (3 * n_total) // 4),
        )
    kill_points = tuple(sorted(set(int(k) for k in kill_points)))
    for k in kill_points:
        if not 1 <= k <= n_total:
            raise InvalidParameterError(
                f"kill point {k} outside [1, {n_total}]"
            )
    base_dir = os.fspath(base_dir)
    os.makedirs(base_dir, exist_ok=True)
    common = dict(
        capacity=capacity,
        policy=policy,
        checkpoint_every=checkpoint_every,
    )

    # ------------------------------------------------------------- baseline
    with span("chaos.baseline", events=n_total):
        baseline = DurableRuntime(
            os.path.join(base_dir, "baseline"), matrix, servers, **common
        )
        kill_set = set(kill_points)
        digest_at: Dict[int, str] = {}
        trajectory: List[float] = []
        for i, event in enumerate(events):
            baseline.apply(event["op"], event)
            baseline.commit()
            trajectory.append(baseline.current_d())
            if i + 1 in kill_set:
                digest_at[i + 1] = baseline.digest()
        baseline_final_digest = baseline.digest()
        baseline_final_d = baseline.current_d()
        baseline_health = baseline.health
        baseline.close()

    # ---------------------------------------------------------- kill points
    results: List[KillPointResult] = []
    for k in kill_points:
        directory = os.path.join(base_dir, f"kill-{k:05d}")
        with span("chaos.kill_point", kill_point=k):
            victim = DurableRuntime(directory, matrix, servers, **common)
            for event in events[:k]:
                victim.apply(event["op"], event)
                victim.commit()
            checkpoint_seq = victim._last_checkpoint_seq
            victim.abandon()
            torn = False
            if tear_tail:
                with open(os.path.join(directory, WAL_NAME), "ab") as handle:
                    handle.write(TORN_TAIL)
                torn = True
            start = time.perf_counter()
            recovered = DurableRuntime.recover(
                directory, matrix, checkpoint_every=checkpoint_every
            )
            recovery_seconds = time.perf_counter() - start
            replayed = recovered.applied_seq - checkpoint_seq
            state_match = recovered.digest() == digest_at[k]
            trajectory_match = True
            for i in range(k, n_total):
                recovered.apply(events[i]["op"], events[i])
                recovered.commit()
                if recovered.current_d() != trajectory[i]:
                    trajectory_match = False
            final_match = recovered.digest() == baseline_final_digest
            recovered.close()
        result = KillPointResult(
            kill_point=k,
            replayed=max(0, replayed),
            torn_tail=torn,
            recovery_seconds=recovery_seconds,
            state_match=state_match,
            trajectory_match=trajectory_match,
            final_match=final_match,
        )
        results.append(result)
        registry().counter(
            "chaos.kill_points_ok" if result.ok else "chaos.kill_points_failed"
        ).inc()

    return ChaosReport(
        n_events=n_total,
        kill_points=kill_points,
        results=tuple(results),
        baseline_final_digest=baseline_final_digest,
        baseline_final_d=baseline_final_d,
        baseline_health=baseline_health,
    )
