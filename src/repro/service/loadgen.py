"""Sustained churn load generation against a live assignment server.

:func:`run_loadgen` opens a session over TCP, streams a seeded event
sequence (:mod:`repro.service.workload`) through pipelined ``batch``
requests, and reports throughput (events/sec) and batch round-trip
latency percentiles. Latencies also land in the obs registry
(``service.loadgen.batch_seconds`` histogram), so a run folds into the
same metrics surface as everything else in the repo.

With ``verify=True`` the driver closes the loop on the equivalence
contract: it replays the identical events in-process
(:mod:`repro.service.replay`) and asserts the server's final state
digest and the full reply trajectory match byte for byte — the CI
smoke job runs exactly this against a just-started server.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import ServiceError
from repro.obs import SECONDS_BUCKETS, registry, span
from repro.service.client import ServiceClient
from repro.service.core import SessionConfig
from repro.service.replay import replay_events, trajectory_digest
from repro.service.workload import generate_events


@dataclass(frozen=True)
class LoadgenReport:
    """Result of one load-generation run."""

    n_events: int
    n_batches: int
    elapsed_seconds: float
    events_per_second: float
    p50_ms: float
    p99_ms: float
    max_ms: float
    outcomes: Dict[str, int] = field(default_factory=dict)
    digest: Optional[str] = None
    verified: Optional[bool] = None

    def render(self) -> str:
        lines = [
            f"events          {self.n_events}",
            f"batches         {self.n_batches}",
            f"elapsed         {self.elapsed_seconds:.3f} s",
            f"throughput      {self.events_per_second:,.0f} events/s",
            f"batch p50       {self.p50_ms:.3f} ms",
            f"batch p99       {self.p99_ms:.3f} ms",
            f"batch max       {self.max_ms:.3f} ms",
        ]
        for outcome in sorted(self.outcomes):
            lines.append(f"  {outcome:<14}{self.outcomes[outcome]}")
        if self.digest is not None:
            lines.append(f"digest          {self.digest}")
        if self.verified is not None:
            lines.append(
                "equivalence     "
                + ("VERIFIED (wire == library)" if self.verified else "FAILED")
            )
        return "\n".join(lines)


def _percentile(sorted_samples: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sample list."""
    if not sorted_samples:
        return 0.0
    rank = max(0, min(len(sorted_samples) - 1, int(q * len(sorted_samples))))
    return sorted_samples[rank]


def run_loadgen(
    host: str,
    port: int,
    *,
    n_events: int = 10_000,
    batch_size: int = 200,
    pipeline_depth: int = 8,
    seed: int = 0,
    session_params: Optional[Dict[str, Any]] = None,
    fault_every: int = 0,
    partition_every: int = 0,
    rebalance_every: int = 0,
    join_probability: float = 0.7,
    verify: bool = False,
    keep_session: bool = False,
) -> LoadgenReport:
    """Drive a seeded churn burst through a live server.

    Parameters
    ----------
    n_events, batch_size, pipeline_depth:
        Total events, events per ``batch`` request, and how many batch
        requests to keep in flight at once.
    seed, fault_every, partition_every, rebalance_every, join_probability:
        Forwarded to :func:`repro.service.workload.generate_events`.
    session_params:
        ``open_session`` wire parameters (matrix spec, capacity,
        durability mode, ...).
    verify:
        Replay the same events in-process and compare the final state
        digest *and* the per-event reply trajectory byte for byte.
        Raises :class:`~repro.errors.ServiceError` on divergence.
    keep_session:
        Leave the session open on the server after the run.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if pipeline_depth < 1:
        raise ValueError(f"pipeline_depth must be >= 1, got {pipeline_depth}")
    params = dict(session_params or {})
    metrics = registry()
    with ServiceClient(host, port) as client:
        opened = client.open_session(**params)
        session = opened["session"]
        servers = [int(s) for s in opened["servers"]]
        config = SessionConfig.from_dict(
            client.query(session, "config")["config"]
        )
        events = generate_events(
            config.nodes,
            servers,
            n_events=n_events,
            seed=seed,
            join_probability=join_probability,
            fault_every=fault_every,
            partition_every=partition_every,
            rebalance_every=rebalance_every,
        )
        batches = [
            events[i : i + batch_size]
            for i in range(0, len(events), batch_size)
        ]
        latencies: List[float] = []
        trajectory: List[Dict[str, Any]] = []
        outcomes: Dict[str, int] = {}
        histogram = metrics.histogram(
            "service.loadgen.batch_seconds", SECONDS_BUCKETS
        )
        # Pipelined request/reply: keep `pipeline_depth` batches on the
        # wire; each recv() is matched FIFO to its send time.
        sent_at: List[float] = []
        next_batch = 0
        with span("service.loadgen", n_events=n_events, seed=seed):
            started = time.perf_counter()
            while next_batch < len(batches) or sent_at:
                while (
                    next_batch < len(batches)
                    and len(sent_at) < pipeline_depth
                ):
                    client.send(
                        "batch", session=session, events=batches[next_batch]
                    )
                    sent_at.append(time.perf_counter())
                    next_batch += 1
                reply = client.recv()
                elapsed = time.perf_counter() - sent_at.pop(0)
                latencies.append(elapsed)
                histogram.observe(elapsed)
                results = ServiceClient.unwrap(reply)["results"]
                trajectory.extend(results)
                for entry in results:
                    outcome = entry.get("outcome")
                    if outcome is not None:
                        outcomes[outcome] = outcomes.get(outcome, 0) + 1
            total = time.perf_counter() - started
        digest = client.query(session, "digest")["digest"]
        verified: Optional[bool] = None
        if verify:
            verified = _verify(client, session, config, events, trajectory, digest)
        if not keep_session:
            client.close_session(session)
    metrics.counter("service.loadgen.events").inc(len(events))
    latencies.sort()
    return LoadgenReport(
        n_events=len(events),
        n_batches=len(batches),
        elapsed_seconds=total,
        events_per_second=(len(events) / total) if total > 0 else 0.0,
        p50_ms=_percentile(latencies, 0.50) * 1e3,
        p99_ms=_percentile(latencies, 0.99) * 1e3,
        max_ms=(latencies[-1] * 1e3) if latencies else 0.0,
        outcomes=outcomes,
        digest=digest,
        verified=verified,
    )


def _verify(
    client: ServiceClient,
    session: str,
    config: SessionConfig,
    events: List[Dict[str, Any]],
    wire_trajectory: List[Dict[str, Any]],
    wire_digest: str,
) -> bool:
    """In-process replay + byte-for-byte comparison; raises on mismatch."""
    result = replay_events(config.build_matrix(), config, events)
    lib_digest = result.digest
    lib_traj = trajectory_digest(result.trajectory)
    wire_traj = trajectory_digest(wire_trajectory)
    if lib_digest != wire_digest or lib_traj != wire_traj:
        detail = {
            "state_digest": {"wire": wire_digest, "library": lib_digest},
            "trajectory_digest": {"wire": wire_traj, "library": lib_traj},
        }
        raise ServiceError(
            "wire and library paths diverged: "
            + json.dumps(detail, sort_keys=True)
        )
    return True


__all__ = ["LoadgenReport", "run_loadgen"]
