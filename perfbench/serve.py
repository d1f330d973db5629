"""Online serve workloads: the program's load generator, pass after pass.

A server process (``server_host.py``) hosts the assignment service. A
*pass* is one :func:`repro.service.run_loadgen` burst against it: a
fresh session, the seeded churn of
:func:`repro.service.workload.generate_events` streamed as pipelined
``batch`` requests, the final state digest, and the session's close.
Passes repeat until their measured time (loadgen's own timer) reaches
the window; the pass running at that point is finished.

The traffic is the burst the repository's CI service smoke job checks
against a live server: the ``repro loadgen`` session defaults (a
120-node Meridian-like matrix, 8 servers, no capacity), 250 events per
batch, 8 batches in flight, a crash or recovery every 211 events, a
partition or heal every 307 and a bounded rebalance every 401;
``PASS_EVENTS`` is that job's burst length per durability mode.

Correctness: every batch and every event in it must succeed; the first
pass runs with ``verify=True``, so its full reply trajectory and final
digest are compared with the program's independent library replayer;
every later pass must end in that pass's digest.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, Optional

from common import (
    ROOT,
    SETUP_REPEATS,
    end_to_end_metrics,
    per_layer_metrics,
    result,
    work_dir,
)
from repro.errors import ServiceError
from repro.obs import MetricsRegistry, use_registry
from repro.service import ServiceClient, run_loadgen

HERE = os.path.dirname(os.path.abspath(__file__))
HOST = "127.0.0.1"

SESSION = {"nodes": 120, "kind": "meridian", "n_servers": 8, "capacity": None}
TRAFFIC = {
    "batch_size": 250,
    "pipeline_depth": 8,
    "fault_every": 211,
    "partition_every": 307,
    "rebalance_every": 401,
}
PASS_EVENTS = {"off": 20000, "wal": 5000}
BATCH_HISTOGRAM = "service.loadgen.batch_seconds"


class ServerHost:
    """A ``server_host.py`` child process."""

    def __init__(self, base_dir: str, *, trace: bool, spans: Optional[str]) -> None:
        command = [
            sys.executable,
            os.path.join(HERE, "server_host.py"),
            "--base-dir",
            base_dir,
            "--trace",
            "1" if trace else "0",
        ]
        if spans:
            command += ["--spans", spans]
        self._proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT
        )
        line = self._proc.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError(f"server host failed to start: {line!r}")
        self.port = int(line.split()[1])

    def command(self, line: str) -> Dict[str, Any]:
        """Run a control command on the server; returns its answer."""
        self._proc.stdin.write(line + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply.startswith("DONE "):
            raise RuntimeError(f"unexpected server answer: {reply!r}")
        return json.loads(reply[len("DONE ") :])

    def close(self) -> None:
        if not self._proc.stdin.closed:
            self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def run(durability: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    state_dir = tempfile.mkdtemp(prefix="serve-", dir=work_dir())
    params = dict(SESSION, durability=durability, matrix_seed=seed, placement_seed=seed)
    spans = (
        os.path.join(work_dir(), f"spans-serve-{durability}-{seed}.jsonl")
        if trace
        else None
    )
    host: Optional[ServerHost] = None
    try:
        setup_times = []
        for repeat in range(SETUP_REPEATS):
            if host is not None:
                host.close()
            started = time.perf_counter()
            host = ServerHost(
                os.path.join(state_dir, f"state{repeat}"), trace=trace, spans=spans
            )
            with ServiceClient(HOST, host.port) as client:
                opened = client.open_session(**params)
                setup_times.append(time.perf_counter() - started)
                client.close_session(opened["session"])

        if trace:
            host.command("reset")
        loadgen_metrics = MetricsRegistry()
        reports = []
        measured = 0.0
        diverged = False
        with use_registry(loadgen_metrics):
            while measured < seconds:
                try:
                    report = run_loadgen(
                        HOST,
                        host.port,
                        n_events=PASS_EVENTS[durability],
                        seed=seed,
                        session_params=params,
                        verify=not reports,
                        **TRAFFIC,
                    )
                except ServiceError as exc:
                    print(f"perfbench: pass failed: {exc}", file=sys.stderr)
                    diverged = True
                    break
                reports.append(report)
                measured += report.elapsed_seconds
        server = host.command("report")
        host.close()
        host = None

        events = sum(report.n_events for report in reports)
        answered = sum(sum(report.outcomes.values()) for report in reports)
        if diverged or not reports:
            return result(
                correct=False,
                attempted=max(events, 1),
                failed=max(events - answered, 1),
                metrics={},
            )
        correct = reports[0].verified is True and all(
            report.digest == reports[0].digest for report in reports
        )
        batches = loadgen_metrics.histogram(BATCH_HISTOGRAM)
        if trace:
            metrics = per_layer_metrics(
                layer_seconds=server["layer_seconds"],
                layer_calls=server["layer_calls"],
                ops=batches.count,
                items=answered,
                measured_seconds=measured,
            )
        else:
            metrics = end_to_end_metrics(
                items=answered,
                measured_seconds=measured,
                latency_seconds=batches.mean,
                setup_seconds=setup_times,
                rss_mib=server["peak_rss_mib"],
            )
        return result(
            correct=correct, attempted=events, failed=events - answered, metrics=metrics
        )
    finally:
        if host is not None:
            host.close()
        shutil.rmtree(state_dir, ignore_errors=True)
