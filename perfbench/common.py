"""Metric definitions and result assembly shared by every workload.

Importing this module puts ``src/`` of the checkout first on
``sys.path``, so every workload module imports the program under test
from the checkout it runs in.

End-to-end metrics (reported with tracing off):

- ``throughput``: work items completed per second of measured time
  (serve: events answered; solve: clients assigned).
- ``latency_ms``: mean per-operation latency (serve: one pipelined
  ``batch`` request's round trip; solve: one instance solved end to
  end). A mean, not a median: with 8 batches in flight a round trip is
  mostly the wait behind the batches ahead of it, spread so widely that
  the median wanders between runs more than the run's total time does.
  By Little's law the mean is about pipeline depth x measured time /
  batches, as steady as ``throughput`` (see ``README.md``).
- ``peak_rss_mib``: peak resident memory of the process doing the work
  (serve: the server process; solve: the benchmark process).
- ``setup_s``: median of the workload's repeated set-up.

Per-layer metrics (reported with tracing on) are milliseconds of layer
*self time* per operation; together with ``unattributed_ms`` they add
up to ``wall_ms``, the measured time divided by the operation count.
Layers not on a workload's path read 0.
"""

from __future__ import annotations

import os
import statistics
import sys
from typing import Dict, List, Mapping

#: Root of the checkout the benchmark runs in.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Layers of the online serve path, in request order.
SERVE_LAYERS = (
    "decode",
    "dispatch",
    "runtime",
    "wal_append",
    "fsync",
    "checkpoint",
    "failover",
    "policy",
    "engine",
    "kernels",
    "encode",
)

#: Layers of the offline solve path, in pipeline order (``engine`` and
#: ``kernels`` are shared with the serve path).
SOLVE_LAYERS = (
    "dataset",
    "views",
    "lower_bound",
    "coreset",
    "heuristic",
    "engine",
    "kernels",
    "objective",
)

ALL_LAYERS = tuple(dict.fromkeys(SERVE_LAYERS + SOLVE_LAYERS))

#: Layers whose call counts are reported (calls per operation).
COUNTED_LAYERS = ("wal_append", "fsync", "checkpoint", "policy", "engine", "kernels")


def work_dir() -> str:
    """Directory (inside the checkout) for run state and span samples."""
    path = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(path, exist_ok=True)
    return path


def peak_rss_mib() -> float:
    """Peak resident set size of this process, in MiB."""
    from repro.obs import peak_rss_bytes

    return peak_rss_bytes() / 2**20


def end_to_end_metrics(
    *,
    items: int,
    measured_seconds: float,
    latency_seconds: float,
    setup_seconds: List[float],
    rss_mib: float,
) -> Dict[str, Dict[str, float]]:
    return {
        "throughput": {"value": items / measured_seconds, "unit": "1/s"},
        "latency_ms": {"value": latency_seconds * 1e3, "unit": "ms"},
        "peak_rss_mib": {"value": rss_mib, "unit": "MiB"},
        "setup_s": {"value": statistics.median(setup_seconds), "unit": "s"},
    }


def per_layer_metrics(
    *,
    layer_seconds: Mapping[str, float],
    layer_calls: Mapping[str, int],
    ops: int,
    items: int,
    measured_seconds: float,
) -> Dict[str, Dict[str, float]]:
    per_op_ms = 1e3 / ops
    metrics: Dict[str, Dict[str, float]] = {}
    attributed = 0.0
    for layer in ALL_LAYERS:
        seconds = float(layer_seconds.get(layer, 0.0))
        attributed += seconds
        metrics[f"{layer}_ms"] = {"value": seconds * per_op_ms, "unit": "ms"}
    metrics["unattributed_ms"] = {
        "value": (measured_seconds - attributed) * per_op_ms,
        "unit": "ms",
    }
    metrics["wall_ms"] = {"value": measured_seconds * per_op_ms, "unit": "ms"}
    for layer in COUNTED_LAYERS:
        metrics[f"{layer}_calls"] = {
            "value": layer_calls.get(layer, 0) / ops,
            "unit": "calls/op",
        }
    metrics["ops"] = {"value": ops, "unit": "count"}
    metrics["traced_throughput"] = {
        "value": items / measured_seconds,
        "unit": "1/s",
    }
    return metrics


def result(
    *, correct: bool, attempted: int, failed: int, metrics: Mapping[str, object]
) -> Dict[str, object]:
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": dict(metrics),
    }
