"""Trace summarization: per-phase breakdowns and hottest spans.

Consumes the JSONL traces produced by :mod:`repro.obs.trace` (span
events plus the final ``metrics`` and ``manifest`` events the CLI
appends) and rolls them up into a :class:`TraceSummary`:

- **wall time** — the extent of the trace (first span start to last
  span end) and what fraction of it the root spans account for;
- **phase breakdown** — the direct children of the root span, grouped
  by name, with call counts, total time, and share of wall time;
- **hottest spans** — span names ranked by *self time* (duration minus
  the time spent in child spans), which is where optimization effort
  actually lands;
- **merged metrics** — every ``metrics`` event in the trace folded
  together (a parent process plus any worker deltas it already merged).

``repro obs trace.jsonl`` renders this as text via :func:`render_summary`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import DatasetError
from repro.obs.aggregate import Snapshot, empty_snapshot, merge_snapshots
from repro.obs.sink import Event, PathLike, read_jsonl


@dataclass(frozen=True)
class PhaseRow:
    """One named phase (or span group) of the breakdown."""

    name: str
    calls: int
    total_seconds: float
    self_seconds: float
    share_of_wall: float


@dataclass
class TraceSummary:
    """Rolled-up view of one trace file."""

    n_events: int
    n_spans: int
    #: Extent of the trace: last span end minus first span start.
    wall_seconds: float
    #: Summed duration of root spans (no parent).
    root_seconds: float
    #: ``root_seconds / wall_seconds`` — how much of the measured wall
    #: time the span tree accounts for.
    coverage: float
    #: Name of the root span when the trace has exactly one root.
    root_name: Optional[str]
    phases: List[PhaseRow] = field(default_factory=list)
    hottest: List[PhaseRow] = field(default_factory=list)
    metrics: Snapshot = field(default_factory=empty_snapshot)
    manifest: Optional[Dict[str, Any]] = None


def load_trace(path: PathLike) -> List[Event]:
    """Read a JSONL trace file, failing loudly when it has no events."""
    events = read_jsonl(path)
    if not events:
        raise DatasetError(f"{path}: no events found (is this a trace file?)")
    return events


def _group(spans: Sequence[Event], child_time: Dict[int, float], wall: float
           ) -> List[PhaseRow]:
    groups: Dict[str, List[Event]] = {}
    for event in spans:
        groups.setdefault(event["name"], []).append(event)
    rows = []
    for name, members in groups.items():
        total = sum(e["duration"] for e in members)
        self_time = sum(
            e["duration"] - child_time.get(e["span_id"], 0.0) for e in members
        )
        rows.append(
            PhaseRow(
                name=name,
                calls=len(members),
                total_seconds=total,
                self_seconds=self_time,
                share_of_wall=(total / wall) if wall > 0 else 0.0,
            )
        )
    rows.sort(key=lambda r: -r.total_seconds)
    return rows


def summarize(events: Sequence[Event], *, top: int = 10) -> TraceSummary:
    """Roll a list of trace events up into a :class:`TraceSummary`."""
    spans = [e for e in events if e.get("type") == "span"]
    metrics = empty_snapshot()
    manifest: Optional[Dict[str, Any]] = None
    for event in events:
        if event.get("type") == "metrics" and "metrics" in event:
            metrics = merge_snapshots(metrics, event["metrics"])
        elif event.get("type") == "manifest":
            manifest = event.get("manifest")
    if not spans:
        return TraceSummary(
            n_events=len(events),
            n_spans=0,
            wall_seconds=0.0,
            root_seconds=0.0,
            coverage=0.0,
            root_name=None,
            metrics=metrics,
            manifest=manifest,
        )

    start = min(e["start"] for e in spans)
    end = max(e["start"] + e["duration"] for e in spans)
    wall = max(end - start, 0.0)

    child_time: Dict[int, float] = {}
    for event in spans:
        parent = event.get("parent_id")
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + event["duration"]

    roots = [e for e in spans if e.get("parent_id") is None]
    root_seconds = sum(e["duration"] for e in roots)
    coverage = (root_seconds / wall) if wall > 0 else 1.0

    # Phase rows: with a single root, its direct children are the
    # phases (plus the root's own untracked remainder); otherwise the
    # roots themselves are the phases.
    if len(roots) == 1:
        root = roots[0]
        root_name = root["name"]
        children = [e for e in spans if e.get("parent_id") == root["span_id"]]
        phases = _group(children, child_time, wall)
        remainder = root["duration"] - child_time.get(root["span_id"], 0.0)
        if remainder > 0 and phases:
            phases.append(
                PhaseRow(
                    name=f"({root_name} self)",
                    calls=1,
                    total_seconds=remainder,
                    self_seconds=remainder,
                    share_of_wall=(remainder / wall) if wall > 0 else 0.0,
                )
            )
    else:
        root_name = None
        phases = _group(roots, child_time, wall)

    hottest = _group(spans, child_time, wall)
    hottest.sort(key=lambda r: -r.self_seconds)

    return TraceSummary(
        n_events=len(events),
        n_spans=len(spans),
        wall_seconds=wall,
        root_seconds=root_seconds,
        coverage=coverage,
        root_name=root_name,
        phases=phases,
        hottest=hottest[: max(0, top)],
        metrics=metrics,
        manifest=manifest,
    )


def summarize_file(path: PathLike, *, top: int = 10) -> TraceSummary:
    """Load and summarize a JSONL trace file."""
    return summarize(load_trace(path), top=top)


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _rows_table(rows: Sequence[PhaseRow]) -> List[str]:
    name_width = max([len(r.name) for r in rows] + [len("phase")])
    lines = [
        f"  {'phase':<{name_width}}  {'calls':>6}  {'total s':>9}  "
        f"{'self s':>9}  {'% wall':>6}"
    ]
    for row in rows:
        lines.append(
            f"  {row.name:<{name_width}}  {row.calls:>6}  "
            f"{row.total_seconds:>9.4f}  {row.self_seconds:>9.4f}  "
            f"{row.share_of_wall * 100:>5.1f}%"
        )
    return lines


def _metric_lines(metrics: Snapshot) -> List[str]:
    lines: List[str] = []
    counters = metrics.get("counters", {})
    for name in sorted(counters):
        value = counters[name]
        shown = f"{value:.4f}" if isinstance(value, float) else str(value)
        lines.append(f"  {name} = {shown}")
    for name in sorted(metrics.get("gauges", {})):
        lines.append(f"  {name} = {metrics['gauges'][name]} (gauge)")
    for name in sorted(metrics.get("histograms", {})):
        hist = metrics["histograms"][name]
        count = hist["count"]
        mean = (hist["sum"] / count) if count else 0.0
        lines.append(f"  {name}: n={count}, mean={mean:.4g}")
    return lines


def _kernel_lines(metrics: Snapshot) -> List[str]:
    """The compute-kernel timing breakdown, from ``kernel.*`` counters.

    :mod:`repro.kernels` records ``kernel.<backend>.<name>.calls`` and
    ``.seconds`` counter pairs; render them as one row per kernel with
    the mean time per call, so a trace shows at a glance which backend
    ran and where engine time went (see docs/performance.md).
    """
    counters = metrics.get("counters", {})
    rows: List[Tuple[str, str, float, float]] = []
    for name in sorted(counters):
        if not (name.startswith("kernel.") and name.endswith(".calls")):
            continue
        parts = name.split(".")
        if len(parts) != 4:
            continue
        _, backend, kernel, _ = parts
        calls = counters[name]
        seconds = counters.get(f"kernel.{backend}.{kernel}.seconds", 0.0)
        rows.append((backend, kernel, float(calls), float(seconds)))
    if not rows:
        return []
    rows.sort(key=lambda r: (r[0], -r[3]))
    width = max(len(f"{b}.{k}") for b, k, _, _ in rows)
    lines = [
        f"  {'kernel':<{width}}  {'calls':>9}  {'total s':>9}  {'us/call':>9}"
    ]
    for backend, kernel, calls, seconds in rows:
        per_call = (seconds / calls * 1e6) if calls else 0.0
        lines.append(
            f"  {backend + '.' + kernel:<{width}}  {calls:>9.0f}  "
            f"{seconds:>9.4f}  {per_call:>9.1f}"
        )
    return lines


def _memory_lines(metrics: Snapshot) -> List[str]:
    """The memory section: peak RSS plus provider row-synthesis work.

    ``process.peak_rss_bytes`` is the gauge :func:`repro.obs.memory.
    record_peak_rss` snapshots at the end of every CLI run; the
    ``provider.coordinate.*`` counters say how many latency rows were
    synthesized on demand instead of read from a dense matrix — the
    scale pipeline's evidence that no ``|C| x |S|`` block ever existed.
    """
    from repro.obs.memory import PEAK_RSS_GAUGE, format_bytes

    lines: List[str] = []
    peak = metrics.get("gauges", {}).get(PEAK_RSS_GAUGE)
    if peak is not None:
        lines.append(f"  peak RSS: {format_bytes(peak)}")
    counters = metrics.get("counters", {})
    calls = counters.get("provider.coordinate.calls")
    if calls:
        rows = counters.get("provider.coordinate.rows", 0)
        elements = counters.get("provider.coordinate.elements", 0)
        lines.append(
            f"  coordinate provider: {int(calls)} block calls, "
            f"{int(rows)} rows, {int(elements)} elements synthesized"
        )
    return lines


def _scenario_lines(metrics: Snapshot) -> List[str]:
    """The scenario-harness section: per-policy ratios.

    :func:`repro.scenarios.harness.replay_scenario` records
    ``scenarios.replay.<policy>.checkpoints`` / ``.ratio_sum`` counter
    pairs and a ``.max_ratio`` gauge per policy, plus global
    ``scenarios.events`` / ``scenarios.seconds`` throughput counters.
    """
    counters = metrics.get("counters", {})
    gauges = metrics.get("gauges", {})
    prefix = "scenarios.replay."
    rows: List[Tuple[str, float, float, Optional[float]]] = []
    for name in sorted(counters):
        if not (name.startswith(prefix) and name.endswith(".checkpoints")):
            continue
        policy = name[len(prefix):-len(".checkpoints")]
        checkpoints = float(counters[name])
        ratio_sum = float(counters.get(f"{prefix}{policy}.ratio_sum", 0.0))
        max_ratio = gauges.get(f"{prefix}{policy}.max_ratio")
        rows.append((policy, checkpoints, ratio_sum, max_ratio))
    if not rows and not counters.get("scenarios.replays"):
        return []
    lines: List[str] = []
    replays = counters.get("scenarios.replays", 0)
    events = counters.get("scenarios.events", 0)
    seconds = counters.get("scenarios.seconds", 0.0)
    throughput = (events / seconds) if seconds else 0.0
    lines.append(
        f"  {int(replays)} replays, {int(events)} events in "
        f"{seconds:.2f} s ({throughput:.0f} ev/s)"
    )
    if rows:
        width = max([len(p) for p, _, _, _ in rows] + [len("policy")])
        lines.append(
            f"  {'policy':<{width}}  {'checkpoints':>11}  "
            f"{'mean ratio':>10}  {'max ratio':>9}"
        )
        for policy, checkpoints, ratio_sum, max_ratio in rows:
            mean = (ratio_sum / checkpoints) if checkpoints else 0.0
            shown_max = f"{max_ratio:>9.3f}" if max_ratio is not None else (
                " " * 8 + "-")
            lines.append(
                f"  {policy:<{width}}  {checkpoints:>11.0f}  "
                f"{mean:>10.3f}  {shown_max}"
            )
    return lines


def render_summary(summary: TraceSummary) -> str:
    """Human-readable report of a :class:`TraceSummary`."""
    lines = [
        f"trace: {summary.n_events} events, {summary.n_spans} spans, "
        f"wall {summary.wall_seconds:.4f} s"
    ]
    if summary.n_spans:
        root = summary.root_name or "(multiple roots)"
        lines.append(
            f"root span: {root} — {summary.root_seconds:.4f} s, "
            f"{summary.coverage * 100:.1f}% of wall time"
        )
    if summary.phases:
        lines.append("")
        lines.append("per-phase breakdown:")
        lines.extend(_rows_table(summary.phases))
    if summary.hottest:
        lines.append("")
        lines.append(f"hottest spans by self time (top {len(summary.hottest)}):")
        lines.extend(_rows_table(summary.hottest))
    kernel_lines = _kernel_lines(summary.metrics)
    if kernel_lines:
        lines.append("")
        lines.append("kernel timing (per backend):")
        lines.extend(kernel_lines)
    memory_lines = _memory_lines(summary.metrics)
    if memory_lines:
        lines.append("")
        lines.append("memory:")
        lines.extend(memory_lines)
    scenario_lines = _scenario_lines(summary.metrics)
    if scenario_lines:
        lines.append("")
        lines.append("scenarios:")
        lines.extend(scenario_lines)
    metric_lines = _metric_lines(summary.metrics)
    if metric_lines:
        lines.append("")
        lines.append("merged metrics:")
        lines.extend(metric_lines)
    if summary.manifest is not None:
        lines.append("")
        manifest = summary.manifest
        lines.append(
            "manifest: "
            f"command={manifest.get('command', '?')!r}, "
            f"package v{manifest.get('package_version', '?')}, "
            f"dataset {manifest.get('dataset_fingerprint') or 'n/a'}"
        )
    return "\n".join(lines)
