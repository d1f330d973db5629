"""Observability: metrics, span tracing, run manifests, and reporting.

The package's telemetry layer, used by every subsystem:

- :mod:`repro.obs.metrics` — process-local counters, gauges and
  fixed-bucket histograms, cheap enough to stay on by default;
- :mod:`repro.obs.trace` — ``with span("greedy.assign", clients=n):``
  span tracing emitting JSONL events with monotonic timestamps and
  parent/child nesting;
- :mod:`repro.obs.sink` — pluggable event sinks (null / memory /
  JSONL file), selected via ``--trace`` or ``REPRO_OBS_TRACE``;
- :mod:`repro.obs.manifest` — run manifests (version, config, seeds,
  dataset fingerprint, platform) attached to persisted results;
- :mod:`repro.obs.aggregate` — cross-process snapshot deltas and
  merges (how :class:`~repro.parallel.pool.TrialPool` folds worker
  telemetry back into the parent);
- :mod:`repro.obs.report` — trace summarization behind the
  ``repro obs`` CLI subcommand;
- :mod:`repro.obs.timing` — the :class:`Stopwatch` and
  registry-backed :func:`timed` blocks.

Two invariants every instrumentation site preserves: telemetry never
feeds back into a decision (results are bit-identical with any sink and
any registry), and the disabled path is near-free (a null-sink ``span``
is one identity comparison; counters are single attribute adds).

See ``docs/observability.md`` for a guided tour.
"""

from repro.obs.aggregate import (
    empty_snapshot,
    merge_into_registry,
    merge_snapshots,
    snapshot_delta,
)
from repro.obs.manifest import (
    RunManifest,
    build_manifest,
    current_manifest,
    fingerprint_matrix,
    manifest_scope,
    set_current_manifest,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    registry,
    set_registry,
    use_registry,
)
from repro.obs.memory import (
    PEAK_RSS_GAUGE,
    format_bytes,
    peak_rss_bytes,
    record_peak_rss,
)
from repro.obs.report import TraceSummary, render_summary, summarize, summarize_file
from repro.obs.sink import (
    NULL_SINK,
    JsonlSink,
    MemorySink,
    NullSink,
    Sink,
    open_sink,
    read_jsonl,
    sink_spec_from_env,
)
from repro.obs.timing import Stopwatch, timed
from repro.obs.trace import (
    Span,
    active_sink,
    emit_event,
    install_sink,
    span,
    tracing,
    tracing_enabled,
    uninstall_sink,
)

__all__ = [
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "DEFAULT_BUCKETS",
    "SECONDS_BUCKETS",
    "registry",
    "set_registry",
    "use_registry",
    # trace
    "span",
    "Span",
    "tracing",
    "tracing_enabled",
    "active_sink",
    "install_sink",
    "uninstall_sink",
    "emit_event",
    # sinks
    "Sink",
    "NullSink",
    "MemorySink",
    "JsonlSink",
    "NULL_SINK",
    "open_sink",
    "read_jsonl",
    "sink_spec_from_env",
    # manifest
    "RunManifest",
    "build_manifest",
    "fingerprint_matrix",
    "current_manifest",
    "set_current_manifest",
    "manifest_scope",
    # aggregate
    "empty_snapshot",
    "snapshot_delta",
    "merge_snapshots",
    "merge_into_registry",
    # report
    "TraceSummary",
    "summarize",
    "summarize_file",
    "render_summary",
    # timing
    "Stopwatch",
    "timed",
    # memory
    "PEAK_RSS_GAUGE",
    "peak_rss_bytes",
    "record_peak_rss",
    "format_bytes",
]
