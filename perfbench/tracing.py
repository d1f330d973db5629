"""Per-layer self time from the program's own span tracer.

The layer breakdown rides on :mod:`repro.obs.trace`: the program's
existing spans, plus the ``span(layer)`` wrappers :mod:`layers`
installs around entry points, all close into one :class:`LayerSink`.

A span's **self time** is its duration minus the durations of the
spans nested directly in it, so the self times of all layers add up to
the time spent inside traced code. Spans whose name maps to no layer
are transparent: their self time is charged to the enclosing layer.

With ``sample_path`` the first ``max_spans`` span events are also
written as a JSON-lines trace that ``repro obs`` can summarize.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from typing import Any, Dict, Iterator, Mapping, Optional

from repro.obs import JsonlSink, Sink


class LayerSink(Sink):
    """Adds up self seconds and calls per layer as spans close."""

    def __init__(
        self,
        layer_of: Mapping[str, str],
        *,
        sample_path: Optional[str] = None,
        max_spans: int = 20000,
    ) -> None:
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self._layer_of = layer_of
        # Seconds of layer spans closed inside a still-open span, by id.
        self._covered: Dict[int, float] = {}
        self._sample = JsonlSink(sample_path) if sample_path else None
        self._max_spans = int(max_spans)
        self._paused = False

    def reset(self) -> None:
        """Forget the totals so far (spans still open keep their state)."""
        self.self_seconds.clear()
        self.calls.clear()

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Drop the spans closed inside the block (work outside any layer,
        run while no layer span is open)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def emit(self, event: Dict[str, Any]) -> None:
        if self._paused or event.get("type") != "span":
            return
        covered = self._covered.pop(event["span_id"], 0.0)
        layer = self._layer_of.get(event["name"])
        if layer is None:
            passed = covered
        else:
            duration = event["duration"]
            self.self_seconds[layer] += duration - covered
            self.calls[layer] += 1
            passed = duration
        parent = event["parent_id"]
        if parent is not None and passed:
            self._covered[parent] = self._covered.get(parent, 0.0) + passed
        if self._sample is not None and self._sample.n_events < self._max_spans:
            self._sample.emit(event)

    def close(self) -> None:
        if self._sample is not None:
            self._sample.close()
