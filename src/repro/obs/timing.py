"""Wall-clock timing helpers, unified with the metrics registry.

:class:`Stopwatch` is the package's historical context-manager timer
(also re-exported from :mod:`repro.utils`). :func:`timed` couples a
stopwatch to the registry: the elapsed time lands in a named histogram
(and an optional counter pair) so repeated timings aggregate without any
caller-side bookkeeping.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator, Optional, Sequence

from repro.obs.metrics import SECONDS_BUCKETS, registry


class Stopwatch:
    """A tiny context-manager stopwatch.

    Example::

        with Stopwatch() as sw:
            run_algorithm()
        print(sw.elapsed)
    """

    def __init__(self) -> None:
        self._start: Optional[float] = None
        self._elapsed: float = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._start is not None:
            self._elapsed = time.perf_counter() - self._start
            self._start = None

    @property
    def elapsed(self) -> float:
        """Seconds elapsed; live while running, frozen after exit."""
        if self._start is not None:
            return time.perf_counter() - self._start
        return self._elapsed


@contextmanager
def timed(
    name: str, *, bounds: Optional[Sequence[float]] = None
) -> Iterator[Stopwatch]:
    """Time a block and record the elapsed seconds in the registry.

    The duration is observed into histogram ``name`` (default bounds:
    :data:`~repro.obs.metrics.SECONDS_BUCKETS`). The yielded
    :class:`Stopwatch` exposes ``elapsed`` to the caller as before.
    """
    watch = Stopwatch()
    with watch:
        yield watch
    registry().histogram(
        name, SECONDS_BUCKETS if bounds is None else bounds
    ).observe(watch.elapsed)
