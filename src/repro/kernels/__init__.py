"""Compute kernels for the incremental objective engine.

:class:`~repro.core.incremental.IncrementalObjective` funnels every
heuristic's candidate scoring through five hot loops:

- **move_context** — the fused per-client candidate scoring behind
  :meth:`~repro.core.incremental.IncrementalObjective.batch_delta_D`
  (home-server exclusion, best-completion lookups, and the ``L(s')``
  path vector in one pass);
- **reduction_top2** — the per-server ``best_in`` / ``best_out``
  completions with their top-2 contributors;
- **topk_select** — top-k farthest-client selection used by the lazy
  per-server list rebuilds;
- **objective_refresh** — the O(|S_used|^2) lazy recomputation of D;
- **weighted_loads** — per-server total client weight for capacity
  masking on weighted (coreset super-client) instances.

They have one implementation, :mod:`repro.kernels.numpy_backend`. Its
outputs are bit-identical to the numpy the engine historically inlined,
so it reproduces the pre-kernel engine byte for byte
(``tests/core/test_kernel_oracles.py`` checks the rewritten bodies
against the historical ones). float32 instances agree with their
float64 twins to the matrix rounding, ~1e-6 relative (see
``docs/performance.md``).

Every suite is instrumented: per-kernel call counts and cumulative
seconds land in the observability registry under
``kernel.numpy.<name>.{calls,seconds}`` and are surfaced by
``repro obs`` as a kernel timing breakdown.
"""

from __future__ import annotations

import time
from typing import Callable, Tuple

from repro.kernels import numpy_backend
from repro.obs.metrics import registry

#: Kernel names :mod:`repro.kernels.numpy_backend` exports.
KERNEL_NAMES: Tuple[str, ...] = (
    "move_context",
    "reduction_top2",
    "topk_select",
    "objective_refresh",
    "weighted_loads",
)


class KernelSuite:
    """The five kernels, each wrapped with call/seconds counters.

    Each suite looks the functions up on
    :mod:`repro.kernels.numpy_backend` and fetches its observability
    instruments at construction time — engines build a suite per
    instance, so a patched module function or a swapped registry is
    honored, mirroring the engine's own telemetry discipline.
    """

    __slots__ = KERNEL_NAMES

    def __init__(self) -> None:
        metrics = registry()
        for kernel in KERNEL_NAMES:
            fn = _timed(
                getattr(numpy_backend, kernel), metrics, f"kernel.numpy.{kernel}"
            )
            setattr(self, kernel, fn)


def _timed(fn: Callable, metrics, prefix: str) -> Callable:
    """Wrap a kernel with call/seconds counters (one add each per call)."""
    calls = metrics.counter(f"{prefix}.calls")
    seconds = metrics.counter(f"{prefix}.seconds")
    perf_counter = time.perf_counter

    def timed(*args):
        start = perf_counter()
        out = fn(*args)
        seconds.inc(perf_counter() - start)
        calls.inc()
        return out

    return timed
