"""Compiled compute kernels for the incremental objective engine.

:class:`~repro.core.incremental.IncrementalObjective` funnels every
heuristic's candidate scoring through four hot loops:

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
  masking on weighted (coreset super-client) instances. Integer
  arithmetic, so its backend parity is exact rather than bit-of-float
  identical.

Two interchangeable implementations exist:

- :mod:`repro.kernels.numpy_backend` — the pure-numpy **twin**. Its
  outputs are bit-identical to the numpy the engine historically
  inlined, so selecting it reproduces the pre-kernel engine byte for
  byte (``tests/core/test_kernel_oracles.py`` checks the rewritten
  bodies against the historical ones).
- :mod:`repro.kernels.numba_backend` — ``@njit``-compiled loops.
  numba is imported lazily, only when this backend is requested (or
  picked by ``"auto"``); ``import repro`` never requires it.

Backends are selected by name — ``"auto"`` (numba when importable,
numpy otherwise), ``"numba"`` (hard requirement, raises
:class:`~repro.errors.KernelBackendError` when absent) or ``"numpy"``
— through :func:`resolve_backend`, which every consumer reaches via
the ``backend=`` knob on the engine, the engine-backed algorithms,
``run_algorithm``, the CLI and :class:`~repro.algorithms.online.OnlineConfig`.

**Parity contract.** Within one matrix dtype the two backends maintain
*bit-identical* engine state: the cached objective D and the per-server
``l`` vectors are maxima of identically-associated float sums, and the
candidate scores use the same evaluation order. The property suite in
``tests/core/test_kernels.py`` drives thousands of random
apply/undo/batch walks asserting exactly that (scores are additionally
documented to tolerate a few ULPs — the engine-wide contract — so a
future backend with a different association stays within spec).
float32 instances agree with their float64 twins to the matrix
rounding, ~1e-6 relative (see ``docs/performance.md``).

Every resolved suite is instrumented: per-kernel call counts and
cumulative seconds land in the observability registry under
``kernel.<backend>.<name>.{calls,seconds}`` and are surfaced by
``repro obs`` as a kernel timing breakdown.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Tuple

from repro.errors import InvalidParameterError, KernelBackendError
from repro.obs.metrics import registry

#: Valid values of every ``backend=`` knob in the package.
BACKEND_CHOICES: Tuple[str, ...] = ("auto", "numba", "numpy")

#: Kernel names a backend module must export.
KERNEL_NAMES: Tuple[str, ...] = (
    "move_context",
    "reduction_top2",
    "topk_select",
    "objective_refresh",
    "weighted_loads",
)

_NUMBA_AVAILABLE: Optional[bool] = None


def numba_available() -> bool:
    """Whether numba can actually be imported (cached after first call).

    A broken installation counts as unavailable — ``"auto"`` must never
    take the package down with it.
    """
    global _NUMBA_AVAILABLE
    if _NUMBA_AVAILABLE is None:
        try:
            import numba  # noqa: F401

            _NUMBA_AVAILABLE = True
        except Exception:
            _NUMBA_AVAILABLE = False
    return _NUMBA_AVAILABLE


def available_backends() -> Tuple[str, ...]:
    """The concrete backends usable in this environment."""
    return ("numba", "numpy") if numba_available() else ("numpy",)


def validate_backend_name(name: str) -> str:
    """Check ``name`` against :data:`BACKEND_CHOICES` and return it."""
    if name not in BACKEND_CHOICES:
        raise InvalidParameterError(
            f"backend must be one of {BACKEND_CHOICES}, got {name!r}"
        )
    return name


class KernelSuite:
    """One resolved backend: a named bundle of the four kernels.

    Instances are cheap veneers; the heavy state (numba's compiled
    dispatchers) lives in the backend modules. Each suite fetches its
    observability instruments at construction time — engines resolve a
    suite per instance, so a swapped registry is honored, mirroring the
    engine's own telemetry discipline.
    """

    __slots__ = (
        "name",
        "move_context",
        "reduction_top2",
        "topk_select",
        "objective_refresh",
        "weighted_loads",
    )

    def __init__(self, name: str, module, *, instrument: bool = True) -> None:
        self.name = name
        metrics = registry() if instrument else None
        for kernel in KERNEL_NAMES:
            fn = getattr(module, kernel)
            if metrics is not None:
                fn = _timed(fn, metrics, f"kernel.{name}.{kernel}")
            setattr(self, kernel, fn)

    def __repr__(self) -> str:
        return f"KernelSuite({self.name!r})"


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


def resolve_backend(name: str = "auto", *, instrument: bool = True) -> KernelSuite:
    """Resolve a backend name to a ready-to-call :class:`KernelSuite`.

    ``"auto"`` prefers numba and silently falls back to the numpy twin;
    ``"numba"`` raises :class:`~repro.errors.KernelBackendError` when
    numba is absent; ``"numpy"`` always works. ``instrument=False``
    skips the per-kernel timing wrappers (benchmarks measuring the raw
    kernels).
    """
    validate_backend_name(name)
    if name == "numpy" or (name == "auto" and not numba_available()):
        from repro.kernels import numpy_backend

        return KernelSuite("numpy", numpy_backend, instrument=instrument)
    if not numba_available():
        raise KernelBackendError(
            "backend 'numba' was requested but numba is not importable; "
            "install numba or use backend='auto'/'numpy'"
        )
    from repro.kernels import numba_backend

    return KernelSuite("numba", numba_backend, instrument=instrument)
