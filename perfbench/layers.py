"""Which program functions and spans belong to which layer.

Each installer wraps the layer entry points of one path in
``repro.obs.span(layer)``; :data:`LAYER_OF_SPAN` also maps the spans
the program already opens to their layers. Nested calls are attributed
by self time (see :mod:`tracing`), so a policy decision that asks the
engine for candidate costs is charged to ``policy`` only for its own
work and to ``engine``/``kernels`` for the rest.
"""

from __future__ import annotations

import functools
import os
import sys
from typing import Any, Callable, Iterable, List

from common import ALL_LAYERS
from repro.obs import span

#: Span name -> layer: the wrappers below (named after their layer) and
#: the program's own spans on the measured paths.
LAYER_OF_SPAN = {
    **{layer: layer for layer in ALL_LAYERS},
    "greedy.assign": "heuristic",
    "lfb.assign": "heuristic",
    "scale.coreset": "coreset",
    "scale.reduce_solve": "heuristic",
    "scale.expand": "objective",
}

ENGINE_METHODS = (
    "__init__",
    "d",
    "candidate_paths",
    "delta_D",
    "batch_delta_D",
    "apply",
    "assign",
    "assign_many",
    "unassign",
    "undo",
    "l_vectors",
    "server_reductions",
    "assignment",
)

_missing: List[str] = []


def _traced(fn: Callable, layer: str) -> Callable:
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        with span(layer):
            return fn(*args, **kwargs)

    return traced


def patch(owner: Any, attr: str, layer: str) -> None:
    """Trace ``owner.attr`` as ``layer``.

    A target the program does not (or no longer) define is skipped and
    reported on standard error, so a rename reads as a zero layer
    instead of breaking the benchmark.
    """
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(
        owner, attr, None
    )
    if raw is None or isinstance(raw, (staticmethod, classmethod, property)):
        _missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return
    setattr(owner, attr, _traced(raw, layer))


def patch_methods(cls: type, names: Iterable[str], layer: str) -> None:
    for name in names:
        patch(cls, name, layer)


def _warn_missing() -> None:
    if _missing:
        print(
            "perfbench: not traced (not defined by the program): "
            + ", ".join(_missing),
            file=sys.stderr,
        )


def _install_engine() -> None:
    """The incremental objective engine and its kernel backends."""
    from repro import kernels
    from repro.core.incremental import IncrementalObjective
    from repro.kernels import numpy_backend

    patch_methods(IncrementalObjective, ENGINE_METHODS, "engine")
    # Kernel suites bind the backend module's functions when an engine
    # is built, so patching the module covers every later engine.
    for name in kernels.KERNEL_NAMES:
        patch(numpy_backend, name, "kernels")


def install_serve() -> None:
    """frame decode -> session dispatch -> runtime -> WAL append/fsync
    -> policy decision -> engine update -> envelope encode."""
    from repro.algorithms import policies
    from repro.algorithms.online import OnlineAssignmentManager
    from repro.faults.failover import FailoverController
    from repro.resilience.runtime import DurableRuntime
    from repro.resilience.wal import WriteAheadLog
    from repro.service import server
    from repro.service.core import AssignmentService, Session

    patch(server, "decode_frame", "decode")
    patch(server, "encode_frame", "encode")
    patch(Session, "_event_envelope", "encode")
    patch(AssignmentService, "handle", "dispatch")
    event_methods = (
        "join",
        "leave",
        "crash",
        "recover_server",
        "partition",
        "heal",
        "rebalance",
    )
    patch_methods(DurableRuntime, event_methods, "runtime")
    patch_methods(OnlineAssignmentManager, ("join", "leave", "rebalance"), "runtime")
    patch(DurableRuntime, "checkpoint", "checkpoint")
    patch_methods(WriteAheadLog, ("append", "sync"), "wal_append")
    patch(os, "fsync", "fsync")
    patch_methods(FailoverController, ("on_crash", "on_recover"), "failover")
    for cls in [policies.OnlinePolicy, *policies.OnlinePolicy.__subclasses__()]:
        for name in ("choose_server", "maintain"):
            if name in cls.__dict__:
                patch(cls, name, "policy")
    _install_engine()
    _warn_missing()


def install_solve() -> None:
    """dataset -> problem views -> lower bound -> heuristic -> engine
    kernels -> D; the coreset stages come from the program's own
    ``scale.*`` spans."""
    from repro.core.problem import ClientAssignmentProblem
    from repro.net.provider import CoordinateProvider

    patch_methods(
        CoordinateProvider,
        (
            "distance",
            "client_server_distances",
            "server_client_distances",
            "server_server_distances",
            "materialize",
        ),
        "dataset",
    )
    patch(ClientAssignmentProblem, "__init__", "views")
    _install_engine()
    _warn_missing()
