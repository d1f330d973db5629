"""Common algorithm interface, registry, and the run facade.

Every assignment algorithm is a callable
``(problem, *, seed=None) -> Assignment``; those registered callables
are thin shims, so existing scripts that call them directly keep
working. The preferred entry point is :func:`run_algorithm`, which
dispatches by registry name and returns a fully-populated
:class:`~repro.core.results.AssignmentResult` (assignment, objective D,
wall time, candidate-evaluation count, optional modification trace) —
replacing the hand-rolled timing/D bookkeeping that used to live in the
CLI, the experiment runner, and the benchmarks separately.

Capacity handling follows the paper's §IV-E: when the problem instance
carries capacities, each algorithm automatically runs its "capacitated"
variant; no separate entry points are needed.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.core.assignment import Assignment
from repro.core.incremental import count_evaluations
from repro.core.metrics import max_interaction_path_length
from repro.core.problem import ClientAssignmentProblem
from repro.core.results import AssignmentResult
from repro.errors import InvalidParameterError, UnknownAlgorithmError
from repro.obs import SECONDS_BUCKETS, Stopwatch, registry, span

#: Uniform algorithm signature.
AlgorithmFn = Callable[..., Assignment]

#: Optional richer signature returning a result object with extras
#: (e.g. Distributed-Greedy's modification trace).
DetailedFn = Callable[..., Any]

_REGISTRY: Dict[str, AlgorithmFn] = {}
_DETAILED: Dict[str, DetailedFn] = {}


def register(name: str) -> Callable[[AlgorithmFn], AlgorithmFn]:
    """Class decorator registering an algorithm under a CLI/plot name."""

    def decorator(fn: AlgorithmFn) -> AlgorithmFn:
        if name in _REGISTRY:
            raise InvalidParameterError(
                f"algorithm name {name!r} already registered"
            )
        _REGISTRY[name] = fn
        return fn

    return decorator


def register_detailed(name: str) -> Callable[[DetailedFn], DetailedFn]:
    """Register a richer entry point behind the same name.

    The callable must accept the registry signature and return an object
    with an ``assignment`` attribute; :func:`run_algorithm` prefers it
    over the plain shim and forwards trace/extras into the result.
    """

    def decorator(fn: DetailedFn) -> DetailedFn:
        if name in _DETAILED:
            raise InvalidParameterError(
                f"detailed algorithm name {name!r} already registered"
            )
        _DETAILED[name] = fn
        return fn

    return decorator


def get_algorithm(name: str) -> AlgorithmFn:
    """Look up a registered algorithm by name.

    Raises :class:`~repro.errors.UnknownAlgorithmError` (a ``KeyError``
    subclass) listing the available names on a miss.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        available = ", ".join(sorted(_REGISTRY))
        raise UnknownAlgorithmError(
            f"unknown algorithm {name!r}; available: {available}"
        ) from None


def run_algorithm(
    name: str,
    problem: ClientAssignmentProblem,
    *,
    seed: Optional[int] = None,
    **kwargs: Any,
) -> AssignmentResult:
    """Run a registered algorithm and return a unified result.

    Dispatches by registry ``name``, times the call, counts candidate
    objective evaluations (see
    :func:`repro.core.incremental.count_evaluations`), computes the
    objective D once, and — for algorithms registered with a detailed
    entry point — forwards their modification trace and extras.

    Extra keyword arguments are passed through to the algorithm
    (e.g. ``max_rounds`` for hill-climbing).
    """
    fn = _DETAILED.get(name)
    plain = fn is None
    if plain:
        fn = get_algorithm(name)
    else:
        get_algorithm(name)  # validate the name exists in the registry
    with span(
        f"algo.{name}",
        algorithm=name,
        clients=problem.n_clients,
        servers=problem.n_servers,
    ), count_evaluations() as counter, Stopwatch() as watch:
        outcome = fn(problem, seed=seed, **kwargs)
    metrics = registry()
    metrics.counter(f"algo.{name}.runs").inc()
    metrics.counter("algo.evaluations").inc(counter.count)
    metrics.histogram("algo.seconds", SECONDS_BUCKETS).observe(watch.elapsed)
    trace = None
    extras: Dict[str, Any] = {}
    if plain:
        assignment = outcome
    else:
        assignment = outcome.assignment
        trace = tuple(getattr(outcome, "trace", ()) or ()) or None
        for key in ("n_modifications", "n_messages", "converged"):
            if hasattr(outcome, key):
                extras[key] = getattr(outcome, key)
    return AssignmentResult(
        assignment=assignment,
        d=max_interaction_path_length(assignment),
        algorithm=name,
        seed=seed,
        elapsed_seconds=watch.elapsed,
        n_evaluations=counter.count,
        trace=trace,
        extras=extras,
    )


def algorithm_names() -> List[str]:
    """Registered algorithm names, sorted."""
    return sorted(_REGISTRY)


def paper_algorithm_names() -> List[str]:
    """The paper's four heuristics, in the paper's presentation order."""
    return ["nearest-server", "longest-first-batch", "greedy", "distributed-greedy"]
