"""Instance evaluation and multi-run aggregation.

The unit of work is *evaluate one problem instance with one or more
algorithms*: compute the super-optimal lower bound once, run each
algorithm, and record raw D, normalized interactivity, and wall time.
Multi-run helpers sweep placements (the paper averages 1000 random
placements per data point) with per-run derived seeds so any single run
is independently reproducible.

Trials are expressed as :class:`PlacementTrial` tasks executed through
:mod:`repro.parallel` — inline by default, fanned out across worker
processes when the caller supplies a :class:`~repro.parallel.TrialPool`
with ``workers > 0``. Both paths run the same
:func:`run_placement_trial` function on the same derived seeds, so
results are bit-identical regardless of worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms import run_algorithm
from repro.core import ClientAssignmentProblem, interaction_lower_bound
from repro.net.latency import LatencyMatrix
from repro.parallel import TrialPool
from repro.parallel.pool import TrialOutcome, run_trials
from repro.placement import kcenter_a, kcenter_b, random_placement
from repro.utils.rng import derive_seed

#: Placement strategies by experiment name.
PLACEMENTS = {
    "random": random_placement,
    "k-center-a": kcenter_a,
    "k-center-b": kcenter_b,
}

PLACEMENT_NAMES = tuple(PLACEMENTS)


def build_instance(
    matrix: LatencyMatrix,
    placement: str,
    n_servers: int,
    seed: Optional[int],
    *,
    capacity: Optional[int] = None,
) -> Tuple[ClientAssignmentProblem, float]:
    """One sweep coordinate's problem and its §V lower bound.

    Places ``n_servers`` servers with the named strategy, builds the
    problem (capacitated when ``capacity`` is given) and computes the
    lower bound of the *uncapacitated* instance, which the bound ignores
    capacities for (paper §III).
    """
    servers = PLACEMENTS[placement](matrix, n_servers, seed=seed)
    problem = ClientAssignmentProblem(matrix, servers)
    lower_bound = float(interaction_lower_bound(problem))
    if capacity is not None:
        problem = problem.with_capacity(capacity)
    return problem, lower_bound


@dataclass(frozen=True)
class AlgorithmScore:
    """One algorithm's result on one instance."""

    algorithm: str
    max_path_length: float
    normalized: float
    seconds: float
    #: Candidate (client, server) objective evaluations performed.
    n_evaluations: int = 0


@dataclass(frozen=True)
class InstanceResult:
    """All algorithms' results on one instance."""

    lower_bound: float
    scores: Tuple[AlgorithmScore, ...]

    def normalized(self) -> Dict[str, float]:
        """``{algorithm: normalized interactivity}``."""
        return {s.algorithm: s.normalized for s in self.scores}


def evaluate_instance(
    problem: ClientAssignmentProblem,
    algorithms: Sequence[str],
    *,
    seed: Optional[int] = None,
    lower_bound: Optional[float] = None,
) -> InstanceResult:
    """Run the named algorithms on one instance and score them.

    ``lower_bound`` can be supplied to avoid recomputation when several
    capacity settings share a placement (the bound ignores capacities).
    """
    if lower_bound is None:
        lower_bound = interaction_lower_bound(problem)
    scores: List[AlgorithmScore] = []
    for name in algorithms:
        result = run_algorithm(name, problem, seed=seed)
        scores.append(
            AlgorithmScore(
                algorithm=name,
                max_path_length=result.d,
                normalized=result.d / lower_bound,
                seconds=result.elapsed_seconds,
                n_evaluations=result.n_evaluations,
            )
        )
    return InstanceResult(lower_bound=lower_bound, scores=tuple(scores))


# ----------------------------------------------------------------------
# Trial tasks
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlacementTrial:
    """One instance evaluation at one sweep coordinate.

    Fully self-describing and picklable: a worker process needs only
    this task plus the shared latency matrix to reproduce the trial.
    ``seed`` is the *already-derived* per-trial seed — deriving in the
    caller keeps seed streams byte-compatible with the historical
    serial loops no matter how trials are batched or distributed.
    """

    #: Sweep coordinate the trial aggregates under (server count,
    #: capacity, run index — whatever the sweep's x-axis is).
    x: int
    placement: str
    n_servers: int
    algorithms: Tuple[str, ...]
    seed: Optional[int]
    capacity: Optional[int] = None


def run_placement_trial(
    matrix: LatencyMatrix, trial: PlacementTrial
) -> InstanceResult:
    """Execute one placement trial (the worker-side entry point)."""
    problem, lower_bound = build_instance(
        matrix,
        trial.placement,
        trial.n_servers,
        trial.seed,
        capacity=trial.capacity,
    )
    return evaluate_instance(
        problem, trial.algorithms, seed=trial.seed, lower_bound=lower_bound
    )


def placement_trials(
    placement: str,
    n_servers: int,
    algorithms: Sequence[str],
    *,
    n_runs: int,
    seed: int,
    capacity: Optional[int] = None,
    x: Optional[int] = None,
) -> List[PlacementTrial]:
    """The trial tasks behind one (placement, server-count) coordinate.

    Random placement draws ``n_runs`` independent server sets; the
    deterministic K-center placements run once (additional runs would
    be identical, matching the paper's single-curve presentation).
    """
    if placement not in PLACEMENTS:
        raise KeyError(
            f"unknown placement {placement!r}; available: {PLACEMENT_NAMES}"
        )
    effective_runs = n_runs if placement == "random" else 1
    placement_tag = PLACEMENT_NAMES.index(placement)  # stable across runs
    coordinate = (n_servers if capacity is None else capacity) if x is None else x
    return [
        PlacementTrial(
            x=coordinate,
            placement=placement,
            n_servers=n_servers,
            algorithms=tuple(algorithms),
            seed=derive_seed(seed, n_servers, run, placement_tag),
            capacity=capacity,
        )
        for run in range(effective_runs)
    ]


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepPoint:
    """Aggregated normalized interactivity at one sweep coordinate."""

    #: The sweep coordinate (number of servers, capacity, ...).
    x: int
    #: Per-algorithm mean normalized interactivity.
    mean: Dict[str, float]
    #: Per-algorithm standard deviation (zero for single-run points).
    std: Dict[str, float]
    #: Number of runs aggregated.
    n_runs: int


def aggregate_point(
    x: int, results: Sequence[InstanceResult], algorithms: Sequence[str]
) -> SweepPoint:
    """Collapse one coordinate's instance results into a sweep point."""
    means: Dict[str, float] = {}
    stds: Dict[str, float] = {}
    for name in algorithms:
        values = np.array([r.normalized()[name] for r in results])
        means[name] = float(values.mean())
        stds[name] = float(values.std())
    return SweepPoint(x=x, mean=means, std=stds, n_runs=len(results))


def aggregate_sweep(
    trials: Sequence[PlacementTrial],
    outcomes: Sequence[TrialOutcome],
    algorithms: Sequence[str],
) -> List[SweepPoint]:
    """Group trial outcomes by coordinate into ordered sweep points.

    Coordinates appear in first-submission order. Failed trials are
    excluded from aggregation (their runs simply don't contribute);
    a coordinate whose trials *all* failed raises
    :class:`~repro.errors.TrialExecutionError` via
    :func:`~repro.parallel.pool.successful_values` semantics.
    """
    from repro.errors import TrialExecutionError

    by_x: Dict[int, List[InstanceResult]] = {}
    failures: Dict[int, int] = {}
    order: List[int] = []
    for trial, outcome in zip(trials, outcomes):
        if trial.x not in by_x:
            by_x[trial.x] = []
            failures[trial.x] = 0
            order.append(trial.x)
        if outcome.ok:
            by_x[trial.x].append(outcome.value)
        else:
            failures[trial.x] += 1
    points: List[SweepPoint] = []
    for x in order:
        if not by_x[x]:
            raise TrialExecutionError(
                f"all {failures[x]} trial(s) at sweep coordinate x={x} failed"
            )
        points.append(aggregate_point(x, by_x[x], algorithms))
    return points


def run_placement_sweep(
    matrix: LatencyMatrix,
    placement: str,
    n_servers: int,
    algorithms: Sequence[str],
    *,
    n_runs: int,
    seed: int,
    capacity: Optional[int] = None,
    pool: Optional[TrialPool] = None,
) -> Tuple[SweepPoint, List[InstanceResult]]:
    """Evaluate algorithms at one (placement, server-count) coordinate.

    With a ``pool``, the runs execute as parallel trials; results are
    identical to the serial default.
    """
    trials = placement_trials(
        placement,
        n_servers,
        algorithms,
        n_runs=n_runs,
        seed=seed,
        capacity=capacity,
    )
    outcomes = run_trials(
        run_placement_trial, trials, matrix=matrix, pool=pool
    )
    (point,) = aggregate_sweep(trials, outcomes, algorithms)
    results = [o.value for o in outcomes if o.ok]
    return point, results
