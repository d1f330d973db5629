"""Per-figure data-series generators (paper §V, Figs. 7-10).

Each ``figN`` function regenerates the data behind the corresponding
figure as plain dataclasses of numbers — the benchmark harness and CLI
render them as text tables; plotting is deliberately out of scope (no
matplotlib dependency).

All functions take an :class:`~repro.experiments.config.ExperimentProfile`
so the same code runs at test, laptop, or paper scale, and an optional
:class:`~repro.parallel.TrialPool` to fan the figure's trials out across
worker processes. Each figure flattens its *entire* trial grid (all
x-coordinates x all runs) into one batch before submission, so a pool
with N workers stays busy even when individual coordinates have few
runs. Results are bit-identical with and without a pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms import distributed_greedy_detailed, paper_algorithm_names
from repro.errors import TrialExecutionError
from repro.experiments.config import ExperimentProfile
from repro.experiments.runner import (
    PLACEMENT_NAMES,
    PlacementTrial,
    SweepPoint,
    aggregate_sweep,
    build_instance,
    placement_trials,
    run_placement_trial,
)
from repro.net.latency import LatencyMatrix
from repro.obs import span
from repro.parallel import TrialPool
from repro.parallel.pool import run_trials
from repro.utils.rng import derive_seed


def dataset_for(profile: ExperimentProfile) -> LatencyMatrix:
    """The profile's synthetic latency matrix (deterministic per seed)."""
    from repro.datasets import synthesize_meridian_like, synthesize_mit_like
    from repro.obs import current_manifest, fingerprint_matrix

    if profile.dataset == "mit":
        matrix = synthesize_mit_like(profile.n_nodes, seed=profile.seed)
    else:
        matrix = synthesize_meridian_like(profile.n_nodes, seed=profile.seed)
    # Stamp the ambient run manifest (installed by the CLI) with the
    # dataset's content fingerprint the first time it is generated.
    manifest = current_manifest()
    if manifest is not None and manifest.dataset_fingerprint is None:
        manifest.dataset_fingerprint = fingerprint_matrix(matrix)
    return matrix


# ----------------------------------------------------------------------
# Fig. 7 — normalized interactivity vs number of servers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig7Series:
    """One panel of Fig. 7 (one placement strategy)."""

    placement: str
    points: Tuple[SweepPoint, ...]

    def series(self, algorithm: str) -> List[float]:
        """Mean normalized interactivity by server count, for plotting."""
        return [p.mean[algorithm] for p in self.points]

    @property
    def server_counts(self) -> List[int]:
        return [p.x for p in self.points]


def fig7(
    profile: ExperimentProfile,
    placement: str = "random",
    *,
    algorithms: Optional[Sequence[str]] = None,
    matrix: Optional[LatencyMatrix] = None,
    pool: Optional[TrialPool] = None,
) -> Fig7Series:
    """Fig. 7 panel: interactivity vs server count for one placement.

    ``placement`` is ``random`` (panel a, averaged over
    ``profile.n_random_runs`` placements), ``k-center-a`` (b) or
    ``k-center-b`` (c).
    """
    if algorithms is None:
        algorithms = paper_algorithm_names()
    if matrix is None:
        matrix = dataset_for(profile)
    trials: List[PlacementTrial] = []
    for k in profile.server_counts:
        trials.extend(
            placement_trials(
                placement,
                k,
                algorithms,
                n_runs=profile.n_random_runs,
                seed=profile.seed,
            )
        )
    with span("fig.fig7", placement=placement, trials=len(trials)):
        outcomes = run_trials(
            run_placement_trial, trials, matrix=matrix, pool=pool
        )
        points = aggregate_sweep(trials, outcomes, algorithms)
    return Fig7Series(placement=placement, points=tuple(points))


# ----------------------------------------------------------------------
# Fig. 8 — CDF of normalized interactivity (80 random servers)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig8Series:
    """Per-algorithm sorted normalized-interactivity samples."""

    n_servers: int
    samples: Dict[str, Tuple[float, ...]]

    def cdf(self, algorithm: str) -> Tuple[np.ndarray, np.ndarray]:
        """(x, fraction-of-runs <= x) arrays for plotting."""
        values = np.sort(np.asarray(self.samples[algorithm]))
        fractions = np.arange(1, values.size + 1) / values.size
        return values, fractions

    def fraction_above(self, algorithm: str, threshold: float) -> float:
        """Fraction of runs with normalized interactivity > threshold."""
        values = np.asarray(self.samples[algorithm])
        return float((values > threshold).mean())


def fig8(
    profile: ExperimentProfile,
    *,
    algorithms: Optional[Sequence[str]] = None,
    matrix: Optional[LatencyMatrix] = None,
    pool: Optional[TrialPool] = None,
) -> Fig8Series:
    """Fig. 8: distribution of normalized interactivity over random runs."""
    if algorithms is None:
        algorithms = paper_algorithm_names()
    if matrix is None:
        matrix = dataset_for(profile)
    # Seeds follow the historical fig-8 stream (derive_seed(seed, 8, run))
    # rather than placement_trials' generic stream, keeping samples
    # byte-compatible with pre-parallel releases.
    trials = [
        PlacementTrial(
            x=run,
            placement="random",
            n_servers=profile.fixed_servers,
            algorithms=tuple(algorithms),
            seed=derive_seed(profile.seed, 8, run),
        )
        for run in range(profile.fig8_runs)
    ]
    with span("fig.fig8", trials=len(trials)):
        outcomes = run_trials(
            run_placement_trial, trials, matrix=matrix, pool=pool
        )
    samples: Dict[str, List[float]] = {name: [] for name in algorithms}
    n_failed = 0
    for outcome in outcomes:
        if not outcome.ok:
            n_failed += 1
            continue
        for name, value in outcome.value.normalized().items():
            samples[name].append(value)
    if n_failed == len(outcomes):
        raise TrialExecutionError(f"all {n_failed} fig-8 trials failed")
    return Fig8Series(
        n_servers=profile.fixed_servers,
        samples={name: tuple(vals) for name, vals in samples.items()},
    )


# ----------------------------------------------------------------------
# Fig. 9 — Distributed-Greedy convergence trace
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig9Trace:
    """Normalized D after each DGA assignment modification."""

    placement: str
    n_servers: int
    #: normalized_trace[i] = D after i modifications, divided by LB.
    normalized_trace: Tuple[float, ...]
    converged: bool

    @property
    def n_modifications(self) -> int:
        return len(self.normalized_trace) - 1

    def improvement_fraction_at(self, n: int) -> float:
        """Fraction of the total improvement achieved after n moves."""
        start = self.normalized_trace[0]
        end = self.normalized_trace[-1]
        total = start - end
        if total <= 0:
            return 1.0
        at = self.normalized_trace[min(n, len(self.normalized_trace) - 1)]
        return (start - at) / total


@dataclass(frozen=True)
class Fig9Task:
    """One DGA convergence-trace trial (one placement strategy)."""

    placement: str
    n_servers: int
    seed: Optional[int]


def run_fig9_trial(matrix: LatencyMatrix, task: Fig9Task) -> Fig9Trace:
    """Worker-side Fig. 9 trial: one full DGA trace, normalized."""
    problem, lower_bound = build_instance(
        matrix, task.placement, task.n_servers, task.seed
    )
    result = distributed_greedy_detailed(problem)
    return Fig9Trace(
        placement=task.placement,
        n_servers=task.n_servers,
        normalized_trace=tuple(t / lower_bound for t in result.trace),
        converged=result.converged,
    )


def fig9(
    profile: ExperimentProfile,
    *,
    placements: Sequence[str] = PLACEMENT_NAMES,
    matrix: Optional[LatencyMatrix] = None,
    pool: Optional[TrialPool] = None,
) -> List[Fig9Trace]:
    """Fig. 9: DGA's D after each modification, per placement."""
    if matrix is None:
        matrix = dataset_for(profile)
    tasks = [
        Fig9Task(
            placement=placement,
            n_servers=profile.fixed_servers,
            seed=derive_seed(profile.seed, 9, PLACEMENT_NAMES.index(placement)),
        )
        for placement in placements
    ]
    with span("fig.fig9", trials=len(tasks)):
        outcomes = run_trials(run_fig9_trial, tasks, matrix=matrix, pool=pool)
    traces: List[Fig9Trace] = []
    for outcome in outcomes:
        if not outcome.ok:
            raise TrialExecutionError(
                f"fig-9 trace for placement "
                f"{tasks[outcome.index].placement!r} failed: {outcome.error}"
            )
        traces.append(outcome.value)
    return traces


# ----------------------------------------------------------------------
# Fig. 10 — impact of server capacity
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig10Series:
    """One panel of Fig. 10 (one placement strategy)."""

    placement: str
    n_servers: int
    points: Tuple[SweepPoint, ...]

    def series(self, algorithm: str) -> List[float]:
        return [p.mean[algorithm] for p in self.points]

    @property
    def capacities(self) -> List[int]:
        return [p.x for p in self.points]


def fig10(
    profile: ExperimentProfile,
    placement: str = "random",
    *,
    algorithms: Optional[Sequence[str]] = None,
    matrix: Optional[LatencyMatrix] = None,
    pool: Optional[TrialPool] = None,
) -> Fig10Series:
    """Fig. 10 panel: interactivity vs per-server capacity.

    Capacities are scaled from the paper's 1796-node sweep to the
    profile's client count (see
    :meth:`~repro.experiments.config.ExperimentProfile.scaled_capacities`)
    so that capacity pressure — the ratio to the balanced load
    ``|C| / |S|`` — matches the paper's.

    Every capacity on the x-axis shares its run's server placement: a
    run's trials derive the same placement seed at every capacity.
    """
    if algorithms is None:
        algorithms = paper_algorithm_names()
    if matrix is None:
        matrix = dataset_for(profile)
    trials: List[PlacementTrial] = []
    for capacity in profile.scaled_capacities():
        trials.extend(
            placement_trials(
                placement,
                profile.fixed_servers,
                algorithms,
                n_runs=profile.n_random_runs,
                seed=profile.seed,
                capacity=capacity,
            )
        )
    with span("fig.fig10", placement=placement, trials=len(trials)):
        outcomes = run_trials(
            run_placement_trial, trials, matrix=matrix, pool=pool
        )
        points = aggregate_sweep(trials, outcomes, algorithms)
    return Fig10Series(
        placement=placement,
        n_servers=profile.fixed_servers,
        points=tuple(points),
    )
