"""Ablation experiments for the design choices DESIGN.md calls out.

Four studies beyond the paper's figures:

1. :func:`ablation_dga_initial` — Distributed-Greedy's initial
   assignment (the paper chooses Nearest-Server without comparison):
   NSA vs LFB vs random vs best-single-server starts.
2. :func:`ablation_greedy_cost` — the Δl/Δn amortized cost of Greedy
   Assignment vs plain Δl (is the amortization doing work?).
3. :func:`ablation_triangle_violations` — how NSA's gap to the greedy
   pair grows with the latency matrix's triangle-violation rate (the
   mechanism behind §V footnote 2).
4. :func:`ablation_estimated_latencies` — run the heuristics on
   Vivaldi-estimated latencies and score the resulting assignments on
   the *true* matrix: the cost of avoiding O(n^2) measurement.
5. :func:`ablation_placement_strategies` — K-center vs K-median vs
   medoids vs (best-of-)random placement, under the best assignment
   algorithm: how much interactivity does placement itself decide?
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms import (
    distributed_greedy_detailed,
    get_algorithm,
    longest_first_batch,
    nearest_server,
    random_assignment,
    run_algorithm,
)
from repro.algorithms.baselines import best_single_server
from repro.core import (
    Assignment,
    ClientAssignmentProblem,
    interaction_lower_bound,
    max_interaction_path_length,
)
from repro.datasets.meridian import meridian_model
from repro.experiments.reporting import format_table
from repro.net.coordinates import embed_latencies
from repro.net.latency import LatencyMatrix
from repro.experiments.runner import build_instance
from repro.parallel import TrialPool
from repro.parallel.pool import run_trials, successful_values
from repro.placement import kcenter_a, kcenter_b, random_placement
from repro.placement.extra import (
    best_of_random_placement,
    k_median_placement,
    medoid_placement,
)
from repro.utils.rng import derive_seed


@dataclass(frozen=True)
class AblationResult:
    """A titled table of ablation measurements."""

    title: str
    headers: Tuple[str, ...]
    rows: Tuple[Tuple[object, ...], ...]

    def render(self) -> str:
        """ASCII-table rendering."""
        return f"{self.title}\n{format_table(self.headers, self.rows)}"

    def column(self, header: str) -> List[object]:
        """One column by header name."""
        idx = self.headers.index(header)
        return [row[idx] for row in self.rows]


# ----------------------------------------------------------------------
# 1. DGA initial assignment
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AblationRunTask:
    """One run of a per-run ablation trial (picklable task)."""

    n_servers: int
    seed: Optional[int]
    #: Strategy/variant name for per-variant trials; unused otherwise.
    variant: Optional[str] = None


_DGA_STARTERS = {
    "nearest-server": lambda p, s: nearest_server(p),
    "longest-first-batch": lambda p, s: longest_first_batch(p),
    "random": lambda p, s: random_assignment(p, seed=s),
    "best-single-server": lambda p, s: best_single_server(p),
}


def _dga_initial_trial(
    matrix: LatencyMatrix, task: AblationRunTask
) -> Dict[str, Tuple[float, int]]:
    """One run: DGA from every starter on one random placement."""
    problem, lb = build_instance(matrix, "random", task.n_servers, task.seed)
    out: Dict[str, Tuple[float, int]] = {}
    for name, make in _DGA_STARTERS.items():
        result = distributed_greedy_detailed(
            problem, initial=make(problem, task.seed)
        )
        out[name] = (result.final_d / lb, result.n_modifications)
    return out


def ablation_dga_initial(
    matrix: LatencyMatrix,
    *,
    n_servers: int = 40,
    n_runs: int = 10,
    seed: int = 0,
    pool: Optional[TrialPool] = None,
) -> AblationResult:
    """Distributed-Greedy from different starting assignments."""
    starters = _DGA_STARTERS
    tasks = [
        AblationRunTask(n_servers=n_servers, seed=derive_seed(seed, 31, run))
        for run in range(n_runs)
    ]
    outcomes = run_trials(_dga_initial_trial, tasks, matrix=matrix, pool=pool)
    runs = successful_values(outcomes, context="DGA-initial ablation")
    sums: Dict[str, List[float]] = {name: [] for name in starters}
    mods: Dict[str, List[int]] = {name: [] for name in starters}
    for per_run in runs:
        for name, (norm, n_mods) in per_run.items():
            sums[name].append(norm)
            mods[name].append(n_mods)
    rows = [
        (
            name,
            float(np.mean(sums[name])),
            float(np.std(sums[name])),
            float(np.mean(mods[name])),
        )
        for name in starters
    ]
    return AblationResult(
        title=(
            f"Ablation: DGA initial assignment ({n_servers} random servers, "
            f"{n_runs} runs)"
        ),
        headers=("initial", "final norm (mean)", "std", "modifications (mean)"),
        rows=tuple(rows),
    )


# ----------------------------------------------------------------------
# 2. Greedy cost metric
# ----------------------------------------------------------------------
_GREEDY_COST_VARIANTS = ("greedy", "greedy-absolute")


def _greedy_cost_trial(
    matrix: LatencyMatrix, task: AblationRunTask
) -> Dict[str, float]:
    """One run: both greedy cost variants on one random placement."""
    problem, lb = build_instance(matrix, "random", task.n_servers, task.seed)
    return {
        name: run_algorithm(name, problem, seed=task.seed).d / lb
        for name in _GREEDY_COST_VARIANTS
    }


def ablation_greedy_cost(
    matrix: LatencyMatrix,
    *,
    n_servers: int = 40,
    n_runs: int = 10,
    seed: int = 0,
    pool: Optional[TrialPool] = None,
) -> AblationResult:
    """Δl/Δn (paper) vs plain Δl pair selection in Greedy Assignment."""
    variants = _GREEDY_COST_VARIANTS
    tasks = [
        AblationRunTask(n_servers=n_servers, seed=derive_seed(seed, 32, run))
        for run in range(n_runs)
    ]
    outcomes = run_trials(_greedy_cost_trial, tasks, matrix=matrix, pool=pool)
    runs = successful_values(outcomes, context="greedy-cost ablation")
    samples: Dict[str, List[float]] = {v: [] for v in variants}
    for per_run in runs:
        for name, norm in per_run.items():
            samples[name].append(norm)
    rows = [
        (name, float(np.mean(samples[name])), float(np.std(samples[name])))
        for name in variants
    ]
    return AblationResult(
        title=(
            f"Ablation: Greedy pair-selection cost ({n_servers} random "
            f"servers, {n_runs} runs)"
        ),
        headers=("variant", "norm (mean)", "std"),
        rows=tuple(rows),
    )


# ----------------------------------------------------------------------
# 3. Triangle-inequality violation rate
# ----------------------------------------------------------------------
def ablation_triangle_violations(
    *,
    n_nodes: int = 200,
    n_servers: int = 20,
    spike_fractions: Sequence[float] = (0.0, 0.02, 0.05, 0.10, 0.20),
    n_runs: int = 5,
    seed: int = 0,
) -> AblationResult:
    """NSA's penalty as a function of the matrix's non-metricity.

    Generates Meridian-like matrices sweeping the BGP-spike fraction,
    measures the realized triangle-violation rate, and reports the mean
    normalized interactivity of NSA vs Distributed-Greedy.
    """
    rows = []
    for fraction in spike_fractions:
        model = dataclasses.replace(
            meridian_model(n_nodes), spike_fraction=fraction
        )
        matrix = model.generate(derive_seed(seed, 33, int(fraction * 1000)))
        violation = matrix.triangle_inequality_report(
            max_triples=50_000
        ).violation_rate
        nsa_vals, dga_vals = [], []
        for run in range(n_runs):
            run_seed = derive_seed(seed, 34, int(fraction * 1000), run)
            servers = random_placement(matrix, n_servers, seed=run_seed)
            problem = ClientAssignmentProblem(matrix, servers)
            lb = interaction_lower_bound(problem)
            nsa_vals.append(
                max_interaction_path_length(nearest_server(problem)) / lb
            )
            dga_vals.append(distributed_greedy_detailed(problem).final_d / lb)
        rows.append(
            (
                fraction,
                violation,
                float(np.mean(nsa_vals)),
                float(np.mean(dga_vals)),
                float(np.mean(nsa_vals)) / float(np.mean(dga_vals)),
            )
        )
    return AblationResult(
        title=(
            "Ablation: NSA penalty vs triangle-inequality violations "
            f"({n_nodes} nodes, {n_servers} servers, {n_runs} runs/point)"
        ),
        headers=(
            "spike fraction",
            "violation rate",
            "NSA norm",
            "DGA norm",
            "NSA/DGA",
        ),
        rows=tuple(rows),
    )


# ----------------------------------------------------------------------
# 4. Estimated (Vivaldi) latencies
# ----------------------------------------------------------------------
def ablation_estimated_latencies(
    matrix: LatencyMatrix,
    *,
    n_servers: int = 30,
    algorithms: Sequence[str] = (
        "nearest-server",
        "greedy",
        "distributed-greedy",
    ),
    embedding_rounds: int = 30,
    seed: int = 0,
) -> AblationResult:
    """Solve on Vivaldi-estimated latencies, score on the truth.

    For each algorithm: normalized interactivity of the assignment
    computed from measured latencies vs from coordinates, both evaluated
    on the measured matrix.
    """
    estimated, quality = embed_latencies(
        matrix, rounds=embedding_rounds, seed=seed
    )
    servers = random_placement(matrix, n_servers, seed=seed)
    true_problem = ClientAssignmentProblem(matrix, servers)
    est_problem = ClientAssignmentProblem(estimated, servers)
    lb = interaction_lower_bound(true_problem)
    rows = []
    for name in algorithms:
        fn = get_algorithm(name)
        measured = fn(true_problem, seed=seed)
        from_coords = fn(est_problem, seed=seed)
        # Re-score the coordinate-driven assignment on the true matrix.
        rescored = Assignment(true_problem, from_coords.server_of)
        d_measured = max_interaction_path_length(measured) / lb
        d_coords = max_interaction_path_length(rescored) / lb
        rows.append(
            (name, d_measured, d_coords, d_coords / d_measured)
        )
    title = (
        "Ablation: measured vs Vivaldi-estimated latencies "
        f"({n_servers} random servers; embedding median rel. error "
        f"{quality.median_relative_error:.1%})"
    )
    return AblationResult(
        title=title,
        headers=("algorithm", "measured norm", "estimated norm", "penalty"),
        rows=tuple(rows),
    )


# ----------------------------------------------------------------------
# 5. Placement strategies
# ----------------------------------------------------------------------
_PLACEMENT_ABLATION_STRATEGIES = {
    "random": random_placement,
    "best-of-16-random": best_of_random_placement,
    "k-center-a": kcenter_a,
    "k-center-b": kcenter_b,
    "k-median": k_median_placement,
    "medoids": medoid_placement,
}


def _placement_strategy_trial(
    matrix: LatencyMatrix, task: AblationRunTask
) -> float:
    """One run: DGA's normalized D under one placement strategy.

    Strategies beyond the canonical registry (best-of-random, k-median,
    medoids) are not instance-cache keys, so this trial builds its
    problem directly.
    """
    place = _PLACEMENT_ABLATION_STRATEGIES[task.variant]
    servers = place(matrix, task.n_servers, seed=task.seed)
    problem = ClientAssignmentProblem(matrix, servers)
    lb = interaction_lower_bound(problem)
    return distributed_greedy_detailed(problem).final_d / lb


def ablation_placement_strategies(
    matrix: LatencyMatrix,
    *,
    n_servers: int = 30,
    n_runs: int = 5,
    seed: int = 0,
    pool: Optional[TrialPool] = None,
) -> AblationResult:
    """Interactivity of DGA under different server placements."""
    strategies = _PLACEMENT_ABLATION_STRATEGIES
    tasks = [
        AblationRunTask(
            n_servers=n_servers,
            seed=derive_seed(seed, 35, run),
            variant=name,
        )
        for name in strategies
        for run in range(n_runs)
    ]
    outcomes = run_trials(
        _placement_strategy_trial, tasks, matrix=matrix, pool=pool
    )
    norms_by_strategy: Dict[str, List[float]] = {name: [] for name in strategies}
    for task, outcome in zip(tasks, outcomes):
        if outcome.ok:
            norms_by_strategy[task.variant].append(outcome.value)
    rows = []
    for name in strategies:
        norms = norms_by_strategy[name]
        if not norms:
            from repro.errors import TrialExecutionError

            raise TrialExecutionError(
                f"all placement-ablation trials for {name!r} failed"
            )
        rows.append((name, float(np.mean(norms)), float(np.std(norms))))
    return AblationResult(
        title=(
            f"Ablation: server placement strategies under DGA "
            f"({n_servers} servers, {n_runs} runs)"
        ),
        headers=("placement", "DGA norm (mean)", "std"),
        rows=tuple(rows),
    )


# ----------------------------------------------------------------------
# 6. Measurement error (King campaign)
# ----------------------------------------------------------------------
def ablation_measurement_error(
    matrix: LatencyMatrix,
    *,
    n_servers: int = 30,
    probes_sweep: Sequence[int] = (1, 3, 10),
    jitter_sigma: float = 0.3,
    seed: int = 0,
) -> AblationResult:
    """Assign on King-measured latencies, score on the truth.

    Simulates measurement campaigns with increasing probe counts
    (less per-pair noise) and reports the interactivity penalty of the
    resulting assignments relative to assigning on the true matrix.
    Complements :func:`ablation_estimated_latencies` (coordinates) with
    the direct-measurement error mode.
    """
    from repro.datasets.measurement import (
        MeasurementCampaign,
        measurement_error_report,
        simulate_king_measurements,
    )
    from repro.net.jitter import LogNormalJitter

    servers = random_placement(matrix, n_servers, seed=seed)
    true_problem = ClientAssignmentProblem(matrix, servers)
    lb = interaction_lower_bound(true_problem)
    baseline = (
        max_interaction_path_length(get_algorithm("greedy")(true_problem)) / lb
    )
    rows = [("truth", 0.0, baseline, 1.0)]
    for probes in probes_sweep:
        campaign = MeasurementCampaign(
            probes_per_pair=probes, jitter=LogNormalJitter(jitter_sigma)
        )
        raw = simulate_king_measurements(matrix, campaign, seed=seed)
        measured = LatencyMatrix(raw)
        med_err, _p90 = measurement_error_report(matrix, raw)
        measured_problem = ClientAssignmentProblem(measured, servers)
        assignment = get_algorithm("greedy")(measured_problem, seed=seed)
        rescored = Assignment(true_problem, assignment.server_of)
        norm = max_interaction_path_length(rescored) / lb
        rows.append((f"{probes} probe(s)", med_err, norm, norm / baseline))
    return AblationResult(
        title=(
            "Ablation: King measurement error vs assignment quality "
            f"({n_servers} random servers, lognormal sigma={jitter_sigma})"
        ),
        headers=("latency source", "median rel. error", "norm", "penalty"),
        rows=tuple(rows),
    )
