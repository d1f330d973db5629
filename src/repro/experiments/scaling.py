"""Scale sweep: how normalized interactivity depends on instance size.

The paper reports greedy within ~10% of the super-optimal lower bound at
1796 nodes; this reproduction measures ~1.2-1.3 at laptop scales. The
sweep separates two effects:

- with the server count *fixed* (the paper's regime), DGA's normalized
  interactivity drifts down with scale (~1.22 at 200 nodes to ~1.19 at
  1600) while NSA's stays high — partial convergence toward the paper's
  level, the residual being the synthetic matrix's structure rather
  than scale;
- with the server count *proportional* to nodes, every algorithm's
  normalized level is scale-stable.

In both regimes the **gap between algorithms** — the paper's actual
claims — is stable or widening, which is what the benchmark assertions
pin.

Runs execute as :mod:`repro.parallel` trials (one per random
placement), so a worker pool overlaps them; each trial computes its
instance's lower bound once and scores every algorithm against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms import run_algorithm
from repro.datasets import synthesize_meridian_like
from repro.net.latency import LatencyMatrix
from repro.experiments.runner import build_instance
from repro.parallel import TrialPool
from repro.parallel.pool import run_trials, successful_values
from repro.utils.rng import derive_seed


@dataclass(frozen=True)
class ScalePoint:
    """Aggregated results at one instance size."""

    n_nodes: int
    n_servers: int
    #: Per-algorithm mean normalized interactivity.
    normalized: Dict[str, float]
    #: Mean (over runs) of D_NSA / D_DGA — the algorithm gap, which
    #: should be roughly scale-invariant.
    nsa_over_dga: float


@dataclass(frozen=True)
class ScaleTrial:
    """One random placement at one instance size."""

    n_servers: int
    algorithms: Tuple[str, ...]
    seed: Optional[int]


def run_scale_trial(
    matrix: LatencyMatrix, trial: ScaleTrial
) -> Dict[str, float]:
    """Worker-side scale trial: raw D per algorithm, plus the bound.

    The lower bound is derived once per instance, not once per
    algorithm.
    """
    problem, lower_bound = build_instance(
        matrix, "random", trial.n_servers, trial.seed
    )
    ds = {
        name: float(run_algorithm(name, problem, seed=trial.seed).d)
        for name in trial.algorithms
    }
    ds["__lower_bound__"] = lower_bound
    return ds


def scale_sweep(
    *,
    sizes: Sequence[int] = (100, 200, 400, 800),
    server_fraction: float = 0.2,
    algorithms: Sequence[str] = ("nearest-server", "greedy", "distributed-greedy"),
    n_runs: int = 5,
    seed: int = 0,
    pool: Optional[TrialPool] = None,
) -> List[ScalePoint]:
    """Sweep instance sizes at a fixed server-to-node ratio.

    Each size gets a fresh Meridian-like matrix (same generator
    parameters — the structure is size-invariant) and ``n_runs`` random
    placements of ``server_fraction * n`` servers.
    """
    if not 0.0 < server_fraction < 1.0:
        raise ValueError("server_fraction must be in (0, 1)")
    points: List[ScalePoint] = []
    for n in sizes:
        matrix = synthesize_meridian_like(n, seed=derive_seed(seed, 41, n))
        k = max(2, int(round(server_fraction * n)))
        trials = [
            ScaleTrial(
                n_servers=k,
                algorithms=tuple(algorithms),
                seed=derive_seed(seed, 42, n, run),
            )
            for run in range(n_runs)
        ]
        outcomes = run_trials(run_scale_trial, trials, matrix=matrix, pool=pool)
        runs = successful_values(outcomes, context=f"scale sweep at n={n}")
        sums: Dict[str, List[float]] = {a: [] for a in algorithms}
        gaps: List[float] = []
        for ds in runs:
            lb = ds["__lower_bound__"]
            for name in algorithms:
                sums[name].append(ds[name] / lb)
            if "nearest-server" in ds and "distributed-greedy" in ds:
                gaps.append(ds["nearest-server"] / ds["distributed-greedy"])
        points.append(
            ScalePoint(
                n_nodes=n,
                n_servers=k,
                normalized={a: float(np.mean(sums[a])) for a in algorithms},
                nsa_over_dga=float(np.mean(gaps)) if gaps else float("nan"),
            )
        )
    return points


def render_scale_sweep(points: Sequence[ScalePoint]) -> str:
    """ASCII table of a scale sweep."""
    from repro.experiments.reporting import format_table

    algorithms = list(points[0].normalized)
    headers = ["nodes", "servers", *algorithms, "NSA/DGA gap"]
    rows = [
        [
            p.n_nodes,
            p.n_servers,
            *[p.normalized[a] for a in algorithms],
            p.nsa_over_dga,
        ]
        for p in points
    ]
    return "Scale sweep: normalized interactivity vs instance size\n" + format_table(
        headers, rows
    )
