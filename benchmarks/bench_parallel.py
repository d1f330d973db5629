"""Serial-vs-parallel benchmark for the trial-execution pool.

Runs the full figure workload (Fig. 7-10 panels) of one profile twice —
once on the serial backend (``workers=0``) and once on a worker pool —
and checks the two properties the parallel subsystem promises:

- **determinism**: the JSON payloads of every figure are byte-identical
  across backends (always asserted, at every size);
- **speedup**: the pooled run is at least ``SPEEDUP_TARGET`` times
  faster than the serial run (ISSUE 3 acceptance: >= 3x at
  ``workers=4`` on the default profile). Asserted only when the host
  actually has >= ``BENCH_WORKERS`` CPUs and the profile is large
  enough for trial work to dominate process-pool overhead — a single
  vCPU CI runner measures scheduling noise, not the pool.

Profile defaults to ``default``; override with
``REPRO_BENCH_PARALLEL_PROFILE=quick`` for smoke runs. Worker count
defaults to 4 (``REPRO_BENCH_PARALLEL_WORKERS``). Measurements are
persisted as a ``bench-table`` result through the standard schema.
"""

from __future__ import annotations

import json
import multiprocessing
import os

from repro.experiments import (
    dataset_for,
    fig7,
    fig8,
    fig9,
    fig10,
    profile,
    to_jsonable,
)
from repro.experiments.persistence import BenchTable, load_result, save_result
from repro.experiments.reporting import format_table
from repro.experiments.runner import PLACEMENT_NAMES
from repro.parallel import TrialPool
from repro.obs import Stopwatch

SPEEDUP_TARGET = 3.0
#: Profiles too small for trial work to dominate pool overhead only
#: record measurements; the speedup target is asserted from this node
#: count upward.
ASSERT_NODE_FLOOR = 300


def _bench_workers() -> int:
    return int(os.environ.get("REPRO_BENCH_PARALLEL_WORKERS", "4"))


def _bench_profile():
    return profile(os.environ.get("REPRO_BENCH_PARALLEL_PROFILE", "default"))


def _figure_payloads(prof, matrix, pool) -> dict:
    """Every figure of the profile, as canonical JSON strings."""
    payloads = {}
    for placement in PLACEMENT_NAMES:
        payloads[f"fig7_{placement}"] = to_jsonable(
            fig7(prof, placement, matrix=matrix, pool=pool)
        )
    payloads["fig8"] = to_jsonable(fig8(prof, matrix=matrix, pool=pool))
    payloads["fig9"] = to_jsonable(fig9(prof, matrix=matrix, pool=pool))
    for placement in PLACEMENT_NAMES:
        payloads[f"fig10_{placement}"] = to_jsonable(
            fig10(prof, placement, matrix=matrix, pool=pool)
        )
    return {
        name: json.dumps(body, sort_keys=True) for name, body in payloads.items()
    }


def test_parallel_vs_serial(benchmark, tmp_path):
    prof = _bench_profile()
    n_workers = _bench_workers()
    matrix = dataset_for(prof)

    def run():
        with Stopwatch() as serial_watch:
            with TrialPool(0) as pool:
                serial_payloads = _figure_payloads(prof, matrix, pool)
                serial_stats = pool.stats
        with Stopwatch() as pool_watch:
            with TrialPool(n_workers) as pool:
                pool_payloads = _figure_payloads(prof, matrix, pool)
                pool_stats = pool.stats
        return (
            serial_watch.elapsed,
            pool_watch.elapsed,
            serial_payloads,
            pool_payloads,
            serial_stats,
            pool_stats,
        )

    (
        serial_seconds,
        pool_seconds,
        serial_payloads,
        pool_payloads,
        serial_stats,
        pool_stats,
    ) = benchmark.pedantic(run, rounds=1, iterations=1)

    # Determinism is asserted unconditionally, figure by figure, so a
    # divergence names the panel that broke.
    assert set(serial_payloads) == set(pool_payloads)
    for name, serial_json in serial_payloads.items():
        assert pool_payloads[name] == serial_json, (
            f"{name}: parallel payload differs from serial "
            f"(workers={n_workers})"
        )

    speedup = serial_seconds / max(pool_seconds, 1e-12)
    table = BenchTable(
        name="bench_parallel",
        columns=(
            "profile",
            "n_nodes",
            "workers",
            "serial_seconds",
            "parallel_seconds",
            "speedup",
            "trials",
        ),
        rows=(
            (
                prof.name,
                prof.n_nodes,
                n_workers,
                serial_seconds,
                pool_seconds,
                speedup,
                pool_stats.n_trials,
            ),
        ),
        meta={
            "cpu_count": multiprocessing.cpu_count(),
            "figures": sorted(serial_payloads),
            "serial_trials": serial_stats.n_trials,
        },
    )
    out = os.environ.get("REPRO_BENCH_OUT")
    path = (
        os.path.join(out, "bench_parallel.json")
        if out
        else str(tmp_path / "bench_parallel.json")
    )
    save_result(path, table)
    assert load_result(path) == table

    print()
    print(
        f"Figure workload, serial vs {n_workers} workers "
        f"(profile '{prof.name}', {prof.n_nodes} nodes, "
        f"{pool_stats.n_trials} trials)\n"
        + format_table(
            ["backend", "wall (s)"],
            [
                ["serial", f"{serial_seconds:.2f}"],
                [f"{n_workers} workers", f"{pool_seconds:.2f}"],
            ],
        )
        + f"\nspeedup: {speedup:.2f}x — results written to {path}"
    )

    if (
        multiprocessing.cpu_count() >= n_workers
        and prof.n_nodes >= ASSERT_NODE_FLOOR
    ):
        assert speedup >= SPEEDUP_TARGET, (
            f"{speedup:.2f}x < {SPEEDUP_TARGET}x target "
            f"(workers={n_workers}, profile '{prof.name}')"
        )
