"""Scenario-harness benchmark: competitive ratio by family x policy.

Replays scaled-up versions of the bundled adversary families (|C| =
2000 by default; override with ``REPRO_BENCH_SCENARIO_CLIENTS=500``
for smoke runs) through every registered online policy and records the
empirical competitive ratio — D_online over the §V lower bound of the
revealed instance — plus replay throughput. The offline reference
solve is disabled: the lower bound is the yardstick here, and the
bound's >= 1 invariant is re-asserted on every replay.

The measurements land in ``BENCH_scenarios.json`` (written to
``REPRO_BENCH_OUT`` when set) as a bench-table through the standard
schema.
"""

from __future__ import annotations

import os

from repro.algorithms.policies import policy_names
from repro.experiments.persistence import BenchTable, load_result, save_result
from repro.scenarios import (
    CapacityCrunch,
    CorrelatedBursts,
    DiurnalWave,
    Drain,
    FlashCrowd,
    InstanceSpec,
    NemesisChurn,
    ReplayOptions,
    Scenario,
    check_ratios,
    replay_scenario,
)

N_SERVERS = 16
N_CLUSTERS = 32


def _n_clients() -> int:
    return int(os.environ.get("REPRO_BENCH_SCENARIO_CLIENTS", "2000"))


def _families(n_clients: int) -> list:
    """The bundled adversary families, rescaled to ``n_clients``."""
    spec = dict(
        kind="planet",
        n_clients=n_clients,
        n_servers=N_SERVERS,
        n_clusters=N_CLUSTERS,
    )
    crowd = int(n_clients * 0.6)
    return [
        Scenario(
            name="flash-crowd",
            instance=InstanceSpec(seed=11, **spec),
            segments=(
                FlashCrowd(start=0.0, duration=20.0, joins=crowd // 4),
                FlashCrowd(start=25.0, duration=5.0, joins=crowd),
                Drain(start=35.0, duration=10.0, leaves=crowd // 3),
            ),
            seed=101,
        ),
        Scenario(
            name="diurnal",
            instance=InstanceSpec(seed=5, **spec),
            segments=(
                DiurnalWave(
                    start=0.0, duration=80.0, period=40.0, joins=crowd
                ),
                Drain(start=40.0, duration=20.0, leaves=crowd // 4),
            ),
            seed=303,
            rebalance_every=max(crowd // 8, 1),
        ),
        Scenario(
            name="correlated-bursts",
            instance=InstanceSpec(seed=9, **spec),
            segments=(
                CorrelatedBursts(
                    start=0.0,
                    period=20.0,
                    bursts=5,
                    joins=crowd // 5,
                    leaves=crowd // 7,
                ),
            ),
            seed=404,
        ),
        Scenario(
            name="capacity-crunch",
            instance=InstanceSpec(
                seed=13,
                capacity=max(int(n_clients * 0.45 / N_SERVERS), 1),
                **spec,
            ),
            segments=(
                FlashCrowd(start=0.0, duration=10.0, joins=crowd // 4),
                CapacityCrunch(
                    start=12.0, duration=20.0, joins=crowd, server=0
                ),
            ),
            seed=505,
        ),
        Scenario(
            name="nemesis",
            instance=InstanceSpec(seed=21, **spec),
            segments=(
                FlashCrowd(start=0.0, duration=8.0, joins=crowd // 3),
                NemesisChurn(start=10.0, duration=40.0, events=crowd),
            ),
            seed=606,
        ),
    ]


def test_scenario_families(benchmark, tmp_path):
    n_clients = _n_clients()
    scenarios = _families(n_clients)
    policies = sorted(policy_names())
    options = ReplayOptions(
        checkpoint_every=max(n_clients // 8, 32), offline_algorithm=None
    )

    def run():
        rows = []
        for scenario in scenarios:
            built = scenario.instance.build()
            trace = scenario.compile(built)
            for policy in policies:
                result = replay_scenario(
                    scenario,
                    policy,
                    options=options,
                    built=built,
                    trace=trace,
                )
                check_ratios(result)
                final = result.final
                rows.append(
                    [
                        scenario.name,
                        policy,
                        n_clients,
                        result.n_events,
                        result.mean_ratio,
                        result.max_ratio,
                        final.d_online if final else 0.0,
                        final.lower_bound if final else 0.0,
                        result.counters.get("rejected", 0),
                        result.events_per_second,
                        result.elapsed_seconds,
                    ]
                )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    table = BenchTable(
        name="bench_scenarios",
        columns=(
            "scenario",
            "policy",
            "n_clients",
            "n_events",
            "mean_ratio",
            "max_ratio",
            "final_d",
            "final_lower_bound",
            "rejected",
            "events_per_second",
            "elapsed_seconds",
        ),
        rows=tuple(tuple(row) for row in rows),
        meta={
            "n_servers": N_SERVERS,
            "n_clusters": N_CLUSTERS,
            "n_clients": n_clients,
            "policies": list(policies),
            "checkpoint_every": options.checkpoint_every,
        },
    )
    out = os.environ.get("REPRO_BENCH_OUT")
    if out:
        os.makedirs(out, exist_ok=True)
    path = (
        os.path.join(out, "BENCH_scenarios.json")
        if out
        else str(tmp_path / "BENCH_scenarios.json")
    )
    save_result(path, table)
    assert load_result(path) == table
