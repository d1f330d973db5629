"""The competitive-ratio harness: invariants, paths, parallel identity."""

from __future__ import annotations

import pytest

from repro.algorithms.online import OnlineConfig
from repro.algorithms.policies import policy_names
from repro.errors import InvalidParameterError, ScenarioError
from repro.obs import MetricsRegistry, use_registry
from repro.parallel import TrialPool
from repro.resilience.checkpoint import decode_float
from repro.scenarios import (
    Checkpoint,
    Drain,
    FlashCrowd,
    InstanceSpec,
    ReplayOptions,
    RegionalOutage,
    ReplayResult,
    Scenario,
    bundled_scenario,
    check_ratios,
    compare_policies,
    replay_scenario,
    scenario_names,
)
from repro.service.replay import replay_events

FAST = ReplayOptions(checkpoint_every=64, offline_algorithm=None)


class TestReplayOptions:
    def test_round_trip(self):
        options = ReplayOptions(path="wire", checkpoint_every=8)
        assert ReplayOptions.from_dict(options.to_dict()) == options

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"path": "carrier-pigeon"},
            {"path": "sharded"},
            {"checkpoint_every": 0},
            {"maintain_moves": -1},
            {"block_size": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ScenarioError):
            ReplayOptions(**kwargs)


class TestRatioInvariant:
    """Empirical competitive ratio >= 1 on every bundled adversary."""

    @pytest.mark.parametrize("name", scenario_names())
    @pytest.mark.parametrize("policy", sorted(policy_names()))
    def test_bundled_scenarios(self, name, policy):
        result = replay_scenario(bundled_scenario(name), policy, options=FAST)
        assert result.checkpoints, "replay produced no checkpoints"
        check_ratios(result)
        for checkpoint in result.checkpoints:
            assert checkpoint.ratio >= 1.0 - 1e-9
            assert checkpoint.lower_bound > 0

    def test_check_ratios_raises_on_violation(self):
        bogus = ReplayResult(
            scenario="x",
            policy="greedy",
            path="library",
            n_events=1,
            checkpoints=(
                Checkpoint(
                    event_index=0,
                    time=0.0,
                    n_connected=1,
                    d_online=0.5,
                    lower_bound=1.0,
                    ratio=0.5,
                ),
            ),
        )
        with pytest.raises(ScenarioError):
            check_ratios(bogus)


class TestReplay:
    def test_unknown_policy_rejected(self):
        with pytest.raises(InvalidParameterError):
            replay_scenario(bundled_scenario("diurnal"), "nope", options=FAST)

    def test_result_round_trip(self):
        result = replay_scenario(
            bundled_scenario("capacity-crunch"), "greedy", options=FAST
        )
        assert ReplayResult.from_dict(result.to_dict()) == result

    def test_capacity_crunch_rejects_under_greedy(self):
        result = replay_scenario(
            bundled_scenario("capacity-crunch"), "greedy", options=FAST
        )
        assert result.counters["rejected"] > 0
        capacity = bundled_scenario("capacity-crunch").instance.capacity
        for checkpoint in result.checkpoints:
            assert checkpoint.max_load <= capacity

    def test_offline_reference_columns(self):
        options = ReplayOptions(checkpoint_every=64)
        result = replay_scenario(
            bundled_scenario("diurnal"), "greedy", options=options
        )
        final = result.final
        assert final.d_offline is not None
        assert final.regret == pytest.approx(final.d_online - final.d_offline)

    def test_fault_scenario_replays_crash_and_recover(self):
        result = replay_scenario(
            bundled_scenario("regional-outage"), "greedy", options=FAST
        )
        moved = result.counters["evacuated"] + result.counters["shed"]
        assert moved > 0
        check_ratios(result)

    def test_metrics_recorded(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            replay_scenario(bundled_scenario("diurnal"), "spread", options=FAST)
        counters = registry.snapshot()["counters"]
        assert counters["scenarios.replays"] == 1
        assert counters["scenarios.events"] > 0
        assert counters["scenarios.replay.spread.checkpoints"] >= 1
        assert counters["scenarios.replay.spread.ratio_sum"] >= 1.0


class TestWirePath:
    WIRE = ReplayOptions(
        path="wire", checkpoint_every=64, offline_algorithm=None
    )

    def test_fault_scenario_matches_library(self):
        scenario = bundled_scenario("regional-outage")
        library = replay_scenario(
            scenario,
            "greedy",
            options=ReplayOptions(
                checkpoint_every=64, maintain_moves=0, offline_algorithm=None
            ),
        )
        wire = replay_scenario(scenario, "greedy", options=self.WIRE)
        assert [c.to_dict() for c in wire.checkpoints] == [
            c.to_dict() for c in library.checkpoints
        ]
        assert wire.counters == library.counters
        assert wire.counters["evacuated"] > 0

    def test_rejects_planet_instances(self):
        with pytest.raises(ScenarioError):
            replay_scenario(
                bundled_scenario("diurnal"), "greedy", options=self.WIRE
            )

    def test_matches_library_decisions(self):
        scenario = Scenario(
            name="wire-equivalence",
            instance=InstanceSpec(
                kind="meridian", n_clients=60, n_servers=4, seed=6, capacity=20
            ),
            segments=(FlashCrowd(start=0.0, duration=6.0, joins=50),),
            seed=19,
        )
        library = replay_scenario(
            scenario,
            "nearest",
            options=ReplayOptions(
                checkpoint_every=16, maintain_moves=0, offline_algorithm=None
            ),
        )
        wire = replay_scenario(
            scenario,
            "nearest",
            options=ReplayOptions(
                path="wire", checkpoint_every=16, offline_algorithm=None
            ),
        )
        assert [c.d_online for c in wire.checkpoints] == [
            c.d_online for c in library.checkpoints
        ]
        assert [c.ratio for c in wire.checkpoints] == [
            c.ratio for c in library.checkpoints
        ]
        check_ratios(wire)


def _two_phase(capacity: int, *segments) -> Scenario:
    """60 Meridian clients on 4 servers: a 56-join flash crowd, then
    ``segments`` (a crash or a drain)."""
    return Scenario(
        name="served-semantics",
        instance=InstanceSpec(
            kind="meridian", n_clients=60, n_servers=4, seed=6,
            capacity=capacity,
        ),
        segments=(FlashCrowd(start=0.0, duration=6.0, joins=56),) + segments,
        seed=19,
    )


EVERY_EVENT = dict(checkpoint_every=1, offline_algorithm=None)


class TestServedSemantics:
    """Every harness path replays the semantics the service serves."""

    def test_crash_sheds_only_the_overflow_on_every_path(self):
        # Server 0 holds 16 clients and the survivors have 8 free
        # slots: 8 evacuate, the 8 farthest are shed.
        scenario = _two_phase(16, RegionalOutage(server=0, start=8.0, duration=20.0))
        library = replay_scenario(
            scenario, "greedy", options=ReplayOptions(maintain_moves=0, **EVERY_EVENT)
        )
        wire = replay_scenario(
            scenario, "greedy", options=ReplayOptions(path="wire", **EVERY_EVENT)
        )
        built = scenario.instance.build()
        trace = scenario.compile(built)
        config = scenario.instance.session_config(
            OnlineConfig(capacity=16, join_policy="greedy")
        )
        oracle = replay_events(
            built.provider, config, [e.to_event_dict() for e in trace.events]
        ).trajectory
        assert library.counters["evacuated"] == 8
        assert library.counters["shed"] == 8
        assert wire.counters == library.counters
        assert len(library.checkpoints) == trace.n_events
        for lib, wired, served in zip(
            library.checkpoints, wire.checkpoints, oracle
        ):
            assert lib.to_dict() == wired.to_dict()
            assert lib.n_connected == served["clients"]
            assert lib.d_online == decode_float(served["d"])

    def test_wire_counts_clients_admitted_from_the_backlog(self):
        # Capacity 12 queues 8 of the 56 joins; the drain's leaves free
        # slots that admit them from the backlog.
        scenario = _two_phase(12, Drain(start=8.0, duration=4.0, leaves=16))
        library = replay_scenario(
            scenario, "greedy", options=ReplayOptions(maintain_moves=0, **EVERY_EVENT)
        )
        wire = replay_scenario(
            scenario, "greedy", options=ReplayOptions(path="wire", **EVERY_EVENT)
        )
        assert [c.to_dict() for c in wire.checkpoints] == [
            c.to_dict() for c in library.checkpoints
        ]
        assert wire.counters == library.counters
        assert library.counters["rejected"] == 8
        assert library.final.n_connected == 40


def _strip_timing(result: ReplayResult) -> dict:
    doc = result.to_dict()
    doc.pop("elapsed_seconds")
    return doc


class TestComparePolicies:
    def test_empty_policy_list_rejected(self):
        with pytest.raises(ScenarioError):
            compare_policies(bundled_scenario("diurnal"), [])

    def test_serial_matches_parallel(self):
        scenario = bundled_scenario("capacity-crunch")
        policies = ["greedy", "spread"]
        with TrialPool(0) as serial:
            a = compare_policies(
                scenario, policies, options=FAST, pool=serial
            )
        with TrialPool(4) as parallel:
            b = compare_policies(
                scenario, policies, options=FAST, pool=parallel
            )
        assert [r.policy for r in a] == policies
        assert [_strip_timing(r) for r in a] == [_strip_timing(r) for r in b]
