"""The scenario DSL: validation, JSON round-trips, compile determinism."""

from __future__ import annotations

import json

import pytest

from repro.errors import ScenarioError
from repro.faults.models import DownInterval, Partition
from repro.scenarios import (
    SEGMENT_KINDS,
    CapacityCrunch,
    CorrelatedBursts,
    DiurnalWave,
    Drain,
    FlashCrowd,
    InstanceSpec,
    NemesisChurn,
    RegionalOutage,
    Scenario,
    ScenarioEvent,
    bundled_scenario,
    scenario_names,
    segment_from_dict,
)


class TestInstanceSpec:
    def test_bad_kind_rejected(self):
        with pytest.raises(ScenarioError):
            InstanceSpec(kind="pingmesh")

    def test_bad_capacity_rejected(self):
        with pytest.raises(ScenarioError):
            InstanceSpec(capacity=0)

    def test_nodes_is_universe_size(self):
        spec = InstanceSpec(n_clients=100, n_servers=8)
        assert spec.nodes == 108

    def test_planet_has_no_wire_twin(self):
        with pytest.raises(ScenarioError):
            InstanceSpec(kind="planet").session_config()

    def test_meridian_build_matches_session_config(self):
        spec = InstanceSpec(kind="meridian", n_clients=40, n_servers=4, seed=3)
        built = spec.build()
        config = spec.session_config()
        assert list(built.servers) == list(
            config.resolve_servers(config.build_matrix())
        )
        assert built.clients.size == 40
        assert not set(built.servers) & set(built.clients)

    def test_round_trip(self):
        spec = InstanceSpec(
            kind="mit", n_clients=30, n_servers=3, seed=9, capacity=12
        )
        assert InstanceSpec.from_dict(spec.to_dict()) == spec


class TestSegments:
    @pytest.mark.parametrize(
        "segment",
        [
            FlashCrowd(start=1.0, duration=5.0, joins=20, server=2),
            DiurnalWave(start=0.0, duration=50.0, period=25.0, joins=60),
            CorrelatedBursts(start=2.0, period=10.0, bursts=3, joins=8, leaves=5),
            CapacityCrunch(start=0.0, duration=10.0, joins=30, server=1),
            NemesisChurn(start=5.0, duration=20.0, events=40, leave_fraction=0.3),
            Drain(start=3.0, duration=4.0, leaves=10),
            RegionalOutage(server=2, start=8.0, duration=6.0, partition=True),
        ],
    )
    def test_json_round_trip(self, segment):
        doc = json.loads(json.dumps(segment.to_dict()))
        assert segment_from_dict(doc) == segment

    def test_every_kind_registered(self):
        assert sorted(SEGMENT_KINDS) == sorted(
            s.kind
            for s in (
                FlashCrowd,
                DiurnalWave,
                CorrelatedBursts,
                CapacityCrunch,
                NemesisChurn,
                Drain,
                RegionalOutage,
            )
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ScenarioError):
            segment_from_dict({"kind": "meteor-strike"})

    def test_bad_field_rejected(self):
        with pytest.raises(ScenarioError):
            segment_from_dict({"kind": "drain", "leaves": 5, "bogus": 1})

    def test_validation(self):
        with pytest.raises(ScenarioError):
            FlashCrowd(duration=0.0)
        with pytest.raises(ScenarioError):
            DiurnalWave(trough=0.0)
        with pytest.raises(ScenarioError):
            NemesisChurn(leave_fraction=1.0)

    def test_outage_contributes_down_interval(self):
        outage = RegionalOutage(server=1, start=5.0, duration=3.0)
        assert outage.down_intervals() == [
            DownInterval(server=1, start=5.0, end=8.0)
        ]
        assert outage.partitions() == []

    def test_partition_outage_contributes_partition(self):
        outage = RegionalOutage(
            server=2, start=5.0, duration=3.0, partition=True
        )
        assert outage.down_intervals() == []
        assert outage.partitions() == [
            Partition(servers=(2,), start=5.0, end=8.0)
        ]


class TestScenario:
    def test_bundled_names_sorted(self):
        names = scenario_names()
        assert names == sorted(names)
        assert "flash-crowd" in names
        assert len(names) == 6

    def test_unknown_bundled_rejected(self):
        with pytest.raises(ScenarioError):
            bundled_scenario("does-not-exist")

    @pytest.mark.parametrize("name", scenario_names())
    def test_bundled_json_round_trip(self, name):
        scenario = bundled_scenario(name)
        clone = Scenario.loads(scenario.dumps())
        assert clone == scenario
        assert clone.to_dict() == scenario.to_dict()

    def test_empty_name_rejected(self):
        with pytest.raises(ScenarioError):
            Scenario(name="")

    def test_non_segment_rejected(self):
        with pytest.raises(ScenarioError):
            Scenario(name="x", segments=("not-a-segment",))

    def test_bad_document_rejected(self):
        with pytest.raises(ScenarioError):
            Scenario.loads("[1, 2, 3]")
        with pytest.raises(ScenarioError):
            Scenario.loads("{not json")
        with pytest.raises(ScenarioError):
            Scenario.from_dict({"name": "x", "bogus_field": 1})

    def test_out_of_range_outage_rejected(self):
        scenario = Scenario(
            name="x",
            instance=InstanceSpec(n_clients=20, n_servers=4),
            segments=(RegionalOutage(server=9, start=1.0, duration=1.0),),
        )
        with pytest.raises(ScenarioError):
            scenario.fault_schedule()

    def test_fault_schedule_composition(self):
        scenario = bundled_scenario("regional-outage")
        schedule = scenario.fault_schedule()
        assert len(schedule.down_intervals) == 1
        assert len(schedule.partitions) == 1


class TestCompile:
    @pytest.fixture(scope="class")
    def scenario(self):
        return Scenario(
            name="compile-test",
            instance=InstanceSpec(
                kind="planet", n_clients=80, n_servers=6, n_clusters=8, seed=2
            ),
            segments=(
                FlashCrowd(start=0.0, duration=5.0, joins=30),
                RegionalOutage(server=1, start=6.0, duration=4.0),
                Drain(start=11.0, duration=3.0, leaves=10),
            ),
            seed=77,
            rebalance_every=16,
        )

    def test_deterministic(self, scenario):
        first = scenario.compile()
        second = scenario.compile()
        assert first.events == second.events

    def test_round_tripped_scenario_compiles_identically(self, scenario):
        clone = Scenario.loads(scenario.dumps())
        assert clone.compile().events == scenario.compile().events

    def test_canonical_ordering(self, scenario):
        trace = scenario.compile()
        times = [e.time for e in trace.events]
        assert times == sorted(times)
        assert [e.seq for e in trace.events] == list(range(trace.n_events))

    def test_fault_edges_present(self, scenario):
        trace = scenario.compile()
        ops = [e.op for e in trace.events]
        assert "crash" in ops
        assert "recover" in ops
        assert ops.index("crash") < ops.index("recover")

    def test_rebalance_inserted(self, scenario):
        trace = scenario.compile()
        assert any(e.op == "rebalance" for e in trace.events)

    def test_counts(self, scenario):
        trace = scenario.compile()
        assert trace.n_joins == 30
        assert trace.n_leaves == 10

    def test_joins_are_distinct_clients(self, scenario):
        built = scenario.instance.build()
        trace = scenario.compile(built)
        joined = [e.node for e in trace.events if e.op == "join"]
        assert len(joined) == len(set(joined))
        assert set(joined) <= {int(n) for n in built.clients}

    def test_leaves_only_connected_clients(self, scenario):
        trace = scenario.compile()
        connected = set()
        for event in trace.events:
            if event.op == "join":
                assert event.node not in connected
                connected.add(event.node)
            elif event.op == "leave":
                assert event.node in connected
                connected.discard(event.node)

    def test_nemesis_targets_resolved_obliviously(self):
        scenario = bundled_scenario("nemesis")
        trace = scenario.compile()
        # Nemesis intents resolve to plain join/leave node events: the
        # trace carries no policy-dependent targeting.
        assert {e.op for e in trace.events} <= {"join", "leave"}
        assert trace.events == scenario.compile().events


class TestScenarioEvent:
    def test_wire_shapes(self):
        assert ScenarioEvent(0.0, 0, "join", node=5).to_event_dict() == {
            "op": "join", "node": 5
        }
        assert ScenarioEvent(0.0, 0, "crash", server=2).to_event_dict() == {
            "op": "crash", "server": 2
        }
        assert ScenarioEvent(0.0, 0, "partition", server=1).to_event_dict() == {
            "op": "partition", "servers": [1]
        }
        assert ScenarioEvent(0.0, 0, "rebalance").to_event_dict() == {
            "op": "rebalance", "max_moves": 8
        }

    def test_unknown_op_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioEvent(0.0, 0, "meteor").to_event_dict()
