"""Chaos harness: workload determinism and the kill/recover/diff gate."""

import pytest

from repro.datasets.synthetic import small_world_latencies
from repro.errors import InvalidParameterError
from repro.placement import random_placement
from repro.resilience import (
    DegradePolicy,
    chaos_workload,
    run_chaos,
)


@pytest.fixture(scope="module")
def matrix():
    return small_world_latencies(40, seed=7)


@pytest.fixture(scope="module")
def servers(matrix):
    return random_placement(matrix, 4, seed=2)


class TestWorkload:
    def test_deterministic_per_seed(self, matrix, servers):
        a = chaos_workload(matrix, servers, n_events=50, seed=11)
        b = chaos_workload(matrix, servers, n_events=50, seed=11)
        c = chaos_workload(matrix, servers, n_events=50, seed=12)
        assert a == b
        assert a != c

    def test_events_are_state_valid(self, matrix, servers):
        """No duplicate joins, no leaves of absent nodes, no double
        crashes/partitions — the workload must replay on any runtime."""
        events = chaos_workload(matrix, servers, n_events=80, seed=3)
        server_set = set(int(s) for s in servers)
        connected, down, unreachable = set(), set(), set()
        for event in events:
            if event["op"] == "join":
                assert event["node"] not in connected
                assert event["node"] not in server_set
                connected.add(event["node"])
            elif event["op"] == "leave":
                assert event["node"] in connected
                connected.remove(event["node"])
            elif event["op"] == "crash":
                assert event["server"] not in down
                down.add(event["server"])
            elif event["op"] == "recover":
                assert event["server"] in down
                down.remove(event["server"])
            elif event["op"] == "partition":
                (server,) = event["servers"]
                assert server not in unreachable
                unreachable.add(server)
            elif event["op"] == "heal":
                (server,) = event["servers"]
                assert server in unreachable
                unreachable.remove(server)
            else:
                pytest.fail(f"unexpected kind {event['op']}")

    def test_includes_faults_by_default(self, matrix, servers):
        events = chaos_workload(matrix, servers, n_events=120, seed=0)
        kinds = {e["op"] for e in events}
        assert "join" in kinds and "leave" in kinds
        assert "crash" in kinds

    def test_validation(self, matrix, servers):
        with pytest.raises(InvalidParameterError):
            chaos_workload(matrix, servers, n_events=0)
        with pytest.raises(InvalidParameterError):
            chaos_workload(matrix, servers, join_probability=1.0)


class TestRunChaos:
    def test_property_holds_with_torn_tails(self, tmp_path, matrix, servers):
        report = run_chaos(
            matrix,
            servers,
            tmp_path,
            n_events=40,
            kill_points=(6, 21),
            seed=5,
            capacity=12,
            policy=DegradePolicy(max_backlog=6),
            checkpoint_every=10,
        )
        assert report.ok
        assert report.kill_points == (6, 21)
        assert all(r.torn_tail for r in report.results)
        assert all(r.state_match for r in report.results)
        assert all(r.trajectory_match for r in report.results)
        assert all(r.final_match for r in report.results)
        assert "verdict: OK" in report.render()

    def test_replays_wal_tail_past_checkpoint(self, tmp_path, matrix, servers):
        """A kill point off the checkpoint cadence forces real replay."""
        report = run_chaos(
            matrix,
            servers,
            tmp_path,
            n_events=30,
            kill_points=(17,),
            seed=1,
            checkpoint_every=10,
            tear_tail=False,
        )
        assert report.ok
        (result,) = report.results
        assert not result.torn_tail
        assert result.replayed > 0

    def test_wal_only_recovery(self, tmp_path, matrix, servers):
        """checkpoint_every=0 recovers from the genesis record alone."""
        report = run_chaos(
            matrix,
            servers,
            tmp_path,
            n_events=20,
            kill_points=(13,),
            seed=2,
            checkpoint_every=0,
        )
        assert report.ok
        assert report.results[0].replayed >= 13

    def test_explicit_workload_passthrough(self, tmp_path, matrix, servers):
        nodes = [
            u
            for u in range(matrix.n_nodes)
            if u not in set(int(s) for s in servers)
        ]
        workload = tuple(
            {"op": "join", "node": n} for n in nodes[:10]
        ) + ({"op": "leave", "node": nodes[0]},)
        report = run_chaos(
            matrix, servers, tmp_path, workload=workload, kill_points=(4,)
        )
        assert report.ok and report.n_events == 11

    def test_kill_point_out_of_range(self, tmp_path, matrix, servers):
        with pytest.raises(InvalidParameterError, match="outside"):
            run_chaos(
                matrix, servers, tmp_path, n_events=10, kill_points=(99,)
            )

    def test_default_kill_points_cover_the_run(self, tmp_path, matrix, servers):
        report = run_chaos(
            matrix, servers, tmp_path, n_events=24, seed=9, checkpoint_every=5
        )
        assert len(report.kill_points) == 3
        assert report.ok
