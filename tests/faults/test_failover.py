"""Tests for server liveness in the online manager and the failover
controller."""

import numpy as np
import pytest

from repro.algorithms.online import OnlineAssignmentManager, OnlineConfig
from repro.datasets.synthetic import small_world_latencies
from repro.errors import (
    CapacityError,
    FailoverError,
    InvalidParameterError,
    ReproError,
)
from repro.faults import FailoverController, FaultEvent
from repro.placement import random_placement


@pytest.fixture
def matrix():
    return small_world_latencies(50, seed=9)


@pytest.fixture
def servers(matrix):
    return random_placement(matrix, 5, seed=0)


def populated_manager(matrix, servers, *, capacity=None, n=25):
    manager = OnlineAssignmentManager(matrix, servers, OnlineConfig(capacity=capacity))
    server_set = set(int(s) for s in servers)
    nodes = [u for u in range(matrix.n_nodes) if u not in server_set][:n]
    for node in nodes:
        manager.join(node)
    return manager


class TestLiveness:
    def test_deactivate_excludes_from_joins(self, matrix, servers):
        manager = OnlineAssignmentManager(matrix, servers)
        manager.deactivate_server(2)
        for node in range(6, 26):
            if node in set(int(s) for s in servers):
                continue
            assert manager.join(node) != 2

    def test_deactivate_reports_stranded(self, matrix, servers):
        manager = populated_manager(matrix, servers)
        members = manager.members_of(0)
        assert manager.deactivate_server(0) == members

    def test_reactivate_idempotent(self, matrix, servers):
        manager = OnlineAssignmentManager(matrix, servers)
        manager.deactivate_server(1)
        assert not manager.is_active(1)
        manager.reactivate_server(1)
        manager.reactivate_server(1)
        assert manager.is_active(1)
        assert manager.n_active_servers == 5

    def test_bad_server_index(self, matrix, servers):
        manager = OnlineAssignmentManager(matrix, servers)
        with pytest.raises(InvalidParameterError):
            manager.deactivate_server(99)
        with pytest.raises(InvalidParameterError):
            manager.is_active(-1)

    def test_all_down_join_raises_capacity(self, matrix, servers):
        manager = OnlineAssignmentManager(matrix, servers)
        for s in range(5):
            manager.deactivate_server(s)
        with pytest.raises(CapacityError):
            manager.join(10)


class TestEvacuate:
    def test_moves_every_stranded_client(self, matrix, servers):
        manager = populated_manager(matrix, servers)
        victim = int(np.argmax(manager.loads()))
        stranded = manager.deactivate_server(victim)
        moves = manager.evacuate(victim)
        assert sorted(c for c, _s in moves) == sorted(stranded)
        assert manager.loads()[victim] == 0
        assert manager.n_clients == 25
        assert all(s != victim for _c, s in moves)
        assert manager.verify()

    def test_respects_capacity(self, matrix, servers):
        manager = populated_manager(matrix, servers, capacity=8)
        victim = int(np.argmax(manager.loads()))
        manager.deactivate_server(victim)
        manager.evacuate(victim)
        assert np.all(manager.loads() <= 8)

    def test_active_server_refused(self, matrix, servers):
        manager = populated_manager(matrix, servers)
        with pytest.raises(FailoverError):
            manager.evacuate(0)

    def test_insufficient_capacity_raises_without_state_change(
        self, matrix, servers
    ):
        # 25 clients but only 4 * 6 = 24 surviving slots after any
        # single crash, so the stranded set can never fully fit.
        manager = populated_manager(matrix, servers, capacity=6, n=25)
        victim = int(np.argmax(manager.loads()))
        before_assigned = {c: manager.server_of(c) for c in manager.clients}
        manager.deactivate_server(victim)
        with pytest.raises(FailoverError):
            manager.evacuate(victim)
        after_assigned = {c: manager.server_of(c) for c in manager.clients}
        assert before_assigned == after_assigned

    def test_empty_server_noop(self, matrix, servers):
        manager = OnlineAssignmentManager(matrix, servers)
        manager.deactivate_server(3)
        assert manager.evacuate(3) == []


class TestMove:
    def test_move_and_capacity(self, matrix, servers):
        manager = populated_manager(matrix, servers, capacity=10)
        client = manager.clients[0]
        target = (manager.server_of(client) + 1) % 5
        if manager.loads()[target] < 10:
            manager.move(client, target)
            assert manager.server_of(client) == target

    def test_move_to_down_server_refused(self, matrix, servers):
        manager = populated_manager(matrix, servers)
        client = manager.clients[0]
        target = (manager.server_of(client) + 1) % 5
        manager.deactivate_server(target)
        with pytest.raises(FailoverError):
            manager.move(client, target)

    def test_move_unknown_client(self, matrix, servers):
        manager = OnlineAssignmentManager(matrix, servers)
        with pytest.raises(ReproError):
            manager.move(10, 0)


class TestRebalanceWithDownServers:
    def test_rebalance_avoids_down_server(self, matrix, servers):
        manager = populated_manager(matrix, servers)
        victim = int(np.argmax(manager.loads()))
        manager.deactivate_server(victim)
        manager.evacuate(victim)
        manager.rebalance(max_moves=30)
        assert manager.loads()[victim] == 0
        assert manager.verify()

    def test_rebalance_with_stranded_clients_refused(self, matrix, servers):
        manager = populated_manager(matrix, servers)
        victim = int(np.argmax(manager.loads()))
        if not manager.members_of(victim):
            pytest.skip("victim had no members")
        manager.deactivate_server(victim)
        with pytest.raises(FailoverError):
            manager.rebalance(max_moves=5)


class TestFailoverController:
    def test_crash_record(self, matrix, servers):
        manager = populated_manager(matrix, servers)
        controller = FailoverController(manager)
        d0 = manager.current_d()
        victim = int(np.argmax(manager.loads()))
        n_stranded = len(manager.members_of(victim))
        record = controller.on_crash(victim, time=12.5)
        assert record.time == 12.5
        assert record.server == victim
        assert record.n_evacuated == n_stranded
        assert record.shed == ()
        assert record.d_before == pytest.approx(d0)
        assert record.d_degraded >= d0 - 1e-9
        assert record.inflation >= 1.0 - 1e-12
        assert controller.crash_records == (record,)

    def test_recovery_rebalance_repairs(self, matrix, servers):
        manager = populated_manager(matrix, servers)
        controller = FailoverController(manager, readmit_moves=32)
        victim = int(np.argmax(manager.loads()))
        crash = controller.on_crash(victim, time=1.0)
        recovery = controller.on_recover(victim, time=2.0)
        assert recovery.d_before == pytest.approx(crash.d_degraded)
        assert recovery.d_after <= recovery.d_before + 1e-9
        assert manager.is_active(victim)

    def test_readmit_zero_disables_rebalance(self, matrix, servers):
        manager = populated_manager(matrix, servers)
        controller = FailoverController(manager, readmit_moves=0)
        victim = int(np.argmax(manager.loads()))
        controller.on_crash(victim)
        recovery = controller.on_recover(victim)
        assert recovery.rebalance_moves == 0
        assert recovery.d_after == pytest.approx(recovery.d_before)

    def test_strict_policy_raises_on_overflow(self, matrix, servers):
        # 25 clients, 4 * 6 = 24 surviving slots: strict must refuse.
        manager = populated_manager(matrix, servers, capacity=6, n=25)
        controller = FailoverController(manager, shed_policy="strict")
        victim = int(np.argmax(manager.loads()))
        with pytest.raises(FailoverError):
            controller.on_crash(victim)

    def test_shed_policy_disconnects_overflow(self, matrix, servers):
        # Exactly one client more than the survivors can absorb.
        manager = populated_manager(matrix, servers, capacity=6, n=25)
        controller = FailoverController(manager, shed_policy="shed")
        loads = manager.loads()
        victim = int(np.argmax(loads))
        free_elsewhere = sum(
            6 - int(loads[s]) for s in range(5) if s != victim
        )
        overflow = int(loads[victim]) - free_elsewhere
        assert overflow == 1
        record = controller.on_crash(victim)
        assert len(record.shed) == 1
        assert manager.n_clients == 24
        assert np.all(manager.loads() <= 6)
        assert manager.loads()[victim] == 0

    def test_total_outage_sheds_everyone(self, matrix, servers):
        manager = populated_manager(matrix, servers, n=10)
        controller = FailoverController(manager, shed_policy="shed")
        for s in range(4):
            controller.on_crash(s)
        last = controller.on_crash(4)
        assert manager.n_clients == 0
        assert len(last.shed) > 0 or last.n_evacuated == 0

    def test_apply_dispatch(self, matrix, servers):
        manager = populated_manager(matrix, servers)
        controller = FailoverController(manager)
        controller.apply(FaultEvent(3.0, "crash", 1))
        controller.apply(FaultEvent(4.0, "recover", 1))
        assert len(controller.crash_records) == 1
        assert len(controller.recovery_records) == 1
        with pytest.raises(FailoverError):
            controller.apply(FaultEvent(5.0, "flood", 1))

    def test_invalid_parameters(self, matrix, servers):
        manager = OnlineAssignmentManager(matrix, servers)
        with pytest.raises(InvalidParameterError):
            FailoverController(manager, readmit_moves=-1)
        with pytest.raises(InvalidParameterError):
            FailoverController(manager, shed_policy="panic")


class TestFailoverEdgeCases:
    def test_crash_and_recover_same_tick(self, matrix, servers):
        """A bounce (crash + recover at the same time) leaves a valid
        assignment and both records with matching D hand-off."""
        manager = populated_manager(matrix, servers)
        controller = FailoverController(manager, readmit_moves=16)
        victim = int(np.argmax(manager.loads()))
        crash = controller.on_crash(victim, time=5.0)
        recovery = controller.on_recover(victim, time=5.0)
        assert crash.time == recovery.time == 5.0
        assert manager.is_active(victim)
        assert manager.n_clients == 25
        assert recovery.d_before == pytest.approx(crash.d_degraded)
        assert manager.verify()

    def test_crash_during_readmission(self, matrix, servers):
        """A second server dies right as the first one's readmission
        completes: no client is lost or double-assigned."""
        manager = populated_manager(matrix, servers, capacity=10)
        controller = FailoverController(
            manager, readmit_moves=16, shed_policy="shed"
        )
        controller.on_crash(0, time=1.0)
        controller.on_recover(0, time=2.0)
        # The crash interleaves with the tail of the readmission window.
        second = controller.on_crash(1, time=2.0)
        assert not manager.is_active(1)
        assert manager.loads()[1] == 0
        assert manager.n_clients == 25 - len(second.shed)
        assert np.all(manager.loads() <= 10)
        assert manager.verify()

    def test_evacuation_with_all_survivors_at_capacity(self, matrix, servers):
        # 5 servers x capacity 5 = 25 slots, all full: zero free slots
        # anywhere, so every stranded client must be shed (or strict
        # must refuse).
        manager = populated_manager(matrix, servers, capacity=5, n=25)
        assert np.all(manager.loads() == 5)
        victim = int(np.argmax(manager.loads()))
        strict = FailoverController(manager, shed_policy="strict")
        with pytest.raises(FailoverError):
            strict.on_crash(victim)

        manager2 = populated_manager(matrix, servers, capacity=5, n=25)
        shed_controller = FailoverController(manager2, shed_policy="shed")
        record = shed_controller.on_crash(victim)
        assert record.n_evacuated == 0
        assert len(record.shed) == 5
        assert manager2.n_clients == 20
        assert np.all(manager2.loads() <= 5)
        assert manager2.verify()

    def test_record_serialization_roundtrip(self, matrix, servers):
        from repro.faults import CrashRecord, RecoveryRecord

        manager = populated_manager(matrix, servers)
        controller = FailoverController(manager, readmit_moves=8)
        victim = int(np.argmax(manager.loads()))
        crash = controller.on_crash(victim, time=3.25)
        recovery = controller.on_recover(victim, time=4.75)
        assert CrashRecord.from_dict(crash.to_dict()) == crash
        assert RecoveryRecord.from_dict(recovery.to_dict()) == recovery

    def test_restore_records_refuses_history(self, matrix, servers):
        manager = populated_manager(matrix, servers)
        controller = FailoverController(manager)
        controller.on_crash(0)
        with pytest.raises(FailoverError, match="history"):
            controller.restore_records([], [])


class TestPartitionReachability:
    def test_partition_keeps_members_serving_stale(self, matrix, servers):
        manager = populated_manager(matrix, servers)
        members = manager.members_of(2)
        stale = manager.partition_server(2)
        assert stale == tuple(sorted(members))
        assert not manager.is_reachable(2)
        assert manager.is_active(2)  # partitioned, not down
        for client in members:
            assert manager.server_of(client) == 2

    def test_joins_avoid_unreachable_server(self, matrix, servers):
        manager = OnlineAssignmentManager(matrix, servers)
        manager.partition_server(1)
        server_set = set(int(s) for s in servers)
        for node in range(20):
            if node in server_set:
                continue
            assert manager.join(node) != 1

    def test_heal_restores_placement_targets(self, matrix, servers):
        manager = OnlineAssignmentManager(matrix, servers)
        manager.partition_server(0)
        assert manager.n_usable_servers == 4
        manager.heal_server(0)
        assert manager.n_usable_servers == 5
        assert manager.is_reachable(0)

    def test_usable_servers_track_overlapping_crash_and_partition(
        self, matrix, servers
    ):
        manager = populated_manager(matrix, servers)
        client = manager.clients[0]
        steps = [
            (manager.deactivate_server, 0, 4),
            (manager.partition_server, 0, 4),
            (manager.partition_server, 3, 3),
            (manager.heal_server, 0, 3),
            (manager.reactivate_server, 0, 4),
            (manager.reactivate_server, 0, 4),
            (manager.heal_server, 3, 5),
        ]
        for change, server, n_usable in steps:
            change(server)
            assert manager.n_usable_servers == n_usable
            usable = [
                manager.is_active(s) and manager.is_reachable(s)
                for s in range(5)
            ]
            assert sum(usable) == n_usable
            costs = manager.candidate_costs(client)
            assert np.array_equal(np.isfinite(costs), usable)

    def test_move_to_unreachable_refused(self, matrix, servers):
        manager = populated_manager(matrix, servers)
        client = manager.clients[0]
        target = (manager.server_of(client) + 1) % 5
        manager.partition_server(target)
        with pytest.raises(FailoverError):
            manager.move(client, target)

    def test_rebalance_skips_clients_behind_partition(self, matrix, servers):
        manager = populated_manager(matrix, servers)
        victim = int(np.argmax(manager.loads()))
        members = set(manager.members_of(victim))
        manager.partition_server(victim)
        manager.rebalance(max_moves=30)
        # Stale-served clients stay put; reachable clients stay valid.
        for client in members:
            assert manager.server_of(client) == victim
        assert manager.verify()

    def test_controller_apply_partition_and_heal(self, matrix, servers):
        manager = populated_manager(matrix, servers)
        controller = FailoverController(manager)
        controller.apply(FaultEvent(1.0, "partition", 3))
        assert not manager.is_reachable(3)
        controller.apply(FaultEvent(2.0, "heal", 3))
        assert manager.is_reachable(3)
        # Partition edges are not crashes: no records accumulate.
        assert controller.crash_records == ()
