"""Degraded-mode state machine: transitions, backlog, watermark, drain."""

import pytest

from repro.algorithms.online import OnlineAssignmentManager, OnlineConfig
from repro.datasets.synthetic import small_world_latencies
from repro.errors import InvalidParameterError, ResilienceError
from repro.resilience import (
    DEGRADED,
    HEALTHY,
    RECOVERING,
    DegradeController,
    DegradePolicy,
)
from repro.placement import random_placement


@pytest.fixture
def matrix():
    return small_world_latencies(30, seed=2)


@pytest.fixture
def servers(matrix):
    return random_placement(matrix, 3, seed=0)


def make(matrix, servers, *, capacity=None, policy=None):
    manager = OnlineAssignmentManager(matrix, servers, OnlineConfig(capacity=capacity))
    return manager, DegradeController(manager, policy)


def client_nodes(matrix, servers, n):
    server_set = set(int(s) for s in servers)
    return [u for u in range(matrix.n_nodes) if u not in server_set][:n]


class TestPolicy:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            DegradePolicy(max_backlog=-1)
        with pytest.raises(InvalidParameterError):
            DegradePolicy(d_budget=0.0)

    def test_defaults(self):
        policy = DegradePolicy()
        assert policy.max_backlog == 64 and policy.d_budget is None


class TestTransitions:
    def test_starts_healthy(self, matrix, servers):
        _, degrade = make(matrix, servers)
        assert degrade.state == HEALTHY and degrade.violation() is None

    def test_total_outage_degrades_then_recovers(self, matrix, servers):
        manager, degrade = make(matrix, servers)
        for s in range(3):
            manager.deactivate_server(s)
        assert degrade.violation() == "no-usable-server"
        degrade.tick()
        assert degrade.state == DEGRADED
        manager.reactivate_server(0)
        degrade.tick()
        assert degrade.state == RECOVERING
        degrade.tick()  # empty backlog drains immediately
        assert degrade.state == HEALTHY
        assert [t[:2] for t in degrade.transitions] == [
            (HEALTHY, DEGRADED),
            (DEGRADED, RECOVERING),
            (RECOVERING, HEALTHY),
        ]

    def test_partition_of_every_server_is_a_violation(self, matrix, servers):
        manager, degrade = make(matrix, servers)
        for s in range(3):
            manager.partition_server(s)
        assert degrade.violation() == "no-usable-server"

    def test_latency_budget_violation(self, matrix, servers):
        manager, degrade = make(
            matrix, servers, policy=DegradePolicy(d_budget=1e-6)
        )
        manager.join(client_nodes(matrix, servers, 1)[0])
        assert degrade.violation() == "latency-budget"
        degrade.tick()
        assert degrade.state == DEGRADED

    def test_at_most_one_transition_per_tick(self, matrix, servers):
        manager, degrade = make(matrix, servers)
        for s in range(3):
            manager.deactivate_server(s)
        degrade.tick()
        manager.reactivate_server(0)
        degrade.tick()
        # One tick moved DEGRADED -> RECOVERING only, not on to HEALTHY.
        assert degrade.state == RECOVERING

    def test_relapse_from_recovering(self, matrix, servers):
        manager, degrade = make(matrix, servers)
        for s in range(3):
            manager.deactivate_server(s)
        degrade.tick()
        manager.reactivate_server(0)
        degrade.tick()
        assert degrade.state == RECOVERING
        manager.deactivate_server(0)
        degrade.tick()
        assert degrade.state == DEGRADED


class TestBacklog:
    def test_queue_up_to_watermark_then_reject(self, matrix, servers):
        _, degrade = make(
            matrix, servers, policy=DegradePolicy(max_backlog=2)
        )
        nodes = client_nodes(matrix, servers, 3)
        assert degrade.admission_blocked(nodes[0], "capacity-exhausted") == "queued"
        assert degrade.state == DEGRADED
        assert degrade.admission_blocked(nodes[1], "degraded") == "queued"
        assert degrade.admission_blocked(nodes[2], "degraded") == "rejected"
        assert degrade.backlog == (nodes[0], nodes[1])
        assert degrade.n_queued == 2 and degrade.n_rejected == 1

    def test_zero_watermark_rejects_immediately(self, matrix, servers):
        _, degrade = make(matrix, servers, policy=DegradePolicy(max_backlog=0))
        node = client_nodes(matrix, servers, 1)[0]
        assert degrade.admission_blocked(node, "degraded") == "rejected"

    def test_drain_admits_fifo_and_returns_healthy(self, matrix, servers):
        manager, degrade = make(matrix, servers)
        for s in range(3):
            manager.deactivate_server(s)
        degrade.tick()
        nodes = client_nodes(matrix, servers, 3)
        for node in nodes:
            degrade.admission_blocked(node, "degraded")
        manager.reactivate_server(1)
        degrade.tick()
        assert degrade.state == RECOVERING
        degrade.tick()
        assert degrade.state == HEALTHY
        assert degrade.backlog == ()
        assert degrade.n_drained == 3
        for node in nodes:
            assert manager.is_connected(node)

    def test_capacity_block_leaves_head_queued(self, matrix, servers):
        manager, degrade = make(matrix, servers, capacity=1)
        for s in range(3):
            manager.deactivate_server(s)
        degrade.tick()
        nodes = client_nodes(matrix, servers, 2)
        for node in nodes:
            degrade.admission_blocked(node, "degraded")
        manager.reactivate_server(0)  # one slot for two queued joins
        degrade.tick()
        degrade.tick()
        assert manager.is_connected(nodes[0])
        assert degrade.backlog == (nodes[1],)
        assert degrade.state == RECOVERING
        manager.reactivate_server(1)
        degrade.tick()
        assert degrade.state == HEALTHY and degrade.n_drained == 2

    def test_discard_queued(self, matrix, servers):
        _, degrade = make(matrix, servers)
        node = client_nodes(matrix, servers, 1)[0]
        degrade.admission_blocked(node, "degraded")
        assert degrade.in_backlog(node)
        assert degrade.discard_queued(node)
        assert not degrade.discard_queued(node)
        assert degrade.backlog == ()


class TestRestore:
    def test_roundtrip(self, matrix, servers):
        manager, degrade = make(matrix, servers)
        for s in range(3):
            manager.deactivate_server(s)
        degrade.tick()
        node = client_nodes(matrix, servers, 1)[0]
        degrade.admission_blocked(node, "degraded")
        data = degrade.to_dict()

        _, fresh = make(matrix, servers)
        fresh.restore(data)
        assert fresh.to_dict() == data
        assert fresh.state == DEGRADED and fresh.backlog == (node,)

    def test_refuses_controller_with_history(self, matrix, servers):
        manager, degrade = make(matrix, servers)
        for s in range(3):
            manager.deactivate_server(s)
        degrade.tick()
        with pytest.raises(ResilienceError, match="history"):
            degrade.restore(degrade.to_dict())

    def test_rejects_unknown_state(self, matrix, servers):
        _, degrade = make(matrix, servers)
        with pytest.raises(ResilienceError, match="unknown degrade state"):
            degrade.restore(
                {
                    "state": "on-fire",
                    "backlog": [],
                    "n_queued": 0,
                    "n_rejected": 0,
                    "n_drained": 0,
                    "transitions": [],
                }
            )
