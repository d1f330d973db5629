"""The OnlinePolicy seam must not change the manager's decisions.

``tests/data/online_decision_traces.json`` holds decision streams of
``OnlineAssignmentManager`` captured *before* the policy seam existed
(PR 10), as ``(op, ...)`` tuples with D values in float hex. Replaying
the same deterministic trajectory through today's manager must
reproduce those streams byte for byte, with and without capacities.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.online import OnlineAssignmentManager, OnlineConfig
from repro.algorithms.policies import (
    CapacityError as PolicyCapacityError,
    ThresholdPolicy,
    best_finite,
    policy_names,
    resolve_policy,
    validate_policy_name,
)
from repro.datasets import planet_instance
from repro.errors import CapacityError, InvalidParameterError

TRACES_PATH = Path(__file__).parent.parent / "data" / "online_decision_traces.json"


@pytest.fixture(scope="module")
def golden():
    with TRACES_PATH.open("r", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["schema"] == "online-decision-traces-v1"
    return doc


@pytest.fixture(scope="module")
def instance(golden):
    spec = golden["instance"]
    return planet_instance(
        spec["clients"],
        spec["servers"],
        n_clusters=spec["n_clusters"],
        seed=spec["seed"],
    )


def _drive(manager, universe, *, rng_seed, n_events):
    """The exact trajectory the golden traces were captured with."""
    rng = np.random.default_rng(rng_seed)
    connected = []
    log = []
    for _ in range(n_events):
        roll = rng.random()
        if connected and roll < 0.25:
            node = connected.pop(int(rng.integers(len(connected))))
            manager.leave(node)
            log.append(["leave", int(node)])
        elif connected and roll < 0.35:
            node = connected[int(rng.integers(len(connected)))]
            server = int(rng.integers(manager.n_servers))
            try:
                manager.move(node, server)
                log.append(["move", int(node), server])
            except CapacityError:
                log.append(["move-full", int(node), server])
        else:
            candidates = [n for n in universe if not manager.is_connected(n)]
            if not candidates:
                continue
            node = candidates[int(rng.integers(len(candidates)))]
            try:
                server = manager.join(int(node))
                connected.append(int(node))
                log.append(["join", int(node), int(server)])
            except CapacityError:
                log.append(["join-full", int(node)])
        log.append(["d", manager.current_d().hex()])
    return log


def _params(golden_doc):
    return golden_doc["drive"]["rng_seed"], golden_doc["drive"]["n_events"]


@pytest.mark.parametrize("policy", ["greedy", "nearest"])
@pytest.mark.parametrize("capacity", [None, 30])
def test_manager_matches_pre_seam_traces(golden, instance, policy, capacity):
    key = f"{policy}/{'none' if capacity is None else capacity}"
    manager = OnlineAssignmentManager(
        instance.provider,
        instance.servers,
        OnlineConfig(capacity=capacity, join_policy=policy),
        client_nodes=instance.clients,
    )
    rng_seed, n_events = _params(golden)
    log = _drive(
        manager,
        [int(n) for n in instance.clients],
        rng_seed=rng_seed,
        n_events=n_events,
    )
    assert log == golden["traces"][key]


class TestRegistry:
    def test_all_policies_registered(self):
        names = policy_names()
        for expected in ("greedy", "nearest", "threshold", "spread"):
            assert expected in names
        assert names == sorted(names)

    def test_validate_rejects_unknown(self):
        with pytest.raises(InvalidParameterError):
            validate_policy_name("does-not-exist")

    def test_resolve_returns_fresh_instances(self):
        a = resolve_policy("threshold")
        b = resolve_policy("threshold")
        assert a is not b

    def test_config_validates_policy_name(self):
        with pytest.raises(InvalidParameterError):
            OnlineConfig(join_policy="does-not-exist")


class TestBestFinite:
    def test_picks_lowest_index_on_ties(self):
        assert best_finite(np.array([2.0, 1.0, 1.0])) == 1

    def test_all_infinite_raises(self):
        with pytest.raises(PolicyCapacityError):
            best_finite(np.array([np.inf, np.inf]))


class _FixedView:
    """A placement view with fixed cost vectors."""

    def __init__(self, nearest, paths):
        self._nearest = np.array(nearest)
        self._paths = np.array(paths)

    def nearest_costs(self):
        return self._nearest

    def path_costs(self):
        return self._paths


class TestThresholdFallback:
    """Server 0 is nearest; server 1 has the best path, 6. With
    ``tau = 1.5`` the fallback fires only when the nearest server's
    path exceeds 9 strictly."""

    @pytest.mark.parametrize(
        "near_path, expected",
        [(10.0, 1), (9.0, 0), (8.95, 0)],
    )
    def test_falls_back_only_past_tau(self, near_path, expected):
        view = _FixedView([1.0, 2.0, 3.0], [near_path, 6.0, 7.0])
        assert ThresholdPolicy(tau=1.5).choose_server(view) == expected


class TestRemediationPolicies:
    """Threshold and spread stay feasible under capacities."""

    @pytest.fixture(scope="class")
    def small(self):
        return planet_instance(120, 6, n_clusters=8, seed=41)

    @pytest.mark.parametrize("policy", ["threshold", "spread"])
    def test_capacity_never_violated(self, small, policy):
        capacity = 12
        manager = OnlineAssignmentManager(
            small.provider,
            small.servers,
            OnlineConfig(capacity=capacity, join_policy=policy),
            client_nodes=small.clients,
        )
        rng = np.random.default_rng(7)
        connected = []
        for _ in range(200):
            if connected and rng.random() < 0.3:
                node = connected.pop(int(rng.integers(len(connected))))
                manager.leave(node)
            else:
                pool = [
                    int(n) for n in small.clients if not manager.is_connected(n)
                ]
                if not pool:
                    continue
                node = pool[int(rng.integers(len(pool)))]
                try:
                    manager.join(node)
                    connected.append(node)
                except CapacityError:
                    pass
            manager.policy.maintain(manager, max_moves=2)
            loads = manager.loads()
            assert int(loads.max(initial=0)) <= capacity
            assert int(loads.sum()) == len(connected)

    @pytest.mark.parametrize("policy", ["threshold", "spread"])
    def test_maintain_respects_move_budget(self, small, policy):
        manager = OnlineAssignmentManager(
            small.provider,
            small.servers,
            OnlineConfig(capacity=None, join_policy=policy),
            client_nodes=small.clients,
        )
        for node in list(small.clients)[:40]:
            manager.join(int(node))
        moves = manager.policy.maintain(manager, max_moves=3)
        assert 0 <= moves <= 3
