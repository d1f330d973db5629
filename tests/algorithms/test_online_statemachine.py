"""Stateful property test: the online manager under arbitrary
join/leave/rebalance interleavings.

Hypothesis drives a rule-based state machine against
:class:`OnlineAssignmentManager`, checking after every step that the
manager's incremental bookkeeping (loads, membership, current D) agrees
with a from-scratch recomputation.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.algorithms.online import OnlineAssignmentManager, OnlineConfig
from repro.datasets.synthetic import small_world_latencies
from repro.placement import random_placement

MATRIX = small_world_latencies(30, seed=77)
SERVERS = random_placement(MATRIX, 4, seed=0)
SERVER_SET = {int(s) for s in SERVERS}
CANDIDATES = [u for u in range(MATRIX.n_nodes) if u not in SERVER_SET]
CAPACITY = 10


class OnlineManagerMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.manager = OnlineAssignmentManager(
            MATRIX, SERVERS, OnlineConfig(capacity=CAPACITY)
        )
        self.model: dict = {}  # node -> server (mirror of expected state)

    # ------------------------------------------------------------------
    @precondition(lambda self: len(self.model) < len(CANDIDATES))
    @rule(pick=st.integers(min_value=0, max_value=10**6))
    def join(self, pick: int) -> None:
        free = [u for u in CANDIDATES if u not in self.model]
        node = free[pick % len(free)]
        server = self.manager.join(node)
        self.model[node] = server

    @precondition(lambda self: self.model)
    @rule(pick=st.integers(min_value=0, max_value=10**6))
    def leave(self, pick: int) -> None:
        nodes = sorted(self.model)
        node = nodes[pick % len(nodes)]
        self.manager.leave(node)
        del self.model[node]

    @precondition(lambda self: len(self.model) >= 2)
    @rule(moves=st.integers(min_value=1, max_value=5))
    def rebalance(self, moves: int) -> None:
        before = self.manager.current_d()
        self.manager.rebalance(max_moves=moves)
        after = self.manager.current_d()
        assert after <= before + 1e-9
        # Refresh the mirror: rebalance may move any client.
        self.model = {
            node: self.manager.server_of(node) for node in self.manager.clients
        }

    # ------------------------------------------------------------------
    @invariant()
    def membership_consistent(self) -> None:
        assert self.manager.n_clients == len(self.model)
        assert self.manager.clients == tuple(sorted(self.model))
        for node, server in self.model.items():
            assert self.manager.server_of(node) == server

    @invariant()
    def loads_match_membership(self) -> None:
        expected = np.zeros(self.manager.n_servers, dtype=np.int64)
        for server in self.model.values():
            expected[server] += 1
        np.testing.assert_array_equal(self.manager.loads(), expected)
        assert np.all(self.manager.loads() <= CAPACITY)

    @invariant()
    def incremental_d_matches_exact(self) -> None:
        assert self.manager.verify()


TestOnlineManagerMachine = OnlineManagerMachine.TestCase
TestOnlineManagerMachine.settings = settings(
    max_examples=20, stateful_step_count=30, deadline=None
)
