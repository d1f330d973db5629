"""State invariants hold after every event served through ``handle``.

The perfbench-shaped churn (a 120-node Meridian-like matrix, 8
servers, a crash or recovery every 211 events, a partition or heal
every 307 and a rebalance every 401) is sent one event per ``batch``
request, and after each reply the session must satisfy:

- the manager's cached D equals a from-scratch recompute
  (:meth:`OnlineAssignmentManager.verify`);
- no server holds more clients than the capacity;
- the reply's ``clients`` and ``d`` are the manager's client count and
  D.
"""

from __future__ import annotations

import pytest

from repro.algorithms.online import OnlineConfig
from repro.resilience.checkpoint import encode_float
from repro.service.core import AssignmentService, SessionConfig
from repro.service.workload import generate_events

N_EVENTS = 2000


@pytest.mark.parametrize("capacity", [None, 16])
@pytest.mark.parametrize("policy", ["greedy", "threshold"])
def test_invariants_after_every_served_event(policy, capacity):
    config = SessionConfig(
        nodes=120,
        n_servers=8,
        matrix_seed=1,
        placement_seed=1,
        online=OnlineConfig(capacity=capacity, join_policy=policy),
    )
    with AssignmentService() as svc:
        session = svc.open_session(config)
        manager = session.runtime.manager
        events = generate_events(
            config.nodes,
            config.resolve_servers(svc.matrix_for(config)),
            n_events=N_EVENTS,
            seed=1,
            fault_every=211,
            partition_every=307,
            rebalance_every=401,
        )
        ops = set()
        for index, event in enumerate(events):
            reply = svc.handle(
                {"op": "batch", "session": session.id, "events": [event]}
            )
            assert reply["ok"], reply
            (result,) = reply["result"]["results"]
            assert "error" not in result, (index, result)
            ops.add(result["op"])
            assert manager.verify(), (index, event)
            if capacity is not None:
                assert int(manager.loads().max()) <= capacity, (index, event)
            assert result["clients"] == manager.n_clients
            assert result["d"] == encode_float(manager.current_d())
        assert ops == {
            "join", "leave", "crash", "recover", "partition", "heal", "rebalance"
        }
