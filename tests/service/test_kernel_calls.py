"""Per-event engine work on the serving path stays bounded.

Most churn events leave every server's farthest-client legs ``l(s)``
unchanged, and the engine keeps its cached D and server reductions
across such commits. This replays the ``repro loadgen`` default
traffic in-process and bounds how often the two O(|S|^2) kernels run,
so a change that brings back unconditional cache invalidation (about
one ``objective_refresh`` per event) fails here instead of silently
costing throughput.
"""

from repro.obs import MetricsRegistry, use_registry
from repro.service.core import AssignmentService, SessionConfig
from repro.service.workload import generate_events

N_EVENTS = 2000
BATCH = 250


def test_serve_replay_kernel_calls_are_bounded():
    metrics = MetricsRegistry()
    with use_registry(metrics), AssignmentService() as svc:
        config = SessionConfig(nodes=120, n_servers=8)
        session = svc.open_session(config)
        events = generate_events(
            config.nodes,
            config.resolve_servers(svc.matrix_for(config)),
            n_events=N_EVENTS,
            seed=0,
            fault_every=211,
            partition_every=307,
            rebalance_every=401,
        )
        for start in range(0, N_EVENTS, BATCH):
            reply = svc.handle(
                {
                    "op": "batch",
                    "session": session.id,
                    "events": events[start : start + BATCH],
                }
            )
            assert reply["ok"], reply
    prefix = "kernel.numpy"
    refreshes = metrics.counter(f"{prefix}.objective_refresh.calls").value
    reductions = metrics.counter(f"{prefix}.reduction_top2.calls").value
    assert 0 < refreshes <= 0.1 * N_EVENTS
    assert 0 < reductions <= 0.25 * N_EVENTS
