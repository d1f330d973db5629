"""The served event path reproduces a committed golden fixture exactly.

``tests/data/serve_hot_path_golden.json`` maps every case id below to
what :meth:`AssignmentService.handle` produced for one seeded
:func:`generate_events` stream sent as 250-event ``batch`` requests:

- the :func:`trajectory_digest` of every batch reply's ``results``;
- the final state digest;
- the values of the deterministic counters the stream moved:
  ``service.events.*``, ``online.*``, ``engine.*``, ``dga.*``,
  ``failover.*``, ``resilience.*`` and every kernel's call count
  (``kernel.<name>.calls``, the backend segment dropped so the numpy
  and numba backends share one fixture). Seconds and zero counts are
  not pinned.

Cases:

- ``perfbench/<policy>/seed<s>`` — the perfbench ``serve-volatile``
  session shape (a 120-node Meridian-like matrix, 8 servers, no
  capacity, ``matrix_seed = placement_seed = s``) and its traffic (a
  fault every 211 events, a partition every 307, a rebalance every
  401), 5 000 events, for each online policy and seeds 1 and 2;
- ``perfbench-pass/greedy/seed1`` — one full 20 000-event perfbench
  pass;
- ``capacity16/<policy>/seed1`` — the same traffic with a per-server
  capacity of 16, so joins queue, are rejected and drain.

With the service's fixed ``tau = 1.5`` the threshold policy never
falls back to the greedy choice on this traffic, so its cases pin
nearest-style decisions under a threshold config.

Loadgen's ``--verify`` compares the wire path against
:mod:`repro.service.replay`, which drives the same manager, failover
controller and engine as the server, so a decision change inside those
layers passes it. This fixture pins their output instead. It was
generated before the serving hot path was trimmed; regenerate (only
when a served decision is meant to change) with::

    PYTHONPATH=src python -c "
    import json, tests.service.test_serve_hot_path_golden as g
    golden = {cid: g.compute(cid) for cid in g.CASES}
    with open(g.GOLDEN_PATH, 'w') as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write('\\n')
    "
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List

import pytest

from repro.algorithms.online import OnlineConfig
from repro.obs import MetricsRegistry, use_registry
from repro.service.core import AssignmentService, SessionConfig
from repro.service.replay import trajectory_digest
from repro.service.workload import generate_events

GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent / "data" / "serve_hot_path_golden.json"
)

POLICIES = ("greedy", "nearest", "threshold", "spread")
BATCH = 250
TRAFFIC = {"fault_every": 211, "partition_every": 307, "rebalance_every": 401}

#: Counter families whose values are pure functions of the event stream.
PINNED_PREFIXES = (
    "service.events.",
    "online.",
    "engine.",
    "dga.",
    "failover.",
    "resilience.",
)


def cases() -> List[str]:
    out = [
        f"perfbench/{policy}/seed{seed}" for seed in (1, 2) for policy in POLICIES
    ]
    out.append("perfbench-pass/greedy/seed1")
    out.extend(f"capacity16/{policy}/seed1" for policy in POLICIES)
    return out


CASES = cases()


def case_setup(case_id: str):
    """``(SessionConfig, n_events, traffic, seed)`` of a case id."""
    kind, policy, seed_name = case_id.split("/")
    seed = int(seed_name[len("seed") :])
    config = SessionConfig(
        nodes=120,
        kind="meridian",
        n_servers=8,
        matrix_seed=seed,
        placement_seed=seed,
        online=OnlineConfig(
            capacity=16 if kind == "capacity16" else None,
            join_policy=policy,
        ),
    )
    n_events = 20000 if kind == "perfbench-pass" else 5000
    return config, n_events, dict(TRAFFIC), seed


def pinned_counters(metrics: MetricsRegistry) -> Dict[str, int]:
    """The deterministic nonzero counters of a run, kernel backends
    folded. A zero count is left out: whether an instrument that never
    moved was created up front or on first use is not a served result."""
    out: Dict[str, int] = {}
    for name, value in metrics.snapshot()["counters"].items():
        if not value:
            continue
        if name.startswith("kernel."):
            _kernel, _backend, *rest = name.split(".")
            if rest[-1] == "calls":
                out[".".join(["kernel", *rest])] = int(value)
        elif name.startswith(PINNED_PREFIXES):
            out[name] = int(value)
    return dict(sorted(out.items()))


def compute(case_id: str) -> Dict[str, Any]:
    """The served output and counters of one case."""
    config, n_events, traffic, seed = case_setup(case_id)
    metrics = MetricsRegistry()
    results: List[Dict[str, Any]] = []
    with use_registry(metrics), AssignmentService() as svc:
        session = svc.open_session(config)
        events = generate_events(
            config.nodes,
            config.resolve_servers(svc.matrix_for(config)),
            n_events=n_events,
            seed=seed,
            **traffic,
        )
        for start in range(0, n_events, BATCH):
            reply = svc.handle(
                {
                    "op": "batch",
                    "session": session.id,
                    "events": events[start : start + BATCH],
                }
            )
            assert reply["ok"], reply
            results.extend(reply["result"]["results"])
        digest = svc.handle(
            {"op": "query", "session": session.id, "what": "digest"}
        )["result"]["digest"]
    return {
        "trajectory": trajectory_digest(results),
        "digest": digest,
        "counters": pinned_counters(metrics),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case_id", CASES)
def test_served_path_matches_golden(case_id, golden):
    assert compute(case_id) == golden[case_id]
