"""Every event path reproduces a committed golden fixture exactly.

``tests/data/event_paths_golden.json`` maps every case id below to the
output one execution path produced for it:

- ``scenario/<name>/<policy>/library`` — the harness's library-path
  :meth:`ReplayResult.to_dict` (minus ``elapsed_seconds``) for each
  bundled scenario and each of the four online policies, at
  ``checkpoint_every=16`` and default maintenance;
- ``scenario/<name>/<policy>/sharded`` — the same on the sharded path
  (``shards=3``) for the scenarios without fault events;
- ``service/<mode>`` — :func:`trajectory_digest` of the ``batch``
  replies and the final state digest for a 2000-event
  :func:`generate_events` stream on volatile, WAL-backed and sharded
  (``shards=4``, fault events off) sessions;
- ``chaos/<seed>`` — the final digest of a :func:`run_chaos` baseline
  and the SHA-256 of its WAL file's bytes, so a change to the WAL
  record shapes (which existing directories must still recover from)
  shows up here.

The fixture was generated before the event semantics moved into
:mod:`repro.resilience.events`, so it pins the behavior every path had
while each kept its own copy. Regenerate (only when an event path's
output is meant to change) with::

    PYTHONPATH=src python -c "
    import json, tests.service.test_event_paths_golden as g
    golden = {cid: g.compute(cid) for cid in g.CASES}
    with open(g.GOLDEN_PATH, 'w') as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write('\\n')
    "
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, List

import pytest

from repro.algorithms.online import OnlineConfig
from repro.datasets.synthetic import small_world_latencies
from repro.placement import random_placement
from repro.resilience import DegradePolicy, run_chaos
from repro.resilience.runtime import WAL_NAME, DurabilityConfig
from repro.scenarios import (
    ReplayOptions,
    bundled_scenario,
    replay_scenario,
    scenario_names,
)
from repro.service.core import AssignmentService, SessionConfig
from repro.service.replay import trajectory_digest
from repro.service.workload import generate_events

GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent / "data" / "event_paths_golden.json"
)

POLICIES = ("greedy", "nearest", "threshold", "spread")
FAULT_SCENARIOS = ("regional-outage",)
CHAOS_SEEDS = (3, 8)

#: Session shape shared by the three service cases.
SESSION_FIELDS = {"nodes": 100, "n_servers": 8, "max_backlog": 48}


def cases() -> List[str]:
    out = []
    for name in scenario_names():
        for policy in POLICIES:
            out.append(f"scenario/{name}/{policy}/library")
            if name not in FAULT_SCENARIOS:
                out.append(f"scenario/{name}/{policy}/sharded")
    out.extend(f"service/{mode}" for mode in ("volatile", "wal", "sharded"))
    out.extend(f"chaos/{seed}" for seed in CHAOS_SEEDS)
    return out


CASES = cases()


def _scenario(name: str, policy: str, path: str) -> Dict[str, Any]:
    options = ReplayOptions(path=path, shards=3, checkpoint_every=16)
    doc = replay_scenario(
        bundled_scenario(name), policy, options=options
    ).to_dict()
    doc.pop("elapsed_seconds")
    return doc


def _service(mode: str, base_dir: str) -> Dict[str, Any]:
    sharded = mode == "sharded"
    config = SessionConfig(
        **{
            **SESSION_FIELDS,
            "online": OnlineConfig(capacity=16, shards=4 if sharded else 1),
            "durability": DurabilityConfig(
                mode="wal" if mode == "wal" else "off", checkpoint_every=100
            ),
        }
    )
    with AssignmentService(base_dir=base_dir) as svc:
        session = svc.open_session(config)
        matrix = svc.matrix_for(config)
        events = generate_events(
            config.nodes,
            config.resolve_servers(matrix),
            n_events=2000,
            seed=42,
            fault_every=0 if sharded else 211,
            partition_every=0 if sharded else 307,
            rebalance_every=401,
        )
        reply = svc.handle(
            {"op": "batch", "session": session.id, "events": events}
        )
        assert reply["ok"], reply
        digest = svc.handle(
            {"op": "query", "session": session.id, "what": "digest"}
        )["result"]["digest"]
    return {
        "trajectory": trajectory_digest(reply["result"]["results"]),
        "digest": digest,
    }


def _chaos(seed: int, base_dir: str) -> Dict[str, Any]:
    matrix = small_world_latencies(40, seed=7)
    servers = random_placement(matrix, 4, seed=2)
    report = run_chaos(
        matrix,
        servers,
        base_dir,
        n_events=60,
        kill_points=(25,),
        seed=seed,
        capacity=10,
        policy=DegradePolicy(max_backlog=6),
        checkpoint_every=10,
    )
    assert report.ok
    wal = Path(base_dir, "baseline", WAL_NAME).read_bytes()
    return {
        "digest": report.baseline_final_digest,
        "wal_sha256": hashlib.sha256(wal).hexdigest(),
    }


def compute(case_id: str) -> Dict[str, Any]:
    """The current output of the path a case id names."""
    kind, *rest = case_id.split("/")
    if kind == "scenario":
        return _scenario(*rest)
    with tempfile.TemporaryDirectory() as base_dir:
        if kind == "service":
            return _service(rest[0], base_dir)
        return _chaos(int(rest[0]), os.path.join(base_dir, "chaos"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case_id", CASES)
def test_event_path_matches_golden(case_id, golden):
    assert compute(case_id) == golden[case_id]
