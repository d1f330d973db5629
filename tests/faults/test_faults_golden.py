"""``repro faults`` reproduces a committed golden fixture exactly.

``tests/data/faults_churn_golden.json`` maps every case id below to what
:func:`~repro.faults.simulate_churn_with_faults` produced for the
default ``repro faults`` set-up: a 200-node Meridian-like matrix (seed
0), 16 k-center-b servers, 300 churn events and a fault schedule with
MTTF 120 and MTTR 40, run with ``nearest`` and ``greedy`` joins. A
second pair of cases adds ``capacity=1, rebalance_every=25``, so crashes
shed clients and periodic rebalances move them. Each case stores every
trace point's event, client count, active-server count and D (as
``float.hex()``), every crash and recovery record's ``to_dict()``, and
the rebalance move total, so a change of one bit anywhere on the
timeline shows up as a mismatch.

Regenerate (only when the fault path's output is meant to change)
with::

    PYTHONPATH=src python -c "
    import json, tests.faults.test_faults_golden as g
    golden = {cid: g.record(kw) for cid, kw in g.CASES.items()}
    with open(g.GOLDEN_PATH, 'w') as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write('\\n')
    "
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict

import pytest

from repro.datasets import synthesize_meridian_like
from repro.faults import FaultSchedule, simulate_churn_with_faults
from repro.placement import kcenter_b

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "data" / "faults_churn_golden.json"

NODES = 200
SERVERS = 16
EVENTS = 300
MTTF = 120.0
MTTR = 40.0
SEED = 0

CASES: Dict[str, Dict[str, Any]] = {
    "default/nearest": {"join_policy": "nearest"},
    "default/greedy": {"join_policy": "greedy"},
    "capacity1/nearest": {"join_policy": "nearest", "capacity": 1, "rebalance_every": 25},
    "capacity1/greedy": {"join_policy": "greedy", "capacity": 1, "rebalance_every": 25},
}


@lru_cache(maxsize=1)
def _setup():
    """The matrix, servers and schedule ``repro faults`` builds by default."""
    matrix = synthesize_meridian_like(NODES, seed=SEED)
    servers = kcenter_b(matrix, SERVERS, seed=SEED)
    schedule = FaultSchedule.generate(
        SERVERS,
        float(EVENTS),
        mttf=MTTF,
        mttr=MTTR,
        seed=SEED,
        max_concurrent_down=max(1, SERVERS // 2),
    )
    return matrix, servers, schedule


def record(kwargs: Dict[str, Any]) -> Dict[str, Any]:
    """One run's golden entry."""
    matrix, servers, schedule = _setup()
    result = simulate_churn_with_faults(
        matrix, servers, schedule, n_events=EVENTS, seed=SEED, **kwargs
    )
    return {
        "trace": [
            [p.event, p.n_clients, p.n_active_servers, float(p.d).hex()]
            for p in result.trace
        ],
        "crash_records": [r.to_dict() for r in result.crash_records],
        "recovery_records": [r.to_dict() for r in result.recovery_records],
        "moves_by_rebalance": result.moves_by_rebalance,
    }


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_fault_churn_matches_golden(golden, case_id):
    assert record(CASES[case_id]) == golden[case_id]


def test_capacitated_cases_shed_and_rebalance(golden):
    # The capacitated cases exercise the shed and rebalance branches;
    # the uncapacitated ones shed nothing.
    for policy in ("nearest", "greedy"):
        capped = golden[f"capacity1/{policy}"]
        assert sum(len(r["shed"]) for r in capped["crash_records"]) >= 1
        assert capped["moves_by_rebalance"] > 0
        free = golden[f"default/{policy}"]
        assert all(not r["shed"] for r in free["crash_records"])
