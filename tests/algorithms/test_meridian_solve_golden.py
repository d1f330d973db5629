"""The Meridian solve path reproduces a committed golden fixture exactly.

``tests/data/meridian_solve_golden.json`` maps every case id below to
what the ``solve-meridian`` pipeline produced for it: the §V lower
bound, and for each of the paper's four heuristics (run through
:func:`~repro.algorithms.base.run_algorithm`) its D, a sha256 of its
``server_of`` (int64 bytes) and its candidate-evaluation count; for
Distributed-Greedy also the modification ``trace`` and ``n_messages``.
Floats are stored as ``float.hex()``, so a change of one bit in the
bound, in any heuristic's choices or in any D along the DGA trace shows
up as a mismatch. The cases are seeded 400-node Meridian-like
instances with 20 random servers, plus one float32, one asymmetric and
one capacitated instance.

Regenerate (only when the solve path's output is meant to change)
with::

    PYTHONPATH=src python -c "
    import json, tests.algorithms.test_meridian_solve_golden as g
    golden = {cid: g.record(p) for cid, p in g.cases()}
    with open(g.GOLDEN_PATH, 'w') as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write('\\n')
    "
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Iterator, Tuple

import numpy as np
import pytest

from repro.algorithms.base import paper_algorithm_names, run_algorithm
from repro.core import ClientAssignmentProblem, interaction_lower_bound
from repro.datasets.meridian import synthesize_meridian_like
from repro.net.latency import LatencyMatrix
from repro.placement import random_placement

GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent / "data" / "meridian_solve_golden.json"
)

NODES = 400
SERVERS = 20
SEEDS = range(6)


def _digest(values: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(values, dtype=np.int64).tobytes()
    ).hexdigest()


def _problem(matrix: LatencyMatrix, seed: int, **kwargs) -> ClientAssignmentProblem:
    return ClientAssignmentProblem(
        matrix, random_placement(matrix, SERVERS, seed=seed), **kwargs
    )


def cases() -> Iterator[Tuple[str, ClientAssignmentProblem]]:
    """Every golden case as ``(case id, problem)``."""
    for seed in SEEDS:
        yield f"meridian/{seed}", _problem(synthesize_meridian_like(NODES, seed=seed), seed)
    yield "float32", _problem(
        synthesize_meridian_like(NODES, seed=100, dtype=np.float32), 100
    )
    # Each direction scaled independently: d(u, v) != d(v, u).
    values = synthesize_meridian_like(NODES, seed=101).values.copy()
    values *= np.random.default_rng(101).uniform(0.7, 1.3, size=values.shape)
    np.fill_diagonal(values, 0.0)
    yield "asymmetric", _problem(LatencyMatrix(values), 101)
    # Capacity 1.25x the even share: saturation shapes every heuristic.
    yield "capacitated", _problem(
        synthesize_meridian_like(NODES, seed=102),
        102,
        capacities=-(-(NODES - SERVERS) * 5 // (4 * SERVERS)),
    )


def record(problem: ClientAssignmentProblem) -> Dict[str, Any]:
    """The pinned outputs of one solve."""
    out: Dict[str, Any] = {"lb": interaction_lower_bound(problem).hex()}
    for name in paper_algorithm_names():
        result = run_algorithm(name, problem, seed=0)
        entry: Dict[str, Any] = {
            "d": float(result.d).hex(),
            "server_of": _digest(result.assignment.server_of),
            "n_evaluations": int(result.n_evaluations),
        }
        if name == "distributed-greedy":
            entry["trace"] = [float(d).hex() for d in result.trace]
            entry["n_messages"] = int(result.extras["n_messages"])
        out[name] = entry
    return out


CASES = list(cases())


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(cid for cid, _ in CASES)


@pytest.mark.parametrize("case", CASES, ids=[cid for cid, _ in CASES])
def test_solve_matches_golden(case, golden):
    cid, problem = case
    assert record(problem) == golden[cid]
