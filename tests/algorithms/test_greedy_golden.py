"""Greedy Assignment reproduces a committed golden fixture exactly.

``tests/data/greedy_golden.json`` maps every case id below to the
``server_of`` vector Greedy returned for it. The grid is seeded and
deliberately hostile to reimplementation drift: tie-heavy integer
matrices (symmetric and asymmetric), float32 matrices, tight and loose
capacities (including servers with zero capacity), a single server, a
single client and a 300-node Meridian-like instance, each solved with
``amortized`` both True and False. Any change to Greedy's candidate
costs, tie-breaking or batch closure shows up as a mismatch here.

Regenerate (only when Greedy's output is meant to change) with::

    PYTHONPATH=src python -c "
    import json, tests.algorithms.test_greedy_golden as g
    from repro.algorithms import greedy
    golden = {cid: greedy(p, amortized=a).server_of.tolist()
              for cid, p, a in g.cases()}
    with open(g.GOLDEN_PATH, 'w') as fh:
        json.dump(golden, fh, separators=(',', ':'), sort_keys=True)
        fh.write('\\n')
    "
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator, Tuple

import numpy as np
import pytest

from repro.algorithms import greedy
from repro.core import ClientAssignmentProblem
from repro.datasets.meridian import synthesize_meridian_like
from repro.net.latency import LatencyMatrix
from repro.placement import random_placement

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "data" / "greedy_golden.json"

#: Matrix families and their seed counts; each seed is solved with both
#: cost metrics.
FAMILIES = {
    "int-sym": 30,
    "int-asym": 30,
    "float32": 30,
    "cap-tight": 30,
    "cap-loose": 30,
    "one-server": 5,
    "one-client": 5,
}


def _int_matrix(rng: np.random.Generator, n: int, symmetric: bool) -> np.ndarray:
    """Small-alphabet integer latencies: most comparisons are ties."""
    top = int(rng.integers(2, 7))
    values = rng.integers(1, top + 1, size=(n, n)).astype(np.float64)
    if symmetric:
        values = np.triu(values, 1)
        values = values + values.T
    np.fill_diagonal(values, 0.0)
    return values


def _float32_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """One-decimal float latencies rounded to float32 (ties survive)."""
    values = np.round(rng.uniform(1.0, 12.0, size=(n, n)), 1)
    if rng.random() < 0.5:
        values = np.triu(values, 1)
        values = values + values.T
    np.fill_diagonal(values, 0.0)
    return values


def _pick(rng: np.random.Generator, n: int, low: int, high: int) -> np.ndarray:
    size = int(rng.integers(low, min(high, n) + 1))
    return np.sort(rng.choice(n, size=size, replace=False))


def _problem(family: str, seed: int) -> ClientAssignmentProblem:
    rng = np.random.default_rng([seed, list(FAMILIES).index(family)])
    n = int(rng.integers(5, 36))
    if family == "float32":
        matrix = LatencyMatrix(_float32_matrix(rng, n), dtype=np.float32)
    else:
        symmetric = family == "int-sym" or (
            family.startswith("cap") and seed % 2 == 0
        )
        matrix = LatencyMatrix(_int_matrix(rng, n, symmetric))
    servers = _pick(rng, n, 1, 7)
    if family == "one-server":
        servers = servers[:1]
    clients = None if rng.random() < 0.4 else _pick(rng, n, 1, n)
    if family == "one-client":
        clients = _pick(rng, n, 1, 1)
    n_clients = n if clients is None else clients.size
    capacities = None
    if family == "cap-tight":
        # Random capacities summing to exactly |C|; zeros included.
        cuts = np.sort(rng.integers(0, n_clients + 1, size=servers.size - 1))
        capacities = np.diff(np.concatenate(([0], cuts, [n_clients])))
    elif family == "cap-loose":
        capacities = -(-n_clients // servers.size) + int(rng.integers(0, 3))
    return ClientAssignmentProblem(matrix, servers, clients, capacities=capacities)


def cases() -> Iterator[Tuple[str, ClientAssignmentProblem, bool]]:
    """Every golden case as ``(case id, problem, amortized)``."""
    problems = [
        (f"{family}/{seed}", _problem(family, seed))
        for family, n_seeds in FAMILIES.items()
        for seed in range(n_seeds)
    ]
    matrix = synthesize_meridian_like(300, seed=15)
    problems.append(
        (
            "meridian-300",
            ClientAssignmentProblem(matrix, random_placement(matrix, 20, seed=15)),
        )
    )
    for name, problem in problems:
        for amortized in (True, False):
            metric = "amortized" if amortized else "absolute"
            yield f"{name}/{metric}", problem, amortized


CASES = list(cases())


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(cid for cid, _, _ in CASES)
    assert len(CASES) >= 300


@pytest.mark.parametrize("case", CASES, ids=[cid for cid, _, _ in CASES])
def test_greedy_matches_golden(case, golden):
    cid, problem, amortized = case
    got = greedy(problem, amortized=amortized).server_of
    assert got.tolist() == golden[cid]
