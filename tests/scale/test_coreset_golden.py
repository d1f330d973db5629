"""The coreset pipeline reproduces a committed golden fixture exactly.

``tests/data/coreset_golden.json`` maps every case id below to digests
of what :func:`~repro.scale.solve_at_scale` returned for it: sha256 of
the coreset's ``representatives``/``labels``/``weights`` and of the
expanded ``server_of`` (all as int64 bytes), and ``float.hex()`` of
``epsilon``, ``d_expanded``, ``d_reduced`` and ``bound``. The grid
covers planet instances with heights at several seeds, streaming chunk
sizes from 64 to larger than |C|, a float32 provider, a ``scale != 1``
provider without heights, and providers whose client set contains the
servers and whose coordinates repeat, so both the ``min_latency`` floor
and the zero diagonal appear in synthesized blocks. Any change to cell
dedup, block synthesis or the streamed objective that moves a single
bit shows up as a mismatch here.

Regenerate (only when the pipeline's output is meant to change) with::

    PYTHONPATH=src python -c "
    import json, tests.scale.test_coreset_golden as g
    golden = {cid: g.record(*case) for cid, *case in g.cases()}
    with open(g.GOLDEN_PATH, 'w') as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write('\\n')
    "
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterator, Tuple

import numpy as np
import pytest

from repro.datasets import coreset_cell_size_hint, planet_instance
from repro.net.provider import CoordinateProvider
from repro.scale import solve_at_scale

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "data" / "coreset_golden.json"

PLANET_CLIENTS = 3000
PLANET_SERVERS = 8
PLANET_CLUSTERS = 16


def _digest(values: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(values, dtype=np.int64).tobytes()
    ).hexdigest()


def _planet(seed: int, dtype=np.float64):
    instance = planet_instance(
        PLANET_CLIENTS,
        PLANET_SERVERS,
        n_clusters=PLANET_CLUSTERS,
        dtype=dtype,
        seed=seed,
    )
    cell_size = coreset_cell_size_hint(instance)
    return instance.provider, instance.servers, instance.clients, cell_size


def _overlapping(seed: int, *, heights: bool, dtype=np.float64):
    """Repeated coordinates, a large floor and clients that include the
    servers: blocks hit both the ``min_latency`` floor and ``d(v, v)``."""
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0.0, 40.0, size=(400, 2))
    coords[200:300] = coords[:100]
    provider = CoordinateProvider(
        coords,
        heights=rng.uniform(0.0, 0.5, size=400) if heights else None,
        min_latency=3.0,
        dtype=dtype,
    )
    servers = np.array([0, 5, 12, 40, 77], dtype=np.int64)
    return provider, servers, np.arange(400, dtype=np.int64), 2.0


def cases() -> Iterator[Tuple[str, CoordinateProvider, np.ndarray, np.ndarray, float, int]]:
    """``(case id, provider, servers, clients, cell_size, chunk_size)``."""
    for seed in (0, 1, 2):
        yield (f"planet-seed{seed}", *_planet(seed), 65536)
    for chunk_size in (64, 257, 1000, PLANET_CLIENTS + 1):
        yield (f"planet-chunk{chunk_size}", *_planet(5), chunk_size)
    yield ("planet-float32", *_planet(1, dtype=np.float32), 1000)
    rng = np.random.default_rng(11)
    scaled = CoordinateProvider(
        rng.uniform(0.0, 50.0, size=(800, 3)), scale=0.7, min_latency=0.1
    )
    yield (
        "scaled-no-heights",
        scaled,
        np.arange(6, dtype=np.int64),
        np.arange(6, 800, dtype=np.int64),
        2.0,
        257,
    )
    yield ("overlap-floor", *_overlapping(3, heights=False), 64)
    yield (
        "overlap-heights-float32",
        *_overlapping(4, heights=True, dtype=np.float32),
        257,
    )


def record(
    provider: CoordinateProvider,
    servers: np.ndarray,
    clients: np.ndarray,
    cell_size: float,
    chunk_size: int,
) -> Dict[str, str]:
    """The golden digest of one case's :func:`solve_at_scale` run."""
    result = solve_at_scale(
        provider,
        servers,
        clients,
        cell_size=cell_size,
        seed=0,
        chunk_size=chunk_size,
    )
    coreset = result.coreset
    return {
        "representatives": _digest(coreset.representatives),
        "labels": _digest(coreset.labels),
        "weights": _digest(coreset.weights),
        "epsilon": float(coreset.epsilon).hex(),
        "server_of": _digest(result.server_of),
        "d_expanded": float(result.d_expanded).hex(),
        "d_reduced": float(result.d_reduced).hex(),
        "bound": float(result.bound).hex(),
    }


@pytest.fixture(scope="module")
def golden() -> Dict[str, Dict[str, str]]:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_golden_covers_every_case(golden):
    assert set(golden) == {cid for cid, *_ in cases()}


@pytest.mark.parametrize("case", list(cases()), ids=lambda case: case[0])
def test_pipeline_matches_golden(case, golden):
    cid, *inputs = case
    assert record(*inputs) == golden[cid]


@pytest.mark.parametrize("heights", [False, True])
def test_overlap_cases_hit_floor_and_diagonal(heights):
    """The overlap fixtures really exercise both special entries."""
    provider, servers, clients, _cell = _overlapping(
        4 if heights else 3, heights=heights
    )
    block = provider.client_server_distances(clients, servers)
    assert np.count_nonzero(block == 0.0) == servers.size
    assert np.any(block == 3.0)
