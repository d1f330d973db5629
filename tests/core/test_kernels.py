"""Observability, dtype parity and regression tests for ``repro.kernels``.

- **Observability** — every engine's kernels count their calls and
  seconds under ``kernel.numpy.<name>``.
- **Parity** — float32 instances track their float64 twins to the
  matrix rounding.
- **Regression** — a golden walk pins D and candidate-score values
  produced by the pre-kernel engine, so the numpy kernels are
  verifiably the historical inline code, not merely a close cousin.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    Assignment,
    ClientAssignmentProblem,
    IncrementalObjective,
    max_interaction_path_length_bruteforce,
)
from repro.net.latency import LatencyMatrix
from repro.obs.metrics import MetricsRegistry, use_registry


def _random_problem(rng, n, k, *, dtype=np.float64):
    values = rng.uniform(5.0, 300.0, size=(n, n))
    np.fill_diagonal(values, 0.0)
    servers = np.sort(rng.choice(n, size=k, replace=False))
    return ClientAssignmentProblem(
        LatencyMatrix(values, dtype=dtype), servers
    )


class TestObservability:
    def test_per_kernel_counters_accumulate(self):
        rng = np.random.default_rng(11)
        problem = _random_problem(rng, 30, 5)
        with use_registry(MetricsRegistry()) as metrics:
            engine = IncrementalObjective(problem)
            for c in range(30):
                engine.apply(c, c % 5)
            engine.d()
            engine.batch_delta_D(7, respect_capacities=False)
            counters = metrics.snapshot()["counters"]
        for kernel in ("move_context", "objective_refresh"):
            assert counters[f"kernel.numpy.{kernel}.calls"] >= 1
            assert counters[f"kernel.numpy.{kernel}.seconds"] >= 0.0


def _walk(engine, rng, n, k_servers, steps, record_every, shadow=None):
    """A deterministic apply/unassign/undo walk; returns (ds, score_sums)."""
    ds, score_sums = [], []
    for step in range(steps):
        c = int(rng.integers(0, n))
        op = rng.integers(0, 10)
        if op < 6 or engine.n_assigned == 0:
            s = int(rng.integers(0, k_servers))
            engine.apply(c, s)
        elif op < 8 and engine.server_of[c] >= 0:
            engine.unassign(c)
        else:
            engine.apply(c, int(rng.integers(0, k_servers)))
            engine.undo()
        if step % record_every == 0:
            ds.append(engine.d())
            sc = engine.batch_delta_D(
                int(rng.integers(0, n)), respect_capacities=False
            )
            score_sums.append(float(np.sum(sc[np.isfinite(sc)])))
    return ds, score_sums


class TestGoldenWalk:
    """Pinned values produced by the engine *before* the kernel seam.

    If these move, the numpy kernels are no longer the byte-identical
    twin of the historical inline code — which is their entire spec.
    """

    GOLDEN_D = [
        431.2161517052526,
        841.5966022305496,
        850.8535700092947,
        858.4626582060398,
        863.757356903467,
        877.4966951117747,
        879.0017144960219,
        879.0017144960219,
    ]
    GOLDEN_SCORE_SUMS = [
        6765.558606687058,
        10099.159226766595,
        10210.242840111534,
        10301.551898472477,
        10365.088282841603,
        10529.960341341295,
        10548.020573952263,
        10548.020573952263,
    ]

    def _engine(self):
        rng = np.random.default_rng(20260808)
        n = 120
        values = rng.uniform(5.0, 300.0, size=(n, n))
        np.fill_diagonal(values, 0.0)
        matrix = LatencyMatrix(values)
        servers = np.sort(rng.choice(n, size=12, replace=False))
        problem = ClientAssignmentProblem(matrix, servers)
        return IncrementalObjective(problem, history=True)

    def test_numpy_backend_is_byte_identical_to_history(self):
        engine = self._engine()
        ds, score_sums = _walk(
            engine, np.random.default_rng(7), 120, 12, 400, 50
        )
        assert ds == self.GOLDEN_D
        assert score_sums == self.GOLDEN_SCORE_SUMS


class TestParity:
    @pytest.mark.parametrize("backend", ["numpy"])
    def test_float32_tracks_float64(self, backend):
        rng = np.random.default_rng(77)
        n, k_servers = 50, 6
        values = rng.uniform(5.0, 300.0, size=(n, n))
        np.fill_diagonal(values, 0.0)
        servers = np.sort(rng.choice(n, size=k_servers, replace=False))
        engines = {}
        with use_registry(MetricsRegistry()) as metrics:
            for dtype in (np.float64, np.float32):
                problem = ClientAssignmentProblem(
                    LatencyMatrix(values, dtype=dtype), servers
                )
                assert problem.dtype == np.dtype(dtype)
                engine = IncrementalObjective(problem)
                _walk(engine, np.random.default_rng(5), n, k_servers, 600, 100)
                engines[np.dtype(dtype).name] = engine
        # Both walks ran through this implementation's kernels.
        counters = metrics.snapshot()["counters"]
        assert counters[f"kernel.{backend}.move_context.calls"] > 0
        d64 = engines["float64"].d()
        d32 = engines["float32"].d()
        assert d32 == pytest.approx(d64, rel=1e-5)
        for c in range(0, n, 7):
            a = engines["float64"].batch_delta_D(c, respect_capacities=False)
            b = engines["float32"].batch_delta_D(c, respect_capacities=False)
            assert np.allclose(a, b, rtol=1e-5, atol=1e-3, equal_nan=True)

    def test_float32_walk_matches_bruteforce(self):
        """The engine's own contract holds on float32 instances too."""
        rng = np.random.default_rng(31)
        n, k_servers = 16, 4
        problem = _random_problem(rng, n, k_servers, dtype=np.float32)
        server_of = rng.integers(0, k_servers, n)
        engine = IncrementalObjective(problem, server_of, k=3)
        shadow = server_of.copy()
        for _ in range(300):
            c = int(rng.integers(n))
            if rng.random() < 0.7:
                s = int(rng.integers(k_servers))
                engine.apply(c, s)
                shadow[c] = s
            elif shadow[c] >= 0:
                engine.unassign(c)
                shadow[c] = -1
        # Bruteforce needs a total assignment; park stragglers first.
        for c in np.flatnonzero(shadow < 0):
            engine.apply(int(c), 0)
            shadow[c] = 0
        reference = max_interaction_path_length_bruteforce(
            Assignment(problem, shadow.copy())
        )
        assert engine.d() == pytest.approx(reference, rel=1e-6)
