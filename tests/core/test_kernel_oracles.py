"""The engine kernels against their historical numpy bodies.

``reduction_top2`` and ``objective_refresh`` in
:mod:`repro.kernels.numpy_backend` were rewritten for speed under one
contract: bit-identical outputs. This module keeps the bodies they
replaced as oracles and checks every available backend against them —
equal bytes, shapes and dtypes for all six reduction arrays, and an
equal float for the objective — on tie-heavy integer, float32-derived
and float64 inputs with unused (``-inf``) servers.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.kernels import available_backends, resolve_backend

SETTINGS = settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def oracle_objective_refresh(
    l_out: np.ndarray, l_in: np.ndarray, ss: np.ndarray
) -> float:
    """The historical body: gather the used block, then reduce it."""
    used = np.flatnonzero(np.isfinite(l_out))
    sub = ss[np.ix_(used, used)]
    totals = l_out[used][:, None] + sub + l_in[used][None, :]
    return float(totals.max())


def oracle_reduction_top2(
    ss: np.ndarray, l_in: np.ndarray, l_out: np.ndarray
) -> Tuple[np.ndarray, ...]:
    """The historical body: two stable full argsorts."""
    n_servers = ss.shape[0]
    in_terms = ss + l_in[None, :]
    out_terms = l_out[:, None] + ss
    order_in = np.argsort(in_terms, axis=1, kind="stable")
    arg1_in = order_in[:, -1]
    rows = np.arange(n_servers)
    best1_in = in_terms[rows, arg1_in]
    if n_servers >= 2:
        best2_in = in_terms[rows, order_in[:, -2]]
    else:
        best2_in = np.full(n_servers, -np.inf)
    order_out = np.argsort(out_terms, axis=0, kind="stable")
    arg1_out = order_out[-1, :]
    best1_out = out_terms[arg1_out, rows]
    if n_servers >= 2:
        best2_out = out_terms[order_out[-2, :], rows]
    else:
        best2_out = np.full(n_servers, -np.inf)
    return best1_in, best2_in, arg1_in, best1_out, best2_out, arg1_out


KINDS = ["int", "float32", "float64"]


@st.composite
def kernel_inputs(draw, *, min_used: int = 0):
    """``(ss, l_out, l_in)`` as the engine passes them: float64 arrays,
    a zero diagonal, and ``-inf`` in both vectors at unused servers."""
    n = draw(st.integers(min_value=max(1, min_used), max_value=40))
    kind = draw(st.sampled_from(KINDS))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if kind == "int":
        # Few distinct values: ties in every row, column and sum.
        high = draw(st.integers(min_value=1, max_value=4))
        ss = rng.integers(1, high + 1, size=(n, n)).astype(np.float64)
        l_out = rng.integers(0, high + 1, size=n).astype(np.float64)
        l_in = rng.integers(0, high + 1, size=n).astype(np.float64)
    else:
        ss = rng.uniform(1.0, 300.0, size=(n, n))
        l_out = rng.uniform(0.0, 300.0, size=n)
        l_in = rng.uniform(0.0, 300.0, size=n)
        if kind == "float32":
            ss, l_out, l_in = (
                a.astype(np.float32).astype(np.float64) for a in (ss, l_out, l_in)
            )
    if draw(st.booleans()):
        ss = np.minimum(ss, ss.T)
    np.fill_diagonal(ss, 0.0)
    used = rng.random(n) < draw(st.sampled_from([0.2, 0.6, 1.0]))
    if used.sum() < min_used:
        used[rng.choice(n, size=min_used, replace=False)] = True
    l_out[~used] = -np.inf
    l_in[~used] = -np.inf
    return ss, l_out, l_in


BACKENDS = available_backends()


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("backend", BACKENDS)
@SETTINGS
@given(data=kernel_inputs())
def test_reduction_top2_matches_oracle(backend, data):
    ss, l_out, l_in = data
    expected = oracle_reduction_top2(ss, l_in, l_out)
    got = resolve_backend(backend).reduction_top2(ss, l_in, l_out)
    assert len(got) == 6
    for name, g, e in zip(
        ("best1_in", "best2_in", "arg1_in", "best1_out", "best2_out", "arg1_out"),
        got,
        expected,
    ):
        assert _same(g, e), name


@pytest.mark.parametrize("backend", BACKENDS)
@SETTINGS
@given(data=kernel_inputs(min_used=1))
def test_objective_refresh_matches_oracle(backend, data):
    ss, l_out, l_in = data
    expected = oracle_objective_refresh(l_out, l_in, ss)
    got = resolve_backend(backend).objective_refresh(l_out, l_in, ss)
    assert type(got) is float or isinstance(got, np.floating)
    assert np.float64(got).tobytes() == np.float64(expected).tobytes()


@pytest.mark.parametrize("backend", BACKENDS)
def test_single_server_and_all_unused(backend):
    kernels = resolve_backend(backend)
    ss = np.zeros((1, 1))
    one = np.array([7.0])
    for got, expected in zip(
        kernels.reduction_top2(ss, one, one), oracle_reduction_top2(ss, one, one)
    ):
        assert _same(got, expected)
    assert kernels.objective_refresh(one, one, ss) == 14.0
    ss = np.array([[0.0, 3.0], [2.0, 0.0]])
    unused = np.full(2, -np.inf)
    for got, expected in zip(
        kernels.reduction_top2(ss, unused, unused),
        oracle_reduction_top2(ss, unused, unused),
    ):
        assert _same(got, expected)
