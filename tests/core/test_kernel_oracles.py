"""The engine kernels against their historical numpy bodies.

``reduction_top2``, ``objective_refresh`` and ``move_context`` in
:mod:`repro.kernels.numpy_backend` were rewritten for speed under one
contract: bit-identical outputs. This module keeps the bodies they
replaced as oracles and checks every kernel implementation against them —
equal bytes, shapes and dtypes for all six reduction arrays, an equal
float for the objective, and equal candidate paths (and ``d_rest``
when asked for) — on tie-heavy integer, float32-derived and float64
inputs with unused (``-inf``) servers. It also pins the two shortcuts
the solve path takes around the kernels: the engine's D served from
fresh reductions, and Greedy's unstable sort with its stable fallback.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.greedy import _sorted_frame
from repro.core import ClientAssignmentProblem, IncrementalObjective
from repro.kernels import numpy_backend
from repro.net.latency import LatencyMatrix
from repro.obs.metrics import MetricsRegistry, use_registry

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


def oracle_move_context(
    ss, l_out, l_in, best1_in, best2_in, arg1_in, best1_out, best2_out,
    arg1_out, out_leg, in_leg, home, l_out_home, l_in_home, has_assigned,
):
    """The historical body: always computes ``d_rest``."""
    if home >= 0:
        best_in = np.where(arg1_in == home, best2_in, best1_in)
        np.maximum(best_in, ss[:, home] + l_in_home, out=best_in)
        best_out = np.where(arg1_out == home, best2_out, best1_out)
        np.maximum(best_out, l_out_home + ss[home, :], out=best_out)
        l_out_rest = l_out.copy()
        l_out_rest[home] = l_out_home
        with np.errstate(invalid="ignore"):
            d_rest = float(np.max(l_out_rest + best_in))
    else:
        best_in = best1_in
        best_out = best1_out
        if has_assigned:
            with np.errstate(invalid="ignore"):
                d_rest = float(np.max(l_out + best_in))
        else:
            d_rest = -np.inf
    paths = np.maximum(out_leg + best_in, best_out + in_leg)
    np.maximum(paths, out_leg + in_leg, out=paths)
    return paths, d_rest


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


#: Each kernel implementation the oracles check, by the name its
#: counters record under (``kernel.<name>.*``). A compiled
#: implementation would be added here, behind the same oracles.
IMPLEMENTATIONS = {"numpy": numpy_backend}
BACKENDS = sorted(IMPLEMENTATIONS)


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("backend", BACKENDS)
@SETTINGS
@given(data=kernel_inputs())
def test_reduction_top2_matches_oracle(backend, data):
    ss, l_out, l_in = data
    expected = oracle_reduction_top2(ss, l_in, l_out)
    got = IMPLEMENTATIONS[backend].reduction_top2(ss, l_in, l_out)
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
    got = IMPLEMENTATIONS[backend].objective_refresh(l_out, l_in, ss)
    assert type(got) is float or isinstance(got, np.floating)
    assert np.float64(got).tobytes() == np.float64(expected).tobytes()


@pytest.mark.parametrize("backend", BACKENDS)
def test_single_server_and_all_unused(backend):
    kernels = IMPLEMENTATIONS[backend]
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


@pytest.mark.parametrize("backend", BACKENDS)
def test_reduction_top2_tied_leader(backend):
    """A tied maximum: the leader is the highest tied server and the
    runner-up equals it; an all-``-inf`` row keeps ``-inf`` twice."""
    ss = np.array([[0.0, 2.0, 1.0], [2.0, 0.0, 2.0], [1.0, 2.0, 0.0]])
    l_in = np.array([2.0, 1.0, 2.0])
    l_out = np.array([-np.inf, 3.0, 3.0])
    got = IMPLEMENTATIONS[backend].reduction_top2(ss, l_in, l_out)
    for g, e in zip(got, oracle_reduction_top2(ss, l_in, l_out)):
        assert _same(g, e)
    best1_in, best2_in, arg1_in = got[:3]
    assert best1_in[1] == best2_in[1] == 4.0 and arg1_in[1] == 2


@st.composite
def move_inputs(draw):
    """Engine-shaped ``move_context`` arguments: reductions of the
    drawn ``l`` vectors, float64 legs and a home (``-1`` = joiner)."""
    ss, l_out, l_in = draw(kernel_inputs())
    n = ss.shape[0]
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    reductions = oracle_reduction_top2(ss, l_in, l_out)
    used = np.flatnonzero(np.isfinite(l_out))
    home = int(rng.choice(used)) if used.size and draw(st.booleans()) else -1
    if home >= 0:
        # l(home) without the client: unchanged, lower, or empty.
        shrink = draw(st.sampled_from([0.0, 1.0, np.inf]))
        l_out_home, l_in_home = l_out[home] - shrink, l_in[home] - shrink
    else:
        l_out_home = l_in_home = -np.inf
    out_leg, in_leg = (
        np.round(rng.uniform(0.0, 300.0, size=n), 1).astype(ss.dtype)
        for _ in range(2)
    )
    return (
        ss, l_out, l_in, *reductions, out_leg, in_leg, home,
        float(l_out_home), float(l_in_home), bool(used.size),
    )


@pytest.mark.parametrize("backend", BACKENDS)
@SETTINGS
@given(args=move_inputs())
def test_move_context_matches_oracle(backend, args):
    kernel = IMPLEMENTATIONS[backend].move_context
    paths, d_rest = oracle_move_context(*args)
    got_paths, got_rest = kernel(*args, True)
    assert _same(got_paths, paths)
    assert np.float64(got_rest).tobytes() == np.float64(d_rest).tobytes()
    # Without d_rest: the same paths, and no d_rest.
    got_paths, got_rest = kernel(*args, False)
    assert _same(got_paths, paths)
    assert np.isnan(got_rest)


@pytest.mark.parametrize("backend", BACKENDS)
@SETTINGS
@given(data=kernel_inputs(min_used=1))
def test_d_from_reductions_matches_objective_refresh(backend, data):
    """``max(best_out + l_in)``, the engine's D on fresh reductions."""
    ss, l_out, l_in = data
    best_out = IMPLEMENTATIONS[backend].reduction_top2(ss, l_in, l_out)[3]
    got = float((best_out + l_in).max())
    expected = oracle_objective_refresh(l_out, l_in, ss)
    assert np.float64(got).tobytes() == np.float64(expected).tobytes()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", KINDS)
def test_engine_d_after_reductions_matches_objective_refresh(backend, kind):
    """Along a random walk, D read right after the reductions were
    rebuilt equals the historical refresh of the engine's ``l`` vectors."""
    rng = np.random.default_rng(KINDS.index(kind))
    n, n_servers = 40, 7
    if kind == "int":
        values = rng.integers(1, 4, size=(n, n)).astype(np.float64)
    else:
        values = rng.uniform(1.0, 300.0, size=(n, n))
    np.fill_diagonal(values, 0.0)
    dtype = np.float32 if kind == "float32" else np.float64
    servers = np.sort(rng.choice(n, size=n_servers, replace=False))
    problem = ClientAssignmentProblem(LatencyMatrix(values, dtype=dtype), servers)
    with use_registry(MetricsRegistry()) as metrics:
        engine = IncrementalObjective(problem, history=False)
        ss64 = problem.server_server.astype(np.float64)
        for step in range(300):
            c = int(rng.integers(problem.n_clients))
            if engine.server_of[c] >= 0 and rng.random() < 0.3:
                engine.unassign(c)
            else:
                engine.apply(c, int(rng.integers(n_servers)))
            if engine.n_assigned == 0:
                continue
            engine.server_reductions()
            l_out, l_in = engine.l_vectors()
            expected = oracle_objective_refresh(l_out, l_in, ss64)
            assert (
                np.float64(engine.d()).tobytes()
                == np.float64(expected).tobytes()
            )
        counters = metrics.snapshot()["counters"]
    # The reductions the walk read came from this implementation.
    assert counters[f"kernel.{backend}.reduction_top2.calls"] > 0


@pytest.mark.parametrize("kind", ["int", "float32", "float64", "constant"])
@pytest.mark.parametrize("seed", range(20))
def test_greedy_sort_matches_stable_argsort(kind, seed):
    """Greedy's per-server order: the unstable sort where a row's keys
    are distinct, the stable sort on rows with ties."""
    rng = np.random.default_rng([seed, len(kind)])
    n_clients, n_servers = int(rng.integers(1, 200)), int(rng.integers(1, 12))
    shape = (n_clients, n_servers)
    if kind == "int":
        cs = rng.integers(0, int(rng.integers(1, 6)), size=shape).astype(np.float64)
    elif kind == "float32":
        cs = np.round(rng.uniform(1.0, 12.0, size=shape), 1).astype(np.float32)
    elif kind == "constant":
        cs = np.full(shape, 7.0)
    else:
        cs = rng.uniform(1.0, 300.0, size=shape)
    order, values = _sorted_frame(cs)
    expected = np.argsort(cs.T, axis=1, kind="stable")
    assert np.array_equal(order, expected)
    assert _same(values, cs.T[np.arange(n_servers)[:, None], expected])
