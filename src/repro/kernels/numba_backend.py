"""numba-compiled kernels for the incremental objective engine.

Importing this module requires numba; callers must go through
:func:`repro.kernels.resolve_backend`, which imports it lazily only
when numba is importable (``backend="auto"``) or explicitly demanded
(``backend="numba"``). ``import repro`` never touches this module.

Each kernel is the loop-fused equivalent of its numpy twin in
:mod:`repro.kernels.numpy_backend`, with the same floating point
association on every sum and the same tie-breaking rules, so within one
matrix dtype the engine state (cached D, ``l`` vectors, candidate
scores) stays bit-identical across backends — the parity property suite
in ``tests/core/test_kernels.py`` enforces this on random walks. The
win is dispatch, not math: one compiled call replaces a dozen numpy
ufunc launches and their temporaries, which is where the per-move cost
of small-|S| instances actually goes.

Kernels compile lazily on first call, per argument dtype (float32
latency slices reach ``topk_select`` directly; everything S-sized is
float64). ``cache=True`` persists the compiled machine code next to
the package so repeated processes skip recompilation.
"""

from __future__ import annotations

import numpy as np
from numba import njit


@njit(cache=True)
def objective_refresh(l_out, l_in, ss):
    """Max of ``l_out[u] + ss[u, v] + l_in[v]`` over used servers.

    Mirrors the numpy twin: "used" is defined by finite ``l_out`` on
    both axes, and each term associates as ``(l_out + ss) + l_in``.
    """
    n = l_out.shape[0]
    best = -np.inf
    for u in range(n):
        lu = l_out[u]
        if not np.isfinite(lu):
            continue
        for v in range(n):
            if not np.isfinite(l_out[v]):
                continue
            total = (lu + ss[u, v]) + l_in[v]
            if total > best:
                best = total
    return best


@njit(cache=True)
def reduction_top2(ss, l_in, l_out):
    """Top-2 ``best_in`` / ``best_out`` completions per server.

    ``>=`` on the leader update makes the highest server index win
    ties, matching the stable-argsort tail the numpy twin picks.
    """
    n = ss.shape[0]
    best1_in = np.full(n, -np.inf)
    best2_in = np.full(n, -np.inf)
    arg1_in = np.full(n, -1, np.int64)
    best1_out = np.full(n, -np.inf)
    best2_out = np.full(n, -np.inf)
    arg1_out = np.full(n, -1, np.int64)
    for sp in range(n):
        b1 = -np.inf
        b2 = -np.inf
        a1 = -1
        for s in range(n):
            term = ss[sp, s] + l_in[s]
            if term >= b1:
                b2 = b1
                b1 = term
                a1 = s
            elif term > b2:
                b2 = term
        best1_in[sp] = b1
        best2_in[sp] = b2
        arg1_in[sp] = a1
    for sp in range(n):
        b1 = -np.inf
        b2 = -np.inf
        a1 = -1
        for s in range(n):
            term = l_out[s] + ss[s, sp]
            if term >= b1:
                b2 = b1
                b1 = term
                a1 = s
            elif term > b2:
                b2 = term
        best1_out[sp] = b1
        best2_out[sp] = b2
        arg1_out[sp] = a1
    return best1_in, best2_in, arg1_in, best1_out, best2_out, arg1_out


@njit(cache=True)
def topk_select(dists, k):
    """Top-``k`` indices (descending, ties to the earlier index) + bound.

    Single pass with an insertion buffer — no boolean temporaries, no
    argpartition scratch — so a rebuild reads each of the |members|
    distances exactly once. Tie *membership* at the k boundary may
    differ from the numpy twin's argpartition (both are valid top-k
    sets); the returned bound makes either choice safe, since a head at
    or below the watermark triggers a ground-truth rebuild.
    """
    n = dists.shape[0]
    m = k if k < n else n
    vals = np.empty(m, dists.dtype)
    idxs = np.empty(m, np.int64)
    count = 0
    bound = -np.inf
    for i in range(n):
        d = dists[i]
        if count < m:
            j = count
            while j > 0 and vals[j - 1] < d:
                vals[j] = vals[j - 1]
                idxs[j] = idxs[j - 1]
                j -= 1
            vals[j] = d
            idxs[j] = i
            count += 1
        elif d > vals[m - 1]:
            if vals[m - 1] > bound:
                bound = vals[m - 1]
            j = m - 1
            while j > 0 and vals[j - 1] < d:
                vals[j] = vals[j - 1]
                idxs[j] = idxs[j - 1]
                j -= 1
            vals[j] = d
            idxs[j] = i
        elif d > bound:
            bound = d
    return idxs[:count], bound


@njit(cache=True)
def weighted_loads(server_of, weights, n_servers):
    """Per-server total client weight (see the numpy twin's docs).

    Pure integer arithmetic, so backend parity is exact equality.
    """
    loads = np.zeros(n_servers, np.int64)
    for i in range(server_of.shape[0]):
        s = server_of[i]
        if s >= 0:
            loads[s] += weights[i]
    return loads


@njit(cache=True)
def move_context(
    ss,
    l_out,
    l_in,
    best1_in,
    best2_in,
    arg1_in,
    best1_out,
    best2_out,
    arg1_out,
    out_leg,
    in_leg,
    home,
    l_out_home,
    l_in_home,
    has_assigned,
    with_rest,
):
    """Fused per-client candidate scoring (see the numpy twin's docs).

    One pass over the |S| destinations computes the home-excluded best
    completions, ``d_rest`` (only ``with_rest``; NaN otherwise) and the
    candidate path vector, replacing ~10 ufunc launches with a single
    compiled loop.
    """
    n = ss.shape[0]
    paths = np.empty(n)
    d_rest = -np.inf if with_rest else np.nan
    for j in range(n):
        if home >= 0:
            if arg1_in[j] == home:
                best_in = best2_in[j]
            else:
                best_in = best1_in[j]
            alt = ss[j, home] + l_in_home
            if alt > best_in:
                best_in = alt
            if arg1_out[j] == home:
                best_out = best2_out[j]
            else:
                best_out = best1_out[j]
            alt = l_out_home + ss[home, j]
            if alt > best_out:
                best_out = alt
            if with_rest:
                if j == home:
                    rest = l_out_home + best_in
                else:
                    rest = l_out[j] + best_in
                if rest > d_rest:
                    d_rest = rest
        else:
            best_in = best1_in[j]
            best_out = best1_out[j]
            if with_rest and has_assigned:
                rest = l_out[j] + best_in
                if rest > d_rest:
                    d_rest = rest
        path = out_leg[j] + best_in
        alt = best_out + in_leg[j]
        if alt > path:
            path = alt
        alt = out_leg[j] + in_leg[j]
        if alt > path:
            path = alt
        paths[j] = path
    return paths, d_rest
