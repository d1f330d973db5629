"""The engine's kernels, in numpy.

Every function here is bit-identical to the numpy the incremental
engine ran before the kernel seam existed: same values, same dtypes,
same tie-breaking. The engine therefore reproduces the pre-kernel
engine byte for byte, which the regression tests pin against golden
walk values.

A body may be rewritten for speed only if its outputs stay
bit-identical. ``tests/core/test_kernel_oracles.py`` keeps the
historical bodies of :func:`reduction_top2`, :func:`objective_refresh`
and :func:`move_context` as oracles and checks the current ones
against them on tie-heavy, float32-derived and ``-inf`` inputs.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def objective_refresh(
    l_out: np.ndarray, l_in: np.ndarray, ss: np.ndarray
) -> float:
    """Maximum of ``l_out[s1] + d(s1, s2) + l_in[s2]`` over used servers.

    Callers guarantee at least one server is used (finite ``l_out``).
    Same reduction — and the same floating point association — as
    :func:`repro.core.metrics.max_interaction_path_length`. Unused
    servers hold ``-inf`` in both vectors and latencies are finite, so
    their terms are ``-inf`` and the full matrix has the used block's
    maximum.
    """
    totals = l_out[:, None] + ss
    totals += l_in[None, :]
    return float(totals.max())


def reduction_top2(
    ss: np.ndarray, l_in: np.ndarray, l_out: np.ndarray
) -> Tuple[np.ndarray, ...]:
    """Top-2 contributions of ``best_in`` / ``best_out`` per server.

    ``best_in[s'] = max_s d(s', s) + l_in[s]`` and
    ``best_out[s'] = max_s l_out[s] + d(s, s')``, each with its runner-up
    and the argmax of the leader, so excluding one server's column later
    costs O(1) per row. Ties resolve to the highest server index (the
    tail of a stable ascending argsort, the engine's original
    behavior). Both directions' terms are laid out as rows in
    descending server order, so one ``argmax`` (first maximum) per row
    finds the leader; one row sort gives the leader's value and the
    runner-up (equal to it when the maximum is tied, ``-inf`` for one
    server).
    """
    n = ss.shape[0]
    terms = np.empty((2, n, n))
    # terms[0][s', j] = d(s', s) + l_in[s] and terms[1][s', j] =
    # l_out[s] + d(s, s'), for s = n - 1 - j.
    np.add(ss[:, ::-1], l_in[None, ::-1], out=terms[0])
    np.add(l_out[::-1, None], ss[::-1, :], out=terms[1].T)
    flat = terms.reshape(2 * n, n)
    arg1 = (n - 1) - flat.argmax(axis=1)
    top = np.sort(flat, axis=1)
    best1 = top[:, -1]
    best2 = top[:, -2] if n > 1 else np.full(2 * n, -np.inf)
    return best1[:n], best2[:n], arg1[:n], best1[n:], best2[n:], arg1[n:]


def topk_select(dists: np.ndarray, k: int) -> Tuple[np.ndarray, float]:
    """Indices of the top-``k`` entries, sorted descending, plus bound.

    ``bound`` is the maximum distance *not* selected (``-inf`` when
    everything fits) — the rebuilt list's eviction watermark. The
    descending sort is stable over the argpartition-selected members,
    matching ``_TopList.rebuild``'s original selection exactly.
    """
    if dists.size > k:
        part = np.argpartition(-dists, k - 1)
        keep = part[:k]
        bound = float(dists[part[k:]].max())
    else:
        keep = np.arange(dists.size)
        bound = -np.inf
    order = keep[np.argsort(-dists[keep], kind="stable")]
    return order, bound


def weighted_loads(
    server_of: np.ndarray, weights: np.ndarray, n_servers: int
) -> np.ndarray:
    """Per-server total client weight (int64-exact scatter-add).

    ``server_of`` uses ``-1`` for unassigned clients, which contribute
    nothing. Weighted instances (the coreset layer's super-clients)
    consult these loads for capacity masking; member *counts* stay in
    the engine's separate ``loads`` array.
    """
    loads = np.zeros(n_servers, dtype=np.int64)
    assigned = server_of >= 0
    if assigned.any():
        np.add.at(loads, server_of[assigned], weights[assigned])
    return loads


def move_context(
    ss: np.ndarray,
    l_out: np.ndarray,
    l_in: np.ndarray,
    best1_in: np.ndarray,
    best2_in: np.ndarray,
    arg1_in: np.ndarray,
    best1_out: np.ndarray,
    best2_out: np.ndarray,
    arg1_out: np.ndarray,
    out_leg: np.ndarray,
    in_leg: np.ndarray,
    home: int,
    l_out_home: float,
    l_in_home: float,
    has_assigned: bool,
    with_rest: bool,
) -> Tuple[np.ndarray, float]:
    """Per-client candidate paths ``L(s')`` and the client-less objective.

    The fused hot path behind ``batch_delta_D`` / ``candidate_paths``:
    exclude the client's home server from the cached best completions
    (O(1) per row via the top-2 terms) and score every destination: the
    client's outgoing leg plus the best continuation, the best prefix
    plus its incoming leg, and its own round trip. With ``with_rest``
    it also computes ``d_rest`` — D with the client removed — which
    only the post-move objectives need; otherwise ``d_rest`` is NaN.
    """
    d_rest = np.nan
    if home >= 0:
        best_in = np.where(arg1_in == home, best2_in, best1_in)
        np.maximum(best_in, ss[:, home] + l_in_home, out=best_in)
        best_out = np.where(arg1_out == home, best2_out, best1_out)
        np.maximum(best_out, l_out_home + ss[home, :], out=best_out)
        if with_rest:
            l_out_rest = l_out.copy()
            l_out_rest[home] = l_out_home
            with np.errstate(invalid="ignore"):
                d_rest = float(np.max(l_out_rest + best_in))
    else:
        best_in = best1_in
        best_out = best1_out
        if with_rest and has_assigned:
            with np.errstate(invalid="ignore"):
                d_rest = float(np.max(l_out + best_in))
        elif with_rest:
            d_rest = -np.inf
    paths = np.maximum(out_leg + best_in, best_out + in_leg)
    np.maximum(paths, out_leg + in_leg, out=paths)
    return paths, d_rest
