"""The super-optimal lower bound on D (paper §V).

For any assignment, the interaction path between clients ``c, c'`` is at
least ``min_{s, s' in S} d(c, s) + d(s, s') + d(s', c')`` — as if each
client could pick a *different* best server for every interaction.
Hence

.. math::

   LB = \\max_{c, c' \\in C} \\; \\min_{s, s' \\in S}
        \\{ d(c, s) + d(s, s') + d(s', c') \\}

is a lower bound on the optimum (generally unachievable — a
super-optimum). The paper normalizes every algorithm's D by this bound
("normalized interactivity").

Complexity
----------
The naive form is O(|C|^2 |S|^2). We factor it into two min-plus
products:

1. ``A[c, s'] = min_s (d(c, s) + d(s, s'))`` — O(|C| |S|^2), folded
   over ``s`` into one ``(|C|, |S|)`` accumulator in the matrix dtype
   (no ``(|C|, |S|, |S|)`` temporary, so no client blocking either).
2. ``LB = max_{c,c'} min_{s'} (A[c, s'] + d(s', c'))`` — O(|C|^2 |S|)
   in the worst case, but with exact bound pruning:

   - ``row_ub[c] = min_{s'} (A[c, s'] + max_{c'} d(s', c'))`` bounds
     every pair value in row ``c``;
   - ``col_ub[c'] = min_{s'} (max_c A[c, s'] + d(s', c'))`` bounds
     every pair value in column ``c'``.

   Rows are visited in descending ``row_ub`` in cache-sized blocks,
   each folded over ``s'`` into a (rows, live columns) accumulator.
   The bounds are then tightened to what is left: ``col_ub`` with the
   max over the pending rows only, ``row_ub`` with the max over the
   live columns only. Columns and pending rows whose bound is
   ``<= best`` are dropped, later blocks take more rows as fewer
   columns stay live, and the scan ends when no row is left.

Floating-point addition is monotone (``x <= x'`` implies
``fl(x + y) <= fl(x' + y)``), so both bounds bound the *computed*
sums, and ``min``/``max`` do not depend on evaluation order. The
pruned result is therefore bit-identical to the full product, not an
approximation. Each tightening costs O((pending rows + live columns)
|S|) and runs only once the scan since the last one cost four times
as much. On Meridian-like instances (|C| ≈ 1800, |S| = 20) the first
tightening leaves a few dozen columns live, and the row bounds
leave fewer than 200 of the 1800 rows to scan. On a 2-vCPU Xeon VM the
whole bound then takes about 3 ms (step 1 about 1.5 ms), where the
unpruned product took about 170 ms; at |S| = 100 it takes about
40 ms, against about 1 s.
"""

from __future__ import annotations

import numpy as np

from repro.core.problem import ClientAssignmentProblem
from repro.errors import InvalidParameterError

#: Cells per (rows, live columns) block of the pruned pair scan: the
#: accumulator stays in cache, and the row count grows as columns drop.
_PAIR_CELLS = 1 << 13

#: Tighten the scan's bounds once the cells scanned since the last
#: tightening reach this multiple of its own cost (pending rows plus
#: live columns, times |S|), so it adds at most a quarter to a scan that
#: prunes nothing.
_TIGHTEN_AFTER = 4


def interaction_lower_bound(
    problem: ClientAssignmentProblem, *, block_size: int = 256
) -> float:
    """The super-optimal lower bound LB for a problem instance.

    ``block_size`` is still accepted and must be at least 1, since
    callers pass it, but the folded first product no longer blocks
    over clients, so it does not change the work or the result.
    """
    if block_size < 1:
        raise InvalidParameterError(f"block_size must be >= 1, got {block_size}")
    cs = problem.client_server  # d(c, s), shape (C, S)
    ss = problem.server_server  # d(s, s'), shape (S, S)
    # Server-to-client direction for the receiving leg.
    sc = problem.server_client  # (S, C)

    # A[c, s'] = min over s of d(c, s) + d(s, s'), folded over s in the
    # matrix dtype and only then widened, so float32 sums round exactly
    # as in a float32 (C, S, S) product.
    a = np.asarray(_min_plus(cs, ss), dtype=np.float64)

    # LB = max over (c, c') of min over s' of A[c, s'] + d(s', c'),
    # scanned with the exact row/column bounds of the module docstring.
    row_ub = _min_plus(a, sc.max(axis=1)[:, None])[:, 0]
    pending = np.argsort(-row_ub)  # rows not scanned yet
    sc_live = sc  # columns that may still beat best
    best = -np.inf
    scanned = 0  # cells scanned since the bounds were last tightened
    while pending.size:
        rows = pending[: max(1, _PAIR_CELLS // sc_live.shape[1])]
        pending = pending[rows.size :]
        best = max(best, float(_min_plus(a[rows], sc_live).max()))
        scanned += rows.size * sc_live.shape[1]
        if not pending.size or scanned < _TIGHTEN_AFTER * (
            pending.size + sc_live.shape[1]
        ):
            continue
        # Tighten both bounds to the rows still pending: drop the
        # columns whose bound cannot beat best, then the rows whose
        # bound over the remaining columns cannot.
        scanned = 0
        a_pending = a[pending]
        col_ub = _min_plus(a_pending.max(axis=0)[None, :], sc_live)[0]
        keep = col_ub > best
        if not keep.any():
            break
        if not keep.all():
            sc_live = sc_live[:, keep]
        row_ub = _min_plus(a_pending, sc_live.max(axis=1)[:, None])[:, 0]
        pending = pending[row_ub > best]
    return best


def _min_plus(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``out[i, j] = min_k left[i, k] + right[k, j]``, folded over ``k``.

    Folding keeps the working set at two ``(len(left), right.shape[1])``
    arrays instead of a 3-D temporary.
    """
    out = left[:, :1] + right[0]
    tmp = np.empty_like(out)
    for k in range(1, right.shape[0]):
        np.add(left[:, k : k + 1], right[k], out=tmp)
        np.minimum(out, tmp, out=out)
    return out


def interaction_lower_bound_bruteforce(problem: ClientAssignmentProblem) -> float:
    """O(|C|^2 |S|^2) reference implementation (tests only)."""
    cs = problem.client_server
    ss = problem.server_server
    sc = problem.server_client
    best = -np.inf
    for ci in range(problem.n_clients):
        for cj in range(problem.n_clients):
            # min over (s, s') of d(ci, s) + d(s, s') + d(s', cj)
            totals = cs[ci][:, None] + ss + sc[:, cj][None, :]
            pair = float(totals.min())
            if pair > best:
                best = pair
    return best


def single_pair_lower_bound(
    problem: ClientAssignmentProblem, client_a: int, client_b: int
) -> float:
    """``min_{s,s'} d(c_a, s) + d(s, s') + d(s', c_b)`` for one pair."""
    cs = problem.client_server
    ss = problem.server_server
    sc = problem.server_client
    totals = cs[client_a][:, None] + ss + sc[:, client_b][None, :]
    return float(totals.min())
