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

1. ``A[c, s'] = min_s (d(c, s) + d(s, s'))`` — O(|C| |S|^2), blocked
   over clients.
2. ``LB = max_{c,c'} min_{s'} (A[c, s'] + d(s', c'))`` — O(|C|^2 |S|)
   in the worst case, but with exact bound pruning:

   - ``row_ub[c] = min_{s'} (A[c, s'] + max_{c'} d(s', c'))`` bounds
     every pair value in row ``c``;
   - ``col_ub[c'] = min_{s'} (max_c A[c, s'] + d(s', c'))`` bounds
     every pair value in column ``c'``.

   Rows are visited in descending ``row_ub`` in cache-sized blocks,
   each folded over ``s'`` into a (rows, live columns) accumulator.
   After a block, columns with ``col_ub <= best`` are dropped, and
   later blocks take more rows as fewer columns stay live; the scan
   stops once the next row's ``row_ub <= best``.

Floating-point addition is monotone (``x <= x'`` implies
``fl(x + y) <= fl(x' + y)``), so both bounds bound the *computed*
sums, and ``min``/``max`` do not depend on evaluation order. The
pruned result is therefore bit-identical to the full product, not an
approximation. Both bounds cost O(|C| |S|). On Meridian-like
instances (|C| ≈ 1800, |S| = 20) the first block leaves a few dozen
columns live. On a 2-vCPU Xeon VM the whole bound then takes about
5 ms, half of it in step 1, where the unpruned product took about
170 ms; at |S| = 100 it takes about 50 ms, against about 1 s.
"""

from __future__ import annotations

import numpy as np

from repro.core.problem import ClientAssignmentProblem
from repro.errors import InvalidParameterError

#: Cells per (rows, live columns) block of the pruned pair scan: the
#: accumulator stays in cache, and the row count grows as columns drop.
_PAIR_CELLS = 1 << 13


def interaction_lower_bound(
    problem: ClientAssignmentProblem, *, block_size: int = 256
) -> float:
    """The super-optimal lower bound LB for a problem instance.

    ``block_size`` controls the client blocking of the first min-plus
    product (memory is O(block_size * |S|^2)); it must be at least 1.
    """
    if block_size < 1:
        raise InvalidParameterError(f"block_size must be >= 1, got {block_size}")
    cs = problem.client_server  # d(c, s), shape (C, S)
    ss = problem.server_server  # d(s, s'), shape (S, S)
    # Server-to-client direction for the receiving leg.
    sc = problem.server_client  # (S, C)

    # A[c, s'] = min over s of d(c, s) + d(s, s').
    # cs[:, :, None] + ss[None, :, :] would be (C, S, S); block over
    # clients to keep memory modest.
    n_clients = problem.n_clients
    n_servers = problem.n_servers
    a = np.empty((n_clients, n_servers))
    for start in range(0, n_clients, block_size):
        stop = min(start + block_size, n_clients)
        block = cs[start:stop, :, None] + ss[None, :, :]
        a[start:stop] = block.min(axis=1)

    # LB = max over (c, c') of min over s' of A[c, s'] + d(s', c'),
    # scanned with the exact row/column bounds of the module docstring.
    row_ub = _min_plus(a, sc.max(axis=1)[:, None])[:, 0]
    col_ub = _min_plus(a.max(axis=0)[None, :], sc)[0]
    order = np.argsort(-row_ub)
    live = np.arange(n_clients)
    sc_live = sc
    best = -np.inf
    start = 0
    while start < n_clients:
        stop = start + max(1, _PAIR_CELLS // live.size)
        rows = order[start:stop]
        start = stop
        # Rows come in descending row_ub: once none beats best, no
        # later row can either.
        rows = rows[row_ub[rows] > best]
        if rows.size == 0:
            break
        block_max = float(_min_plus(a[rows], sc_live).max())
        if block_max > best:
            best = block_max
            keep = col_ub[live] > best
            if not keep.all():
                live = live[keep]
                if live.size == 0:
                    break
                sc_live = sc[:, live]
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
