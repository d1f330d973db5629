"""Interaction-path metrics (paper §II-A, §II-D and §V).

The central quantity is the **maximum interaction path length**

.. math::

   D = \\max_{c_i, c_j \\in C} \\; d(c_i, s_A(c_i)) + d(s_A(c_i), s_A(c_j))
       + d(s_A(c_j), c_j)

which §II-C proves is the minimum achievable interaction time under the
consistency and fairness requirements. Note the max ranges over *ordered*
pairs including ``c_i = c_j`` (a client interacting with itself through
its server round trip, length ``2 d(c, s_A(c))``) — with a symmetric
matrix the ordered/unordered distinction is immaterial, and the self-pair
is subsumed by ``i = j``.

Computing D naively is O(|C|^2); we use the standard server-level
reduction: with ``l(s)`` the farthest assigned-client distance of server
``s`` (only servers that have clients),

.. math::

   D = \\max_{s_1, s_2 \\; used} \\; l(s_1) + d(s_1, s_2) + l(s_2)

which is O(|C| + |S|^2). For asymmetric matrices the reduction uses the
two directional farthest-client vectors; see
:func:`max_interaction_path_length`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.assignment import Assignment
from repro.types import InteractionPath


def interaction_path_length(
    assignment: Assignment, client_a: int, client_b: int
) -> float:
    """Length of the interaction path between two clients (local indices).

    ``d(ca, s(ca)) + d(s(ca), s(cb)) + d(s(cb), cb)``; for
    ``client_a == client_b`` this is the client's server round trip.
    """
    problem = assignment.problem
    sa = assignment.server_of_client(client_a)
    sb = assignment.server_of_client(client_b)
    return float(
        problem.client_server[client_a, sa]
        + problem.server_server[sa, sb]
        + problem.client_server[client_b, sb]
    )


def interaction_path(
    assignment: Assignment, client_a: int, client_b: int
) -> InteractionPath:
    """The interaction path between two clients as a value object.

    Node ids in the returned object are *global* node ids.
    """
    problem = assignment.problem
    sa = assignment.server_of_client(client_a)
    sb = assignment.server_of_client(client_b)
    return InteractionPath(
        client_a=int(problem.clients[client_a]),
        server_a=int(problem.servers[sa]),
        server_b=int(problem.servers[sb]),
        client_b=int(problem.clients[client_b]),
        length=interaction_path_length(assignment, client_a, client_b),
    )


def _directional_farthest(assignment: Assignment) -> Tuple[np.ndarray, np.ndarray]:
    """Per-server farthest client distances, in both directions.

    Returns ``(l_out, l_in)`` where ``l_out[s] = max_c d(c, s)`` over
    clients assigned to ``s`` (client-to-server leg) and
    ``l_in[s] = max_c d(s, c)`` (server-to-client leg). They coincide
    for symmetric matrices. Unused servers hold ``-inf``.
    """
    problem = assignment.problem
    server_of = assignment.server_of
    n_servers = problem.n_servers
    idx = np.arange(problem.n_clients)
    out_dist = problem.client_server[idx, server_of]  # d(c, s_A(c))
    # d(s_A(c), c): the server->client direction view.
    sc = problem.server_client[server_of, idx]
    l_out = np.full(n_servers, -np.inf)
    l_in = np.full(n_servers, -np.inf)
    np.maximum.at(l_out, server_of, out_dist)
    np.maximum.at(l_in, server_of, sc)
    return l_out, l_in


def max_interaction_path_length(assignment: Assignment) -> float:
    """The objective D: maximum interaction path length over all pairs.

    O(|C| + |S|^2) via the server-level reduction. Handles asymmetric
    matrices by pairing the outgoing leg of the issuing client's server
    with the incoming leg of the receiving client's server.
    """
    l_out, l_in = _directional_farthest(assignment)
    used = np.flatnonzero(np.isfinite(l_out))
    ss = assignment.problem.server_server[np.ix_(used, used)]
    # D = max over used (s1, s2) of l_out[s1] + d(s1, s2) + l_in[s2].
    totals = l_out[used][:, None] + ss + l_in[used][None, :]
    return float(totals.max())


def argmax_interaction_path(assignment: Assignment) -> InteractionPath:
    """One interaction path achieving the maximum length D.

    Useful for Distributed-Greedy (which perturbs clients on longest
    paths) and for explanatory output. O(|C| + |S|^2).
    """
    problem = assignment.problem
    l_out, l_in = _directional_farthest(assignment)
    used = np.flatnonzero(np.isfinite(l_out))
    ss = problem.server_server[np.ix_(used, used)]
    totals = l_out[used][:, None] + ss + l_in[used][None, :]
    flat = int(np.argmax(totals))
    i, j = divmod(flat, used.size)
    s1, s2 = int(used[i]), int(used[j])
    # Recover witnesses: the farthest clients of s1 (outgoing) and s2
    # (incoming).
    members1 = np.flatnonzero(assignment.server_of == s1)
    members2 = np.flatnonzero(assignment.server_of == s2)
    d_out = problem.client_server[members1, s1]
    ca = int(members1[int(np.argmax(d_out))])
    d_in = problem.server_client[s2, members2]
    cb = int(members2[int(np.argmax(d_in))])
    return interaction_path(assignment, ca, cb)


def clients_on_longest_paths(
    assignment: Assignment, *, tol: float = 1e-9
) -> np.ndarray:
    """Local indices of all clients involved in some longest path.

    A client ``c`` is involved when there exists another endpoint ``c'``
    with path length ``>= D - tol`` in either direction. O(|C| + |S|^2)
    using per-server reductions: the best completion of a path starting
    (or ending) at ``c`` is precomputed per server.
    """
    problem = assignment.problem
    d_max = max_interaction_path_length(assignment)
    l_out, l_in = _directional_farthest(assignment)
    server_of = assignment.server_of
    idx = np.arange(problem.n_clients)
    d_cs = problem.client_server[idx, server_of]  # d(c, s_A(c))
    d_sc = problem.server_client[server_of, idx]

    ss = problem.server_server
    finite_out = np.where(np.isfinite(l_out), l_out, -np.inf)
    finite_in = np.where(np.isfinite(l_in), l_in, -np.inf)
    # best_to[s] = max_{s2 used} d(s, s2) + l_in[s2]
    best_to = (ss + finite_in[None, :]).max(axis=1)
    # best_from[s] = max_{s1 used} l_out[s1] + d(s1, s)
    best_from = (finite_out[:, None] + ss).max(axis=0)

    as_issuer = d_cs + best_to[server_of]
    as_receiver = best_from[server_of] + d_sc
    involved = (as_issuer >= d_max - tol) | (as_receiver >= d_max - tol)
    return np.flatnonzero(involved)


def average_interaction_path_length(assignment: Assignment) -> float:
    """Mean interaction path length over all ordered client pairs.

    Secondary diagnostic (the paper's objective is the max). O(|S|^2 +
    |C|) by aggregating per-server sums.
    """
    problem = assignment.problem
    server_of = assignment.server_of
    n = problem.n_clients
    idx = np.arange(n)
    d_cs = problem.client_server[idx, server_of]
    d_sc = problem.server_client[server_of, idx]
    counts = np.bincount(server_of, minlength=problem.n_servers).astype(np.float64)
    sum_out = np.bincount(server_of, weights=d_cs, minlength=problem.n_servers)
    sum_in = np.bincount(server_of, weights=d_sc, minlength=problem.n_servers)
    ss = problem.server_server
    # Sum over ordered pairs (i, j):
    #   d(ci, s_i) appears (n) times for each i (all j) -> n * sum_out
    #   d(s_j, cj) appears (n) times for each j -> n * sum_in
    #   d(s_i, s_j) appears count[s_i] * count[s_j] times.
    total = n * float(sum_out.sum()) + n * float(sum_in.sum())
    total += float(counts @ ss @ counts)
    return total / (n * n)


def normalized_interactivity(assignment: Assignment, lower_bound: float) -> float:
    """D divided by the super-optimal lower bound (paper §V).

    Values close to 1 mean near-optimal interactivity; the paper's
    headline claim is that the greedy algorithms stay within ~10% of the
    bound (ratio <= 1.1) in typical settings.
    """
    if not lower_bound > 0:
        raise ValueError(f"lower bound must be positive, got {lower_bound}")
    return max_interaction_path_length(assignment) / lower_bound


def max_interaction_path_length_bruteforce(assignment: Assignment) -> float:
    """O(|C|^2) reference implementation of D (tests only)."""
    problem = assignment.problem
    server_of = assignment.server_of
    idx = np.arange(problem.n_clients)
    d_cs = problem.client_server[idx, server_of]
    d_sc = problem.server_client[server_of, idx]
    ss = problem.server_server[np.ix_(server_of, server_of)]
    totals = d_cs[:, None] + ss + d_sc[None, :]
    return float(totals.max())


def per_client_interactivity(assignment: Assignment) -> np.ndarray:
    """Each client's worst interaction path length (length ``|C|``).

    ``out[c] = max over partners c' (either direction) of the
    interaction path length`` — the per-client experience behind the
    global D (``out.max() == D``). O(|C| |S| + |S|^2) via the same
    per-server reductions as :func:`clients_on_longest_paths`. Useful
    for identifying which clients pay for a bad assignment and for
    per-client SLA reporting.
    """
    problem = assignment.problem
    l_out, l_in = _directional_farthest(assignment)
    server_of = assignment.server_of
    idx = np.arange(problem.n_clients)
    d_cs = problem.client_server[idx, server_of]
    d_sc = problem.server_client[server_of, idx]
    ss = problem.server_server
    finite_out = np.where(np.isfinite(l_out), l_out, -np.inf)
    finite_in = np.where(np.isfinite(l_in), l_in, -np.inf)
    best_to = (ss + finite_in[None, :]).max(axis=1)
    best_from = (finite_out[:, None] + ss).max(axis=0)
    as_issuer = d_cs + best_to[server_of]
    as_receiver = best_from[server_of] + d_sc
    return np.maximum(as_issuer, as_receiver)
