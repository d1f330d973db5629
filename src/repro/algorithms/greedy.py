"""Greedy Assignment (paper §IV-C, Fig. 6 pseudocode).

Starting from an empty assignment, each iteration considers every
(unassigned client, server) pair ``(c, s)``. Selecting the pair means
assigning to ``s`` the client ``c`` *and* every unassigned client not
farther from ``s`` than ``c`` (the Longest-First-Batch closure). The
pair chosen is the one minimizing the amortized cost

    cost(c, s) = Δl / Δn

where ``Δn`` is the number of clients the batch would assign and ``Δl``
the resulting increase of the maximum interaction path length. Per the
pseudocode, the candidate path length for pair ``(c, s)`` is

    len(c, s) = max( 2 d(c, s),  d(c, s) + m(s),  max_len )

with ``m(s) = max over assigned clients b of d(s, s_A(b)) + d(s_A(b), b)``
shared across all candidates for ``s``, and ``max_len`` the running
maximum interaction path length.

Implementation notes
--------------------
- Sorted frame: ``d(c, s)``, ``d(s, c)`` and the round trips are
  gathered once into each server's stable ascending client order (the
  pseudocode's ``index[s, c]``), one row per server and one plane per
  term of a ``(3, |S|, w)`` array in the matrix dtype. The order comes
  from an unstable sort, redone stably only on rows with tied keys
  (elsewhere the sorting permutation is unique). After every batch
  commits, each row is compacted to its still-unassigned clients with
  one ``take``; every row loses exactly the batch, so the frame stays
  rectangular with ``w`` the number of unassigned clients. A
  client's ``Δn`` (its rank among the unassigned clients in the row) is
  then simply its column plus one, and the batch closure is a prefix of
  the selected server's row. Each cost entry is the same floating point
  operation on the same operands as the full-matrix formulation, and
  ties still resolve to the lowest ``(s, c)`` index of the full
  ``(|S|, |C|)`` matrix, so the result is unchanged. The cost grid is
  computed in two float64 buffers allocated once, so a batch costs a
  fixed, small number of numpy calls.
- Assignment state and the ``m(s)`` reductions live in an
  :class:`~repro.core.incremental.IncrementalObjective`: batches commit
  via ``assign_many`` and the per-server farthest legs / best
  completions are read back from the engine's caches, so Greedy shares
  the maintenance (and candidate-evaluation accounting) substrate of
  the local-search family.
- Asymmetric matrices: the round-trip term uses ``d(c,s) + d(s,c)`` and
  ``m(s)`` uses the proper directional legs, reducing exactly to the
  pseudocode on symmetric inputs.
- Capacitated (§IV-E): saturated servers are excluded; for a server with
  remaining capacity ``r``, ``Δn`` is capped at ``r`` and an overflowing
  batch keeps the selected client ``c`` plus the ``r - 1`` nearest batch
  members (so ``Δl`` stays exact — ``c`` remains the farthest member).

Complexity: O(|S| |C| log |C|) preprocessing + O(|S| w) per iteration
with ``w`` the clients still unassigned — within the paper's
O(|S||C| log|C| + m |S||C|).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.algorithms.base import register
from repro.core.assignment import Assignment
from repro.core.incremental import (
    IncrementalObjective,
    record_candidate_evaluations,
)
from repro.core.problem import ClientAssignmentProblem
from repro.obs import registry, span
from repro.utils.rng import SeedLike


@register("greedy")
def greedy(
    problem: ClientAssignmentProblem,
    *,
    seed: SeedLike = None,
    amortized: bool = True,
    backend: str = "auto",
) -> Assignment:
    """Run Greedy Assignment.

    ``seed`` is accepted for interface uniformity and ignored — the
    algorithm is deterministic (ties broken toward the lowest flat index
    of the cost matrix).

    ``amortized`` selects the pair-selection metric: the paper's
    ``Δl/Δn`` (default) or plain ``Δl`` (ignoring batch size). The
    latter exists as an ablation of the paper's design choice — dividing
    by Δn rewards assigning many clients per unit of path-length growth;
    see ``repro.experiments.ablations.ablation_greedy_cost``.
    ``backend`` selects the incremental engine's kernel backend (see
    :func:`repro.kernels.resolve_backend`).
    """
    cs = problem.client_server  # (C, S): d(c, s)
    sc = problem.server_client  # (S, C)
    n_clients, n_servers = cs.shape
    metrics = registry()
    batches = metrics.counter("greedy.batches")
    batch_sizes = metrics.histogram("greedy.batch_size")

    # Preprocessing: per-server client order by ascending d(c, s) (the
    # pseudocode's index[s, c]) and every per-pair term gathered into it.
    # Row s of each frame plane holds the still-unassigned clients in
    # that order; rows shrink together as batches commit. The round
    # trip d(c, s) + d(s, c) is summed in the matrix dtype.
    order, cs_sorted = _sorted_frame(cs)  # (S, w) client ids, d(c, s)
    frame = np.empty((3, n_servers, n_clients), dtype=cs.dtype)
    frame[0] = cs_sorted  # d(c, s)
    frame[1] = np.take_along_axis(sc, order, axis=1)  # d(s, c)
    np.add(frame[0], frame[1], out=frame[2])  # d(c, s) + d(s, c)

    unassigned = np.ones(n_clients, dtype=bool)
    remaining = (
        problem.capacities.copy().astype(np.int64)
        if problem.is_capacitated
        else None
    )
    # The cost grid's float64 buffers, viewed at the frame's width.
    cand_buf = np.empty(n_servers * n_clients)
    cost_buf = np.empty(n_servers * n_clients)
    ranks = np.arange(1, n_clients + 1, dtype=np.float64)

    # Assignment state + per-server farthest-leg maintenance.
    engine = IncrementalObjective(problem, history=False, backend=backend)
    max_len = 0.0

    with span("greedy.assign", clients=n_clients, servers=n_servers):
        while order.shape[1]:
            width = order.shape[1]
            cs_f, sc_f, rt_f = frame
            cand = cand_buf[: n_servers * width].reshape(n_servers, width)
            cost = cost_buf[: n_servers * width].reshape(n_servers, width)

            # Candidate path length for every (s, c) pair (lines 13-14):
            # the round trip and the current max (compared in the matrix
            # dtype), then the m terms shared per server (line 11),
            #   m_in[s]  = max_b d(s, s_A(b)) + d(s_A(b), b)   (outgoing)
            #   m_out[s] = max_b d(b, s_A(b)) + d(s_A(b), s)   (incoming)
            # served from the engine's cached best-completion reductions.
            np.maximum(rt_f, max_len, out=cand)
            if engine.n_assigned > 0:
                m_in, m_out = engine.server_reductions()
                np.add(cs_f, m_in[:, None], out=cost)
                np.maximum(cand, cost, out=cand)
                np.add(m_out[:, None], sc_f, out=cost)
                np.maximum(cand, cost, out=cand)
            # The pseudocode scores the full (|S|, |C|) pair grid.
            record_candidate_evaluations(n_servers * n_clients)
            np.subtract(cand, max_len, out=cost)  # Δl >= 0

            # Δn: a client's rank among the unassigned clients of its
            # row, which in the compacted frame is its column plus one.
            if amortized and remaining is None:
                np.divide(cost, ranks[:width], out=cost)
            elif amortized:
                delta_n = np.minimum(ranks[None, :width], remaining[:, None])
                # Saturated servers yield Δn = 0; their costs are masked
                # right after, so silence the 0/0.
                with np.errstate(divide="ignore", invalid="ignore"):
                    np.divide(cost, delta_n, out=cost)
            if remaining is not None:
                cost[remaining <= 0, :] = np.inf

            # Lowest cost; ties go to the lowest flat (s, c) index of
            # the full cost matrix, as an argmin over it would pick:
            # the first minimum's row, then its lowest tied client.
            s_star, k_star = divmod(int(cost.argmin()), width)
            best = cost[s_star, k_star]
            assert np.isfinite(best), "no assignable pair found"
            tied = np.flatnonzero(cost[s_star] == best)
            if tied.size > 1:
                k_star = int(tied[np.argmin(order[s_star, tied])])
            c_star = int(order[s_star, k_star])

            # The batch: every unassigned client not farther from s*
            # than c*, a prefix of s*'s row (ties with c* included).
            n_batch = int(
                np.searchsorted(cs_f[s_star], cs_f[s_star, k_star], side="right")
            )
            prefix = order[s_star, :n_batch]
            if remaining is not None and n_batch > remaining[s_star]:
                # Keep c* plus its nearest batch mates, nearest first.
                others = prefix[prefix != c_star]
                keep_n = int(remaining[s_star]) - 1
                batch = np.concatenate(([c_star], others[:keep_n]))
            else:
                batch = np.sort(prefix)

            engine.assign_many(batch, s_star)
            unassigned[batch] = False
            if remaining is not None:
                remaining[s_star] -= batch.size
            max_len = float(cand[s_star, k_star])
            batches.inc()
            batch_sizes.observe(batch.size)

            # Compact every row to its unassigned clients; each row
            # loses exactly the batch, so the frame stays rectangular.
            keep = np.flatnonzero(unassigned[order])
            width -= batch.size
            order = order.take(keep).reshape(n_servers, width)
            frame = (
                frame.reshape(3, -1).take(keep, axis=1).reshape(3, n_servers, width)
            )

    return engine.assignment()


def _sorted_frame(cs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each server's clients by ascending ``d(c, s)``, and those values.

    Equal to a stable argsort of ``cs.T`` along rows. The unstable sort
    of a contiguous ``(S, C)`` copy is several times faster; where a
    row's keys are distinct the sorting permutation is unique, so only
    rows with equal adjacent sorted values are sorted again stably
    (their sorted values do not depend on the tie order).
    """
    keys = np.ascontiguousarray(cs.T)
    order = keys.argsort(axis=1)
    values = np.take_along_axis(keys, order, axis=1)
    tied = (values[:, 1:] == values[:, :-1]).any(axis=1)
    if tied.any():
        order[tied] = keys[tied].argsort(axis=1, kind="stable")
    return order, values


@register("greedy-absolute")
def greedy_absolute(
    problem: ClientAssignmentProblem,
    *,
    seed: SeedLike = None,
    backend: str = "auto",
) -> Assignment:
    """Ablation variant of Greedy Assignment with cost = Δl (no Δn).

    Registered separately so experiment configs can sweep it by name.
    """
    return greedy(problem, seed=seed, amortized=False, backend=backend)
