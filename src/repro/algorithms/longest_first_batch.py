"""Longest-First-Batch Assignment (paper §IV-B).

Key idea: if client ``c`` is assigned to server ``s``, assigning to
``s`` every client not farther from ``s`` than ``c`` cannot increase the
maximum interaction path length. The algorithm therefore:

1. finds each client's nearest server and sorts clients by that
   distance, descending;
2. repeatedly takes the unassigned client ``c`` with the longest
   nearest-server distance, assigns it to its nearest server ``s``, and
   **batches** onto ``s`` every unassigned client within ``d(c, s)`` of
   ``s``.

In the resulting assignment any client not assigned to its nearest
server is never the farthest client of its server, so the longest
interaction path connects two nearest-server-assigned clients — hence
LFB's D never exceeds Nearest-Server's, and the 3-approximation carries
over (and stays tight, Fig. 4).

Capacitated variant (§IV-E): when a batch overflows the server, the
selected client ``c`` is assigned together with the *nearest* remaining
batch members, filling the server exactly to capacity; the leftover
clients re-enter the pool, their nearest servers are recomputed among
unsaturated servers, and the distance ordering is rebuilt.

Complexity: O(|C| (|C| + |S|)) uncapacitated; each capacity overflow
adds an O(|C| |S|) recompute.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import register
from repro.core.assignment import Assignment
from repro.core.incremental import IncrementalObjective
from repro.core.problem import ClientAssignmentProblem
from repro.obs import registry, span
from repro.utils.rng import SeedLike


@register("longest-first-batch")
def longest_first_batch(
    problem: ClientAssignmentProblem,
    *,
    seed: SeedLike = None,
) -> Assignment:
    """Run Longest-First-Batch Assignment.

    ``seed`` is accepted for interface uniformity and ignored — the
    algorithm is deterministic. Batches commit through an
    :class:`~repro.core.incremental.IncrementalObjective`, so the
    partial assignment's objective stays queryable throughout the
    construction at no extra asymptotic cost.
    """
    cs = problem.client_server
    n_clients = problem.n_clients
    engine = IncrementalObjective(problem, history=False)
    unassigned = np.ones(n_clients, dtype=bool)
    metrics = registry()
    batches = metrics.counter("lfb.batches")
    batch_sizes = metrics.histogram("lfb.batch_size")

    if not problem.is_capacitated:
        with span("lfb.assign", clients=n_clients, servers=problem.n_servers):
            nearest = np.argmin(cs, axis=1)
            nearest_dist = cs[np.arange(n_clients), nearest]
            # Longest nearest-server distance first.
            order = np.argsort(-nearest_dist, kind="stable")
            for c in order:
                if not unassigned[c]:
                    continue
                s = int(nearest[c])
                batch = np.flatnonzero(
                    unassigned & (cs[:, s] <= nearest_dist[c])
                )
                engine.assign_many(batch, s)
                unassigned[batch] = False
                batches.inc()
                batch_sizes.observe(batch.size)
            return engine.assignment()

    remaining = problem.capacities.copy().astype(np.int64)
    with span(
        "lfb.assign",
        clients=n_clients,
        servers=problem.n_servers,
        capacitated=True,
    ):
        while unassigned.any():
            open_servers = np.flatnonzero(remaining > 0)
            # Nearest *unsaturated* server per unassigned client.
            sub = cs[np.ix_(unassigned, open_servers)]
            nearest_pos = np.argmin(sub, axis=1)
            nearest_dist = sub[np.arange(sub.shape[0]), nearest_pos]
            pool = np.flatnonzero(unassigned)
            # Process in descending nearest-distance order until a server
            # saturates (which invalidates the precomputed nearest servers).
            order = np.argsort(-nearest_dist, kind="stable")
            resort_needed = False
            for k in order:
                c = int(pool[k])
                if not unassigned[c]:
                    continue
                s = int(open_servers[nearest_pos[k]])
                if remaining[s] == 0:
                    # Saturated since this ordering was computed.
                    resort_needed = True
                    break
                limit = float(nearest_dist[k])
                batch = np.flatnonzero(unassigned & (cs[:, s] <= limit))
                if batch.size > remaining[s]:
                    # Overflow: keep c plus the nearest batch members.
                    others = batch[batch != c]
                    keep_n = int(remaining[s]) - 1
                    if keep_n > 0:
                        nearest_others = others[
                            np.argsort(cs[others, s], kind="stable")
                        ]
                        batch = np.concatenate(([c], nearest_others[:keep_n]))
                    else:
                        batch = np.array([c], dtype=np.int64)
                    resort_needed = True
                engine.assign_many(batch, s)
                unassigned[batch] = False
                remaining[s] -= batch.size
                batches.inc()
                batch_sizes.observe(batch.size)
                if resort_needed:
                    break
    return engine.assignment()
