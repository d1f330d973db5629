"""Distributed-Greedy Assignment (paper §IV-D).

A distributed local-search refinement. Starting from an initial
assignment (Nearest-Server, per the paper's experiments), servers
cooperate to shrink the maximum interaction path length D:

1. each server measures its inter-server distances and its farthest
   assigned client ``l(s)``, broadcasts them, and every server computes
   D independently;
2. a server holding a client ``c`` involved in a longest interaction
   path broadcasts ``c`` and its ``l(s)`` *excluding* ``c``; every other
   server ``s'`` answers with the maximum path length through itself if
   it adopted ``c``:

       L(s') = max_{s''} { d(c, s') + d(s', s'') + l(s'') }

   (including ``s'' = s'`` and the round trip of ``c`` itself);
3. if ``min L(s') < D``, the client moves to the argmin server. Each
   modification never increases D; with multiple equal-length longest
   paths a move may leave D unchanged;
4. the algorithm terminates when no client on a longest path can move.

This module emulates the protocol faithfully but sequentially (the
paper requires a concurrency-control mechanism so that only one
modification happens at a time). It records the **trace of D after each
modification** — exactly the series plotted in the paper's Fig. 9 — and
counts the protocol messages exchanged (broadcasts and unicast replies)
as a deployment-cost diagnostic.

The per-candidate reply ``L(s')`` is served by
:class:`~repro.core.incremental.IncrementalObjective` in O(|S|) on warm
caches (the engine maintains each server's ``l(s)`` and the best
completions with their runner-ups, so excluding the candidate's home
server is O(1) per destination) instead of rebuilding both ``l``
vectors over all |C| clients per candidate. ``evaluator="recompute"``
retains the O(|C| + |S|^2)-per-candidate path for equivalence testing
and benchmarking; both produce the same replies and hence the same
modification trace.

The longest-path candidates of each round come from the same engine
(:meth:`~repro.core.incremental.IncrementalObjective.longest_path_clients`).
A client ``c`` is a candidate when ``d(c, s_A(c)) + best_in[s_A(c)]``
or ``best_out[s_A(c)] + d(s_A(c), c)`` reaches D. The engine finds the
servers that can hold one with an O(|S|) test on its cached ``l``
vectors and reductions, then walks only those servers' descending top-k
lists, so a round rarely touches all |C| clients. The sums, the
tolerance and the ascending client order are those of
:func:`~repro.core.metrics.clients_on_longest_paths`, which
``evaluator="recompute"`` still calls as the oracle.

Capacitated variant (§IV-E): clients may move only to unsaturated
servers, and the initial assignment is capacitated Nearest-Server.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.algorithms.base import register, register_detailed
from repro.algorithms.nearest import nearest_server
from repro.core.assignment import Assignment
from repro.core.incremental import (
    IncrementalObjective,
    record_candidate_evaluations,
)
from repro.core.metrics import (
    clients_on_longest_paths,
    max_interaction_path_length,
)
from repro.core.problem import ClientAssignmentProblem
from repro.errors import InvalidParameterError
from repro.obs import registry, span
from repro.utils.rng import SeedLike


@dataclass(frozen=True)
class DistributedGreedyResult:
    """Outcome of a Distributed-Greedy run."""

    assignment: Assignment
    #: D after each assignment modification; ``trace[0]`` is the initial
    #: assignment's D, ``trace[-1]`` the final D (Fig. 9's series).
    trace: Tuple[float, ...]
    #: Number of assignment modifications performed.
    n_modifications: int
    #: Protocol messages exchanged (broadcasts counted once per
    #: recipient, plus unicast replies).
    n_messages: int
    #: Whether the run stopped because no improving move existed (vs
    #: hitting the modification budget).
    converged: bool

    @property
    def initial_d(self) -> float:
        """D of the initial assignment."""
        return self.trace[0]

    @property
    def final_d(self) -> float:
        """D of the final assignment."""
        return self.trace[-1]


def _candidate_lengths_recompute(
    problem: ClientAssignmentProblem, server_of: np.ndarray, c: int
) -> np.ndarray:
    """The pre-engine reply computation: rebuild both ``l`` vectors over
    all clients with ``c`` excluded, then score every destination."""
    cs = problem.client_server
    ss = problem.server_server
    sc = problem.server_client
    n_servers = problem.n_servers
    l_out = np.full(n_servers, -np.inf)
    l_in = np.full(n_servers, -np.inf)
    mask = np.ones(problem.n_clients, dtype=bool)
    mask[c] = False
    idx = np.flatnonzero(mask)
    np.maximum.at(l_out, server_of[idx], cs[idx, server_of[idx]])
    np.maximum.at(l_in, server_of[idx], sc[server_of[idx], idx])
    with np.errstate(invalid="ignore"):
        best_in = np.where(
            np.isfinite(l_in).any(), (ss + l_in[None, :]).max(axis=1), -np.inf
        )
        best_out = np.where(
            np.isfinite(l_out).any(), (l_out[:, None] + ss).max(axis=0), -np.inf
        )
    l_candidates = np.maximum(cs[c, :] + best_in, best_out + sc[:, c])
    return np.maximum(l_candidates, cs[c, :] + sc[:, c])


@register_detailed("distributed-greedy")
def distributed_greedy_detailed(
    problem: ClientAssignmentProblem,
    *,
    seed: SeedLike = None,
    initial: Optional[Assignment] = None,
    max_modifications: Optional[int] = None,
    evaluator: str = "incremental",
) -> DistributedGreedyResult:
    """Run Distributed-Greedy and return the full result object.

    Parameters
    ----------
    problem:
        The instance; capacities are honored when present.
    seed:
        Accepted for interface uniformity; the algorithm is
        deterministic given the initial assignment.
    initial:
        Starting assignment; defaults to (capacitated) Nearest-Server,
        matching the paper's experiments.
    max_modifications:
        Safety budget; defaults to ``10 * |C|``. The paper observes
        convergence within a few tens of modifications.
    evaluator:
        ``"incremental"`` (default) serves ``L(s')`` replies from the
        incremental engine; ``"recompute"`` uses the from-scratch
        per-candidate path. Same trace either way.
    """
    if evaluator not in ("incremental", "recompute"):
        raise InvalidParameterError(
            f"evaluator must be 'incremental' or 'recompute', got {evaluator!r}"
        )
    if initial is None:
        initial = nearest_server(problem)
    if max_modifications is None:
        max_modifications = 10 * problem.n_clients

    n_servers = problem.n_servers
    incremental = evaluator == "incremental"

    server_of = initial.server_of.copy()
    loads = np.bincount(server_of, minlength=n_servers)
    capacities = problem.capacities
    engine = (
        IncrementalObjective(problem, server_of, history=False)
        if incremental
        else None
    )

    def current_assignment() -> Assignment:
        return Assignment(problem, server_of, validate=False)

    trace: List[float] = []
    n_messages = 0
    # Initial protocol round: every server broadcasts its inter-server
    # distances and l(s) to the other servers.
    n_messages += n_servers * (n_servers - 1)
    converged = False

    with span(
        "dga.solve",
        clients=problem.n_clients,
        servers=n_servers,
        evaluator=evaluator,
    ):
        while True:
            # D of the current assignment (the initial one, then after
            # each modification) and the clients on its longest paths.
            # The engine finds the candidates first: that rebuilds its
            # reductions, and D is then served from them.
            if incremental:
                candidates = engine.longest_path_clients()
                d_current = engine.d()
            else:
                assignment = current_assignment()
                candidates = clients_on_longest_paths(assignment)
                d_current = max_interaction_path_length(assignment)
            trace.append(d_current)
            if len(trace) - 1 >= max_modifications:
                break
            moved = False
            for c in candidates:
                c = int(c)
                home = int(server_of[c])

                # Broadcast of c's identity and l(home) minus c.
                n_messages += n_servers - 1

                # L(s') for every server s' (the replies).
                if incremental:
                    l_candidates = engine.candidate_paths(c)
                else:
                    record_candidate_evaluations(n_servers)
                    l_candidates = _candidate_lengths_recompute(
                        problem, server_of, c
                    )

                # Replies from the other servers.
                n_messages += n_servers - 1

                if capacities is not None:
                    saturated = (loads >= capacities) & (
                        np.arange(n_servers) != home
                    )
                    l_candidates = np.where(saturated, np.inf, l_candidates)

                best_server = int(np.argmin(l_candidates))
                if l_candidates[best_server] < d_current - 1e-12 and best_server != home:
                    loads[home] -= 1
                    loads[best_server] += 1
                    server_of[c] = best_server
                    # The new server broadcasts its updated l(s).
                    n_messages += n_servers - 1
                    if incremental:
                        engine.apply(c, best_server)
                    moved = True
                    break  # re-derive the longest paths after each move
            if not moved:
                converged = True
                break

    metrics = registry()
    metrics.counter("dga.runs").inc()
    metrics.counter("dga.modifications").inc(len(trace) - 1)
    metrics.counter("dga.messages").inc(n_messages)
    final = Assignment(problem, server_of)
    return DistributedGreedyResult(
        assignment=final,
        trace=tuple(trace),
        n_modifications=len(trace) - 1,
        n_messages=n_messages,
        converged=converged,
    )


@register("distributed-greedy")
def distributed_greedy(
    problem: ClientAssignmentProblem,
    *,
    seed: SeedLike = None,
    initial: Optional[Assignment] = None,
    max_modifications: Optional[int] = None,
    evaluator: str = "incremental",
) -> Assignment:
    """Registry entry point returning only the final assignment."""
    return distributed_greedy_detailed(
        problem,
        seed=seed,
        initial=initial,
        max_modifications=max_modifications,
        evaluator=evaluator,
    ).assignment
