"""Exact solvers for small instances: brute force and branch-and-bound.

The client assignment problem is NP-complete (Theorem 1), so exact
solving is exponential in general; these solvers exist to calibrate the
heuristics ("near optimal" claims) on instances of up to ~a dozen
clients, and as ground truth in tests.

:func:`solve_bruteforce` enumerates all ``|S|^|C|`` assignments.

:func:`solve_branch_and_bound` assigns clients one at a time
(largest-minimum-distance clients first), maintaining:

- the incremental maximum interaction path length of the partial
  assignment (which only grows as clients are added — pruning is
  admissible);
- per-branch lower bounds: a client's best-case contribution
  ``2 * min_s d(c, s)`` and the pairwise super-optimal bound between
  unassigned clients and assigned ones.

Both return an :class:`ExactResult` carrying the optimal assignment, its
objective value, and search statistics. Capacitated problems are
supported (branches exceeding capacity are cut).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.assignment import Assignment
from repro.core.metrics import max_interaction_path_length
from repro.core.problem import ClientAssignmentProblem
from repro.errors import InvalidProblemError


@dataclass(frozen=True)
class ExactResult:
    """Outcome of an exact search."""

    assignment: Assignment
    #: The optimal maximum interaction path length.
    objective: float
    #: Number of complete assignments evaluated (brute force) or search
    #: nodes expanded (branch and bound).
    nodes_explored: int


def solve_bruteforce(
    problem: ClientAssignmentProblem, *, max_assignments: int = 5_000_000
) -> ExactResult:
    """Enumerate every assignment; return the best.

    Raises :class:`~repro.errors.InvalidProblemError` when the search
    space exceeds ``max_assignments``.
    """
    n_clients = problem.n_clients
    n_servers = problem.n_servers
    space = n_servers**n_clients
    if space > max_assignments:
        raise InvalidProblemError(
            f"brute force space {n_servers}^{n_clients} = {space} exceeds "
            f"limit {max_assignments}; use solve_branch_and_bound"
        )
    capacities = problem.capacities
    best_obj = np.inf
    best: Optional[np.ndarray] = None
    explored = 0
    for combo in itertools.product(range(n_servers), repeat=n_clients):
        arr = np.asarray(combo, dtype=np.int64)
        if capacities is not None:
            loads = np.bincount(arr, minlength=n_servers)
            if np.any(loads > capacities):
                continue
        explored += 1
        candidate = Assignment(problem, arr, validate=False)
        obj = max_interaction_path_length(candidate)
        if obj < best_obj:
            best_obj = obj
            best = arr
    if best is None:
        raise InvalidProblemError("no feasible assignment exists (capacities)")
    return ExactResult(Assignment(problem, best), best_obj, explored)


def solve_branch_and_bound(
    problem: ClientAssignmentProblem,
    *,
    initial_upper_bound: Optional[float] = None,
    max_nodes: int = 50_000_000,
) -> ExactResult:
    """Depth-first branch and bound over client-by-client assignment.

    Parameters
    ----------
    initial_upper_bound:
        An incumbent objective (e.g. from a heuristic) to prune against
        from the start. The search still returns an actual assignment
        achieving the optimum (which may equal the incumbent only if a
        matching assignment is found; pass a heuristic's D *plus* its
        assignment cost when warm-starting, or leave ``None``).
    max_nodes:
        Safety valve; raises when exceeded.
    """
    cs = problem.client_server
    ss = problem.server_server
    # Server->client leg (asymmetric-safe).
    sc = problem.server_client
    n_clients = problem.n_clients
    n_servers = problem.n_servers
    capacities = problem.capacities

    # Order clients by decreasing distance to their nearest server: the
    # most constrained clients first tightens bounds early.
    order = np.argsort(-cs.min(axis=1), kind="stable")

    # Per-client admissible bound: any complete assignment has
    # D >= 2 * min_s max(d(c, s), d(s, c)) ... actually D includes the
    # round trip d(c, s) + d(s, c); use the per-client best round trip.
    round_trip = cs + sc.T  # (C, S): d(c, s) + d(s, c)
    client_floor = round_trip.min(axis=1)
    global_floor = float(client_floor.max()) if n_clients else 0.0

    best_obj = np.inf if initial_upper_bound is None else float(initial_upper_bound)
    best_arr: Optional[np.ndarray] = None
    nodes = 0

    server_of = np.full(n_clients, -1, dtype=np.int64)
    loads = np.zeros(n_servers, dtype=np.int64)
    # Incremental per-server farthest distances for assigned clients.
    l_out = np.full(n_servers, -np.inf)
    l_in = np.full(n_servers, -np.inf)

    def recurse(depth: int, current_d: float) -> None:
        nonlocal best_obj, best_arr, nodes
        nodes += 1
        if nodes > max_nodes:
            raise InvalidProblemError(
                f"branch and bound exceeded max_nodes={max_nodes}"
            )
        if current_d >= best_obj:
            return
        if depth == n_clients:
            best_obj = current_d
            best_arr = server_of.copy()
            return
        c = int(order[depth])
        # Candidate servers sorted by the client's round trip — cheap
        # moves first gives better incumbents sooner.
        candidates = np.argsort(round_trip[c], kind="stable")
        for s in candidates:
            s = int(s)
            if capacities is not None and loads[s] >= capacities[s]:
                continue
            # New objective if c joins s: paths between c and every
            # currently used server's farthest clients, plus c's round
            # trip through s, plus the unchanged current_d.
            new_d = current_d
            rt = cs[c, s] + sc[s, c]
            if rt > new_d:
                new_d = rt
            used = np.flatnonzero(np.isfinite(l_out))
            if used.size:
                outgoing = cs[c, s] + ss[s, used] + l_in[used]
                incoming = l_out[used] + ss[used, s] + sc[s, c]
                new_d = max(new_d, float(outgoing.max()), float(incoming.max()))
            # Admissible future bound: every unassigned client's best
            # round trip is a floor on the final D.
            future = client_floor[order[depth + 1 :]]
            bound = max(new_d, float(future.max()) if future.size else 0.0)
            if bound >= best_obj:
                continue
            server_of[c] = s
            loads[s] += 1
            old_out, old_in = l_out[s], l_in[s]
            l_out[s] = max(l_out[s], cs[c, s])
            l_in[s] = max(l_in[s], sc[s, c])
            recurse(depth + 1, new_d)
            l_out[s], l_in[s] = old_out, old_in
            loads[s] -= 1
            server_of[c] = -1

    recurse(0, global_floor)
    if best_arr is None:
        if initial_upper_bound is not None:
            raise InvalidProblemError(
                "no assignment beats the initial upper bound; rerun with "
                "initial_upper_bound=None to obtain the optimum"
            )
        raise InvalidProblemError("no feasible assignment exists (capacities)")
    return ExactResult(Assignment(problem, best_arr), best_obj, nodes)
