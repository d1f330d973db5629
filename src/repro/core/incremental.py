"""Incremental maintenance of the objective D under single-client moves.

Every heuristic in the package evaluates candidate moves of the form
"relocate client ``c`` to server ``s``". Recomputing the maximum
interaction path length from scratch per candidate costs O(|C| + |S|^2);
:class:`IncrementalObjective` brings the amortized per-candidate cost
down to O(|S|) by maintaining, per server and per direction, the top-k
farthest assigned clients plus cached server-level reductions:

- ``l_out[s] = max_c d(c, s)`` and ``l_in[s] = max_c d(s, c)`` over the
  clients assigned to ``s`` (the paper's ``l(s)``, split by direction
  for asymmetric matrices), each backed by a small sorted top-k list so
  removing a client rarely needs a full member scan;
- per-server best completions ``best_in[s'] = max_s (d(s', s) + l_in[s])``
  and ``best_out[s'] = max_s (l_out[s] + d(s, s'))`` with their top-2
  contributors, so excluding one server's column costs O(1) per row.

With those caches a :meth:`batch_delta_D` call scores *all* |S|
candidate destinations of one client in a handful of O(|S|) vectorized
passes, :meth:`apply` commits a move with O(k) heap work, and
:meth:`undo` restores the previous state exactly. Top-k lists are
rebuilt lazily from the ground-truth assignment when removals drain
them.

A commit invalidates only the caches it made stale. The cached D and
the reductions are pure functions of ``(l_out, l_in)`` over the fixed
server matrix, so a commit that changes no server's ``l`` (a leaver
that was not its server's farthest member, a joiner that is not the new
farthest) keeps both. A commit whose only change is a rise at one
server drops the reductions and folds that server's row and column into
D in O(|S|). A lowered ``l`` invalidates both, and they are rebuilt
lazily — D in O(|S_used|^2) — on the next query.

The maxima the engine maintains are exact (maxima of the same floating
point numbers the from-scratch pass would inspect), so its cached D is
bit-identical to :func:`repro.core.metrics.max_interaction_path_length`
on the same assignment. Candidate scores can differ from a from-scratch
recomputation by a few ULPs because additions associate differently;
every consumer in the package compares with tolerances far above that.

The engine also supports *partial* assignments (``server_of[i] == -1``
means client ``i`` is currently unassigned) so constructive algorithms
(Greedy, Longest-First-Batch) and the online manager (joins/leaves) run
on the same substrate as the local-search family.

The hot loops — fused candidate scoring, the best-completion top-2
reduction, top-k selection for lazy rebuilds, and the O(|S|^2)
objective refresh — run in the :mod:`repro.kernels` numpy kernels,
which reproduce the historical inline engine byte for byte. Latency matrices may be
float32 (see :class:`~repro.net.latency.LatencyMatrix`): the big
``(C, S)``/``(S, C)`` views stay in the matrix dtype for cache density
while every S-sized accumulator remains float64, so float32 values —
exactly representable in float64 — never lose precision inside the
engine; only the matrix itself is rounded.
"""

from __future__ import annotations

import bisect
from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.assignment import Assignment
from repro.core.problem import ClientAssignmentProblem
from repro.errors import InvalidAssignmentError, InvalidParameterError
from repro.kernels import KernelSuite
from repro.obs.metrics import registry
from repro.types import IndexArrayLike

#: Clients retained per server and direction before lazy rebuilds kick in.
DEFAULT_TOP_K = 8

_UNASSIGNED = -1


# ----------------------------------------------------------------------
# Candidate-evaluation accounting
# ----------------------------------------------------------------------
class EvaluationCounter:
    """Counts candidate (client, server) objective evaluations."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


_COUNTER_STACK: List[EvaluationCounter] = []


@contextmanager
def count_evaluations() -> Iterator[EvaluationCounter]:
    """Context manager collecting candidate-evaluation counts.

    Every :class:`IncrementalObjective` delta query (and every algorithm
    that scores candidates without going through an engine, via
    :func:`record_candidate_evaluations`) adds to all active counters,
    so nesting works: an outer experiment harness sees the sum of its
    inner runs.
    """
    counter = EvaluationCounter()
    _COUNTER_STACK.append(counter)
    try:
        yield counter
    finally:
        _COUNTER_STACK.remove(counter)


def record_candidate_evaluations(n: int) -> None:
    """Credit ``n`` candidate evaluations to all active counters.

    Algorithms whose candidate scoring is a bespoke vectorized pass
    (e.g. Greedy's full (|S|, |C|) cost matrix) call this so
    :func:`~repro.algorithms.base.run_algorithm` still reports a faithful
    evaluation count.
    """
    for counter in _COUNTER_STACK:
        counter.count += n


class _TopList:
    """Sorted (descending) list of up to ``k`` (distance, client) pairs.

    Invariant: every member *not* in the list has distance <= ``bound``,
    the largest distance ever skipped, evicted or left out of a batch
    since the last rebuild.
    The head is therefore the true per-server maximum whenever
    ``head() >= bound``; when churn pushes the usable entries below the
    watermark the owner rebuilds the list from ground truth. (Tracking
    the watermark — rather than only handling the fully-drained case —
    matters because after a partial drain ``add`` may insert values
    *below* distances that were skipped while the list was full.)
    """

    __slots__ = ("k", "neg_dists", "clients", "bound")

    def __init__(self, k: int) -> None:
        self.k = k
        # Stored ascending by -distance so bisect keeps descending order.
        self.neg_dists: List[float] = []
        self.clients: List[int] = []
        #: Upper bound on the distance of any unlisted member.
        self.bound: float = -np.inf

    def head(self) -> float:
        return -self.neg_dists[0]

    def second(self) -> float:
        return -self.neg_dists[1]

    def __len__(self) -> int:
        return len(self.neg_dists)

    def add(self, dist: float, client: int) -> None:
        if len(self.neg_dists) >= self.k and -dist >= self.neg_dists[-1]:
            self.bound = max(self.bound, dist)
            return  # not among the retained top-k
        pos = bisect.bisect_left(self.neg_dists, -dist)
        self.neg_dists.insert(pos, -dist)
        self.clients.insert(pos, client)
        if len(self.neg_dists) > self.k:
            self.bound = max(self.bound, -self.neg_dists.pop())
            self.clients.pop()

    def discard(self, client: int) -> None:
        if client not in self.clients:
            return  # unlisted member: cannot have been the maximum
        pos = self.clients.index(client)
        self.neg_dists.pop(pos)
        self.clients.pop(pos)

    def rebuild(self, dists: np.ndarray, clients: np.ndarray) -> None:
        from repro.kernels.numpy_backend import topk_select

        order, bound = topk_select(dists, self.k)
        self.load(dists[order], clients[order], bound)

    def load(
        self, dists_desc: np.ndarray, clients: np.ndarray, bound: float
    ) -> None:
        """Adopt a ready-made top-k selection (descending distances)."""
        self.bound = float(bound)
        # Negation is exact in any float dtype, and tolist() converts
        # to Python floats and ints exactly.
        self.neg_dists = (-dists_desc).tolist()
        self.clients = clients.tolist()

    def snapshot(self) -> Tuple[List[float], List[int], float]:
        return list(self.neg_dists), list(self.clients), self.bound

    def restore(self, state: Tuple[List[float], List[int], float]) -> None:
        self.neg_dists, self.clients = list(state[0]), list(state[1])
        self.bound = state[2]


class _MoveContext:
    """Per-client cache of the quantities every destination shares.

    ``d_rest`` is ``None`` until a query that needs it asks for it.
    """

    __slots__ = ("client", "home", "d_rest", "paths")

    def __init__(
        self, client: int, home: int, d_rest: Optional[float], paths: np.ndarray
    ) -> None:
        self.client = client
        self.home = home
        self.d_rest = d_rest
        self.paths = paths


class IncrementalObjective:
    """Incrementally maintained maximum interaction path length.

    Parameters
    ----------
    problem:
        The instance. Capacities (when present) are consulted by
        :meth:`batch_delta_D`'s feasibility masking but never enforced on
        :meth:`apply` — algorithms own their feasibility logic, exactly
        as they did against the from-scratch metric.
    server_of:
        Initial assignment; length ``|C|`` with ``-1`` marking
        unassigned clients. ``None`` starts fully unassigned.
    k:
        Per-server, per-direction top-k retention (default
        ``DEFAULT_TOP_K``). Larger values trade memory for fewer lazy
        rebuilds under heavy churn.
    history:
        When True (default), :meth:`apply` / :meth:`assign` /
        :meth:`unassign` push undo records so :meth:`undo` can roll the
        state back. Long-running consumers (the online manager) disable
        it to bound memory.
    """

    def __init__(
        self,
        problem: ClientAssignmentProblem,
        server_of: Optional[IndexArrayLike] = None,
        *,
        k: int = DEFAULT_TOP_K,
        history: bool = True,
    ) -> None:
        if k < 2:
            raise InvalidParameterError(f"top-k retention must be >= 2, got {k}")
        self._problem = problem
        self._cs = problem.client_server  # (C, S), matrix dtype
        self._ss = problem.server_server  # (S, S), matrix dtype
        self._sc = problem.server_client  # (S, C), matrix dtype
        # The kernels accumulate in float64; the S x S view is tiny, so
        # a float64 shadow costs nothing even for float32 matrices (and
        # is free — no copy — for float64 ones).
        self._ss64 = np.asarray(self._ss, dtype=np.float64)
        # Client legs reach the kernels as float64: views of float64
        # matrices, exact S-sized upcasts of float32 ones (see _context).
        self._legs64 = self._cs.dtype == self._sc.dtype == np.float64
        self._kernels = KernelSuite()
        self._k = int(k)
        self._history = bool(history)
        n_clients, n_servers = problem.n_clients, problem.n_servers
        self._n_clients, self._n_servers = n_clients, n_servers

        if server_of is None:
            arr = np.full(n_clients, _UNASSIGNED, dtype=np.int64)
        else:
            arr = np.asarray(server_of, dtype=np.int64).copy()
            if arr.shape != (n_clients,):
                raise InvalidAssignmentError(
                    f"server_of must have length |C|={n_clients}, "
                    f"got shape {arr.shape}"
                )
            if arr.size and (arr.min() < _UNASSIGNED or arr.max() >= n_servers):
                raise InvalidAssignmentError(
                    f"server_of entries must be -1 or in [0, {n_servers})"
                )
        self._server_of = arr
        assigned = arr >= 0
        self._n_assigned = int(assigned.sum())
        self._loads = np.bincount(arr[assigned], minlength=n_servers).astype(
            np.int64
        )
        # Weighted (coreset super-client) instances keep a second load
        # array holding total weight per server; it feeds only the
        # capacity masking in batch_delta_D. The member-*count* loads
        # above stay authoritative for membership logic (`_l_excluding`,
        # `_detach`), so unweighted instances are entirely unaffected.
        self._weights = problem.client_weights
        self._wloads: Optional[np.ndarray] = (
            None
            if self._weights is None
            else self._kernels.weighted_loads(arr, self._weights, n_servers)
        )

        self._top_out: List[_TopList] = [_TopList(self._k) for _ in range(n_servers)]
        self._top_in: List[_TopList] = [_TopList(self._k) for _ in range(n_servers)]
        self._l_out = np.full(n_servers, -np.inf)
        self._l_in = np.full(n_servers, -np.inf)
        for s in np.flatnonzero(self._loads > 0).tolist():
            self._rebuild_server(s)

        # Lazily (re)built caches.
        self._d: Optional[float] = None
        self._reductions: Optional[Tuple[np.ndarray, ...]] = None
        self._ctx: Optional[_MoveContext] = None
        self._undo_stack: List[tuple] = []
        self._n_evaluations = 0

        # Telemetry: instruments are fetched once per engine so the hot
        # paths pay a single attribute-add each; fetched at construction
        # time (not import time) so a swapped registry is honored.
        metrics = registry()
        metrics.counter("engine.builds").inc()
        self._m_apply = metrics.counter("engine.apply")
        self._m_undo = metrics.counter("engine.undo")
        self._m_assign_many = metrics.counter("engine.assign_many")
        self._m_unassign = metrics.counter("engine.unassign")
        self._m_batch_sizes = metrics.histogram("engine.candidate_batch_size")

    # ------------------------------------------------------------------
    # Read-only state
    # ------------------------------------------------------------------
    @property
    def problem(self) -> ClientAssignmentProblem:
        """The problem instance."""
        return self._problem

    @property
    def server_of(self) -> np.ndarray:
        """Current mapping (length ``|C|``, ``-1`` = unassigned). Copy."""
        return self._server_of.copy()

    @property
    def loads(self) -> np.ndarray:
        """Per-server assigned-client counts. Copy."""
        return self._loads.copy()

    @property
    def weighted_loads(self) -> np.ndarray:
        """Per-server total assigned client weight. Copy.

        Equals :attr:`loads` for unweighted problems.
        """
        if self._wloads is None:
            return self._loads.copy()
        return self._wloads.copy()

    @property
    def n_assigned(self) -> int:
        """Number of currently assigned clients."""
        return self._n_assigned

    @property
    def n_evaluations(self) -> int:
        """Candidate (client, server) evaluations served by this engine."""
        return self._n_evaluations

    def l_vectors(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(l_out, l_in)`` per-server farthest-client legs (copies).

        Unused servers hold ``-inf``, matching
        :func:`repro.core.metrics._directional_farthest`.
        """
        return self._l_out.copy(), self._l_in.copy()

    def assignment(self, *, validate: bool = True) -> Assignment:
        """Freeze the current (complete) state into an Assignment.

        Raises :class:`~repro.errors.InvalidAssignmentError` when any
        client is still unassigned.
        """
        if self._n_assigned != self._problem.n_clients:
            raise InvalidAssignmentError(
                f"{self._problem.n_clients - self._n_assigned} client(s) "
                f"still unassigned"
            )
        return Assignment(self._problem, self._server_of, validate=validate)

    # ------------------------------------------------------------------
    # Top-k list maintenance
    # ------------------------------------------------------------------
    def _members(self, server: int) -> np.ndarray:
        return np.flatnonzero(self._server_of == server)

    def _rebuild_server(self, server: int) -> None:
        members = self._members(server)
        if members.size == 0:
            self._top_out[server] = _TopList(self._k)
            self._top_in[server] = _TopList(self._k)
            self._l_out[server] = -np.inf
            self._l_in[server] = -np.inf
            return
        out = self._cs[members, server]
        inn = self._sc[server, members]
        order, bound = self._kernels.topk_select(out, self._k)
        self._top_out[server].load(out[order], members[order], bound)
        order, bound = self._kernels.topk_select(inn, self._k)
        self._top_in[server].load(inn[order], members[order], bound)
        self._l_out[server] = self._top_out[server].head()
        self._l_in[server] = self._top_in[server].head()

    def _ensure_head(self, server: int) -> None:
        """Rebuild a server whose top-k heads are no longer trustworthy.

        A head below the eviction watermark means some unlisted member
        may exceed every listed one; rebuild from ground truth.
        """
        if self._loads[server] <= 0:
            return
        for top in (self._top_out[server], self._top_in[server]):
            if not top.neg_dists or -top.neg_dists[0] < top.bound:
                self._rebuild_server(server)
                return

    def _l_excluding(self, server: int, client: int) -> Tuple[float, float]:
        """``(l_out, l_in)`` of ``server`` with ``client`` removed."""
        if self._loads[server] <= 1:
            # client is (at most) the only member.
            return -np.inf, -np.inf
        self._ensure_head(server)
        values = []
        for top, dists in (
            (self._top_out[server], self._cs[:, server]),
            (self._top_in[server], self._sc[server, :]),
        ):
            if top.clients[0] != client:
                values.append(top.head())
            elif len(top) >= 2 and top.second() >= top.bound:
                values.append(top.second())
            else:
                # The list held only the departing maximum: scan the
                # remaining members (rare; amortized by the k retention).
                members = self._members(server)
                members = members[members != client]
                values.append(float(dists[members].max()))
        return values[0], values[1]

    # ------------------------------------------------------------------
    # Cached server-level reductions
    # ------------------------------------------------------------------
    def _server_reduction_cache(self) -> Tuple[np.ndarray, ...]:
        """Top-2 contributions of ``best_in`` / ``best_out`` per server.

        ``best_in[s'] = max_s d(s', s) + l_in[s]`` (the best completion
        of an outgoing path arriving at ``s'``'s candidate client) and
        ``best_out[s'] = max_s l_out[s] + d(s, s')``; retaining the top-2
        terms with their argmax lets a delta query exclude one server's
        contribution in O(1) per row.
        """
        if self._reductions is None:
            n_servers = self._n_servers
            if self._n_assigned == 0:
                neg = np.full(n_servers, -np.inf)
                none = np.full(n_servers, -1, dtype=np.int64)
                self._reductions = (neg, neg, none, neg, neg, none)
                return self._reductions
            self._reductions = self._kernels.reduction_top2(
                self._ss64, self._l_in, self._l_out
            )
        return self._reductions

    def server_reductions(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(best_in, best_out)`` completions over the full assignment.

        ``best_in[s']`` is the longest continuation ``d(s', s) + l_in(s)``
        of a path leaving a client at ``s'``; ``best_out[s']`` the longest
        prefix ``l_out(s) + d(s, s')`` of a path arriving at ``s'``.
        Greedy's ``m`` terms (Fig. 6, line 11) are exactly these. Copies.
        """
        cache = self._server_reduction_cache()
        return cache[0].copy(), cache[3].copy()

    # ------------------------------------------------------------------
    # Objective queries
    # ------------------------------------------------------------------
    def d(self) -> float:
        """Current maximum interaction path length (0.0 when empty).

        Served from cache; recomputed in O(|S_used|^2) from the cached
        ``l`` vectors after a commit that lowered some ``l``, with the
        same reduction (and the same floating point evaluation order) as
        :func:`repro.core.metrics.max_interaction_path_length`. Commits
        that change no ``l`` keep it, and a rise folds into it in O(|S|).
        When the reductions are fresh, D is ``max(best_out + l_in)`` in
        O(|S|): ``best_out[s']`` is the largest ``l_out[s] + d(s, s')``
        and rounded addition is monotone, so adding ``l_in[s']`` to it
        gives the largest ``(l_out[s] + d(s, s')) + l_in[s']`` bit for
        bit, the association ``objective_refresh`` uses.
        """
        if self._n_assigned == 0:
            return 0.0
        if self._d is None:
            if self._reductions is not None:
                self._d = float((self._reductions[3] + self._l_in).max())
            else:
                self._d = float(
                    self._kernels.objective_refresh(
                        self._l_out, self._l_in, self._ss64
                    )
                )
        return self._d

    def longest_path_clients(self) -> np.ndarray:
        """Assigned clients on some longest interaction path, ascending.

        Distributed-Greedy's candidates (§IV-D step 2): the client ``c``
        at server ``s`` qualifies when ``d(c, s) + best_in[s]`` or
        ``best_out[s] + d(s, c)`` reaches ``D - 1e-9`` — the sums, the
        tolerance and the order of
        :func:`~repro.core.metrics.clients_on_longest_paths`. Rounded
        addition is monotone, so only servers whose own
        ``l_out[s] + best_in[s]`` or ``best_out[s] + l_in[s]`` reaches the
        threshold hold candidates, and there the qualifying listed
        members of each direction are a prefix of its descending top-k
        list. Unlisted members are bounded by the list's watermark; only
        when that reaches the threshold too are the server's members
        scanned. The reductions are built before D, so D is served from
        them.
        """
        reductions = self._server_reduction_cache()
        threshold = self.d() - 1e-9
        best_in, best_out = reductions[0], reductions[3]
        hot = (self._l_out + best_in >= threshold) | (
            best_out + self._l_in >= threshold
        )
        found: List[int] = []
        scanned: List[np.ndarray] = []
        for s in np.flatnonzero(hot).tolist():
            for top, b, outgoing in (
                (self._top_out[s], float(best_in[s]), True),
                (self._top_in[s], float(best_out[s]), False),
            ):
                if top.head() + b < threshold:
                    continue
                if self._loads[s] > len(top) and top.bound + b >= threshold:
                    # An unlisted member may qualify: scan them all.
                    members = self._members(s)
                    legs = self._cs[members, s] if outgoing else self._sc[s, members]
                    scanned.append(members[legs.astype(np.float64) + b >= threshold])
                    continue
                for neg_dist, client in zip(top.neg_dists, top.clients):
                    if -neg_dist + b < threshold:
                        break
                    found.append(client)
        if not scanned:
            return np.array(sorted(set(found)), dtype=np.int64)
        scanned.append(np.asarray(found, dtype=np.int64))
        return np.unique(np.concatenate(scanned))

    def _context(self, client: int, with_rest: bool) -> _MoveContext:
        """The per-client quantities shared by every destination.

        ``with_rest`` asks for ``d_rest`` too; a cached context that
        lacks it is rebuilt.
        """
        ctx = self._ctx
        if (
            ctx is not None
            and ctx.client == client
            and (ctx.d_rest is not None or not with_rest)
        ):
            return ctx
        home = self._server_of.item(client)
        reductions = self._reductions
        if reductions is None:
            reductions = self._server_reduction_cache()
        if home >= 0:
            l_out_home, l_in_home = self._l_excluding(home, client)
        else:
            l_out_home = l_in_home = -np.inf
        out_leg = self._cs[client]
        in_leg = self._sc[:, client]
        if not self._legs64:
            out_leg = out_leg.astype(np.float64)
            in_leg = in_leg.astype(np.float64)
        # Fused kernel: home-server exclusion via the top-2 reductions
        # (O(1) per row), d_rest when asked for, and the candidate path
        # length through the client at each destination — its outgoing
        # leg + the best continuation, the best prefix + its incoming
        # leg, and its own round trip (the self-pair).
        paths, d_rest = self._kernels.move_context(
            self._ss64,
            self._l_out,
            self._l_in,
            *reductions,
            out_leg,
            in_leg,
            home,
            l_out_home,
            l_in_home,
            self._n_assigned > 0,
            with_rest,
        )
        ctx = _MoveContext(client, home, float(d_rest) if with_rest else None, paths)
        self._ctx = ctx
        return ctx

    def candidate_paths(self, client: int) -> np.ndarray:
        """``L`` for relocating ``client`` anywhere.

        ``L[s']`` is the longest interaction path *through the client* if
        it were (re)assigned to ``s'`` — Distributed-Greedy's reply
        ``L(s')`` (§IV-D step 2). The post-move objectives
        ``max(d_rest, L[s'])``, with ``d_rest`` the objective of the
        assignment without the client, come from :meth:`batch_delta_D`.
        O(|S|) on warm caches.
        """
        ctx = self._context(client, False)
        n = self._n_servers
        self._n_evaluations += n
        record_candidate_evaluations(n)
        self._m_batch_sizes.observe(n)
        return ctx.paths.copy()

    def delta_D(self, client: int, new_server: int) -> float:
        """The objective after moving ``client`` to ``new_server``.

        Exact (up to floating point association) — not a bound. O(|S|)
        on warm caches, O(|S|^2) when a commit changed some ``l`` and so
        invalidated the reductions; scoring several destinations of one
        client amortizes to O(1) each via the shared per-client context.
        """
        ctx = self._context(client, True)
        self._n_evaluations += 1
        record_candidate_evaluations(1)
        return max(ctx.d_rest, float(ctx.paths[new_server]))

    def batch_delta_D(
        self,
        client: int,
        candidate_servers: Optional[IndexArrayLike] = None,
        *,
        respect_capacities: bool = True,
    ) -> np.ndarray:
        """Post-move objectives for every candidate destination at once.

        Returns ``out[j] = D after moving client to candidate j``
        (``candidate_servers=None`` scores all |S| destinations, in
        server order). With ``respect_capacities`` (default) saturated
        servers of a capacitated problem score ``inf`` — except the
        client's current server, which is always feasible.
        """
        ctx = self._context(client, True)
        paths = ctx.paths
        if candidate_servers is None:
            cand = None
            scores = np.maximum(paths, ctx.d_rest)
        else:
            cand = np.asarray(candidate_servers, dtype=np.int64)
            scores = np.maximum(paths[cand], ctx.d_rest)
        n = int(scores.size)
        self._n_evaluations += n
        record_candidate_evaluations(n)
        self._m_batch_sizes.observe(n)
        if respect_capacities and self._problem.is_capacitated:
            capacities = self._problem.capacities
            if self._weights is None:
                saturated = self._loads >= capacities
            else:
                # A weight-w client fits where the weighted load plus w
                # stays within capacity (its own home never counts: the
                # mask below forces the home feasible, and w is already
                # included in the home's weighted load anyway).
                saturated = (
                    self._wloads + self._weights[client] > capacities
                )
            if ctx.home >= 0:
                saturated[ctx.home] = False
            mask = saturated if cand is None else saturated[cand]
            scores = np.where(mask, np.inf, scores)
        return scores

    # ------------------------------------------------------------------
    # Commits
    # ------------------------------------------------------------------
    def _touch(self) -> None:
        self._d = None
        self._reductions = None
        self._ctx = None

    def _settle(self, raised: Optional[int], rebuild: bool) -> None:
        """Invalidate exactly the caches a commit made stale.

        ``raised`` is the server whose ``l`` rose (``None`` when none
        did); ``rebuild`` drops both caches, for a commit that lowered
        some ``l`` or was the first assignment. A rise leaves every old
        term of D in place and can only grow the terms through that
        server (IEEE addition is monotone), so folding its row and
        column into the cached D gives the from-scratch maximum bit for
        bit; each term keeps ``objective_refresh``'s
        ``(l_out + d) + l_in`` association, and unused servers
        contribute ``-inf``.
        """
        if rebuild:
            self._touch()
            return
        self._ctx = None
        if raised is None:
            return
        self._reductions = None
        if self._d is not None:
            l_out, l_in, ss = self._l_out, self._l_in, self._ss64
            row = (l_out[raised] + ss[raised, :]) + l_in
            col = (l_out + ss[:, raised]) + l_in[raised]
            self._d = max(self._d, float(row.max()), float(col.max()))

    def _push_undo(self, client: int, old_server: int, new_server: int) -> None:
        record = (client, old_server, new_server, self._d)
        snapshots = []
        for s in (old_server, new_server):
            if s >= 0:
                snapshots.append(
                    (
                        s,
                        self._top_out[s].snapshot(),
                        self._top_in[s].snapshot(),
                        float(self._l_out[s]),
                        float(self._l_in[s]),
                    )
                )
        self._undo_stack.append((record, snapshots))

    def _detach(self, client: int, server: int) -> bool:
        """Remove a member; returns whether the server's ``l`` fell."""
        l_out, l_in = self._l_out, self._l_in
        old_out, old_in = l_out.item(server), l_in.item(server)
        self._top_out[server].discard(client)
        self._top_in[server].discard(client)
        self._loads[server] -= 1
        if self._wloads is not None:
            self._wloads[server] -= self._weights[client]
        if self._loads[server] == 0:
            new_out = new_in = -np.inf
        else:
            self._ensure_head(server)
            new_out = -self._top_out[server].neg_dists[0]
            new_in = -self._top_in[server].neg_dists[0]
        l_out[server] = new_out
        l_in[server] = new_in
        return new_out != old_out or new_in != old_in

    def _attach(self, client: int, server: int) -> bool:
        """Add a member; returns whether the server's ``l`` rose."""
        out = self._cs.item(client, server)
        inn = self._sc.item(server, client)
        l_out, l_in = self._l_out.item(server), self._l_in.item(server)
        self._top_out[server].add(out, client)
        self._top_in[server].add(inn, client)
        self._loads[server] += 1
        if self._wloads is not None:
            self._wloads[server] += self._weights[client]
        if out > l_out:
            self._l_out[server] = out
        if inn > l_in:
            self._l_in[server] = inn
        return out > l_out or inn > l_in

    def apply(self, client: int, new_server: int) -> None:
        """Commit ``client -> new_server`` (assigning if unassigned).

        O(k) list maintenance. The cached objective and reductions
        survive when no server's ``l`` changed; a rise at the
        destination updates D in O(|S|) and drops the reductions; a
        lowered ``l`` at the origin drops both, to be rebuilt lazily on
        the next query.
        """
        if not 0 <= new_server < self._n_servers:
            raise InvalidAssignmentError(
                f"server index {new_server} out of range "
                f"[0, {self._n_servers})"
            )
        if not 0 <= client < self._n_clients:
            raise InvalidAssignmentError(
                f"client index {client} out of range "
                f"[0, {self._n_clients})"
            )
        old_server = self._server_of.item(client)
        if self._history:
            self._push_undo(client, old_server, new_server)
        if old_server == new_server:
            return  # no-op move; the undo record keeps apply/undo paired
        # Update the mapping *before* detaching: a lazy rebuild inside
        # _detach derives membership from server_of and must not see the
        # departing client.
        self._server_of[client] = new_server
        first = self._n_assigned == 0
        lowered = False
        if old_server >= 0:
            lowered = self._detach(client, old_server)
        else:
            self._n_assigned += 1
        raised = self._attach(client, new_server)
        self._m_apply.inc()
        self._settle(new_server if raised else None, lowered or first)

    def assign(self, client: int, server: int) -> None:
        """Alias of :meth:`apply` for initially-unassigned clients."""
        self.apply(client, server)

    def assign_many(self, clients: IndexArrayLike, server: int) -> None:
        """Commit a batch of clients onto one server (one undo record).

        The Longest-First-Batch closure and Greedy's batch selection
        assign whole groups at once; batching the commit keeps the list
        maintenance a single merge instead of ``len(clients)`` inserts.
        """
        batch = np.asarray(clients, dtype=np.int64)
        if batch.size == 0:
            return
        if not 0 <= server < self._n_servers:
            raise InvalidAssignmentError(
                f"server index {server} out of range "
                f"[0, {self._n_servers})"
            )
        homes = self._server_of[batch]
        if np.any(homes >= 0):
            raise InvalidAssignmentError(
                "assign_many only accepts currently-unassigned clients"
            )
        if self._history:
            self._undo_stack.append(
                (
                    ("batch", batch.copy(), server, self._d),
                    [
                        (
                            server,
                            self._top_out[server].snapshot(),
                            self._top_in[server].snapshot(),
                            float(self._l_out[server]),
                            float(self._l_in[server]),
                        )
                    ],
                )
            )
        first = self._n_assigned == 0
        self._server_of[batch] = server
        self._loads[server] += batch.size
        if self._wloads is not None:
            self._wloads[server] += int(self._weights[batch].sum())
        self._n_assigned += int(batch.size)
        out = self._cs[batch, server]
        inn = self._sc[server, batch]
        # Merge the batch into the retained top-k lists. Members left out
        # of a list raise its watermark, as an eviction would.
        top_out, top_in = self._top_out[server], self._top_in[server]
        if batch.size > self._k:
            for top, dists in ((top_out, out), (top_in, inn)):
                part = np.argpartition(-dists, self._k - 1)
                for i in part[: self._k]:
                    top.add(float(dists[i]), int(batch[i]))
                top.bound = max(top.bound, float(dists[part[self._k :]].max()))
        else:
            for i in range(batch.size):
                top_out.add(float(out[i]), int(batch[i]))
                top_in.add(float(inn[i]), int(batch[i]))
        out_max, inn_max = float(out.max()), float(inn.max())
        raised = bool(
            out_max > self._l_out[server] or inn_max > self._l_in[server]
        )
        self._l_out[server] = max(self._l_out[server], out_max)
        self._l_in[server] = max(self._l_in[server], inn_max)
        self._m_assign_many.inc()
        self._settle(server if raised else None, first)

    def unassign(self, client: int) -> None:
        """Remove ``client`` from the assignment (online ``leave``)."""
        if not 0 <= client < self._n_clients:
            raise InvalidAssignmentError(
                f"client index {client} out of range "
                f"[0, {self._n_clients})"
            )
        server = self._server_of.item(client)
        if server < 0:
            raise InvalidAssignmentError(f"client {client} is not assigned")
        if self._history:
            self._push_undo(client, server, _UNASSIGNED)
        # Mapping first, for the same reason as in apply(): rebuilds
        # inside _detach read membership from server_of.
        self._server_of[client] = _UNASSIGNED
        lowered = self._detach(client, server)
        self._n_assigned -= 1
        self._m_unassign.inc()
        self._settle(None, lowered)

    def undo(self) -> None:
        """Revert the most recent commit exactly.

        Raises :class:`~repro.errors.InvalidParameterError` when there is
        nothing to undo (or history tracking is disabled).
        """
        if not self._undo_stack:
            raise InvalidParameterError("nothing to undo")
        record, snapshots = self._undo_stack.pop()
        if record[0] == "batch":
            _, batch, server, old_d = record
            self._server_of[batch] = _UNASSIGNED
            self._loads[server] -= batch.size
            if self._wloads is not None:
                self._wloads[server] -= int(self._weights[batch].sum())
            self._n_assigned -= int(batch.size)
        else:
            client, old_server, new_server, old_d = record
            weight = 0 if self._weights is None else int(self._weights[client])
            if new_server >= 0:
                self._loads[new_server] -= 1
                if self._wloads is not None:
                    self._wloads[new_server] -= weight
            else:
                self._n_assigned += 1
            if old_server >= 0:
                self._loads[old_server] += 1
                if self._wloads is not None:
                    self._wloads[old_server] += weight
            else:
                self._n_assigned -= 1
            self._server_of[client] = old_server
        for server, out_state, in_state, l_out, l_in in snapshots:
            self._top_out[server].restore(out_state)
            self._top_in[server].restore(in_state)
            self._l_out[server] = l_out
            self._l_in[server] = l_in
        self._m_undo.inc()
        self._touch()
        self._d = old_d

    # ------------------------------------------------------------------
    def verify(self, *, rtol: float = 1e-9) -> bool:
        """Check the cached state against a from-scratch recomputation."""
        server_of = self._server_of
        assigned = server_of >= 0
        loads = np.bincount(
            server_of[assigned], minlength=self._problem.n_servers
        )
        if not np.array_equal(loads, self._loads):
            return False
        if self._wloads is not None:
            from repro.kernels.numpy_backend import weighted_loads

            expected = weighted_loads(
                server_of, self._weights, self._problem.n_servers
            )
            if not np.array_equal(expected, self._wloads):
                return False
        idx = np.flatnonzero(assigned)
        l_out = np.full(self._problem.n_servers, -np.inf)
        l_in = np.full(self._problem.n_servers, -np.inf)
        if idx.size:
            np.maximum.at(l_out, server_of[idx], self._cs[idx, server_of[idx]])
            np.maximum.at(l_in, server_of[idx], self._sc[server_of[idx], idx])
        if not (
            np.allclose(l_out, self._l_out, rtol=rtol, equal_nan=True)
            and np.allclose(l_in, self._l_in, rtol=rtol, equal_nan=True)
        ):
            return False
        if idx.size == 0:
            return self.d() == 0.0
        used = np.flatnonzero(np.isfinite(l_out))
        ss = self._ss[np.ix_(used, used)]
        exact = float(
            (l_out[used][:, None] + ss + l_in[used][None, :]).max()
        )
        return bool(np.isclose(exact, self.d(), rtol=rtol))

    def __repr__(self) -> str:
        return (
            f"IncrementalObjective({self._n_assigned}/"
            f"{self._problem.n_clients} clients assigned, "
            f"k={self._k}, D={self.d():.3f})"
        )
