"""Client-to-server assignments (the decision variable ``s_A``).

An :class:`Assignment` maps each client (local index) to a server (local
index) for a given :class:`~repro.core.problem.ClientAssignmentProblem`.
It validates against the problem (range checks, capacity checks) and
provides the derived quantities the paper's analysis is built on —
per-server farthest-client distances ``l(s)``, server load counts, and
the set of servers actually used.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.errors import InvalidAssignmentError
from repro.core.problem import ClientAssignmentProblem
from repro.types import IndexArrayLike


class Assignment:
    """An immutable mapping from clients to servers (local indices).

    Parameters
    ----------
    problem:
        The problem instance this assignment answers.
    server_of:
        Length-``|C|`` integer array; ``server_of[i]`` is the local index
        of the server client ``i`` is assigned to.
    validate:
        Check ranges and (when the problem is capacitated) capacities.
    """

    __slots__ = ("_problem", "_server_of")

    def __init__(
        self,
        problem: ClientAssignmentProblem,
        server_of: IndexArrayLike,
        *,
        validate: bool = True,
    ) -> None:
        arr = np.asarray(server_of, dtype=np.int64).copy()
        if validate:
            if arr.shape != (problem.n_clients,):
                raise InvalidAssignmentError(
                    f"assignment must map all {problem.n_clients} clients, "
                    f"got shape {arr.shape}"
                )
            if arr.size and (arr.min() < 0 or arr.max() >= problem.n_servers):
                raise InvalidAssignmentError(
                    f"assignment refers to servers outside [0, {problem.n_servers})"
                )
            if problem.is_capacitated:
                loads = self._capacity_loads(problem, arr)
                over = np.flatnonzero(loads > problem.capacities)
                if over.size:
                    details = ", ".join(
                        f"server {int(s)}: load {int(loads[s])} > capacity "
                        f"{int(problem.capacities[s])}"
                        for s in over[:5]
                    )
                    raise InvalidAssignmentError(
                        f"capacity violated at {over.size} server(s): {details}"
                    )
        arr.setflags(write=False)
        object.__setattr__(self, "_problem", problem)
        object.__setattr__(self, "_server_of", arr)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Assignment is immutable")

    @staticmethod
    def _capacity_loads(
        problem: ClientAssignmentProblem, arr: np.ndarray
    ) -> np.ndarray:
        """The load each server's capacity is charged for.

        Client counts on plain instances; total client weight on
        weighted (coreset super-client) instances.
        """
        if problem.client_weights is None:
            return np.bincount(arr, minlength=problem.n_servers)
        return np.bincount(
            arr,
            weights=problem.client_weights,
            minlength=problem.n_servers,
        ).astype(np.int64)

    # ------------------------------------------------------------------
    @property
    def problem(self) -> ClientAssignmentProblem:
        """The problem instance."""
        return self._problem

    @property
    def server_of(self) -> np.ndarray:
        """Length-``|C|`` array of local server indices (read-only)."""
        return self._server_of

    def server_of_client(self, client: int) -> int:
        """Local server index for one client (local index)."""
        return int(self._server_of[client])

    def global_server_of(self) -> np.ndarray:
        """Length-``|C|`` array of *global node ids* of assigned servers."""
        return self._problem.servers[self._server_of]

    def as_mapping(self) -> Dict[int, int]:
        """``{global client node id: global server node id}``."""
        servers = self.global_server_of()
        return {
            int(c): int(s) for c, s in zip(self._problem.clients, servers)
        }

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def loads(self) -> np.ndarray:
        """Number of clients assigned to each server (length ``|S|``)."""
        return np.bincount(self._server_of, minlength=self._problem.n_servers)

    def used_servers(self) -> np.ndarray:
        """Local indices of servers with at least one client."""
        return np.flatnonzero(self.loads() > 0)

    def farthest_client_distance(self) -> np.ndarray:
        """Per-server ``l(s) = max_{c: s_A(c)=s} d(c, s)``.

        Servers with no clients get ``-inf`` so they never dominate a
        max; this matches how ``l(s)`` enters the paper's D computation
        ``D = max_{s1, s2 used} l(s1) + d(s1, s2) + l(s2)``.
        """
        cs = self._problem.client_server
        n_servers = self._problem.n_servers
        dists = cs[np.arange(self._problem.n_clients), self._server_of]
        out = np.full(n_servers, -np.inf)
        np.maximum.at(out, self._server_of, dists)
        return out

    def client_distances(self) -> np.ndarray:
        """Per-client distance to its assigned server (length ``|C|``)."""
        cs = self._problem.client_server
        return cs[np.arange(self._problem.n_clients), self._server_of]

    def respects_capacities(self) -> bool:
        """Whether loads are within the problem's capacities (vacuously
        true for uncapacitated problems)."""
        if not self._problem.is_capacitated:
            return True
        return bool(
            np.all(
                self._capacity_loads(self._problem, self._server_of)
                <= self._problem.capacities
            )
        )

    # ------------------------------------------------------------------
    def replace(self, client: int, server: int) -> "Assignment":
        """A copy with one client moved to a different server."""
        arr = self._server_of.copy()
        arr[client] = server
        return Assignment(self._problem, arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Assignment):
            return NotImplemented
        return self._problem is other._problem and bool(
            np.array_equal(self._server_of, other._server_of)
        )

    def __hash__(self) -> int:
        return hash((id(self._problem), self._server_of.tobytes()))

    def __repr__(self) -> str:
        used = self.used_servers().size
        return (
            f"Assignment({self._problem.n_clients} clients over "
            f"{used}/{self._problem.n_servers} servers)"
        )
