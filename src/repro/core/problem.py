"""The client assignment problem instance (paper Definition 1).

A :class:`ClientAssignmentProblem` bundles everything Definition 1
needs: the all-pairs distance function (any
:class:`~repro.net.provider.LatencyProvider` — the dense
:class:`~repro.net.latency.LatencyMatrix` or an on-demand
:class:`~repro.net.provider.CoordinateProvider`), the server set ``S``,
the client set ``C``, and — for §IV-E — optional per-server capacities.

For efficiency the instance precomputes the two distance views every
algorithm uses:

- ``client_server`` — shape ``(|C|, |S|)``, entry ``[i, j] = d(c_i, s_j)``
  (client-to-server direction);
- ``server_server`` — shape ``(|S|, |S|)``, entry ``[j, j'] = d(s_j, s_j')``.

The reverse-direction ``server_client`` view (``(|S|, |C|)``, entry
``[j, i] = d(s_j, c_i)``) is built lazily on first access — only the
incremental engine and the exact metrics need it.

Clients may carry positive integer **weights** (the coreset layer of
:mod:`repro.scale` collapses many real clients into one weighted
super-client): weights never change the objective D (a maximum, not a
sum) but a weight-``w`` client consumes ``w`` capacity slots, both in
the total-capacity feasibility check here and in the engine's
saturation masking.

Algorithms and metrics work in *local* index space (client index
``0..|C|-1``, server index ``0..|S|-1``); conversion to global node ids
is available via :attr:`clients` / :attr:`servers`.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.errors import CapacityError, InvalidProblemError
from repro.net.provider import LatencyProvider
from repro.types import IndexArrayLike, as_index_array


class ClientAssignmentProblem:
    """An instance of the client assignment problem.

    Parameters
    ----------
    matrix:
        Latency source over the node set ``V`` — a dense
        :class:`~repro.net.latency.LatencyMatrix` or any other
        :class:`~repro.net.provider.LatencyProvider`.
    servers:
        Distinct node indices forming ``S``.
    clients:
        Distinct node indices forming ``C``. Defaults to *all* nodes
        (the paper's setup: "a client is located at each node").
    capacities:
        Optional per-server client capacity: a scalar (uniform capacity)
        or a length-``|S|`` sequence. ``None`` means uncapacitated.
    client_weights:
        Optional positive integer weight per client (length ``|C|``).
        ``None`` (the default) means unit weights. A weight-``w`` client
        occupies ``w`` capacity slots; the objective is unaffected.

    Raises
    ------
    InvalidProblemError
        On malformed inputs.
    CapacityError
        When total capacity is below the total client weight.
    """

    def __init__(
        self,
        matrix: LatencyProvider,
        servers: IndexArrayLike,
        clients: Optional[IndexArrayLike] = None,
        *,
        capacities: Union[None, int, Sequence[int]] = None,
        client_weights: Optional[Sequence[int]] = None,
    ) -> None:
        self._matrix = matrix
        self._servers = as_index_array(servers, "servers")
        if self._servers.size == 0:
            raise InvalidProblemError("the server set S must be non-empty")
        if np.unique(self._servers).size != self._servers.size:
            raise InvalidProblemError("servers must be distinct")
        if clients is None:
            self._clients = np.arange(matrix.n_nodes, dtype=np.int64)
        else:
            self._clients = as_index_array(clients, "clients")
        if self._clients.size == 0:
            raise InvalidProblemError("the client set C must be non-empty")
        if np.unique(self._clients).size != self._clients.size:
            raise InvalidProblemError("clients must be distinct")
        n = matrix.n_nodes
        for name, arr in (("servers", self._servers), ("clients", self._clients)):
            if arr.min() < 0 or arr.max() >= n:
                raise InvalidProblemError(
                    f"{name} contain indices outside [0, {n})"
                )
        self._servers.setflags(write=False)
        self._clients.setflags(write=False)

        self._client_weights = self._normalize_weights(client_weights)
        self._capacities = self._normalize_capacities(capacities)

        # Precomputed distance views (read-only).
        self._cs = matrix.client_server_distances(self._clients, self._servers).copy()
        self._ss = matrix.server_server_distances(self._servers).copy()
        self._cs.setflags(write=False)
        self._ss.setflags(write=False)
        # Reverse-direction view, built lazily by `server_client`.
        self._sc: Optional[np.ndarray] = None

    def _normalize_weights(
        self, client_weights: Optional[Sequence[int]]
    ) -> Optional[np.ndarray]:
        if client_weights is None:
            return None
        weights = np.asarray(client_weights, dtype=np.int64).copy()
        if weights.shape != (self.n_clients,):
            raise InvalidProblemError(
                f"client_weights must have length |C|={self.n_clients}, "
                f"got shape {weights.shape}"
            )
        if np.any(weights < 1):
            raise InvalidProblemError("client weights must be >= 1")
        weights.setflags(write=False)
        return weights

    def _normalize_capacities(
        self, capacities: Union[None, int, Sequence[int]]
    ) -> Optional[np.ndarray]:
        if capacities is None:
            return None
        if np.isscalar(capacities):
            cap = np.full(self.n_servers, int(capacities), dtype=np.int64)
        else:
            cap = np.asarray(capacities, dtype=np.int64).copy()
            if cap.shape != (self.n_servers,):
                raise InvalidProblemError(
                    f"capacities must have length |S|={self.n_servers}, "
                    f"got shape {cap.shape}"
                )
        if np.any(cap < 0):
            raise InvalidProblemError("capacities must be nonnegative")
        total_demand = self.total_client_weight
        if cap.sum() < total_demand:
            raise CapacityError(
                f"total capacity {int(cap.sum())} is below the total "
                f"client demand {total_demand}"
            )
        cap.setflags(write=False)
        return cap

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def matrix(self) -> LatencyProvider:
        """The underlying latency provider (dense matrix or synthetic)."""
        return self._matrix

    @property
    def servers(self) -> np.ndarray:
        """Global node ids of the servers (read-only, length ``|S|``)."""
        return self._servers

    @property
    def clients(self) -> np.ndarray:
        """Global node ids of the clients (read-only, length ``|C|``)."""
        return self._clients

    @property
    def n_servers(self) -> int:
        """``|S|``."""
        return int(self._servers.size)

    @property
    def n_clients(self) -> int:
        """``|C|``."""
        return int(self._clients.size)

    @property
    def capacities(self) -> Optional[np.ndarray]:
        """Per-server capacities in local server index space, or ``None``."""
        return self._capacities

    @property
    def is_capacitated(self) -> bool:
        """Whether server capacities are in force."""
        return self._capacities is not None

    @property
    def client_weights(self) -> Optional[np.ndarray]:
        """Per-client positive integer weights, or ``None`` (= all 1)."""
        return self._client_weights

    @property
    def is_weighted(self) -> bool:
        """Whether non-unit client weights are in force."""
        return self._client_weights is not None

    @property
    def total_client_weight(self) -> int:
        """Sum of client weights (``|C|`` when unweighted)."""
        if self._client_weights is None:
            return self.n_clients
        return int(self._client_weights.sum())

    @property
    def client_server(self) -> np.ndarray:
        """``(|C|, |S|)`` distances ``d(c_i, s_j)`` (read-only)."""
        return self._cs

    @property
    def server_client(self) -> np.ndarray:
        """``(|S|, |C|)`` distances ``d(s_j, c_i)`` (read-only, lazy).

        Built from the provider on first access and cached, so repeated
        consumers (engine, metrics, lower bounds) share one array
        instead of re-slicing the matrix.
        """
        if self._sc is None:
            sc = self._matrix.server_client_distances(
                self._servers, self._clients
            ).copy()
            sc.setflags(write=False)
            self._sc = sc
        return self._sc

    @property
    def server_server(self) -> np.ndarray:
        """``(|S|, |S|)`` distances ``d(s_j, s_j')`` (read-only)."""
        return self._ss

    @property
    def dtype(self) -> np.dtype:
        """Element type of the distance views (the provider's dtype)."""
        return self._matrix.dtype

    def astype(self, dtype) -> "ClientAssignmentProblem":
        """This instance over the provider cast to ``dtype``.

        Returns ``self`` when the dtype already matches; see
        :meth:`repro.net.latency.LatencyMatrix.astype` for the rounding
        contract of a float64 → float32 downcast.
        """
        matrix = self._matrix.astype(dtype)
        if matrix is self._matrix:
            return self
        return ClientAssignmentProblem(
            matrix,
            self._servers,
            self._clients,
            capacities=self._capacities,
            client_weights=self._client_weights,
        )

    def uncapacitated(self) -> "ClientAssignmentProblem":
        """A copy of this instance with capacities removed."""
        if not self.is_capacitated:
            return self
        return ClientAssignmentProblem(
            self._matrix,
            self._servers,
            self._clients,
            client_weights=self._client_weights,
        )

    def with_capacity(
        self, capacities: Union[int, Sequence[int]]
    ) -> "ClientAssignmentProblem":
        """A copy of this instance with the given capacities."""
        return ClientAssignmentProblem(
            self._matrix,
            self._servers,
            self._clients,
            capacities=capacities,
            client_weights=self._client_weights,
        )

    def __repr__(self) -> str:
        cap = "capacitated" if self.is_capacitated else "uncapacitated"
        w = ", weighted" if self.is_weighted else ""
        return (
            f"ClientAssignmentProblem(|C|={self.n_clients}, "
            f"|S|={self.n_servers}, {cap}{w})"
        )
