"""The durable online runtime: log-then-apply over the assignment stack.

:class:`DurableRuntime` wraps an
:class:`~repro.algorithms.online.OnlineAssignmentManager`, a
:class:`~repro.faults.failover.FailoverController` and a
:class:`~repro.resilience.degrade.DegradeController` behind one event
API, :meth:`DurableRuntime.apply` (with typed join / leave / crash /
recover_server / partition / heal / rebalance wrappers), whose
semantics live in :mod:`repro.resilience.events`. Every operation is
appended to the write-ahead log
(:mod:`repro.resilience.wal`) *before* it is applied.
:meth:`DurableRuntime.commit` is the durability point: one WAL fsync
for everything applied since the last commit, then a checkpoint
(:mod:`repro.resilience.checkpoint`) once ``checkpoint_every`` events
have passed since the previous one. A service commits once per reply,
and the typed wrappers commit per event, so

    ``DurableRuntime.recover(directory, matrix)``

always rebuilds the exact state of the interrupted run: latest valid
checkpoint, then deterministic re-execution of the WAL tail. The
recovery contract is **byte identity** — :meth:`digest` of the
recovered runtime equals the digest the uninterrupted run had at the
same WAL position. Re-execution is deterministic because every
placement decision is a function of the assignment state alone (exact
maxima from the incremental engine; no wall clocks, no RNG inside the
runtime), which is the property ``repro chaos`` verifies end to end.

Degraded-mode semantics (see :mod:`repro.resilience.degrade`): an
arrival that cannot be admitted — capacity exhausted, no usable server,
or the runtime already degraded — is queued or rejected instead of
raising, and :meth:`join` reports which (``"assigned"`` / ``"queued"``
/ ``"rejected"``).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Tuple, Union

from repro.algorithms.online import OnlineAssignmentManager, OnlineConfig
from repro.core.incremental import DEFAULT_TOP_K
from repro.errors import (
    CheckpointError,
    InvalidParameterError,
    ResilienceError,
)
from repro.faults.failover import CrashRecord, FailoverController, RecoveryRecord
from repro.net.latency import LatencyMatrix
from repro.obs import SECONDS_BUCKETS, fingerprint_matrix, registry, span
from repro.resilience.checkpoint import (
    decode_float,
    encode_float,
    load_latest_checkpoint,
    state_digest,
    write_checkpoint,
)
from repro.resilience.degrade import DegradeController, DegradePolicy
from repro.resilience.events import apply_event, check_event
from repro.resilience.wal import (
    WalRecord,
    WriteAheadLog,
    read_wal,
    truncate_torn_tail,
)
from repro.types import IndexArrayLike, as_index_array

PathLike = Union[str, os.PathLike]

#: WAL file name inside a runtime directory.
WAL_NAME = "events.wal"

#: State-dict layout version (independent of the checkpoint envelope).
STATE_SCHEMA = 1


@dataclass(frozen=True)
class DurabilityConfig:
    """Typed durability configuration for :class:`DurableRuntime`.

    Parameters
    ----------
    mode:
        ``"wal"`` (default) — log-then-apply with on-disk WAL and
        checkpoints, recoverable via :meth:`DurableRuntime.recover`.
        ``"off"`` — volatile mode: identical event semantics and state
        digests, but nothing touches disk (the WAL is an in-memory
        sequence counter and checkpoints are disabled). The service
        layer uses this for ``durability=off`` sessions so both modes
        share one runtime implementation.
    checkpoint_every:
        A snapshot checkpoint is taken at the first
        :meth:`DurableRuntime.commit` at least this many events after
        the previous one (``None``/``0`` disables; recovery then
        replays the whole WAL). Ignored in ``"off"`` mode.
    keep_checkpoints:
        Checkpoints retained on disk (older pruned after each write).
    """

    mode: str = "wal"
    checkpoint_every: Optional[int] = 25
    keep_checkpoints: int = 2

    def __post_init__(self) -> None:
        if self.mode not in ("wal", "off"):
            raise InvalidParameterError(
                f"durability mode must be 'wal' or 'off', got {self.mode!r}"
            )
        if self.checkpoint_every is not None and self.checkpoint_every < 0:
            raise InvalidParameterError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )
        if self.keep_checkpoints < 1:
            raise InvalidParameterError(
                f"keep_checkpoints must be >= 1, got {self.keep_checkpoints}"
            )

    @property
    def durable(self) -> bool:
        """Whether this configuration persists anything to disk."""
        return self.mode == "wal"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable view (stable keys, scalars only)."""
        return {
            "mode": self.mode,
            "checkpoint_every": (
                None
                if self.checkpoint_every is None
                else int(self.checkpoint_every)
            ),
            "keep_checkpoints": int(self.keep_checkpoints),
        }


class _NullWal:
    """In-memory stand-in for :class:`~repro.resilience.wal.WriteAheadLog`.

    Volatile mode (:class:`DurabilityConfig` ``mode="off"``) keeps the
    runtime's log-then-apply shape — every event still receives a
    contiguous sequence number so ``applied_seq`` and therefore the
    state digest match a WAL-backed twin byte for byte — without
    touching the filesystem. It keeps nothing but the number: the
    runtime reads ``next_seq`` before an append, as it does for a real
    log, so :meth:`append` builds no record.
    """

    __slots__ = ("next_seq", "closed")

    path = None

    def __init__(self) -> None:
        self.next_seq = 1
        self.closed = False

    def append(self, kind: str, data: Optional[Dict[str, Any]] = None) -> None:
        if self.closed:
            raise ResilienceError("write-ahead log is closed")
        self.next_seq += 1

    def sync(self) -> None:
        pass

    def close(self) -> None:
        self.closed = True

    def abandon(self) -> None:
        self.closed = True


class DurableRuntime:
    """A crash-recoverable online assignment runtime.

    Parameters
    ----------
    directory:
        Home of the WAL and checkpoints; created if missing. A
        directory that already holds a non-empty WAL or checkpoints
        refuses a fresh start — use :meth:`recover`. May be ``None``
        in volatile mode (``durability.mode == "off"``).
    matrix, servers:
        Forwarded to :class:`~repro.algorithms.online.
        OnlineAssignmentManager`.
    online:
        An :class:`~repro.algorithms.online.OnlineConfig` (capacity,
        join policy).
    durability:
        A :class:`DurabilityConfig` (mode, checkpoint cadence,
        retention).
    readmit_moves, shed_policy:
        Forwarded to :class:`~repro.faults.failover.FailoverController`
        (default ``"shed"``: a crash degrades rather than raises).
    policy:
        Degraded-mode policy (backlog watermark, latency budget).
    """

    def __init__(
        self,
        directory: Optional[PathLike],
        matrix: LatencyMatrix,
        servers: IndexArrayLike,
        *,
        online: Optional[OnlineConfig] = None,
        durability: Optional[DurabilityConfig] = None,
        readmit_moves: int = 8,
        shed_policy: str = "shed",
        policy: Optional[DegradePolicy] = None,
    ) -> None:
        online = online or OnlineConfig()
        durability = durability or DurabilityConfig()
        if durability.durable:
            if directory is None:
                raise InvalidParameterError(
                    "durability mode 'wal' requires a directory"
                )
            directory = os.fspath(directory)
            os.makedirs(directory, exist_ok=True)
            wal_path = os.path.join(directory, WAL_NAME)
            if os.path.exists(wal_path) and os.path.getsize(wal_path) > 0:
                raise ResilienceError(
                    f"{directory}: write-ahead log already exists; use "
                    f"DurableRuntime.recover() to resume it"
                )
            from repro.resilience.checkpoint import list_checkpoints

            if list_checkpoints(directory):
                raise ResilienceError(
                    f"{directory}: checkpoints already exist; use "
                    f"DurableRuntime.recover() to resume"
                )
        else:
            directory = None if directory is None else os.fspath(directory)
        policy = policy or DegradePolicy()
        config = {
            "servers": [int(s) for s in as_index_array(servers, "servers")],
            **online.to_dict(),
            "readmit_moves": int(readmit_moves),
            "shed_policy": shed_policy,
            "max_backlog": policy.max_backlog,
            "d_budget": (
                None
                if policy.d_budget is None
                else encode_float(policy.d_budget)
            ),
            "matrix_fingerprint": fingerprint_matrix(matrix),
        }
        self._init_core(directory, matrix, config, durability=durability)
        if durability.durable:
            self._wal = WriteAheadLog(os.path.join(directory, WAL_NAME))
        else:
            self._wal = _NullWal()
        # Genesis record: recovery can rebuild from a bare WAL (no
        # checkpoint yet) knowing nothing but the directory + matrix.
        self._applied_seq = self._wal.next_seq
        self._wal.append("open", config)
        self.commit()

    # ------------------------------------------------------------------
    def _init_core(
        self,
        directory: Optional[str],
        matrix: LatencyMatrix,
        config: Dict[str, Any],
        *,
        durability: DurabilityConfig,
    ) -> None:
        """Build the in-memory stack from a config dict (shared by the
        fresh-start and recovery paths)."""
        expected = config["matrix_fingerprint"]
        actual = fingerprint_matrix(matrix)
        if expected != actual:
            raise CheckpointError(
                f"{directory}: matrix fingerprint mismatch (state was "
                f"recorded against {expected}, supplied matrix is {actual})"
            )
        self._directory = directory
        self._matrix = matrix
        self._config = dict(config)
        self._durability = durability
        self._checkpoint_every = (
            int(durability.checkpoint_every or 0) if durability.durable else 0
        )
        d_budget = config["d_budget"]
        degrade_policy = DegradePolicy(
            max_backlog=int(config["max_backlog"]),
            d_budget=None if d_budget is None else decode_float(d_budget),
        )
        self._manager = OnlineAssignmentManager(
            matrix,
            config["servers"],
            # The top_k default keeps checkpoints/WALs written before
            # the knob existed recoverable; a "backend" key written
            # before the numba kernels were deleted is ignored.
            OnlineConfig(
                capacity=config["capacity"],
                join_policy=config["join_policy"],
                top_k=int(config.get("top_k", DEFAULT_TOP_K)),
            ),
        )
        self._controller = FailoverController(
            self._manager,
            readmit_moves=int(config["readmit_moves"]),
            shed_policy=config["shed_policy"],
        )
        self._degrade = DegradeController(self._manager, degrade_policy)
        self._applied_seq = 0
        self._last_checkpoint_seq = 0
        self._closed = False
        self._wal: Optional[Union[WriteAheadLog, _NullWal]] = None

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        directory: PathLike,
        matrix: LatencyMatrix,
        *,
        durability: Optional[DurabilityConfig] = None,
    ) -> "DurableRuntime":
        """Rebuild a runtime from its directory.

        Loads the newest valid checkpoint (invalid ones are skipped
        with a warning), replays the WAL records after it by
        re-execution, truncates a torn WAL tail if one is found, and
        reopens the WAL for appending. Raises
        :class:`~repro.errors.ResilienceError` when the directory holds
        neither a checkpoint nor a WAL, and
        :class:`~repro.errors.CheckpointError` when the recorded matrix
        fingerprint does not match ``matrix``.
        """
        durability = durability or DurabilityConfig()
        if not durability.durable:
            raise InvalidParameterError(
                "cannot recover with durability mode 'off' — there is "
                "nothing on disk to recover from"
            )
        directory = os.fspath(directory)
        wal_path = os.path.join(directory, WAL_NAME)
        start = time.perf_counter()
        with span("resilience.recover", directory=directory):
            checkpoint = load_latest_checkpoint(directory)
            result = read_wal(wal_path)
            truncate_torn_tail(wal_path, result)
            records = result.records
            if checkpoint is None and not records:
                raise ResilienceError(
                    f"{directory}: nothing to recover (no checkpoint, "
                    f"no write-ahead log)"
                )
            if checkpoint is not None:
                config = dict(checkpoint.state["config"])
            else:
                genesis = records[0]
                if genesis.kind != "open":
                    raise ResilienceError(
                        f"{directory}: write-ahead log does not start "
                        f"with an 'open' record and no checkpoint exists"
                    )
                config = dict(genesis.data)
            runtime = cls.__new__(cls)
            runtime._init_core(directory, matrix, config, durability=durability)
            if checkpoint is not None:
                runtime._restore_state(checkpoint.state)
                runtime._last_checkpoint_seq = checkpoint.seq
            tail = [r for r in records if r.seq > runtime._applied_seq]
            for record in tail:
                runtime._apply_record(record)
            last_seq = max(
                runtime._applied_seq,
                records[-1].seq if records else 0,
            )
            runtime._wal = WriteAheadLog(wal_path, next_seq=last_seq + 1)
        metrics = registry()
        metrics.counter("resilience.recoveries").inc()
        metrics.counter("resilience.replayed_records").inc(len(tail))
        metrics.histogram("resilience.recovery_seconds", SECONDS_BUCKETS).observe(
            time.perf_counter() - start
        )
        return runtime

    def _restore_state(self, state: Dict[str, Any]) -> None:
        """Adopt a checkpointed state dict, then verify byte identity."""
        if state.get("schema") != STATE_SCHEMA:
            raise CheckpointError(
                f"unsupported state schema {state.get('schema')!r} "
                f"(this build reads {STATE_SCHEMA})"
            )
        manager_state = state["manager"]
        # Sorted order; the engine's observable values are exact maxima,
        # independent of application order, so any order reproduces the
        # recorded D bit-for-bit — the digest check below enforces it.
        for node, server in manager_state["assigned"]:
            self._manager.restore_client(int(node), int(server))
        for server in manager_state["inactive"]:
            self._manager.deactivate_server(int(server))
        for server in manager_state["unreachable"]:
            self._manager.partition_server(int(server))
        failover_state = state["failover"]
        self._controller.restore_records(
            [CrashRecord.from_dict(r) for r in failover_state["crashes"]],
            [RecoveryRecord.from_dict(r) for r in failover_state["recoveries"]],
        )
        self._degrade.restore(state["degrade"])
        self._applied_seq = int(state["applied_seq"])
        restored = self.state_dict()
        if state_digest(restored) != state_digest(state):
            raise CheckpointError(
                "restored state does not reproduce the checkpoint digest"
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def directory(self) -> Optional[str]:
        return self._directory

    @property
    def durability(self) -> DurabilityConfig:
        """The runtime's resolved durability configuration."""
        return self._durability

    @property
    def online_config(self) -> OnlineConfig:
        """The wrapped manager's resolved online configuration."""
        return self._manager.config

    @property
    def manager(self) -> OnlineAssignmentManager:
        """The wrapped assignment manager."""
        return self._manager

    @property
    def degrade(self) -> DegradeController:
        """The degraded-mode state machine."""
        return self._degrade

    @property
    def wal(self) -> Union[WriteAheadLog, _NullWal]:
        return self._wal

    @property
    def applied_seq(self) -> int:
        """WAL sequence number of the last applied event."""
        return self._applied_seq

    @property
    def health(self) -> str:
        """Current degrade state (``healthy``/``degraded``/``recovering``)."""
        return self._degrade.state

    @property
    def n_clients(self) -> int:
        return self._manager.n_clients

    def current_d(self) -> float:
        """The current maximum interaction path length."""
        return self._manager.current_d()

    # ------------------------------------------------------------------
    # State capture
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Canonical JSON-serializable state (the byte-identity basis).

        Floats are hex-encoded, collections sorted; two runtimes are
        considered identical iff their state dicts (equivalently their
        :meth:`digest`\\ s) are equal.
        """
        manager = self._manager
        return {
            "schema": STATE_SCHEMA,
            "config": dict(self._config),
            "applied_seq": self._applied_seq,
            "manager": {
                "assigned": [
                    [int(node), int(manager.server_of(node))]
                    for node in manager.clients
                ],
                "inactive": [
                    s for s in range(manager.n_servers) if not manager.is_active(s)
                ],
                "unreachable": [
                    s
                    for s in range(manager.n_servers)
                    if not manager.is_reachable(s)
                ],
                "d": encode_float(manager.current_d()),
            },
            "failover": {
                "crashes": [r.to_dict() for r in self._controller.crash_records],
                "recoveries": [
                    r.to_dict() for r in self._controller.recovery_records
                ],
            },
            "degrade": self._degrade.to_dict(),
        }

    def digest(self) -> str:
        """SHA-256 digest of :meth:`state_dict`."""
        return state_digest(self.state_dict())

    def checkpoint(self) -> str:
        """Force a snapshot checkpoint now; returns the path written.

        The WAL is synced first so a checkpoint never describes state
        more durable than the log that produced it (free right after
        :meth:`commit`, which has just synced it).
        """
        if self._closed or self._wal.closed:
            raise ResilienceError("runtime is closed")
        self._wal.sync()
        path = write_checkpoint(
            self._directory,
            self._applied_seq,
            self.state_dict(),
            keep=self._durability.keep_checkpoints,
        )
        self._last_checkpoint_seq = self._applied_seq
        return path

    # ------------------------------------------------------------------
    # Event API (log-then-apply)
    # ------------------------------------------------------------------
    def apply(self, op: str, data: Dict[str, Any]) -> Tuple[str, Dict[str, Any]]:
        """Check, log, then apply one wire-vocabulary event.

        Returns ``(outcome, extras)`` as
        :func:`~repro.resilience.events.apply_event` does; an event the
        current state refuses raises before anything is logged. The
        event is not durable until the next :meth:`commit`.
        """
        wal = self._wal
        if self._closed or wal.closed:
            raise ResilienceError("runtime is closed")
        data = check_event(self._manager, self._degrade, op, data)
        seq = wal.next_seq
        wal.append(op, data)
        result = apply_event(
            self._manager, self._controller, self._degrade, op, data, time=float(seq)
        )
        self._applied_seq = seq
        return result

    def commit(self) -> None:
        """Make every event applied so far durable.

        One WAL write and fsync (none when nothing was applied since
        the last commit), then a checkpoint once ``checkpoint_every``
        events have passed since the previous one. Call it before
        acknowledging: an event is acknowledged only after its commit.
        """
        self._wal.sync()
        if (
            self._checkpoint_every
            and self._applied_seq - self._last_checkpoint_seq
            >= self._checkpoint_every
        ):
            self.checkpoint()

    def _apply_committed(
        self, op: str, data: Dict[str, Any]
    ) -> Tuple[str, Dict[str, Any]]:
        """:meth:`apply` one event as its own acknowledged request."""
        result = self.apply(op, data)
        self.commit()
        return result

    def join(self, node: int) -> str:
        """Admit a client; returns ``"assigned"``/``"queued"``/``"rejected"``."""
        return self._apply_committed("join", {"node": node})[0]

    def leave(self, node: int) -> str:
        """Remove a client; returns ``"left"``/``"dequeued"``/``"absent"``.

        Tolerant by design: a leave for a node that was queued (still
        waiting) dequeues it, and one for a node that was rejected or
        shed is a counted no-op — churn sources need not know the
        admission outcome of every join they issued.
        """
        return self._apply_committed("leave", {"node": node})[0]

    def crash(self, server: int) -> CrashRecord:
        """Fail-stop crash of a (currently up) local server."""
        self._apply_committed("crash", {"server": server})
        return self._controller.crash_records[-1]

    def recover_server(self, server: int) -> RecoveryRecord:
        """Recover a (currently down) local server."""
        self._apply_committed("recover", {"server": server})
        return self._controller.recovery_records[-1]

    def partition(self, servers: Iterable[int]) -> Tuple[int, ...]:
        """Make a server subset unreachable; returns stale-served nodes."""
        return tuple(self._apply_committed("partition", {"servers": servers})[1]["stale"])

    def heal(self, servers: Iterable[int]) -> None:
        """Restore reachability of a partitioned server subset."""
        self._apply_committed("heal", {"servers": servers})

    def rebalance(self, *, max_moves: int = 16) -> int:
        """Bounded Distributed-Greedy repair; returns moves made."""
        return self._apply_committed("rebalance", {"max_moves": max_moves})[1]["moves"]

    # ------------------------------------------------------------------
    # Re-execution (live events and WAL replay share one applier,
    # :func:`~repro.resilience.events.apply_event`)
    # ------------------------------------------------------------------
    def _apply_record(self, record: WalRecord) -> None:
        """Re-execute one WAL record during recovery (no checkpoints:
        the state being rebuilt is already on disk)."""
        try:
            if record.kind != "open":
                apply_event(
                    self._manager,
                    self._controller,
                    self._degrade,
                    record.kind,
                    record.data,
                    time=float(record.seq),
                )
            self._applied_seq = record.seq
        except ResilienceError:
            raise
        except Exception as exc:
            raise ResilienceError(
                f"replay of WAL record seq={record.seq} "
                f"kind={record.kind!r} failed: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Commit and release resources (idempotent)."""
        if self._closed:
            return
        self.commit()
        self._closed = True
        self._wal.close()

    def abandon(self) -> None:
        """Drop the runtime without committing — simulate a process kill.

        Used by the chaos harness: events applied since the last
        :meth:`commit` are lost, committed ones are on disk, as after a
        SIGKILL.
        """
        self._closed = True
        if self._wal is not None:
            self._wal.abandon()

    def __enter__(self) -> "DurableRuntime":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
