"""Write-ahead event log with checksummed JSONL records.

Every operation applied to a :class:`~repro.resilience.runtime.
DurableRuntime` is appended here *before* it mutates in-memory state
(log-then-apply), so the effect of every acknowledged operation is
recoverable. One record per line::

    {"crc":"1a2b3c4d","data":{"node":17},"kind":"join","seq":5}

- ``seq`` — 1-based, contiguous; a gap means the file was damaged.
- ``crc`` — CRC-32 (hex) over the compact, key-sorted JSON of the
  record *without* the ``crc`` field, so any bit flip in kind, data or
  seq invalidates the line.
- ``data`` — operation payload (JSON scalars and lists only).

Appends are not durable on their own: :meth:`~WriteAheadLog.append`
encodes a record and keeps its line pending, and
:meth:`~WriteAheadLog.sync` writes every pending line with one
``write`` and one ``fsync``. The runtime syncs once per acknowledged
request (:meth:`~repro.resilience.runtime.DurableRuntime.commit`), so an
acknowledged record is on stable storage and one not yet acknowledged
costs no disk work. :meth:`~WriteAheadLog.abandon` drops the pending
lines, as a killed process would.

Reading tolerates exactly one damage mode for free: a torn or
checksum-invalid **tail** (a writer died mid-line). The reader stops at
the last valid record, reports the torn tail, and
:func:`truncate_torn_tail` physically truncates it so appends can
resume. Valid records found *after* an invalid one are mid-file damage
and raise :class:`~repro.errors.WalCorruptionError` — truncating there
would silently discard acknowledged writes.
"""

from __future__ import annotations

import json
import os
import warnings
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import InvalidParameterError, ResilienceError, WalCorruptionError
from repro.obs import registry

PathLike = Union[str, os.PathLike]


@dataclass(frozen=True)
class WalRecord:
    """One durable event: sequence number, kind, and payload."""

    seq: int
    kind: str
    data: Dict[str, Any] = field(default_factory=dict)


#: Strings known to need no JSON escaping — the record kinds and
#: payload keys the runtime writes, pre-validated so the hot path is a
#: set lookup instead of three string scans.
_SAFE_STRINGS = frozenset(
    {
        "open", "join", "leave", "crash", "recover", "partition", "heal",
        "rebalance", "node", "server", "servers", "max_moves",
    }
)


def _simple_key(key: object) -> bool:
    return key in _SAFE_STRINGS or (
        isinstance(key, str) and key.replace("_", "").isalnum() and key.isascii()
    )


def _body_of(seq: int, kind: str, data: Dict[str, Any]) -> str:
    # Fast path for the payloads the runtime actually writes (flat
    # dicts of ints / int lists): hand-rolled compact JSON, identical
    # to the json.dumps output below, at a fraction of the cost. Any
    # payload outside that shape falls back to the generic encoder.
    parts: Optional[List[str]] = []
    for key in sorted(data):
        value = data[key]
        if not _simple_key(key):
            parts = None
            break
        if type(value) is int:
            parts.append(f'"{key}":{value}')
        elif type(value) is list and all(type(v) is int for v in value):
            parts.append(f'"{key}":[{",".join(map(str, value))}]')
        else:
            parts = None
            break
    if parts is not None and _simple_key(kind):
        return f'{{"data":{{{",".join(parts)}}},"kind":"{kind}","seq":{seq}}}'
    return json.dumps(
        {"data": data, "kind": kind, "seq": seq},
        sort_keys=True,
        separators=(",", ":"),
    )


def _crc_of(seq: int, kind: str, data: Dict[str, Any]) -> str:
    body = _body_of(seq, kind, data)
    return format(zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF, "08x")


def encode_record(record: WalRecord) -> str:
    """The on-disk line for a record (no trailing newline).

    The record body is serialized exactly once: the checksum is taken
    over the compact key-sorted body, and the full line is spliced from
    it (``crc`` sorts first), so the append hot path pays one
    ``json.dumps`` instead of two.
    """
    body = _body_of(record.seq, record.kind, record.data)
    crc = format(zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF, "08x")
    return f'{{"crc":"{crc}",{body[1:]}'


def _decode_line(line: bytes) -> Optional[WalRecord]:
    """Parse one line into a record; ``None`` when invalid in any way."""
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(obj, dict):
        return None
    try:
        seq = obj["seq"]
        kind = obj["kind"]
        data = obj["data"]
        crc = obj["crc"]
    except (KeyError, TypeError):
        return None
    if not isinstance(seq, int) or not isinstance(kind, str):
        return None
    if not isinstance(data, dict) or not isinstance(crc, str):
        return None
    if crc != _crc_of(seq, kind, data):
        return None
    return WalRecord(seq=seq, kind=kind, data=data)


class WriteAheadLog:
    """Appender for a WAL file.

    Parameters
    ----------
    path:
        The log file; created if absent, appended to otherwise. Resuming
        an existing log requires ``next_seq`` (use
        :meth:`WriteAheadLog.resume` which derives it from the file).
    next_seq:
        Sequence number the next appended record receives.
    """

    def __init__(self, path: PathLike, *, next_seq: int = 1) -> None:
        if next_seq < 1:
            raise InvalidParameterError(f"next_seq must be >= 1, got {next_seq}")
        self.path = os.fspath(path)
        self._next_seq = int(next_seq)
        self._handle = open(self.path, "ab")
        self._pending: List[str] = []

    # ------------------------------------------------------------------
    @classmethod
    def resume(cls, path: PathLike) -> Tuple["WriteAheadLog", Tuple[WalRecord, ...]]:
        """Reopen an existing log for appending.

        Reads the valid prefix, truncates any torn tail, and returns
        the log (positioned after the last valid record) together with
        the records to replay.
        """
        result = read_wal(path)
        truncate_torn_tail(path, result)
        last = result.records[-1].seq if result.records else 0
        log = cls(path, next_seq=last + 1)
        return log, result.records

    # ------------------------------------------------------------------
    @property
    def next_seq(self) -> int:
        """Sequence number the next append will use."""
        return self._next_seq

    @property
    def last_seq(self) -> int:
        """Sequence number of the last appended record (0 = none)."""
        return self._next_seq - 1

    @property
    def closed(self) -> bool:
        return self._handle is None

    def append(self, kind: str, data: Optional[Dict[str, Any]] = None) -> WalRecord:
        """Stamp and encode one event; returns the record.

        The line stays pending until the next :meth:`sync`; nothing
        reaches the file before then.
        """
        if self._handle is None:
            raise ResilienceError("write-ahead log is closed")
        record = WalRecord(seq=self._next_seq, kind=kind, data=dict(data or {}))
        self._pending.append(encode_record(record))
        self._next_seq += 1
        return record

    def sync(self) -> None:
        """Write every pending line with one write, then fsync.

        A no-op when nothing was appended since the last sync.
        """
        if self._handle is None or not self._pending:
            return
        lines, self._pending = self._pending, []
        self._handle.write(("\n".join(lines) + "\n").encode("utf-8"))
        self._handle.flush()
        os.fsync(self._handle.fileno())
        metrics = registry()
        metrics.counter("resilience.wal.fsyncs").inc()
        metrics.counter("resilience.wal.records").inc(len(lines))

    def close(self) -> None:
        """Sync and release the file handle (idempotent)."""
        if self._handle is None:
            return
        self.sync()
        handle, self._handle = self._handle, None
        handle.close()

    def abandon(self) -> None:
        """Release the handle *without* syncing (crash simulation).

        Pending lines are dropped and the file keeps only what earlier
        syncs wrote — what a process killed between requests leaves on
        disk. The chaos harness adds torn tails separately.
        """
        self._pending = []
        handle, self._handle = self._handle, None
        if handle is not None:
            handle.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WalReadResult:
    """Outcome of scanning a WAL file.

    ``valid_bytes`` is the file offset just past the last valid record;
    ``torn`` reports whether invalid trailing bytes were found there
    (``tail_error`` describes them). Mid-file damage never produces a
    result — it raises :class:`~repro.errors.WalCorruptionError`.
    """

    records: Tuple[WalRecord, ...]
    valid_bytes: int
    torn: bool = False
    tail_error: Optional[str] = None


def read_wal(path: PathLike) -> WalReadResult:
    """Scan a WAL file into its valid record prefix.

    Missing file = empty log. Stops at the first invalid line (bad
    JSON, bad checksum, bad sequence number, or no terminating
    newline); if any *later* line still decodes as a valid record the
    file is damaged mid-stream and :class:`~repro.errors.
    WalCorruptionError` is raised, otherwise the invalid bytes are a
    torn tail, reported (with a warning) for truncation.
    """
    path = os.fspath(path)
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except FileNotFoundError:
        return WalReadResult(records=(), valid_bytes=0)
    records: List[WalRecord] = []
    offset = 0
    tail_error: Optional[str] = None
    while offset < len(raw):
        newline = raw.find(b"\n", offset)
        if newline < 0:
            tail_error = "torn final record (no terminating newline)"
            break
        line = raw[offset:newline]
        record = None if not line.strip() else _decode_line(line)
        if record is None:
            tail_error = f"invalid record at byte {offset}"
            break
        expected = records[-1].seq + 1 if records else record.seq
        if record.seq != expected:
            tail_error = (
                f"sequence gap at byte {offset}: "
                f"expected seq {expected}, found {record.seq}"
            )
            break
        records.append(record)
        offset = newline + 1
    if tail_error is not None:
        # Distinguish a torn tail (truncatable) from mid-file damage:
        # any later line that still validates means acknowledged records
        # live beyond the damage, and truncation would discard them.
        for line in raw[offset:].split(b"\n"):
            if line.strip() and _decode_line(line) is not None:
                raise WalCorruptionError(
                    f"{path}: {tail_error}, but valid records follow it "
                    f"(mid-file damage; refusing to truncate)"
                )
        warnings.warn(
            f"{path}: {tail_error}; recovering the "
            f"{len(records)}-record valid prefix",
            RuntimeWarning,
            stacklevel=2,
        )
        registry().counter("resilience.wal.torn_tails").inc()
        return WalReadResult(
            records=tuple(records),
            valid_bytes=offset,
            torn=True,
            tail_error=tail_error,
        )
    return WalReadResult(records=tuple(records), valid_bytes=offset)


def truncate_torn_tail(path: PathLike, result: WalReadResult) -> bool:
    """Physically drop a torn tail found by :func:`read_wal`.

    Returns whether anything was truncated. After this, appending
    resumes cleanly at ``result.valid_bytes``.
    """
    if not result.torn:
        return False
    path = os.fspath(path)
    dropped = max(0, os.path.getsize(path) - result.valid_bytes)
    with open(path, "rb+") as handle:
        handle.truncate(result.valid_bytes)
        handle.flush()
        os.fsync(handle.fileno())
    registry().counter("resilience.wal.truncated_bytes").inc(dropped)
    return True
