"""Zero-copy latency-matrix sharing for worker processes.

A profile-scale latency matrix is ``n_nodes x n_nodes`` of ``float64``
— ~25 MB at the paper's 1796 nodes (half that as ``float32``; both
dtypes publish unchanged). Pickling it into every trial task
would dominate the cost of small trials and defeat the point of a
process pool. Instead the parent publishes the array **once** into
POSIX shared memory (:mod:`multiprocessing.shared_memory`) and ships
only a tiny handle; workers attach a read-only
:class:`~repro.net.latency.LatencyMatrix` view — no copy, no
re-validation.

Lifecycle contract
------------------

- :func:`publish_matrix` returns a context manager owning the
  segment. The **publisher** is responsible for ``unlink()``; leaving
  the ``with`` block (or calling ``close()``) always unlinks, even on
  ``KeyboardInterrupt``.
- Workers attach via :func:`attach_matrix` and cache the attachment
  per process (keyed by segment name), so a worker maps each segment
  once no matter how many trials it runs.
- When shared memory is unavailable (exotic platforms, permission-
  restricted ``/dev/shm``), publishing transparently degrades to an
  **inline** handle that carries the array bytes and is pickled per
  task chunk — slower, never wrong.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.net.latency import LatencyMatrix

try:  # pragma: no cover - import succeeds on every supported platform
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None


@dataclass(frozen=True)
class SharedMatrixHandle:
    """A picklable descriptor of a published latency matrix.

    Either ``shm_name`` is set (shared-memory mode) or ``inline`` holds
    the raw matrix bytes (fallback mode). ``shape`` is always present so
    attachment never trusts the segment size alone, and ``dtype`` is a
    numpy dtype *name* string (``"float64"`` or ``"float32"``) so
    handles stay cheaply picklable.
    """

    shape: Tuple[int, int]
    shm_name: Optional[str] = None
    inline: Optional[bytes] = field(default=None, repr=False)
    dtype: str = "float64"

    @property
    def is_shared(self) -> bool:
        """Whether this handle points at a shared-memory segment."""
        return self.shm_name is not None

    @property
    def np_dtype(self) -> np.dtype:
        """The handle's dtype as a numpy dtype object."""
        return np.dtype(self.dtype)

    @property
    def nbytes(self) -> int:
        """Size of the published matrix in bytes."""
        return int(np.prod(self.shape)) * self.np_dtype.itemsize


class PublishedMatrix:
    """A latency matrix published for worker consumption.

    Context manager; owns the shared-memory segment (when one exists)
    and guarantees ``close()``/``unlink()`` on exit. The original
    :class:`~repro.net.latency.LatencyMatrix` is kept, so its id (the
    pool's publication key) cannot be recycled while this lives.
    """

    def __init__(
        self,
        matrix: LatencyMatrix,
        handle: SharedMatrixHandle,
        segment: Optional["_shared_memory.SharedMemory"],
    ) -> None:
        self.matrix = matrix
        self.handle = handle
        self._segment = segment
        self._closed = False

    def __enter__(self) -> "PublishedMatrix":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Release and unlink the shared segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._segment is not None:
            try:
                self._segment.close()
            finally:
                try:
                    self._segment.unlink()
                except FileNotFoundError:  # already unlinked elsewhere
                    pass

    def __del__(self) -> None:  # last-resort cleanup; close() is the API
        try:
            self.close()
        except Exception:
            pass


def shared_memory_available() -> bool:
    """Whether POSIX shared memory can actually be used here."""
    if _shared_memory is None:
        return False
    try:
        probe = _shared_memory.SharedMemory(create=True, size=8)
    except (OSError, ValueError):
        return False
    probe.close()
    probe.unlink()
    return True


def publish_matrix(
    matrix: LatencyMatrix, *, prefer_shared: bool = True
) -> PublishedMatrix:
    """Publish a latency matrix for zero-copy consumption by workers.

    Falls back to an inline (pickled-bytes) handle when shared memory
    is unavailable or ``prefer_shared=False``.
    """
    values = matrix.values
    shape = (int(values.shape[0]), int(values.shape[1]))
    dtype_name = values.dtype.name
    if prefer_shared and _shared_memory is not None:
        try:
            segment = _shared_memory.SharedMemory(
                create=True, size=max(1, values.nbytes)
            )
        except (OSError, ValueError):
            segment = None
        if segment is not None:
            staged = np.ndarray(shape, dtype=values.dtype, buffer=segment.buf)
            staged[:] = values
            handle = SharedMatrixHandle(
                shape=shape, shm_name=segment.name, dtype=dtype_name
            )
            return PublishedMatrix(matrix, handle, segment)
    handle = SharedMatrixHandle(
        shape=shape,
        inline=np.ascontiguousarray(values).tobytes(),
        dtype=dtype_name,
    )
    return PublishedMatrix(matrix, handle, None)


# ----------------------------------------------------------------------
# Worker-side attachment
# ----------------------------------------------------------------------
#: Per-process attachment cache: key -> (lifetime anchor, attached
#: object). Anchoring the segment object keeps the mapping alive;
#: entries live until the worker process exits.
_ATTACHMENTS: Dict[str, Tuple[object, object]] = {}


def _attach_segment(name: str) -> "_shared_memory.SharedMemory":
    """Attach to an existing segment without resource-tracker tracking.

    Python's resource tracker registers *attached* segments too
    (bpo-39959); with several workers attaching and detaching the same
    publisher-owned segment, the tracker would race itself into
    KeyError spam and spurious unlink attempts. Python 3.13+ exposes
    ``track=False`` for exactly this; older interpreters get a scoped
    no-op of the register hook during attachment (the standard
    workaround — registration happens synchronously inside
    ``SharedMemory.__init__``).
    """
    try:
        return _shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        pass
    from multiprocessing import resource_tracker

    original = resource_tracker.register

    def _register_skipping_shm(target: str, rtype: str) -> None:
        if rtype != "shared_memory":  # pragma: no cover - not hit here
            original(target, rtype)

    resource_tracker.register = _register_skipping_shm
    try:
        return _shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def attach_matrix(handle: SharedMatrixHandle) -> LatencyMatrix:
    """Materialize a published matrix in this process.

    Shared handles attach a read-only view; inline handles rebuild the
    matrix from bytes. Both are cached per process, since chunked
    scheduling can deliver the same handle many times, and wrapped
    zero-copy by :meth:`~repro.net.latency.LatencyMatrix.wrap_readonly`.
    """
    key = (
        handle.shm_name
        if handle.shm_name is not None
        else f"inline-{id(handle.inline)}-{handle.shape}-{handle.dtype}"
    )
    cached = _ATTACHMENTS.get(key)
    if cached is not None:
        return cached[1]
    if handle.shm_name is None:
        if handle.inline is None:
            raise ValueError("handle carries neither a segment nor inline data")
        anchor: object = handle.inline
        values = np.frombuffer(handle.inline, dtype=handle.np_dtype).reshape(
            handle.shape
        )
    else:
        if _shared_memory is None:  # pragma: no cover - guarded by publish
            raise RuntimeError("shared memory unavailable in this process")
        anchor = _attach_segment(handle.shm_name)
        values = np.ndarray(
            handle.shape, dtype=handle.np_dtype, buffer=anchor.buf
        )
    values.setflags(write=False)
    matrix = LatencyMatrix.wrap_readonly(values)
    _ATTACHMENTS[key] = (anchor, matrix)
    return matrix
