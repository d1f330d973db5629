"""Exception hierarchy for the ``repro`` package.

All exceptions raised deliberately by this package derive from
:class:`ReproError` so callers can catch package-level failures with a
single ``except`` clause while letting genuine programming errors
(``TypeError``, ``KeyError`` from internal bugs, ...) propagate.

Every class carries a **stable machine-readable code** in its ``code``
class attribute (kebab-case, never reused for a different meaning).
The service layer (:mod:`repro.service`) maps exceptions onto
structured protocol error replies through these codes, so remote
clients dispatch on ``error["code"]`` instead of parsing message
strings. :func:`error_code` resolves the code for any exception and
:data:`ERROR_CODES` maps each code back to its class.
"""

from __future__ import annotations

from typing import Dict, Type

#: Code reported for exceptions outside the :class:`ReproError` tree.
INTERNAL_ERROR_CODE = "internal-error"


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""

    code = "repro-error"


class InvalidLatencyMatrixError(ReproError):
    """A latency matrix failed structural validation.

    Raised when a matrix is not square, contains NaN/inf where not
    permitted, has nonpositive off-diagonal entries, or has a nonzero
    diagonal.
    """

    code = "invalid-latency-matrix"


class InvalidProblemError(ReproError):
    """A :class:`~repro.core.problem.ClientAssignmentProblem` is malformed.

    Examples: empty server or client set, indices out of range, duplicate
    servers, or capacities that cannot accommodate all clients.
    """

    code = "invalid-problem"


class InvalidAssignmentError(ReproError):
    """An assignment violates the problem definition.

    Examples: a client mapped to a node that is not a server, an
    unassigned client, or a capacitated assignment exceeding a server's
    capacity.
    """

    code = "invalid-assignment"


class InvalidParameterError(ReproError, ValueError):
    """A function or constructor argument is out of its valid domain.

    Also derives from :class:`ValueError` so callers that predate the
    package hierarchy (``except ValueError``) keep working.
    """

    code = "invalid-parameter"


class UnknownAlgorithmError(ReproError, KeyError):
    """An algorithm name is not present in the registry.

    Also derives from :class:`KeyError` so callers that predate the
    package hierarchy (``except KeyError``) keep working. The message
    lists the registered names.
    """

    code = "unknown-algorithm"

    def __str__(self) -> str:  # KeyError wraps its arg in repr()
        return self.args[0] if self.args else ""


class CapacityError(ReproError):
    """Total server capacity is insufficient for the client population."""

    code = "capacity-exhausted"


class FaultScheduleError(ReproError):
    """A fault schedule is malformed.

    Examples: overlapping crash intervals for one server, a recovery
    before its crash, or a latency spike with a nonpositive window.
    """

    code = "invalid-fault-schedule"


class FailoverError(ReproError):
    """The failover controller could not repair the system.

    Raised when a crash leaves surviving capacity insufficient for the
    evacuated clients, or when every server is down simultaneously.
    """

    code = "failover-failed"


class ResilienceError(ReproError):
    """The durability layer could not complete an operation.

    Base class for write-ahead-log and checkpoint failures; the online
    runtime raises it when recovery from disk is impossible (no
    checkpoint and no log) or when a replayed log disagrees with the
    matrix it is being recovered against.
    """

    code = "resilience-failed"


class WalCorruptionError(ResilienceError):
    """A write-ahead log failed integrity checks beyond its tail.

    A torn or checksum-invalid *final* record is expected (crash
    mid-write) and handled by truncation; this error means valid
    records were found *after* an invalid one — mid-file damage that
    truncation would silently discard acknowledged writes to "repair".
    """

    code = "wal-corrupt"


class CheckpointError(ResilienceError):
    """A checkpoint could not be written, read, or used for recovery.

    Examples: no checkpoint and no WAL in a recovery directory, or a
    checkpoint whose matrix fingerprint does not match the matrix the
    caller supplied.
    """

    code = "checkpoint-failed"


class TrialExecutionError(ReproError):
    """A parallel trial sweep could not produce a usable result.

    Raised when every trial behind one aggregate (a sweep point, a
    figure panel, an ablation row) failed — individual trial failures
    are tolerated and reported, but an aggregate of zero successes
    would silently fabricate data.
    """

    code = "trial-execution-failed"


class InfeasibleScheduleError(ReproError):
    """A requested lag ``delta`` is below the minimum achievable value D."""

    code = "infeasible-schedule"


class DatasetError(ReproError):
    """A dataset file could not be parsed or failed integrity checks."""

    code = "dataset-error"


class GraphError(ReproError):
    """A network graph is malformed or disconnected where connectivity
    is required (e.g. routing between nodes with no path)."""

    code = "graph-error"


class SimulationError(ReproError):
    """The discrete-event simulator detected an internal inconsistency."""

    code = "simulation-error"


class ConsistencyViolation(SimulationError):
    """The simulated DIA violated the consistency criterion.

    Two clients observed different application states at the same
    simulation time.
    """

    code = "consistency-violation"


class FairnessViolation(SimulationError):
    """The simulated DIA violated the fairness criterion.

    Operations were executed out of issuance order, or the
    issuance-to-execution lag was not constant across operations.
    """

    code = "fairness-violation"


class ServiceError(ReproError):
    """The assignment service could not satisfy a request.

    Base class for session- and protocol-level failures in
    :mod:`repro.service`; every subclass keeps a distinct stable code
    so remote clients can dispatch without string matching.
    """

    code = "service-error"


class UnknownSessionError(ServiceError):
    """A request referenced a session id the service does not hold."""

    code = "unknown-session"


class SessionStateError(ServiceError):
    """A request is invalid for the session's current state.

    Examples: an operation on a closed session, or opening a session
    under a name that is already live.
    """

    code = "session-state"


class ProtocolError(ServiceError):
    """A wire frame could not be decoded into a valid request.

    Examples: invalid JSON, a frame exceeding the size limit, a
    non-object payload, or a missing/unknown ``op``.
    """

    code = "bad-frame"


class FrameTooLargeError(ProtocolError):
    """A wire frame exceeded the configured maximum size."""

    code = "frame-too-large"


class UnknownOperationError(ProtocolError):
    """A request named an operation the service does not implement."""

    code = "unknown-op"


class BadRequestError(ProtocolError):
    """A request was structurally valid but its parameters were not.

    Examples: a missing required field, a field of the wrong type, or
    an out-of-domain value detected before it reaches the library
    layer.
    """

    code = "bad-request"


class ScenarioError(ReproError):
    """An adversarial scenario is malformed or cannot be replayed.

    Examples: a segment with a nonpositive duration, a JSON document
    with an unknown segment kind, or a replay path that cannot host the
    scenario (a planet instance over the wire).
    """

    code = "scenario-error"


class ScaleBoundError(ReproError):
    """The coreset expansion bound was violated.

    :func:`repro.scale.pipeline.solve_at_scale` re-checks
    ``D_expanded <= D_reduced + 2 * epsilon`` on every run; a violation
    means the coreset invariant itself is broken (an internal bug, not
    a bad solve), so it raises rather than returning a result that
    silently voids the guarantee.
    """

    code = "scale-bound-violated"


def _collect_codes() -> Dict[str, Type[ReproError]]:
    codes: Dict[str, Type[ReproError]] = {}
    stack = [ReproError]
    while stack:
        cls = stack.pop()
        existing = codes.get(cls.code)
        # Subclasses that do not override ``code`` inherit their
        # parent's; keep the most general class for the shared code.
        if existing is None or issubclass(existing, cls):
            codes[cls.code] = cls
        stack.extend(cls.__subclasses__())
    return codes


def error_codes() -> Dict[str, Type[ReproError]]:
    """Stable code → exception class, for every registered error.

    Computed on demand so classes defined after import (e.g. in tests)
    are included.
    """
    return _collect_codes()


#: Snapshot of the mapping at import time (module-level convenience).
ERROR_CODES: Dict[str, Type[ReproError]] = _collect_codes()


def error_code(exc: BaseException) -> str:
    """The stable machine-readable code for any exception.

    :class:`ReproError` instances report their class code; everything
    else maps to :data:`INTERNAL_ERROR_CODE` — a service must never
    leak Python class names as its error contract.
    """
    if isinstance(exc, ReproError):
        return type(exc).code
    return INTERNAL_ERROR_CODE
