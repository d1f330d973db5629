"""Wire protocol: JSON-lines frames with structured error replies.

One request or reply per line of UTF-8 JSON, newline-terminated::

    → {"id": 3, "op": "join", "session": "s1", "node": 17}
    ← {"id": 3, "ok": true, "result": {"outcome": "assigned", ...}}
    ← {"id": 4, "ok": false, "error": {"code": "unknown-session",
                                       "message": "..."}}

Contract:

- Every request is a JSON object with a string ``op``; ``id`` is an
  optional opaque value echoed verbatim in the reply so clients can
  pipeline.
- Every reply carries ``ok``. Failures carry ``error.code`` — one of
  the stable machine-readable codes from :mod:`repro.errors` — so
  clients dispatch on the code, never on the message text.
- Frames larger than the negotiated cap (default
  :data:`MAX_FRAME_BYTES`) are rejected with ``frame-too-large``;
  malformed JSON or non-object payloads with ``bad-frame``. Neither
  closes the connection: the peer can recover and continue.

The encoder is canonical (sorted keys, compact separators), so a reply
byte sequence is a pure function of its dict content — the basis of
the wire-vs-library output-equivalence tests.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from repro.errors import (
    BadRequestError,
    FrameTooLargeError,
    ProtocolError,
    error_code,
)
from repro.resilience.events import EVENT_OPS

#: Default cap on a single frame (request or reply), in bytes.
MAX_FRAME_BYTES = 256 * 1024

#: Operations the service implements (kept in sync with
#: :meth:`repro.service.core.AssignmentService.handle`).
OPS = EVENT_OPS | {
    "ping", "open_session", "close_session", "list_sessions", "query", "batch"
}


def encode_frame(payload: Dict[str, Any]) -> bytes:
    """Canonical newline-terminated wire bytes for one frame."""
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
            "utf-8"
        )
        + b"\n"
    )


def decode_frame(line: bytes, *, max_bytes: int = MAX_FRAME_BYTES) -> Dict[str, Any]:
    """Parse one wire line into a frame dict.

    Raises :class:`~repro.errors.FrameTooLargeError` past the size cap
    and :class:`~repro.errors.ProtocolError` for malformed JSON or a
    non-object payload.
    """
    if len(line) > max_bytes:
        raise FrameTooLargeError(
            f"frame of {len(line)} bytes exceeds the {max_bytes}-byte limit"
        )
    try:
        payload = json.loads(line)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def parse_request(frame: Dict[str, Any]) -> Dict[str, Any]:
    """Validate the request envelope (``op`` present and a string).

    Unknown operations are rejected by the service dispatcher, not
    here, so the service layer stays the single source of truth for
    the op table.
    """
    op = frame.get("op")
    if not isinstance(op, str) or not op:
        raise BadRequestError("request must carry a non-empty string 'op'")
    return frame


def ok_reply(request_id: Any, result: Dict[str, Any]) -> Dict[str, Any]:
    """Success envelope echoing the request id."""
    return {"id": request_id, "ok": True, "result": result}


def error_reply(
    request_id: Any,
    exc: Optional[BaseException] = None,
    *,
    code: Optional[str] = None,
    message: Optional[str] = None,
) -> Dict[str, Any]:
    """Failure envelope with a stable machine-readable code.

    Pass an exception (its :func:`repro.errors.error_code` is used) or
    an explicit ``code``/``message`` pair.
    """
    if exc is not None:
        code = code or error_code(exc)
        message = message or str(exc)
    if code is None:
        raise ValueError("error_reply needs an exception or a code")
    return {
        "id": request_id,
        "ok": False,
        "error": {"code": code, "message": message or ""},
    }


__all__ = [
    "MAX_FRAME_BYTES",
    "OPS",
    "encode_frame",
    "decode_frame",
    "parse_request",
    "ok_reply",
    "error_reply",
]
