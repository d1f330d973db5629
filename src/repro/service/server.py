"""The asyncio TCP front end for :class:`AssignmentService`.

:class:`AssignmentServer` accepts JSON-lines connections and funnels
every decoded request — from any number of concurrent connections —
into a single synchronous
:meth:`~repro.service.core.AssignmentService.handle` call on the event
loop. That is deliberate: requests are applied in arrival order, each
session's history is a total order, and the server adds *nothing* to
the service semantics beyond framing — which is what makes the wire
path and the in-process path output-equivalent.

Framing errors are survivable: an oversized or malformed line draws a
structured error reply (``frame-too-large`` / ``bad-frame``) and the
connection stays open, with the oversized line drained so the stream
re-synchronizes at the next newline.

:class:`ServerThread` hosts a server (with its own event loop) in a
daemon thread on an ephemeral port — the embedding used by the tests,
the load generator's ``--spawn`` mode, and the CI smoke job.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Optional, Set, Tuple

from repro.errors import FrameTooLargeError, ProtocolError, ReproError
from repro.obs import registry
from repro.service.core import AssignmentService
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    decode_frame,
    encode_frame,
    error_reply,
)


class AssignmentServer:
    """Serve an :class:`AssignmentService` over TCP JSON-lines.

    Parameters
    ----------
    service:
        The service core to expose; a fresh one is created (and owned,
        i.e. closed with the server) when omitted.
    host, port:
        Bind address; port ``0`` picks an ephemeral port, readable
        from :attr:`address` after :meth:`start`.
    max_frame_bytes:
        Per-line size cap (default :data:`MAX_FRAME_BYTES`).
    """

    def __init__(
        self,
        service: Optional[AssignmentService] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ) -> None:
        self.service = service or AssignmentService()
        self._owns_service = service is None
        self._host = host
        self._port = port
        self._max_frame_bytes = int(max_frame_bytes)
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[asyncio.StreamWriter] = set()

    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return str(host), int(port)

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound address."""
        if self._server is not None:
            raise RuntimeError("server is already started")
        # The reader limit must exceed the frame cap so an oversized
        # line surfaces as a LimitOverrunError we can answer, instead
        # of being silently legal.
        self._server = await asyncio.start_server(
            self._serve_connection,
            self._host,
            self._port,
            limit=self._max_frame_bytes + 1,
        )
        return self.address

    async def serve_forever(self) -> None:
        """Run until cancelled (call :meth:`start` first)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, close client connections and the listening
        sockets."""
        if self._server is not None:
            self._close()
            await self._server.wait_closed()
            self._server = None
        if self._owns_service:
            self.service.close()

    def _close(self) -> None:
        """Stop accepting and close every client connection.

        Each connection handler then reads end of stream and returns,
        so shutdown cancels no handler mid-read.
        """
        if self._server is not None:
            self._server.close()
        for writer in tuple(self._connections):
            writer.close()

    # ------------------------------------------------------------------
    async def _serve_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        metrics = registry()
        metrics.counter("service.connections").inc()
        self._connections.add(writer)
        try:
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as exc:
                    # EOF. A non-empty partial line without a trailing
                    # newline still deserves an answer-less close: the
                    # peer hung up mid-frame.
                    if exc.partial:
                        metrics.counter("service.torn_frames").inc()
                    break
                except asyncio.LimitOverrunError:
                    await self._drain_oversized(reader)
                    metrics.counter("service.oversized_frames").inc()
                    writer.write(
                        encode_frame(
                            error_reply(
                                None,
                                FrameTooLargeError(
                                    f"frame exceeds the "
                                    f"{self._max_frame_bytes}-byte limit"
                                ),
                            )
                        )
                    )
                    await writer.drain()
                    continue
                reply = self._reply_for(line)
                writer.write(encode_frame(reply))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def _reply_for(self, line: bytes) -> dict:
        """Decode one line and serve it; never raises."""
        try:
            frame = decode_frame(line, max_bytes=self._max_frame_bytes)
        except (ProtocolError, FrameTooLargeError) as exc:
            registry().counter("service.bad_frames").inc()
            return error_reply(None, exc)
        except ReproError as exc:  # pragma: no cover - defensive
            return error_reply(None, exc)
        # The service guarantees handle() never raises.
        return self.service.handle(frame)

    async def _drain_oversized(self, reader: asyncio.StreamReader) -> None:
        """Discard buffered bytes up to and including the next newline."""
        while True:
            chunk = await reader.read(self._max_frame_bytes)
            if not chunk or chunk.endswith(b"\n") or b"\n" in chunk:
                return


class ServerThread:
    """A live :class:`AssignmentServer` on a daemon thread.

    Runs its own event loop; :meth:`start` blocks until the ephemeral
    port is bound and returns the address. Usable as a context
    manager::

        with ServerThread() as (host, port):
            client = ServiceClient(host, port)
    """

    def __init__(
        self,
        service: Optional[AssignmentService] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ) -> None:
        self.server = AssignmentServer(
            service, host=host, port=port, max_frame_bytes=max_frame_bytes
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._address: Optional[Tuple[str, int]] = None
        self._startup_error: Optional[BaseException] = None

    @property
    def address(self) -> Tuple[str, int]:
        if self._address is None:
            raise RuntimeError("server thread is not started")
        return self._address

    def start(self, timeout: float = 10.0) -> Tuple[str, int]:
        """Start the loop thread; block until the server is bound."""
        if self._thread is not None:
            raise RuntimeError("server thread is already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("server thread failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError(
                f"server failed to start: {self._startup_error}"
            ) from self._startup_error
        assert self._address is not None
        return self._address

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)

        async def main() -> None:
            try:
                self._address = await self.server.start()
            except BaseException as exc:
                self._startup_error = exc
                self._started.set()
                return
            self._started.set()
            assert self.server._server is not None
            try:
                await self.server._server.serve_forever()
            except asyncio.CancelledError:
                pass
            # stop() closed every connection: let the handlers finish
            # at end of stream before the loop closes. Cancel only one
            # that outlasts the grace period (a peer not reading).
            current = asyncio.current_task()
            handlers = [t for t in asyncio.all_tasks() if t is not current]
            if handlers:
                _done, stuck = await asyncio.wait(handlers, timeout=5.0)
                for task in stuck:
                    task.cancel()
                await asyncio.gather(*stuck, return_exceptions=True)
            await self.server.stop()

        try:
            loop.run_until_complete(main())
        finally:
            loop.close()

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the server and join the thread (idempotent)."""
        loop, thread = self._loop, self._thread
        if loop is None or thread is None:
            return
        if thread.is_alive():
            # Closing the listener ends serve_forever() in the loop.
            loop.call_soon_threadsafe(self.server._close)
            thread.join(timeout)
        self._loop = None
        self._thread = None

    def __enter__(self) -> Tuple[str, int]:
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


__all__ = ["AssignmentServer", "ServerThread"]
