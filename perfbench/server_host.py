"""Host the assignment server for the serve workloads.

Usage: ``python3 perfbench/server_host.py --base-dir DIR [--trace 1] [--spans PATH]``

Starts :class:`repro.service.AssignmentServer` on an ephemeral
localhost port and prints ``PORT <n>``. Control commands arrive one per
line on standard input and run on the server's event loop, after every
request already received; each is answered by one line ``DONE <json>``:

- ``reset``: forget the layer totals recorded so far (answers ``{}``);
- ``report``: peak RSS and, when tracing, per-layer self seconds and
  call counts.

With ``--trace 1`` the layer wrappers and a :class:`tracing.LayerSink`
are installed before the server starts; ``--spans`` also writes the
first spans as a JSON-lines trace. End of input stops the server.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import threading
from typing import Optional

from common import peak_rss_mib
from layers import LAYER_OF_SPAN, install_serve
from tracing import LayerSink


def _answer(line: str, sink: Optional[LayerSink]) -> dict:
    if line == "reset":
        if sink is not None:
            sink.reset()
        return {}
    if line == "report":
        answer = {"peak_rss_mib": peak_rss_mib()}
        if sink is not None:
            answer["layer_seconds"] = dict(sink.self_seconds)
            answer["layer_calls"] = dict(sink.calls)
        return answer
    return {"error": f"unknown command {line!r}"}


async def _serve(base_dir: str, sink: Optional[LayerSink]) -> None:
    from repro.service import AssignmentServer, AssignmentService

    service = AssignmentService(base_dir=base_dir)
    server = AssignmentServer(service, host="127.0.0.1", port=0)
    _host, port = await server.start()
    loop = asyncio.get_running_loop()
    stopped = asyncio.Event()

    def command(line: str) -> None:
        print("DONE " + json.dumps(_answer(line, sink)), flush=True)

    def read_commands() -> None:
        for raw in sys.stdin:
            loop.call_soon_threadsafe(command, raw.strip())
        loop.call_soon_threadsafe(stopped.set)

    print(f"PORT {port}", flush=True)
    reader = threading.Thread(target=read_commands, daemon=True)
    reader.start()
    try:
        await stopped.wait()
        # Clients hang up before closing our input: let their connection
        # handlers see end of stream and finish instead of being cancelled.
        handlers = asyncio.all_tasks() - {asyncio.current_task()}
        if handlers:
            await asyncio.wait(handlers, timeout=10)
    finally:
        await server.stop()
        service.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base-dir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="JSON-lines span sample path")
    args = parser.parse_args()
    sink = None
    if args.trace:
        from repro.obs import install_sink, uninstall_sink

        install_serve()
        sink = LayerSink(LAYER_OF_SPAN, sample_path=args.spans)
        install_sink(sink)
    try:
        asyncio.run(_serve(args.base_dir, sink))
    finally:
        if sink is not None:
            uninstall_sink()
    return 0


if __name__ == "__main__":
    sys.exit(main())
