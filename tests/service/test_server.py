"""The asyncio server: concurrency, frame robustness, lifecycle."""

import logging
import threading

import pytest

from repro.service.client import RemoteError, ServiceClient
from repro.service.protocol import encode_frame
from repro.service.server import ServerThread
from repro.service.workload import generate_events


@pytest.fixture()
def server():
    with ServerThread() as (host, port):
        yield host, port


def _open(client, **params):
    return client.open_session(nodes=40, n_servers=4, **params)["session"]


class TestBasics:
    def test_ping_over_wire(self, server):
        host, port = server
        with ServiceClient(host, port) as client:
            result = client.ping()
            assert result["pong"] is True

    def test_error_replies_carry_codes(self, server):
        host, port = server
        with ServiceClient(host, port) as client:
            with pytest.raises(RemoteError) as info:
                client.call("join", session="ghost", node=1)
            assert info.value.code == "unknown-session"

    def test_two_clients_share_sessions(self, server):
        host, port = server
        with ServiceClient(host, port) as a, ServiceClient(host, port) as b:
            sid = _open(a)
            # b sees and can drive the session a opened.
            rows = b.call("list_sessions")["sessions"]
            assert [r["session"] for r in rows] == [sid]
            result = b.call("join", session=sid, node=1)
            assert result["outcome"] == "assigned"
            assert a.query(sid)["n_clients"] == 1


class TestFrameRobustness:
    def test_malformed_json_keeps_connection_open(self, server):
        host, port = server
        with ServiceClient(host, port) as client:
            client.send_raw(b"{this is not json}\n")
            reply = client.recv()
            assert reply["ok"] is False
            assert reply["error"]["code"] == "bad-frame"
            # The connection survived: a normal request still works.
            assert client.ping()["pong"] is True

    def test_non_object_frame_rejected(self, server):
        host, port = server
        with ServiceClient(host, port) as client:
            client.send_raw(b"[1,2,3]\n")
            assert client.recv()["error"]["code"] == "bad-frame"
            assert client.ping()["pong"] is True

    def test_oversized_frame_rejected_and_stream_resyncs(self, server):
        host, port = server
        small_cap = 4096
        with ServerThread(max_frame_bytes=small_cap) as (host, port):
            with ServiceClient(host, port) as client:
                blob = {"op": "ping", "pad": "x" * (small_cap * 2)}
                client.send_raw(encode_frame(blob))
                reply = client.recv()
                assert reply["error"]["code"] == "frame-too-large"
                # Stream re-synchronized at the newline boundary.
                assert client.ping()["pong"] is True

    def test_batch_of_garbage_then_work(self, server):
        host, port = server
        with ServiceClient(host, port) as client:
            for payload in (b"\n", b"null\n", b'"x"\n', b"12\n"):
                client.send_raw(payload)
            replies = client.drain()
            assert all(r["ok"] is False for r in replies)
            sid = _open(client)
            assert client.call("join", session=sid, node=1)["outcome"] == "assigned"


class TestConcurrentSessions:
    N_CLIENTS = 6
    EVENTS_EACH = 400

    def test_concurrent_multi_session_stress(self, server):
        """Many threads, each its own connection + session + workload.

        Sessions are independent worlds sharing one server (and one
        cached matrix), so per-session results must equal a serial run
        of the same seeded workload.
        """
        host, port = server
        digests = {}
        errors = []

        def drive(worker: int) -> None:
            try:
                with ServiceClient(host, port) as client:
                    opened = client.open_session(
                        nodes=60, n_servers=5, capacity=8
                    )
                    sid = opened["session"]
                    servers = [int(s) for s in opened["servers"]]
                    events = generate_events(
                        60,
                        servers,
                        n_events=self.EVENTS_EACH,
                        seed=worker,
                        fault_every=97,
                    )
                    for start in range(0, len(events), 100):
                        client.batch(sid, events[start : start + 100])
                    digests[worker] = client.query(sid, "digest")["digest"]
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append((worker, exc))

        threads = [
            threading.Thread(target=drive, args=(w,))
            for w in range(self.N_CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not errors, errors
        assert len(digests) == self.N_CLIENTS
        # Same seed -> same digest, regardless of interleaving: workers
        # with equal seeds would agree; here all differ, so check
        # against a serial re-run instead.
        with ServiceClient(host, port) as client:
            for worker in range(self.N_CLIENTS):
                opened = client.open_session(nodes=60, n_servers=5, capacity=8)
                sid = opened["session"]
                servers = [int(s) for s in opened["servers"]]
                events = generate_events(
                    60,
                    servers,
                    n_events=self.EVENTS_EACH,
                    seed=worker,
                    fault_every=97,
                )
                for start in range(0, len(events), 100):
                    client.batch(sid, events[start : start + 100])
                assert client.query(sid, "digest")["digest"] == digests[worker]
                client.close_session(sid)

    def test_interleaved_requests_are_totally_ordered(self, server):
        # Two connections hammering ONE session: every event gets a
        # distinct, gapless sequence number.
        host, port = server
        with ServiceClient(host, port) as a, ServiceClient(host, port) as b:
            sid = _open(a, capacity=None)
            seen = []
            lock = threading.Lock()

            def drive(client, nodes):
                for node in nodes:
                    join = client.call("join", session=sid, node=node)
                    leave = client.call("leave", session=sid, node=node)
                    with lock:
                        seen.extend([join["seq"], leave["seq"]])

            t1 = threading.Thread(target=drive, args=(a, range(1, 16)))
            t2 = threading.Thread(target=drive, args=(b, range(16, 31)))
            t1.start(); t2.start()
            t1.join(30); t2.join(30)
            assert sorted(seen) == list(range(2, 62))


class TestLifecycle:
    def test_server_thread_restart_rejected(self):
        st = ServerThread()
        st.start()
        with pytest.raises(RuntimeError):
            st.start()
        st.stop()
        st.stop()  # idempotent

    def test_owned_service_closed_on_stop(self):
        st = ServerThread()
        host, port = st.start()
        with ServiceClient(host, port) as client:
            _open(client)
        st.stop()
        assert st.server.service._closed

    def test_stop_with_connected_client_logs_no_error(self, caplog):
        st = ServerThread()
        host, port = st.start()
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with ServiceClient(host, port) as client:
                assert client.ping()["pong"] is True
                st.stop()  # the client is still connected
        assert [r for r in caplog.records if r.name == "asyncio"] == []
