"""AssignmentService core: sessions, dispatch, error codes, queries."""

import pytest

from repro.algorithms.online import OnlineConfig
from repro.errors import BadRequestError
from repro.resilience.runtime import DurabilityConfig
from repro.service.core import AssignmentService, SessionConfig


@pytest.fixture()
def service():
    with AssignmentService() as svc:
        yield svc


@pytest.fixture()
def small_config():
    return SessionConfig(nodes=40, n_servers=4, online=OnlineConfig(capacity=6))


def _open(service, **params):
    reply = service.handle({"op": "open_session", "nodes": 40, "n_servers": 4, **params})
    assert reply["ok"], reply
    return reply["result"]["session"]


class TestSessionLifecycle:
    def test_ping(self, service):
        reply = service.handle({"id": 1, "op": "ping"})
        assert reply["ok"] and reply["result"]["pong"] is True
        assert reply["id"] == 1

    def test_open_returns_placement_and_fingerprint(self, service):
        reply = service.handle({"op": "open_session", "nodes": 40, "n_servers": 4})
        result = reply["result"]
        assert result["session"] == "s1"
        assert len(result["servers"]) == 4
        assert result["matrix_fingerprint"]
        assert result["durability"] == "off"
        assert result["wal"] is None

    def test_session_ids_monotonic(self, service):
        assert _open(service) == "s1"
        assert _open(service) == "s2"
        service.handle({"op": "close_session", "session": "s1"})
        assert _open(service) == "s3"

    def test_named_session_and_duplicate_rejected(self, service):
        reply = service.handle(
            {"op": "open_session", "session": "alpha", "nodes": 40, "n_servers": 4}
        )
        assert reply["result"]["session"] == "alpha"
        dup = service.handle(
            {"op": "open_session", "session": "alpha", "nodes": 40, "n_servers": 4}
        )
        assert not dup["ok"]
        assert dup["error"]["code"] == "session-state"

    def test_close_returns_final_stats(self, service):
        sid = _open(service)
        service.handle({"op": "join", "session": sid, "node": 1})
        reply = service.handle({"op": "close_session", "session": sid})
        assert reply["result"]["closed"] == sid
        assert reply["result"]["final"]["events"] == 1

    def test_list_sessions(self, service):
        _open(service)
        _open(service)
        reply = service.handle({"op": "list_sessions"})
        rows = reply["result"]["sessions"]
        assert [r["session"] for r in rows] == ["s1", "s2"]
        assert all(r["health"] == "healthy" for r in rows)

    def test_wal_session_has_wal_path(self, service):
        reply = service.handle(
            {"op": "open_session", "nodes": 40, "n_servers": 4, "durability": "wal"}
        )
        assert reply["result"]["durability"] == "wal"
        assert reply["result"]["wal"].endswith("events.wal")

    def test_matrix_cache_shared_across_sessions(self, service, small_config):
        first = service.open_session(small_config)
        second = service.open_session(small_config)
        assert first.matrix is second.matrix


class TestErrorReplies:
    def test_unknown_session(self, service):
        reply = service.handle({"op": "join", "session": "nope", "node": 1})
        assert not reply["ok"]
        assert reply["error"]["code"] == "unknown-session"

    def test_unknown_op(self, service):
        reply = service.handle({"op": "frobnicate"})
        assert reply["error"]["code"] == "unknown-op"

    def test_missing_op(self, service):
        reply = service.handle({"id": 4})
        assert reply["error"]["code"] == "bad-request"
        assert reply["id"] == 4

    def test_non_dict_request(self, service):
        reply = service.handle(["not", "a", "dict"])
        assert reply["error"]["code"] == "bad-request"

    def test_bad_param_types(self, service):
        sid = _open(service)
        assert (
            service.handle({"op": "join", "session": sid, "node": "x"})["error"]["code"]
            == "bad-request"
        )
        assert (
            service.handle({"op": "partition", "session": sid, "servers": []})[
                "error"
            ]["code"]
            == "bad-request"
        )

    def test_double_join_is_invalid_assignment(self, service):
        sid = _open(service)
        service.handle({"op": "join", "session": sid, "node": 1})
        reply = service.handle({"op": "join", "session": sid, "node": 1})
        assert reply["error"]["code"] == "invalid-assignment"

    def test_crash_down_server_is_invalid_parameter(self, service):
        sid = _open(service)
        service.handle({"op": "crash", "session": sid, "server": 0})
        reply = service.handle({"op": "crash", "session": sid, "server": 0})
        assert reply["error"]["code"] == "invalid-parameter"

    def test_unknown_session_parameter_rejected(self, service):
        reply = service.handle({"op": "open_session", "bogus_knob": 3})
        assert reply["error"]["code"] == "bad-request"
        assert "bogus_knob" in reply["error"]["message"]

    def test_shards_parameter_rejected(self, service):
        # Sessions run one manager; ``shards`` is not a session parameter.
        reply = service.handle({"op": "open_session", "nodes": 40, "shards": 2})
        assert reply["ok"] is False
        assert reply["error"]["code"] == "bad-request"
        assert "shards" in reply["error"]["message"]

    def test_fsync_every_parameter_rejected(self, service):
        # A WAL session fsyncs once per request; there is no interval knob.
        reply = service.handle(
            {"op": "open_session", "nodes": 40, "durability": "wal", "fsync_every": 8}
        )
        assert reply["ok"] is False
        assert reply["error"]["code"] == "bad-request"
        assert "fsync_every" in reply["error"]["message"]

    def test_handle_never_raises(self, service):
        # Every reply is an envelope, even for garbage.
        for request in (None, 42, {"op": None}, {"op": []}, {}):
            reply = service.handle(request)
            assert reply["ok"] is False


class TestEventsAndQueries:
    def test_join_assigns_to_server(self, service):
        sid = _open(service)
        reply = service.handle({"op": "join", "session": sid, "node": 2})
        result = reply["result"]
        assert result["outcome"] == "assigned"
        assert isinstance(result["server"], int)
        assert result["clients"] == 1
        assert result["health"] == "healthy"
        assert set(result) >= {"op", "outcome", "d", "clients", "health", "seq"}

    def test_leave_outcomes(self, service):
        sid = _open(service)
        service.handle({"op": "join", "session": sid, "node": 2})
        assert (
            service.handle({"op": "leave", "session": sid, "node": 2})["result"][
                "outcome"
            ]
            == "left"
        )
        assert (
            service.handle({"op": "leave", "session": sid, "node": 2})["result"][
                "outcome"
            ]
            == "absent"
        )

    def test_degraded_join_reply_is_structured(self, service):
        # Crash all but one server, then exhaust it: joins must surface
        # queued/rejected outcomes, not exceptions.
        reply = service.handle(
            {"op": "open_session", "nodes": 40, "n_servers": 2, "capacity": 1,
             "max_backlog": 2}
        )
        sid = reply["result"]["session"]
        service.handle({"op": "crash", "session": sid, "server": 0})
        outcomes = []
        for node in (1, 2, 3, 4, 5):
            result = service.handle({"op": "join", "session": sid, "node": node})
            assert result["ok"], result
            outcomes.append(result["result"]["outcome"])
        assert "queued" in outcomes or "rejected" in outcomes
        health = service.handle({"op": "query", "session": sid, "what": "health"})
        assert health["result"]["health"] in ("degraded", "recovering")
        backlog = service.handle({"op": "query", "session": sid, "what": "backlog"})
        assert isinstance(backlog["result"]["backlog"], list)

    def test_crash_recover_cycle(self, service):
        sid = _open(service)
        for node in range(1, 6):
            service.handle({"op": "join", "session": sid, "node": node})
        crash = service.handle({"op": "crash", "session": sid, "server": 0})
        assert crash["result"]["outcome"] == "crashed"
        assert crash["result"]["evacuated"] >= 0
        recover = service.handle({"op": "recover", "session": sid, "server": 0})
        assert recover["result"]["outcome"] == "recovered"

    def test_partition_heal_cycle(self, service):
        sid = _open(service)
        part = service.handle({"op": "partition", "session": sid, "servers": [1]})
        assert part["result"]["outcome"] == "partitioned"
        heal = service.handle({"op": "heal", "session": sid, "servers": [1]})
        assert heal["result"]["outcome"] == "healed"

    def test_query_d_and_digest_and_stats(self, service):
        sid = _open(service)
        service.handle({"op": "join", "session": sid, "node": 3})
        d = service.handle({"op": "query", "session": sid, "what": "d"})["result"]
        assert d["d_ms"] >= 0.0 and isinstance(d["d"], str)
        digest = service.handle({"op": "query", "session": sid, "what": "digest"})[
            "result"
        ]
        assert len(digest["digest"]) == 64
        stats = service.handle({"op": "query", "session": sid, "what": "stats"})[
            "result"
        ]
        assert stats["n_clients"] == 1
        assert stats["events"] == 1

    def test_query_interactivity(self, service):
        sid = _open(service)
        empty = service.handle(
            {"op": "query", "session": sid, "what": "interactivity"}
        )["result"]
        assert empty["lower_bound_ms"] is None
        service.handle({"op": "join", "session": sid, "node": 3})
        service.handle({"op": "join", "session": sid, "node": 5})
        result = service.handle(
            {"op": "query", "session": sid, "what": "interactivity"}
        )["result"]
        assert result["lower_bound_ms"] > 0
        assert result["normalized"] >= 1.0 - 1e-9

    def test_query_config_roundtrips(self, service, small_config):
        session = service.open_session(small_config)
        reply = service.handle(
            {"op": "query", "session": session.id, "what": "config"}
        )
        rebuilt = SessionConfig.from_dict(reply["result"]["config"])
        assert rebuilt == small_config

    def test_unknown_query(self, service):
        sid = _open(service)
        reply = service.handle({"op": "query", "session": sid, "what": "nope"})
        assert reply["error"]["code"] == "bad-request"


class TestBatch:
    def test_batch_applies_in_order(self, service):
        sid = _open(service)
        events = [
            {"op": "join", "node": 1},
            {"op": "join", "node": 2},
            {"op": "leave", "node": 1},
        ]
        reply = service.handle({"op": "batch", "session": sid, "events": events})
        results = reply["result"]["results"]
        assert [r["outcome"] for r in results] == ["assigned", "assigned", "left"]
        assert [r["seq"] for r in results] == [2, 3, 4]

    def test_batch_tolerates_bad_event_inline(self, service):
        sid = _open(service)
        events = [
            {"op": "join", "node": 1},
            {"op": "join", "node": 1},  # duplicate: inline error
            {"op": "join", "node": 2},
        ]
        reply = service.handle({"op": "batch", "session": sid, "events": events})
        results = reply["result"]["results"]
        assert results[0]["outcome"] == "assigned"
        assert results[1]["error"]["code"] == "invalid-assignment"
        assert results[2]["outcome"] == "assigned"

    def test_batch_rejects_non_event_ops(self, service):
        sid = _open(service)
        reply = service.handle(
            {"op": "batch", "session": sid, "events": [{"op": "close_session"}]}
        )
        assert reply["error"]["code"] == "bad-request"

    def test_batch_needs_event_list(self, service):
        sid = _open(service)
        reply = service.handle({"op": "batch", "session": sid, "events": "nope"})
        assert reply["error"]["code"] == "bad-request"

    @pytest.mark.parametrize("durability", ["off", "wal"])
    @pytest.mark.parametrize(
        "bad", [7, {"op": "bogus"}, {"node": 3}, {"op": ["join"], "node": 3}]
    )
    def test_refused_batch_applies_nothing(self, service, durability, bad):
        """A batch refused for a malformed event leaves the session as
        it was, even when valid events come before the bad one."""
        sid = _open(service, durability=durability)
        service.handle(
            {"op": "batch", "session": sid, "events": [{"op": "join", "node": 5}]}
        )
        session = service.session(sid)
        wal_path = session.runtime.wal.path

        def state():
            digest = service.handle({"op": "query", "session": sid, "what": "digest"})
            stats = service.handle({"op": "query", "session": sid, "what": "stats"})
            if wal_path is None:
                wal_bytes = None
            else:
                session.runtime.wal.sync()
                with open(wal_path, "rb") as fh:
                    wal_bytes = fh.read()
            return (
                digest["result"],
                stats["result"]["n_clients"],
                session.events,
                wal_bytes,
            )

        before = state()
        events = [{"op": "join", "node": 1}, {"op": "join", "node": 2}, bad]
        reply = service.handle({"op": "batch", "session": sid, "events": events})
        assert reply["error"]["code"] == "bad-request"
        assert state() == before
        assert before[0]["seq"] == 2 and before[1] == 1


class TestServiceLifecycle:
    def test_close_is_idempotent_and_final(self):
        svc = AssignmentService()
        svc.handle({"op": "open_session", "nodes": 40, "n_servers": 4})
        svc.close()
        svc.close()
        reply = svc.handle({"op": "ping"})
        assert reply["ok"]  # ping still works
        reply = svc.handle({"op": "open_session", "nodes": 40, "n_servers": 4})
        assert reply["error"]["code"] == "session-state"

    def test_wal_base_dir_cleanup(self, tmp_path):
        base = tmp_path / "svc"
        with AssignmentService(base_dir=str(base)) as svc:
            reply = svc.handle(
                {"op": "open_session", "nodes": 40, "n_servers": 4,
                 "durability": "wal"}
            )
            assert reply["ok"]
            assert (base / "s1" / "events.wal").exists()
        # Caller-provided base dir is preserved on close.
        assert base.exists()

    def test_default_config_merge(self):
        default = SessionConfig(nodes=40, n_servers=4)
        with AssignmentService(default_config=default) as svc:
            reply = svc.handle({"op": "open_session", "capacity": 3})
            result = reply["result"]
            session = svc.session(result["session"])
            assert session.config.nodes == 40
            assert session.config.online.capacity == 3
