"""A WAL session killed right after a reply recovers every acknowledged event.

The reply is the commit point: once ``handle`` returns, everything the
reply acknowledges is on disk. The session directory is copied as the
OS holds it — no ``close``, no ``abandon``, so nothing is flushed on
the way out — and recovered from the copy, as a process killed after
replying would be.
"""

import shutil

import pytest

from repro.resilience.runtime import DurableRuntime
from repro.service.core import AssignmentService
from repro.service.workload import generate_events


@pytest.fixture()
def service(tmp_path):
    with AssignmentService(base_dir=str(tmp_path / "sessions")) as svc:
        yield svc


def _open_wal_session(service):
    reply = service.handle(
        {"op": "open_session", "session": "w", "durability": "wal"}
    )
    assert reply["ok"], reply
    return service.session("w"), reply["result"]["servers"]


def _recover_copy(service, session, tmp_path):
    """Recover a copy of the session directory taken as it stands."""
    copy = tmp_path / "killed"
    shutil.copytree(session.runtime.directory, copy)
    digest = service.handle({"op": "query", "session": "w", "what": "digest"})
    recovered = DurableRuntime.recover(copy, session.matrix)
    try:
        return recovered.applied_seq, recovered.digest(), digest["result"]
    finally:
        recovered.close()


def test_batch_reply_is_durable(service, tmp_path):
    session, servers = _open_wal_session(service)
    events = generate_events(
        session.config.nodes,
        servers,
        n_events=103,
        seed=3,
        fault_every=37,
        partition_every=41,
        rebalance_every=50,
    )
    reply = service.handle({"op": "batch", "session": "w", "events": events})
    assert reply["ok"], reply
    last_seq = reply["result"]["results"][-1]["seq"]
    assert last_seq == 104  # the genesis record, then 103 events
    applied_seq, digest, expected = _recover_copy(service, session, tmp_path)
    assert applied_seq == last_seq == expected["seq"]
    assert digest == expected["digest"]


def test_single_event_reply_is_durable(service, tmp_path):
    session, _servers = _open_wal_session(service)
    node = next(
        n for n in range(session.config.nodes)
        if n not in session.runtime.manager.server_nodes
    )
    reply = service.handle({"op": "join", "session": "w", "node": node})
    assert reply["ok"], reply
    applied_seq, digest, expected = _recover_copy(service, session, tmp_path)
    assert applied_seq == reply["result"]["seq"] == expected["seq"]
    assert digest == expected["digest"]
