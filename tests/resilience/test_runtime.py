"""DurableRuntime: log-then-apply, checkpoints, byte-identical recovery."""

import os

import pytest

from repro.algorithms.online import OnlineConfig
from repro.datasets.synthetic import small_world_latencies
from repro.errors import (
    CheckpointError,
    InvalidAssignmentError,
    InvalidParameterError,
    ResilienceError,
)
from repro.placement import random_placement
from repro.resilience import DegradePolicy, DurableRuntime, list_checkpoints
from repro.resilience.runtime import WAL_NAME, DurabilityConfig


@pytest.fixture
def matrix():
    return small_world_latencies(30, seed=4)


@pytest.fixture
def servers(matrix):
    return random_placement(matrix, 3, seed=1)


def client_nodes(matrix, servers, n):
    server_set = set(int(s) for s in servers)
    return [u for u in range(matrix.n_nodes) if u not in server_set][:n]


def churn(runtime, nodes):
    """A deterministic little workload touching every event kind."""
    for node in nodes[:6]:
        runtime.join(node)
    runtime.leave(nodes[1])
    runtime.crash(0)
    runtime.join(nodes[6])
    runtime.partition([1])
    runtime.leave(nodes[2])
    runtime.heal([1])
    runtime.recover_server(0)
    runtime.rebalance(max_moves=4)


class TestFreshStart:
    def test_genesis_record_written(self, tmp_path, matrix, servers):
        with DurableRuntime(tmp_path, matrix, servers) as runtime:
            assert runtime.applied_seq == 1
            assert runtime.health == "healthy"
        from repro.resilience import read_wal

        records = read_wal(tmp_path / WAL_NAME).records
        assert records[0].kind == "open"
        assert records[0].data["matrix_fingerprint"]

    def test_refuses_existing_wal(self, tmp_path, matrix, servers):
        DurableRuntime(tmp_path, matrix, servers).close()
        with pytest.raises(ResilienceError, match="already exists"):
            DurableRuntime(tmp_path, matrix, servers)

    def test_refuses_existing_checkpoints(self, tmp_path, matrix, servers):
        runtime = DurableRuntime(tmp_path, matrix, servers)
        runtime.checkpoint()
        runtime.close()
        os.unlink(tmp_path / WAL_NAME)
        with pytest.raises(ResilienceError, match="checkpoints already"):
            DurableRuntime(tmp_path, matrix, servers)


class TestEventApi:
    def test_join_leave(self, tmp_path, matrix, servers):
        nodes = client_nodes(matrix, servers, 2)
        with DurableRuntime(tmp_path, matrix, servers) as runtime:
            assert runtime.join(nodes[0]) == "assigned"
            assert runtime.n_clients == 1
            with pytest.raises(InvalidAssignmentError, match="already"):
                runtime.join(nodes[0])
            assert runtime.leave(nodes[0]) == "left"
            assert runtime.leave(nodes[1]) == "absent"

    def test_crash_recover_validation(self, tmp_path, matrix, servers):
        with DurableRuntime(tmp_path, matrix, servers) as runtime:
            runtime.crash(0)
            with pytest.raises(InvalidParameterError, match="already down"):
                runtime.crash(0)
            runtime.recover_server(0)
            with pytest.raises(InvalidParameterError, match="already up"):
                runtime.recover_server(0)

    def test_partition_heal_validation(self, tmp_path, matrix, servers):
        with DurableRuntime(tmp_path, matrix, servers) as runtime:
            runtime.partition([1])
            with pytest.raises(InvalidParameterError, match="unreachable"):
                runtime.partition([1])
            runtime.heal([1])
            with pytest.raises(InvalidParameterError, match="reachable"):
                runtime.heal([1])
            with pytest.raises(InvalidParameterError):
                runtime.partition([])

    def test_capacity_exhaustion_queues_then_rejects(
        self, tmp_path, matrix, servers
    ):
        nodes = client_nodes(matrix, servers, 5)
        policy = DegradePolicy(max_backlog=1)
        with DurableRuntime(
            tmp_path,
            matrix,
            servers,
            online=OnlineConfig(capacity=1),
            policy=policy,
        ) as runtime:
            assert [runtime.join(n) for n in nodes[:3]] == ["assigned"] * 3
            assert runtime.join(nodes[3]) == "queued"
            # Capacity is not a structural violation, so the same-event
            # tick already moved DEGRADED -> RECOVERING (waiting on a
            # leave to free a slot).
            assert runtime.health == "recovering"
            assert runtime.join(nodes[4]) == "rejected"
            assert runtime.leave(nodes[3]) == "dequeued"

    def test_total_outage_degrades_instead_of_raising(
        self, tmp_path, matrix, servers
    ):
        nodes = client_nodes(matrix, servers, 3)
        with DurableRuntime(tmp_path, matrix, servers) as runtime:
            for node in nodes:
                runtime.join(node)
            for s in range(3):
                runtime.crash(s)
            assert runtime.health == "degraded"
            assert runtime.n_clients == 0  # total outage sheds everyone
            assert runtime.join(nodes[0]) == "queued"
            runtime.recover_server(0)
            runtime.rebalance()  # RECOVERING drains on the next events
            assert runtime.health == "healthy"
            assert runtime.manager.is_connected(nodes[0])

    def test_closed_runtime_refuses_events(self, tmp_path, matrix, servers):
        runtime = DurableRuntime(tmp_path, matrix, servers)
        runtime.close()
        runtime.close()  # idempotent
        with pytest.raises(ResilienceError, match="closed"):
            runtime.join(client_nodes(matrix, servers, 1)[0])


class TestRecovery:
    def test_byte_identical_with_checkpoint(self, tmp_path, matrix, servers):
        nodes = client_nodes(matrix, servers, 8)
        runtime = DurableRuntime(
            tmp_path,
            matrix,
            servers,
            durability=DurabilityConfig(checkpoint_every=4),
        )
        churn(runtime, nodes)
        expected = runtime.digest()
        expected_d = runtime.current_d()
        runtime.abandon()
        assert list_checkpoints(tmp_path)  # cadence produced at least one

        recovered = DurableRuntime.recover(tmp_path, matrix)
        assert recovered.digest() == expected
        assert recovered.current_d() == expected_d
        recovered.close()

    def test_byte_identical_wal_only(self, tmp_path, matrix, servers):
        """checkpoint_every=None: recovery replays the whole log."""
        nodes = client_nodes(matrix, servers, 8)
        runtime = DurableRuntime(
            tmp_path,
            matrix,
            servers,
            durability=DurabilityConfig(checkpoint_every=None),
        )
        churn(runtime, nodes)
        expected = runtime.digest()
        runtime.abandon()
        assert not list_checkpoints(tmp_path)

        recovered = DurableRuntime.recover(tmp_path, matrix)
        assert recovered.digest() == expected
        recovered.close()

    def test_recovered_runtime_keeps_sequencing(
        self, tmp_path, matrix, servers
    ):
        nodes = client_nodes(matrix, servers, 8)
        runtime = DurableRuntime(tmp_path, matrix, servers)
        runtime.join(nodes[0])
        seq = runtime.applied_seq
        runtime.abandon()
        recovered = DurableRuntime.recover(tmp_path, matrix)
        assert recovered.applied_seq == seq
        recovered.join(nodes[1])
        assert recovered.applied_seq == seq + 1
        recovered.close()

    def test_torn_tail_is_truncated_on_recover(
        self, tmp_path, matrix, servers
    ):
        nodes = client_nodes(matrix, servers, 4)
        runtime = DurableRuntime(tmp_path, matrix, servers)
        for node in nodes:
            runtime.join(node)
        expected = runtime.digest()
        runtime.abandon()
        with open(tmp_path / WAL_NAME, "ab") as handle:
            handle.write(b'{"crc":"00000000","data"')
        with pytest.warns(RuntimeWarning, match="torn final record"):
            recovered = DurableRuntime.recover(tmp_path, matrix)
        assert recovered.digest() == expected
        recovered.close()

    def test_degrade_state_survives_recovery(self, tmp_path, matrix, servers):
        nodes = client_nodes(matrix, servers, 5)
        policy = DegradePolicy(max_backlog=4)
        runtime = DurableRuntime(
            tmp_path,
            matrix,
            servers,
            online=OnlineConfig(capacity=1),
            policy=policy,
        )
        for node in nodes[:3]:
            runtime.join(node)
        assert runtime.join(nodes[3]) == "queued"
        expected = runtime.digest()
        runtime.abandon()
        recovered = DurableRuntime.recover(tmp_path, matrix)
        assert recovered.digest() == expected
        assert recovered.health == "recovering"
        assert recovered.degrade.backlog == (nodes[3],)
        recovered.close()

    def test_matrix_fingerprint_mismatch(self, tmp_path, matrix, servers):
        DurableRuntime(tmp_path, matrix, servers).close()
        other = small_world_latencies(30, seed=5)
        with pytest.raises(CheckpointError, match="fingerprint"):
            DurableRuntime.recover(tmp_path, other)

    def test_empty_directory_raises(self, tmp_path, matrix):
        with pytest.raises(ResilienceError, match="nothing to recover"):
            DurableRuntime.recover(tmp_path, matrix)

    def test_damaged_newest_checkpoint_falls_back(
        self, tmp_path, matrix, servers
    ):
        nodes = client_nodes(matrix, servers, 8)
        runtime = DurableRuntime(
            tmp_path,
            matrix,
            servers,
            durability=DurabilityConfig(checkpoint_every=3, keep_checkpoints=3),
        )
        churn(runtime, nodes)
        expected = runtime.digest()
        runtime.abandon()
        checkpoints = list_checkpoints(tmp_path)
        assert len(checkpoints) >= 2
        with open(checkpoints[-1][1], "w", encoding="utf-8") as handle:
            handle.write("{corrupt")
        with pytest.warns(RuntimeWarning, match="skipping invalid"):
            recovered = DurableRuntime.recover(tmp_path, matrix)
        assert recovered.digest() == expected
        recovered.close()


class TestStateDict:
    def test_digest_changes_with_state(self, tmp_path, matrix, servers):
        nodes = client_nodes(matrix, servers, 2)
        with DurableRuntime(tmp_path, matrix, servers) as runtime:
            before = runtime.digest()
            runtime.join(nodes[0])
            after = runtime.digest()
        assert before != after

    def test_state_dict_is_json_safe(self, tmp_path, matrix, servers):
        import json

        nodes = client_nodes(matrix, servers, 3)
        with DurableRuntime(tmp_path, matrix, servers) as runtime:
            churn(runtime, nodes + client_nodes(matrix, servers, 8)[3:])
            state = runtime.state_dict()
        json.dumps(state)  # must not raise
        assert state["schema"] == 1


class TestBackendKeyInOldDirectories:
    """Directories written while the session config carried a kernel
    ``"backend"`` key (in the WAL ``open`` record and the checkpoint's
    state config) recover, whatever the key names."""

    @staticmethod
    def _later_events(runtime, nodes):
        """Replies to a few events after recovery."""
        return [
            runtime.join(nodes[7]),
            runtime.crash(1).to_dict(),
            runtime.leave(nodes[0]),
            runtime.recover_server(1).to_dict(),
            runtime.rebalance(max_moves=4),
            runtime.current_d(),
        ]

    @pytest.mark.parametrize("with_checkpoint", [True, False])
    @pytest.mark.parametrize("backend", ["auto", "numba"])
    def test_recovers_and_continues_like_a_fresh_runtime(
        self, tmp_path, matrix, servers, backend, with_checkpoint
    ):
        import copy

        from repro.resilience import (
            load_latest_checkpoint,
            read_wal,
            state_digest,
            write_checkpoint,
        )
        from repro.resilience.wal import WriteAheadLog

        nodes = client_nodes(matrix, servers, 8)
        source = tmp_path / "source"
        durability = DurabilityConfig(checkpoint_every=None)
        with DurableRuntime(
            source, matrix, servers, durability=durability
        ) as runtime:
            churn(runtime, nodes)
            if with_checkpoint:
                runtime.checkpoint()

        # The same directory as written with the key: the WAL re-encoded
        # record by record, and the checkpoint's config extended.
        old = tmp_path / "old"
        old.mkdir()
        with WriteAheadLog(old / WAL_NAME) as wal:
            for record in read_wal(source / WAL_NAME).records:
                data = dict(record.data)
                if record.kind == "open":
                    data["backend"] = backend
                wal.append(record.kind, data)
        state = None
        if with_checkpoint:
            checkpoint = load_latest_checkpoint(source)
            state = copy.deepcopy(checkpoint.state)
            state["config"]["backend"] = backend
            write_checkpoint(old, checkpoint.seq, state)
        assert read_wal(old / WAL_NAME).records[0].data["backend"] == backend

        recovered = DurableRuntime.recover(old, matrix)
        if state is not None:
            assert recovered.digest() == state_digest(state)
        fresh = DurableRuntime(
            None, matrix, servers, durability=DurabilityConfig(mode="off")
        )
        churn(fresh, nodes)
        assert self._later_events(recovered, nodes) == self._later_events(
            fresh, nodes
        )
        for part in ("applied_seq", "manager", "failover", "degrade"):
            assert recovered.state_dict()[part] == fresh.state_dict()[part]
        recovered.close()
        fresh.close()
