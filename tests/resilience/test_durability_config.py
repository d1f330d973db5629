"""DurabilityConfig: validation, volatile mode, and runtime construction."""

import pytest

from repro.algorithms.online import OnlineConfig
from repro.datasets import synthesize_meridian_like
from repro.errors import InvalidParameterError, ResilienceError
from repro.placement import kcenter_b
from repro.resilience.runtime import DurabilityConfig, DurableRuntime


@pytest.fixture(scope="module")
def small_world():
    matrix = synthesize_meridian_like(30, seed=0)
    servers = kcenter_b(matrix, 3, seed=0)
    return matrix, servers


class TestValidation:
    def test_defaults_are_wal(self):
        config = DurabilityConfig()
        assert config.mode == "wal"
        assert config.durable

    def test_off_mode(self):
        assert not DurabilityConfig(mode="off").durable

    def test_bad_mode(self):
        with pytest.raises(InvalidParameterError):
            DurabilityConfig(mode="ram")

    def test_bad_intervals(self):
        with pytest.raises(InvalidParameterError):
            DurabilityConfig(checkpoint_every=-1)
        with pytest.raises(InvalidParameterError):
            DurabilityConfig(keep_checkpoints=0)

    def test_roundtrip(self):
        config = DurabilityConfig(mode="off", checkpoint_every=None, keep_checkpoints=3)
        assert config.to_dict() == {
            "mode": "off",
            "checkpoint_every": None,
            "keep_checkpoints": 3,
        }


class TestRuntimeConstruction:
    def test_wal_mode_requires_directory(self, small_world):
        matrix, servers = small_world
        with pytest.raises(InvalidParameterError, match="directory"):
            DurableRuntime(None, matrix, servers)

    def test_volatile_mode_needs_no_directory(self, small_world):
        matrix, servers = small_world
        with DurableRuntime(
            None, matrix, servers, durability=DurabilityConfig(mode="off")
        ) as runtime:
            assert runtime.directory is None
            assert runtime.wal.path is None
            assert runtime.join(1) == "assigned"
            assert runtime.applied_seq == 2

    def test_recover_refuses_off_mode(self, small_world, tmp_path):
        matrix, servers = small_world
        with pytest.raises(InvalidParameterError, match="off"):
            DurableRuntime.recover(
                tmp_path, matrix, durability=DurabilityConfig(mode="off")
            )

    def test_online_config_forwarded(self, small_world):
        matrix, servers = small_world
        with DurableRuntime(
            None,
            matrix,
            servers,
            online=OnlineConfig(capacity=2, join_policy="nearest"),
            durability=DurabilityConfig(mode="off"),
        ) as runtime:
            assert runtime.online_config.capacity == 2
            assert runtime.online_config.join_policy == "nearest"


class TestCrossModeIdentity:
    def test_volatile_digest_equals_wal_digest(self, small_world, tmp_path):
        """The whole point of _NullWal: durability must not perturb a
        single byte of observable state."""
        matrix, servers = small_world
        volatile = DurableRuntime(
            None, matrix, servers, durability=DurabilityConfig(mode="off")
        )
        durable = DurableRuntime(
            tmp_path / "twin",
            matrix,
            servers,
            durability=DurabilityConfig(checkpoint_every=3),
        )
        ops = [
            ("join", 1), ("join", 2), ("join", 5), ("crash", 0),
            ("join", 7), ("leave", 2), ("recover", 0), ("leave", 9),
        ]
        for op, arg in ops:
            for runtime in (volatile, durable):
                if op == "join":
                    runtime.join(arg)
                elif op == "leave":
                    runtime.leave(arg)
                elif op == "crash":
                    runtime.crash(arg)
                else:
                    runtime.recover_server(arg)
            assert volatile.digest() == durable.digest()
        durable.close()
        # ...and the durable twin recovers from disk to the same digest.
        recovered = DurableRuntime.recover(tmp_path / "twin", matrix)
        assert recovered.digest() == volatile.digest()
        recovered.close()
        volatile.close()

    def test_volatile_runtime_closed_semantics(self, small_world):
        matrix, servers = small_world
        runtime = DurableRuntime(
            None, matrix, servers, durability=DurabilityConfig(mode="off")
        )
        runtime.close()
        with pytest.raises(ResilienceError):
            runtime.join(1)
