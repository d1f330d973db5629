"""OnlineConfig: validation, serialization, and manager construction."""

import warnings

import pytest

from repro.algorithms.online import OnlineAssignmentManager, OnlineConfig
from repro.datasets import synthesize_meridian_like
from repro.errors import InvalidParameterError
from repro.placement import kcenter_b


@pytest.fixture(scope="module")
def small_world():
    matrix = synthesize_meridian_like(30, seed=0)
    servers = kcenter_b(matrix, 3, seed=0)
    return matrix, servers


class TestValidation:
    def test_defaults(self):
        config = OnlineConfig()
        assert config.capacity is None
        assert config.join_policy == "greedy"

    def test_bad_capacity(self):
        with pytest.raises(InvalidParameterError):
            OnlineConfig(capacity=0)

    def test_bad_policy(self):
        with pytest.raises(InvalidParameterError):
            OnlineConfig(join_policy="wishful")

    def test_frozen(self):
        with pytest.raises(Exception):
            OnlineConfig().capacity = 5

    def test_roundtrip(self):
        """``to_dict`` keys are the constructor's keywords."""
        config = OnlineConfig(capacity=7, join_policy="nearest")
        assert OnlineConfig(**config.to_dict()) == config


class TestManagerConstruction:
    def test_config_object_is_primary_api(self, small_world):
        matrix, servers = small_world
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            manager = OnlineAssignmentManager(
                matrix, servers, OnlineConfig(capacity=4)
            )
        assert manager.config.capacity == 4


class TestEngineKnobs:
    """The engine's top_k knob."""

    def test_defaults(self):
        from repro.core import DEFAULT_TOP_K

        config = OnlineConfig()
        assert config.top_k == DEFAULT_TOP_K

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            OnlineConfig(top_k=1)

    def test_roundtrip_includes_knobs(self):
        config = OnlineConfig(top_k=5)
        data = config.to_dict()
        assert data["top_k"] == 5
        assert OnlineConfig(**data) == config

    def test_manager_threads_knobs_to_engine(self, small_world):
        matrix, servers = small_world
        manager = OnlineAssignmentManager(
            matrix, servers, OnlineConfig(top_k=4)
        )
        manager.join(0)
        manager.join(1)
        assert manager.current_d() >= 0.0
        assert manager._engine._k == 4
