"""Tests for repro.utils (rng, timing shim, validation)."""

import time

import numpy as np
import pytest

from repro.obs.timing import Stopwatch
from repro.utils.rng import derive_seed, ensure_rng, spawn_rngs
from repro.utils.validation import require, require_in_range, require_positive


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_deterministic(self):
        a = ensure_rng(42).integers(0, 1000, size=5)
        b = ensure_rng(42).integers(0, 1000, size=5)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        rng = np.random.default_rng(0)
        assert ensure_rng(rng) is rng

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(7)
        rng = ensure_rng(seq)
        assert isinstance(rng, np.random.Generator)


class TestSpawnRngs:
    def test_count_and_independence(self):
        rngs = spawn_rngs(1, 4)
        assert len(rngs) == 4
        draws = [r.integers(0, 10**9) for r in rngs]
        assert len(set(draws)) == 4

    def test_reproducible(self):
        a = [r.integers(0, 10**9) for r in spawn_rngs(5, 3)]
        b = [r.integers(0, 10**9) for r in spawn_rngs(5, 3)]
        assert a == b

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_generator_seed_accepted(self):
        rngs = spawn_rngs(np.random.default_rng(0), 2)
        assert len(rngs) == 2


class TestDeriveSeed:
    def test_none_passthrough(self):
        assert derive_seed(None, 1, 2) is None

    def test_stable(self):
        assert derive_seed(10, 3, 4) == derive_seed(10, 3, 4)

    def test_components_matter(self):
        assert derive_seed(10, 3, 4) != derive_seed(10, 4, 3)

    def test_nonnegative(self):
        assert derive_seed(10, 99) >= 0


class TestStopwatch:
    def test_measures_elapsed(self):
        with Stopwatch() as sw:
            time.sleep(0.01)
        assert sw.elapsed >= 0.009

    def test_frozen_after_exit(self):
        with Stopwatch() as sw:
            pass
        first = sw.elapsed
        time.sleep(0.005)
        assert sw.elapsed == first

    def test_live_while_running(self):
        sw = Stopwatch()
        with sw:
            time.sleep(0.005)
            assert sw.elapsed > 0.0


class TestTimingShim:
    """``repro.utils`` still re-exports the moved :class:`Stopwatch`."""

    def test_package_reexport_still_works(self):
        from repro.utils import Stopwatch as reexported

        assert reexported is Stopwatch


class TestValidation:
    def test_require_passes_and_fails(self):
        require(True, "fine")
        with pytest.raises(ValueError, match="boom"):
            require(False, "boom")

    def test_require_custom_error(self):
        with pytest.raises(KeyError):
            require(False, "boom", error=KeyError)

    def test_require_positive(self):
        require_positive(1, "x")
        with pytest.raises(ValueError):
            require_positive(0, "x")

    def test_require_in_range(self):
        require_in_range(5, 0, 10, "x")
        with pytest.raises(ValueError):
            require_in_range(11, 0, 10, "x")
