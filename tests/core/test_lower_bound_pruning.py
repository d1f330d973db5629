"""Exactness of the pruned pair scan in ``interaction_lower_bound``.

The second min-plus product skips rows and columns whose upper bound
cannot beat the running maximum. Both bounds hold for the computed
(rounded) sums, so the result must equal brute force bit for bit, not
approximately. At test sizes every client fits in one block of the
scan, so these tests shrink the module's block budget to a handful of
cells: that makes the row early-stop and the column drop fire on small
instances.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    ClientAssignmentProblem,
    interaction_lower_bound,
    interaction_lower_bound_bruteforce,
)
from repro.core import lower_bound as lower_bound_module
from repro.errors import InvalidParameterError
from repro.net.latency import LatencyMatrix

SETTINGS = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Block budgets for the pair scan: one row per block up to the default.
CELLS = [1, 4, 64, lower_bound_module._PAIR_CELLS]

KINDS = ["int-symmetric", "int-asymmetric", "float32-int", "float32", "float64"]


def _matrix(kind: str, n: int, high: int, rng: np.random.Generator) -> np.ndarray:
    if kind in ("float32", "float64"):
        d = rng.uniform(1.0, 100.0, size=(n, n))
    else:
        # Few distinct integer values: many tied pair values and bounds.
        d = rng.integers(1, high + 1, size=(n, n)).astype(np.float64)
    if kind == "int-symmetric":
        d = np.minimum(d, d.T)
    if kind.startswith("float32"):
        d = d.astype(np.float32)
    np.fill_diagonal(d, 0)
    return d


@st.composite
def instances(draw):
    n = draw(st.integers(min_value=1, max_value=16))
    kind = draw(st.sampled_from(KINDS))
    high = draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    matrix = LatencyMatrix(_matrix(kind, n, high, rng))
    n_servers = draw(st.integers(min_value=1, max_value=n))
    n_clients = draw(st.integers(min_value=1, max_value=n))
    servers = rng.choice(n, size=n_servers, replace=False)
    clients = rng.choice(n, size=n_clients, replace=False)
    return kind, ClientAssignmentProblem(matrix, servers, clients)


def _pair_values(problem: ClientAssignmentProblem):
    """Unpruned factored form: the (C, C) pair values and both bounds.

    Rounds like the library: the first product in the matrix dtype,
    the second in float64.
    """
    cs, ss, sc = problem.client_server, problem.server_server, problem.server_client
    a = (cs[:, :, None] + ss[None, :, :]).min(axis=1).astype(np.float64)
    pairs = (a[:, :, None] + sc[None, :, :]).min(axis=1)
    row_ub = (a + sc.max(axis=1)[None, :]).min(axis=1)
    col_ub = (a.max(axis=0)[:, None] + sc).min(axis=0)
    return pairs, row_ub, col_ub


def _assert_exact(kind: str, problem, lb: float) -> None:
    assert lb == _pair_values(problem)[0].max()
    if kind != "float32":
        # Brute force rounds the whole path in the matrix dtype; it
        # agrees exactly wherever that rounding is the same as the
        # library's (float64, or integer-valued float32).
        assert lb == interaction_lower_bound_bruteforce(problem)


def _lower_bound(problem, *, cells: int, block_size: int = 256) -> float:
    with mock.patch.object(lower_bound_module, "_PAIR_CELLS", cells):
        return interaction_lower_bound(problem, block_size=block_size)


class TestExactness:
    @SETTINGS
    @given(
        instances(),
        st.sampled_from(CELLS),
        st.sampled_from([1, 3, 512]),
    )
    def test_equals_unpruned_and_bruteforce(self, instance, cells, block_size):
        kind, problem = instance
        pairs, row_ub, col_ub = _pair_values(problem)
        # The bounds hold for the computed sums, ties included.
        assert np.all(row_ub >= pairs.max(axis=1))
        assert np.all(col_ub >= pairs.max(axis=0))
        lb = _lower_bound(problem, cells=cells, block_size=block_size)
        _assert_exact(kind, problem, lb)

    @pytest.mark.parametrize("cells", CELLS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_single_server_and_single_client(self, kind, cells):
        rng = np.random.default_rng(7)
        matrix = LatencyMatrix(_matrix(kind, 9, 3, rng))
        for servers, clients in (([4], None), ([0, 2, 5], [8]), ([3], [3])):
            problem = ClientAssignmentProblem(matrix, servers, clients)
            _assert_exact(kind, problem, _lower_bound(problem, cells=cells))


class TestPruningFires:
    """Pin one instance on which both prunes fire at one row per block."""

    @pytest.fixture
    def problem(self):
        matrix = LatencyMatrix.random_metric(40, seed=3)
        return ClientAssignmentProblem(matrix, servers=[2, 11, 19, 33])

    def test_columns_dropped_and_rows_stopped(self, problem):
        pairs, row_ub, col_ub = _pair_values(problem)
        first_row = int(np.argmax(row_ub))
        lb = pairs.max()
        # After the first one-row block, best >= that row's maximum, so
        # these columns leave the scan.
        assert np.any(col_ub <= pairs[first_row].max())
        # Rows bounded strictly below LB sort after the row that sets
        # it, so the scan stops before reaching them.
        assert np.any(row_ub < lb)
        for cells in CELLS:
            assert _lower_bound(problem, cells=cells) == lb
        assert lb == interaction_lower_bound_bruteforce(problem)


class TestBlockSize:
    @pytest.mark.parametrize("block_size", [0, -1])
    def test_non_positive_rejected(self, small_problem, block_size):
        with pytest.raises(InvalidParameterError, match="block_size") as excinfo:
            interaction_lower_bound(small_problem, block_size=block_size)
        assert isinstance(excinfo.value, ValueError)
