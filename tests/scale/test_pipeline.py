"""solve_at_scale: the bound, exact expansion, and dense equivalence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Assignment, ClientAssignmentProblem
from repro.core.metrics import max_interaction_path_length
from repro.datasets import coreset_cell_size_hint, planet_instance
from repro.datasets.synthetic import small_world_latencies
from repro.errors import InvalidParameterError, ScaleBoundError
from repro.obs import MetricsRegistry, use_registry
from repro.scale import (
    build_coreset,
    expanded_objective,
    solve_at_scale,
)


@pytest.fixture(scope="module")
def instance():
    return planet_instance(2000, 8, n_clusters=16, seed=7)


def test_bound_holds_and_result_is_consistent(instance):
    result = solve_at_scale(
        instance.provider,
        instance.servers,
        instance.clients,
        cell_size=coreset_cell_size_hint(instance),
        seed=0,
    )
    assert result.server_of.shape == (instance.n_clients,)
    assert result.server_of.min() >= 0
    assert result.server_of.max() < instance.n_servers
    assert not result.server_of.flags.writeable
    assert result.bound == pytest.approx(
        result.d_reduced + 2.0 * result.epsilon
    )
    assert result.d_expanded <= result.bound + 1e-9
    assert result.algorithm == "distributed-greedy"
    assert result.elapsed_seconds > 0.0


def test_expanded_objective_is_exact():
    """The streamed O(|S|^2)-memory evaluation must equal the dense
    metric on the full assignment."""
    matrix = small_world_latencies(50, seed=4)
    servers = np.array([2, 19, 33, 47], dtype=np.int64)
    mask = np.ones(50, dtype=bool)
    mask[servers] = False
    clients = np.flatnonzero(mask).astype(np.int64)
    rng = np.random.default_rng(1)
    server_of = rng.integers(0, servers.size, size=clients.size).astype(
        np.int64
    )
    problem = ClientAssignmentProblem(matrix, servers, clients=clients)
    dense_d = max_interaction_path_length(Assignment(problem, server_of))
    for chunk_size in (7, 46, 1000):
        assert expanded_objective(
            matrix, servers, clients, server_of, chunk_size=chunk_size
        ) == pytest.approx(dense_d)
        assert expanded_objective(
            matrix, servers, clients, server_of, chunk_size=chunk_size
        ) == _full_block_objective(
            matrix, servers, clients, server_of, chunk_size=chunk_size
        )
    # Coordinate provider with heights; server 3 has exactly one member.
    planet = planet_instance(300, 5, n_clusters=8, seed=2)
    server_of = np.random.default_rng(3).integers(0, 3, size=300)
    server_of[17] = 3
    for chunk_size in (7, 46, 1000):
        assert expanded_objective(
            planet.provider,
            planet.servers,
            planet.clients,
            server_of,
            chunk_size=chunk_size,
        ) == _full_block_objective(
            planet.provider,
            planet.servers,
            planet.clients,
            server_of,
            chunk_size=chunk_size,
        )


@pytest.mark.parametrize("chunk_size", [7, 46, 1000])
def test_expansion_synthesizes_each_server_in_chunk_slices(chunk_size):
    """Clients are grouped by server once, so the expansion makes one
    provider call per ``chunk_size`` slice of each used server's
    members (planet legs mirror, so one block per slice), plus the one
    server block: ``sum(ceil(n_s / chunk_size)) + 1`` calls in all."""
    planet = planet_instance(600, 6, n_clusters=8, seed=5)
    server_of = np.random.default_rng(8).integers(0, 5, size=600)
    server_of[:100] = 0
    members = np.bincount(server_of)
    slices = sum(-(-int(n) // chunk_size) for n in members if n)
    metrics = MetricsRegistry()
    with use_registry(metrics):
        expanded_objective(
            planet.provider,
            planet.servers,
            planet.clients,
            server_of,
            chunk_size=chunk_size,
        )
    assert metrics.snapshot()["counters"]["provider.coordinate.calls"] == (
        slices + 1
    )


def _full_block_objective(provider, servers, clients, server_of, *, chunk_size):
    """Reference: synthesize full ``(chunk, |S|)`` blocks in both
    directions and read each client's own server's entries."""
    l_out = np.full(servers.size, -np.inf)
    l_in = np.full(servers.size, -np.inf)
    for start in range(0, clients.size, chunk_size):
        block = clients[start : start + chunk_size]
        assigned = server_of[start : start + block.size]
        rows = np.arange(block.size)
        cs = provider.client_server_distances(block, servers)
        np.maximum.at(l_out, assigned, np.asarray(cs[rows, assigned], dtype=np.float64))
        sc = provider.server_client_distances(servers, block)
        np.maximum.at(l_in, assigned, np.asarray(sc[assigned, rows], dtype=np.float64))
    used = np.flatnonzero(np.isfinite(l_out))
    ss = np.asarray(provider.server_server_distances(servers), dtype=np.float64)
    totals = l_out[used][:, None] + ss[np.ix_(used, used)] + l_in[used][None, :]
    return float(totals.max())


@pytest.mark.parametrize(
    "server_of",
    [
        np.full(200, -1, dtype=np.int64),
        np.zeros(205, dtype=np.int64),
        np.zeros(195, dtype=np.int64),
        np.full(200, 4, dtype=np.int64),
        np.zeros(200, dtype=np.float64),
        np.zeros((200, 1), dtype=np.int64),
    ],
    ids=["negative", "too-long", "too-short", "past-last-server",
         "not-integer", "two-dimensional"],
)
def test_expanded_objective_rejects_bad_assignments(server_of):
    """Wrapping negative indices, ignored extra entries and a bare
    IndexError on short input all become InvalidParameterError."""
    planet = planet_instance(200, 4, n_clusters=8, seed=0)
    with pytest.raises(InvalidParameterError):
        expanded_objective(
            planet.provider, planet.servers, planet.clients, server_of
        )


def test_coordinate_and_dense_providers_agree(instance):
    """The pipeline must be source-agnostic: running on the coordinate
    provider and on its materialized dense matrix gives the same
    reduction and the same objectives."""
    dense = instance.provider.materialize()
    cell = coreset_cell_size_hint(instance)
    via_provider = solve_at_scale(
        instance.provider, instance.servers, instance.clients,
        cell_size=cell, seed=3,
    )
    via_dense = solve_at_scale(
        dense, instance.servers, instance.clients, cell_size=cell, seed=3,
    )
    assert np.array_equal(
        via_provider.coreset.representatives,
        via_dense.coreset.representatives,
    )
    assert via_provider.epsilon == via_dense.epsilon
    assert via_provider.d_reduced == via_dense.d_reduced
    assert via_provider.d_expanded == via_dense.d_expanded
    assert np.array_equal(via_provider.server_of, via_dense.server_of)


def test_reduced_instance_carries_weights(instance):
    result = solve_at_scale(
        instance.provider,
        instance.servers,
        instance.clients,
        cell_size=coreset_cell_size_hint(instance),
        seed=0,
    )
    weights = result.reduced.assignment.problem.client_weights
    assert weights is not None
    assert int(np.sum(weights)) == instance.n_clients
    assert np.array_equal(weights, result.coreset.weights)


def test_clients_default_to_non_server_nodes(instance):
    explicit = solve_at_scale(
        instance.provider,
        instance.servers,
        instance.clients,
        cell_size=10.0,
        seed=0,
    )
    defaulted = solve_at_scale(
        instance.provider, instance.servers, cell_size=10.0, seed=0
    )
    assert np.array_equal(explicit.server_of, defaulted.server_of)


def test_to_dict_is_json_ready(instance):
    import json

    result = solve_at_scale(
        instance.provider,
        instance.servers,
        instance.clients,
        cell_size=10.0,
        seed=0,
    )
    payload = result.to_dict()
    assert set(payload) == {
        "algorithm",
        "n_clients",
        "n_representatives",
        "reduction_ratio",
        "epsilon",
        "cell_size",
        "d_reduced",
        "d_expanded",
        "bound",
        "elapsed_seconds",
    }
    assert payload["n_clients"] == instance.n_clients
    json.dumps(payload)  # every value must serialize


def test_pipeline_is_instrumented(instance):
    metrics = MetricsRegistry()
    with use_registry(metrics):
        solve_at_scale(
            instance.provider,
            instance.servers,
            instance.clients,
            cell_size=10.0,
            seed=0,
        )
    snap = metrics.snapshot()
    assert snap["counters"]["scale.solves"] == 1
    assert snap["counters"]["scale.coreset.clients"] == instance.n_clients
    assert snap["gauges"]["scale.last_reduction_ratio"] > 1.0


def test_scale_bound_error_code():
    assert ScaleBoundError.code == "scale-bound-violated"


def test_invalid_parameters(instance):
    with pytest.raises(InvalidParameterError):
        solve_at_scale(
            instance.provider,
            instance.servers,
            np.array([], dtype=np.int64),
            cell_size=10.0,
        )
    with pytest.raises(InvalidParameterError):
        build_coreset(
            instance.provider,
            instance.servers,
            instance.clients,
            cell_size=10.0,
            chunk_size=0,
        )
    with pytest.raises(InvalidParameterError, match="need at least one server"):
        solve_at_scale(
            instance.provider,
            np.array([], dtype=np.int64),
            instance.clients,
            cell_size=10.0,
        )
    none = np.array([], dtype=np.int64)
    server_of = np.zeros(instance.n_clients, dtype=np.int64)
    for servers, clients, chunk_size in (
        (none, instance.clients, 65536),
        (instance.servers, none, 65536),
        (instance.servers, instance.clients, 0),
    ):
        with pytest.raises(InvalidParameterError):
            expanded_objective(
                instance.provider,
                servers,
                clients,
                server_of[: clients.size],
                chunk_size=chunk_size,
            )
