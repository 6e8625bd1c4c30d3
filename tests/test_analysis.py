from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from dispersim.agents import HelpingState, Mode
from dispersim.analysis import (
    async_iteration_bound,
    check_dispersion,
    check_memory_bound,
    check_time_bound,
    lower_bound_fixture,
    single_robot_dfs_oracle,
    sync_round_bound,
)
from dispersim.engine import Algorithm, run, run_async, run_sync
from dispersim.graph import generate, relabel_nodes

from harness import random_connected_instance, traversal_without_docking


def world(positions, modes):
    return SimpleNamespace(positions=positions, states=[HelpingState(1, m) for m in modes])


def test_check_dispersion_trivial_cases():
    assert check_dispersion(world([4], [Mode.SETTLED]))
    assert not check_dispersion(world([2, 2], [Mode.SETTLED, Mode.SETTLED]))
    assert not check_dispersion(world([0, 1], [Mode.SETTLED, Mode.EXPLORE]))


def test_check_dispersion_on_triangle_fixture():
    g = generate("ring", 3)
    report = run_sync(g, [0, 0, 0], Algorithm.HELPING_SYNC)
    assert report.dispersed


def test_time_bound_line_n2():
    g = generate("line", 2)
    assert sync_round_bound(g) == 2
    report = run_sync(g, [0, 0], Algorithm.HELPING_SYNC)
    assert check_time_bound(report, g)
    assert all(r.settle_time <= 2 for r in report.robots)


def test_time_bound_distinct_starts():
    g = generate("gnm", 7, 10, seed=6)
    report = run_sync(g, [0, 2, 4], Algorithm.INDEPENDENT_SYNC)
    assert all(r.settle_time == 0 for r in report.robots)
    assert check_time_bound(report, g)


def test_time_bound_async_counts_iterations():
    g = generate("ring", 5)
    report = run_async(g, [0, 0, 0], Algorithm.INDEPENDENT_ASYNC)
    assert check_time_bound(report, g)
    assert async_iteration_bound(g) == sync_round_bound(g) + 1


def test_memory_bound_matches_agent_formulas():
    g = generate("ring", 4)  # n=m=4, delta=2
    k = 3
    report = run_sync(g, [0, 0, 0], Algorithm.HELPING_SYNC)
    assert check_memory_bound(report, k, g.max_degree, g.edge_count)
    # settled helping robot: 2*2 + 3 + ceil(log2(17)) + 3 + 3*2 = 21
    assert report.max_memory_bits == 2 * 2 + 3 + 5 + 3 + 3 * 2
    report = run_async(g, [0, 0, 0], Algorithm.INDEPENDENT_ASYNC)
    assert check_memory_bound(report, k, g.max_degree, g.edge_count)


def test_dfs_oracle_line3():
    g = generate("line", 3)
    assert single_robot_dfs_oracle(g, 0) == [(0, 1), (1, 2), (2, 1), (1, 0)]


def test_dfs_oracle_length_is_4m_minus_2n_plus_2():
    rng = random.Random(42)
    for _ in range(20):
        g, _ = random_connected_instance(rng, n_max=12)
        seq = single_robot_dfs_oracle(g, 0)
        assert len(seq) == 4 * g.edge_count - 2 * g.node_count + 2


def test_dfs_oracle_walks_a_2000_node_line():
    g = generate("line", 2000)
    seq = single_robot_dfs_oracle(g, 0)
    assert len(seq) == 4 * g.edge_count - 2 * g.node_count + 2
    out = [(v, v + 1) for v in range(1999)]
    assert seq == out + [(u, v) for v, u in reversed(out)]


def test_dfs_oracle_ignores_node_identity():
    rng = random.Random(3)
    g, _ = random_connected_instance(rng, n_max=10)
    perm = list(range(g.node_count))
    rng.shuffle(perm)
    h = relabel_nodes(g, perm)
    start = 0
    mapped = [(perm[a], perm[b]) for a, b in single_robot_dfs_oracle(g, start)]
    assert single_robot_dfs_oracle(h, perm[start]) == mapped


@pytest.mark.parametrize("family", ["helping", "independent"])
def test_docking_disabled_traversal_equals_oracle(family):
    rng = random.Random(101)
    for _ in range(10):
        g, _ = random_connected_instance(rng, n_max=10)
        start = rng.randrange(g.node_count)
        assert traversal_without_docking(g, start, family) == single_robot_dfs_oracle(
            g, start
        )


def test_lower_bound_fixture_shape():
    g, placement = lower_bound_fixture(5)
    assert g.node_count == 5
    assert g.edge_count == 4
    assert placement.robot_positions == (0,) * 5
    assert [g.degree(v) for v in range(5)] == [1, 2, 2, 2, 1]


def test_lower_bound_fixture_single_robot():
    g, placement = lower_bound_fixture(1)
    assert g.node_count == 1
    report = run_sync(g, placement, Algorithm.HELPING_SYNC)
    assert report.dispersed
    assert report.robots[0].moves == 0


@pytest.mark.parametrize(
    "alg",
    [
        Algorithm.HELPING_SYNC,
        Algorithm.INDEPENDENT_SYNC,
        Algorithm.HELPING_ASYNC,
        Algorithm.INDEPENDENT_ASYNC,
    ],
)
def test_lower_bound_fixture_forces_k_minus_1_hops(alg):
    g, placement = lower_bound_fixture(5)
    report = run(g, placement, alg)
    assert report.dispersed
    assert report.max_moves >= 4


def test_report_serialization_round_trip_fields():
    g = generate("ring", 4)
    report = run_sync(g, [0, 1, 2], Algorithm.HELPING_SYNC)
    data = report.to_dict()
    assert data["dispersed"] is True
    assert data["n"] == 4 and data["m"] == 4 and data["k"] == 3
    assert len(data["robots"]) == 3
    assert data["final_modes"] == ["settled"] * 3
