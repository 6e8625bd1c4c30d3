"""Acceptance suite: every correctness and bound claim as an executable
check with exact integer comparisons, one pass/fail line per criterion
(run with -s or -rA to see them)."""

from __future__ import annotations

import random

import pytest

from dispersim import cli
from dispersim.analysis import (
    check_memory_bound,
    check_time_bound,
    lower_bound_fixture,
    single_robot_dfs_oracle,
)
from dispersim.engine import (
    AdversarialStalling,
    Algorithm,
    JsonlTraceWriter,
    MutexPolicy,
    RoundRobin,
    SeededRandom,
    run,
    run_async,
    run_sync,
)
from dispersim.graph import InitialPlacement, build_graph, generate

from harness import (
    assert_walk_witness,
    random_connected_instance,
    record_sink,
    traversal_without_docking,
)
import reference_traces as ref

GRID_SEED = 20250810
GRAPH_COUNT = 500

SYNC_ALGORITHMS = (Algorithm.HELPING_SYNC, Algorithm.INDEPENDENT_SYNC)
ASYNC_ALGORITHMS = (Algorithm.HELPING_ASYNC, Algorithm.INDEPENDENT_ASYNC)


def _schedulers(instance_index: int):
    return (RoundRobin(), SeededRandom(seed=instance_index), AdversarialStalling())


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def grid():
    """All runs of criterion 1: 500 seeded random connected graphs crossed
    with every algorithm/engine combination, both mutex policies, and all
    three asynchronous schedulers."""
    rng = random.Random(GRID_SEED)
    results = []
    for idx in range(GRAPH_COUNT):
        graph, placement = random_connected_instance(rng, n_max=40)
        for mutex in MutexPolicy:
            for alg in SYNC_ALGORITHMS:
                report = run_sync(graph, placement, alg, mutex_policy=mutex)
                results.append((graph, placement, alg, None, mutex, report))
            for alg in ASYNC_ALGORITHMS:
                for sched in _schedulers(idx):
                    report = run_async(
                        graph, placement, alg,
                        scheduler_policy=sched, mutex_policy=mutex,
                    )
                    results.append((graph, placement, alg, sched, mutex, report))
    return results


def test_criterion_1_dispersion(grid):
    failures = [
        (alg.value, report.node_count, report.robot_count)
        for _, _, alg, _, _, report in grid
        if not report.dispersed
    ]
    _verdict(
        1,
        not failures,
        f"{len(grid) - len(failures)}/{len(grid)} runs dispersed over "
        f"{GRAPH_COUNT} random graphs"
        + (f"; first failure {failures[0]}" if failures else ""),
    )


def test_criterion_2_time_bound(grid):
    bad = sum(
        1 for graph, _, _, _, _, report in grid if not check_time_bound(report, graph)
    )
    _verdict(
        2,
        bad == 0,
        f"time bound 4m-2(n-1) held on {len(grid) - bad}/{len(grid)} runs "
        "(sync settle rounds, async active iterations)",
    )


def test_criterion_3_memory_bound(grid):
    bad = sum(
        1
        for graph, placement, _, _, _, report in grid
        if not check_memory_bound(
            report, placement.robot_count, graph.max_degree, graph.edge_count
        )
    )
    _verdict(
        3,
        bad == 0,
        f"peak memory within the closed-form family maxima on "
        f"{len(grid) - bad}/{len(grid)} runs",
    )


def test_criterion_4_stack_depth(grid):
    independent = [
        (placement.robot_count, report)
        for _, placement, alg, _, _, report in grid
        if alg.family == "independent"
    ]
    over = sum(1 for k, r in independent if (r.max_stack_depth or 0) > k - 1)
    exact = True
    for k in range(1, 11):
        graph, placement = lower_bound_fixture(k)
        for alg in (Algorithm.INDEPENDENT_SYNC, Algorithm.INDEPENDENT_ASYNC):
            report = run(graph, placement, alg)
            if report.max_stack_depth != k - 1:
                exact = False
    _verdict(
        4,
        over == 0 and exact,
        f"stack depth <= k-1 on {len(independent)} independent runs; "
        "colocated k-node line reaches depth k-1 exactly for k in 1..10",
    )


def test_criterion_5_lower_bound_fixture():
    ok = True
    for k in range(2, 11):
        graph, placement = lower_bound_fixture(k)
        for alg in SYNC_ALGORITHMS + ASYNC_ALGORITHMS:
            report = run(graph, placement, alg)
            if not (report.dispersed and report.max_moves >= k - 1):
                ok = False
    _verdict(
        5,
        ok,
        "every algorithm moves some robot >= k-1 hops on the colocated "
        "line fixture, k in 2..10",
    )


def test_criterion_6_oracle_equivalence():
    rng = random.Random(616)
    graphs = 0
    mismatches = 0
    for _ in range(100):
        graph, _ = random_connected_instance(rng, n_max=15)
        start = rng.randrange(graph.node_count)
        oracle = single_robot_dfs_oracle(graph, start)
        graphs += 1
        for family in ("helping", "independent"):
            if traversal_without_docking(graph, start, family) != oracle:
                mismatches += 1
    _verdict(
        6,
        mismatches == 0,
        f"docking-disabled traversals equal the DFS oracle on {graphs} graphs "
        "x 2 step functions (exact sequence equality)",
    )


def test_every_robot_walks_a_prefix_of_its_dfs_walk():
    # checked from each run's trace alone: a third of the instances start
    # colocated at a random node, the rest keep their random placement
    rng = random.Random(404)
    runs = 0
    for idx in range(150):
        graph, placement = random_connected_instance(rng, n_max=40)
        if idx % 3 == 0:
            node = rng.randrange(graph.node_count)
            placement = InitialPlacement((node,) * placement.robot_count)
        starts, walks = placement.robot_positions, {}
        for mutex in MutexPolicy:
            for alg in SYNC_ALGORITHMS:
                lines: list[str] = []
                run_sync(graph, placement, alg, mutex, lines.append)
                assert_walk_witness(lines, graph, starts, walks)
                runs += 1
            for alg in ASYNC_ALGORITHMS:
                for sched in _schedulers(idx):
                    lines = []
                    run_async(graph, placement, alg, sched, mutex, lines.append)
                    assert_walk_witness(lines, graph, starts, walks)
                    runs += 1
    assert runs == 2400


def test_criterion_7_determinism_and_replay(grid, tmp_path):
    sample = grid[:: len(grid) // 50][:50]
    assert len(sample) == 50
    replay_ok = 0
    rerun_ok = 0
    for i, (graph, placement, alg, sched, mutex, _) in enumerate(sample):
        blobs = []
        for attempt in range(2):
            path = tmp_path / f"sample_{i}_{attempt}.jsonl"
            with JsonlTraceWriter(path) as sink:
                sink(cli.trace_header(i, 0, alg, graph, placement, mutex, sched))
                run(
                    graph, placement, alg,
                    scheduler_policy=sched, mutex_policy=mutex, trace_sink=sink,
                )
            blobs.append(path.read_bytes())
        if cli.replay(tmp_path / f"sample_{i}_0.jsonl") == 0:
            replay_ok += 1
        if blobs[0] == blobs[1]:
            rerun_ok += 1
    _verdict(
        7,
        replay_ok == 50 and rerun_ok == 50,
        f"{replay_ok}/50 traces replayed identically; "
        f"{rerun_ok}/50 seeded reruns byte-identical",
    )


def _collect(graph, placement, alg):
    records = []
    run(graph, placement, alg, trace_sink=record_sink(records))
    return records


def test_criterion_8_hand_simulation_fixtures():
    triangle = build_graph([(0, 1), (0, 2), (1, 2)])
    line4 = generate("line", 4)
    line3 = generate("line", 3)
    cases = [
        ("triangle helping-sync", triangle, [0, 0, 0],
         Algorithm.HELPING_SYNC, ref.TRIANGLE_HELPING_SYNC),
        ("triangle helping-async", triangle, [0, 0, 0],
         Algorithm.HELPING_ASYNC, ref.TRIANGLE_HELPING_ASYNC),
        ("triangle independent-async", triangle, [0, 0, 0],
         Algorithm.INDEPENDENT_ASYNC, ref.TRIANGLE_INDEPENDENT_ASYNC),
        ("line4 helping-sync", line4, [0, 0, 0, 0],
         Algorithm.HELPING_SYNC, ref.LINE4_HELPING_SYNC),
        ("line4 helping-async", line4, [0, 0, 0, 0],
         Algorithm.HELPING_ASYNC, ref.LINE4_HELPING_ASYNC),
        ("line4 independent-async", line4, [0, 0, 0, 0],
         Algorithm.INDEPENDENT_ASYNC, ref.LINE4_INDEPENDENT_ASYNC),
        ("line3-middle helping-sync", line3, [1, 1, 1],
         Algorithm.HELPING_SYNC, ref.LINE3_MIDDLE_HELPING_SYNC),
        ("line3-middle independent-async", line3, [1, 1, 1],
         Algorithm.INDEPENDENT_ASYNC, ref.LINE3_MIDDLE_INDEPENDENT_ASYNC),
    ]
    mismatched = []
    for name, graph, placement, alg, expected in cases:
        if _collect(graph, placement, alg) != expected:
            mismatched.append(name)
    _verdict(
        8,
        not mismatched,
        f"{len(cases) - len(mismatched)}/{len(cases)} fixture traces match "
        "the hand-executed references event for event"
        + (f"; mismatched: {mismatched}" if mismatched else ""),
    )
