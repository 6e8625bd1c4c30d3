from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispersim import cli, engine
from dispersim.agents import HelpingState, Mode, memory_bits_helping, memory_bits_independent
from dispersim.algorithms import (
    LocalView,
    SimulationInvariantError,
    helping_step,
)
from dispersim.analysis import RobotStats, async_iteration_bound, sync_round_bound
from dispersim.engine import (
    AdversarialStalling,
    Algorithm,
    MutexPolicy,
    RoundRobin,
    SeededRandom,
    WorldState,
    apply_moves_single_lane,
    arbitrate_mutex,
    run,
    run_async,
    run_sync,
)
from dispersim.graph import GraphError, InitialPlacement, build_graph, generate, relabel_nodes

from harness import (
    assert_exact,
    random_connected_instance,
    record_sink,
    reference_run_async,
    reference_run_sync,
)

TRIANGLE = build_graph([(0, 1), (0, 2), (1, 2)])


# --- mutex arbitration -----------------------------------------------------


def test_lowest_label_ignores_arrival_data():
    contenders = [(0, 0, 7), (5, 2, 3)]
    assert arbitrate_mutex(contenders, MutexPolicy.LOWEST_LABEL) == 3


def test_earliest_arrival_breaks_ties_by_port_then_label():
    contenders = [(0, 2, 5), (0, 0, 2)]
    assert arbitrate_mutex(contenders, MutexPolicy.EARLIEST_ARRIVAL) == 2
    contenders = [(0, 2, 5), (1, 0, 2)]
    assert arbitrate_mutex(contenders, MutexPolicy.EARLIEST_ARRIVAL) == 5
    contenders = [(0, 1, 5), (0, 1, 2)]
    assert arbitrate_mutex(contenders, MutexPolicy.EARLIEST_ARRIVAL) == 2


def test_singleton_wins_under_any_policy():
    for policy in MutexPolicy:
        assert arbitrate_mutex([(4, 1, 9)], policy) == 9


def test_empty_contender_set_is_contract_violation():
    with pytest.raises(ValueError):
        arbitrate_mutex([], MutexPolicy.LOWEST_LABEL)


# --- single-lane arrivals ---------------------------------------------------


def test_same_edge_same_direction_orders_by_label():
    g = generate("line", 2)
    world = WorldState(g, [0, 0, 0, 0], helping=True)
    apply_moves_single_lane(world, [(4, 0), (2, 0)])
    # node 1's arrival counter starts at 1; placement arrivals hold index 0
    assert world.arrival_index[2 - 1] == 1
    assert world.arrival_index[4 - 1] == 2
    assert world.positions == [0, 1, 0, 1]


def test_lower_entry_port_arrives_first():
    # triangle: robot 1 moves 0->2 entering via port 1, robot 2 moves 1->2
    # entering via port... ports: node2 table is ((0,1),(1,1)) so entry from
    # node 0 is port 0 and from node 1 is port 1
    world = WorldState(TRIANGLE, [0, 1], helping=True)
    apply_moves_single_lane(world, [(2, 1), (1, 1)])
    assert world.arrival_index[0] == 1  # robot 1 entered by port 0
    assert world.arrival_index[1] == 2
    assert world.pending_entry == [0, 1]


def test_arrival_counter_runs_on_across_landings():
    g = generate("line", 3)
    world = WorldState(g, [0, 2, 0], helping=True)
    apply_moves_single_lane(world, [(1, 0)])
    # robot 3 enters node 1 by port 0, robot 2 by port 1
    apply_moves_single_lane(world, [(2, 0), (3, 0)])
    assert world.arrival_index == [1, 3, 2]
    assert world.next_arrival == [1, 4, 1]


# --- synchronous engine -----------------------------------------------------


def test_distinct_starts_all_dock_in_round_zero():
    g = generate("gnm", 8, 12, seed=4)
    placement = [0, 2, 4, 6]
    for alg in (Algorithm.HELPING_SYNC, Algorithm.INDEPENDENT_SYNC):
        report = run_sync(g, placement, alg)
        assert report.dispersed
        assert report.rounds_elapsed == 0
        assert all(r.moves == 0 for r in report.robots)
        assert all(r.settle_time == 0 for r in report.robots)


def test_colocated_line_forces_k_minus_1_hops():
    g = generate("line", 5)
    report = run_sync(g, [0] * 5, Algorithm.HELPING_SYNC)
    assert report.dispersed
    assert report.max_moves >= 4


def test_sync_triangle_final_configuration():
    report = run_sync(TRIANGLE, [0, 0, 0], Algorithm.HELPING_SYNC)
    assert report.dispersed
    assert report.final_positions == (0, 1, 2)
    assert [r.moves for r in report.robots] == [0, 1, 2]
    assert report.rounds_elapsed == 2
    assert report.mutex_contentions == 2


@pytest.mark.parametrize("alg", [Algorithm.HELPING_SYNC, Algorithm.INDEPENDENT_SYNC])
def test_robots_stepping_after_the_winner_see_the_round_start_world(alg):
    # robot 1 wins node 0 in round 0, but its dock waits for the end of the
    # round: robots 2 and 3, stepping in that round, still meet a free node
    # and its arbitration, and leave it as mutex losers
    records = []
    assert run_sync(TRIANGLE, [0, 0, 0], alg, trace_sink=record_sink(records)).dispersed
    first = [rec for rec in records if rec["round"] == 0]
    assert [rec["robot"] for rec in first] == [1, 2, 3]
    assert first[0]["action"] == {"type": "dock"}
    assert [rec["action"]["type"] for rec in first[1:]] == ["move", "move"]
    assert [rec["mutex"] for rec in first] == [{"contenders": [1, 2, 3], "winner": 1}] * 3
    # a helping loser's first visit is recorded at the fresh winner
    help_ = [[[1, 2, -1]], [[1, 3, -1]]] if alg is Algorithm.HELPING_SYNC else [[], []]
    assert [rec["help"] for rec in first[1:]] == help_


def _cohorts_share_an_edge(lines: list[str], placement) -> bool:
    """Whether, in some round of a synchronous trace, robots that started at
    different nodes leave one node through one port."""
    starts: dict[tuple, set] = {}
    for rec in map(json.loads, lines):
        if rec["action"]["type"] == "move":
            crossing = (rec["round"], rec["node"], rec["action"]["port"])
            starts.setdefault(crossing, set()).add(placement[rec["robot"] - 1])
    return any(len(s) > 1 for s in starts.values())


def _template_shapes(lines: list[str], placement) -> set[str]:
    """The line shapes of a synchronous trace that the engine renders from a
    cohort's split line: a docking lead followed by a member of its cohort
    that lost the lead's mutex and keeps a help record at it ("dock, then
    loser"), a help record whose visitor is not the round's lead ("member
    visitor"), and a round whose cohort labels are not consecutive
    ("interleaved"); a cohort is the robots that started at one node."""
    shapes, rounds = set(), {}
    for rec in map(json.loads, lines):
        rounds.setdefault(rec["round"], []).append(rec)
    for recs in rounds.values():
        leads, docked, labels = {}, {}, {}
        for rec in recs:
            robot, start = rec["robot"], placement[rec["robot"] - 1]
            lead = leads.setdefault(start, robot)
            labels.setdefault(start, []).append(robot)
            if rec["action"]["type"] == "dock":
                docked[start] = robot
            for d, v, _ in rec["help"]:
                assert v == robot
                if v != lead:
                    shapes.add("member visitor")
                mutex = rec["mutex"]
                if docked.get(start) == d and mutex and mutex["winner"] == d:
                    shapes.add("dock, then loser")
        if any(c[-1] - c[0] != len(c) - 1 for c in labels.values()):
            shapes.add("interleaved")
    return shapes


def _free_node_cohorts(lines: list[str], placement) -> set[str]:
    """How many cohorts the arbitrated free nodes of a synchronous trace
    held: "one cohort" of several robots, whose lead wins without
    arbitration, or "several cohorts"; a cohort is the robots that started
    at one node, and they are always at one node together."""
    shapes = set()
    for rec in map(json.loads, lines):
        contenders = rec["mutex"]["contenders"] if rec["mutex"] else []
        starts = {placement[lab - 1] for lab in contenders}
        if len(starts) > 1:
            shapes.add("several cohorts")
        elif len(contenders) > 1:
            shapes.add("one cohort")
    return shapes


def _cohort_instances(rng: random.Random):
    """(graph, placement) pairs: two cohorts that meet at a free node in
    round 1 and cross one edge together in rounds 3 and 4, then seeded
    random graphs, each with random, distinct, one-node and few-node
    placements."""
    yield generate("gnm", 7, 14, seed=1, ports="random"), [0] * 3 + [1] * 4
    for _ in range(30):
        g, scattered = random_connected_instance(rng, n_max=24)
        n, k = g.node_count, scattered.robot_count
        starts = rng.sample(range(n), min(n, 3))
        yield g, scattered.robot_positions
        yield g, rng.sample(range(n), k)
        yield g, [starts[0]] * k
        yield g, [rng.choice(starts) for _ in range(k)]


@pytest.mark.parametrize("mutex", list(MutexPolicy))
@pytest.mark.parametrize("alg", [Algorithm.HELPING_SYNC, Algorithm.INDEPENDENT_SYNC])
def test_cohort_walk_matches_the_per_robot_walk(alg, mutex):
    # the engine steps each cohort once; the per-robot oracle steps every
    # robot: same trace bytes, same report, traced or not
    shared, shapes, free_nodes = 0, set(), set()
    for g, placement in _cohort_instances(random.Random(31)):
        ours, oracle = [], []
        report = run_sync(g, placement, alg, mutex, ours.append)
        assert report == reference_run_sync(g, placement, alg, mutex, oracle.append)
        assert ours == oracle
        assert run_sync(g, placement, alg, mutex) == report
        shared += _cohorts_share_an_edge(ours, placement)
        shapes |= _template_shapes(ours, placement)
        free_nodes |= _free_node_cohorts(ours, placement)
    # the sample holds free nodes that a lone lead wins without arbitration
    # and free nodes arbitrated among several leads
    assert free_nodes == {"one cohort", "several cohorts"}
    if mutex is MutexPolicy.EARLIEST_ARRIVAL:
        # the sample holds cohorts that cross one edge in one round
        assert shared > 0
    # the sample holds every line shape the cohort's split line writes
    expected = {"interleaved"}
    if alg is Algorithm.HELPING_SYNC:
        expected |= {"dock, then loser", "member visitor"}
    assert shapes == expected


def test_cohort_lines_carry_every_help_record_of_the_step(monkeypatch):
    # today's helping step leaves at most one record; a step leaving two
    # still gives each member its own label as the visitor of each record
    def twice(state, view, winner):
        state, port, effects = helping_step(state, view, winner)
        return state, port, effects * 2

    monkeypatch.setattr(engine, "helping_sync_step", twice)
    g = generate("grid", 16, seed=3, ports="random")
    placement = [0] * 6 + [5] * 5 + [0] * 3
    ours, oracle = [], []
    report = run_sync(g, placement, "helping-sync", "lowest-label", ours.append)
    assert report.dispersed
    assert report == reference_run_sync(g, placement, "helping-sync", "lowest-label", oracle.append)
    assert ours == oracle
    doubled = [rec for rec in map(json.loads, ours) if len(rec["help"]) == 2]
    assert doubled
    for rec in doubled:
        first, second = rec["help"]
        assert first == second and first[1] == rec["robot"]


@pytest.mark.parametrize("alg", [Algorithm.HELPING_SYNC, Algorithm.INDEPENDENT_SYNC])
def test_cohort_walk_cut_off_at_the_round_bound_matches_the_per_robot_walk(monkeypatch, alg):
    # members still parked when the rounds run out report their lead's
    # state, position and peak stack
    monkeypatch.setattr(engine, "sync_round_bound", lambda graph: 3)
    g = generate("grid", 25, seed=2, ports="random")
    placement = [0] * 10 + [24] * 8 + [12]
    for mutex in MutexPolicy:
        ours, oracle = [], []
        report = run_sync(g, placement, alg, mutex, ours.append)
        assert not report.dispersed
        assert report == reference_run_sync(g, placement, alg, mutex, oracle.append)
        assert ours == oracle
        assert run_sync(g, placement, alg, mutex) == report


@pytest.mark.parametrize("walk", [run_sync, reference_run_sync])
def test_cohort_walk_raises_like_the_per_robot_walk(monkeypatch, walk):
    g = generate("line", 3)

    def off_the_table(state, view, mutex_winner):
        return state, view.degree, ()

    monkeypatch.setattr(engine, "independent_step", off_the_table)
    with pytest.raises(GraphError, match="port 1 out of range at node 0"):
        walk(g, [0], Algorithm.INDEPENDENT_SYNC)

    def unsettle(state, view, mutex_winner):
        mode = Mode.EXPLORE if state.mode is Mode.SETTLED else Mode.SETTLED
        return state._replace(mode=mode), 0, ()

    monkeypatch.setattr(engine, "independent_step", unsettle)
    with pytest.raises(SimulationInvariantError, match="robot 1 attempted to leave the settled"):
        walk(g, [0], Algorithm.INDEPENDENT_SYNC)

    def dock_then_unsettle(state, view, mutex_winner):
        # all turn settled and move on; at the next free node the winner
        # docks and the robot stepping after it leaves the settled mode
        if state.mode is not Mode.SETTLED:
            return state._replace(mode=Mode.SETTLED), 0, ()
        if mutex_winner == state.label:
            return state, -1, ()
        return state._replace(mode=Mode.EXPLORE), 0, ()

    monkeypatch.setattr(engine, "independent_step", dock_then_unsettle)
    with pytest.raises(SimulationInvariantError, match="robot 2 attempted to leave the settled"):
        walk(g, [0, 0, 0], Algorithm.INDEPENDENT_SYNC)


def test_sync_rejects_async_algorithm():
    with pytest.raises(ValueError):
        run_sync(TRIANGLE, [0], Algorithm.HELPING_ASYNC)
    with pytest.raises(ValueError):
        run_async(TRIANGLE, [0], Algorithm.HELPING_SYNC)
    with pytest.raises(ValueError):
        run(TRIANGLE, [0], Algorithm.HELPING_SYNC, scheduler_policy=RoundRobin())


@pytest.mark.parametrize(
    "alg,scheduler",
    [(Algorithm.HELPING_SYNC, None), (Algorithm.INDEPENDENT_ASYNC, SeededRandom(0))],
    ids=["helping-sync", "independent-async"],
)
def test_mutex_policy_names_run_as_their_policy(alg, scheduler):
    # on this instance the two policies give different reports, so a name
    # read as the wrong policy shows
    graph = generate("grid", 36, seed=0, ports="random")
    rng = random.Random(0)
    placement = [rng.randrange(36) for _ in range(30)]
    reports = {
        policy: run(graph, placement, alg, scheduler, mutex_policy=policy)
        for policy in MutexPolicy
    }
    assert reports[MutexPolicy.LOWEST_LABEL] != reports[MutexPolicy.EARLIEST_ARRIVAL]
    for policy, report in reports.items():
        assert run(graph, placement, alg, scheduler, mutex_policy=policy.value) == report
    events = []
    with pytest.raises(ValueError):
        run(graph, placement, alg, scheduler, mutex_policy="nonsense", trace_sink=events.append)
    assert events == []


# --- asynchronous engine ----------------------------------------------------


@pytest.mark.parametrize("alg", [Algorithm.HELPING_ASYNC, Algorithm.INDEPENDENT_ASYNC])
@pytest.mark.parametrize(
    "scheduler", [RoundRobin(), SeededRandom(seed=9), AdversarialStalling()]
)
def test_single_robot_settles_in_one_event(alg, scheduler):
    g = generate("gnm", 6, 9, seed=2)
    report = run_async(g, [3], alg, scheduler_policy=scheduler)
    assert report.dispersed
    assert report.events_elapsed == 1
    assert report.robots[0].moves == 0
    assert report.robots[0].settle_time == 0


def test_seeded_scheduler_reruns_are_trace_identical():
    g = generate("gnm", 9, 14, seed=5)
    lines = []
    for _ in range(2):
        records = []
        run_async(
            g,
            [1, 1, 4, 7],
            Algorithm.INDEPENDENT_ASYNC,
            scheduler_policy=SeededRandom(seed=13),
            trace_sink=records.append,
        )
        lines.append(records)
    assert lines[0] == lines[1]


def test_ring_async_within_iteration_bound():
    g = generate("ring", 6)
    rng = random.Random(11)
    placement = [rng.randrange(6) for _ in range(4)]
    report = run_async(g, placement, Algorithm.INDEPENDENT_ASYNC)
    assert report.dispersed
    assert async_iteration_bound(g) == 15
    assert all(r.active_iterations <= 15 for r in report.robots)
    # sanity oracle: the synchronous engine disperses the same instance
    sync_report = run_sync(g, placement, Algorithm.INDEPENDENT_SYNC)
    assert sync_report.dispersed
    assert all(
        r.settle_time <= sync_round_bound(g) for r in sync_report.robots
    )


def _async_instances(rng: random.Random):
    for family, n in [("ring", 6), ("ring", 13), ("grid", 9), ("grid", 16),
                      ("random_tree", 7), ("random_tree", 15), ("line", 5), ("line", 12),
                      ("complete", 4), ("complete", 8)]:
        g = generate(family, n, seed=n, ports="random")
        for k in sorted({1, n // 2, n}):
            yield g, [0] * k
            yield g, [rng.randrange(n) for _ in range(k)]


def _async_schedulers(k: int, rng: random.Random):
    yield RoundRobin()
    yield SeededRandom(seed=rng.randrange(2**32))
    yield SeededRandom(seed=rng.randrange(2**32), fairness_bound=k - 1)
    yield AdversarialStalling()
    yield AdversarialStalling(fairness_bound=k - 1)
    yield AdversarialStalling(weights=tuple(rng.randint(1, 3) for _ in range(k)))  # ties


@pytest.mark.parametrize("mutex", list(MutexPolicy))
@pytest.mark.parametrize("alg", [Algorithm.HELPING_ASYNC, Algorithm.INDEPENDENT_ASYNC])
def test_inline_event_loop_matches_the_world_state_walk(alg, mutex):
    # the engine runs the common event inline on the world's lists; the
    # oracle walks every event through WorldState: same trace bytes, same
    # report, traced or not
    rng = random.Random(25)
    in_absentia = 0
    for g, placement in _async_instances(rng):
        for scheduler in _async_schedulers(len(placement), rng):
            ours, oracle = [], []
            report = run_async(g, placement, alg, scheduler, mutex, ours.append)
            assert report.dispersed
            assert report == reference_run_async(g, placement, alg, scheduler, mutex, oracle.append)
            assert ours == oracle
            assert run_async(g, placement, alg, scheduler, mutex) == report
            for line in ours:
                rec = json.loads(line)
                in_absentia += bool(rec["mutex"]) and rec["mutex"]["winner"] != rec["robot"]
    if mutex is MutexPolicy.EARLIEST_ARRIVAL:
        assert in_absentia > 0


@pytest.mark.parametrize("walk", [run_async, reference_run_async])
def test_inline_event_loop_raises_like_the_world_state_walk(monkeypatch, walk):
    g = generate("line", 3)

    def off_the_table(state, view, mutex_winner):
        return state, view.degree, ()

    monkeypatch.setattr(engine, "independent_step", off_the_table)
    with pytest.raises(GraphError, match="port 1 out of range at node 0"):
        walk(g, [0], Algorithm.INDEPENDENT_ASYNC)

    def unsettle(state, view, mutex_winner):
        mode = Mode.EXPLORE if state.mode is Mode.SETTLED else Mode.SETTLED
        return state._replace(mode=mode), 0, ()

    monkeypatch.setattr(engine, "independent_step", unsettle)
    with pytest.raises(SimulationInvariantError, match="robot 1 attempted to leave the settled"):
        walk(g, [0], Algorithm.INDEPENDENT_ASYNC)


def test_absentee_winner_settles_during_losers_event():
    g = generate("line", 3)
    # weights make robot 2 act first; parked robot 1 wins the mutex
    records = []
    report = run_async(
        g,
        [0, 0],
        Algorithm.HELPING_ASYNC,
        scheduler_policy=AdversarialStalling(weights=(2, 1)),
        trace_sink=record_sink(records),
    )
    assert report.dispersed
    first = records[0]
    assert first["robot"] == 2
    assert first["mutex"] == {"contenders": [1, 2], "winner": 1}
    assert first["action"]["type"] == "move"
    assert first["help"] == [[1, 2, -1]]
    stats = {r.label: r for r in report.robots}
    assert stats[1].settle_time == 0
    assert stats[1].moves == 0
    assert stats[1].active_iterations == 1  # the docking iteration


def _audit_fairness(records, report, bound):
    # consecutive pass-overs per robot while it is still schedulable,
    # counted from the very first decision (not just between activations)
    settle = {r.label: r.settle_time for r in report.robots}
    passes = {r.label: 0 for r in report.robots}
    for event, rec in enumerate(records):
        actor = rec["robot"]
        for label, settled_at in settle.items():
            if settled_at is not None and settled_at < event:
                continue
            if label == actor:
                passes[label] = 0
            else:
                passes[label] += 1
                assert passes[label] <= bound, (label, event)


@pytest.mark.parametrize(
    "policy_cls,kwargs",
    [
        (AdversarialStalling, {}),
        (SeededRandom, {"seed": 21}),
    ],
)
@pytest.mark.parametrize(
    "graph,k,bound",
    [
        # deliberately tight (default is 10k) to make forcing visible
        pytest.param(lambda: generate("gnm", 12, 20, seed=8), 6, 6, id="gnm12-k6"),
        # k - 1, the tightest satisfiable bound, with a crowd of 40
        pytest.param(lambda: generate("random_tree", 48, seed=3), 40, 39, id="tree48-k40"),
    ],
)
def test_schedulers_honor_fairness_bound(policy_cls, kwargs, graph, k, bound):
    records = []
    report = run_async(
        graph(),
        [0] * k,
        Algorithm.INDEPENDENT_ASYNC,
        scheduler_policy=policy_cls(fairness_bound=bound, **kwargs),
        trace_sink=record_sink(records),
    )
    assert report.dispersed
    _audit_fairness(records, report, bound)


def test_round_robin_gap_is_within_default_bound():
    g = generate("gnm", 10, 18, seed=14)
    records = []
    report = run_async(
        g, [0] * 7, Algorithm.HELPING_ASYNC, scheduler_policy=RoundRobin(),
        trace_sink=record_sink(records),
    )
    assert report.dispersed
    _audit_fairness(records, report, 10 * 7)


def test_unsatisfiable_fairness_bound_is_rejected():
    g = generate("ring", 5)
    with pytest.raises(ValueError, match="unsatisfiable"):
        run_async(
            g, [0] * 5, Algorithm.INDEPENDENT_ASYNC,
            scheduler_policy=AdversarialStalling(fairness_bound=2),
        )


# The pass-counter selectors the engine used before it kept last-pick order:
# O(k) per decision, kept verbatim as the reference for the engine's picks.


class _OracleFairSelector:
    """Shared fairness enforcement: no robot is passed over more than
    ``bound`` consecutive scheduling decisions."""

    def __init__(self, k: int, bound: int) -> None:
        if bound < k - 1:
            raise ValueError(
                f"fairness bound {bound} is unsatisfiable for {k} robots "
                f"(needs at least k-1 = {k - 1})"
            )
        self._bound = bound
        # staggered starts keep the counters pairwise distinct forever, so at
        # most one robot sits at the bound per decision and none exceeds it
        self._passes = [0] + [label - 1 for label in range(1, k + 1)]

    def _choose(self, unsettled):
        raise NotImplementedError

    def select(self, unsettled):
        starved = [l for l in unsettled if self._passes[l] >= self._bound]
        if starved:
            pick = max(starved, key=lambda l: (self._passes[l], -l))
        else:
            pick = self._choose(unsettled)
        for l in unsettled:
            self._passes[l] += 1
        self._passes[pick] = 0
        return pick


class _OracleSeededRandomSelector(_OracleFairSelector):
    def __init__(self, k: int, seed: int, bound: int) -> None:
        super().__init__(k, bound)
        self._rng = random.Random(seed)

    def _choose(self, unsettled):
        return self._rng.choice(unsettled)


class _OracleAdversarialSelector(_OracleFairSelector):
    def __init__(self, k: int, weights, bound: int) -> None:
        super().__init__(k, bound)
        if weights is not None and len(weights) != k:
            raise ValueError(f"need one delay weight per robot ({k}), got {len(weights)}")
        self._weights = list(weights) if weights is not None else list(range(1, k + 1))

    def _choose(self, unsettled):
        return min(unsettled, key=lambda l: (self._weights[l - 1], l))


class _OracleRoundRobinSelector:
    """The lowest unsettled label at or after the last pick + 1, wrapping to
    the lowest unsettled label."""

    def __init__(self) -> None:
        self._last = 0

    def select(self, unsettled):
        later = [l for l in unsettled if l > self._last]
        self._last = min(later) if later else min(unsettled)
        return self._last


def _selector_pairs(k, bound, rng):
    yield _OracleRoundRobinSelector(), engine._make_selector(RoundRobin(), k)
    seed = rng.randrange(2**32)
    yield (
        _OracleSeededRandomSelector(k, seed, bound),
        engine._make_selector(SeededRandom(seed, bound), k),
    )
    for weights in (None, [rng.randint(1, 3) for _ in range(k)]):  # ties
        yield (
            _OracleAdversarialSelector(k, weights, bound),
            engine._make_selector(AdversarialStalling(weights, bound), k),
        )


@pytest.mark.parametrize("k", range(1, 61))
def test_selectors_pick_like_the_pass_counter_oracle(k):
    rng = random.Random(k)
    forced = favorites_settled = 0
    for bound in (k - 1, k, 2 * k, 10 * k):
        # rare settles let robots starve up to a large bound
        settle_rate = rng.choice((0.5, 0.1, 0.02))
        for oracle, selector in _selector_pairs(k, bound, rng):
            unsettled = list(range(1, k + 1))

            def decide() -> int:
                nonlocal forced
                if isinstance(oracle, _OracleFairSelector):
                    forced += max(oracle._passes[l] for l in unsettled) >= bound
                pick = oracle.select(unsettled)
                assert selector.select(unsettled) == pick
                return pick

            # stretches of at least 3 * bound decisions without a settle, each
            # ending in the settle of a robot the last decision passed over:
            # the fairness deadline is reached and recomputed many times, and
            # the adversary's favourite can settle without being picked (one
            # stretch at the default bound, the longest)
            for _ in range(min(k - 1, 1 if bound == 10 * k else 2)):
                for _ in range(3 * bound + 1 + rng.randrange(k)):
                    pick = decide()
                victim = rng.choice([l for l in unsettled if l != pick])
                if isinstance(oracle, _OracleAdversarialSelector) and rng.random() < 0.5:
                    favorite = oracle._choose(unsettled)
                    if favorite != pick:
                        victim = favorite
                        favorites_settled += 1
                unsettled.remove(victim)
            while unsettled:
                pick = decide()
                if rng.random() < settle_rate:
                    unsettled.remove(pick)
                if unsettled and rng.random() < settle_rate:
                    unsettled.remove(rng.choice(unsettled))
    assert forced
    assert favorites_settled or k < 3


def test_world_rejects_second_dock_on_same_node():
    world = WorldState(TRIANGLE, [0, 0], helping=True)
    world.dock(1, 0, 0)
    with pytest.raises(SimulationInvariantError):
        world.dock(2, 0, 0)


def test_world_rejects_leaving_settled_mode():
    world = WorldState(TRIANGLE, [0, 0], helping=True)
    world.apply_state(1, world.states[0]._replace(mode=Mode.SETTLED))
    with pytest.raises(SimulationInvariantError):
        world.apply_state(1, HelpingState(1))


def test_both_engines_bind_the_one_helping_step():
    # perfbench/spans.py wraps each engine's helping step by these names
    assert engine.helping_sync_step is engine.helping_async_step is helping_step


def slots(view):
    """The docked robot's label and the viewer's own slot in its record."""
    return view.docked, view.record_self


@pytest.mark.parametrize("helping", [True, False])
def test_visitor_records_exist_exactly_from_dock_in_helping_family(helping):
    world = WorldState(TRIANGLE, [0, 0, 0], helping=helping)
    assert world.records == [None] * 3
    world.dock(2, 0, 0)
    contents = [None if r is None else list(r) for r in world.records]
    assert contents == [None, [0] * 4 if helping else None, None]
    if helping:
        # a triangle's slot codes reach 3 at most: one byte per slot
        assert world.records[1].typecode == "B"
    assert slots(world.local_view(1)) == (2, 0)


def test_help_records_serve_first_visits_only():
    world = WorldState(TRIANGLE, [0, 0, 0], helping=True)
    world.dock(1, 0, 0)
    world.apply_help_record(3, 1, 2)
    assert slots(world.local_view(3)) == (1, 4)
    # a repeat visit keeps the first entry port
    world.apply_help_record(3, 1, 0)
    assert slots(world.local_view(3)) == (1, 4)
    # a visitor recorded before it ever moved is stored as port -1
    world.apply_help_record(2, 1, -1)
    assert slots(world.local_view(2)) == (1, 1)
    assert list(world.records[0]) == [0, 0, 1, 4]


@pytest.mark.parametrize("helping", [True, False])
def test_local_views_keep_their_type_and_arity(helping):
    world = WorldState(TRIANGLE, [0, 0, 0, 1], helping=helping)
    world.dock(1, 0, 0)
    if helping:
        world.apply_help_record(2, 1, 1)
    free, fresh, seen = (world.local_view(lab) for lab in (4, 3, 2))
    for v in (free, fresh, seen):
        assert_exact(v, LocalView)
    assert slots(free) == (None, 0)
    assert slots(fresh) == (1, 0)
    # an independent visitor's slot stays blank: its docked robot keeps no record
    assert slots(seen) == ((1, 3) if helping else (1, 0))


# the smallest star whose slot codes outgrow a byte: the center reaches leaf
# 255 through port 254, so a robot entering the center from there is
# recorded as code 256
WIDE_STAR = build_graph([(0, i) for i in range(1, 256)])


def test_visitor_records_widen_past_one_byte_on_high_degree_graphs():
    world = WorldState(WIDE_STAR, [0, 0, 0], helping=True)
    world.dock(1, 0, 0)
    world.apply_help_record(2, 1, 254)
    assert world.records[0].typecode == "i"
    assert slots(world.local_view(2)) == (1, 256)
    assert slots(world.local_view(3)) == (1, 0)


@pytest.mark.parametrize("alg", [Algorithm.HELPING_SYNC, Algorithm.HELPING_ASYNC])
def test_helping_runs_disperse_and_replay_on_high_degree_graphs(tmp_path, alg):
    placement = InitialPlacement((255,) * 4)
    scheduler = None if alg.is_sync else RoundRobin()
    path = tmp_path / "star.jsonl"
    with engine.JsonlTraceWriter(path) as sink:
        sink(cli.trace_header(0, 0, alg, WIDE_STAR, placement, MutexPolicy.LOWEST_LABEL, scheduler))
        report = run(WIDE_STAR, placement, alg, scheduler, trace_sink=sink)
    assert report.dispersed
    # the center's docked robot served visitors that entered through port 254
    events = [json.loads(line) for line in path.read_text().splitlines()[1:]]
    assert any(entry == 254 for e in events for _, _, entry in e["help"])
    assert cli.replay(path) == 0


@pytest.mark.parametrize(
    "helping,target",
    [(True, 1), (False, 1), (False, 2)],
    ids=["helping-undocked", "independent-undocked", "independent-docked"],
)
def test_help_record_to_robot_without_records_is_hard_failure(helping, target):
    world = WorldState(TRIANGLE, [0, 1], helping=helping)
    world.dock(2, 1, 0)  # robot 1 stays undocked
    with pytest.raises(SimulationInvariantError, match=f"robot {target} keeps no"):
        world.apply_help_record(1, target, 0)


@pytest.mark.parametrize("helping", [True, False])
def test_settle_in_absentia_refreshes_entry_port_like_own_iteration(helping):
    from dispersim.agents import Mode
    from dispersim.algorithms import independent_step

    g = generate("line", 3)
    world = WorldState(g, [0, 0], helping=helping)
    # robot 1 has acted once and just arrived at node 1 through port 0
    world.apply_state(1, world.states[0]._replace(round=1, port_entered=5))
    world.move_robot(1, *g.traverse(0, 0))
    step = helping_step if helping else independent_step
    world.settle_in_absentia(1, 1, 7, step)
    settled = world.states[0]
    assert settled.mode is Mode.SETTLED
    assert settled.round == 2
    assert settled.port_entered == 0
    if helping:
        assert settled.parent_ptr == 0 and settled.seen is False
    assert world.docked == {1: 1}
    assert world.settle_time[0] == 7
    assert world.unsettled == [2]


def test_safety_cap_reports_undispersed_run(monkeypatch):
    monkeypatch.setattr(engine, "SAFETY_FACTOR", 0)
    report = run_async(generate("ring", 4), [0, 0, 0], Algorithm.INDEPENDENT_ASYNC)
    assert not report.dispersed
    assert report.events_elapsed == 0
    assert all(r.settle_time is None for r in report.robots)


@pytest.mark.parametrize("alg", list(Algorithm))
def test_report_values_keep_their_type_and_arity(monkeypatch, alg):
    # the engine builds each RobotStats through tuple.__new__, which checks
    # no arity; a run cut short leaves settled and unsettled robots
    g = generate("grid", 20, ports="random", seed=1)
    placement = [0] * 8 + [7] * 4
    k, delta, m = len(placement), g.max_degree, g.edge_count
    scheduler = None if alg.is_sync else SeededRandom(seed=2)
    reports = [run(g, placement, alg, scheduler)]
    # rounds 0..4, or an event cap of 1 * k * 5 = 60
    monkeypatch.setattr(engine, "sync_round_bound", lambda graph: 4)
    monkeypatch.setattr(engine, "SAFETY_FACTOR", 1)
    reports.append(run(g, placement, alg, scheduler))
    assert reports[0].dispersed and not reports[1].dispersed
    assert len(set(reports[1].final_modes)) > 1 and "settled" in reports[1].final_modes
    for report in reports:
        for r, mode in zip(report.robots, report.final_modes, strict=True):
            assert_exact(r, RobotStats)
            assert r == RobotStats(**r._asdict())
            assert type(r.moves) is int and type(r.active_iterations) is int
            if alg.family == "helping":
                assert r.peak_stack_depth is None
                bits = memory_bits_helping(mode == "settled", k, delta, m)
            else:
                bits = memory_bits_independent(r.peak_stack_depth, k, delta)
            assert r.peak_memory_bits == bits


def test_report_shape_and_modes():
    report = run_async(TRIANGLE, [0, 0, 0], Algorithm.INDEPENDENT_ASYNC)
    assert report.final_modes == ("settled",) * 3
    assert len(set(report.final_positions)) == 3
    assert report.rounds_elapsed is None
    assert report.events_elapsed == 6
    assert report.max_stack_depth == 2


# --- memory accounting ------------------------------------------------------


def _observe_peak_memory(monkeypatch, graph, k):
    """Wrap the engine's step functions in a per-step memory observer: a
    robot's peak is the largest formula value over every state its steps
    receive or return.  The report derives the same figure once per robot."""
    delta, m = graph.max_degree, graph.edge_count
    peaks: dict[int, int] = {}

    def bits(state):
        if isinstance(state, HelpingState):
            return memory_bits_helping(state.mode is Mode.SETTLED, k, delta, m)
        return memory_bits_independent(len(state.stack), k, delta)

    def observed(step):
        def wrapped(state, view, mutex_winner):
            out = step(state, view, mutex_winner)
            for s in (state, out[0]):
                peaks[s.label] = max(peaks.get(s.label, 0), bits(s))
            return out

        return wrapped

    for name in ("helping_sync_step", "helping_async_step", "independent_step"):
        monkeypatch.setattr(engine, name, observed(getattr(engine, name)))
    return peaks


@pytest.mark.parametrize("alg", list(Algorithm))
@pytest.mark.parametrize("mutex", list(MutexPolicy))
@pytest.mark.parametrize(
    "graph,placement",
    [
        (generate("random_tree", 24, seed=3, ports="random"), [0] * 24),
        (generate("grid", 20, ports="random", seed=1), [0] * 20),
        (generate("gnm", 16, 30, seed=6), [3, 3, 9, 0, 9, 12, 3, 3]),
    ],
    ids=["tree-colocated", "grid-colocated", "gnm-scattered"],
)
def test_report_peak_memory_matches_per_step_observer(monkeypatch, alg, mutex, graph, placement):
    k = len(placement)
    peaks = _observe_peak_memory(monkeypatch, graph, k)
    records = []
    scheduler = None if alg.is_sync else SeededRandom(seed=4)
    if alg.is_sync:
        # the engine steps each cohort once, so the observer watches the
        # per-robot oracle, whose report the engine's must equal
        oracle = reference_run_sync(graph, placement, alg, mutex)
    report = run(graph, placement, alg, scheduler, mutex, trace_sink=record_sink(records))
    if alg.is_sync:
        assert report == oracle
    assert report.dispersed
    assert [r.peak_memory_bits for r in report.robots] == [peaks[lab] for lab in range(1, k + 1)]
    if not alg.is_sync and mutex is MutexPolicy.EARLIEST_ARRIVAL and len(set(placement)) == 1:
        # the run settles some mutex winners in absentia, during another
        # robot's event
        assert any(rec["mutex"] and rec["mutex"]["winner"] != rec["robot"] for rec in records)


# --- anonymity audit --------------------------------------------------------


@pytest.mark.parametrize(
    "alg,kwargs",
    [
        (Algorithm.HELPING_SYNC, {}),
        (Algorithm.INDEPENDENT_SYNC, {}),
        (Algorithm.HELPING_ASYNC, {"scheduler_policy": SeededRandom(seed=3)}),
        (Algorithm.INDEPENDENT_ASYNC, {"scheduler_policy": RoundRobin()}),
    ],
)
def test_relabeling_nodes_yields_identical_traces_up_to_relabeling(alg, kwargs):
    rng = random.Random(77)
    g, placement = random_connected_instance(rng, n_max=14)
    perm = list(range(g.node_count))
    rng.shuffle(perm)
    h = relabel_nodes(g, perm)
    moved = [perm[v] for v in placement.robot_positions]

    original, relabeled = [], []
    run(g, placement, alg, mutex_policy=MutexPolicy.EARLIEST_ARRIVAL,
        trace_sink=record_sink(original), **kwargs)
    run(h, moved, alg, mutex_policy=MutexPolicy.EARLIEST_ARRIVAL,
        trace_sink=record_sink(relabeled), **kwargs)

    assert len(original) == len(relabeled)
    for a, b in zip(original, relabeled):
        assert b["node"] == perm[a["node"]]
        for key in ("event", "robot", "mode_before", "mode_after", "action", "mutex", "help"):
            assert a.get(key) == b.get(key), key
        assert a.get("round") == b.get("round")


# --- run invariants over random instances -----------------------------------


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_random_instances_disperse_with_valid_invariants(seed):
    rng = random.Random(seed)
    g, placement = random_connected_instance(rng, n_max=16)
    k = placement.robot_count
    for alg, kwargs in (
        (Algorithm.HELPING_SYNC, {}),
        (Algorithm.INDEPENDENT_SYNC, {}),
        (Algorithm.HELPING_ASYNC, {"scheduler_policy": SeededRandom(seed=seed)}),
        (Algorithm.INDEPENDENT_ASYNC, {"scheduler_policy": AdversarialStalling()}),
    ):
        report = run(g, placement, alg, **kwargs)
        assert report.dispersed
        assert len(set(report.final_positions)) == k
        assert all(m == "settled" for m in report.final_modes)
        depth = report.max_stack_depth
        if depth is not None:
            assert depth <= k - 1


def _counters_from_trace(records, k: int, sync: bool) -> list[tuple]:
    """Each robot's (active_iterations, moves, settle_time), rebuilt from the
    trace alone: one iteration per own line, plus, in the asynchronous engine,
    the docking iteration of a mutex winner settled in absentia during
    another robot's event, which has no line of its own."""
    iterations, moves, settled = [0] * (k + 1), [0] * (k + 1), [None] * (k + 1)
    for rec in records:
        lab, when = rec["robot"], rec["round"] if sync else rec["event"]
        iterations[lab] += 1
        if rec["action"]["type"] == "move":
            moves[lab] += 1
        else:
            settled[lab] = when
        winner = rec["mutex"] and rec["mutex"]["winner"]
        if not sync and winner and winner != lab and settled[winner] is None:
            iterations[winner] += 1
            settled[winner] = when
    return [(iterations[lab], moves[lab], settled[lab]) for lab in range(1, k + 1)]


@pytest.mark.parametrize("mutex", list(MutexPolicy))
@pytest.mark.parametrize(
    "alg,scheduler",
    [
        (Algorithm.HELPING_SYNC, None),
        (Algorithm.INDEPENDENT_SYNC, None),
        *(
            (alg, scheduler)
            for alg in (Algorithm.HELPING_ASYNC, Algorithm.INDEPENDENT_ASYNC)
            for scheduler in (RoundRobin(), SeededRandom(seed=5), AdversarialStalling())
        ),
    ],
    ids=lambda v: v.value if isinstance(v, Algorithm) else v and type(v).__name__,
)
def test_report_counters_match_the_trace(alg, scheduler, mutex):
    # a second witness of the per-robot counters, which the report derives
    # from each robot's round counter
    rng = random.Random(23)
    # events won by another robot: in the async engine, each settles the
    # parked winner in absentia
    in_absentia = 0
    for _ in range(12):
        g, scattered = random_connected_instance(rng, n_max=16)
        k = scattered.robot_count
        colocated = [rng.randrange(g.node_count)] * k
        for placement in (scattered, colocated):
            records = []
            report = run(g, placement, alg, scheduler, mutex, trace_sink=record_sink(records))
            assert report.dispersed
            counters = [(r.active_iterations, r.moves, r.settle_time) for r in report.robots]
            assert counters == _counters_from_trace(records, k, alg.is_sync)
            in_absentia += sum(
                bool(rec["mutex"]) and rec["mutex"]["winner"] != rec["robot"] for rec in records
            )
    if isinstance(scheduler, SeededRandom):
        # the witness's in-absentia branch is taken
        assert in_absentia > 0


# the trace schema's key order for a header line and for an event line
# ("round" in synchronous traces only)
HEADER_KEYS = (
    "type", "run_id", "algorithm", "graph", "placement", "mutex", "scheduler",
    "safety_factor", "seed",
)
EVENT_KEYS = (
    "event", "round", "robot", "node", "mode_before", "mode_after", "action",
    "mutex", "help",
)


def _reencode_header(line: str) -> str:
    header = json.loads(line)
    return json.dumps({key: header[key] for key in HEADER_KEYS}, separators=(",", ":"))


def _reencode_event(line: str, sync: bool) -> str:
    """The schema's encoding of a parsed event line: its fields rebuilt in
    schema order, top level and nested, then compact JSON."""
    record = json.loads(line)
    action, mutex = record["action"], record["mutex"]
    record["action"] = {"type": action["type"]}
    if action["type"] == "move":
        record["action"]["port"] = action["port"]
    if mutex is not None:
        record["mutex"] = {"contenders": mutex["contenders"], "winner": mutex["winner"]}
    keys = EVENT_KEYS if sync else tuple(k for k in EVENT_KEYS if k != "round")
    return json.dumps({key: record[key] for key in keys}, separators=(",", ":"))


def test_trace_lines_are_compact_json(tmp_path):
    line4 = generate("line", 4)
    cases = [
        (Algorithm.HELPING_SYNC, TRIANGLE, (0, 0, 0), None),
        (Algorithm.HELPING_ASYNC, line4, (0, 0, 0, 0), AdversarialStalling(weights=(4, 1, 2, 3))),
        (Algorithm.INDEPENDENT_SYNC, line4, (1, 1, 1), None),
        (
            Algorithm.INDEPENDENT_ASYNC, generate("gnm", 9, 14, seed=5), (1, 1, 4, 7),
            SeededRandom(seed=13),
        ),
    ]
    events = []
    for i, (alg, graph, placement, scheduler) in enumerate(cases):
        path = tmp_path / f"run_{i}.jsonl"
        mutex = MutexPolicy.EARLIEST_ARRIVAL
        with engine.JsonlTraceWriter(path) as sink:
            sink(cli.trace_header(i, 0, alg, graph, InitialPlacement(placement), mutex, scheduler))
            run(graph, placement, alg, scheduler, mutex, trace_sink=sink)
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n")
        header, *lines = text[:-1].split("\n")
        assert header == _reencode_header(header)
        for line in lines:
            assert line == _reencode_event(line, alg.is_sync)
        events += map(json.loads, lines)
    # every shape each field takes is among the lines checked
    assert {e["action"]["type"] for e in events} == {"move", "dock"}
    assert any(e["mutex"] is None for e in events)
    assert any(e["mutex"] and len(e["mutex"]["contenders"]) > 1 for e in events)
    assert any(e["help"] == [] for e in events)
    assert any(entry[2] == -1 for e in events for entry in e["help"])
