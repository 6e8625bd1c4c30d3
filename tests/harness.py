"""Shared test machinery: seeded random instances, node relabeling, a trace
sink that parses what it receives, a check of a step value's type and
arity, the docking-disabled single-robot traversal harness used for
DFS-oracle equivalence, the walk witness that checks a run from its trace
alone, the per-robot synchronous walk that the engine's cohort walk is
checked against, and the asynchronous event walk through ``WorldState``
that the engine's inline event loop is checked against."""

from __future__ import annotations

import json
import random
from typing import Callable, Iterable, Sequence

from dispersim import engine
from dispersim.agents import HelpingState, IndependentState
from dispersim.algorithms import (
    LocalView,
    helping_step,
    independent_step,
    settled_service,
)
from dispersim.analysis import RunReport, single_robot_dfs_oracle
from dispersim.graph import (
    GraphError,
    InitialPlacement,
    PortLabeledGraph,
    build_graph,
    generate,
)

STEP_FUNCTIONS = {"helping": helping_step, "independent": independent_step}


def record_sink(records: list[dict]) -> Callable[[str], None]:
    """A trace sink that parses each line it receives into ``records``."""
    return lambda line: records.append(json.loads(line))


def assert_exact(value, cls) -> None:
    """``value`` is a ``cls`` holding exactly one item per field: the steps
    and the engine build their values through ``tuple.__new__``, which
    checks no arity."""
    assert type(value) is cls
    assert len(value) == len(cls._fields)


def random_connected_instance(
    rng: random.Random, n_max: int = 40, m_cap_factor: int = 3
) -> tuple[PortLabeledGraph, InitialPlacement]:
    """Seeded random connected graph with n <= n_max, n-1 <= m <= min(3n,
    n(n-1)/2), random port labels, and a random placement of 1 <= k <= n
    robots."""
    n = rng.randint(1, n_max)
    if n == 1:
        return generate("line", 1), InitialPlacement((0,))
    m_max = min(m_cap_factor * n, n * (n - 1) // 2)
    m = rng.randint(n - 1, m_max)
    # random spanning tree plus a sample of extra edges keeps every density
    # in range reachable (plain G(n,m) rejection is hopeless near m = n-1)
    tree = [(rng.randrange(v), v) for v in range(1, n)]
    have = set(tree)
    pool = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in have]
    edges = tree + rng.sample(pool, m - (n - 1))
    g = build_graph(edges, ports="random", seed=rng.randrange(2**32), node_count=n)
    k = rng.randint(1, n)
    placement = InitialPlacement(tuple(rng.randrange(n) for _ in range(k)))
    return g, placement


def relabel_nodes(g: PortLabeledGraph, permutation: Sequence[int]) -> PortLabeledGraph:
    """Apply a node permutation, preserving every port number.

    ``permutation[v]`` is the new index of old node ``v``.  Used to audit
    that algorithms never read node identity.
    """
    if sorted(permutation) != list(range(g.node_count)):
        raise GraphError("relabeling must be a permutation of all nodes")
    edges = [(permutation[u], permutation[v]) for u, v in g.edges()]
    orders = {permutation[v]: [permutation[u] for u, _ in t] for v, t in enumerate(g.ports)}
    return build_graph(edges, ports=orders, node_count=g.node_count)


def traversal_without_docking(
    graph: PortLabeledGraph, start: int, step_name: str
) -> list[tuple[int, int]]:
    """Drive one robot's step function with docking disabled.

    Whenever the robot reaches a free node, a phantom robot (a fresh label)
    settles there and the robot takes the mutex-loser path, so the walk is
    the algorithm's traversal with every node pre-claimable but the robot
    itself never docking.  Returns the directed edge sequence of the first
    4m - 2n + 2 moves, the length of a complete depth-first traversal.
    """
    step = STEP_FUNCTIONS[step_name]
    helping = step_name == "helping"
    state = HelpingState(1) if helping else IndependentState(1)

    phantom_at: dict[int, int] = {}
    phantom_node: dict[int, int] = {}
    # node -> the phantom's visitor record, slot 1 being the robot's own
    records: dict[int, list[int]] = {}
    next_phantom = 2
    target = 4 * graph.edge_count - 2 * graph.node_count + 2
    pos = start
    pending = -1
    seq: list[tuple[int, int]] = []

    while len(seq) < target:
        degree = graph.degree(pos)
        winner = None
        if pos in phantom_at:
            # independent robots emit no help records: their slot stays blank
            view = LocalView(degree, phantom_at[pos], pending, records[pos][1])
        else:
            phantom_at[pos] = next_phantom
            phantom_node[next_phantom] = pos
            records[pos] = [0, 0]
            winner = next_phantom
            next_phantom += 1
            view = LocalView(degree, None, pending)

        state, port, effects = step(state, view, winner)
        for docked, entry in effects:
            settled_service(records[phantom_node[docked]], 1, entry)
        assert port >= 0, "robot docked while docking is disabled"
        dest, entry = graph.traverse(pos, port)
        seq.append((pos, dest))
        pos, pending = dest, entry
    return seq


def assert_walk_witness(
    lines: Iterable[str],
    graph: PortLabeledGraph,
    starts: Sequence[int],
    walks: dict[int, tuple[list[int], int]] | None = None,
) -> None:
    """Check one run from its trace lines (no header), its graph and its
    robots' start nodes alone: each robot walks a prefix of the single-robot
    depth-first walk from its own start, and docks by the walk's k-th
    distinct node.

    A robot's walk is its start, then each node the DFS oracle enters.  The
    nodes of the robot's own lines, then its docking node, must be a prefix
    of it.  A robot docks at the node of its dock line, or, settled in
    absentia by another robot's event, at the node of the event that names
    it the mutex winner.

    ``walks`` caches start -> (walk, index of its k-th distinct node) across
    runs that share the graph and k.
    """
    k = len(starts)
    occupied: list[list[int]] = [[] for _ in range(k + 1)]
    docked_by_line = [False] * (k + 1)
    won_at: dict[int, int] = {}
    for line in lines:
        e = json.loads(line)
        occupied[e["robot"]].append(e["node"])
        docked_by_line[e["robot"]] = e["action"]["type"] == "dock"
        if e["mutex"] is not None:
            won_at.setdefault(e["mutex"]["winner"], e["node"])
    walks = {} if walks is None else walks
    for lab, start in enumerate(starts, 1):
        if start not in walks:
            walk = [start] + [to for _, to in single_robot_dfs_oracle(graph, start)]
            seen: set[int] = set()
            for last, node in enumerate(walk):
                seen.add(node)
                if len(seen) == k:
                    break
            walks[start] = walk, last
        walk, last = walks[start]
        assert lab in won_at, f"robot {lab} never docked"
        path = occupied[lab] if docked_by_line[lab] else occupied[lab] + [won_at[lab]]
        assert path[-1] == won_at[lab], f"robot {lab} docked off its mutex win"
        assert path == walk[: len(path)], f"robot {lab} left its walk from node {start}"
        assert len(path) - 1 <= last, f"robot {lab} docked past its walk's {k}-th node"


def reference_run_sync(
    graph: PortLabeledGraph,
    placement,
    algorithm="helping-sync",
    mutex_policy="lowest-label",
    trace_sink: Callable[[str], None] | None = None,
) -> RunReport:
    """The synchronous engine as a per-robot walk: one step per unsettled
    robot per round, in label order, computed from the pre-round snapshot.

    Each free node's mutex is arbitrated at its first robot among every
    unsettled robot parked there, by the policy's full (arrival index, entry
    port, label) key; each successor state is applied and its event traced
    in the walk; then docks are applied, then help records, then all moves
    land with single-lane arrival ordering.  ``engine.run_sync`` steps each
    cohort once instead and must give the same trace bytes and report.
    """
    algorithm, mutex_policy, world, step = engine._start(
        graph, placement, algorithm, mutex_policy, True
    )
    event_no = 0
    rounds_elapsed = 0
    for rnd in range(engine.sync_round_bound(graph) + 1):
        if not world.unsettled:
            break
        rounds_elapsed = rnd
        winners: dict[int, int] = {}
        arbitrations: dict[int, str] = {}
        docks: list[tuple[int, int]] = []
        # (visitor, docked, entry port)
        help_records: list[tuple[int, int, int]] = []
        moves: list[tuple[int, int]] = []
        for lab in world.unsettled:
            node = world.positions[lab - 1]
            view = world.local_view(lab)
            if view.docked is None and node not in winners:
                contenders, winners[node] = world.arbitrate(node, mutex_policy)
                arbitrations[node] = engine.mutex_json(contenders, winners[node])
            old = world.states[lab - 1]
            state, port, effects = step(old, view, winners.get(node))
            world.apply_state(lab, state)
            if port >= 0:
                moves.append((lab, port))
            else:
                docks.append((lab, node))
            help_records += [(lab, *record) for record in effects]
            if trace_sink is not None:
                trace_sink(engine.trace_record_line(
                    event_no, rnd, lab, node, old.mode, state.mode, port,
                    arbitrations.get(node, "null"), effects,
                ))
                event_no += 1
        for lab, node in docks:
            world.dock(lab, node, rnd)
        for record in help_records:
            world.apply_help_record(*record)
        engine.apply_moves_single_lane(world, moves)
    return engine._build_report(world, algorithm, rounds_elapsed, None, trace_sink)


def reference_run_async(
    graph: PortLabeledGraph,
    placement,
    algorithm="independent-async",
    scheduler_policy=engine.RoundRobin(),
    mutex_policy="lowest-label",
    trace_sink: Callable[[str], None] | None = None,
) -> RunReport:
    """The asynchronous engine as an event walk through ``WorldState``.

    Each event builds the acting robot's view with ``local_view``,
    arbitrates a free node with ``arbitrate``, settles an absent winner in
    absentia, stores the successor with ``apply_state``, applies help
    records and lands the move with ``traverse`` and ``move_robot`` (or
    docks).  The picks come from the engine's own selector, which is checked
    against its pass-counter oracle elsewhere.  ``engine.run_async`` runs the
    common event inline instead and must give the same trace bytes and
    report.
    """
    algorithm, mutex_policy, world, step = engine._start(
        graph, placement, algorithm, mutex_policy, False
    )
    cap = engine.SAFETY_FACTOR * world.k * (engine.sync_round_bound(graph) + 1)
    selector = engine._make_selector(scheduler_policy, world.k)
    event = 0
    while world.unsettled and event < cap:
        lab = selector.select(world.unsettled)
        node = world.positions[lab - 1]
        view = world.local_view(lab)
        mutex = None if view.docked is not None else world.arbitrate(node, mutex_policy)
        before = world.states[lab - 1].mode
        state, port, effects = step(world.states[lab - 1], view, mutex[1] if mutex else None)
        if mutex is not None and mutex[1] != lab:
            world.settle_in_absentia(mutex[1], node, event, step)
        world.apply_state(lab, state)
        for record in effects:
            world.apply_help_record(lab, *record)
        if port >= 0:
            world.move_robot(lab, *graph.traverse(node, port))
        else:
            world.dock(lab, node, event)
        if trace_sink is not None:
            trace_sink(engine.trace_record_line(
                event, None, lab, node, before, state.mode, port,
                "null" if mutex is None else engine.mutex_json(*mutex), effects,
            ))
        event += 1
    return engine._build_report(world, algorithm, None, event, trace_sink)
