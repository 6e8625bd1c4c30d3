"""Execution engines: synchronous rounds and asynchronous discrete events.

Both engines serialize every state mutation through one apply path, so a run
is fully determined by (graph, placement, algorithm, policies, seeds) and its
trace replays bit-exactly.  There is no floating point anywhere here.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Sequence

from .agents import (
    SETTLED,
    HelpingState,
    IndependentState,
    Mode,
    memory_bits_helping,
    memory_bits_independent,
)
from .algorithms import (
    Dock,
    DockedHandle,
    HelpRecord,
    LocalView,
    Move,
    SimulationInvariantError,
    helping_step,
    independent_step,
    new_docked_handle,
    new_local_view,
    settled_service,
)
from .analysis import RobotStats, RunReport, check_dispersion, sync_round_bound
from .graph import InitialPlacement, PortLabeledGraph

__all__ = [
    "Algorithm",
    "MutexPolicy",
    "RoundRobin",
    "SeededRandom",
    "AdversarialStalling",
    "SchedulerPolicy",
    "Contender",
    "WorldState",
    "arbitrate_mutex",
    "apply_moves_single_lane",
    "run_sync",
    "run_async",
    "run",
    "JsonlTraceWriter",
    "mutex_json",
    "trace_record_line",
    "SAFETY_FACTOR",
]

# the asynchronous event cap is SAFETY_FACTOR * k * (4m - 2(n-1) + 1)
SAFETY_FACTOR = 4

# one helping step serves both engines; perfbench/spans.py times each
# engine's step through its own binding, which _start reads at run start
helping_sync_step = helping_async_step = helping_step


class Algorithm(Enum):
    HELPING_SYNC = "helping-sync"
    HELPING_ASYNC = "helping-async"
    INDEPENDENT_SYNC = "independent-sync"
    INDEPENDENT_ASYNC = "independent-async"

    @property
    def is_sync(self) -> bool:
        return self.value.endswith("-sync")

    @property
    def family(self) -> str:
        return self.value.split("-", 1)[0]


class MutexPolicy(Enum):
    LOWEST_LABEL = "lowest-label"
    EARLIEST_ARRIVAL = "earliest-arrival"


@dataclass(frozen=True, slots=True)
class RoundRobin:
    """Cycle through robot labels, skipping settled robots."""


@dataclass(frozen=True, slots=True)
class SeededRandom:
    """Uniform random choice among unsettled robots, fairness-bounded."""

    seed: int = 0
    fairness_bound: int | None = None


@dataclass(frozen=True, slots=True)
class AdversarialStalling:
    """Stall high-weight robots: always pick the unsettled robot with the
    lowest delay weight (default weight = label), subject to the fairness
    bound."""

    weights: tuple[int, ...] | None = None
    fairness_bound: int | None = None


SchedulerPolicy = RoundRobin | SeededRandom | AdversarialStalling


class Contender(NamedTuple):
    label: int
    entry_port: int
    arrival_index: int


def arbitrate_mutex(contenders: Sequence[Contender], policy: MutexPolicy) -> int:
    """Pick the single docking winner among co-located undocked robots.

    lowest-label ignores arrival data; earliest-arrival compares
    (arrival index, entry port, label) lexicographically.
    """
    if not contenders:
        raise ValueError("mutex arbitration requires at least one contender")
    if policy is MutexPolicy.LOWEST_LABEL:
        return min(c.label for c in contenders)
    best = min(contenders, key=lambda c: (c.arrival_index, c.entry_port, c.label))
    return best.label


class _RoundRobinSelector:
    def __init__(self, k: int) -> None:
        self._k = k
        self._next = 1

    def select(self, unsettled: Sequence[int]) -> int:
        # unsettled is ascending: the next label at or after the cursor, or
        # the lowest one once the cursor has passed them all
        i = bisect_left(unsettled, self._next)
        pick = unsettled[i] if i < len(unsettled) else unsettled[0]
        self._next = pick % self._k + 1
        return pick


def _holds(unsettled: Sequence[int], lab: int) -> bool:
    """Whether the ascending label list ``unsettled`` holds ``lab``."""
    i = bisect_left(unsettled, lab)
    return i < len(unsettled) and unsettled[i] == lab


class _FairSelector:
    """A policy's choice function under fairness enforcement: no robot is
    passed over more than ``bound`` consecutive scheduling decisions.

    An unsettled robot is passed over by every decision since its last pick,
    so its pass count is ``now - last pick``; robot l starts as if last
    picked at decision 1 - l.  The staggered starts keep the counts pairwise
    distinct forever, so at most one robot sits at the bound per decision,
    none exceeds it, and the starved robot is the least recently picked.
    """

    def __init__(self, k: int, bound: int, choose: Callable[[Sequence[int]], int]) -> None:
        self._choose = choose
        self._bound = bound
        self._now = 0
        # label -> last pick, least recently picked first; settled labels
        # leave lazily, when they reach the front at the bound
        self._order = OrderedDict((label, 1 - label) for label in range(k, 0, -1))

    def select(self, unsettled: Sequence[int]) -> int:
        order, now = self._order, self._now
        while True:
            front = next(iter(order))
            if now - order[front] < self._bound:
                pick = self._choose(unsettled)
                break
            if _holds(unsettled, front):
                pick = front
                break
            del order[front]
        order.move_to_end(pick)
        order[pick] = self._now = now + 1
        return pick


def _make_selector(policy: SchedulerPolicy, k: int):
    if isinstance(policy, RoundRobin):
        return _RoundRobinSelector(k)
    if not isinstance(policy, (SeededRandom, AdversarialStalling)):
        raise ValueError(f"unknown scheduler policy {policy!r}")
    bound = 10 * k if policy.fairness_bound is None else policy.fairness_bound
    if bound < k - 1:
        raise ValueError(
            f"fairness bound {bound} is unsatisfiable for {k} robots "
            f"(needs at least k-1 = {k - 1})"
        )
    if isinstance(policy, SeededRandom):
        return _FairSelector(k, bound, random.Random(policy.seed).choice)
    weights = policy.weights
    if weights is not None and len(weights) != k:
        raise ValueError(f"need one delay weight per robot ({k}), got {len(weights)}")
    # labels by (weight, label); the cursor passes settled labels, which
    # never return
    ranked = list(range(1, k + 1))
    if weights is not None:
        ranked.sort(key=lambda l: (weights[l - 1], l))
    cursor = 0

    def lowest_weight(unsettled: Sequence[int]) -> int:
        nonlocal cursor
        while not _holds(unsettled, ranked[cursor]):
            cursor += 1
        return ranked[cursor]

    return _FairSelector(k, bound, lowest_weight)


class WorldState:
    """Mutable simulation state confined to a single run.

    Holds robot positions and algorithm states (label i at index i-1), the
    per-node docked registry, the docked helping robots' visitor records,
    arrival bookkeeping for mutex arbitration, and the outcome counters the
    report is built from.
    """

    def __init__(
        self,
        graph: PortLabeledGraph,
        positions: Sequence[int],
        helping: bool,
    ) -> None:
        k = len(positions)
        self.graph = graph
        self.k = k
        self.helping = helping
        self.positions: list[int] = list(positions)
        state = HelpingState if helping else IndependentState
        self.states: list = [state(lab) for lab in range(1, k + 1)]
        self.docked: dict[int, int] = {}
        # a docked helping robot's visitor records, k+1 slots each indexed by
        # visitor label: 0/1 visited bytes and entry ports; None before docking
        self.records: list[tuple[bytearray, array] | None] = [None] * k
        # the handle an independent visitor sees at docked robot i (index i-1)
        self.handles = [DockedHandle(lab) for lab in range(1, k + 1)]
        # ascending labels; robots only ever leave it
        self.unsettled: list[int] = list(range(1, k + 1))
        self.pending_entry: list[int] = [-1] * k
        self.arrival_index: list[int] = [0] * k
        self.next_arrival: list[int] = [1] * graph.node_count
        self.moves: list[int] = [0] * k
        self.settle_time: list[int | None] = [None] * k
        self.active_iterations: list[int] = [0] * k
        self.peak_stack: list[int] = [0] * k
        self.mutex_contentions = 0

    def robots_at(self, node: int) -> list[int]:
        return [l for l in self.unsettled if self.positions[l - 1] == node]

    def local_view(self, lab: int) -> LocalView:
        node = self.positions[lab - 1]
        docked_lab = self.docked.get(node)
        handle = None
        if docked_lab is not None:
            records = self.records[docked_lab - 1]
            if records is None:
                handle = self.handles[docked_lab - 1]
            else:
                visited, entry_port = records
                handle = new_docked_handle((docked_lab, visited[lab], entry_port[lab]))
        return new_local_view((len(self.graph.ports[node]), handle, self.pending_entry[lab - 1]))

    def contenders_at(self, node: int) -> list[Contender]:
        return [
            Contender(l, self.pending_entry[l - 1], self.arrival_index[l - 1])
            for l in self.robots_at(node)
        ]

    def arbitrate(self, node: int, policy: MutexPolicy) -> tuple[list[int], int]:
        """Arbitrate the mutex at a free node: returns the contender labels
        and the winner, and counts the node as contended when more than one
        robot is parked there."""
        contenders = self.contenders_at(node)
        winner = arbitrate_mutex(contenders, policy)
        if len(contenders) > 1:
            self.mutex_contentions += 1
        return [c.label for c in contenders], winner

    def apply_state(self, lab: int, state) -> None:
        old = self.states[lab - 1]
        if old.mode is SETTLED and state.mode is not SETTLED:
            raise SimulationInvariantError(
                f"robot {lab} attempted to leave the settled mode"
            )
        self.states[lab - 1] = state
        if not self.helping and len(state.stack) > self.peak_stack[lab - 1]:
            self.peak_stack[lab - 1] = len(state.stack)

    def dock(self, lab: int, node: int, when: int) -> None:
        if node in self.docked:
            raise SimulationInvariantError(
                f"robot {lab} docked at node {node} already held by robot "
                f"{self.docked[node]}"
            )
        self.docked[node] = lab
        self.settle_time[lab - 1] = when
        self.unsettled.remove(lab)
        if self.helping:
            self.records[lab - 1] = (bytearray(self.k + 1), array("i", [-1]) * (self.k + 1))

    def apply_iteration(self, lab: int, node: int, state, action, when: int) -> None:
        """Apply one active iteration's successor state; a DOCK action docks
        the robot at ``node`` at time ``when``."""
        self.apply_state(lab, state)
        self.active_iterations[lab - 1] += 1
        if isinstance(action, Dock):
            self.dock(lab, node, when)

    def settle_in_absentia(self, lab: int, node: int, when: int, step) -> None:
        """Dock a parked mutex winner during another robot's event: it runs
        its own step as its own mutex winner, which refreshes its entry port
        and docks."""
        state, action, _ = step(self.states[lab - 1], self.local_view(lab), lab)
        self.apply_iteration(lab, node, state, action, when)

    def apply_help_record(self, record: HelpRecord) -> None:
        records = self.records[record.docked_label - 1]
        if records is None:
            raise SimulationInvariantError(
                f"robot {record.docked_label} keeps no visitor records and "
                "cannot serve visitors"
            )
        settled_service(*records, record.visitor_label, record.entry_port)

    def move_robot(self, lab: int, dest: int, entry: int) -> None:
        """Land robot ``lab`` at ``dest`` through port ``entry``, as the
        node's next arrival."""
        self.positions[lab - 1] = dest
        self.pending_entry[lab - 1] = entry
        self.arrival_index[lab - 1] = self.next_arrival[dest]
        self.next_arrival[dest] += 1
        self.moves[lab - 1] += 1


def apply_moves_single_lane(world: WorldState, moves: Sequence[tuple[int, int]]) -> None:
    """Apply one synchronous round's moves with single-lane arrival ordering.

    Robots crossing the same edge in the same direction enter in ascending
    label order, and each destination node takes all its arrivals by (entry
    port, label), numbering them on from its arrival counter.
    """
    landings = []
    for lab, port in moves:
        dest, entry = world.graph.traverse(world.positions[lab - 1], port)
        landings.append((entry, lab, dest))
    for entry, lab, dest in sorted(landings):
        world.move_robot(lab, dest, entry)


class JsonlTraceWriter:
    """Writes trace lines to a JSON Lines file, one line per call."""

    def __init__(self, path) -> None:
        self.path = str(path)
        self._fh = open(path, "w", encoding="utf-8", newline="\n")

    def __call__(self, line: str) -> None:
        self._fh.write(line + "\n")

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "JsonlTraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def mutex_json(contenders: Sequence[int], winner: int) -> str:
    """One arbitration as the JSON of a trace event's "mutex" value; every
    robot at the node reuses it, and an event at a docked node writes
    ``null`` instead."""
    return f'{{"contenders":[{",".join(map(str, contenders))}],"winner":{winner}}}'


def trace_record_line(
    event: int,
    rnd: int | None,
    robot: int,
    node: int,
    mode_before: Mode,
    mode_after: Mode,
    action,
    mutex: str,
    effects: Sequence[HelpRecord],
) -> str:
    """One trace event as a line of compact JSON, without the newline: the
    bytes json.dumps with compact separators would write, formatted directly.

    Keys in order: event, round (synchronous engine only), robot, node,
    mode_before, mode_after, action, mutex (``mutex_json`` of the
    arbitration, or "null" at a docked node), help.
    """
    head = f'{{"event":{event},' if rnd is None else f'{{"event":{event},"round":{rnd},'
    act = '{"type":"dock"}'
    if isinstance(action, Move):
        act = f'{{"type":"move","port":{action.port}}}'
    help_ = ""
    if effects:
        help_ = ",".join(f"[{e.docked_label},{e.visitor_label},{e.entry_port}]" for e in effects)
    return (
        f'{head}"robot":{robot},"node":{node},"mode_before":"{mode_before._value_}",'
        f'"mode_after":"{mode_after._value_}","action":{act},"mutex":{mutex},"help":[{help_}]}}'
    )


def _coerce_placement(
    graph: PortLabeledGraph, placement
) -> tuple[int, ...]:
    if not isinstance(placement, InitialPlacement):
        placement = InitialPlacement(tuple(int(v) for v in placement))
    placement.validate(graph)
    return placement.robot_positions


def _start(
    graph: PortLabeledGraph, placement, algorithm: Algorithm | str, sync: bool
) -> tuple[Algorithm, WorldState, Callable]:
    """The algorithm, a fresh world and the step function of one run."""
    algorithm = Algorithm(algorithm)
    if algorithm.is_sync != sync:
        engine = "synchronous" if algorithm.is_sync else "asynchronous"
        raise ValueError(f"{algorithm.value} requires the {engine} engine")
    positions = _coerce_placement(graph, placement)
    helping = algorithm.family == "helping"
    if not helping:
        step = independent_step
    else:
        step = helping_sync_step if sync else helping_async_step
    return algorithm, WorldState(graph, positions, helping), step


def _build_report(
    world: WorldState,
    algorithm: Algorithm,
    rounds_elapsed: int | None,
    events_elapsed: int | None,
    trace_sink: Callable[[str], None] | None,
) -> RunReport:
    k, edges, delta = world.k, world.graph.edge_count, world.graph.max_degree
    if world.helping:
        # settling is absorbing: the final mode is the peak-memory mode
        peaks = [memory_bits_helping(s.mode is SETTLED, k, delta, edges) for s in world.states]
    else:
        peaks = [memory_bits_independent(d, k, delta) for d in world.peak_stack]
    robots = tuple(
        RobotStats(
            label=lab,
            moves=world.moves[lab - 1],
            settle_time=world.settle_time[lab - 1],
            active_iterations=world.active_iterations[lab - 1],
            peak_memory_bits=peaks[lab - 1],
            peak_stack_depth=None if world.helping else world.peak_stack[lab - 1],
        )
        for lab in range(1, world.k + 1)
    )
    return RunReport(
        algorithm=algorithm.value,
        dispersed=check_dispersion(world),
        rounds_elapsed=rounds_elapsed,
        events_elapsed=events_elapsed,
        node_count=world.graph.node_count,
        edge_count=world.graph.edge_count,
        max_degree=delta,
        robot_count=world.k,
        robots=robots,
        final_positions=tuple(world.positions),
        final_modes=tuple(s.mode.value for s in world.states),
        mutex_contentions=world.mutex_contentions,
        trace_path=getattr(trace_sink, "path", None),
    )


def run_sync(
    graph: PortLabeledGraph,
    placement,
    algorithm: Algorithm | str = Algorithm.HELPING_SYNC,
    mutex_policy: MutexPolicy = MutexPolicy.LOWEST_LABEL,
    trace_sink: Callable[[str], None] | None = None,
) -> RunReport:
    """Synchronous engine: rounds 0..4m-2(n-1), one loop body per robot per
    round, computed from the pre-round snapshot.

    Within a round: every unsettled robot's step is computed against the
    round-start world, each free node's mutex arbitrated at its first robot,
    and its successor state applied and its event traced in that walk; then
    docks are applied, then help records, then all moves land with
    single-lane arrival ordering.  Stops early once every robot settled (the
    world is static afterwards).
    """
    algorithm, world, step = _start(graph, placement, algorithm, True)
    bound = sync_round_bound(graph)

    event_no = 0
    rounds_elapsed = 0
    for rnd in range(bound + 1):
        if not world.unsettled:
            break
        rounds_elapsed = rnd

        # node -> mutex winner, and the "mutex" value of its trace events;
        # docks, help records and moves wait for the end of the walk, so
        # every view and arbitration sees the round-start world
        winners: dict[int, int] = {}
        arbitrations: dict[int, str] = {}
        docks: list[tuple[int, int]] = []
        help_records: list[HelpRecord] = []
        moves: list[tuple[int, int]] = []
        for lab in world.unsettled:
            node = world.positions[lab - 1]
            view = world.local_view(lab)
            if view.docked is None and node not in winners:
                contenders, winners[node] = world.arbitrate(node, mutex_policy)
                if trace_sink is not None:
                    arbitrations[node] = mutex_json(contenders, winners[node])
            old = world.states[lab - 1]
            state, action, effects = step(old, view, winners.get(node))
            # no step reads another robot's state: apply it at once
            world.apply_state(lab, state)
            world.active_iterations[lab - 1] += 1
            if isinstance(action, Move):
                moves.append((lab, action.port))
            else:
                docks.append((lab, node))
            help_records += effects
            if trace_sink is not None:
                trace_sink(trace_record_line(
                    event_no, rnd, lab, node, old.mode, state.mode, action,
                    arbitrations.get(node, "null"), effects,
                ))
                event_no += 1
        for lab, node in docks:
            world.dock(lab, node, rnd)
        for record in help_records:
            world.apply_help_record(record)
        apply_moves_single_lane(world, moves)

    return _build_report(world, algorithm, rounds_elapsed, None, trace_sink)


def run_async(
    graph: PortLabeledGraph,
    placement,
    algorithm: Algorithm | str = Algorithm.INDEPENDENT_ASYNC,
    scheduler_policy: SchedulerPolicy = RoundRobin(),
    mutex_policy: MutexPolicy = MutexPolicy.LOWEST_LABEL,
    trace_sink: Callable[[str], None] | None = None,
) -> RunReport:
    """Asynchronous discrete-event engine.

    The scheduler picks an unsettled robot; that robot executes one atomic
    loop-body iteration.  At a free node the mutex is arbitrated among all
    undocked robots parked there; a winner other than the acting robot is
    settled within the same event, before the acting robot's help records
    land.  Runs until all robots settle or the safety cap
    SAFETY_FACTOR * k * (4m - 2(n-1) + 1) is exceeded (which marks the run
    not dispersed: correct runs never reach it).
    """
    algorithm, world, step = _start(graph, placement, algorithm, False)
    k = world.k
    cap = SAFETY_FACTOR * k * (sync_round_bound(graph) + 1)
    selector = _make_selector(scheduler_policy, k)

    event = 0
    while world.unsettled and event < cap:
        lab = selector.select(world.unsettled)
        node = world.positions[lab - 1]
        view = world.local_view(lab)
        mutex = None if view.docked is not None else world.arbitrate(node, mutex_policy)
        before = world.states[lab - 1].mode
        state, action, effects = step(world.states[lab - 1], view, mutex[1] if mutex else None)

        if mutex is not None and mutex[1] != lab:
            world.settle_in_absentia(mutex[1], node, event, step)
        world.apply_iteration(lab, node, state, action, event)
        for record in effects:
            world.apply_help_record(record)
        if isinstance(action, Move):
            dest, entry = graph.traverse(node, action.port)
            world.move_robot(lab, dest, entry)

        if trace_sink is not None:
            trace_sink(trace_record_line(
                event, None, lab, node, before, state.mode, action,
                "null" if mutex is None else mutex_json(*mutex), effects,
            ))
        event += 1

    return _build_report(world, algorithm, None, event, trace_sink)


def run(
    graph: PortLabeledGraph,
    placement,
    algorithm: Algorithm | str,
    scheduler_policy: SchedulerPolicy | None = None,
    mutex_policy: MutexPolicy = MutexPolicy.LOWEST_LABEL,
    trace_sink: Callable[[str], None] | None = None,
) -> RunReport:
    """Dispatch to the engine the algorithm belongs to."""
    algorithm = Algorithm(algorithm)
    if algorithm.is_sync:
        if scheduler_policy is not None:
            raise ValueError("scheduler policies apply to asynchronous algorithms only")
        return run_sync(graph, placement, algorithm, mutex_policy, trace_sink)
    scheduler = scheduler_policy if scheduler_policy is not None else RoundRobin()
    return run_async(graph, placement, algorithm, scheduler, mutex_policy, trace_sink)
