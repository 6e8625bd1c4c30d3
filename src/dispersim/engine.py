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
from functools import partial
from itertools import chain, repeat
from operator import sub
from typing import Callable, Sequence

from .agents import (
    SETTLED,
    HelpingState,
    IndependentState,
    Mode,
    memory_bits_helping,
    memory_bits_independent,
)
from .algorithms import (
    LocalView,
    SimulationInvariantError,
    helping_step,
    independent_step,
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

# made k times per run, so built in C like the step values (no arity check)
_new_robot_stats = partial(tuple.__new__, RobotStats)


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


def arbitrate_mutex(contenders: Sequence[tuple[int, int, int]], policy: MutexPolicy) -> int:
    """Pick the single docking winner among co-located undocked robots,
    given as (arrival index, entry port, label) tuples: lowest-label takes
    the least label, earliest-arrival the least tuple."""
    if not contenders:
        raise ValueError("mutex arbitration requires at least one contender")
    if policy is MutexPolicy.LOWEST_LABEL:
        return min(c[2] for c in contenders)
    return min(contenders)[2]


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

    The deadline is some earlier front's last pick plus the bound.  The
    front's last pick only grows (a front leaves only when picked or dropped,
    and every robot behind it was picked later), so no robot reaches the
    bound before the deadline, and the front is checked only once ``now`` does.
    """

    def __init__(self, k: int, bound: int, choose: Callable[[Sequence[int]], int]) -> None:
        self._choose = choose
        self._bound = bound
        self._now = self._deadline = 0
        # label -> last pick, least recently picked first; settled labels
        # leave lazily, when they reach the front at the bound
        self._order = OrderedDict((label, 1 - label) for label in range(k, 0, -1))

    def select(self, unsettled: Sequence[int]) -> int:
        order, now = self._order, self._now
        while now >= self._deadline:
            front = next(iter(order))
            self._deadline = order[front] + self._bound
            if now < self._deadline:
                pick = self._choose(unsettled)
                break
            if _holds(unsettled, front):
                pick = front
                break
            del order[front]
        else:
            pick = self._choose(unsettled)
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
    # never return, so it stands while no robot settles: unsettled only
    # shrinks, and a list of unchanged length holds the same labels
    ranked = list(range(1, k + 1))
    if weights is not None:
        ranked.sort(key=lambda l: (weights[l - 1], l))
    cursor, size = 0, -1

    def lowest_weight(unsettled: Sequence[int]) -> int:
        nonlocal cursor, size
        if len(unsettled) != size:
            size = len(unsettled)
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
        # a docked helping robot's visitor record, None before docking: k+1
        # zeroed slots indexed by visitor label, in settled_service's code;
        # codes reach max_degree + 1, so a slot is one byte up to degree 254
        self.max_degree = graph.max_degree
        self._slot_type = "B" if self.max_degree < 255 else "i"
        self.records: list[array | None] = [None] * k
        # ascending labels; robots only ever leave it
        self.unsettled: list[int] = list(range(1, k + 1))
        self.pending_entry: list[int] = [-1] * k
        self.arrival_index: list[int] = [0] * k
        self.next_arrival: list[int] = [1] * graph.node_count
        self.settle_time: list[int | None] = [None] * k
        self.peak_stack: list[int] = [0] * k
        self.mutex_contentions = 0

    def robots_at(self, node: int) -> list[int]:
        return [l for l in self.unsettled if self.positions[l - 1] == node]

    def local_view(self, lab: int) -> LocalView:
        node = self.positions[lab - 1]
        docked = self.docked.get(node)
        degree, entry = len(self.graph.ports[node]), self.pending_entry[lab - 1]
        if docked is None or not self.helping:
            return new_local_view((degree, docked, entry, 0))
        return new_local_view((degree, docked, entry, self.records[docked - 1][lab]))

    def contenders_at(self, node: int) -> list[tuple[int, int, int]]:
        """The robots parked at ``node`` as (arrival index, entry port, label)."""
        arrival, entry = self.arrival_index, self.pending_entry
        return [(arrival[l - 1], entry[l - 1], l) for l in self.robots_at(node)]

    def arbitrate(self, node: int, policy: MutexPolicy) -> tuple[list[int], int]:
        """Arbitrate the mutex at a free node: returns the contender labels
        and the winner, and counts the node as contended when more than one
        robot is parked there."""
        contenders = self.contenders_at(node)
        winner = arbitrate_mutex(contenders, policy)
        if len(contenders) > 1:
            self.mutex_contentions += 1
        return [c[2] for c in contenders], winner

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
            self.records[lab - 1] = array(self._slot_type, [0]) * (self.k + 1)

    def settle_in_absentia(self, lab: int, node: int, when: int, step) -> None:
        """Settle a parked mutex winner during another robot's event: it runs
        its own step as its own mutex winner, which refreshes its entry port
        and docks."""
        state, _, _ = step(self.states[lab - 1], self.local_view(lab), lab)
        self.apply_state(lab, state)
        self.dock(lab, node, when)

    def apply_help_record(self, visitor: int, docked: int, entry: int) -> None:
        slots = self.records[docked - 1]
        if slots is None:
            raise SimulationInvariantError(
                f"robot {docked} keeps no visitor record and cannot serve visitors"
            )
        settled_service(slots, visitor, entry)

    def move_robot(self, lab: int, dest: int, entry: int) -> None:
        """Land robot ``lab`` at ``dest`` through port ``entry``, as the
        node's next arrival."""
        self.positions[lab - 1] = dest
        self.pending_entry[lab - 1] = entry
        self.arrival_index[lab - 1] = self.next_arrival[dest]
        self.next_arrival[dest] += 1


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
    port: int,
    mutex: str,
    effects: Sequence[tuple[int, int]],
) -> str:
    """One trace event as a line of compact JSON, without the newline: the
    bytes json.dumps with compact separators would write, formatted directly.

    Keys in order: event, round (synchronous engine only), robot, node,
    mode_before, mode_after, action (a move through ``port``, or a dock
    when ``port`` is -1), mutex (``mutex_json`` of the arbitration, or
    "null" at a docked node), help ([docked, robot, entry port] per record).
    """
    head = f'{{"event":{event},' if rnd is None else f'{{"event":{event},"round":{rnd},'
    act = f'{{"type":"move","port":{port}}}' if port >= 0 else '{"type":"dock"}'
    help_ = ""
    if effects:
        help_ = ",".join(f"[{d},{robot},{p}]" for d, p in effects)
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
    graph: PortLabeledGraph, placement, algorithm: Algorithm | str, mutex_policy, sync: bool
) -> tuple[Algorithm, MutexPolicy, WorldState, Callable]:
    """The algorithm, mutex policy, fresh world and step function of one run."""
    algorithm, mutex_policy = Algorithm(algorithm), MutexPolicy(mutex_policy)
    if algorithm.is_sync != sync:
        engine = "synchronous" if algorithm.is_sync else "asynchronous"
        raise ValueError(f"{algorithm.value} requires the {engine} engine")
    positions = _coerce_placement(graph, placement)
    helping = algorithm.family == "helping"
    if not helping:
        step = independent_step
    else:
        step = helping_sync_step if sync else helping_async_step
    return algorithm, mutex_policy, WorldState(graph, positions, helping), step


def _build_report(
    world: WorldState,
    algorithm: Algorithm,
    rounds_elapsed: int | None,
    events_elapsed: int | None,
    trace_sink: Callable[[str], None] | None,
) -> RunReport:
    k, edges, delta, states = world.k, world.graph.edge_count, world.max_degree, world.states
    settled = [s.mode is SETTLED for s in states]
    rounds = [s.round for s in states]
    if world.helping:
        # settling is absorbing: the final mode is the peak-memory mode
        bits = [memory_bits_helping(flag, k, delta, edges) for flag in (False, True)]
        peaks, depths = map(bits.__getitem__, settled), repeat(None)
    else:
        depths = world.peak_stack
        bits = {d: memory_bits_independent(d, k, delta) for d in set(depths)}
        peaks = map(bits.__getitem__, depths)
    # every step advances the round counter and moves or docks, and a
    # settled robot never steps again: the counter is the iteration count,
    # and all but the docking iteration moved
    robots = tuple(map(_new_robot_stats, zip(
        range(1, k + 1), map(sub, rounds, settled), world.settle_time, rounds, peaks, depths
    )))
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
        final_modes=tuple(s.mode._value_ for s in states),
        mutex_contentions=world.mutex_contentions,
        trace_path=getattr(trace_sink, "path", None),
    )


def run_sync(
    graph: PortLabeledGraph,
    placement,
    algorithm: Algorithm | str = Algorithm.HELPING_SYNC,
    mutex_policy: MutexPolicy | str = MutexPolicy.LOWEST_LABEL,
    trace_sink: Callable[[str], None] | None = None,
) -> RunReport:
    """Synchronous engine: rounds 0..4m-2(n-1), each computed from the
    pre-round snapshot, one step per cohort.

    A cohort is the robots that started at one node.  They share their
    history apart from the label, so each round they see the same view and
    take the same step, and only docking takes one out: the lowest label,
    which leads and whose step stands for the cohort.  When the lead docks,
    the next label steps once more, as a mutex loser, and leads the rest.
    Every robot at a free node landed there in the previous round (or
    started there), numbered in (entry port, label) order, so each free
    node is arbitrated among the leads parked there.  A lead's help record
    is applied and its slot code copied to the other members, whose slots
    always equal it.  A traced run renders each cohort step's line once and
    stamps each robot's line from it: the bytes a per-robot walk writes.
    Docks, then help records, then the leads' moves (single-lane) apply at
    the end of the round.  Stops early once every robot settled.  The walk
    runs inline on the world's lists, as ``run_async``'s common event does.
    """
    algorithm, mutex_policy, world, step = _start(graph, placement, algorithm, mutex_policy, True)
    helping, ports = world.helping, graph.ports
    positions, states, docked, records = world.positions, world.states, world.docked, world.records
    unsettled, peak_stack, pending_entry = world.unsettled, world.peak_stack, world.pending_entry
    arrival_index, next_arrival = world.arrival_index, world.next_arrival
    by_start: dict[int, list[int]] = {}
    for lab, node in enumerate(positions, 1):
        by_start.setdefault(node, []).append(lab)
    # unsettled labels ascending, lead first; the others keep their start
    # state and position until they lead
    cohorts = list(by_start.values())
    cohort_of = [by_start[node] for node in positions]

    # a traced cohort step's line after its event number, split where each
    # robot writes its label: after "robot" and as each help record's visitor
    # (a JSON line holds no raw newline); reads the round in progress
    def split_line(node, before, state, port, effects):
        return trace_record_line(
            "\n", rnd, "\n", node, before, state.mode, port, arbitrations.get(node, "null"),
            effects,
        ).split("\n")[1:]

    event_no = rounds_elapsed = 0
    for rnd in range(sync_round_bound(graph) + 1):
        if not unsettled:
            break
        rounds_elapsed = rnd
        parked: dict[int, list[list[int]]] = {}
        for c in cohorts:
            node = positions[c[0] - 1]
            if node not in docked:
                parked.setdefault(node, []).append(c)
        winners, arbitrations = {}, {}
        for node, here in parked.items():
            # a lone cohort's lead is the least contender of one
            winners[node] = here[0][0] if len(here) == 1 else arbitrate_mutex([
                (arrival_index[c[0] - 1], pending_entry[c[0] - 1], c[0]) for c in here
            ], mutex_policy)
            if len(here) > 1 or len(here[0]) > 1:
                world.mutex_contentions += 1
            if trace_sink is not None:
                arbitrations[node] = mutex_json(sorted(chain(*here)), winners[node])

        # round-start lead -> its cohort's split line and the lead's own
        docks, help_records, landings, stepped = [], [], [], {}
        for c in cohorts:
            lab = c[0]
            i = lab - 1
            node, old = positions[i], states[i]
            table, here, winner = ports[node], docked.get(node), winners.get(node)
            slot = records[here - 1][lab] if helping and here is not None else 0
            view = new_local_view((len(table), here, pending_entry[i], slot))
            state, port, effects = step(old, view, winner)
            if trace_sink is not None:
                own = parts = split_line(node, old.mode, state, port, effects)
            if port < 0:
                docks.append((c, node))
                if len(c) > 1:
                    world.apply_state(lab, state)
                    lab = c[1]
                    positions[lab - 1], peak_stack[lab - 1] = node, peak_stack[i]
                    i, old = lab - 1, tuple.__new__(type(old), (lab, *old[1:]))
                    state, port, effects = step(old, view, winner)
                    if trace_sink is not None:
                        parts = split_line(node, old.mode, state, port, effects)
            if old.mode is SETTLED and state.mode is not SETTLED:
                raise SimulationInvariantError(f"robot {lab} attempted to leave the settled mode")
            states[i] = state
            if not helping and len(state.stack) > peak_stack[i]:
                peak_stack[i] = len(state.stack)
            if port >= 0:
                try:
                    dest, entry = table[port]
                except IndexError:
                    dest, entry = graph.traverse(node, port)  # raises its GraphError
                landings.append((entry, lab, dest))
            for record in effects:
                help_records.append((c, record))
            if trace_sink is not None:
                stepped[c[0]] = parts, own
        if trace_sink is not None:
            for lab in unsettled:
                lead = cohort_of[lab - 1][0]
                parts, own = stepped[lead]
                trace_sink(f'{{"event":{event_no}{str(lab).join(own if lab == lead else parts)}')
                event_no += 1

        for c, node in docks:
            world.dock(c.pop(0), node, rnd)
        # after the docks, c[0] is the robot whose step made the record
        for c, (docked_lab, entry) in help_records:
            world.apply_help_record(c[0], docked_lab, entry)
            slots = records[docked_lab - 1]
            code, others = slots[c[0]], c[1:]
            if others and others[-1] - others[0] == len(others) - 1:
                # consecutive labels, as a colocated start gives: one store
                slots[others[0]:others[-1] + 1] = array(slots.typecode, [code]) * len(others)
            else:
                for lab in others:
                    slots[lab] = code
        if docks:
            cohorts = [c for c in cohorts if c]
        # single-lane: each node takes its arrivals by (entry port, label)
        if len(landings) > 1:
            landings.sort()
        for entry, lab, dest in landings:
            i = lab - 1
            positions[i], pending_entry[i] = dest, entry
            arrival_index[i] = next_arrival[dest]
            next_arrival[dest] += 1

    # cut off at the bound: members still parked take their lead's state
    for c in cohorts:
        for lab in c[1:]:
            states[lab - 1] = states[c[0] - 1]._replace(label=lab)
            positions[lab - 1], peak_stack[lab - 1] = positions[c[0] - 1], peak_stack[c[0] - 1]
    return _build_report(world, algorithm, rounds_elapsed, None, trace_sink)


def run_async(
    graph: PortLabeledGraph,
    placement,
    algorithm: Algorithm | str = Algorithm.INDEPENDENT_ASYNC,
    scheduler_policy: SchedulerPolicy = RoundRobin(),
    mutex_policy: MutexPolicy | str = MutexPolicy.LOWEST_LABEL,
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

    The common event, a step at a docked node and a move on, runs inline on
    the world's lists: ``local_view``, ``apply_state`` and ``move_robot`` in
    one pass.  Arbitration at a free node, settling in absentia, docking and
    help records go through ``WorldState``.
    """
    algorithm, mutex_policy, world, step = _start(
        graph, placement, algorithm, mutex_policy, False
    )
    k, helping, ports = world.k, world.helping, graph.ports
    cap = SAFETY_FACTOR * k * (sync_round_bound(graph) + 1)
    select = _make_selector(scheduler_policy, k).select
    positions, states, docked, records = world.positions, world.states, world.docked, world.records
    unsettled, peak_stack, pending_entry = world.unsettled, world.peak_stack, world.pending_entry
    arrival_index, next_arrival = world.arrival_index, world.next_arrival

    event = 0
    while unsettled and event < cap:
        lab = select(unsettled)
        i = lab - 1
        node, old = positions[i], states[i]
        table, here = ports[node], docked.get(node)
        if here is None:
            mutex, slot = world.arbitrate(node, mutex_policy), 0
        else:
            mutex, slot = None, records[here - 1][lab] if helping else 0
        view = new_local_view((len(table), here, pending_entry[i], slot))
        state, port, effects = step(old, view, mutex[1] if mutex else None)

        if mutex is not None and mutex[1] != lab:
            world.settle_in_absentia(mutex[1], node, event, step)
        if old.mode is SETTLED and state.mode is not SETTLED:
            raise SimulationInvariantError(f"robot {lab} attempted to leave the settled mode")
        states[i] = state
        if not helping and len(state.stack) > peak_stack[i]:
            peak_stack[i] = len(state.stack)
        for record in effects:
            world.apply_help_record(lab, *record)
        if port >= 0:
            try:
                dest, entry = table[port]
            except IndexError:
                dest, entry = graph.traverse(node, port)  # raises its GraphError
            positions[i], pending_entry[i] = dest, entry
            arrival_index[i] = next_arrival[dest]
            next_arrival[dest] += 1
        else:
            world.dock(lab, node, event)

        if trace_sink is not None:
            trace_sink(trace_record_line(
                event, None, lab, node, old.mode, state.mode, port,
                "null" if mutex is None else mutex_json(*mutex), effects,
            ))
        event += 1

    return _build_report(world, algorithm, None, event, trace_sink)


def run(
    graph: PortLabeledGraph,
    placement,
    algorithm: Algorithm | str,
    scheduler_policy: SchedulerPolicy | None = None,
    mutex_policy: MutexPolicy | str = MutexPolicy.LOWEST_LABEL,
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
