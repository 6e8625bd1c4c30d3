"""Pure step functions for the three dispersion algorithms.

Every step has one signature, ``(state, view, mutex_winner) -> (state,
action, effects)``: it consumes the robot state, the local node view and the
node's mutex winner, and returns the successor state, an action and the help
records to apply at serving docked robots (always empty for the independent
family).  Steps never mutate anything: the engine owns all state
application, which keeps runs replayable from a single mutation point.

A step sees only the local view: node degree, the docked robot's handle (its
label and the viewer's own slots in its visitor records) and the viewer's
entry port.  Co-located undocked robots meet only through the engine's mutex
arbitration, whose winner the step receives.  Node identity is unreachable
from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .agents import HelpingState, IndependentState, Mode

__all__ = [
    "SimulationInvariantError",
    "DockedHandle",
    "LocalView",
    "Move",
    "Dock",
    "Action",
    "DOCK",
    "HelpRecord",
    "helping_step",
    "independent_step",
    "settled_service",
]


class SimulationInvariantError(RuntimeError):
    """A run reached a state the model forbids; indicates a transcription bug."""


class DockedHandle(NamedTuple):
    """What a docked robot communicates to the viewing robot.

    ``visited_self`` / ``entry_port_self`` are the viewer's own slots in the
    docked robot's visitor records (helping family; independent visitors only
    use the label).
    """

    label: int
    visited_self: bool = False
    entry_port_self: int = -1


class LocalView(NamedTuple):
    degree: int
    docked: DockedHandle | None
    entry_port: int


class Move(NamedTuple):
    port: int


@dataclass(frozen=True, slots=True)
class Dock:
    pass


Action = Move | Dock

DOCK = Dock()


class HelpRecord(NamedTuple):
    """First-visit record to apply at a docked robot: set
    visited[visitor] = 1 and entry_port[visitor] = entry_port."""

    docked_label: int
    visitor_label: int
    entry_port: int


def settled_service(
    visited: list[bool], entry_port: list[int], visitor_label: int, visitor_port: int
) -> None:
    """One docked-robot service exchange with a visitor j, in place on the
    docked robot's visitor records: a first visit stores visited[j] = True
    and entry_port[j] = visitor_port, a repeat visit changes nothing.  The
    visitor reads its slots through its ``DockedHandle``, before the
    exchange."""
    if not visited[visitor_label]:
        visited[visitor_label] = True
        entry_port[visitor_label] = visitor_port


def _advance(port: int, degree: int) -> int:
    return (port + 1) % degree


def helping_step(
    state: HelpingState, view: LocalView, mutex_winner: int | None
) -> tuple[HelpingState, Action, tuple[HelpRecord, ...]]:
    """One loop-body iteration of the helping algorithm, in either engine.

    A settled robot never acts: its helper block is realized through its
    visitors' steps, whose HelpRecords the engine applies to its visitor
    records.  The winner's recording of robots co-located at docking time is
    realized by the losers' HelpRecords; in the asynchronous engine the
    winner may be a parked robot other than the acting one, which the engine
    settles within the same event, before applying this step's records.

    ``mutex_winner`` must be the node's arbitration result when the node is
    free, None otherwise.
    """
    if state.mode is Mode.SETTLED:
        raise SimulationInvariantError(
            f"settled robot {state.label} has no active iterations"
        )

    # successors are built positionally: (label, mode, port_entered,
    # parent_ptr, seen, round)
    pe = state.port_entered
    pp = state.parent_ptr
    seen = state.seen
    if state.round > 0:
        pe = pp = view.entry_port
        seen = False
    nxt = state.round + 1
    effects: tuple[HelpRecord, ...] = ()

    if view.docked is not None:
        # node claimed in an earlier round: read own slots at the dock
        seen = view.docked.visited_self
        pp = view.docked.entry_port_self
        if state.mode is Mode.EXPLORE:
            if seen:
                # revisited node: bounce straight back the way we came
                new = HelpingState(state.label, Mode.BACKTRACK, pe, pp, True, nxt)
                return new, Move(pe), ()
            pp = pe
            effects = (HelpRecord(view.docked.label, state.label, pe),)
    elif state.mode is Mode.BACKTRACK:
        # the target of a backtrack always holds a docked robot
        raise SimulationInvariantError(
            f"robot {state.label} backtracked into a node with no docked robot"
        )
    elif mutex_winner is None:
        raise SimulationInvariantError(
            f"robot {state.label} at a free node without arbitration"
        )
    elif mutex_winner == state.label:
        return HelpingState(state.label, Mode.SETTLED, pe, pp, seen, nxt), DOCK, ()
    else:
        # loser: a first visit at the fresh winner, whose records are blank;
        # here pp == pe and seen is False already, so the winner records
        # this robot's current entry port
        effects = (HelpRecord(mutex_winner, state.label, pe),)

    pe = _advance(pe, view.degree)
    mode = Mode.BACKTRACK if pe == pp else Mode.EXPLORE
    return HelpingState(state.label, mode, pe, pp, seen, nxt), Move(pe), effects


def independent_step(
    state: IndependentState, view: LocalView, mutex_winner: int | None
) -> tuple[IndependentState, Action, tuple[HelpRecord, ...]]:
    """One loop-body iteration of the independent algorithm.

    The robot keeps its own visited bitset (bit j for docked robot j) and a
    stack of entry ports; the stack top is the parent pointer of the
    current node.  Docked robots only relay their labels, so the help
    records are always empty.
    """
    if state.mode is Mode.SETTLED:
        raise SimulationInvariantError(
            f"settled robot {state.label} has no active iterations"
        )

    # successors are built positionally: (label, mode, port_entered, round,
    # visited, stack)
    pe = state.port_entered
    if state.round > 0:
        pe = view.entry_port
    nxt = state.round + 1
    visited = state.visited
    stack = state.stack

    if state.mode is Mode.BACKTRACK:
        if view.docked is None:
            raise SimulationInvariantError(
                f"robot {state.label} backtracked into a node with no docked robot"
            )
        if not stack:
            raise SimulationInvariantError(
                f"robot {state.label} backtracking with an empty stack"
            )
    else:
        if view.docked is not None and visited >> view.docked.label & 1:
            # revisited node: bounce straight back the way we came
            new = IndependentState(state.label, Mode.BACKTRACK, pe, nxt, visited, stack)
            return new, Move(pe), ()
        if view.docked is not None:
            marked = view.docked.label
        else:
            if mutex_winner is None:
                raise SimulationInvariantError(
                    f"robot {state.label} at a free node without arbitration"
                )
            if mutex_winner == state.label:
                new = IndependentState(state.label, Mode.SETTLED, pe, nxt, visited, stack)
                return new, DOCK, ()
            marked = mutex_winner
        # first visit: mark the docked (or freshly docking) robot, remember
        # the entry port as this node's parent pointer, take the next port
        visited |= 1 << marked
        stack = stack + (pe,)

    pe = _advance(pe, view.degree)
    mode = Mode.EXPLORE
    if pe == stack[-1]:
        mode = Mode.BACKTRACK
        stack = stack[:-1]
    return IndependentState(state.label, mode, pe, nxt, visited, stack), Move(pe), ()
