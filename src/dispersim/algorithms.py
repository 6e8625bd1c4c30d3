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

from array import array
from dataclasses import dataclass
from functools import cache, partial
from typing import NamedTuple

from .agents import BACKTRACK, EXPLORE, SETTLED, HelpingState, IndependentState

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

    ``visited_self`` (0/1) / ``entry_port_self`` are the viewer's own slots in
    the docked robot's visitor records (helping family; independent visitors
    only use the label).
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


# per-step values are built in C: each maker takes one tuple of all the
# type's fields and skips the NamedTuple's Python __new__, so it checks no
# arity; moves are shared, one per port
new_helping_state = partial(tuple.__new__, HelpingState)
new_independent_state = partial(tuple.__new__, IndependentState)
new_docked_handle = partial(tuple.__new__, DockedHandle)
new_local_view = partial(tuple.__new__, LocalView)
move_to = cache(Move)


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
    visited: bytearray, entry_port: array, visitor_label: int, visitor_port: int
) -> None:
    """One docked-robot service exchange with a visitor j, in place on the
    docked robot's visitor records: a first visit stores visited[j] = 1
    and entry_port[j] = visitor_port, a repeat visit changes nothing.  The
    visitor reads its slots through its ``DockedHandle``, before the
    exchange."""
    if not visited[visitor_label]:
        visited[visitor_label] = 1
        entry_port[visitor_label] = visitor_port


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
    label, mode, pe, pp, seen, rnd = state
    if mode is SETTLED:
        raise SimulationInvariantError(f"settled robot {label} has no active iterations")
    degree, docked, entry_port = view

    # successors are built positionally: (label, mode, port_entered,
    # parent_ptr, seen, round)
    if rnd > 0:
        pe = pp = entry_port
        seen = False
    effects: tuple[HelpRecord, ...] = ()

    if docked is not None:
        # node claimed in an earlier round: read own slots at the dock
        docked_label, seen, pp = docked
        if mode is EXPLORE:
            if seen:
                # revisited node: bounce straight back the way we came
                new = new_helping_state((label, BACKTRACK, pe, pp, seen, rnd + 1))
                return new, move_to(pe), ()
            pp = pe
            effects = (HelpRecord(docked_label, label, pe),)
    elif mode is BACKTRACK:
        # the target of a backtrack always holds a docked robot
        raise SimulationInvariantError(
            f"robot {label} backtracked into a node with no docked robot"
        )
    elif mutex_winner is None:
        raise SimulationInvariantError(f"robot {label} at a free node without arbitration")
    elif mutex_winner == label:
        return new_helping_state((label, SETTLED, pe, pp, seen, rnd + 1)), DOCK, ()
    else:
        # loser: a first visit at the fresh winner, whose records are blank;
        # here pp == pe and seen is False already, so the winner records
        # this robot's current entry port
        effects = (HelpRecord(mutex_winner, label, pe),)

    pe = (pe + 1) % degree
    mode = BACKTRACK if pe == pp else EXPLORE
    return new_helping_state((label, mode, pe, pp, seen, rnd + 1)), move_to(pe), effects


def independent_step(
    state: IndependentState, view: LocalView, mutex_winner: int | None
) -> tuple[IndependentState, Action, tuple[HelpRecord, ...]]:
    """One loop-body iteration of the independent algorithm.

    The robot keeps its own visited bitset (bit j for docked robot j) and a
    stack of entry ports; the stack top is the parent pointer of the
    current node.  Docked robots only relay their labels, so the help
    records are always empty.
    """
    label, mode, pe, rnd, visited, stack = state
    if mode is SETTLED:
        raise SimulationInvariantError(f"settled robot {label} has no active iterations")
    degree, docked, entry_port = view

    # successors are built positionally: (label, mode, port_entered, round,
    # visited, stack)
    if rnd > 0:
        pe = entry_port

    if mode is BACKTRACK:
        if docked is None:
            raise SimulationInvariantError(
                f"robot {label} backtracked into a node with no docked robot"
            )
        if not stack:
            raise SimulationInvariantError(f"robot {label} backtracking with an empty stack")
    else:
        if docked is not None and visited >> docked.label & 1:
            # revisited node: bounce straight back the way we came
            new = new_independent_state((label, BACKTRACK, pe, rnd + 1, visited, stack))
            return new, move_to(pe), ()
        if docked is not None:
            marked = docked.label
        else:
            if mutex_winner is None:
                raise SimulationInvariantError(
                    f"robot {label} at a free node without arbitration"
                )
            if mutex_winner == label:
                new = new_independent_state((label, SETTLED, pe, rnd + 1, visited, stack))
                return new, DOCK, ()
            marked = mutex_winner
        # first visit: mark the docked (or freshly docking) robot, remember
        # the entry port as this node's parent pointer, take the next port
        visited |= 1 << marked
        stack = stack + (pe,)

    pe = (pe + 1) % degree
    mode = EXPLORE
    if pe == stack[-1]:
        mode = BACKTRACK
        stack = stack[:-1]
    return new_independent_state((label, mode, pe, rnd + 1, visited, stack)), move_to(pe), ()
