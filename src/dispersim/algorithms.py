"""Pure step functions for the three dispersion algorithms.

Every step has one signature, ``(state, view, mutex_winner) -> (state,
port, effects)``: it consumes the robot state, the local node view and the
node's mutex winner, and returns the successor state, the port the robot
leaves by (-1, the model's "no port" value, when it docks) and the help
records to apply at serving docked robots (always empty for the independent
family), each a ``(docked label, entry port)`` pair whose visitor is the
stepping robot.  Steps never mutate anything: the engine owns all state
application, which keeps runs replayable from a single mutation point.

A step sees only the local view: node degree, the docked robot's label, the
viewer's entry port and, in the helping family, the viewer's own slot in the
docked robot's visitor record.  Co-located undocked robots meet only through
the engine's mutex arbitration, whose winner the step receives.  Node
identity is unreachable from here.
"""

from __future__ import annotations

from array import array
from functools import partial
from typing import NamedTuple

from .agents import BACKTRACK, EXPLORE, SETTLED, HelpingState, IndependentState

__all__ = [
    "SimulationInvariantError",
    "LocalView",
    "helping_step",
    "independent_step",
    "settled_service",
]


class SimulationInvariantError(RuntimeError):
    """A run reached a state the model forbids; indicates a transcription bug."""


class LocalView(NamedTuple):
    """What a robot sees at its node.

    ``docked`` is the docked robot's label, None at a free node;
    ``record_self`` is the viewer's own slot in the docked robot's visitor
    record, in ``settled_service``'s code (helping family; independent
    visitors only use the label).
    """

    degree: int
    docked: int | None
    entry_port: int
    record_self: int = 0


# per-step values are built in C: each maker takes one tuple of all the
# type's fields and skips the NamedTuple's Python __new__, so it checks no
# arity
new_helping_state = partial(tuple.__new__, HelpingState)
new_independent_state = partial(tuple.__new__, IndependentState)
new_local_view = partial(tuple.__new__, LocalView)


def settled_service(record: array, visitor_label: int, visitor_port: int) -> None:
    """One docked-robot service exchange with a visitor j, in place on the
    docked robot's visitor record: slot j is 0 until j's first visit, which
    stores visitor_port + 2 (1 for a visitor that never moved, port -1); a
    repeat visit changes nothing.  The visitor reads its slot through its
    ``LocalView``, before the exchange."""
    if not record[visitor_label]:
        record[visitor_label] = visitor_port + 2


def helping_step(
    state: HelpingState, view: LocalView, mutex_winner: int | None
) -> tuple[HelpingState, int, tuple[tuple[int, int], ...]]:
    """One loop-body iteration of the helping algorithm, in either engine.

    A settled robot never acts: its helper block is realized through its
    visitors' steps, whose help records the engine applies to its visitor
    records.  The winner's recording of robots co-located at docking time is
    realized by the losers' help records; in the asynchronous engine the
    winner may be a parked robot other than the acting one, which the engine
    settles within the same event, before applying this step's records.

    ``mutex_winner`` must be the node's arbitration result when the node is
    free, None otherwise.
    """
    label, mode, pe, pp, seen, rnd = state
    if mode is SETTLED:
        raise SimulationInvariantError(f"settled robot {label} has no active iterations")
    degree, docked, entry_port, record_self = view

    # successors are built positionally: (label, mode, port_entered,
    # parent_ptr, seen, round)
    if rnd > 0:
        pe = pp = entry_port
        seen = False
    effects: tuple[tuple[int, int], ...] = ()

    if docked is not None:
        # node claimed in an earlier round: decode own slot at the dock
        seen, pp = record_self > 0, record_self - 2
        if mode is EXPLORE:
            if seen:
                # revisited node: bounce straight back the way we came
                new = new_helping_state((label, BACKTRACK, pe, pp, seen, rnd + 1))
                return new, pe, ()
            pp = pe
            effects = ((docked, pe),)
    elif mode is BACKTRACK:
        # the target of a backtrack always holds a docked robot
        raise SimulationInvariantError(
            f"robot {label} backtracked into a node with no docked robot"
        )
    elif mutex_winner is None:
        raise SimulationInvariantError(f"robot {label} at a free node without arbitration")
    elif mutex_winner == label:
        return new_helping_state((label, SETTLED, pe, pp, seen, rnd + 1)), -1, ()
    else:
        # loser: a first visit at the fresh winner, whose records are blank;
        # here pp == pe and seen is False already, so the winner records
        # this robot's current entry port
        effects = ((mutex_winner, pe),)

    pe = (pe + 1) % degree
    mode = BACKTRACK if pe == pp else EXPLORE
    return new_helping_state((label, mode, pe, pp, seen, rnd + 1)), pe, effects


def independent_step(
    state: IndependentState, view: LocalView, mutex_winner: int | None
) -> tuple[IndependentState, int, tuple[tuple[int, int], ...]]:
    """One loop-body iteration of the independent algorithm.

    The robot keeps its own visited bitset (bit j for docked robot j) and a
    stack of entry ports; the stack top is the parent pointer of the
    current node.  Docked robots only relay their labels, so the help
    records are always empty.
    """
    label, mode, pe, rnd, visited, stack = state
    if mode is SETTLED:
        raise SimulationInvariantError(f"settled robot {label} has no active iterations")
    degree, docked, entry_port, _ = view

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
        if docked is not None and visited >> docked & 1:
            # revisited node: bounce straight back the way we came
            new = new_independent_state((label, BACKTRACK, pe, rnd + 1, visited, stack))
            return new, pe, ()
        if docked is not None:
            marked = docked
        else:
            if mutex_winner is None:
                raise SimulationInvariantError(
                    f"robot {label} at a free node without arbitration"
                )
            if mutex_winner == label:
                new = new_independent_state((label, SETTLED, pe, rnd + 1, visited, stack))
                return new, -1, ()
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
    return new_independent_state((label, mode, pe, rnd + 1, visited, stack)), pe, ()
