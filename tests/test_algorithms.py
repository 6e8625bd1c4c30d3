from __future__ import annotations

from array import array
from copy import deepcopy

import pytest

from dispersim.agents import HelpingState, IndependentState, Mode
from dispersim.algorithms import (
    LocalView,
    SimulationInvariantError,
    helping_step,
    independent_step,
    settled_service,
)

from harness import assert_exact


def view(degree, docked=None, entry=-1, record=0):
    """The view at a node of ``degree``: the docked robot's label (None at a
    free node), the entry port, and the viewer's own slot in the docked
    robot's visitor record (0 before its first visit there, else its first
    entry port + 2)."""
    return LocalView(degree, docked, entry, record)


# --- docking alone -------------------------------------------------------


def test_lone_helping_robot_docks_immediately():
    new, port, effects = helping_step(HelpingState(1), view(2), mutex_winner=1)
    assert port == -1
    assert new.mode is Mode.SETTLED
    assert effects == ()


def test_lone_independent_robot_docks_immediately():
    state = IndependentState(1)
    new, port, _ = independent_step(state, view(3), mutex_winner=1)
    assert port == -1
    assert new.mode is Mode.SETTLED
    assert new.stack == ()


# --- helping explore at a docked node ------------------------------------


def test_seen_node_triggers_backtrack_through_entry_port():
    state = HelpingState(2)._replace(round=4)
    new, port, effects = helping_step(state, view(3, 1, entry=2, record=2), None)
    assert new.mode is Mode.BACKTRACK
    assert port == 2  # back the way it came
    assert new.parent_ptr == 0  # first-entry port received from the dock
    assert effects == ()


def test_first_visit_records_entry_and_advances():
    state = HelpingState(2)._replace(round=4)
    new, port, effects = helping_step(state, view(3, 1, entry=1), None)
    assert new.mode is Mode.EXPLORE
    assert port == 2  # (1 + 1) mod 3
    assert new.parent_ptr == 1
    assert effects == ((1, 1),)


def test_first_visit_wraps_to_parent_and_backtracks():
    # advancing from the entry port on a degree-1 node returns to it
    state = HelpingState(2)._replace(round=4)
    new, port, effects = helping_step(state, view(1, 1, entry=0), None)
    assert new.mode is Mode.BACKTRACK
    assert port == 0
    assert effects == ((1, 0),)


# --- mutex loss ----------------------------------------------------------


def test_loser_records_first_visit_at_fresh_winner():
    state = HelpingState(3)._replace(round=2)
    new, port, effects = helping_step(state, view(2, entry=1), mutex_winner=2)
    assert effects == ((2, 1),)
    assert port == 0  # (1 + 1) mod 2
    assert new.mode is Mode.EXPLORE
    assert new.parent_ptr == 1
    assert new.seen is False


def test_independent_loser_marks_winner_and_pushes():
    state = IndependentState(3)._replace(round=2)
    new, port, _ = independent_step(state, view(2, entry=1), mutex_winner=2)
    assert new.visited == 1 << 2
    assert new.stack == (1,)
    assert port == 0
    assert new.mode is Mode.EXPLORE


# --- independent transitions ---------------------------------------------


def test_independent_first_visit_pushes_and_advances():
    state = IndependentState(2)._replace(round=3)
    new, port, _ = independent_step(
        state, view(2, 1, entry=0), mutex_winner=None
    )
    assert new.visited == 1 << 1
    assert new.stack == (0,)
    assert port == 1
    assert new.mode is Mode.EXPLORE


def test_independent_leaf_pushes_then_pops():
    state = IndependentState(2)._replace(round=3)
    new, port, _ = independent_step(
        state, view(1, 1, entry=0), mutex_winner=None
    )
    assert new.stack == ()  # pushed 0, advanced back onto it, popped
    assert new.mode is Mode.BACKTRACK
    assert port == 0


def test_independent_revisit_bounces_back():
    state = IndependentState(2)._replace(round=3)
    state = state._replace(visited=1 << 1)
    new, port, _ = independent_step(
        state, view(3, 1, entry=2), mutex_winner=None
    )
    assert new.mode is Mode.BACKTRACK
    assert port == 2
    assert new.stack == ()


def test_independent_backtrack_resumes_exploring_when_port_differs():
    state = IndependentState(2)._replace(
        round=3, mode=Mode.BACKTRACK, stack=(-1,)
    )
    new, port, _ = independent_step(
        state, view(2, 1, entry=0), mutex_winner=None
    )
    assert new.mode is Mode.EXPLORE  # advanced port 1 differs from stack top -1
    assert port == 1
    assert new.stack == (-1,)


def test_independent_backtrack_pops_on_parent_port():
    state = IndependentState(2)._replace(
        round=3, mode=Mode.BACKTRACK, stack=(-1, 1)
    )
    new, port, _ = independent_step(
        state, view(2, 1, entry=0), mutex_winner=None
    )
    assert new.mode is Mode.BACKTRACK
    assert port == 1
    assert new.stack == (-1,)


# --- settled service ------------------------------------------------------


def test_settled_service_first_and_repeat_visits():
    record = array("B", [0]) * 5
    settled_service(record, 3, 2)
    after = [0, 0, 0, 4, 0]
    assert list(record) == after
    # a repeat visit keeps the first entry port
    settled_service(record, 3, 0)
    assert list(record) == after


def test_settled_service_records_sentinel_for_unmoved_visitor():
    record = array("B", [0]) * 5
    settled_service(record, 2, -1)
    assert list(record) == [0, 0, 1, 0, 0]
    # the helping step reads the slot back as seen, with no parent port
    state = HelpingState(2)._replace(round=4)
    new, port, _ = helping_step(state, view(3, 1, entry=2, record=record[2]), None)
    assert (new.mode, new.seen, new.parent_ptr, port) == (Mode.BACKTRACK, True, -1, 2)


# --- hard failures and absorbing behaviour --------------------------------


@pytest.mark.parametrize(
    "state,step",
    [(HelpingState(1), helping_step), (IndependentState(1), independent_step)],
    ids=["helping", "independent"],
)
def test_step_rejects_settled_robot(state, step):
    with pytest.raises(SimulationInvariantError, match="settled robot 1"):
        step(state._replace(mode=Mode.SETTLED), view(2), mutex_winner=None)


def test_backtrack_into_free_node_is_hard_failure():
    helping = HelpingState(1)._replace(mode=Mode.BACKTRACK, round=2)
    with pytest.raises(SimulationInvariantError):
        helping_step(helping, view(2, entry=0), mutex_winner=1)
    independent = IndependentState(1)._replace(
        mode=Mode.BACKTRACK, round=2, stack=(-1,)
    )
    with pytest.raises(SimulationInvariantError):
        independent_step(independent, view(2, entry=0), mutex_winner=1)


def test_backtrack_with_empty_stack_is_hard_failure():
    state = IndependentState(1)._replace(mode=Mode.BACKTRACK, round=2)
    with pytest.raises(SimulationInvariantError):
        independent_step(state, view(2, 2, entry=0), None)


def test_free_node_without_arbitration_is_hard_failure():
    state = HelpingState(1)
    with pytest.raises(SimulationInvariantError):
        helping_step(state, view(2), mutex_winner=None)


# --- purity ----------------------------------------------------------------


@pytest.mark.parametrize(
    "value,field",
    [
        (HelpingState(1), "mode"),
        (IndependentState(1), "stack"),
        (LocalView(2, None, -1), "degree"),
    ],
    ids=lambda v: v if isinstance(v, str) else type(v).__name__,
)
def test_step_values_are_immutable(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))


@pytest.mark.parametrize(
    "state,step",
    [
        (HelpingState(2, Mode.EXPLORE, 0, 1, False, 4), helping_step),
        (IndependentState(2, Mode.EXPLORE, 0, 3, 0b1000, (1, 0)), independent_step),
    ],
    ids=["helping", "independent"],
)
def test_steps_leave_their_inputs_unchanged(state, step):
    # a first visit at a docked node: the step records a help entry or pushes
    # onto the stack, and must do so in its successor only
    v = view(3, 1, entry=1)
    before = deepcopy((state, v))
    new, _, _ = step(state, v, None)
    assert (state, v) == before
    assert new != state


EXPLORE, BACKTRACK, SETTLED = Mode.EXPLORE, Mode.BACKTRACK, Mode.SETTLED
SEEN = 2  # the viewer's slot once docked robot 1 has recorded it entering by port 0

# id -> (step, state, view, mutex winner, mode after); together the cases
# take every branch that returns from either step
STEP_BRANCHES = {
    "helping-dock": (helping_step, HelpingState(1), view(2), 1, SETTLED),
    "helping-bounce": (
        helping_step, HelpingState(2, round=4), view(3, 1, 2, SEEN), None, BACKTRACK
    ),
    "helping-first-visit": (
        helping_step, HelpingState(2, round=4), view(3, 1, 1), None, EXPLORE
    ),
    "helping-loser": (helping_step, HelpingState(2), view(3), 1, EXPLORE),
    "helping-backtrack": (
        helping_step, HelpingState(2, BACKTRACK, round=5), view(3, 1, 1, SEEN), None, EXPLORE
    ),
    "helping-wrap-to-parent": (
        helping_step, HelpingState(2, round=3), view(1, 1, 0), None, BACKTRACK
    ),
    "independent-dock": (independent_step, IndependentState(1), view(3), 1, SETTLED),
    "independent-bounce": (
        independent_step, IndependentState(2, round=3, visited=0b10), view(3, 1, 2), None,
        BACKTRACK,
    ),
    "independent-first-visit": (
        independent_step, IndependentState(2, round=3), view(3, 1, 0), None, EXPLORE
    ),
    "independent-loser": (independent_step, IndependentState(2), view(3), 1, EXPLORE),
    "independent-backtrack": (
        independent_step, IndependentState(2, BACKTRACK, 0, 4, 0b10, (2,)), view(3, 1, 0),
        None, EXPLORE,
    ),
    "independent-pop": (
        independent_step, IndependentState(2, BACKTRACK, 0, 4, 0b10, (0, 1)), view(3, 1, 0),
        None, BACKTRACK,
    ),
}


@pytest.mark.parametrize(
    "step,state,v,winner,mode_after", STEP_BRANCHES.values(), ids=list(STEP_BRANCHES)
)
def test_step_values_keep_their_type_and_arity(step, state, v, winner, mode_after):
    new, port, effects = step(state, v, winner)
    assert new.mode is mode_after  # the case reaches the branch it names
    assert_exact(new, type(state))
    assert type(port) is int
    if mode_after is SETTLED:
        assert port == -1
    else:
        assert 0 <= port < v.degree
    for record in effects:
        # a help record is a plain (docked label, entry port) pair
        assert type(record) is tuple and len(record) == 2
        assert all(type(x) is int for x in record)


@pytest.mark.parametrize(
    "state,v,winner",
    [case[1:4] for name, case in STEP_BRANCHES.items() if name.startswith("independent-")],
    ids=[name for name in STEP_BRANCHES if name.startswith("independent-")],
)
def test_independent_step_ignores_the_helping_slots(state, v, winner):
    # the families differ only where the paper says: an independent visitor
    # reads the docked robot's label and nothing of its visitor records
    blank = independent_step(state, v._replace(record_self=0), winner)
    filled = independent_step(state, v._replace(record_self=5), winner)
    assert filled == blank


# --- port arithmetic -------------------------------------------------------


@pytest.mark.parametrize(
    "step,state",
    [(helping_step, HelpingState(2)), (independent_step, IndependentState(2))],
    ids=["helping", "independent"],
)
@pytest.mark.parametrize(
    "degree,entry", [(d, e) for d in (1, 2, 3, 5) for e in (-1, 0, 1, 2) if e < d]
)
def test_moves_stay_in_port_range(step, state, degree, entry):
    state = state._replace(round=0 if entry == -1 else 3)
    _, port, _ = step(state, view(degree, entry=entry), mutex_winner=9)
    assert 0 <= port < degree
    assert port == (entry + 1) % degree
