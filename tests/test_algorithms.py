from __future__ import annotations

from copy import deepcopy

import pytest

from dispersim.agents import HelpingState, IndependentState, Mode
from dispersim.algorithms import (
    DOCK,
    Dock,
    DockedHandle,
    HelpRecord,
    LocalView,
    Move,
    SimulationInvariantError,
    helping_step,
    independent_step,
    settled_service,
)

from harness import assert_exact


def view(degree, docked=None, entry=-1):
    return LocalView(degree=degree, docked=docked, entry_port=entry)


# --- docking alone -------------------------------------------------------


def test_lone_helping_robot_docks_immediately():
    new, action, effects = helping_step(HelpingState(1), view(2), mutex_winner=1)
    assert isinstance(action, Dock)
    assert new.mode is Mode.SETTLED
    assert effects == ()


def test_lone_independent_robot_docks_immediately():
    state = IndependentState(1)
    new, action, _ = independent_step(state, view(3), mutex_winner=1)
    assert isinstance(action, Dock)
    assert new.mode is Mode.SETTLED
    assert new.stack == ()


# --- helping explore at a docked node ------------------------------------


def test_seen_node_triggers_backtrack_through_entry_port():
    state = HelpingState(2)._replace(round=4)
    docked = DockedHandle(label=1, visited_self=True, entry_port_self=0)
    new, action, effects = helping_step(state, view(3, docked, entry=2), None)
    assert new.mode is Mode.BACKTRACK
    assert action == Move(2)  # back the way it came
    assert new.parent_ptr == 0  # first-entry port received from the dock
    assert effects == ()


def test_first_visit_records_entry_and_advances():
    state = HelpingState(2)._replace(round=4)
    docked = DockedHandle(label=1, visited_self=False, entry_port_self=-1)
    new, action, effects = helping_step(state, view(3, docked, entry=1), None)
    assert new.mode is Mode.EXPLORE
    assert action == Move(2)  # (1 + 1) mod 3
    assert new.parent_ptr == 1
    assert effects == (HelpRecord(1, 2, 1),)


def test_first_visit_wraps_to_parent_and_backtracks():
    # advancing from the entry port on a degree-1 node returns to it
    state = HelpingState(2)._replace(round=4)
    docked = DockedHandle(label=1, visited_self=False, entry_port_self=-1)
    new, action, effects = helping_step(state, view(1, docked, entry=0), None)
    assert new.mode is Mode.BACKTRACK
    assert action == Move(0)
    assert effects == (HelpRecord(1, 2, 0),)


# --- mutex loss ----------------------------------------------------------


def test_loser_records_first_visit_at_fresh_winner():
    state = HelpingState(3)._replace(round=2)
    new, action, effects = helping_step(state, view(2, entry=1), mutex_winner=2)
    assert effects == (HelpRecord(2, 3, 1),)
    assert action == Move(0)  # (1 + 1) mod 2
    assert new.mode is Mode.EXPLORE
    assert new.parent_ptr == 1
    assert new.seen is False


def test_independent_loser_marks_winner_and_pushes():
    state = IndependentState(3)._replace(round=2)
    new, action, _ = independent_step(state, view(2, entry=1), mutex_winner=2)
    assert new.visited == 1 << 2
    assert new.stack == (1,)
    assert action == Move(0)
    assert new.mode is Mode.EXPLORE


# --- independent transitions ---------------------------------------------


def test_independent_first_visit_pushes_and_advances():
    state = IndependentState(2)._replace(round=3)
    new, action, _ = independent_step(
        state, view(2, DockedHandle(label=1), entry=0), mutex_winner=None
    )
    assert new.visited == 1 << 1
    assert new.stack == (0,)
    assert action == Move(1)
    assert new.mode is Mode.EXPLORE


def test_independent_leaf_pushes_then_pops():
    state = IndependentState(2)._replace(round=3)
    new, action, _ = independent_step(
        state, view(1, DockedHandle(label=1), entry=0), mutex_winner=None
    )
    assert new.stack == ()  # pushed 0, advanced back onto it, popped
    assert new.mode is Mode.BACKTRACK
    assert action == Move(0)


def test_independent_revisit_bounces_back():
    state = IndependentState(2)._replace(round=3)
    state = state._replace(visited=1 << 1)
    new, action, _ = independent_step(
        state, view(3, DockedHandle(label=1), entry=2), mutex_winner=None
    )
    assert new.mode is Mode.BACKTRACK
    assert action == Move(2)
    assert new.stack == ()


def test_independent_backtrack_resumes_exploring_when_port_differs():
    state = IndependentState(2)._replace(
        round=3, mode=Mode.BACKTRACK, stack=(-1,)
    )
    new, action, _ = independent_step(
        state, view(2, DockedHandle(label=1), entry=0), mutex_winner=None
    )
    assert new.mode is Mode.EXPLORE  # advanced port 1 differs from stack top -1
    assert action == Move(1)
    assert new.stack == (-1,)


def test_independent_backtrack_pops_on_parent_port():
    state = IndependentState(2)._replace(
        round=3, mode=Mode.BACKTRACK, stack=(-1, 1)
    )
    new, action, _ = independent_step(
        state, view(2, DockedHandle(label=1), entry=0), mutex_winner=None
    )
    assert new.mode is Mode.BACKTRACK
    assert action == Move(1)
    assert new.stack == (-1,)


# --- settled service ------------------------------------------------------


def test_settled_service_first_and_repeat_visits():
    visited, entry_port = [False] * 5, [-1] * 5
    settled_service(visited, entry_port, 3, 2)
    after = ([False, False, False, True, False], [-1, -1, -1, 2, -1])
    assert (visited, entry_port) == after
    # a repeat visit keeps the first entry port
    settled_service(visited, entry_port, 3, 0)
    assert (visited, entry_port) == after


def test_settled_service_records_sentinel_for_unmoved_visitor():
    visited, entry_port = [False] * 5, [-1] * 5
    settled_service(visited, entry_port, 2, -1)
    assert (visited[2], entry_port[2]) == (True, -1)


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
        independent_step(state, view(2, DockedHandle(label=2), entry=0), None)


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
        (DockedHandle(1), "visited_self"),
        (Move(0), "port"),
        (HelpRecord(1, 2, 0), "entry_port"),
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
    v = view(3, DockedHandle(1), entry=1)
    before = deepcopy((state, v))
    new, _, _ = step(state, v, None)
    assert (state, v) == before
    assert new != state


EXPLORE, BACKTRACK, SETTLED = Mode.EXPLORE, Mode.BACKTRACK, Mode.SETTLED
FRESH, SEEN = DockedHandle(1), DockedHandle(1, 1, 0)

# id -> (step, state, view, mutex winner, mode after); together the cases
# take every branch that returns from either step
STEP_BRANCHES = {
    "helping-dock": (helping_step, HelpingState(1), view(2), 1, SETTLED),
    "helping-bounce": (helping_step, HelpingState(2, round=4), view(3, SEEN, 2), None, BACKTRACK),
    "helping-first-visit": (
        helping_step, HelpingState(2, round=4), view(3, FRESH, 1), None, EXPLORE
    ),
    "helping-loser": (helping_step, HelpingState(2), view(3), 1, EXPLORE),
    "helping-backtrack": (
        helping_step, HelpingState(2, BACKTRACK, round=5), view(3, SEEN, 1), None, EXPLORE
    ),
    "helping-wrap-to-parent": (
        helping_step, HelpingState(2, round=3), view(1, FRESH, 0), None, BACKTRACK
    ),
    "independent-dock": (independent_step, IndependentState(1), view(3), 1, SETTLED),
    "independent-bounce": (
        independent_step, IndependentState(2, round=3, visited=0b10), view(3, FRESH, 2), None,
        BACKTRACK,
    ),
    "independent-first-visit": (
        independent_step, IndependentState(2, round=3), view(3, FRESH, 0), None, EXPLORE
    ),
    "independent-loser": (independent_step, IndependentState(2), view(3), 1, EXPLORE),
    "independent-backtrack": (
        independent_step, IndependentState(2, BACKTRACK, 0, 4, 0b10, (2,)), view(3, FRESH, 0),
        None, EXPLORE,
    ),
    "independent-pop": (
        independent_step, IndependentState(2, BACKTRACK, 0, 4, 0b10, (0, 1)), view(3, FRESH, 0),
        None, BACKTRACK,
    ),
}


@pytest.mark.parametrize(
    "step,state,v,winner,mode_after", STEP_BRANCHES.values(), ids=list(STEP_BRANCHES)
)
def test_step_values_keep_their_type_and_arity(step, state, v, winner, mode_after):
    new, action, effects = step(state, v, winner)
    assert new.mode is mode_after  # the case reaches the branch it names
    assert_exact(new, type(state))
    if mode_after is SETTLED:
        assert action is DOCK
    else:
        assert_exact(action, Move)
    for record in effects:
        assert_exact(record, HelpRecord)


# --- port arithmetic -------------------------------------------------------


@pytest.mark.parametrize("degree", [1, 2, 3, 5])
@pytest.mark.parametrize("entry", [-1, 0, 1, 2])
def test_moves_stay_in_port_range(degree, entry):
    if entry >= degree:
        pytest.skip("entry port outside degree")
    state = HelpingState(2)._replace(round=0 if entry == -1 else 3)
    new, action, _ = helping_step(state, view(degree, entry=entry), mutex_winner=9)
    assert isinstance(action, Move)
    assert 0 <= action.port < degree
    assert action.port == (entry + 1) % degree
