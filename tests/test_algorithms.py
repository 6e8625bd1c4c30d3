from __future__ import annotations

from dataclasses import replace

import pytest

from dispersim.agents import (
    Mode,
    initial_helping_state,
    initial_independent_state,
    settle_helping,
)
from dispersim.algorithms import (
    Dock,
    DockedHandle,
    HelpRecord,
    LocalView,
    Move,
    SimulationInvariantError,
    Stay,
    helping_async_step,
    helping_sync_step,
    independent_step,
    settled_service,
)


def view(degree, docked=None, entry=-1):
    return LocalView(degree=degree, docked=docked, entry_port=entry)


# --- docking alone -------------------------------------------------------


@pytest.mark.parametrize("step", [helping_sync_step, helping_async_step])
def test_lone_helping_robot_docks_immediately(step):
    state = initial_helping_state(1, 1)
    new, action, effects = step(state, view(2), mutex_winner=1)
    assert isinstance(action, Dock)
    assert new.mode is Mode.SETTLED
    assert new.visited == (False, False)
    assert effects == ()


def test_lone_independent_robot_docks_immediately():
    state = initial_independent_state(1, 1)
    new, action, _ = independent_step(state, view(3), mutex_winner=1)
    assert isinstance(action, Dock)
    assert new.mode is Mode.SETTLED
    assert new.stack == ()


# --- helping explore at a docked node ------------------------------------


@pytest.mark.parametrize("step", [helping_sync_step, helping_async_step])
def test_seen_node_triggers_backtrack_through_entry_port(step):
    state = replace(initial_helping_state(2, 3), round=4)
    docked = DockedHandle(label=1, visited_self=True, entry_port_self=0)
    new, action, effects = step(state, view(3, docked, entry=2), mutex_winner=None)
    assert new.mode is Mode.BACKTRACK
    assert action == Move(2)  # back the way it came
    assert new.parent_ptr == 0  # first-entry port received from the dock
    assert effects == ()


@pytest.mark.parametrize("step", [helping_sync_step, helping_async_step])
def test_first_visit_records_entry_and_advances(step):
    state = replace(initial_helping_state(2, 3), round=4)
    docked = DockedHandle(label=1, visited_self=False, entry_port_self=-1)
    new, action, effects = step(state, view(3, docked, entry=1), mutex_winner=None)
    assert new.mode is Mode.EXPLORE
    assert action == Move(2)  # (1 + 1) mod 3
    assert new.parent_ptr == 1
    assert effects == (HelpRecord(1, 2, 1),)


@pytest.mark.parametrize("step", [helping_sync_step, helping_async_step])
def test_first_visit_wraps_to_parent_and_backtracks(step):
    # advancing from the entry port on a degree-1 node returns to it
    state = replace(initial_helping_state(2, 3), round=4)
    docked = DockedHandle(label=1, visited_self=False, entry_port_self=-1)
    new, action, effects = step(state, view(1, docked, entry=0), mutex_winner=None)
    assert new.mode is Mode.BACKTRACK
    assert action == Move(0)
    assert effects == (HelpRecord(1, 2, 0),)


# --- mutex loss ----------------------------------------------------------


def test_sync_loser_sends_entry_port_to_winner():
    state = replace(initial_helping_state(3, 3), round=2)
    new, action, effects = helping_sync_step(state, view(2, entry=1), mutex_winner=2)
    assert effects == (HelpRecord(2, 3, 1),)
    assert action == Move(0)  # (1 + 1) mod 2
    assert new.mode is Mode.EXPLORE
    assert new.parent_ptr == 1


def test_async_loser_records_first_visit_at_fresh_winner():
    state = replace(initial_helping_state(3, 3), round=2)
    new, action, effects = helping_async_step(state, view(2, entry=1), mutex_winner=2)
    assert effects == (HelpRecord(2, 3, 1),)
    assert new.parent_ptr == 1
    assert new.seen is False
    assert action == Move(0)


def test_independent_loser_marks_winner_and_pushes():
    state = replace(initial_independent_state(3, 3), round=2)
    new, action, _ = independent_step(state, view(2, entry=1), mutex_winner=2)
    assert new.visited[2] is True
    assert new.stack == (1,)
    assert action == Move(0)
    assert new.mode is Mode.EXPLORE


# --- independent transitions ---------------------------------------------


def test_independent_first_visit_pushes_and_advances():
    state = replace(initial_independent_state(2, 3), round=3)
    new, action, _ = independent_step(
        state, view(2, DockedHandle(label=1), entry=0), mutex_winner=None
    )
    assert new.visited[1] is True
    assert new.stack == (0,)
    assert action == Move(1)
    assert new.mode is Mode.EXPLORE


def test_independent_leaf_pushes_then_pops():
    state = replace(initial_independent_state(2, 3), round=3)
    new, action, _ = independent_step(
        state, view(1, DockedHandle(label=1), entry=0), mutex_winner=None
    )
    assert new.stack == ()  # pushed 0, advanced back onto it, popped
    assert new.mode is Mode.BACKTRACK
    assert action == Move(0)


def test_independent_revisit_bounces_back():
    state = replace(initial_independent_state(2, 3), round=3)
    state = replace(state, visited=(False, True, False, False))
    new, action, _ = independent_step(
        state, view(3, DockedHandle(label=1), entry=2), mutex_winner=None
    )
    assert new.mode is Mode.BACKTRACK
    assert action == Move(2)
    assert new.stack == ()


def test_independent_backtrack_resumes_exploring_when_port_differs():
    state = replace(
        initial_independent_state(2, 3), round=3, mode=Mode.BACKTRACK, stack=(-1,)
    )
    new, action, _ = independent_step(
        state, view(2, DockedHandle(label=1), entry=0), mutex_winner=None
    )
    assert new.mode is Mode.EXPLORE  # advanced port 1 differs from stack top -1
    assert action == Move(1)
    assert new.stack == (-1,)


def test_independent_backtrack_pops_on_parent_port():
    state = replace(
        initial_independent_state(2, 3), round=3, mode=Mode.BACKTRACK, stack=(-1, 1)
    )
    new, action, _ = independent_step(
        state, view(2, DockedHandle(label=1), entry=0), mutex_winner=None
    )
    assert new.mode is Mode.BACKTRACK
    assert action == Move(1)
    assert new.stack == (-1,)


# --- settled service ------------------------------------------------------


def test_settled_service_first_and_repeat_visits():
    docked = settle_helping(initial_helping_state(1, 4))
    seen, port, docked = settled_service(docked, 3, 2)
    assert (seen, port) == (False, -1)
    assert docked.visited[3] is True
    assert docked.entry_port[3] == 2
    seen, port, again = settled_service(docked, 3, 0)
    assert (seen, port) == (True, 2)
    assert again is docked  # no state change on repeat visits


def test_settled_service_records_sentinel_for_unmoved_visitor():
    docked = settle_helping(initial_helping_state(1, 4))
    seen, port, docked = settled_service(docked, 2, -1)
    assert (seen, port) == (False, -1)
    assert docked.entry_port[2] == -1
    assert docked.visited[2] is True


def test_settled_service_requires_settled_robot():
    with pytest.raises(SimulationInvariantError):
        settled_service(initial_helping_state(1, 4), 2, 0)


# --- hard failures and absorbing behaviour --------------------------------


def test_settled_helping_sync_step_is_passive():
    docked = settle_helping(initial_helping_state(1, 2))
    new, action, effects = helping_sync_step(docked, view(2), mutex_winner=None)
    assert isinstance(action, Stay)
    assert new is docked
    assert effects == ()


@pytest.mark.parametrize("step", [helping_async_step])
def test_async_step_rejects_settled_robot(step):
    docked = settle_helping(initial_helping_state(1, 2))
    with pytest.raises(SimulationInvariantError):
        step(docked, view(2), mutex_winner=None)


def test_backtrack_into_free_node_is_hard_failure():
    helping = replace(initial_helping_state(1, 2), mode=Mode.BACKTRACK, round=2)
    with pytest.raises(SimulationInvariantError):
        helping_sync_step(helping, view(2, entry=0), mutex_winner=1)
    independent = replace(
        initial_independent_state(1, 2), mode=Mode.BACKTRACK, round=2, stack=(-1,)
    )
    with pytest.raises(SimulationInvariantError):
        independent_step(independent, view(2, entry=0), mutex_winner=1)


def test_backtrack_with_empty_stack_is_hard_failure():
    state = replace(initial_independent_state(1, 2), mode=Mode.BACKTRACK, round=2)
    with pytest.raises(SimulationInvariantError):
        independent_step(state, view(2, DockedHandle(label=2), entry=0), None)


def test_free_node_without_arbitration_is_hard_failure():
    state = initial_helping_state(1, 2)
    with pytest.raises(SimulationInvariantError):
        helping_sync_step(state, view(2), mutex_winner=None)


# --- port arithmetic -------------------------------------------------------


@pytest.mark.parametrize("degree", [1, 2, 3, 5])
@pytest.mark.parametrize("entry", [-1, 0, 1, 2])
def test_moves_stay_in_port_range(degree, entry):
    if entry >= degree:
        pytest.skip("entry port outside degree")
    state = replace(initial_helping_state(2, 3), round=0 if entry == -1 else 3)
    new, action, _ = helping_sync_step(state, view(degree, entry=entry), mutex_winner=9)
    assert isinstance(action, Move)
    assert 0 <= action.port < degree
    assert action.port == (entry + 1) % degree
