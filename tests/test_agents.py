from __future__ import annotations

import pytest

from dispersim.agents import (
    Mode,
    initial_helping_state,
    initial_independent_state,
    memory_bits_helping,
    memory_bits_independent,
    port_value_bits,
    round_counter_bits,
    settle_helping,
    settle_independent,
)


def test_port_value_bits_counts_sentinel():
    # ceil(log2(Delta + 1)): the -1 sentinel shares the port encoding
    assert port_value_bits(1) == 1
    assert port_value_bits(3) == 2
    assert port_value_bits(4) == 3
    assert port_value_bits(0) == 0


def test_round_counter_bits():
    assert round_counter_bits(6) == 5  # ceil(log2(25))
    assert round_counter_bits(1) == 3  # ceil(log2(5))


def test_helping_memory_settled_example():
    # k=4, Delta=3, m=6: 2*2 + 2 + 1 + 5 + 4 + 4*2 = 24 bits
    assert memory_bits_helping(True, 4, 3, 6) == 24


def test_helping_memory_undocked_minimal_graph():
    assert memory_bits_helping(False, 1, 1, 1) == 8


def test_independent_memory_examples():
    # k=5, Delta=4: 3 + 2 + 5 bits, plus 3 per stack entry up to depth k-1
    assert memory_bits_independent(0, 5, 4) == 10
    assert memory_bits_independent(4, 5, 4) == 22


def test_helping_arrays_allocated_exactly_at_settle():
    state = initial_helping_state(3, 4)
    assert state.visited is None and state.entry_port is None
    settled = settle_helping(state)
    assert settled.mode is Mode.SETTLED
    assert settled.visited == (False,) * 5
    assert settled.entry_port == (-1,) * 5
    with pytest.raises(ValueError):
        settle_helping(settled)


def test_independent_settle_is_absorbing():
    state = initial_independent_state(2, 3)
    settled = settle_independent(state)
    assert settled.mode is Mode.SETTLED
    assert settled.visited == state.visited
    with pytest.raises(ValueError):
        settle_independent(settled)


def test_initial_states():
    h = initial_helping_state(1, 3)
    assert (h.mode, h.port_entered, h.parent_ptr, h.seen, h.round) == (
        Mode.EXPLORE,
        -1,
        -1,
        False,
        0,
    )
    i = initial_independent_state(2, 3)
    assert i.visited == (False,) * 4
    assert i.stack == ()
