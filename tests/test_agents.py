from __future__ import annotations

from dispersim.agents import (
    HelpingState,
    IndependentState,
    Mode,
    memory_bits_helping,
    memory_bits_independent,
    port_value_bits,
    round_counter_bits,
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


def test_initial_states():
    h = HelpingState(1)
    assert (h.mode, h.port_entered, h.parent_ptr, h.seen, h.round) == (
        Mode.EXPLORE,
        -1,
        -1,
        False,
        0,
    )
    i = IndependentState(2)
    assert i.visited == 0
    assert i.stack == ()
