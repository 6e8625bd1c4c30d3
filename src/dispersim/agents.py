"""Per-robot state for both algorithm families, plus memory accounting.

States are immutable named tuples, cheap to build on every step; the engine
owns every mutation point, including the visitor records a docked helping
robot keeps.  Memory is
accounted by the closed-form bit formulas, not by an encoding, because the
claims being verified are bounds.  A helping robot's bits depend only on
whether it has settled and an independent robot's only on its stack depth, so
the engine evaluates them once per robot when it builds the report.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

__all__ = [
    "Mode",
    "HelpingState",
    "IndependentState",
    "port_value_bits",
    "round_counter_bits",
    "memory_bits_helping",
    "memory_bits_independent",
]


class Mode(Enum):
    EXPLORE = "explore"
    BACKTRACK = "backtrack"
    SETTLED = "settled"


class HelpingState(NamedTuple):
    """Robot state for the helping family.

    Once docked, the robot also keeps a visitor record per label (first-visit
    bit and first entry port); the engine holds those and updates them in
    place, so they are not part of this value.
    """

    label: int
    mode: Mode = Mode.EXPLORE
    port_entered: int = -1
    parent_ptr: int = -1
    seen: bool = False
    round: int = 0


class IndependentState(NamedTuple):
    """Robot state for the independent family: own visited bitset (bit j set
    once the robot met docked robot j) plus a stack of entry ports acting as
    parent pointers back to the origin node."""

    label: int
    mode: Mode = Mode.EXPLORE
    port_entered: int = -1
    round: int = 0
    visited: int = 0
    stack: tuple[int, ...] = ()


def port_value_bits(max_degree: int) -> int:
    """Bits for one port value including the -1 sentinel: ceil(log2(Delta+1))."""
    return max_degree.bit_length()


def round_counter_bits(edge_count: int) -> int:
    """Bits for the iteration counter, sized to hold the loop bound: ceil(log2(4m+1))."""
    return (4 * edge_count).bit_length()


def memory_bits_helping(
    settled: bool, k: int, max_degree: int, edge_count: int
) -> int:
    """Exact bit count of a helping-family robot's state.

    port_entered and parent_ptr take ceil(log2(Delta+1)) bits each, the mode
    2 bits, seen 1 bit, the round counter ceil(log2(4m+1)) bits; a settled
    robot adds the k-bit visited array and the k-entry port array.
    """
    pbits = port_value_bits(max_degree)
    bits = 2 * pbits + 2 + 1 + round_counter_bits(edge_count)
    if settled:
        bits += k + k * pbits
    return bits


def memory_bits_independent(stack_depth: int, k: int, max_degree: int) -> int:
    """Exact bit count: port_entered + mode + k-bit visited + stack entries."""
    pbits = port_value_bits(max_degree)
    return pbits + 2 + k + stack_depth * pbits
