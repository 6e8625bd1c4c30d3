"""Per-robot state for both algorithm families, plus memory accounting.

States are small immutable values; the engine owns every mutation point.
Memory is accounted by the closed-form bit formulas, not by an encoding,
because the claims being verified are bounds.  A helping robot's bits depend
only on whether it has settled and an independent robot's only on its stack
depth, so the engine evaluates them once per robot when it builds the report.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

__all__ = [
    "Mode",
    "HelpingState",
    "IndependentState",
    "initial_helping_state",
    "initial_independent_state",
    "settle_helping",
    "settle_independent",
    "port_value_bits",
    "round_counter_bits",
    "memory_bits_helping",
    "memory_bits_independent",
]


class Mode(Enum):
    EXPLORE = "explore"
    BACKTRACK = "backtrack"
    SETTLED = "settled"


@dataclass(frozen=True, slots=True)
class HelpingState:
    """Robot state for the helping family (docked robots keep visitor records).

    ``visited``/``entry_port`` are allocated only at the settle transition and
    are indexed 1..k (slot 0 unused).  ``entry_port[j]`` holds the port by
    which robot j first entered this node, -1 meaning "recorded before j ever
    moved".
    """

    label: int
    k: int
    mode: Mode = Mode.EXPLORE
    port_entered: int = -1
    parent_ptr: int = -1
    seen: bool = False
    round: int = 0
    visited: tuple[bool, ...] | None = None
    entry_port: tuple[int, ...] | None = None


@dataclass(frozen=True, slots=True)
class IndependentState:
    """Robot state for the independent family: own visited array plus a stack
    of entry ports acting as parent pointers back to the origin node."""

    label: int
    mode: Mode = Mode.EXPLORE
    port_entered: int = -1
    round: int = 0
    visited: tuple[bool, ...] = ()
    stack: tuple[int, ...] = ()


def initial_helping_state(label: int, k: int) -> HelpingState:
    return HelpingState(label=label, k=k)


def initial_independent_state(label: int, k: int) -> IndependentState:
    # visited is indexed by robot label; slot 0 (and the owner's slot) unused
    return IndependentState(label=label, visited=(False,) * (k + 1))


def settle_helping(state: HelpingState) -> HelpingState:
    """Settle transition: absorbing mode change plus one-time array allocation."""
    if state.mode is Mode.SETTLED:
        raise ValueError(f"robot {state.label} is already settled")
    return replace(
        state,
        mode=Mode.SETTLED,
        visited=(False,) * (state.k + 1),
        entry_port=(-1,) * (state.k + 1),
    )


def settle_independent(state: IndependentState) -> IndependentState:
    if state.mode is Mode.SETTLED:
        raise ValueError(f"robot {state.label} is already settled")
    return replace(state, mode=Mode.SETTLED)


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
