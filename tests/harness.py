"""Shared test machinery: seeded random instances, a trace sink that parses
what it receives, a check of a step value's type and arity, and the
docking-disabled single-robot traversal harness used for DFS-oracle
equivalence."""

from __future__ import annotations

import json
import random
from typing import Callable

from dispersim.agents import HelpingState, IndependentState
from dispersim.algorithms import (
    DockedHandle,
    LocalView,
    Move,
    helping_step,
    independent_step,
)
from dispersim.graph import InitialPlacement, PortLabeledGraph, build_graph, generate

STEP_FUNCTIONS = {"helping": helping_step, "independent": independent_step}


def record_sink(records: list[dict]) -> Callable[[str], None]:
    """A trace sink that parses each line it receives into ``records``."""
    return lambda line: records.append(json.loads(line))


def assert_exact(value, cls) -> None:
    """``value`` is a ``cls`` holding exactly one item per field: the steps
    and the engine build their values through ``tuple.__new__``, which
    checks no arity."""
    assert type(value) is cls
    assert len(value) == len(cls._fields)


def random_connected_instance(
    rng: random.Random, n_max: int = 40, m_cap_factor: int = 3
) -> tuple[PortLabeledGraph, InitialPlacement]:
    """Seeded random connected graph with n <= n_max, n-1 <= m <= min(3n,
    n(n-1)/2), random port labels, and a random placement of 1 <= k <= n
    robots."""
    n = rng.randint(1, n_max)
    if n == 1:
        return generate("line", 1), InitialPlacement((0,))
    m_max = min(m_cap_factor * n, n * (n - 1) // 2)
    m = rng.randint(n - 1, m_max)
    # random spanning tree plus a sample of extra edges keeps every density
    # in range reachable (plain G(n,m) rejection is hopeless near m = n-1)
    tree = [(rng.randrange(v), v) for v in range(1, n)]
    have = set(tree)
    pool = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in have]
    edges = tree + rng.sample(pool, m - (n - 1))
    g = build_graph(edges, ports="random", seed=rng.randrange(2**32), node_count=n)
    k = rng.randint(1, n)
    placement = InitialPlacement(tuple(rng.randrange(n) for _ in range(k)))
    return g, placement


def traversal_without_docking(
    graph: PortLabeledGraph, start: int, step_name: str
) -> list[tuple[int, int]]:
    """Drive one robot's step function with docking disabled.

    Whenever the robot reaches a free node, a phantom robot (a fresh label)
    settles there and the robot takes the mutex-loser path, so the walk is
    the algorithm's traversal with every node pre-claimable but the robot
    itself never docking.  Returns the directed edge sequence of the first
    4m - 2n + 2 moves, the length of a complete depth-first traversal.
    """
    step = STEP_FUNCTIONS[step_name]
    helping = step_name == "helping"
    state = HelpingState(1) if helping else IndependentState(1)

    phantom_at: dict[int, int] = {}
    phantom_node: dict[int, int] = {}
    slots: dict[int, tuple[bool, int]] = {}
    next_phantom = 2
    target = 4 * graph.edge_count - 2 * graph.node_count + 2
    pos = start
    pending = -1
    seq: list[tuple[int, int]] = []

    while len(seq) < target:
        degree = graph.degree(pos)
        winner = None
        if pos in phantom_at:
            label = phantom_at[pos]
            if helping:
                visited_bit, port = slots[pos]
                handle = DockedHandle(label, visited_bit, port)
            else:
                handle = DockedHandle(label)
            view = LocalView(degree, handle, pending)
        else:
            phantom_at[pos] = next_phantom
            phantom_node[next_phantom] = pos
            slots[pos] = (False, -1)
            winner = next_phantom
            next_phantom += 1
            view = LocalView(degree, None, pending)

        state, action, effects = step(state, view, winner)
        for record in effects:
            slots[phantom_node[record.docked_label]] = (True, record.entry_port)
        assert isinstance(action, Move), f"robot emitted {action!r} while docking is disabled"
        dest, entry = graph.traverse(pos, action.port)
        seq.append((pos, dest))
        pos, pending = dest, entry
    return seq
