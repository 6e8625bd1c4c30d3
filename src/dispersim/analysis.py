"""Post-run verification: report records, bound checks, and oracles.

Every check here is an exact integer comparison; there are no tolerances
anywhere in this artifact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .agents import Mode, memory_bits_helping, memory_bits_independent
from .graph import InitialPlacement, PortLabeledGraph, generate

__all__ = [
    "RobotStats",
    "RunReport",
    "sync_round_bound",
    "async_iteration_bound",
    "check_dispersion",
    "check_time_bound",
    "check_memory_bound",
    "single_robot_dfs_oracle",
    "lower_bound_fixture",
]


class RobotStats(NamedTuple):
    """Per-robot outcome figures; ``peak_stack_depth`` is None for the
    helping family, ``settle_time`` is None when the robot never docked."""

    label: int
    moves: int
    settle_time: int | None
    active_iterations: int
    peak_memory_bits: int
    peak_stack_depth: int | None


@dataclass(frozen=True, slots=True)
class RunReport:
    """Outcome record of one run.

    Exactly one of ``rounds_elapsed`` (synchronous engine) and
    ``events_elapsed`` (asynchronous engine) is set.
    """

    algorithm: str
    dispersed: bool
    rounds_elapsed: int | None
    events_elapsed: int | None
    node_count: int
    edge_count: int
    max_degree: int
    robot_count: int
    robots: tuple[RobotStats, ...]
    final_positions: tuple[int, ...]
    final_modes: tuple[str, ...]
    mutex_contentions: int
    trace_path: str | None = None

    @property
    def duration(self) -> int:
        """Rounds (sync) or events (async) elapsed."""
        if self.rounds_elapsed is not None:
            return self.rounds_elapsed
        assert self.events_elapsed is not None
        return self.events_elapsed

    @property
    def max_moves(self) -> int:
        return max(r.moves for r in self.robots)

    @property
    def max_memory_bits(self) -> int:
        return max(r.peak_memory_bits for r in self.robots)

    @property
    def max_stack_depth(self) -> int | None:
        depths = [r.peak_stack_depth for r in self.robots if r.peak_stack_depth is not None]
        return max(depths) if depths else None

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "dispersed": self.dispersed,
            "rounds_elapsed": self.rounds_elapsed,
            "events_elapsed": self.events_elapsed,
            "n": self.node_count,
            "m": self.edge_count,
            "delta": self.max_degree,
            "k": self.robot_count,
            "robots": [
                {
                    "label": r.label,
                    "moves": r.moves,
                    "settle_time": r.settle_time,
                    "active_iterations": r.active_iterations,
                    "peak_memory_bits": r.peak_memory_bits,
                    "peak_stack_depth": r.peak_stack_depth,
                }
                for r in self.robots
            ],
            "final_positions": list(self.final_positions),
            "final_modes": list(self.final_modes),
            "mutex_contentions": self.mutex_contentions,
            "trace": self.trace_path,
        }


def sync_round_bound(graph: PortLabeledGraph) -> int:
    """Last round index of the main loop: 4m - 2(n-1)."""
    return 4 * graph.edge_count - 2 * (graph.node_count - 1)


def async_iteration_bound(graph: PortLabeledGraph) -> int:
    """Maximum active iterations per robot: the inclusive loop runs
    4m - 2(n-1) + 1 times."""
    return sync_round_bound(graph) + 1


def check_dispersion(world) -> bool:
    """True iff every robot is settled and positions are pairwise distinct.

    Accepts anything exposing ``positions`` and ``states`` sequences, each
    state with a ``mode`` (the engine's world state does).
    """
    positions = world.positions
    settled = all(s.mode is Mode.SETTLED for s in world.states)
    return settled and len(set(positions)) == len(positions)


def check_time_bound(report: RunReport, graph: PortLabeledGraph) -> bool:
    """Exact time-bound check.

    Synchronous runs: every robot settled within rounds 0..4m-2(n-1).
    Asynchronous runs: every robot executed at most 4m-2(n-1)+1 active
    iterations.
    """
    bound = sync_round_bound(graph)
    if report.rounds_elapsed is not None:
        return all(
            r.settle_time is not None and r.settle_time <= bound
            for r in report.robots
        )
    return all(r.active_iterations <= bound + 1 for r in report.robots)


def check_memory_bound(
    report: RunReport, k: int, max_degree: int, edge_count: int
) -> bool:
    """Per-robot peak memory never exceeds the closed-form family maximum:
    a settled helping robot, or an independent robot at stack depth k-1."""
    if report.algorithm.startswith("helping"):
        bound = memory_bits_helping(True, k, max_degree, edge_count)
    else:
        bound = memory_bits_independent(k - 1, k, max_degree)
    return all(r.peak_memory_bits <= bound for r in report.robots)


def single_robot_dfs_oracle(
    graph: PortLabeledGraph, start: int
) -> list[tuple[int, int]]:
    """Classic depth-first traversal over the port-labeled graph.

    From a node entered via port e, ports are taken in ascending cyclic order
    starting at (e+1) mod degree; known nodes bounce the walker straight
    back; exhausting a node's ports backtracks through the entry port.
    Returns the directed edge-visit sequence as (from, to) node pairs, of
    length exactly 4m - 2n + 2.  Reads no node identity beyond bookkeeping.
    """
    visited = [False] * graph.node_count
    visited[start] = True
    seq: list[tuple[int, int]] = []
    # one frame per node on the current path: [node, entry port, last port
    # taken, ports left to try]; an explicit stack keeps long paths in reach
    frames = [[start, -1, -1, graph.degree(start)]]
    while frames:
        frame = frames[-1]
        v, entry, p, left = frame
        if left == 0:
            frames.pop()
            if entry != -1:
                u, _ = graph.traverse(v, entry)
                seq.append((v, u))
            continue
        p = (p + 1) % graph.degree(v)
        frame[2], frame[3] = p, left - 1
        u, q = graph.traverse(v, p)
        seq.append((v, u))
        if visited[u]:
            seq.append((u, v))
        else:
            visited[u] = True
            frames.append([u, q, q, graph.degree(u) - 1])
    return seq


def lower_bound_fixture(k: int) -> tuple[PortLabeledGraph, InitialPlacement]:
    """Worst-case instance: a k-node path with all robots at one end, which
    forces some robot to travel k-1 hops."""
    if k < 1:
        raise ValueError("k must be at least 1")
    graph = generate("line", k)
    return graph, InitialPlacement((0,) * k)
