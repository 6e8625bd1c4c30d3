"""Output checks the benchmark computes without calling into dispersim.

Graph facts come from the port tables alone (or from the graph text in a
trace header, parsed here). Reports are compared against those facts and
the closed-form bounds of the paper. Traces are audited line by line without
running the engine. Every check returns a list of problems; an empty list
means the output passed.
"""

from __future__ import annotations

import json
from collections import deque


def ceil_log2(x: int) -> int:
    """Smallest b with 2**b >= x, for x >= 1."""
    b = 0
    while (1 << b) < x:
        b += 1
    return b


def expected_edge_count(family: str, n: int, m: int | None) -> int:
    """Edge count of a generated family member, from the family's definition."""
    if family == "line" or family in ("random_tree", "tree"):
        return n - 1
    if family == "ring":
        return n
    if family == "complete":
        return n * (n - 1) // 2
    if family == "grid":
        rows = max(d for d in range(1, n + 1) if n % d == 0 and d * d <= n)
        cols = n // rows
        return rows * (cols - 1) + cols * (rows - 1)
    if family == "gnm":
        return m
    raise ValueError(f"no edge-count formula for family {family!r}")


class GraphFacts:
    """n, m and max degree of a port table, and BFS distances on demand."""

    def __init__(self, tables, problems: list[str]) -> None:
        self.tables = tables
        self.n = len(tables)
        self.delta = max((len(t) for t in tables), default=0)
        self.m = sum(len(t) for t in tables) // 2
        self.problems = problems
        self._dist: dict[int, list[int]] = {}

    def dist_from(self, start: int) -> list[int]:
        if start not in self._dist:
            dist = [-1] * self.n
            dist[start] = 0
            queue = deque([start])
            while queue:
                v = queue.popleft()
                for u, _ in self.tables[v]:
                    if dist[u] < 0:
                        dist[u] = dist[v] + 1
                        queue.append(u)
            self._dist[start] = dist
        return self._dist[start]


def graph_facts(tables, n: int, expected_m: int) -> GraphFacts:
    """Check a port table: node count, port involution, simplicity,
    degree sum = 2m, m = the family's edge count, and connectivity."""
    problems: list[str] = []
    if len(tables) != n:
        problems.append(f"graph has {len(tables)} nodes, expected {n}")
    degree_sum = 0
    for v, table in enumerate(tables):
        degree_sum += len(table)
        if len({u for u, _ in table}) != len(table):
            problems.append(f"multi-edge at node {v}")
        for p, (u, q) in enumerate(table):
            if not 0 <= u < len(tables) or u == v:
                problems.append(f"node {v} port {p} leads to bad node {u}")
            elif not 0 <= q < len(tables[u]) or tuple(tables[u][q]) != (v, p):
                problems.append(f"port involution broken at node {v} port {p}")
    if degree_sum % 2 or degree_sum // 2 != expected_m:
        problems.append(f"degree sum {degree_sum} is not 2m = {2 * expected_m}")
    facts = GraphFacts(tables, problems)
    if not problems and tables and min(facts.dist_from(0)) < 0:
        problems.append("graph is not connected")
    return facts


def parse_graph_text(text: str) -> tuple[tuple, list[str]]:
    """Port tables from the `n m` / edge lines / `v: p->u` text of a trace
    header; the entry port of each edge is recovered from the far node's
    port list."""
    problems: list[str] = []
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    n, m = int(lines[0][0]), int(lines[0][1])
    edges = {tuple(sorted((int(a), int(b)))) for a, b in lines[1 : 1 + m]}
    order: list[list[int]] = [[] for _ in range(n)]
    for parts in lines[1 + m :]:
        v = int(parts[0].rstrip(":"))
        order[v] = [int(tok.partition("->")[2]) for tok in parts[1:]]
    index = [{u: p for p, u in enumerate(nbrs)} for nbrs in order]
    tables = tuple(
        tuple((u, index[u].get(v, -1)) for u in order[v]) for v in range(n)
    )
    port_edges = {tuple(sorted((v, u))) for v in range(n) for u in order[v]}
    if len(edges) != m or port_edges != edges:
        problems.append("edge lines disagree with the port lines")
    return tables, problems


def check_report(
    report: dict, facts: GraphFacts, starts, family: str, sync: bool
) -> list[str]:
    """Dispersion, time bound, memory bound, stack depth and move lower
    bounds of one run report (in `RunReport.to_dict` form)."""
    problems = list(facts.problems)
    n, m, delta, k = facts.n, facts.m, facts.delta, len(starts)
    robots = report["robots"]
    if (report["n"], report["m"], report["k"], len(robots)) != (n, m, k, k):
        return problems + ["report n, m or k disagrees with the inputs"]
    if report["delta"] != delta:
        problems.append(f"report delta {report['delta']} != {delta}")

    final = report["final_positions"]
    if len(final) != k or not all(0 <= v < n for v in final):
        problems.append("final positions are not k valid nodes")
    elif len(set(final)) != k:
        problems.append("two robots share a final node")
    if any(mode != "settled" for mode in report["final_modes"]):
        problems.append("a robot is not settled")
    if report["dispersed"] is not True:
        problems.append("report says not dispersed")

    bound = 4 * m - 2 * (n - 1)
    if sync:
        late = [r["label"] for r in robots
                if r["settle_time"] is None or not 0 <= r["settle_time"] <= bound]
        if late:
            problems.append(f"robots {late[:5]} settle past round {bound}")
    elif any(r["active_iterations"] > bound + 1 for r in robots):
        problems.append(f"a robot ran more than {bound + 1} active iterations")

    pbits = ceil_log2(delta + 1)
    if family == "helping":
        mem_bound = 2 * pbits + 3 + ceil_log2(4 * m + 1) + k + k * pbits
    else:
        mem_bound = pbits + 2 + k + (k - 1) * pbits
    if any(r["peak_memory_bits"] > mem_bound for r in robots):
        problems.append(f"peak memory above the {family} bound {mem_bound}")

    for r in robots:
        depth = r["peak_stack_depth"]
        if family == "helping" and depth is not None:
            problems.append("helping robot reports a stack depth")
            break
        if family == "independent" and (depth is None or depth > k - 1):
            problems.append(f"robot {r['label']} stack depth {depth} > k-1")
            break

    if len(final) == k and all(0 <= v < n for v in final):
        for r, start, end in zip(robots, starts, final):
            if r["moves"] < facts.dist_from(start)[end]:
                problems.append(f"robot {r['label']} moved less than its distance")
                break
    return problems


def audit_trace(lines, k: int, sync: bool) -> tuple[list[str], int]:
    """Audit a JSONL trace without the engine; returns (problems, events).

    Event indices run 0, 1, ... with no gap; every mutex winner is among its
    contenders; exactly k robots dock, each once and at distinct nodes, and
    none acts after docking. An asynchronous mutex winner other than the
    acting robot docks during that event, so it counts as a dock there.
    """
    problems: list[str] = []
    header = json.loads(lines[0])
    if header.get("type") != "config":
        problems.append("first line is not a config record")
    docked_robots: set[int] = set()
    dock_nodes: set[int] = set()
    docks = 0
    events = 0
    for idx, line in enumerate(lines[1:]):
        rec = json.loads(line)
        events += 1
        if rec["event"] != idx:
            problems.append(f"event index {rec['event']} at position {idx}")
            break
        if ("round" in rec) != sync:
            problems.append(f"event {idx} round field does not match the engine")
            break
        if rec["robot"] in docked_robots:
            problems.append(f"docked robot {rec['robot']} acts at event {idx}")
            break
        docking = []
        mutex = rec["mutex"]
        if mutex is not None:
            if mutex["winner"] not in mutex["contenders"]:
                problems.append(f"event {idx}: mutex winner not among contenders")
                break
            if not sync and mutex["winner"] != rec["robot"]:
                docking.append(mutex["winner"])
        if rec["action"]["type"] == "dock":
            docking.append(rec["robot"])
        for robot in docking:
            docks += 1
            if robot in docked_robots or rec["node"] in dock_nodes:
                problems.append(f"event {idx}: second dock of a robot or node")
            docked_robots.add(robot)
            dock_nodes.add(rec["node"])
    if docks != k or len(dock_nodes) != k:
        problems.append(f"{docks} docks at {len(dock_nodes)} nodes, expected {k}")
    return problems, events
