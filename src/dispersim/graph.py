"""Port-labeled anonymous undirected graphs: construction, generators, I/O.

A port-labeled graph assigns each node a local numbering 0..degree-1 of its
incident edges.  The two port numbers of one edge are independent: leaving
node ``v`` through port ``p`` arrives at some neighbor ``u`` through ``u``'s
own port for that edge.  Nodes carry indices for simulation bookkeeping only;
nothing in the robot-visible API depends on them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Mapping, Sequence

__all__ = [
    "GraphError",
    "PortLabeledGraph",
    "InitialPlacement",
    "build_graph",
    "generate",
    "relabel_nodes",
    "graph_to_text",
    "graph_from_text",
]

DEFAULT_GNM_RETRIES = 1000


class GraphError(ValueError):
    """Invalid graph input: structure, ports, or generator parameters."""


@dataclass(frozen=True, slots=True)
class PortLabeledGraph:
    """Immutable connected simple graph with per-node port tables.

    ``ports[v][p]`` is the pair ``(neighbor, entry_port)`` reached by leaving
    ``v`` through port ``p``; ``entry_port`` is the neighbor's own port for
    the same edge.
    """

    node_count: int
    edge_count: int
    ports: tuple[tuple[tuple[int, int], ...], ...]
    # the longest port table, found once: the tables never change
    _max_degree: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_max_degree", max(map(len, self.ports), default=0))

    def degree(self, v: int) -> int:
        return len(self.ports[v])

    def traverse(self, v: int, p: int) -> tuple[int, int]:
        """Follow port ``p`` out of ``v``; returns (neighbor, entry port)."""
        table = self.ports[v]
        if not 0 <= p < len(table):
            raise GraphError(f"port {p} out of range at node {v} (degree {len(table)})")
        return table[p]

    @property
    def max_degree(self) -> int:
        return self._max_degree

    def edges(self) -> list[tuple[int, int]]:
        """Undirected edge list as (u, v) pairs with u < v, sorted: each edge
        listed from its lower endpoint, neighbors ascending per node."""
        return [(v, u) for v, table in enumerate(self.ports) for u, _ in sorted(table) if u > v]

    def validate(self) -> None:
        """Check every structural invariant; raises GraphError on failure."""
        n, ports = self.node_count, self.ports
        if n < 1:
            raise GraphError("graph must have at least one node")
        if len(ports) != n:
            raise GraphError("port table count does not match node count")
        # one walk: far ends lead back, no index is < 0, named_by catches repeats
        named_by = [-1] * n
        try:
            for v, table in enumerate(ports):
                p = 0
                for u, q in table:
                    w, r = ports[u][q]
                    if w != v or r != p or u == v or u < 0 or q < 0 or named_by[u] == v:
                        raise ValueError
                    named_by[u] = v
                    p += 1
        except (IndexError, ValueError):  # v broke: its first bad port, else a repeat
            for p, (u, q) in enumerate(ports[v]):
                if not 0 <= u < n:
                    raise GraphError(f"node {v} port {p} points at invalid node {u}") from None
                if u == v:
                    raise GraphError(f"self-loop at node {v} (port {p})") from None
                if not 0 <= q < len(ports[u]) or ports[u][q] != (v, p):
                    raise GraphError(
                        f"port involution broken: {v} --{p}--> {u} "
                        f"but node {u} port {q} does not return via port {p}"
                    ) from None
            raise GraphError(f"multi-edge at node {v}") from None
        degree_sum, twice_m = sum(map(len, ports)), 2 * self.edge_count
        if degree_sum != twice_m:
            raise GraphError(f"degree sum {degree_sum} does not equal 2*m = {twice_m}")
        # the involution holds: ports from node 0 reach its whole component
        reached, todo = bytearray(n), [0]
        reached[0] = 1
        for v in todo:
            for u, _ in ports[v]:
                if not reached[u]:
                    reached[u] = 1
                    todo.append(u)
        if len(todo) != n:
            raise GraphError("graph is not connected")


@dataclass(frozen=True, slots=True)
class InitialPlacement:
    """Start nodes for robots: entry i is the position of robot label i+1."""

    robot_positions: tuple[int, ...]

    @property
    def robot_count(self) -> int:
        return len(self.robot_positions)

    def validate(self, graph: PortLabeledGraph) -> None:
        k = len(self.robot_positions)
        if not 1 <= k <= graph.node_count:
            raise GraphError(
                f"robot count {k} must satisfy 1 <= k <= n = {graph.node_count}"
            )
        for i, v in enumerate(self.robot_positions):
            if not 0 <= v < graph.node_count:
                raise GraphError(f"robot {i + 1} placed at invalid node {v}")


def build_graph(
    edges: Sequence[tuple[int, int]],
    ports: str | Mapping[int, Sequence[int]] = "canonical",
    seed: int | None = None,
    node_count: int | None = None,
) -> PortLabeledGraph:
    """Build a port-labeled graph from a simple connected undirected edge list;
    every generated, parsed or relabeled graph is built here. Port assignment:

    * ``"canonical"``: each node's ports follow edge-list order, so the j-th
      edge incident to ``v`` in the given list gets port j at ``v``.
    * ``"random"``: one ``random.Random(seed)`` shuffles each node's canonical
      list in ascending node order; a neighbor's shuffled position is its port.
    * a mapping ``{node: [neighbors in port order]}``: listed nodes take that
      order (a permutation of their neighbors); the rest stay canonical.

    Rejects self-loops, duplicate edges, disconnected inputs, and malformed
    permutations with a diagnostic naming the offending node or edge.
    """
    cleaned = list(edges)
    n = max(map(max, cleaned), default=-1) + 1 if node_count is None else node_count
    try:
        if len(cleaned) < n - 1:
            # refused before anything is allocated per node
            raise GraphError("graph is not connected")
        reordered = ports == "random"
        if ports != "canonical":
            adjacency: list[Sequence[int]] = [[] for _ in range(n)]
            for u, v in cleaned:
                adjacency[u].append(v)
                adjacency[v].append(u)
            if reordered:
                rng = random.Random(seed)
                for adj in adjacency:
                    rng.shuffle(adj)
            elif isinstance(ports, Mapping):
                for v, order in ports.items():
                    if not 0 <= v < n:
                        raise GraphError(f"port permutation given for unknown node {v}")
                    if order != (adj := adjacency[v]):
                        # distinct neighbors: equal sizes and sets make a permutation
                        if len(order) != len(adj) or set(order) != set(adj):
                            raise GraphError(f"port permutation for node {v} is not a "
                                             f"permutation of its neighbors {sorted(adj)}")
                        adjacency[v], reordered = order, True
            else:
                raise GraphError(f"unknown port assignment {ports!r}")
        if reordered:
            # each node's port for each neighbor, then one lookup per port
            position = list(map(dict, map(zip, adjacency, repeat(range(n)))))
            tables = [[(u, position[u][v]) for u in adj] for v, adj in enumerate(adjacency)]
        else:
            # in edge-list order, each end's port is its count of edges so far
            tables = [[] for _ in range(n)]
            for u, v in cleaned:
                at_u, at_v = tables[u], tables[v]
                at_u.append((v, len(at_v)))
                at_v.append((u, len(at_u) - 1))
        graph = PortLabeledGraph(n, len(cleaned), tuple(map(tuple, tables)))
        graph.validate()
    except (GraphError, IndexError, KeyError):
        # a bad edge breaks a step above: name the first, ahead of any other fault
        seen: set[tuple[int, int]] = set()
        for u, v in cleaned:
            if u == v:
                raise GraphError(f"self-loop on node {u}") from None
            key = (u, v) if u < v else (v, u)
            if key[0] < 0:
                raise GraphError(f"negative node index in edge ({u},{v})") from None
            if key in seen:
                raise GraphError(f"duplicate edge ({u},{v})") from None
            seen.add(key)
        if n < 1:
            raise GraphError("graph must have at least one node") from None
        if max(map(max, cleaned), default=-1) >= n:
            top = max(map(max, cleaned))
            raise GraphError(f"edge endpoint {top} exceeds node count {n}") from None
        raise
    return graph


def _grid_dimensions(n: int) -> tuple[int, int]:
    rows = next(d for d in range(math.isqrt(n), 0, -1) if n % d == 0)
    return rows, n // rows


def _gnm_edges(n: int, m: int, rng: random.Random) -> list[tuple[int, int]]:
    # sample indices into the lexicographic list of all pairs without
    # building it: random.sample picks the same indices from a range as from
    # a list of the same length
    total = n * (n - 1) // 2
    for _ in range(DEFAULT_GNM_RETRIES):
        chosen = [_pair_at(n, i) for i in rng.sample(range(total), m)]
        if _edges_connected(n, chosen):
            return chosen
    raise GraphError(
        f"could not sample a connected graph with n={n}, m={m} "
        f"within {DEFAULT_GNM_RETRIES} retries"
    )


def _pair_at(n: int, i: int) -> tuple[int, int]:
    """Pair i, (u, v) with u < v, of the lexicographic list of all pairs of
    n nodes."""
    # r places before the end, in the row of u = n-2-t, which holds t+1 pairs
    r = n * (n - 1) // 2 - 1 - i
    t = (math.isqrt(8 * r + 1) - 1) // 2
    return n - 2 - t, n - 1 - r + t * (t + 1) // 2


def _edges_connected(n: int, edges: Iterable[tuple[int, int]]) -> bool:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = n
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            components -= 1
    return components == 1


def generate(
    family: str,
    n: int,
    m: int | None = None,
    seed: int | None = None,
    ports: str = "canonical",
) -> PortLabeledGraph:
    """Generate a connected graph of a named family, deterministic per seed.

    Families: line, ring (n >= 3), complete, random_tree, grid (rows x cols
    with rows the largest divisor of n at most sqrt(n)), gnm (requires
    n-1 <= m <= n(n-1)/2; rejection-samples edge sets until connected).
    """
    if n < 1:
        raise GraphError(f"family {family!r} needs n >= 1, got {n}")
    rng = random.Random(seed)
    if family == "line":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif family == "ring":
        if n < 3:
            raise GraphError(f"ring needs n >= 3, got {n}")
        edges = [(i, (i + 1) % n) for i in range(n)]
    elif family == "complete":
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    elif family == "random_tree":
        # random recursive tree: node v >= 1 attaches to a uniform earlier node
        edges = [(rng.randrange(v), v) for v in range(1, n)]
    elif family == "grid":
        rows, cols = _grid_dimensions(n)
        edges = []
        for r in range(rows):
            for c in range(cols):
                v = r * cols + c
                if c + 1 < cols:
                    edges.append((v, v + 1))
                if r + 1 < rows:
                    edges.append((v, v + cols))
    elif family == "gnm":
        if m is None:
            raise GraphError("gnm requires an edge count m")
        if not n - 1 <= m <= n * (n - 1) // 2:
            raise GraphError(
                f"gnm needs n-1 <= m <= n(n-1)/2; got n={n}, m={m}"
            )
        edges = _gnm_edges(n, m, rng)
    else:
        raise GraphError(f"unknown graph family {family!r}")
    if m is not None and family != "gnm" and m != len(edges):
        raise GraphError(f"family {family!r} with n={n} has m={len(edges)}, not {m}")
    return build_graph(edges, ports=ports, seed=seed, node_count=n)


def relabel_nodes(g: PortLabeledGraph, permutation: Sequence[int]) -> PortLabeledGraph:
    """Apply a node permutation, preserving every port number.

    ``permutation[v]`` is the new index of old node ``v``.  Used to audit
    that algorithms never read node identity.
    """
    if sorted(permutation) != list(range(g.node_count)):
        raise GraphError("relabeling must be a permutation of all nodes")
    edges = [(permutation[u], permutation[v]) for u, v in g.edges()]
    orders = {permutation[v]: [permutation[u] for u, _ in t] for v, t in enumerate(g.ports)}
    return build_graph(edges, ports=orders, node_count=g.node_count)


def graph_to_text(g: PortLabeledGraph) -> str:
    """Serialize: `n m`, then m edge lines `u v`, then per-node port lines.

    Port lines read `v: p->neighbor ...` with ports ascending; they make the
    port assignment explicit so a round trip is exact.
    """
    lines = [f"{g.node_count} {g.edge_count}"]
    lines.extend([f"{u} {v}" for u, v in g.edges()])
    # one %-format per degree: "%d: 0->%d 1->%d ..."
    formats: dict[int, str] = {}
    for v, table in enumerate(g.ports):
        fmt = formats.get(len(table))
        if fmt is None:
            fmt = formats[len(table)] = "%d:" + "".join(f" {p}->%d" for p in range(len(table)))
        lines.append(fmt % (v, *[u for u, _ in table]))
    return "\n".join(lines) + "\n"


def _int(token: str, line: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise GraphError(f"bad integer {token!r} in line {line!r}") from None


def graph_from_text(text: str) -> PortLabeledGraph:
    """Parse the `graph_to_text` format; a missing port block means canonical."""
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln]
    if not lines:
        raise GraphError("empty graph file")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphError(f"header must be 'n m', got {lines[0]!r}")
    n, m = _int(head[0], lines[0]), _int(head[1], lines[0])
    if n < 0 or m < 0:
        raise GraphError(f"negative count in header {lines[0]!r}")
    if len(lines) < 1 + m:
        raise GraphError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    try:
        for ln in lines[1 : 1 + m]:
            u, v = ln.split()
            edges.append((int(u), int(v)))
    except ValueError:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"bad edge line {ln!r}") from None
        for token in parts:
            _int(token, ln)
        raise
    port_spec: dict[int, list[int]] = {}
    try:
        for ln in lines[1 + m :]:
            node_part, colon, rest = ln.partition(":")
            if not colon:
                raise GraphError(f"bad port line {ln!r}")
            v = int(node_part)
            if v in port_spec:
                raise GraphError(f"second port line for node {v}: {ln!r}")
            order = []
            for p, token in enumerate(rest.split()):
                p_str, sep, u_str = token.partition("->")
                if not sep:
                    raise GraphError(f"bad port entry {token!r} on node {v}")
                if int(p_str) != p:
                    raise GraphError(f"ports for node {v} must be listed in order")
                order.append(int(u_str))
            port_spec[v] = order
    except GraphError:
        raise
    except ValueError:
        # name the first token that is not an integer, in reading order
        for token in [node_part, *(t for e in rest.split() for t in e.partition("->")[::2])]:
            _int(token, ln)
        raise
    ports: str | dict[int, list[int]] = port_spec if port_spec else "canonical"
    return build_graph(edges, ports=ports, node_count=n)
