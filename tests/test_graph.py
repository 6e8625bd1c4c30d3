from __future__ import annotations

import hashlib
import random
import tracemalloc
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispersim.graph import (
    GraphError,
    InitialPlacement,
    PortLabeledGraph,
    _edges_connected,
    _gnm_edges,
    _grid_dimensions,
    _pair_at,
    build_graph,
    generate,
    graph_from_text,
    graph_to_text,
    relabel_nodes,
)

TRIANGLE = [(0, 1), (0, 2), (1, 2)]


def test_single_edge_canonical():
    g = build_graph([(0, 1)])
    assert g.node_count == 2
    assert g.edge_count == 1
    assert g.traverse(0, 0) == (1, 0)
    assert g.traverse(1, 0) == (0, 0)


def test_triangle_canonical_ports_and_involution():
    g = build_graph(TRIANGLE)
    for v in range(3):
        assert g.degree(v) == 2
        for p in range(2):
            u, q = g.traverse(v, p)
            assert g.traverse(u, q) == (v, p)


def test_triangle_seeded_ports_match_reference_shuffle():
    # independent re-implementation of the documented procedure: canonical
    # adjacency in edge-list order, one Random(seed) shuffling each node's
    # list in ascending node order, entry ports from the shuffled positions
    g = build_graph(TRIANGLE, ports="random", seed=7)
    adjacency = {0: [1, 2], 1: [0, 2], 2: [0, 1]}
    rng = random.Random(7)
    for v in range(3):
        rng.shuffle(adjacency[v])
    expected = tuple(
        tuple((u, adjacency[u].index(v)) for u in adjacency[v]) for v in range(3)
    )
    assert g.ports == expected


def test_explicit_port_permutation():
    g = build_graph(TRIANGLE, ports={0: [2, 1]})
    assert g.traverse(0, 0) == (2, 0)
    assert g.traverse(0, 1) == (1, 0)
    g.validate()


def test_line_generator_degrees():
    g = generate("line", 5)
    assert g.edge_count == 4
    assert [g.degree(v) for v in range(5)] == [1, 2, 2, 2, 1]


def test_ring_generator_degrees():
    g = generate("ring", 4)
    assert g.edge_count == 4
    assert all(g.degree(v) == 2 for v in range(4))


def test_stored_max_degree_stays_out_of_equality_repr_and_constructor():
    g = generate("grid", 16, seed=1, ports="random")
    assert g.max_degree == max(map(len, g.ports)) == 4
    same = PortLabeledGraph(g.node_count, g.edge_count, g.ports)
    assert same == g and hash(same) == hash(g) and repr(same) == repr(g)
    assert repr(g).endswith(f"ports={g.ports!r})")
    assert [f.name for f in fields(PortLabeledGraph) if f.init] == ["node_count", "edge_count", "ports"]
    # a property, so that a timing wrapper can wrap its getter
    assert isinstance(PortLabeledGraph.__dict__["max_degree"], property)


def test_line3_traverse_example():
    g = generate("line", 3)
    assert g.traverse(0, 0) == (1, 0)


def test_gnm_deterministic_for_seed():
    a = generate("gnm", 10, 20, seed=3)
    b = generate("gnm", 10, 20, seed=3)
    assert a.ports == b.ports
    assert a.edge_count == 20


def test_random_tree_and_grid_are_connected():
    for seed in range(5):
        t = generate("random_tree", 12, seed=seed)
        assert t.edge_count == 11
        t.validate()
    g = generate("grid", 12)
    assert g.edge_count == 3 * 3 + 4 * 2  # 3x4 grid
    g.validate()


def test_grid_rows_are_the_largest_divisor_at_most_sqrt_n():
    for n in range(1, 5001):
        rows = max(d for d in range(1, int(n**0.5) + 2) if d * d <= n and n % d == 0)
        assert _grid_dimensions(n) == (rows, n // rows)


def _reference_gnm_edges(n, m, rng, retries):
    """The pair-list sampler _gnm_edges replaced: builds all n(n-1)/2 pairs."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for _ in range(retries):
        chosen = rng.sample(pairs, m)
        if _edges_connected(n, chosen):
            return chosen
    raise GraphError("no connected sample")


def test_pair_index_decodes_the_lexicographic_pair_list():
    for n in (2, 3, 4, 7, 31):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        assert [_pair_at(n, i) for i in range(len(pairs))] == pairs


def test_gnm_edges_match_the_pair_list_sampler():
    rng = random.Random(5)
    # n = 2, near-trees, complete graphs, then random sizes dense enough
    # for rejection sampling to find a connected edge set
    cases = [(2, 1, 0), (3, 2, 1), (4, 3, 2), (6, 15, 3), (12, 66, 4)]
    for _ in range(60):
        n = rng.randint(2, 30)
        total = n * (n - 1) // 2
        cases.append((n, rng.randint(min(2 * n, total), total), rng.randrange(1 << 30)))
    for n, m, seed in cases:
        expected = _reference_gnm_edges(n, m, random.Random(seed), 1000)
        assert _gnm_edges(n, m, random.Random(seed)) == expected


@pytest.mark.parametrize(
    "edges,message",
    [
        ([(0, 0)], "self-loop"),
        ([(0, 1), (1, 0)], "duplicate"),
        ([(0, 1), (2, 3)], "not connected"),
    ],
)
def test_build_graph_rejects_bad_edges(edges, message):
    with pytest.raises(GraphError, match=message):
        build_graph(edges)


def test_build_graph_rejects_malformed_permutation():
    with pytest.raises(GraphError, match="node 0"):
        build_graph(TRIANGLE, ports={0: [1, 1]})
    with pytest.raises(GraphError, match="node 5"):
        build_graph(TRIANGLE, ports={5: [0]})


def test_generate_rejects_infeasible_params():
    with pytest.raises(GraphError):
        generate("gnm", 5, 3)  # below n-1
    with pytest.raises(GraphError):
        generate("gnm", 5, 11)  # above n(n-1)/2
    with pytest.raises(GraphError):
        generate("ring", 2)
    with pytest.raises(GraphError):
        generate("hypercube", 8)


def test_out_of_range_port_is_contract_violation():
    g = generate("line", 3)
    with pytest.raises(GraphError):
        g.traverse(0, 1)


def test_text_round_trip_preserves_ports():
    g = build_graph(TRIANGLE, ports="random", seed=11)
    again = graph_from_text(graph_to_text(g))
    assert again.ports == g.ports


def test_text_without_port_block_is_canonical():
    text = "3 3\n0 1\n0 2\n1 2\n"
    g = graph_from_text(text)
    assert g.ports == build_graph(TRIANGLE).ports


def test_text_rejects_malformed_input():
    with pytest.raises(GraphError):
        graph_from_text("")
    with pytest.raises(GraphError):
        graph_from_text("2\n0 1\n")
    with pytest.raises(GraphError):
        graph_from_text("2 1\n0 1\n0: 1->x\n")


@pytest.mark.parametrize("header", ["3 -1", "-3 2"])
def test_text_rejects_a_negative_count_in_the_header(header):
    with pytest.raises(GraphError, match=f"negative count in header '{header}'"):
        graph_from_text(f"{header}\n0 1\n1 2\n")


def test_too_few_edges_are_refused_before_any_per_node_allocation():
    tracemalloc.start()
    try:
        with pytest.raises(GraphError, match="not connected"):
            graph_from_text("100000 0\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_text_rejects_a_second_port_line_for_a_node():
    text = "3 3\n0 1\n0 2\n1 2\n0: 0->1 1->2\n0: 0->2 1->1\n"
    with pytest.raises(GraphError, match="second port line for node 0"):
        graph_from_text(text)


# sha256 of graph_to_text for graphs at benchmark size, recorded before the
# codec was rewritten without per-edge builtin calls
CODEC_DIGESTS = {
    ("grid", 4096, None): "3c7ec5c8c9fa7776c26ceaebafdd804caacfeb8c5f97709aeeacd95862c3c059",
    ("gnm", 1500, 6000): "bd9e5ccd9b7ae710c964352204010f28125925df808a08ff19633a1ef481163b",
    ("random_tree", 2000, None): "14b315637cd155866331acfd0d0382d5c966ae7fd1770d4453b4e3c77f5b22a7",
}


@pytest.mark.parametrize("family,n,m", list(CODEC_DIGESTS), ids=lambda x: str(x))
def test_codec_at_benchmark_size_is_pinned(family, n, m):
    g = generate(family, n, m, seed=1, ports="random")
    text = graph_to_text(g)
    assert hashlib.sha256(text.encode()).hexdigest() == CODEC_DIGESTS[family, n, m]
    assert graph_from_text(text).ports == g.ports
    reference = {(min(u, v), max(u, v)) for v, table in enumerate(g.ports) for u, _ in table}
    assert g.edges() == sorted(reference)


@pytest.mark.parametrize(
    "text,node",
    [
        ("3 2\n0 1\n1 2\n0: 0->2\n", 0),
        ("3 3\n0 1\n0 2\n1 2\n1: 0->0 1->0\n", 1),
        ("3 3\n0 1\n0 2\n1 2\n2: 0->1\n", 2),
        ("3 2\n0 1\n1 2\n3: 0->1\n", 3),
        ("3 2\n0 1\n1 2\n-1: 0->1\n", -1),
        ("3 3\n0 1\n1 2\n0 2\n0: 0->1 1->2\n1: 0->0\n2: 0->0\n", 1),
    ],
    ids=[
        "not-a-neighbor",
        "neighbor-twice",
        "short-line",
        "node-out-of-range",
        "negative-node",
        "edge-missing-from-port-block",
    ],
)
def test_text_rejects_a_port_line_that_disagrees_with_the_edges(text, node):
    with pytest.raises(GraphError, match=rf"node {node}\b"):
        graph_from_text(text)


@pytest.mark.parametrize(
    "text,line",
    [
        ("3 x\n", "3 x"),
        ("3 2\n0 1\n1 y\n", "1 y"),
        ("3 2\n0 1\n1 2\nz: 0->1\n", "z: 0->1"),
        ("3 2\n0 1\n1 2\n1: 0->0 q->2\n", "1: 0->0 q->2"),
        ("3 2\n0 1\n1 2\n1: 0->0 1->w\n", "1: 0->0 1->w"),
    ],
    ids=["header", "edge", "node", "port", "neighbor"],
)
def test_text_names_the_line_of_a_non_integer_token(text, line):
    with pytest.raises(GraphError, match=f"in line '{line}'"):
        graph_from_text(text)


# expected tables recorded before port tables were built in one pass
@pytest.mark.parametrize(
    "text,ports",
    [
        (
            "4 4\n2 3\n1 0\n3 0\n1 2\n",
            (((1, 0), (3, 1)), ((0, 0), (2, 1)), ((3, 0), (1, 1)), ((2, 0), (0, 1))),
        ),
        (
            "4 4\n2 3\n1 0\n3 0\n1 2\n3: 0->0 1->2\n",
            (((1, 0), (3, 0)), ((0, 0), (2, 1)), ((3, 1), (1, 1)), ((0, 1), (2, 0))),
        ),
        (
            "6 7\n4 5\n0 3\n2 1\n5 0\n3 4\n1 0\n2 5\n1: 0->2 1->0\n5: 0->0 1->4 2->2\n",
            (
                ((3, 0), (5, 0), (1, 1)),
                ((2, 0), (0, 2)),
                ((1, 0), (5, 2)),
                ((0, 0), (4, 1)),
                ((5, 1), (3, 1)),
                ((0, 1), (4, 0), (2, 1)),
            ),
        ),
    ],
    ids=["edges-out-of-order", "partial-port-block", "partial-block-out-of-order"],
)
def test_text_that_graph_to_text_never_writes(text, ports):
    assert graph_from_text(text).ports == ports


def _tables(*tables):
    return tuple(tuple(t) for t in tables)


def _involution_broken(v, p, u, q):
    return (
        f"port involution broken: {v} --{p}--> {u} "
        f"but node {u} port {q} does not return via port {p}"
    )


# one hand-built table per diagnostic, then pairs of faults where the one
# checked first must be named
@pytest.mark.parametrize(
    "n,m,ports,message",
    [
        (0, 0, (), "graph must have at least one node"),
        (2, 1, _tables([(1, 0)]), "port table count does not match node count"),
        (2, 1, _tables([(-1, 0)], [(0, 0)]), "node 0 port 0 points at invalid node -1"),
        (2, 1, _tables([(2, 0)], [(0, 0)]), "node 0 port 0 points at invalid node 2"),
        (2, 1, _tables([(0, 0)], [(0, 0)]), "self-loop at node 0 (port 0)"),
        (2, 1, _tables([(1, 0)], [(0, 1)]), _involution_broken(0, 0, 1, 0)),
        (2, 1, _tables([(1, 1)], [(0, 0)]), _involution_broken(0, 0, 1, 1)),
        (2, 1, _tables([(1, -1)], [(0, 0)]), _involution_broken(0, 0, 1, -1)),
        (2, 2, _tables([(1, 0), (1, 1)], [(0, 0), (0, 1)]), "multi-edge at node 0"),
        (2, 2, _tables([(1, 0)], [(0, 0)]), "degree sum 2 does not equal 2*m = 4"),
        (4, 2, _tables([(1, 0)], [(0, 0)], [(3, 0)], [(2, 0)]), "graph is not connected"),
        (3, 2, _tables([(1, 0), (1, 1)], [(0, 0), (0, 1)], [(5, 0)]), "multi-edge at node 0"),
        (
            3, 3, _tables([(1, 0), (2, 0)], [(0, 0), (0, 0)], [(0, 1)]),
            _involution_broken(1, 1, 0, 0),
        ),
        (3, 9, _tables([(1, 0)], [(0, 0)], [(2, 0)]), "self-loop at node 2 (port 0)"),
        (
            4, 5, _tables([(1, 0)], [(0, 0)], [(3, 0)], [(2, 0)]),
            "degree sum 4 does not equal 2*m = 10",
        ),
    ],
    ids=[
        "no-nodes",
        "table-count",
        "negative-neighbor",
        "neighbor-past-n",
        "self-loop",
        "broken-involution",
        "entry-port-past-degree",
        "negative-entry-port",
        "multi-edge",
        "degree-sum",
        "disconnected",
        "node-order-wins",
        "port-order-wins",
        "entries-before-degree-sum",
        "degree-sum-before-connectivity",
    ],
)
def test_validate_names_the_first_broken_invariant(n, m, ports, message):
    with pytest.raises(GraphError) as err:
        PortLabeledGraph(n, m, ports).validate()
    assert str(err.value) == message


def test_relabel_preserves_port_structure():
    g = build_graph(TRIANGLE, ports="random", seed=5)
    perm = [2, 0, 1]
    h = relabel_nodes(g, perm)
    h.validate()
    for v in range(3):
        for p in range(g.degree(v)):
            u, q = g.traverse(v, p)
            assert h.traverse(perm[v], p) == (perm[u], q)


def test_placement_validation():
    g = generate("line", 3)
    with pytest.raises(GraphError, match="1 <= k <= n"):
        InitialPlacement((0,) * 4).validate(g)
    with pytest.raises(GraphError, match="invalid node"):
        InitialPlacement((0, 5)).validate(g)
    InitialPlacement((0, 0, 2)).validate(g)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(["line", "ring", "complete", "random_tree", "grid"]),
    n=st.integers(min_value=1, max_value=24),
    seed=st.integers(min_value=0, max_value=10**6),
    randomize_ports=st.booleans(),
)
def test_generated_graphs_satisfy_invariants(family, n, seed, randomize_ports):
    if family == "ring" and n < 3:
        n += 3
    ports = "random" if randomize_ports else "canonical"
    g = generate(family, n, seed=seed, ports=ports)
    g.validate()
    assert sum(g.degree(v) for v in range(g.node_count)) == 2 * g.edge_count
    for v in range(g.node_count):
        for p in range(g.degree(v)):
            u, q = g.traverse(v, p)
            assert g.traverse(u, q) == (v, p)
    # pure function of (family, params, seed)
    assert generate(family, n, seed=seed, ports=ports).ports == g.ports


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=4, max_value=14),
    extra=st.integers(min_value=2, max_value=12),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_gnm_graphs_satisfy_invariants(n, extra, seed):
    m = min(n - 1 + extra, n * (n - 1) // 2)
    g = generate("gnm", n, m, seed=seed)
    g.validate()
    assert g.node_count == n
    assert g.edge_count == m


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(["line", "ring", "complete", "random_tree", "grid", "gnm"]),
    n=st.integers(min_value=1, max_value=24),
    seed=st.integers(min_value=0, max_value=10**6),
    ports=st.sampled_from(["canonical", "random"]),
)
def test_text_round_trip_for_every_family_and_port_mode(family, n, seed, ports):
    if family == "ring" and n < 3:
        n += 3
    m = min(2 * n, n * (n - 1) // 2) if family == "gnm" else None
    g = generate(family, n, m, seed=seed, ports=ports)
    assert graph_from_text(graph_to_text(g)).ports == g.ports
