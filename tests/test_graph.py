import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qblock.errors import DuplicateEdgeError, ParseError, SelfLoopError, UnknownVertexError
from qblock.graph import (
    ColoredGraph,
    complement,
    connected_components,
    induced_subgraph,
    is_connected,
    make_graph,
    parse_graph,
    relabel,
    render_graph,
)

from helpers import C4, complete_graph, cycle_graph, path_graph, rand_connected_graph


def test_make_graph_normalizes_edges():
    g = make_graph(3, [(2, 0), (1, 2)])
    assert g.edges == frozenset({(0, 2), (1, 2)})
    assert g.colors == (0, 0, 0)
    assert g.m == 2
    assert g.adjacency[2] == frozenset({0, 1})
    assert g.degree(2) == 2 and g.degree(1) == 1
    assert g.has_edge(0, 2) and g.has_edge(2, 0) and not g.has_edge(0, 1)


def test_edgelist_roundtrip():
    g = make_graph(5, [(0, 1), (1, 2), (3, 4)], {1: 2, 4: 1})
    assert parse_graph(render_graph(g)) == g


def test_edgelist_parsing_details():
    text = "# a comment\n3 2\n0 1\nc 2 5\n\n1 2\n"
    g = parse_graph(text)
    assert g.n == 3 and g.edges == frozenset({(0, 1), (1, 2)})
    assert g.colors == (0, 0, 5)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "3\n0 1\n",
        "2 1\n0 0\n",
        "2 1\n0 1\n0 1\n",
        "2 1\n0 2\n",
        "2 2\n0 1\n",
        "2 0\nc 5 1\n",
        "x y\n",
    ],
)
def test_edgelist_rejects_bad_input(text):
    with pytest.raises(ParseError):
        parse_graph(text)


def test_edgelist_self_loop_and_duplicate_are_specific():
    with pytest.raises(SelfLoopError):
        parse_graph("2 1\n1 1\n")
    with pytest.raises(DuplicateEdgeError):
        parse_graph("2 2\n0 1\n1 0\n")


def _graph6_encode(g: ColoredGraph) -> str:
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(g.n + 63)]
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i : i + 6]:
            val = (val << 1) | b
        chars.append(chr(val + 63))
    return "".join(chars)


def test_graph6_examples():
    assert parse_graph(_graph6_encode(C4), "graph6") == C4
    assert parse_graph(">>graph6<<" + _graph6_encode(C4), "graph6") == C4
    k4 = complete_graph(4)
    assert _graph6_encode(k4) == "C~"
    assert parse_graph("C~", "graph6") == k4


def test_graph6_random_roundtrip():
    rng = random.Random(7)
    for _ in range(25):
        g = rand_connected_graph(rng, rng.randint(1, 12))
        assert parse_graph(_graph6_encode(g), "graph6") == g


def test_graph6_rejects_garbage():
    with pytest.raises(ParseError):
        parse_graph("", "graph6")
    with pytest.raises(ParseError):
        parse_graph("C\x01", "graph6")
    with pytest.raises(ParseError):
        parse_graph("E", "graph6")  # truncated body


def test_complement_examples():
    assert complement(C4) == make_graph(4, [(0, 2), (1, 3)])
    assert complement(complete_graph(4)) == make_graph(4, [])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8), st.integers(0, 2**28 - 1))
def test_complement_involution(n, seed):
    rng = random.Random(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [e for e in pairs if rng.random() < 0.5]
    g = make_graph(n, edges)
    h = complement(g)
    assert complement(h) == g
    assert g.m + h.m == n * (n - 1) // 2


def test_induced_subgraph():
    sub, rel = induced_subgraph(C4, [1, 2, 3])
    assert rel == {1: 0, 2: 1, 3: 2}
    assert sub == make_graph(3, [(0, 1), (1, 2)])
    colored = make_graph(3, [(0, 1)], {0: 4, 2: 9})
    sub2, rel2 = induced_subgraph(colored, [0, 2])
    assert sub2.colors == (4, 9) and sub2.m == 0 and rel2 == {0: 0, 2: 1}
    assert induced_subgraph(C4, iter([3, 1, 2])) == (sub, rel)
    with pytest.raises(UnknownVertexError):
        induced_subgraph(C4, iter([1, 1]))


def test_connected_components():
    g = make_graph(6, [(0, 1), (2, 3), (3, 4)])
    assert connected_components(g) == [(0, 1), (2, 3, 4), (5,)]
    assert not is_connected(g)
    assert is_connected(path_graph(4))
    assert connected_components(make_graph(0, [])) == []


def test_relabel():
    g = make_graph(3, [(0, 1)], {0: 7})
    h = relabel(g, [2, 0, 1])  # v -> perm[v]
    assert h == make_graph(3, [(0, 2)], {2: 7})


def test_relabel_preserves_structure_randomly():
    rng = random.Random(11)
    for _ in range(20):
        g = rand_connected_graph(rng, rng.randint(2, 9))
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        assert h.m == g.m
        assert sorted(h.colors) == sorted(g.colors)
        for u, v in g.edges:
            assert h.has_edge(perm[u], perm[v])
    assert relabel(cycle_graph(5), [0, 1, 2, 3, 4]) == cycle_graph(5)
