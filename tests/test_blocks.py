import random

import pytest

from qblock.blocks import (
    biconnected_components,
    block_tree,
    child_blocks,
    child_cut_vertices,
    cut_vertices,
    subgraph_below,
    subtree_vertices,
)
from qblock.graph import make_graph

from helpers import (
    BOWTIE,
    C4,
    blocks_oracle,
    complete_graph,
    cycle_graph,
    path_graph,
    rand_block_graph,
    rand_connected_graph,
    rand_outerplanar,
)


def test_cut_vertices_examples():
    assert cut_vertices(path_graph(3)) == (1,)
    assert cut_vertices(C4) == ()
    assert cut_vertices(BOWTIE) == (2,)
    assert cut_vertices(make_graph(1, [])) == ()


def test_biconnected_components_examples():
    assert biconnected_components(path_graph(3)) == [(0, 1), (1, 2)]
    assert biconnected_components(C4) == [(0, 1, 2, 3)]
    assert biconnected_components(BOWTIE) == [(0, 1, 2), (2, 3, 4)]
    # isolated vertices carry no edge, hence no block
    assert biconnected_components(make_graph(1, [])) == []


def test_block_tree_path():
    t = block_tree(path_graph(5))
    assert len(t.blocks) == 4 and set(t.cuts) == {1, 2, 3}
    assert t.center == ("c", 2)
    assert t.parent[t.center] is None
    for node in t.nodes():
        if node != t.center:
            assert t.level[node] < t.level[t.center]
            assert t.parent[node] is not None
    # parity: blocks even, cuts odd
    for node in t.nodes():
        assert t.level[node] % 2 == (0 if node[0] == "b" else 1)


def test_block_tree_bowtie_and_p4():
    tb = block_tree(BOWTIE)
    assert tb.center == ("c", 2)
    assert len(tb.blocks) == 2
    assert sorted(child_blocks(tb, 2)) == [0, 1]
    tp = block_tree(path_graph(4))
    assert tp.center[0] == "b"
    assert tp.blocks[tp.center[1]] == (1, 2)
    assert sorted(child_cut_vertices(tp, tp.center[1])) == [1, 2]


def test_children_match_the_parent_scan():
    rng = random.Random(43)
    graphs = [rand_connected_graph(rng, rng.randint(1, 9)) for _ in range(20)]
    graphs += [rand_outerplanar(rng, 30) for _ in range(20)]
    graphs += [rand_block_graph(rng, 30) for _ in range(20)]
    for g in graphs:
        t = block_tree(g)
        for node in t.nodes():
            scan = sorted(nd for nd, p in t.parent.items() if p == node)
            assert t.children(node) == scan


def test_block_tree_single_vertex_and_single_block():
    t1 = block_tree(make_graph(1, []))
    assert t1.blocks == ((0,),) and t1.cuts == () and t1.center == ("b", 0)
    tc = block_tree(cycle_graph(5))
    assert tc.center == ("b", 0) and tc.cuts == ()


def test_subtree_and_subgraph_below():
    t = block_tree(BOWTIE)
    left = next(
        ("b", i) for i, blk in enumerate(t.blocks) if blk == (0, 1, 2)
    )
    assert subtree_vertices(t, left) == (0, 1, 2)
    rg, rel = subgraph_below(BOWTIE, t, left)
    assert rg.graph == complete_graph(3)
    assert rg.root is None  # block nodes are unrooted
    assert rel[2] in range(3)
    # cut nodes root at the cut vertex
    rg_cut, rel_cut = subgraph_below(BOWTIE, t, ("c", 2))
    assert rg_cut.root == rel_cut[2]
    assert rg_cut.graph.n == 5
    # below the center: the whole graph, unrooted
    rg_all, _ = subgraph_below(BOWTIE, t, t.center)
    assert rg_all.graph.n == 5 and rg_all.graph.m == BOWTIE.m


def test_center_is_below_everything():
    rng = random.Random(23)
    for _ in range(30):
        g = rand_connected_graph(rng, rng.randint(1, 9))
        t = block_tree(g)
        rg, _ = subgraph_below(g, t, t.center)
        assert rg.graph.n == g.n and rg.graph.m == g.m
        if t.center[0] == "b":
            assert rg.root is None


def test_levels_increase_toward_center():
    rng = random.Random(29)
    for _ in range(30):
        g = rand_connected_graph(rng, rng.randint(2, 9))
        t = block_tree(g)
        levels = [t.level[node] for node in t.nodes()]
        assert levels.count(max(levels)) == 1  # unique center
        for node in t.nodes():
            parent = t.parent[node]
            if parent is not None:
                assert t.level[parent] > t.level[node]
                assert abs(t.level[parent] - t.level[node]) % 2 == 1


def test_matches_definitional_oracle():
    rng = random.Random(31)
    for _ in range(60):
        g = rand_connected_graph(rng, rng.randint(2, 9))
        mine = sorted(biconnected_components(g))
        oracle = sorted(blocks_oracle(g))
        assert mine == oracle
        # cut vertices = vertices in >= 2 blocks
        counts: dict[int, int] = {}
        for blk in mine:
            for v in blk:
                counts[v] = counts.get(v, 0) + 1
        assert set(cut_vertices(g)) == {v for v, c in counts.items() if c >= 2}


def test_every_edge_in_exactly_one_block():
    rng = random.Random(37)
    for _ in range(30):
        g = rand_connected_graph(rng, rng.randint(2, 9))
        blocks = biconnected_components(g)
        for u, v in g.edges:
            homes = [b for b in blocks if u in b and v in b]
            assert len(homes) == 1


def test_block_tree_requires_connected():
    from qblock.errors import NotConnectedError

    with pytest.raises(NotConnectedError):
        block_tree(make_graph(4, [(0, 1), (2, 3)]))
