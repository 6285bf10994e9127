import json
import random
import sys
from math import factorial, prod

import pytest

import qblock.blocks
import qblock.canon
import qblock.classrec
import qblock.engine
import qblock.graph
from qblock.blocks import biconnected_components, block_tree
from qblock.classrec import GraphClass, classify
from qblock.engine import (
    has_quantum_symmetry,
    qut,
    qut_block_atom,
    qut_central_block,
    qut_central_cut,
    qut_connected,
    qut_rooted_block,
    qut_rooted_cut,
)
from qblock.errors import (
    ClassRefusedError,
    NotConnectedError,
    UnsupportedBlockError,
)
from qblock.graph import make_graph, relabel
from qblock.qexpr import (
    TRIVIAL,
    Classical,
    FreeProduct,
    FreeWreath,
    InhomFreeWreath,
    SymQ,
    classical_shadow_order,
    free_product,
    free_wreath,
    is_classical,
    normalize,
    render,
    symq,
)

from helpers import (
    BOWTIE,
    C4,
    DIAMOND,
    W5,
    brute_aut_order,
    complete_graph,
    cycle_graph,
    free_trees,
    hexagon_chain,
    path_graph,
    rand_block_graph,
    rand_outerplanar,
    rand_outerplanar_block,
    rand_permutation,
    ref_json_obj,
    star_graph,
)

CHORDED_C5 = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])


def _walk(e):
    yield e
    if isinstance(e, FreeProduct):
        for f in e.factors:
            yield from _walk(f)
    elif isinstance(e, FreeWreath):
        yield from _walk(e.inner)
        yield from _walk(e.outer)
    elif isinstance(e, InhomFreeWreath):
        for f, _ in e.factors:
            yield from _walk(f)
        yield from _walk(e.base)


# -- golden atoms and small graphs --------------------------------------------


def test_golden_c4_and_diamond():
    assert qut(C4).expr == FreeWreath(SymQ(2), SymQ(2))
    assert qut(DIAMOND).expr == FreeProduct((SymQ(2), SymQ(2)))


def test_complete_graphs():
    assert qut(complete_graph(5)).expr == SymQ(5)
    assert qut(complete_graph(3)).expr == SymQ(3)
    assert qut(make_graph(2, [(0, 1)])).expr == SymQ(2)
    assert qut(make_graph(1, [])).expr == TRIVIAL


def test_paths_and_stars():
    assert qut(path_graph(4)).expr == SymQ(2)
    assert qut(path_graph(5)).expr == SymQ(2)
    assert qut(star_graph(3)).expr == SymQ(3)
    assert qut(star_graph(4)).expr == SymQ(4)
    assert qut(path_graph(2)).expr == SymQ(2)
    assert qut(path_graph(3)).expr == SymQ(2)


def test_cycles():
    assert render(qut(cycle_graph(5)).expr) == "D_5"
    assert render(qut(cycle_graph(7)).expr) == "D_7"
    assert qut(cycle_graph(3)).expr == SymQ(3)


def test_chorded_cycle():
    res = qut(CHORDED_C5)
    assert isinstance(res.expr, Classical)
    assert res.expr.group.order == 2
    assert render(res.expr) == "Z_2"


def test_bowtie_and_block_forest_coincidence():
    expr = qut(BOWTIE).expr
    assert expr == FreeWreath(SymQ(2), SymQ(2))
    # the tree with the same block-tree shape: center with two doubled legs
    doubled = make_graph(
        7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]
    )
    assert qut(doubled).expr == expr


def test_disjoint_unions():
    two_k2 = make_graph(4, [(0, 1), (2, 3)])
    assert qut(two_k2).expr == FreeWreath(SymQ(2), SymQ(2))
    mixed = make_graph(4, [(0, 1)])
    assert qut(mixed).expr == FreeProduct((SymQ(2), SymQ(2)))
    assert qut(make_graph(0, [])).expr == TRIVIAL
    assert qut(make_graph(3, [])).expr == SymQ(3)


def test_colored_c4_variants():
    aabb = make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], {0: 1, 1: 1})
    res = qut(aabb)
    assert isinstance(res.expr, Classical)
    assert res.expr.group.order == 2 == brute_aut_order(aabb)
    abab = make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], {0: 1, 2: 1})
    assert qut(abab).expr == FreeProduct((SymQ(2), SymQ(2)))


def test_c4_with_pendants_everywhere():
    g = make_graph(
        8, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 5), (2, 6), (3, 7)]
    )
    expr = qut(g).expr
    assert expr == FreeWreath(SymQ(2), SymQ(2))
    assert classical_shadow_order(expr) == 8 == brute_aut_order(g)


def test_c4_with_adjacent_star_branches_keeps_inhom():
    # 2-leaf stars on two adjacent cycle vertices: genuinely inhomogeneous
    g = make_graph(
        8,
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (0, 5), (1, 6), (1, 7)],
    )
    expr = qut(g).expr
    assert isinstance(expr, InhomFreeWreath)
    assert classical_shadow_order(expr) == 8 == brute_aut_order(g)
    assert render(expr) == "(1, S^+(2)) wrwr* Z_2"


def test_nested_wreath_outer():
    # doubled pendants on every C4 vertex force a quantum outer group
    g = make_graph(
        12,
        [(0, 1), (1, 2), (2, 3), (3, 0)]
        + [(v, 4 + 2 * v) for v in range(4)]
        + [(v, 5 + 2 * v) for v in range(4)],
    )
    expr = qut(g).expr
    assert expr == FreeWreath(SymQ(2), FreeWreath(SymQ(2), SymQ(2)))
    assert classical_shadow_order(expr) == 128 == brute_aut_order(g)


def test_block_atom_api():
    assert qut_block_atom(C4) == FreeWreath(SymQ(2), SymQ(2))
    assert qut_block_atom(DIAMOND) == FreeProduct((SymQ(2), SymQ(2)))
    assert qut_block_atom(C4, pin=0) == SymQ(2)
    assert qut_block_atom(DIAMOND, pin=0) == SymQ(2)
    assert qut_block_atom(complete_graph(3), pin=1) == SymQ(2)
    assert qut_block_atom(make_graph(2, [(0, 1)]), pin=0) == TRIVIAL
    # pinned large cycles keep their reflection, diagonal across two pairs
    assert render(qut_block_atom(cycle_graph(5), pin=0)) == "Z_2"
    assert render(qut_block_atom(cycle_graph(6), pin=0)) == "Z_2"
    with pytest.raises(UnsupportedBlockError):
        qut_block_atom(W5)


def test_rooted_entry_points():
    t = block_tree(BOWTIE)
    assert qut_central_cut(BOWTIE, t, 2) == FreeWreath(SymQ(2), SymQ(2))
    with pytest.raises(ValueError):
        qut_central_cut(BOWTIE, t, 0)
    left = next(i for i, blk in enumerate(t.blocks) if blk == (0, 1, 2))
    assert qut_rooted_block(BOWTIE, t, left, 2) == SymQ(2)
    tp = block_tree(path_graph(5))
    assert qut_central_cut(path_graph(5), tp, 2) == SymQ(2)
    assert qut_rooted_cut(path_graph(5), tp, 1) == TRIVIAL
    tb = block_tree(path_graph(4))
    assert qut_central_block(path_graph(4), tb, tb.center[1]) == SymQ(2)


def test_qut_connected_requires_connected():
    with pytest.raises(NotConnectedError):
        qut_connected(make_graph(4, [(0, 1), (2, 3)]))


# -- class handling and force mode --------------------------------------------


def test_refusal_and_force():
    with pytest.raises(ClassRefusedError):
        qut(W5)
    with pytest.raises(UnsupportedBlockError):
        qut(W5, force=True)  # no atom exists even under force
    k4_c4 = make_graph(
        7,
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 3)],
    )
    assert classify(k4_c4) is GraphClass.UNSUPPORTED
    with pytest.raises(ClassRefusedError):
        qut(k4_c4)
    res = qut(k4_c4, force=True)
    assert res.assumptions and "quantum-iso" in res.assumptions[0]
    assert classical_shadow_order(res.expr) == brute_aut_order(k4_c4)


def test_supported_results_carry_no_assumptions():
    res = qut(C4)
    assert res.assumptions == ()
    assert res.graph_class is GraphClass.OUTERPLANAR
    assert qut(path_graph(3)).graph_class is GraphClass.FOREST
    assert qut(BOWTIE).graph_class is GraphClass.BLOCK_GRAPH


def test_has_quantum_symmetry():
    assert has_quantum_symmetry(C4)
    assert has_quantum_symmetry(star_graph(4))
    assert not has_quantum_symmetry(cycle_graph(7))
    assert not has_quantum_symmetry(path_graph(4))
    assert not has_quantum_symmetry(CHORDED_C5)


# -- structural properties ----------------------------------------------------


def test_tree_purity_small():
    for n in range(1, 8):
        for g in free_trees(n):
            for node in _walk(qut(g).expr):
                assert not isinstance(node, InhomFreeWreath)


def test_shadow_matches_aut_on_random_graphs():
    rng = random.Random(71)
    for make in (rand_outerplanar, rand_block_graph):
        for _ in range(40):
            g = make(rng, 9)
            expr = qut(g).expr
            assert classical_shadow_order(expr) == brute_aut_order(g)


def test_relabel_invariance_examples():
    rng = random.Random(73)
    graphs = [C4, DIAMOND, BOWTIE, CHORDED_C5, path_graph(6), star_graph(4)]
    for g in graphs:
        for _ in range(5):
            perm = rand_permutation(rng, g.n)
            assert qut(relabel(g, perm)).expr == qut(g).expr


def test_outerplanar_blocks_are_classical():
    for m in (5, 6, 7):
        expr = qut(cycle_graph(m)).expr
        assert is_classical(expr)


def test_rooted_cut_stabilizer_examples():
    spider = make_graph(6, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)])
    res = qut(spider).expr
    assert res == free_product([symq(2), TRIVIAL])
    assert classical_shadow_order(res) == 2 == brute_aut_order(spider)


def test_shadow_on_named_graphs():
    for g in [C4, DIAMOND, BOWTIE, CHORDED_C5, W5]:
        try:
            expr = qut(g, force=True).expr
        except UnsupportedBlockError:
            continue
        assert classical_shadow_order(expr) == brute_aut_order(g)


# -- deep inputs: nothing may depend on Python's recursion limit ---------------


def test_long_path_under_default_recursion_limit():
    assert sys.getrecursionlimit() <= 1000
    assert qut(path_graph(1000)).expr == SymQ(2)


def test_rooted_cut_on_a_long_path():
    g = path_graph(5000)
    t = block_tree(g)
    assert t.center == ("b", 2499)
    # X^{<=2500}: the path 2500..4999 rooted at its end, which nothing moves
    assert qut_rooted_cut(g, t, 2500) == TRIVIAL
    assert qut_rooted_cut(g, t, 4998) == TRIVIAL


def _caterpillar(leaves):
    spine = len(leaves)
    edges = [(i, i + 1) for i in range(spine - 1)]
    n = spine
    for i, k in enumerate(leaves):
        edges += [(i, n + j) for j in range(k)]
        n += k
    return make_graph(n, edges)


def test_long_caterpillar_shadow():
    rng = random.Random(600)
    for mirrored in (False, True):
        leaves = [rng.randint(1, 3) for _ in range(600)]
        if mirrored:
            leaves = leaves[:300] + leaves[:300][::-1]
        expected = prod(factorial(k) for k in leaves)
        expected *= 2 if leaves == leaves[::-1] else 1
        assert classical_shadow_order(qut(_caterpillar(leaves)).expr) == expected


def _hexagon_chain_text(k):
    """Text of the k-hexagon chain, k >= 2. The chain folds at its centre; each
    step of a half-chain is one hexagon flipped by Z_2 over the rest."""
    half = "Z_2"
    for _ in range(k // 2 - 1):
        half = f"(1, 1, 1, {half}) wrwr* Z_2"
    if k % 2:
        return f"(1, {half}) wrwr* Grp(order=4)"
    return f"({half}) wr* S^+(2)" if k > 2 else f"{half} wr* S^+(2)"


def test_hexagon_chain_shadow_by_brute_force():
    assert brute_aut_order(hexagon_chain(2)) == 8


@pytest.mark.parametrize("k", [2, 3, 4, 5, 1000, 3000])
def test_deep_hexagon_chain_under_default_recursion_limit(k):
    # the expression nests about k/2 inhomogeneous free wreaths
    assert sys.getrecursionlimit() <= 1000
    e = qut(hexagon_chain(k)).expr
    # each hexagon swaps its two sides on its own, and the chain reverses
    assert classical_shadow_order(e) == 2 ** (k + 1)
    text, latex, js = (render(e, fmt) for fmt in ("text", "latex", "json"))
    assert text == _hexagon_chain_text(k)
    assert latex.count(r"\tilde{\wr}_\ast") == text.count("wrwr*")
    assert js.count('"t":"inhomwreath"') == text.count("wrwr*")
    if k < 10:
        assert js == json.dumps(ref_json_obj(e), separators=(",", ":"), sort_keys=True)
    # compared by render: == on the nested dataclasses would itself recurse
    assert render(normalize(e), "json") == js


# -- one decomposition per input ------------------------------------------------


def _count_calls(monkeypatch, name):
    """Record the arguments of every call of `name`, whichever module calls it."""
    calls = []
    for mod in (qblock.graph, qblock.blocks, qblock.classrec, qblock.canon, qblock.engine):
        if hasattr(mod, name):

            def counted(*args, _fn=getattr(mod, name), **kwargs):
                calls.append(args)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(mod, name, counted)
    return calls


def test_qut_decomposes_the_input_once(monkeypatch):
    rng = random.Random(73)
    triangles = make_graph(
        9, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5), (5, 6), (4, 6), (6, 7), (7, 8)]
    )
    parts = [rand_outerplanar(rng, 14) for _ in range(6)] + [triangles, BOWTIE, triangles]
    parts += [make_graph(1)] * 3
    rng.shuffle(parts)
    edges, n = [], 0
    for p in parts:
        edges += [(u + n, v + n) for u, v in p.edges]
        n += p.n
    g = make_graph(n, edges, [rng.randrange(2) for _ in range(n)])
    blocks = biconnected_components(g)
    assert classify(g) is GraphClass.OUTERPLANAR
    assert any(len(b) > 3 for b in blocks)

    cycles = _count_calls(monkeypatch, "hamiltonian_cycle")
    trees = _count_calls(monkeypatch, "block_tree")
    components = _count_calls(monkeypatch, "connected_components")
    induced = _count_calls(monkeypatch, "induced_subgraph")
    qut(g)
    assert len(cycles) == sum(len(b) > 2 for b in blocks)
    assert trees == []
    # only the 4-vertex atom splits a graph, the complement of one block
    assert all(h.n == 4 for (h,) in components)
    selections = [tuple(sorted(verts)) for host, verts in induced if host is g]
    assert len(selections) == len(induced)
    assert len(set(selections)) == len(selections)
    assert set(selections) <= set(blocks)


def test_outerplanar_blocks_encode_one_order_and_skip_the_separator_search(monkeypatch):
    fan = make_graph(40, [(i, i + 1) for i in range(39)] + [(0, i) for i in range(2, 40)])
    for g in (cycle_graph(40), fan):
        encodings = _count_calls(monkeypatch, "_order_encoding")
        separations = _count_calls(monkeypatch, "_connected_after_removal")
        block_codes = []
        code = qblock.canon._CodeCtx._code

        def counted(ctx, node, _code=code):
            if node[0] == "b":
                block_codes.append(node)
            return _code(ctx, node)

        monkeypatch.setattr(qblock.canon._CodeCtx, "_code", counted)
        qut(g)
        monkeypatch.undo()
        assert 1 <= len(encodings) <= len(block_codes)
        assert separations == []


# -- orbit sandwich: colour refinement first, 2-WL only on a gap ----------------

# C8 with chords {2,4} and {0,6}: colour refinement puts 1, 3, 5 and 7 in one
# class, while Aut splits them into {1,5} and {3,7}, and so does 2-WL
GAP_BLOCK = make_graph(8, [(i, (i + 1) % 8) for i in range(8)] + [(2, 4), (0, 6)])


def test_two_wl_runs_only_when_colour_refinement_leaves_a_gap(monkeypatch):
    rng = random.Random(41)
    fan = make_graph(40, [(i, i + 1) for i in range(39)] + [(0, i) for i in range(2, 40)])
    cases = [(GAP_BLOCK, 1), (cycle_graph(40), 0), (fan, 0)]
    cases += [(rand_outerplanar_block(rng, rng.randint(5, 16)), 0) for _ in range(30)]
    with monkeypatch.context() as m:
        m.setattr(
            qblock.engine,
            "color_refinement",
            lambda g: qblock.engine.vertex_classes(qblock.engine.stable_coloring(g)),
        )
        forced = [qut(g).expr for g, _ in cases]

    calls = _count_calls(monkeypatch, "stable_coloring")
    for (g, escalations), expr in zip(cases, forced):
        before = len(calls)
        assert qut(g).expr == expr
        assert len(calls) - before == escalations
