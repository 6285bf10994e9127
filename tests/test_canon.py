import random

import pytest

from qblock import canon
from qblock.blocks import RootedGraph
from qblock.errors import TooLargeError, UnsupportedBlockError
from qblock.graph import induced_subgraph, make_graph, relabel

from helpers import (
    BOWTIE,
    C4,
    W5,
    brute_aut_order,
    brute_automorphisms,
    brute_orbits,
    complete_graph,
    cycle_graph,
    free_trees,
    noncrossing_chord_sets,
    outerplanar_block_graph,
    path_graph,
    rand_block_graph,
    rand_connected_graph,
    rand_outerplanar,
    rand_permutation,
)


def test_brute_force_isomorphism_examples():
    p3 = path_graph(3)
    end_a = RootedGraph(p3, 0)
    end_b = RootedGraph(p3, 2)
    center = RootedGraph(p3, 1)
    assert canon.brute_force_isomorphism(end_a, end_b) is not None
    assert canon.brute_force_isomorphism(end_a, center) is None
    k2 = make_graph(2, [(0, 1)], {0: 1, 1: 2})
    k2_swapped = make_graph(2, [(0, 1)], {0: 2, 1: 1})
    iso = canon.brute_force_isomorphism(RootedGraph(k2), RootedGraph(k2_swapped))
    assert iso == (1, 0)
    # rooted vs unrooted never match
    assert canon.brute_force_isomorphism(RootedGraph(p3, 0), RootedGraph(p3)) is None


def test_brute_force_isomorphism_is_lex_least():
    iso = canon.brute_force_isomorphism(RootedGraph(C4), RootedGraph(C4))
    assert iso == (0, 1, 2, 3)


def test_brute_force_size_guard():
    big = path_graph(canon.BRUTE_ISO_LIMIT + 1)
    with pytest.raises(TooLargeError):
        canon.brute_force_isomorphism(RootedGraph(big), RootedGraph(big))
    with pytest.raises(TooLargeError):
        canon.automorphism_group(path_graph(canon.BRUTE_AUT_LIMIT + 1))


def test_automorphism_group_examples():
    assert canon.automorphism_group(cycle_graph(5)).order == 10
    chorded = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    assert canon.automorphism_group(chorded).order == 2
    assert canon.automorphism_group(complete_graph(4)).order == 24
    assert canon.automorphism_group(BOWTIE).order == 8
    # pinning everything leaves only the identity
    g = cycle_graph(4)
    assert canon.automorphism_group(g, pins=range(4)).order == 1
    assert canon.automorphism_group(g, pins=[0]).order == 2


def test_automorphism_group_matches_independent_oracle():
    rng = random.Random(43)
    for _ in range(40):
        g = rand_connected_graph(rng, rng.randint(2, 8))
        grp = canon.automorphism_group(g)
        assert grp.order == brute_aut_order(g)
        # generators actually generate a group of the reported order
        assert len(grp.elements()) == grp.order
        # and every generator is an automorphism
        auts = set(brute_automorphisms(g))
        assert set(grp.elements()) == auts


def test_orbits():
    d5 = canon.automorphism_group(cycle_graph(5))
    assert canon.orbits(d5, range(5)) == [(0, 1, 2, 3, 4)]
    chorded = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    grp = canon.automorphism_group(chorded)
    assert canon.orbits(grp, [0, 1, 2]) == [(0, 2), (1,)]
    triv = canon.trivial_group(4)
    assert canon.orbits(triv, range(4)) == [(0,), (1,), (2,), (3,)]
    with pytest.raises(ValueError):
        canon.orbits(triv, [5])


def test_orbits_match_brute_orbits():
    rng = random.Random(47)
    for _ in range(25):
        g = rand_connected_graph(rng, rng.randint(2, 8))
        grp = canon.automorphism_group(g)
        assert canon.orbits(grp, range(g.n)) == brute_orbits(g)


def test_element_order_and_closure():
    assert canon.element_order((1, 2, 0)) == 3
    assert canon.element_order((1, 0, 3, 2)) == 2
    assert canon.element_order((0, 1, 2)) == 1
    elems = canon._closure(3, [(1, 2, 0), (0, 2, 1)])
    assert len(elems) == 6
    grp = canon.group_from_elements(3, elems)
    assert grp.order == 6
    assert set(grp.elements()) == set(elems)


def test_dihedral_symmetries_counts():
    lab = {v: b"" for v in range(5)}
    order, syms = canon.dihedral_symmetries((0, 1, 2, 3, 4), frozenset(), lab)
    assert len(syms) == 10
    _, syms2 = canon.dihedral_symmetries(
        (0, 1, 2, 3, 4), frozenset({(0, 2)}), lab
    )
    assert len(syms2) == 2


def test_rooted_code_distinguishes_roots():
    p3 = path_graph(3)
    assert canon.rooted_code(p3, 0) == canon.rooted_code(p3, 2)
    assert canon.rooted_code(p3, 0) != canon.rooted_code(p3, 1)
    # two disjoint representations of the same rooted tree
    a = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    b = make_graph(4, [(3, 2), (2, 1), (1, 0)])
    assert canon.rooted_code(a, 0) == canon.rooted_code(b, 3)


def test_unrooted_code_is_relabel_invariant():
    rng = random.Random(53)
    for make in (rand_outerplanar, rand_block_graph):
        for _ in range(25):
            g = make(rng, 9)
            perm = rand_permutation(rng, g.n)
            assert canon.rooted_code(g, None) == canon.rooted_code(
                relabel(g, perm), None
            )


def test_rooted_code_is_relabel_invariant():
    rng = random.Random(59)
    for _ in range(25):
        g = rand_outerplanar(rng, 9)
        root = rng.randrange(g.n)
        perm = rand_permutation(rng, g.n)
        assert canon.rooted_code(g, root) == canon.rooted_code(
            relabel(g, perm), perm[root]
        )


def _branch_below(g, v, block):
    """v and everything reachable from it without entering block - {v}."""
    barrier = set(block) - {v}
    seen, stack = {v}, [v]
    while stack:
        u = stack.pop()
        for w in g.adjacency[u]:
            if w not in seen and w not in barrier:
                seen.add(w)
                stack.append(w)
    return sorted(seen)


def test_in_context_branch_codes_match_induced_branches():
    rng = random.Random(61)
    checked = 0
    for i in range(60):
        g = (rand_outerplanar, rand_block_graph)[i % 2](rng, 14)
        g = make_graph(g.n, g.edges, [rng.randrange(2) for _ in range(g.n)])
        ctx = canon._CodeCtx(g)
        for v in ctx.cuts:
            for b in ctx.incident[v]:
                sub, rel = induced_subgraph(g, _branch_below(g, v, ctx.blocks[b]))
                assert ctx.code(ctx.branch(v, b)) == canon.rooted_code(sub, rel[v])
                checked += 1
    assert checked > 200


def test_code_rejects_unsupported_blocks():
    with pytest.raises(UnsupportedBlockError):
        canon.rooted_code(W5, None)


def test_code_equality_iff_brute_iso_small_trees():
    for n in range(1, 7):
        reps = []
        for g in free_trees(n):
            for root in range(g.n):
                reps.append((g, root))
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                ga, ra = reps[i]
                gb, rb = reps[j]
                same_code = canon.rooted_code(ga, ra) == canon.rooted_code(gb, rb)
                iso = canon.brute_force_isomorphism(
                    RootedGraph(ga, ra), RootedGraph(gb, rb)
                )
                assert same_code == (iso is not None)


def test_pinned_outerplanar_stabilizer_at_most_two():
    for m in range(5, 8):
        for chords in noncrossing_chord_sets(m):
            g = outerplanar_block_graph(m, chords)
            for pin in range(g.n):
                assert canon.automorphism_group(g, pins=[pin]).order <= 2
