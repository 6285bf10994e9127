import random

from hypothesis import given, settings
from hypothesis import strategies as st

from qblock.graph import make_graph, relabel
from qblock.wl import (
    color_refinement,
    initial_coloring,
    refine,
    same_wl_class,
    stable_coloring,
    vertex_classes,
)

from helpers import (
    C4,
    brute_automorphisms,
    complete_graph,
    cycle_graph,
    path_graph,
    rand_connected_graph,
    rand_permutation,
)


def test_initial_coloring_examples():
    # uncolored C4: diagonal, edge, non-edge
    assert initial_coloring(C4).num_classes() == 3
    # colored K2: two diagonal colors and two ordered-pair colors
    k2 = make_graph(2, [(0, 1)], {0: 0, 1: 1})
    assert initial_coloring(k2).num_classes() == 4
    # edgeless graph with n >= 2: diagonal vs off-diagonal
    assert initial_coloring(make_graph(3, [])).num_classes() == 2
    assert initial_coloring(make_graph(1, [])).num_classes() == 1


def test_refinement_separates_p3_pairs():
    p3 = path_graph(3)
    c0 = initial_coloring(p3)
    assert same_wl_class(c0, (0, 1), (0, 2)) is False  # edge vs non-edge
    c = stable_coloring(p3)
    # the two edges incident to the center split from nothing else;
    # diagonal classes: endpoints {0,2} vs center {1}
    assert vertex_classes(c) == [(0, 2), (1,)]
    assert same_wl_class(c, (0, 1), (2, 1))
    assert not same_wl_class(c, (0, 1), (1, 0))


def test_stable_coloring_on_symmetric_graphs():
    assert stable_coloring(cycle_graph(5)).num_classes() == 3
    assert stable_coloring(complete_graph(6)).num_classes() == 2
    assert vertex_classes(stable_coloring(cycle_graph(7))) == [tuple(range(7))]


def test_chord_separation_example():
    # C5 plus the chord (0,2): the chord must not share a class with any
    # cycle edge in the stable coloring
    g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    c = stable_coloring(g)
    for e in [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]:
        assert not same_wl_class(c, (0, 2), e)
        assert not same_wl_class(c, (2, 0), (e[1], e[0]))


def test_refinement_is_monotone():
    rng = random.Random(3)
    for _ in range(15):
        g = rand_connected_graph(rng, rng.randint(2, 8))
        c = initial_coloring(g)
        prev = c.num_classes()
        for _round in range(g.n * g.n):
            nxt = refine(g, c)
            assert nxt.num_classes() >= prev
            # refinement never merges: equal new colors imply equal old colors
            seen = {}
            for i in range(g.n):
                for j in range(g.n):
                    key = nxt.color[i][j]
                    if key in seen:
                        assert seen[key] == c.color[i][j]
                    else:
                        seen[key] = c.color[i][j]
            if nxt.color == c.color:
                break
            prev = nxt.num_classes()
            c = nxt
        stable = stable_coloring(g)
        assert stable.num_classes() == refine(g, stable).num_classes()


def test_diagonal_never_merges_with_off_diagonal():
    rng = random.Random(5)
    for _ in range(15):
        g = rand_connected_graph(rng, rng.randint(2, 8))
        c = stable_coloring(g)
        diag = {c.color[v][v] for v in range(g.n)}
        off = {
            c.color[i][j] for i in range(g.n) for j in range(g.n) if i != j
        }
        assert not (diag & off)


def test_relabel_equivariance():
    rng = random.Random(9)
    for _ in range(15):
        g = rand_connected_graph(rng, rng.randint(2, 8))
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        cg = stable_coloring(g)
        ch = stable_coloring(h)
        assert cg.num_classes() == ch.num_classes()
        # color of (i,j) in g determines color of (perm i, perm j) in h
        fwd: dict[int, int] = {}
        for i in range(g.n):
            for j in range(g.n):
                a, b = cg.color[i][j], ch.color[perm[i]][perm[j]]
                assert fwd.setdefault(a, b) == b
        assert len(set(fwd.values())) == len(fwd)


def test_orbit_soundness():
    """Pairs in the same Aut-orbit always share a stable WL class."""
    rng = random.Random(17)
    graphs = [C4, path_graph(5), cycle_graph(6), complete_graph(4)]
    graphs += [rand_connected_graph(rng, rng.randint(2, 6)) for _ in range(8)]
    for g in graphs:
        c = stable_coloring(g)
        for p in brute_automorphisms(g):
            for i in range(g.n):
                for j in range(g.n):
                    assert c.color[i][j] == c.color[p[i]][p[j]]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10), st.integers(0, 2**28 - 1))
def test_color_refinement_laws(n, seed):
    """1-WL classes: an equitable, colour-respecting partition, invariant
    under relabelling, and a union of 2-WL vertex classes."""
    rng = random.Random(seed)
    p = rng.random()
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    g = make_graph(n, edges, [rng.randrange(3) for _ in range(n)])
    classes = color_refinement(g)
    assert sorted(v for cls in classes for v in cls) == list(range(n))
    assert classes == sorted((tuple(sorted(c)) for c in classes), key=lambda t: t[0])
    class_of = {v: i for i, cls in enumerate(classes) for v in cls}
    for cls in classes:
        assert len({g.colors[v] for v in cls}) == 1
        counts = {
            tuple(sorted(class_of[w] for w in g.adjacency[v])) for v in cls
        }
        assert len(counts) == 1

    perm = rand_permutation(rng, n)
    moved = [tuple(sorted(perm[v] for v in c)) for c in classes]
    assert color_refinement(relabel(g, perm)) == sorted(moved, key=lambda t: t[0])

    for cls in vertex_classes(stable_coloring(g)):
        assert len({class_of[v] for v in cls}) == 1
