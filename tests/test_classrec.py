import random

import pytest

from qblock.classrec import GraphClass, classify, classify_edges, hamiltonian_cycle
from qblock.errors import NotBiconnectedError, NotOuterplanarBlockError
from qblock.graph import induced_subgraph, make_graph
from qblock.blocks import biconnected_components

from helpers import (
    BOWTIE,
    C4,
    W5,
    brute_hamiltonian_cycles,
    complete_graph,
    cycle_graph,
    noncrossing_chord_sets,
    outerplanar_block_graph,
    path_graph,
    rand_connected_graph,
    rand_outerplanar,
    rand_outerplanar_block,
    ref_hamiltonian_cycle,
)


def test_classify_edges_cycle():
    outer, inner = classify_edges(cycle_graph(5))
    assert inner == frozenset()
    assert outer == cycle_graph(5).edges


def test_classify_edges_chorded():
    g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    outer, inner = classify_edges(g)
    assert inner == frozenset({(0, 2)})
    assert outer == frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)})


def test_classify_edges_k4_all_outer():
    outer, inner = classify_edges(complete_graph(4))
    assert inner == frozenset() and len(outer) == 6


def test_classify_edges_requires_biconnected():
    with pytest.raises(NotBiconnectedError):
        classify_edges(path_graph(4))
    with pytest.raises(NotBiconnectedError):
        classify_edges(make_graph(2, [(0, 1)]))


def test_hamiltonian_cycle_canonical_rotation():
    cs = hamiltonian_cycle(C4)
    assert cs.cycle == (0, 1, 2, 3) and cs.chords == frozenset()
    g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    cs2 = hamiltonian_cycle(g)
    assert cs2.cycle == (0, 1, 2, 3, 4)
    assert cs2.chords == frozenset({(0, 2)})


def test_hamiltonian_cycle_rejects_k4():
    with pytest.raises(NotOuterplanarBlockError):
        hamiltonian_cycle(complete_graph(4))
    with pytest.raises(NotOuterplanarBlockError):
        hamiltonian_cycle(W5)


def test_hamiltonian_cycle_matches_brute_enumeration():
    """Outerplanar blocks have exactly one Hamiltonian cycle: the outer edges."""
    for m in range(5, 8):
        for chords in noncrossing_chord_sets(m):
            g = outerplanar_block_graph(m, chords)
            cs = hamiltonian_cycle(g)
            cycle_edges = frozenset(
                (min(a, b), max(a, b))
                for a, b in zip(cs.cycle, cs.cycle[1:] + cs.cycle[:1])
            )
            assert brute_hamiltonian_cycles(g) == {cycle_edges}


def _outcome(f, g):
    try:
        return f(g)
    except (NotBiconnectedError, NotOuterplanarBlockError) as e:
        return type(e)


def test_hamiltonian_cycle_matches_the_two_separator_definition():
    rng = random.Random(61)
    graphs = [complete_graph(4), complete_graph(5), BOWTIE, make_graph(1), make_graph(2, [(0, 1)])]
    # K_{2,3}, and wheels: a hub joined to every vertex of C_k
    graphs.append(make_graph(5, [(a, c) for a in (0, 1) for c in (2, 3, 4)]))
    graphs += [make_graph(k + 1, list(cycle_graph(k).edges) + [(i, k) for i in range(k)]) for k in range(3, 9)]
    for _ in range(120):
        block = rand_outerplanar_block(rng, rng.randint(3, 14))
        graphs.append(block)
        # the same block with extra chords, crossing or not
        extra = {tuple(sorted(rng.sample(range(block.n), 2))) for _ in range(rng.randint(1, 2))}
        graphs.append(make_graph(block.n, block.edges | extra))
        graphs.append(rand_outerplanar(rng, 12))
        graphs.append(rand_connected_graph(rng, rng.randint(3, 9)))
    accepted = 0
    for g in graphs:
        want, got = _outcome(ref_hamiltonian_cycle, g), _outcome(hamiltonian_cycle, g)
        if isinstance(want, type):
            assert got is want
            continue
        assert got == want
        assert got.chords == classify_edges(g)[1]
        accepted += 1
    assert 150 < accepted < len(graphs) - 150


def test_outerplanar_edge_count_bound():
    """Biconnected outerplanar blocks satisfy m <= 2n - 3."""
    for m in range(3, 8):
        for chords in noncrossing_chord_sets(m):
            g = outerplanar_block_graph(m, chords)
            assert g.m <= 2 * g.n - 3


def test_classify_examples():
    assert classify(path_graph(6)) is GraphClass.FOREST
    assert classify(make_graph(5, [(0, 1), (2, 3)])) is GraphClass.FOREST
    assert classify(BOWTIE) is GraphClass.BLOCK_GRAPH
    assert classify(complete_graph(5)) is GraphClass.BLOCK_GRAPH
    assert classify(C4) is GraphClass.OUTERPLANAR
    assert classify(cycle_graph(6)) is GraphClass.OUTERPLANAR
    assert classify(W5) is GraphClass.UNSUPPORTED
    assert classify(make_graph(1, [])) is GraphClass.FOREST
    assert (
        classify(make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]))
        is GraphClass.OUTERPLANAR
    )


def test_classify_priority():
    # K3 is both a block graph and outerplanar; block graph wins
    assert classify(complete_graph(3)) is GraphClass.BLOCK_GRAPH
    # a single edge is a forest before anything else
    assert classify(make_graph(2, [(0, 1)])) is GraphClass.FOREST


def test_classify_tags():
    assert GraphClass.FOREST.tag == "Forest"
    assert GraphClass.OUTERPLANAR.tag == "Outerplanar"
    assert GraphClass.BLOCK_GRAPH.tag == "BlockGraph"
    assert GraphClass.UNSUPPORTED.tag == "Unsupported"


def test_k23_is_unsupported():
    k23 = make_graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    assert classify(k23) is GraphClass.UNSUPPORTED


def test_outerplanarity_is_hereditary_on_blocks():
    """Every block of a randomly glued outerplanar graph passes the block test."""
    rng = random.Random(41)
    for _ in range(40):
        g = rand_outerplanar(rng, 9)
        assert classify(g) in (
            GraphClass.FOREST,
            GraphClass.OUTERPLANAR,
            GraphClass.BLOCK_GRAPH,
        )
        for blk in biconnected_components(g):
            if len(blk) < 3:
                continue
            sub, _ = induced_subgraph(g, blk)
            hamiltonian_cycle(sub)  # must not raise
