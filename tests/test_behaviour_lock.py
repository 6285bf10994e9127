"""Behaviour lock: rendered text and JSON of qut over fixed graph families.

Each family hashes, in order, the text and the JSON render of every graph's
result. The expected digests were recorded before the block-tree recursion was
replaced by a single post-order pass, so any change of output shows up here.
"""

import hashlib
import random

import pytest

from qblock.engine import qut
from qblock.graph import ColoredGraph, make_graph
from qblock.qexpr import render

from helpers import cycle_graph, free_trees, rand_block_graph, rand_outerplanar


def _recolor(rng: random.Random, g: ColoredGraph, k: int) -> ColoredGraph:
    return make_graph(g.n, g.edges, [rng.randrange(k) for _ in range(g.n)])


def _disjoint_union(parts) -> ColoredGraph:
    edges, colors, n = [], [], 0
    for p in parts:
        edges.extend((u + n, v + n) for u, v in p.edges)
        colors.extend(p.colors)
        n += p.n
    return make_graph(n, edges, colors)


def _fan(n: int) -> ColoredGraph:
    """Cycle 0..n-1 with chords from vertex 0 to every other vertex."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges.extend((0, j) for j in range(2, n - 1))
    return make_graph(n, edges)


def _windmill(blades: int, size: int) -> ColoredGraph:
    """`blades` copies of K_size sharing vertex 0."""
    edges = []
    for b in range(blades):
        verts = [0] + [1 + b * (size - 1) + i for i in range(size - 1)]
        edges.extend(
            (verts[i], verts[j]) for i in range(size) for j in range(i + 1, size)
        )
    return make_graph(1 + blades * (size - 1), edges)


def _triangle_tree(k: int, depth: int) -> ColoredGraph:
    """k triangles hang off every vertex not yet expanded, `depth` levels deep."""
    edges = []
    frontier, n = [0], 1
    for _ in range(depth):
        nxt = []
        for v in frontier:
            for _ in range(k):
                a, b = n, n + 1
                n += 2
                edges += [(v, a), (v, b), (a, b)]
                nxt += [a, b]
        frontier = nxt
    return make_graph(n, edges)


def _trees():
    return [g for n in range(1, 10) for g in free_trees(n)]


def _colored_random():
    rng = random.Random(20250417)
    out = []
    for i in range(400):
        make = rand_outerplanar if i % 2 else rand_block_graph
        out.append(_recolor(rng, make(rng, 18), 1 + i % 3))
    return out


def _unions():
    rng = random.Random(4242)
    out = [make_graph(0, []), make_graph(5, [])]
    for i in range(100):
        make = rand_outerplanar if i % 2 else rand_block_graph
        piece = _recolor(rng, make(rng, 7), 1 + i % 2)
        parts = [piece] * rng.randint(1, 3)
        parts += [make(rng, 7) for _ in range(rng.randint(0, 2))]
        parts += [make_graph(1, [], [rng.randrange(2)])] * rng.randint(0, 2)
        rng.shuffle(parts)
        out.append(_disjoint_union(parts))
    return out


def _windmills_and_triangle_trees():
    out = [_windmill(b, s) for b in range(1, 7) for s in (2, 3, 4, 5)]
    out += [_triangle_tree(k, d) for k in (1, 2, 3) for d in (1, 2, 3) if k**d <= 9]
    return out


def _decorated_blocks():
    """Blocks whose vertices carry small pendant pieces in a periodic or
    mirrored pattern, so that orbits of the block keep mixed fibres."""
    rng = random.Random(777)
    pieces = [[], [(0, 1)], [(0, 1), (0, 2)], [(0, 1), (1, 2)], [(0, 1), (0, 2), (1, 2)]]
    bases = [cycle_graph(m) for m in range(4, 9)] + [_fan(5), _fan(6)]
    bases.append(make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]))
    out = []
    for base in bases:
        m = base.n
        for _ in range(12):
            period = rng.choice([p for p in range(1, m + 1) if m % p == 0])
            word = [rng.randrange(len(pieces)) for _ in range(period)]
            pattern = (word * (m // period))[:m]
            if rng.random() < 0.3:
                pattern = pattern[: (m + 1) // 2] + pattern[: m // 2][::-1]
            edges, n = list(base.edges), m
            for v, idx in enumerate(pattern):
                piece = pieces[idx]
                size = 1 + max((max(e) for e in piece), default=0)
                ids = [v] + list(range(n, n + size - 1))
                edges += [(ids[a], ids[b]) for a, b in piece]
                n += size - 1
            out.append(make_graph(n, edges))
    return out


def _cycles_and_fans():
    sizes = list(range(3, 13)) + [16, 20, 25, 32, 40]
    return [cycle_graph(n) for n in sizes] + [_fan(n) for n in sizes]


FAMILIES = {
    "trees_n_le_9": _trees,
    "colored_random_n_le_18": _colored_random,
    "disjoint_unions": _unions,
    "windmills_and_triangle_trees": _windmills_and_triangle_trees,
    "cycles_and_fans": _cycles_and_fans,
    "decorated_blocks": _decorated_blocks,
}

# recorded with the recursive engine that preceded the single post-order pass
EXPECTED = {
    "colored_random_n_le_18": "d05757368c5bcf11c307b6ba626e668f510adef5191bcae44749341753b60fec",
    "cycles_and_fans": "814a7ab67898d4dae006e08f5e2b7d508cf6354f3a0c591f28fdd220d5e12092",
    "decorated_blocks": "f9bde7de73291555f008e51b1d5b887b0bfbbac59b1145ed14e43715f15f2b9f",
    "disjoint_unions": "155a473e3813f89c44f7907ab22af051445c290a11f29e34faba8e4ce26d1a38",
    "trees_n_le_9": "7ab771d511e39f44110a961e95f589db491d1d3d1901eebac868a33c57c11aaf",
    "windmills_and_triangle_trees": "9c71f336b77f711e54ce34c0d16f35dd8fe34451f5547b916fbfaeede183c647",
}


def family_digest(graphs) -> str:
    h = hashlib.sha256()
    for g in graphs:
        expr = qut(g).expr
        h.update(render(expr).encode() + b"\n")
        h.update(render(expr, "json").encode() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_renders_match_recorded_digest(family):
    assert family_digest(FAMILIES[family]()) == EXPECTED[family]
