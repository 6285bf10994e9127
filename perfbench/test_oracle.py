"""Checks of the |Aut| oracles against brute force.

    python3 -m pytest -q perfbench

Brute force here enumerates every automorphism by extending a partial
vertex map one vertex at a time; it shares no code with oracle.py.
"""

from __future__ import annotations

import random
from math import factorial

import networkx as nx
import pytest

import oracle
from workloads import _Builder, _small_block_graph, _small_forest, _small_outerplanar


def brute_force_count(adj: list[set[int]], colors: list[int]) -> int:
    n = len(adj)
    image: list[int] = []
    used = [False] * n

    def extend() -> int:
        v = len(image)
        if v == n:
            return 1
        total = 0
        for w in range(n):
            if used[w] or colors[w] != colors[v] or len(adj[w]) != len(adj[v]):
                continue
            if any((u in adj[v]) != (image[u] in adj[w]) for u in range(v)):
                continue
            image.append(w)
            used[w] = True
            total += extend()
            image.pop()
            used[w] = False
        return total

    return extend()


def _text(n: int, edges, colors=None) -> str:
    lines = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
    lines += [f"c {v} {c}" for v, c in enumerate(colors or []) if c]
    return "\n".join(lines) + "\n"


def _all_methods(text: str, complete_blocks: bool) -> list[int]:
    methods = ["vf2", "backtrack"] + (["ahu"] if complete_blocks else [])
    return [oracle.aut_order(text, m) for m in methods]


TREES = [t for n in range(1, 10) for t in nx.nonisomorphic_trees(n)]


@pytest.mark.parametrize("index", range(len(TREES)))
def test_all_trees_up_to_nine_vertices(index):
    tree = nx.convert_node_labels_to_integers(TREES[index])
    n, edges = tree.number_of_nodes(), list(tree.edges())
    text = _text(n, edges)
    adj, colors = oracle.parse_edgelist(text)
    expected = brute_force_count(adj, colors)
    assert _all_methods(text, complete_blocks=True) == [expected] * 3


def _random_small(kind: str, seed: int) -> tuple[str, bool]:
    rng = random.Random(seed)
    b = _Builder(rng)
    build = {
        "forest": _small_forest,
        "outerplanar": _small_outerplanar,
        "blockgraph": _small_block_graph,
    }[kind]
    build(b, rng.randint(3, 9))
    colors = b.colors(3) if seed % 2 else None
    return b.render(colors), kind != "outerplanar"


@pytest.mark.parametrize("kind", ["forest", "outerplanar", "blockgraph"])
def test_random_small_graphs_match_brute_force(kind):
    for seed in range(60):
        text, complete_blocks = _random_small(kind, seed)
        adj, colors = oracle.parse_edgelist(text)
        expected = brute_force_count(adj, colors)
        got = _all_methods(text, complete_blocks)
        assert got == [expected] * len(got), (kind, seed, text)


def _cycle_with(n: int, chords) -> str:
    return _text(n, [(i, (i + 1) % n) for i in range(n)] + list(chords))


@pytest.mark.parametrize(
    "text, complete_blocks, expected",
    [
        (_cycle_with(40, []), False, 80),
        (_cycle_with(31, [(0, j) for j in range(2, 30)]), False, 2),
        # windmill: 7 triangles on a hub
        (_text(15, [(0, 2 * i + 1) for i in range(7)] + [(0, 2 * i + 2) for i in range(7)]
               + [(2 * i + 1, 2 * i + 2) for i in range(7)]), True,
         factorial(7) * 2**7),
        # path on 300 vertices
        (_text(300, [(i, i + 1) for i in range(299)]), True, 2),
        # star with 20 leaves plus 3 isolated vertices
        (_text(24, [(0, i) for i in range(1, 21)]), True, factorial(20) * factorial(3)),
    ],
)
def test_closed_forms_on_larger_graphs(text, complete_blocks, expected):
    assert _all_methods(text, complete_blocks) == [expected] * (3 if complete_blocks else 2)
