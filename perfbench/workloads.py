"""Seeded input generators for the three benchmark workloads.

Every input is a connected-or-not simple graph handed to the program as
edge-list text (``n m`` header, ``u v`` edges, ``c v k`` colours) under a
random vertex relabelling. Input ``i`` of a workload depends only on
(workload, seed, i), so the parent process can rebuild exactly the inputs a
worker ran and check them against the oracle.

The family and size of input ``i`` come from a fixed schedule that cycles;
the seed only draws the structure, the colours and the relabelling. Every
run therefore sees the same mix of sizes in the same order, which keeps the
medians steady from seed to seed.

This module does not import ``qblock``.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass

# which independent |Aut| oracle checks an input (see oracle.py)
AHU = "ahu"  # all blocks complete: forests and block graphs
VF2 = "vf2"  # outerplanar: stabiliser chain over VF2++
BACKTRACK = "backtrack"  # small graphs: stabiliser chain over plain search


@dataclass(frozen=True)
class Input:
    text: str
    n: int
    # number of non-complete blocks with at least 3 vertices
    outer_blocks: int
    oracle: str


class _Builder:
    """Grows a graph block by block, remembering which blocks are complete."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.n = 0
        self.edges: list[tuple[int, int]] = []
        self.outer_blocks = 0

    def add_vertex(self) -> int:
        self.n += 1
        return self.n - 1

    def add_clique(self, size: int, at: int | None = None) -> list[int]:
        """K_size sharing vertex `at` (a fresh vertex if None)."""
        vs = [self.add_vertex() if at is None else at]
        vs += [self.add_vertex() for _ in range(size - 1)]
        self.edges += [(vs[i], vs[j]) for i in range(size) for j in range(i + 1, size)]
        return vs

    def add_outer_block(
        self, k: int, chords: int, at: int | None = None, fan: bool = False
    ) -> list[int]:
        """A k-cycle with `chords` random non-crossing chords (or a fan)."""
        vs = [self.add_vertex() if at is None else at]
        vs += [self.add_vertex() for _ in range(k - 1)]
        self.edges += [(vs[i], vs[(i + 1) % k]) for i in range(k)]
        if fan:
            pairs = [(0, j) for j in range(2, k - 1)]
        else:
            pairs = _noncrossing_chords(self.rng, k, chords)
        self.edges += [(vs[i], vs[j]) for i, j in pairs]
        if k > 3:
            self.outer_blocks += 1
        return vs

    def pick(self) -> int:
        return self.rng.randrange(self.n)

    def render(self, colors: list[int] | None) -> str:
        """Edge-list text under a random relabelling and edge order."""
        perm = list(range(self.n))
        self.rng.shuffle(perm)
        edges = [(perm[u], perm[v]) for u, v in self.edges]
        self.rng.shuffle(edges)
        lines = [f"{self.n} {len(edges)}"]
        lines += [f"{u} {v}" if self.rng.random() < 0.5 else f"{v} {u}" for u, v in edges]
        if colors is not None:
            lines += [f"c {perm[v]} {c}" for v, c in enumerate(colors) if c]
        return "\n".join(lines) + "\n"

    def colors(self, palette: int) -> list[int]:
        """Sparse random colours: most vertices keep colour 0."""
        return [
            self.rng.randrange(1, palette) if self.rng.random() < 0.15 else 0
            for _ in range(self.n)
        ]


def _noncrossing_chords(rng: random.Random, k: int, count: int) -> list[tuple[int, int]]:
    chords: list[tuple[int, int]] = []
    attempts = 0
    while len(chords) < count and attempts < 200 * (count + 1):
        attempts += 1
        i, j = sorted(rng.sample(range(k), 2))
        if j - i < 2 or (i == 0 and j == k - 1):
            continue
        if any(
            (a < i < b < j) or (i < a < j < b) or (a, b) == (i, j) for a, b in chords
        ):
            continue
        chords.append((i, j))
    return chords


# ---------------------------------------------------------------------------
# forest-block-large
# ---------------------------------------------------------------------------


def _prufer_tree(b: _Builder, n: int) -> None:
    rng = b.rng
    seq = [rng.randrange(n) for _ in range(n - 2)]
    for _ in range(n):
        b.add_vertex()
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        b.edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    b.edges.append((u, v))


def _random_block_graph(b: _Builder, n: int) -> None:
    """Glue K2..K6 at random vertices until about n vertices."""
    b.add_clique(b.rng.randint(2, 6))
    while b.n < n:
        b.add_clique(min(b.rng.randint(2, 6), n - b.n + 1), at=b.pick())


def _caterpillar(b: _Builder, spine: int) -> None:
    """A path of `spine` vertices, each with 0-2 pendant leaves."""
    prev = None
    for _ in range(spine):
        v = b.add_vertex()
        if prev is not None:
            b.edges.append((prev, v))
        for _ in range(b.rng.randint(0, 2)):
            b.edges.append((v, b.add_vertex()))
        prev = v


def _clique_chain(b: _Builder, length: int) -> None:
    """`length` small complete blocks in a row, with a few pendant leaves."""
    at = None
    for _ in range(length):
        vs = b.add_clique(b.rng.randint(3, 5), at=at)
        at = vs[-1]
        if b.rng.random() < 0.3:
            b.edges.append((b.rng.choice(vs[1:-1]), b.add_vertex()))


def _windmill(b: _Builder, blades: int, size: int) -> None:
    hub = b.add_vertex()
    for _ in range(blades):
        b.add_clique(size, at=hub)


def _triangle_tree(b: _Builder, arity: int, depth: int) -> None:
    """Complete arity-ary tree of triangles: every vertex below the root
    carries `arity` triangles until `depth` levels."""
    frontier = [b.add_vertex()]
    for _ in range(depth):
        nxt = []
        for v in frontier:
            for _ in range(arity):
                nxt += b.add_clique(3, at=v)[1:]
        frontier = nxt


def _forest_block_large(b: _Builder, step: tuple) -> None:
    kind, *params = step
    {
        "prufer": _prufer_tree,
        "blockgraph": _random_block_graph,
        "caterpillar": _caterpillar,
        "cliquechain": _clique_chain,
        "windmill": _windmill,
        "triangletree": _triangle_tree,
    }[kind](b, *params)


# (family parameters, coloured?) in the order inputs are drawn; about a third
# of the inputs are coloured. Sizes keep a run at about sixty ops. The mix
# is laid out so that the median and the tail each fall inside a group of
# inputs whose cost hardly varies with the seed: the median among the chains
# of 100 cliques, caterpillars of spine 100 and block graphs of 1000; the
# tail (about the 80th percentile) among the caterpillars of spine 140-150.
# The random trees vary by 15-20% per input.
# No input here fails. The deep spines that do are run apart, in the traced
# run only (see DEEP_SPINES).
FOREST_BLOCK_SCHEDULE: list[tuple[tuple, bool]] = [
    (("prufer", 250), False),
    (("blockgraph", 1000), False),
    (("cliquechain", 100), False),
    (("windmill", 120, 3), True),
    (("caterpillar", 100), False),
    (("prufer", 350), True),
    (("cliquechain", 60), False),
    (("blockgraph", 2000), False),
    (("triangletree", 2, 5), False),
    (("cliquechain", 100), True),
    (("caterpillar", 150), False),
    (("prufer", 400), False),
    (("blockgraph", 500), True),
    (("windmill", 500, 4), False),
    (("prufer", 300), True),
    (("cliquechain", 100), False),
    (("caterpillar", 150), True),
    (("triangletree", 3, 4), True),
    (("windmill", 80, 5), False),
    (("caterpillar", 140), False),
    (("caterpillar", 150), False),
    (("caterpillar", 140), True),
]


# Caterpillars with a spine of 400 or more exceed the default recursion limit
# of the engine as first committed, after 20-100 ms. Each traced run makes one
# op on each of these, outside its timed loop, so that the defect shows in
# `deep_spine.fail_ratio` until it is fixed. They are kept out of the timed
# loop, because a run there ends after a varying number of ops, so the count
# of failed ops would vary with the host's speed.
DEEP_SPINES = (450, 600)


def make_deep_spine(seed: int, spine: int) -> Input:
    """A caterpillar with the given spine, drawn from `seed`."""
    b = _Builder(random.Random(f"deep-spine/{seed}/{spine}"))
    _caterpillar(b, spine)
    return Input(text=b.render(None), n=b.n, outer_blocks=0, oracle=AHU)


# ---------------------------------------------------------------------------
# outerplanar-large
# ---------------------------------------------------------------------------


def _chord_count(k: int, density: str) -> int:
    share = {"none": 0.0, "sparse": 0.1, "dense": 0.3}[density]
    return min(k - 3, round(share * k))


def _glued_outerplanar(b: _Builder, sizes: tuple[int, ...], density: str) -> None:
    """Outerplanar blocks glued at random vertices, plus a few K2 bridges."""
    rng = b.rng
    b.add_outer_block(sizes[0], _chord_count(sizes[0], density))
    for k in sizes[1:]:
        if rng.random() < 0.25:
            anchor = b.pick()
            at = b.add_vertex()
            b.edges.append((anchor, at))
        else:
            at = b.pick()
        b.add_outer_block(k, _chord_count(k, density), at=at)
    for _ in range(rng.randint(1, 3)):
        v = b.pick()
        b.edges.append((v, b.add_vertex()))


def _outerplanar_large(b: _Builder, step: tuple) -> None:
    kind, *params = step
    if kind == "glued":
        _glued_outerplanar(b, *params)
    elif kind == "cycle":
        b.add_outer_block(params[0], 0)
    elif kind == "fan":
        b.add_outer_block(params[0], 0, fan=True)
    else:
        raise ValueError(kind)


OUTERPLANAR_SCHEDULE: list[tuple[tuple, bool]] = [
    (("glued", (30, 20, 10, 10), "sparse"), False),
    (("glued", (40, 15, 10), "none"), False),
    (("cycle", 40), False),
    (("glued", (25, 25, 12), "dense"), True),
    (("glued", (60, 10), "dense"), False),
    (("fan", 40), False),
    (("glued", (20, 20, 20, 15), "none"), True),
    (("glued", (35, 10, 10, 10), "sparse"), False),
    (("cycle", 60), True),
    (("glued", (50, 12), "sparse"), False),
    (("fan", 60), True),
    (("glued", (15, 15, 15, 15, 10), "dense"), False),
    (("cycle", 80), False),
]


# ---------------------------------------------------------------------------
# small-sweep
# ---------------------------------------------------------------------------


def _small_forest(b: _Builder, n: int) -> None:
    rng = b.rng
    if n >= 2:
        _prufer_tree(b, n)
        for _ in range(rng.randint(0, 2)):
            if len(b.edges) > 1:
                b.edges.pop(rng.randrange(len(b.edges)))
    else:
        b.add_vertex()


def _small_outerplanar(b: _Builder, n: int) -> None:
    rng = b.rng
    n = max(n, 4)
    k = rng.randint(4, min(8, n))
    b.add_outer_block(k, rng.randint(0, max(0, k - 4)))
    while b.n < n:
        room = n - b.n
        if room >= 3 and rng.random() < 0.5:
            k = rng.randint(3, min(6, room + 1))
            b.add_outer_block(k, rng.randint(0, max(0, k - 4)), at=b.pick())
        else:
            b.edges.append((b.pick(), b.add_vertex()))


def _small_block_graph(b: _Builder, n: int) -> None:
    rng = b.rng
    b.add_clique(rng.randint(2, min(4, n)))
    while b.n < n:
        b.add_clique(min(rng.randint(2, 4), n - b.n + 1), at=b.pick())


_SMALL_FAMILIES = (_small_forest, _small_outerplanar, _small_block_graph)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

WORKLOADS = ("forest-block-large", "outerplanar-large", "small-sweep")


def make_input(workload: str, seed: int, index: int) -> Input:
    rng = random.Random(f"{workload}/{seed}/{index}")
    b = _Builder(rng)
    if workload == "forest-block-large":
        step, colored = FOREST_BLOCK_SCHEDULE[index % len(FOREST_BLOCK_SCHEDULE)]
        _forest_block_large(b, step)
        palette, oracle = 3, AHU
    elif workload == "outerplanar-large":
        step, colored = OUTERPLANAR_SCHEDULE[index % len(OUTERPLANAR_SCHEDULE)]
        _outerplanar_large(b, step)
        palette, oracle = 3, VF2
    elif workload == "small-sweep":
        build = _SMALL_FAMILIES[index % 3]
        colored = (index // 3) % 4 == 3
        build(b, 3 + (index // 12) % 10)
        palette, oracle = 2, BACKTRACK
    else:
        raise ValueError(f"unknown workload {workload!r}")
    colors = b.colors(palette) if colored else None
    return Input(
        text=b.render(colors),
        n=b.n,
        outer_blocks=b.outer_blocks,
        oracle=oracle,
    )
