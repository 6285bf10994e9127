"""Graph class recognition, outerplanar cycle/chord structure extraction, and
the one block decomposition of a graph that classification and `qut` share."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .blocks import _dfs_blocks, _peel, _sorted_blocks, biconnected_components
from .errors import NotBiconnectedError, NotOuterplanarBlockError, UnsupportedBlockError
# connected_components: unused, kept for perfbench/tracer.py to wrap
from .graph import ColoredGraph, connected_components, induced_subgraph  # noqa: F401

Edge = tuple[int, int]


class GraphClass(enum.Enum):
    FOREST = "Forest"
    OUTERPLANAR = "Outerplanar"
    BLOCK_GRAPH = "BlockGraph"
    UNSUPPORTED = "Unsupported"

    @property
    def tag(self) -> str:
        return self.value


@dataclass(frozen=True)
class CycleStructure:
    """The unique Hamiltonian cycle of a biconnected outerplanar block."""

    cycle: tuple[int, ...]
    chords: frozenset[Edge]


def _is_biconnected(b: ColoredGraph) -> bool:
    if b.n < 3:
        return False
    blocks = biconnected_components(b)
    return len(blocks) == 1 and len(blocks[0]) == b.n


def _connected_after_removal(b: ColoredGraph, removed: set[int]) -> bool:
    rest = [v for v in range(b.n) if v not in removed]
    if len(rest) <= 1:
        return True
    seen = {rest[0]}
    stack = [rest[0]]
    while stack:
        u = stack.pop()
        for w in b.adjacency[u]:
            if w not in removed and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(rest)


def classify_edges(b: ColoredGraph) -> tuple[frozenset[Edge], frozenset[Edge]]:
    """Split edges of a biconnected graph into (outer, inner).

    An edge is inner exactly when its endpoints form a 2-separator.
    """
    if not _is_biconnected(b):
        raise NotBiconnectedError("edge classification needs a biconnected graph, n >= 3")
    outer: set[Edge] = set()
    inner: set[Edge] = set()
    for u, v in b.edges:
        if _connected_after_removal(b, {u, v}):
            outer.add((u, v))
        else:
            inner.add((u, v))
    return frozenset(outer), frozenset(inner)


def hamiltonian_cycle(b: ColoredGraph) -> CycleStructure:
    """The unique Hamiltonian cycle of a biconnected outerplanar block.

    Degree-2 elimination (Mitchell 1979): remove a vertex of degree 2 and join
    its two neighbours until a triangle is left, then put the removed vertices
    back in reverse order, each between the two neighbours it left. On a graph
    that is not outerplanar those two may no longer be consecutive, so the
    result is checked: every cycle edge is an edge of `b`, and the other edges
    are chords that do not cross. Such a cycle is the only Hamiltonian one, and
    its chords are exactly the 2-separator (inner) edges of `classify_edges`.
    The cycle is returned in canonical rotation (starting at vertex 0, toward
    its smaller neighbor).
    """
    if not _is_biconnected(b):
        raise NotBiconnectedError("edge classification needs a biconnected graph, n >= 3")
    adj = [set(nb) for nb in b.adjacency]
    alive = set(range(b.n))
    queue = [v for v in range(b.n) if len(adj[v]) == 2]
    removed: list[tuple[int, int, int]] = []
    while len(alive) > 3 and queue:
        v = queue.pop()
        if v not in alive or len(adj[v]) != 2:
            continue
        x, y = adj[v]
        adj[x].discard(v)
        adj[y].discard(v)
        adj[x].add(y)
        adj[y].add(x)
        alive.discard(v)
        removed.append((v, x, y))
        queue.extend(w for w in (x, y) if len(adj[w]) == 2)
    if len(alive) > 3:
        raise NotOuterplanarBlockError("degree-2 elimination stops before a triangle")
    x, y, z = alive
    nxt = {x: y, y: z, z: x}
    for v, a, c in reversed(removed):
        if nxt[a] != c:
            a = c
        nxt[a], nxt[v] = v, nxt[a]
    cycle = [0]
    while len(cycle) < b.n:
        cycle.append(nxt[cycle[-1]])
    if cycle[-1] < cycle[1]:
        cycle[1:] = cycle[:0:-1]
    ring = {(min(u, v), max(u, v)) for u, v in zip(cycle, cycle[1:] + cycle[:1])}
    if not ring <= b.edges:
        raise NotOuterplanarBlockError("the cycle uses a non-edge")
    chords = b.edges - ring
    pos = {v: i for i, v in enumerate(cycle)}
    # chords as position intervals, outer before inner: they do not cross
    # exactly when they nest like brackets
    spans = sorted((sorted((pos[u], pos[v])) for u, v in chords), key=lambda s: (s[0], -s[1]))
    ends: list[int] = []
    for i, j in spans:
        while ends and ends[-1] <= i:
            ends.pop()
        if ends and ends[-1] < j:
            raise NotOuterplanarBlockError("chords cross")
        ends.append(j)
    return CycleStructure(cycle=tuple(cycle), chords=frozenset(chords))


class BlockShape:
    """One block: whether it is complete, plus its induced graph and its
    Hamiltonian cycle, each built on first use.

    Classification, the block's code and its atom read the same cycle.
    """

    def __init__(self, g: ColoredGraph, verts: Sequence[int]):
        self.g = g
        self.verts = tuple(verts)
        vs = frozenset(verts)
        # k vertices induce a complete block when they carry k(k-1)/2 edges
        self.complete = sum(len(g.adjacency[v] & vs) for v in vs) == len(vs) * (len(vs) - 1)

    @cached_property
    def graph(self) -> ColoredGraph:
        """The block induced on `verts` (sorted), relabelled 0..k-1 in that order."""
        return induced_subgraph(self.g, self.verts)[0]

    @cached_property
    def outer(self) -> Optional[CycleStructure]:
        """The block's Hamiltonian cycle, or None if it is not outerplanar."""
        try:
            return hamiltonian_cycle(self.graph)
        except NotOuterplanarBlockError:
            return None

    @property
    def cycle(self) -> CycleStructure:
        if self.outer is None:
            raise UnsupportedBlockError(
                f"block {self.verts} is neither complete nor outerplanar"
            )
        return self.outer


class Decomposition:
    """A graph, possibly disconnected, split into blocks by one DFS.

    `blocks` are in `biconnected_components` order, `incident` maps every
    vertex to its blocks' indices, `shapes` has one `BlockShape` per block,
    and `tops` one node per component: its block-cut tree's center, as
    ("b", block, None) or ("c", cut, None), or ("c", v, None) if v is isolated.
    """

    def __init__(self, g: ColoredGraph):
        self.g = g
        raw_blocks, cutset = _dfs_blocks(g)
        self.blocks = tuple(_sorted_blocks(raw_blocks))
        self.cuts = frozenset(cutset)
        self.incident: dict[int, list[int]] = {v: [] for v in range(g.n)}
        for i, blk in enumerate(self.blocks):
            for v in blk:
                self.incident[v].append(i)
        self.shapes = [BlockShape(g, blk) for blk in self.blocks]
        _, _, centers = _peel(self.blocks, self.cuts)
        self.tops = [(kind, x, None) for kind, x in centers] + [
            ("c", v, None) for v, bs in self.incident.items() if not bs
        ]

    @cached_property
    def graph_class(self) -> GraphClass:
        """Class priority: Forest, then BlockGraph, then Outerplanar."""
        if all(len(blk) == 2 for blk in self.blocks):
            return GraphClass.FOREST
        if all(shape.complete for shape in self.shapes):
            return GraphClass.BLOCK_GRAPH
        # complete blocks too: K4 is complete but not outerplanar
        if all(len(s.verts) <= 2 or s.outer is not None for s in self.shapes):
            return GraphClass.OUTERPLANAR
        return GraphClass.UNSUPPORTED


def classify(g: ColoredGraph) -> GraphClass:
    """Class priority: Forest, then BlockGraph, then Outerplanar."""
    return Decomposition(g).graph_class
