"""Graph class recognition and outerplanar cycle/chord structure extraction."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from .blocks import biconnected_components
from .errors import NotBiconnectedError, NotOuterplanarBlockError
from .graph import ColoredGraph, connected_components, induced_subgraph

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

    The cycle is exactly the set of outer edges; it is returned in canonical
    rotation (starting at the smallest vertex, toward its smaller neighbor).
    """
    outer, inner = classify_edges(b)
    deg: dict[int, list[int]] = {v: [] for v in range(b.n)}
    for u, v in outer:
        deg[u].append(v)
        deg[v].append(u)
    if any(len(nb) != 2 for nb in deg.values()):
        raise NotOuterplanarBlockError("outer edges do not form a spanning cycle")
    start = 0
    cycle = [start]
    prev = start
    cur = min(deg[start])
    while cur != start:
        cycle.append(cur)
        a, c = deg[cur]
        nxt = c if a == prev else a
        prev, cur = cur, nxt
    if len(cycle) != b.n:
        raise NotOuterplanarBlockError("outer edges form more than one cycle")
    return CycleStructure(cycle=tuple(cycle), chords=inner)


def block_is_complete(g: ColoredGraph, verts: Sequence[int]) -> bool:
    """Whether the k vertices `verts` induce a complete block: k(k-1)/2 edges."""
    vs = frozenset(verts)
    return sum(len(g.adjacency[v] & vs) for v in vs) == len(vs) * (len(vs) - 1)


def classify(g: ColoredGraph) -> GraphClass:
    """Class priority: Forest, then BlockGraph, then Outerplanar."""
    comps = connected_components(g)
    if g.m == g.n - len(comps):
        return GraphClass.FOREST
    blocks = biconnected_components(g)
    if all(block_is_complete(g, b) for b in blocks):
        return GraphClass.BLOCK_GRAPH
    for b in blocks:
        if len(b) <= 2:
            continue
        sub, _ = induced_subgraph(g, b)
        try:
            hamiltonian_cycle(sub)
        except NotOuterplanarBlockError:
            return GraphClass.UNSUPPORTED
    return GraphClass.OUTERPLANAR
