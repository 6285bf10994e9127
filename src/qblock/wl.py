"""Weisfeiler-Leman refinement: colour refinement (1-WL) of vertices and
2-dimensional refinement of ordered vertex pairs."""

from __future__ import annotations

from dataclasses import dataclass

from .graph import ColoredGraph


def color_refinement(g: ColoredGraph) -> list[tuple[int, ...]]:
    """Stable 1-WL vertex classes, sorted by smallest member.

    Starting from `g.colors`, each round recolours a vertex by its colour and
    the sorted colours of its neighbours, keyed exactly; a round never merges
    classes, so the colouring is stable once the class count stops growing.
    """
    color = list(g.colors)
    count = len(set(color))
    while True:
        ids: dict = {}
        color = [
            ids.setdefault((color[v], tuple(sorted(color[w] for w in nbrs))), len(ids))
            for v, nbrs in enumerate(g.adjacency)
        ]
        if len(ids) == count:
            break
        count = len(ids)
    groups: dict[int, list[int]] = {}
    for v, c in enumerate(color):
        groups.setdefault(c, []).append(v)
    return [tuple(vs) for vs in groups.values()]


@dataclass(frozen=True)
class PairColoring:
    """Stable-comparable colouring of all ordered vertex pairs.

    Colour ids are dense and assigned in order of first appearance under
    lexicographic pair order, so two colorings of the same graph can be
    compared directly.
    """

    n: int
    color: tuple[tuple[int, ...], ...]  # color[x][y]
    round: int

    def num_classes(self) -> int:
        return 1 + max(c for row in self.color for c in row) if self.n else 0


def _canonicalize(n: int, keys: list[list]) -> tuple[tuple[int, ...], ...]:
    ids: dict = {}
    out = []
    for x in range(n):
        row = []
        for y in range(n):
            k = keys[x][y]
            if k not in ids:
                ids[k] = len(ids)
            row.append(ids[k])
        out.append(tuple(row))
    return tuple(out)


def initial_coloring(g: ColoredGraph) -> PairColoring:
    """Pairs classed by (diagonal / edge / non-edge) refined by endpoint colours."""
    n = g.n
    keys: list[list] = [[None] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            if x == y:
                kind = 0
            elif g.has_edge(x, y):
                kind = 1
            else:
                kind = 2
            keys[x][y] = (kind, g.colors[x], g.colors[y])
    return PairColoring(n=n, color=_canonicalize(n, keys), round=0)


def refine(g: ColoredGraph, c: PairColoring) -> PairColoring:
    """One WL round: recolour each pair by its old colour and the multiset of
    (colour(x,z), colour(z,y)) over all z, encoded exactly as sorted count triples."""
    n = g.n
    col = c.color
    keys: list[list] = [[None] * n for _ in range(n)]
    for x in range(n):
        colx = col[x]
        for y in range(n):
            counts: dict[tuple[int, int], int] = {}
            for z in range(n):
                k = (colx[z], col[z][y])
                counts[k] = counts.get(k, 0) + 1
            delta = tuple(sorted((i, j, cnt) for (i, j), cnt in counts.items()))
            keys[x][y] = (col[x][y], delta)
    return PairColoring(n=n, color=_canonicalize(n, keys), round=c.round + 1)


def stable_coloring(g: ColoredGraph) -> PairColoring:
    """Iterate refine until the induced partition is fixed."""
    c = initial_coloring(g)
    cap = max(1, g.n * g.n)
    for _ in range(cap + 1):
        nxt = refine(g, c)
        if nxt.color == c.color:
            return PairColoring(n=c.n, color=c.color, round=nxt.round)
        c = nxt
    raise RuntimeError("WL did not stabilize within n^2 rounds")  # unreachable


def same_wl_class(
    c: PairColoring, p: tuple[int, int], q: tuple[int, int]
) -> bool:
    return c.color[p[0]][p[1]] == c.color[q[0]][q[1]]


def vertex_classes(c: PairColoring) -> list[tuple[int, ...]]:
    """Partition of vertices by their diagonal WL colour, sorted by smallest member."""
    groups: dict[int, list[int]] = {}
    for v in range(c.n):
        groups.setdefault(c.color[v][v], []).append(v)
    return sorted((tuple(sorted(vs)) for vs in groups.values()), key=lambda t: t[0])
