"""Simple undirected vertex-coloured graphs: construction, parsing, basic ops."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    DuplicateEdgeError,
    ParseError,
    SelfLoopError,
    UnknownVertexError,
)

Edge = tuple[int, int]


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class ColoredGraph:
    """Immutable simple graph on vertices 0..n-1 with integer vertex colours."""

    n: int
    edges: frozenset[Edge]
    colors: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("negative vertex count")
        if len(self.colors) != self.n:
            raise ValueError("color map must be total over vertices")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u > v:
                raise ValueError(f"edge ({u},{v}) not normalized")
        if any(c < 0 for c in self.colors):
            raise ValueError("colors must be non-negative")

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return tuple(frozenset(s) for s in adj)

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        """Neighbour sets as bitmasks, for fast brute-force searches."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    def has_edge(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self.edges

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @property
    def m(self) -> int:
        return len(self.edges)


def make_graph(
    n: int,
    edges: Iterable[tuple[int, int]] = (),
    colors: Sequence[int] | dict[int, int] | None = None,
) -> ColoredGraph:
    """Build a ColoredGraph, normalizing edges; colors default to 0."""
    es = frozenset(_norm_edge(u, v) for u, v in edges)
    if colors is None:
        cols = (0,) * n
    elif isinstance(colors, dict):
        cols = tuple(colors.get(v, 0) for v in range(n))
    else:
        cols = tuple(colors)
    return ColoredGraph(n=n, edges=es, colors=cols)


def parse_graph(text: str, format: str = "edgelist") -> ColoredGraph:
    """Parse a graph from edge-list or graph6 text."""
    if format == "edgelist":
        return _parse_edgelist(text)
    if format == "graph6":
        return _parse_graph6(text)
    raise ValueError(f"unknown format {format!r}")


def _parse_edgelist(text: str) -> ColoredGraph:
    n = m = -1
    edges: set[Edge] = set()
    colors: dict[int, int] = {}
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if not header_seen:
            if len(parts) != 2:
                raise ParseError(lineno, "expected header 'n m'")
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(lineno, "header fields must be integers") from None
            if n < 0 or m < 0:
                raise ParseError(lineno, "header fields must be non-negative")
            header_seen = True
            continue
        if parts[0] == "c":
            if len(parts) != 3:
                raise ParseError(lineno, "expected 'c v k'")
            try:
                v, k = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(lineno, "color fields must be integers") from None
            if not (0 <= v < n):
                raise ParseError(lineno, f"vertex {v} out of range")
            if k < 0:
                raise ParseError(lineno, "colors must be non-negative")
            colors[v] = k
            continue
        if len(parts) != 2:
            raise ParseError(lineno, "expected edge 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(lineno, "edge fields must be integers") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(lineno, f"edge ({u},{v}) out of range")
        if u == v:
            raise SelfLoopError(lineno, u)
        e = _norm_edge(u, v)
        if e in edges:
            raise DuplicateEdgeError(lineno, e)
        edges.add(e)
    if not header_seen:
        raise ParseError(0, "empty input")
    if len(edges) != m:
        raise ParseError(0, f"header declared {m} edges, found {len(edges)}")
    return make_graph(n, edges, colors)


def render_graph(g: ColoredGraph) -> str:
    """Edge-list rendering; parse(render(g)) == g."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    lines.extend(f"c {v} {k}" for v, k in enumerate(g.colors) if k != 0)
    return "\n".join(lines) + "\n"


def _parse_graph6(text: str) -> ColoredGraph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise ParseError(0, "empty graph6 input")
    data = [ord(c) - 63 for c in s]
    if any(b < 0 or b > 63 for b in data):
        raise ParseError(1, "invalid graph6 character")
    if data[0] < 63:
        n = data[0]
        body = data[1:]
    elif len(data) >= 4 and data[1] < 63:
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    else:
        raise ParseError(1, "unsupported graph6 size prefix")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) < need:
        raise ParseError(1, "truncated graph6 body")
    bits = []
    for b in body[:need]:
        bits.extend((b >> shift) & 1 for shift in range(5, -1, -1))
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return make_graph(n, edges)


def complement(g: ColoredGraph) -> ColoredGraph:
    edges = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if (u, v) not in g.edges
    ]
    return make_graph(g.n, edges, g.colors)


def induced_subgraph(
    g: ColoredGraph, vertices: Iterable[int]
) -> tuple[ColoredGraph, dict[int, int]]:
    """Induced subgraph on `vertices`, relabeled 0..k-1; returns (graph, old->new map)."""
    selected = list(vertices)
    vs = sorted(set(selected))
    if len(vs) != len(selected):
        raise UnknownVertexError("duplicate vertices in selection")
    for v in vs:
        if not (0 <= v < g.n):
            raise UnknownVertexError(f"vertex {v} not in graph")
    relabel = {old: new for new, old in enumerate(vs)}
    # O(sum of degrees) over the selection, not a scan of all edges
    edges = [
        (relabel[u], relabel[v])
        for u in vs
        for v in g.adjacency[u]
        if u < v and v in relabel
    ]
    colors = tuple(g.colors[v] for v in vs)
    return make_graph(len(vs), edges, colors), relabel


def connected_components(g: ColoredGraph) -> list[tuple[int, ...]]:
    """Partition of vertices into components, each sorted, ordered by smallest member."""
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        stack = [s]
        seen[s] = True
        comp = []
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in g.adjacency[u]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    return comps


def is_connected(g: ColoredGraph) -> bool:
    return g.n <= 1 or len(connected_components(g)) == 1


def relabel(g: ColoredGraph, perm: Sequence[int]) -> ColoredGraph:
    """Apply permutation perm (old -> new) to vertices."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("not a permutation")
    edges = [(perm[u], perm[v]) for u, v in g.edges]
    colors = [0] * g.n
    for old, new in enumerate(perm):
        colors[new] = g.colors[old]
    return make_graph(g.n, edges, colors)
