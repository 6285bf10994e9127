"""Rooted canonical codes, brute-force isomorphism, and classical perm groups.

Canonical codes are explicit byte strings, never hashes: equality of codes must
coincide exactly with rooted colored isomorphism, since merged classes feed
directly into the quantum-group composition.

`_CodeCtx` is the one code system. It extends the graph's one
`classrec.Decomposition` (blocks, cut vertices, block shapes, the top node of
each component) and codes every node of the block-cut forest, in any
orientation, from the codes of its children, without re-inducing branches.
`rooted_code` is a thin wrapper that codes the node covering a connected
graph, and the engine reads the codes of all nodes from the same context.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Optional, Sequence

# biconnected_components, block_tree, cut_vertices, hamiltonian_cycle and
# induced_subgraph: unused, kept for perfbench/tracer.py to wrap
from .blocks import RootedGraph, biconnected_components, block_tree, cut_vertices  # noqa: F401
from .classrec import Decomposition, hamiltonian_cycle  # noqa: F401
from .errors import NotConnectedError, TooLargeError
from .graph import ColoredGraph, induced_subgraph, is_connected  # noqa: F401

Perm = tuple[int, ...]

BRUTE_ISO_LIMIT = 10
BRUTE_AUT_LIMIT = 12


def pack(tag: bytes, parts: Iterable[bytes]) -> bytes:
    """Length-prefixed framing; injective for fixed tag arity conventions."""
    out = bytearray(tag)
    for p in parts:
        out += len(p).to_bytes(4, "big")
        out += p
    return bytes(out)


def enc_int(i: int) -> bytes:
    return str(i).encode("ascii")


# ---------------------------------------------------------------------------
# classical permutation groups
# ---------------------------------------------------------------------------


def _compose(p: Perm, q: Perm) -> Perm:
    """(p after q)[i] = p[q[i]]."""
    return tuple(p[q[i]] for i in range(len(p)))


def _closure(degree: int, gens: Sequence[Perm]) -> frozenset[Perm]:
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for e in frontier:
            for s in gens:
                c = _compose(s, e)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return frozenset(seen)


@dataclass(frozen=True)
class ClassicalPermGroup:
    degree: int
    generators: tuple[Perm, ...]
    order: int

    def elements(self) -> frozenset[Perm]:
        return _closure(self.degree, self.generators)


def group_from_elements(degree: int, elements: Iterable[Perm]) -> ClassicalPermGroup:
    """Minimal-ish deterministic generating set via greedy closure growth."""
    elems = sorted(set(elements))
    ident = tuple(range(degree))
    if not elems:
        elems = [ident]
    gens: list[Perm] = []
    known: set[Perm] = {ident}
    for e in elems:
        if e not in known:
            gens.append(e)
            known = set(_closure(degree, gens))
    return ClassicalPermGroup(degree=degree, generators=tuple(gens), order=len(elems))


def trivial_group(degree: int) -> ClassicalPermGroup:
    return ClassicalPermGroup(degree=degree, generators=(), order=1)


def orbits(group: ClassicalPermGroup, subset: Sequence[int]) -> list[tuple[int, ...]]:
    """Orbit partition of `subset` under the generated group, sorted by minimum."""
    remaining = set(subset)
    for v in remaining:
        if not (0 <= v < group.degree):
            raise ValueError(f"point {v} outside degree {group.degree}")
    out: list[tuple[int, ...]] = []
    while remaining:
        start = min(remaining)
        orb = {start}
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for gperm in group.generators:
                y = gperm[x]
                if y not in orb:
                    orb.add(y)
                    frontier.append(y)
        orb &= set(subset)
        remaining -= orb
        out.append(tuple(sorted(orb)))
    return sorted(out, key=lambda t: t[0])


def element_order(p: Perm) -> int:
    n = len(p)
    seen = [False] * n
    out = 1
    for s in range(n):
        if seen[s]:
            continue
        length = 0
        x = s
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        out = out * length // gcd(out, length)
    return out


# ---------------------------------------------------------------------------
# brute-force isomorphism and automorphisms
# ---------------------------------------------------------------------------


def _iter_isomorphisms(
    a: ColoredGraph,
    b: ColoredGraph,
    fixed: dict[int, int],
):
    """Yield all color-preserving isomorphisms a -> b extending `fixed`.

    Candidates are tried in ascending order, so the first yield is the
    lexicographically least mapping (in vertex order 0..n-1 of a).
    """
    n = a.n
    dega = [a.degree(v) for v in range(n)]
    degb = [b.degree(v) for v in range(n)]
    mapping: list[Optional[int]] = [None] * n
    used = [False] * n
    for v, w in fixed.items():
        mapping[v] = w
        used[w] = True

    def backtrack(v: int):
        if v == n:
            yield tuple(mapping)  # type: ignore[arg-type]
            return
        preset = mapping[v] is not None
        candidates = (
            [mapping[v]] if preset else [w for w in range(n) if not used[w]]
        )
        for w in candidates:
            assert w is not None
            if a.colors[v] != b.colors[w] or dega[v] != degb[w]:
                continue
            ok = True
            for u in range(n):
                mu = mapping[u]
                if u != v and mu is not None and a.has_edge(v, u) != b.has_edge(w, mu):
                    ok = False
                    break
            if not ok:
                continue
            if not preset:
                mapping[v] = w
                used[w] = True
            yield from backtrack(v + 1)
            if not preset:
                mapping[v] = None
                used[w] = False

    yield from backtrack(0)


def brute_force_isomorphism(a: RootedGraph, b: RootedGraph) -> Optional[Perm]:
    """Lexicographically least root/color-preserving isomorphism, or None."""
    ga, gb = a.graph, b.graph
    if ga.n > BRUTE_ISO_LIMIT or gb.n > BRUTE_ISO_LIMIT:
        raise TooLargeError(f"brute-force isomorphism capped at {BRUTE_ISO_LIMIT} vertices")
    if ga.n != gb.n or ga.m != gb.m:
        return None
    if sorted(ga.colors) != sorted(gb.colors):
        return None
    if (a.root is None) != (b.root is None):
        return None
    fixed = {} if a.root is None else {a.root: b.root}
    for iso in _iter_isomorphisms(ga, gb, fixed):
        return iso
    return None


def automorphism_group(
    g: ColoredGraph, pins: Sequence[int] = ()
) -> ClassicalPermGroup:
    """All color- and pin-preserving automorphisms, as generators + exact order."""
    if g.n > BRUTE_AUT_LIMIT:
        raise TooLargeError(f"brute-force automorphisms capped at {BRUTE_AUT_LIMIT} vertices")
    fixed = {v: v for v in pins}
    ident = tuple(range(g.n))
    gens: list[Perm] = []
    known: set[Perm] = {ident}
    order = 0
    for p in _iter_isomorphisms(g, g, fixed):
        order += 1
        if p not in known:
            gens.append(p)
            known = set(_closure(g.n, gens))
    return ClassicalPermGroup(degree=g.n, generators=tuple(gens), order=order)


# ---------------------------------------------------------------------------
# dihedral machinery for outerplanar blocks
# ---------------------------------------------------------------------------


def _chord_pack(order: Sequence[int], chords: Iterable[Iterable[int]]) -> bytes:
    pos = {v: i for i, v in enumerate(order)}
    chpos = sorted(tuple(sorted((pos[u], pos[v]))) for u, v in (tuple(c) for c in chords))
    return pack(b"ch", [enc_int(i) + b"," + enc_int(j) for i, j in chpos])


def _order_encoding(
    order: Sequence[int],
    chords: Iterable[Iterable[int]],
    label_of: dict[int, bytes],
) -> bytes:
    parts = [enc_int(len(order))]
    parts.extend(label_of[v] for v in order)
    parts.append(_chord_pack(order, chords))
    return pack(b"seq", parts)


def _least_orders(
    cycle: Sequence[int],
    chords: Iterable[Iterable[int]],
    label_of: dict[int, bytes],
    root: Optional[int] = None,
) -> list[tuple[int, ...]]:
    """The dihedral orders of `cycle` whose `_order_encoding` is least: all
    2k rotations and reflections, or only the 2 that start at `root`.

    Labels are ranked once by (length, bytes), which is how the
    length-prefixed encoding compares them, so the orders are compared as
    tuples of ints; only orders that tie on ranks compare chord packs, by
    (length, bytes). The first order returned is the first least one in
    sequence (rotation, then reflection, from each start). The others encode
    the same, so mapping the first onto any of them preserves labels and chords.
    """
    uniq = sorted({label_of[v] for v in cycle}, key=lambda lab: (len(lab), lab))
    rank = {lab: i for i, lab in enumerate(uniq)}
    fwd = tuple(cycle)
    rf = tuple(rank[label_of[v]] for v in fwd)
    m = len(fwd)
    seqs = ((fwd, rf), (fwd[::-1], rf[::-1]))
    best: Optional[tuple[int, ...]] = None
    # (vertex sequence, start) of each order that ties on ranks
    tied: list[tuple[tuple[int, ...], int]] = []
    for s in range(m) if root is None else (fwd.index(root),):
        for (vs, rs), i in zip(seqs, (s, m - 1 - s)):
            ranks = rs[i:] + rs[:i]
            if best is None or ranks < best:
                best, tied = ranks, [(vs, i)]
            elif ranks == best:
                tied.append((vs, i))
    orders = (vs[i:] + vs[:i] for vs, i in tied)
    chords = list(chords)
    if len(tied) == 1 or not chords:
        return list(orders)
    least: Optional[tuple[int, bytes]] = None
    out: list[tuple[int, ...]] = []
    for order in orders:
        p = _chord_pack(order, chords)
        if least is None or (len(p), p) < least:
            least, out = (len(p), p), [order]
        elif (len(p), p) == least:
            out.append(order)
    return out


def dihedral_symmetries(
    cycle: Sequence[int],
    chords: Iterable[tuple[int, int]],
    label_of: dict[int, bytes],
) -> tuple[tuple[int, ...], list[dict[int, int]]]:
    """Canonical cyclic order plus all label/chord-preserving dihedral maps.

    Returns (best_order, symmetries); each symmetry maps vertex -> vertex.
    The canonical order minimizes the (label sequence, chord positions) bytes
    (`_least_orders`). The orders that encode the same as the canonical one
    are its images under exactly the symmetries, so the symmetries are read
    from them without a second search.
    """
    orders = _least_orders(cycle, chords, label_of)
    return orders[0], [dict(zip(orders[0], order)) for order in orders]


# ---------------------------------------------------------------------------
# rooted canonical codes over the block tree
# ---------------------------------------------------------------------------


# A node of the block-cut tree, oriented away from a top node: ("c", v, b) is
# cut vertex v entered from its parent block b, ("b", i, r) is block i entered
# through vertex r; b and r are None at the top.
CodeNode = tuple[str, int, Optional[int]]


class _CodeCtx(Decomposition):
    """Canonical codes of the nodes of a graph's block-cut forest.

    The code of a node covers what hangs below it, so the code of
    ("c", v, b) equals `rooted_code` of the branch at v away from block b,
    induced on its own. Codes are memoised per node, that is per (cut, parent
    block) and per (block, root), and are computed children first from an
    explicit stack, so the depth of the tree is not bounded by Python's
    recursion limit.
    """

    def __init__(self, g: ColoredGraph):
        super().__init__(g)
        self._codes: dict[CodeNode, bytes] = {}

    def top(self, root: int) -> CodeNode:
        """The node covering root's component, rooted at root: root as a cut
        (or as an isolated vertex), else root's only block pinned at root."""
        if root in self.cuts or not self.incident[root]:
            return ("c", root, None)
        return ("b", self.incident[root][0], root)

    def children(self, node: CodeNode) -> list[CodeNode]:
        kind, x, up = node
        if kind == "c":
            return [("b", b, x) for b in self.incident[x] if b != up]
        return [("c", v, x) for v in self.blocks[x] if v in self.cuts and v != up]

    def branch(self, v: int, parent_block: int) -> CodeNode:
        """What hangs below cut v away from `parent_block`: its one child
        block, rooted at v, or else v itself as a cut node."""
        below = self.children(("c", v, parent_block))
        return below[0] if len(below) == 1 else ("c", v, parent_block)

    def walk(self, top: CodeNode) -> list[tuple[CodeNode, bytes]]:
        """(node, code) for every node below `top`, children before parents."""
        order: list[CodeNode] = []
        stack = [top]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(self.children(node))
        order.reverse()
        codes = self._codes
        for node in order:
            if node not in codes:
                codes[node] = self._code(node)
        return [(node, codes[node]) for node in order]

    def code(self, node: CodeNode) -> bytes:
        if node not in self._codes:
            self.walk(node)
        return self._codes[node]

    def _code(self, node: CodeNode) -> bytes:
        """Code of `node` from the codes of its children."""
        kind, x, up = node
        colors, codes = self.g.colors, self._codes
        if kind == "c":
            below = sorted(codes[child] for child in self.children(node))
            return pack(b"c", [enc_int(colors[x])] + below)
        verts, shape, root = self.blocks[x], self.shapes[x], up
        below = {child[1]: codes[child] for child in self.children(node)}
        labels = [
            pack(b"L", [enc_int(colors[v]), below.get(v, b"")]) for v in verts
        ]
        r = None if root is None else verts.index(root)
        if shape.complete:
            if r is None:
                return pack(b"K0", [enc_int(len(verts))] + sorted(labels))
            others = sorted(labels[:r] + labels[r + 1 :])
            return pack(b"K1", [enc_int(len(verts)), labels[r]] + others)
        cs = shape.cycle
        tag = b"O0" if r is None else b"O1"
        label_of = dict(enumerate(labels))
        order = _least_orders(cs.cycle, cs.chords, label_of, r)[0]
        return tag + _order_encoding(order, cs.chords, label_of)


def rooted_code(g: ColoredGraph, root: Optional[int]) -> bytes:
    """Canonical byte code of a connected colored graph, optionally rooted."""
    if not is_connected(g):
        raise NotConnectedError("canonical codes require a connected graph")
    if g.n == 0:
        return b"E"
    if g.n == 1:
        return pack(b"V", [enc_int(g.colors[0])])
    if root is not None and not (0 <= root < g.n):
        raise ValueError("root outside vertex range")
    ctx = _CodeCtx(g)
    return ctx.code(ctx.tops[0] if root is None else ctx.top(root))
