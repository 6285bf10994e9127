"""Quantum automorphism groups by one post-order pass over the block-cut forest.

`qut` reads one `canon._CodeCtx` of its input: the graph class, the top node
of each component and the canonical codes of all nodes. Children first, the
pass gives each distinct code its quantum group. A cut vertex contributes a
free product of free wreaths over the isomorphism classes of the branches
below it, and the components combine the same way (an isolated vertex has no
branches). A block contributes a free inhomogeneous wreath of branch
stabilizers over the orbits of the block's own quantum group, with each child
cut vertex labelled by the code of what hangs below it. Each tree is oriented
toward its center, or toward the root of a rooted call."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from . import canon
# unused names below stay importable here because perfbench/tracer.py wraps them
from .blocks import (  # noqa: F401
    BlockTree,
    biconnected_components,
    block_tree,
    cut_vertices,
    subgraph_below,
)
from .classrec import BlockShape, CycleStructure, GraphClass
from .classrec import classify, hamiltonian_cycle  # noqa: F401
from .errors import ClassRefusedError, NotConnectedError
from .graph import (
    ColoredGraph,
    complement,
    connected_components,
    induced_subgraph,  # noqa: F401
    is_connected,
)
from .qexpr import (
    TRIVIAL,
    QGroupExpr,
    classical,
    free_product,
    free_wreath,
    inhom_free_wreath,
    is_classical,
    quantum_orbits,
    symq,
)
from .wl import stable_coloring, vertex_classes

FORCED_ASSUMPTION = (
    "iso <=> quantum-iso assumed for encountered rooted subgraphs (mixed-class mode)"
)


@dataclass(frozen=True)
class QutResult:
    expr: QGroupExpr
    assumptions: tuple[str, ...]
    graph_class: GraphClass


# ---------------------------------------------------------------------------
# block atoms
# ---------------------------------------------------------------------------


def _label(color: int, branch: bytes, pinned: bool) -> bytes:
    """A block vertex's label: colour, code of the branch below it, pin mark."""
    return canon.pack(b"L", [canon.enc_int(color), branch, b"P" if pinned else b""])


def _labeled(b: ColoredGraph, labels: Sequence[bytes]) -> ColoredGraph:
    uniq = sorted(set(labels))
    rank = {lab: i for i, lab in enumerate(uniq)}
    return ColoredGraph(
        n=b.n, edges=b.edges, colors=tuple(rank[lab] for lab in labels)
    )


def _four_atom(
    bb: ColoredGraph, labels: Sequence[bytes]
) -> tuple[QGroupExpr, list[tuple[int, ...]]]:
    """Qut of an unpinned 4-vertex non-complete block via its complement.

    The complement of such a block is a disjoint union of K2 and K1 pieces;
    isomorphism classes of pieces drive the composition, label classes within
    a piece class drive the orbit partition.
    """
    h = complement(bb)
    comps = connected_components(h)
    groups: dict[tuple, list[tuple[int, ...]]] = {}
    for comp in comps:
        key = (len(comp), tuple(sorted(labels[v] for v in comp)))
        groups.setdefault(key, []).append(comp)
    parts: list[QGroupExpr] = []
    orbits: list[tuple[int, ...]] = []
    for key in sorted(groups):
        members = groups[key]
        k = len(members)
        size = key[0]
        if size == 1:
            parts.append(free_wreath(TRIVIAL, symq(k)))
            orbits.append(tuple(sorted(v for comp in members for v in comp)))
            continue
        u, v = members[0]
        if labels[u] == labels[v]:
            parts.append(free_wreath(symq(2), symq(k)))
            orbits.append(tuple(sorted(x for comp in members for x in comp)))
            continue
        if k == 1:
            parts.append(TRIVIAL)
            for x in sorted((u, v), key=lambda y: labels[y]):
                orbits.append((x,))
            continue
        # two complement-K2 copies with distinct endpoint labels: the copies
        # can only be swapped label-respectingly and simultaneously, giving a
        # diagonal involution on all four vertices
        group = canon.ClassicalPermGroup(
            degree=4, generators=((1, 0, 3, 2),), order=2
        )
        by_label: dict[bytes, list[int]] = {}
        for comp in members:
            for x in comp:
                by_label.setdefault(labels[x], []).append(x)
        return classical(group), [
            tuple(sorted(by_label[lab])) for lab in sorted(by_label)
        ]
    return free_product(parts), orbits


def _dihedral_atom(
    bb: ColoredGraph,
    labels: Sequence[bytes],
    pin: Optional[int],
    cs: CycleStructure,
) -> tuple[QGroupExpr, list[tuple[int, ...]]]:
    """Classical route for outerplanar blocks: all symmetry is dihedral."""
    n = bb.n
    lab_of = {v: labels[v] for v in range(n)}
    best_order, sym_maps = canon.dihedral_symmetries(cs.cycle, cs.chords, lab_of)
    elements = [tuple(sigma[v] for v in range(n)) for sigma in sym_maps]
    raw_group = canon.group_from_elements(n, elements)
    aut_orbits = canon.orbits(raw_group, range(n))
    wl_classes = vertex_classes(stable_coloring(bb))
    orbs = quantum_orbits(aut_orbits, wl_classes)
    phi = {v: i for i, v in enumerate(best_order)}
    orbs = sorted(orbs, key=lambda orb: min(phi[v] for v in orb))
    order = raw_group.order
    if order == 1:
        return TRIVIAL, orbs
    if n == 4 and pin is not None:
        moved = [
            v
            for v in range(n)
            if any(p[v] != v for p in elements)
        ]
        if order == 2 and len(moved) == 2:
            # pinned 4-vertex stabilizer: a single transposition, i.e. the
            # full quantum vertex stabilizer of C4 or the diamond
            return symq(2), orbs
    conj = [
        tuple(phi[sigma[best_order[i]]] for i in range(n)) for sigma in sym_maps
    ]
    group = canon.group_from_elements(n, conj)
    return classical(group), orbs


def _block_atom(
    shape: BlockShape, labels: Sequence[bytes], pin: Optional[int]
) -> tuple[QGroupExpr, list[tuple[int, ...]]]:
    """Dispatch for a single block, returning (expression, canonical orbits)."""
    n = len(labels)
    if n == 0:
        return TRIVIAL, []
    if shape.complete:
        classes: dict[bytes, list[int]] = {}
        for v in range(n):
            classes.setdefault(labels[v], []).append(v)
        ordered = [tuple(sorted(classes[lab])) for lab in sorted(classes)]
        expr = free_product([symq(len(c)) for c in ordered])
        return expr, ordered
    bb = _labeled(shape.graph, labels)
    if n == 4 and pin is None:
        return _four_atom(bb, labels)
    return _dihedral_atom(bb, labels, pin, shape.cycle)


def qut_block_atom(b: ColoredGraph, pin: Optional[int] = None) -> QGroupExpr:
    """Quantum automorphism group of a single (colored, optionally pinned) block."""
    labels = [_label(b.colors[v], b"", v == pin) for v in range(b.n)]
    expr, _ = _block_atom(BlockShape(b, range(b.n)), labels, pin)
    return expr


# ---------------------------------------------------------------------------
# one post-order pass over the block-cut tree
# ---------------------------------------------------------------------------


def _cut_formula(codes: Iterable[bytes], memo: dict[bytes, QGroupExpr]) -> QGroupExpr:
    """Group of the branches at a cut vertex, or of a disjoint union: a free
    product, over the classes of equal codes, of free wreaths by S^+(size);
    trivial when there is nothing below."""
    counts = Counter(codes)
    return free_product(
        [free_wreath(memo[code], symq(k)) for code, k in sorted(counts.items())]
        or [TRIVIAL]
    )


def _block_formula(
    ctx: canon._CodeCtx, node: canon.CodeNode, memo: dict[bytes, QGroupExpr]
) -> QGroupExpr:
    """Inhomogeneous free wreath of branch groups over the block's orbits."""
    _, bid, root = node
    verts = ctx.blocks[bid]
    branch = {v: ctx.code(ctx.branch(v, bid)) for _, v, _ in ctx.children(node)}
    labels = [_label(ctx.g.colors[v], branch.get(v, b""), v == root) for v in verts]
    pin = None if root is None else verts.index(root)
    base_expr, orbits = _block_atom(ctx.shapes[bid], labels, pin)
    factors = []
    for orb in orbits:
        # an orbit lies in one label class, so its first vertex stands for all
        v = verts[orb[0]]
        factors.append((memo[branch[v]] if v in branch else TRIVIAL, len(orb)))
    return inhom_free_wreath(factors, base_expr)


def _qut_pass(ctx: canon._CodeCtx, tops: Sequence[canon.CodeNode]) -> QGroupExpr:
    """Qut of the disjoint union of what hangs below `tops`.

    Each node below a top is visited once, children first; its group is
    built from the children's groups the first time its code occurs, so a
    repeated branch or component costs its codes only.
    """
    memo: dict[bytes, QGroupExpr] = {}
    for top in tops:
        for node, code in ctx.walk(top):
            if code in memo:
                continue
            if node[0] == "c":
                below = [ctx.code(child) for child in ctx.children(node)]
                memo[code] = _cut_formula(below, memo)
            else:
                memo[code] = _block_formula(ctx, node, memo)
    return _cut_formula([ctx.code(top) for top in tops], memo)


def _qut_rooted(g: ColoredGraph, root: Optional[int]) -> QGroupExpr:
    ctx = canon._CodeCtx(g)
    return _qut_pass(ctx, ctx.tops if root is None else [ctx.top(root)])


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def qut_connected(g: ColoredGraph) -> QGroupExpr:
    if not is_connected(g):
        raise NotConnectedError("qut_connected requires a connected graph")
    return _qut_rooted(g, None)


def qut(g: ColoredGraph, force: bool = False) -> QutResult:
    ctx = canon._CodeCtx(g)
    cls = ctx.graph_class
    assumptions: tuple[str, ...] = ()
    if cls is GraphClass.UNSUPPORTED:
        if not force:
            raise ClassRefusedError(
                "graph is outside the supported classes (forest, outerplanar,"
                " block graph); rerun with force to assume the rooted"
                " iso <=> quantum-iso hypothesis"
            )
        assumptions = (FORCED_ASSUMPTION,)
    expr = _qut_pass(ctx, ctx.tops)
    return QutResult(expr=expr, assumptions=assumptions, graph_class=cls)


def qut_central_cut(g: ColoredGraph, t: BlockTree, alpha: int) -> QGroupExpr:
    if t.center != ("c", alpha):
        raise ValueError(f"vertex {alpha} is not the central cut vertex")
    return _qut_rooted(g, None)


def qut_rooted_cut(g: ColoredGraph, t: BlockTree, alpha: int) -> QGroupExpr:
    rg, _ = subgraph_below(g, t, ("c", alpha))
    return _qut_rooted(rg.graph, rg.root)


def qut_central_block(g: ColoredGraph, t: BlockTree, block_index: int) -> QGroupExpr:
    if t.center != ("b", block_index):
        raise ValueError(f"block {block_index} is not the central block")
    return _qut_rooted(g, None)


def qut_rooted_block(
    g: ColoredGraph, t: BlockTree, block_index: int, alpha: int
) -> QGroupExpr:
    if alpha not in t.blocks[block_index]:
        raise ValueError(f"vertex {alpha} is not in block {block_index}")
    rg, rel = subgraph_below(g, t, ("b", block_index))
    return _qut_rooted(rg.graph, rel[alpha])


def has_quantum_symmetry(g: ColoredGraph) -> bool:
    return not is_classical(qut(g).expr)
