"""Biconnected decomposition, block tree with center/levels, rooted subgraphs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Optional, Sequence

from .errors import NotConnectedError, UnknownNodeError
from .graph import ColoredGraph, induced_subgraph, is_connected

# Block-tree nodes: ('b', block_index) or ('c', cut_vertex)
Node = tuple[str, int]


@dataclass(frozen=True)
class RootedGraph:
    """A graph with an optional pinned root vertex."""

    graph: ColoredGraph
    root: Optional[int] = None

    def __post_init__(self):
        if self.root is not None and not (0 <= self.root < self.graph.n):
            raise ValueError("root outside vertex range")


@dataclass(frozen=True)
class BlockTree:
    blocks: tuple[tuple[int, ...], ...]
    cuts: tuple[int, ...]
    tree_edges: frozenset[tuple[int, int]]  # (block index, cut vertex)
    center: Node
    level: dict[Node, int]
    parent: dict[Node, Optional[Node]]
    _children: dict[Optional[Node], list[Node]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        kids: dict[Optional[Node], list[Node]] = {}
        for nd in sorted(self.parent):
            kids.setdefault(self.parent[nd], []).append(nd)
        object.__setattr__(self, "_children", kids)

    def nodes(self) -> list[Node]:
        return [("b", i) for i in range(len(self.blocks))] + [
            ("c", v) for v in self.cuts
        ]

    def children(self, node: Node) -> list[Node]:
        return list(self._children.get(node, ()))


def _dfs_blocks(g: ColoredGraph) -> tuple[list[set[int]], set[int]]:
    """Iterative Hopcroft-Tarjan: blocks as vertex sets, plus cut vertices."""
    n = g.n
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    cuts: set[int] = set()
    blocks: list[set[int]] = []
    edge_stack: list[tuple[int, int]] = []
    timer = 0
    for start in range(n):
        if disc[start] != -1:
            continue
        root_children = 0
        stack = [(start, iter(sorted(g.adjacency[start])))]
        disc[start] = low[start] = timer
        timer += 1
        while stack:
            u, it = stack[-1]
            advanced = False
            for v in it:
                if disc[v] == -1:
                    parent[v] = u
                    if u == start:
                        root_children += 1
                    edge_stack.append((u, v))
                    disc[v] = low[v] = timer
                    timer += 1
                    stack.append((v, iter(sorted(g.adjacency[v]))))
                    advanced = True
                    break
                elif v != parent[u] and disc[v] < disc[u]:
                    edge_stack.append((u, v))
                    low[u] = min(low[u], disc[v])
            if advanced:
                continue
            stack.pop()
            if stack:
                p = stack[-1][0]
                low[p] = min(low[p], low[u])
                if low[u] >= disc[p]:
                    # p separates the subtree at u: pop one block
                    block_edges = []
                    while edge_stack:
                        e = edge_stack.pop()
                        block_edges.append(e)
                        if e == (p, u):
                            break
                    verts = {p}
                    for a, b in block_edges:
                        verts.add(a)
                        verts.add(b)
                    blocks.append(verts)
                    if p != start:
                        cuts.add(p)
        if root_children >= 2:
            cuts.add(start)
    return blocks, cuts


def _sorted_blocks(blocks: list[set[int]]) -> list[tuple[int, ...]]:
    return sorted((tuple(sorted(b)) for b in blocks), key=lambda t: (t[0], t))


def cut_vertices(g: ColoredGraph) -> tuple[int, ...]:
    _, cuts = _dfs_blocks(g)
    return tuple(sorted(cuts))


def biconnected_components(g: ColoredGraph) -> list[tuple[int, ...]]:
    """Blocks as sorted vertex tuples, ordered by (min vertex, tuple).

    Isolated vertices yield no block (a block always carries an edge).
    """
    blocks, _ = _dfs_blocks(g)
    return _sorted_blocks(blocks)


def _peel(
    blocks: Sequence[Sequence[int]], cuts: Collection[int]
) -> tuple[dict[Node, set[Node]], dict[Node, int], list[Node]]:
    """The block-cut forest of `blocks`, peeled from its leaves.

    Returns the forest's adjacency, the level of each node (the round in
    which it becomes a leaf) and the center of each tree, its node with no
    neighbour of higher level; a block-cut tree has one center.
    """
    adj: dict[Node, set[Node]] = {("b", i): set() for i in range(len(blocks))}
    for i, blk in enumerate(blocks):
        for v in blk:
            if v in cuts:
                adj[("b", i)].add(("c", v))
                adj.setdefault(("c", v), set()).add(("b", i))
    level: dict[Node, int] = {}
    deg = {nd: len(ws) for nd, ws in adj.items()}
    leaves = [nd for nd, d in deg.items() if d <= 1]
    rnd = 0
    while leaves:
        for nd in leaves:
            level[nd] = rnd
        # a node becomes a leaf of the next round as its degree drops to 1
        nxt = []
        for nd in leaves:
            for w in adj[nd]:
                if w not in level:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        leaves, rnd = nxt, rnd + 1
    centers = [nd for nd, ws in adj.items() if all(level[w] <= level[nd] for w in ws)]
    return adj, level, centers


def block_tree(g: ColoredGraph) -> BlockTree:
    if g.n == 0:
        raise NotConnectedError(
            "block tree requires a connected graph; the empty graph has no vertices"
        )
    if not is_connected(g):
        raise NotConnectedError("block tree requires a connected graph")
    # a single vertex is a degenerate block of its own
    raw_blocks, cutset = ([{0}], set()) if g.n == 1 else _dfs_blocks(g)
    blocks = _sorted_blocks(raw_blocks)
    adj, level, (center,) = _peel(blocks, cutset)
    tree_edges = frozenset(
        (i, v) for (kind, i), ws in adj.items() if kind == "b" for _, v in ws
    )

    # orient toward center
    parent: dict[Node, Optional[Node]] = {center: None}
    frontier = [center]
    while frontier:
        nd = frontier.pop()
        for w in sorted(adj[nd]):
            if w not in parent:
                parent[w] = nd
                frontier.append(w)
    return BlockTree(
        blocks=tuple(blocks),
        cuts=tuple(sorted(cutset)),
        tree_edges=tree_edges,
        center=center,
        level=level,
        parent=parent,
    )


def subtree_vertices(t: BlockTree, node: Node) -> tuple[int, ...]:
    """Graph vertices covered by the block-tree subtree rooted at `node`."""
    if node not in t.parent:
        raise UnknownNodeError(f"node {node} not in block tree")
    verts: set[int] = set()
    stack = [node]
    while stack:
        nd = stack.pop()
        if nd[0] == "b":
            verts.update(t.blocks[nd[1]])
        else:
            verts.add(nd[1])
        stack.extend(t.children(nd))
    return tuple(sorted(verts))


def subgraph_below(
    g: ColoredGraph, t: BlockTree, node: Node
) -> tuple[RootedGraph, dict[int, int]]:
    """Induced subgraph X^{<=node}; rooted at the cut vertex for cut nodes.

    Returns the rooted graph and the old->new vertex relabel map.
    """
    verts = subtree_vertices(t, node)
    sub, relabel_map = induced_subgraph(g, verts)
    root = relabel_map[node[1]] if node[0] == "c" else None
    return RootedGraph(graph=sub, root=root), relabel_map


def child_cut_vertices(t: BlockTree, block_index: int) -> tuple[int, ...]:
    """Cut vertices of the block whose parent (in the oriented tree) is the block."""
    out = [
        nd[1] for nd in t.children(("b", block_index)) if nd[0] == "c"
    ]
    return tuple(sorted(out))


def child_blocks(t: BlockTree, cut_vertex: int) -> tuple[int, ...]:
    out = [nd[1] for nd in t.children(("c", cut_vertex)) if nd[0] == "b"]
    return tuple(sorted(out))
