"""Independent |Aut| oracles for the benchmark's inputs.

None of this imports ``qblock``. It reads the same edge-list text the program
reads and counts colour-preserving automorphisms in one of three ways:

* ``ahu``: graphs whose blocks are all complete (forests, block graphs).
  AHU-style counting (Aho-Hopcroft-Ullman) over the block-cut tree rooted at
  its centre: a node's count is the product, over classes of equal child
  codes, of ``k! * child_count**k``.
* ``vf2``: any graph. |Aut| is the product of orbit sizes along a stabiliser
  chain. Candidates for an orbit are taken from the colour-refined (1-WL)
  cell of the point; each candidate is tested with networkx's VF2++ under
  pinned node labels, and every automorphism found merges orbits so that
  most candidates need no test.
* ``backtrack``: the same chain, with a plain backtracking search in place of
  VF2++ (used for the small graphs).
"""

from __future__ import annotations

from math import factorial

Adj = list[set[int]]


def parse_edgelist(text: str) -> tuple[Adj, list[int]]:
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    n = int(lines[0][0])
    adj: Adj = [set() for _ in range(n)]
    colors = [0] * n
    for parts in lines[1:]:
        if parts[0] == "c":
            colors[int(parts[1])] = int(parts[2])
        else:
            u, v = int(parts[0]), int(parts[1])
            adj[u].add(v)
            adj[v].add(u)
    return adj, colors


def aut_order(text: str, method: str) -> int:
    adj, colors = parse_edgelist(text)
    if method == "ahu":
        return ahu_aut_order(adj, colors)
    if method == "vf2":
        return chain_aut_order(adj, colors, _vf2_isomorphism)
    if method == "backtrack":
        return chain_aut_order(adj, colors, _backtrack_isomorphism)
    raise ValueError(f"unknown oracle {method!r}")


def _components(adj: Adj) -> list[list[int]]:
    seen = [False] * len(adj)
    comps = []
    for s in range(len(adj)):
        if seen[s]:
            continue
        seen[s] = True
        comp, stack = [], [s]
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(comp)
    return comps


def _class_product(codes_and_counts: list[tuple[int, int]]) -> int:
    """prod over classes of equal codes of k! * count**k."""
    by_code: dict[int, list[int]] = {}
    for code, count in codes_and_counts:
        by_code.setdefault(code, []).append(count)
    out = 1
    for counts in by_code.values():
        out *= factorial(len(counts)) * counts[0] ** len(counts)
    return out


# ---------------------------------------------------------------------------
# AHU counting over the block-cut tree
# ---------------------------------------------------------------------------


def _blocks(adj: Adj, start: int) -> list[set[int]]:
    """Biconnected components of the component of `start` (iterative Tarjan)."""
    disc: dict[int, int] = {start: 0}
    low: dict[int, int] = {start: 0}
    blocks: list[set[int]] = []
    edge_stack: list[tuple[int, int]] = []
    stack = [(start, -1, iter(adj[start]))]
    while stack:
        u, parent, it = stack[-1]
        for w in it:
            if w not in disc:
                disc[w] = low[w] = len(disc)
                edge_stack.append((u, w))
                stack.append((w, u, iter(adj[w])))
                break
            if w != parent and disc[w] < disc[u]:
                edge_stack.append((u, w))
                low[u] = min(low[u], disc[w])
        else:
            stack.pop()
            if not stack:
                continue
            p = stack[-1][0]
            low[p] = min(low[p], low[u])
            if low[u] >= disc[p]:
                block: set[int] = set()
                while True:
                    a, b = edge_stack.pop()
                    block.update((a, b))
                    if (a, b) == (p, u):
                        break
                blocks.append(block)
    return blocks


def ahu_aut_order(adj: Adj, colors: list[int]) -> int:
    intern: dict[tuple, int] = {}
    comps = []
    for comp in _components(adj):
        comps.append(_ahu_component(adj, colors, comp, intern))
    return _class_product(comps)


def _ahu_component(
    adj: Adj, colors: list[int], comp: list[int], intern: dict[tuple, int]
) -> tuple[int, int]:
    """(code, |Aut|) of one connected component whose blocks are complete."""
    if len(comp) == 1:
        v = comp[0]
        return intern.setdefault(("v", colors[v]), len(intern)), 1
    blocks = _blocks(adj, comp[0])
    for blk in blocks:
        if any(len(adj[v] & blk) != len(blk) - 1 for v in blk):
            raise ValueError("ahu oracle needs every block to be complete")
    # block-cut tree: node ("b", i) for block i, ("c", v) for cut vertex v
    member: dict[int, list[int]] = {}
    for i, blk in enumerate(blocks):
        for v in blk:
            member.setdefault(v, []).append(i)
    tree: dict[tuple, list[tuple]] = {("b", i): [] for i in range(len(blocks))}
    for v, bs in member.items():
        if len(bs) > 1:
            tree[("c", v)] = [("b", i) for i in bs]
            for i in bs:
                tree[("b", i)].append(("c", v))
    root = _tree_center(tree)
    # BFS from the centre, then codes bottom-up
    parent: dict[tuple, tuple | None] = {root: None}
    order = [root]
    for node in order:
        for nb in tree[node]:
            if nb not in parent:
                parent[nb] = node
                order.append(nb)
    code: dict[tuple, int] = {}
    count: dict[tuple, int] = {}
    for node in reversed(order):
        kind, x = node
        if kind == "c":
            kids = [(code[b], count[b]) for b in tree[node] if b != parent[node]]
            key = ("c", colors[x], tuple(sorted(c for c, _ in kids)))
        else:
            up = parent[node][1] if parent[node] is not None else None
            kids = []
            for v in blocks[x]:
                if v == up:
                    continue
                if ("c", v) in tree:
                    kids.append((code[("c", v)], count[("c", v)]))
                else:
                    kids.append((intern.setdefault(("v", colors[v]), len(intern)), 1))
            key = ("b", tuple(sorted(c for c, _ in kids)))
        code[node] = intern.setdefault(key, len(intern))
        count[node] = _class_product(kids)
    return code[root], count[root]


def _tree_center(tree: dict[tuple, list[tuple]]) -> tuple:
    """The centre of a tree whose leaves are all at even distance: one node."""
    degree = {v: len(nb) for v, nb in tree.items()}
    layer = [v for v, d in degree.items() if d <= 1]
    remaining = len(tree)
    removed: set[tuple] = set()
    while remaining > 1:
        nxt = []
        for v in layer:
            removed.add(v)
            remaining -= 1
            for w in tree[v]:
                if w not in removed:
                    degree[w] -= 1
                    if degree[w] == 1:
                        nxt.append(w)
        layer = nxt
    (center,) = [v for v in tree if v not in removed]
    return center


# ---------------------------------------------------------------------------
# stabiliser chain
# ---------------------------------------------------------------------------


def refine(adj: Adj, initial: list) -> list[int]:
    """Stable 1-WL colouring; colour ids are isomorphism-invariant."""
    ids = {c: i for i, c in enumerate(sorted(set(initial)))}
    col = [ids[c] for c in initial]
    classes = len(ids)
    while True:
        sig = [(col[v], tuple(sorted(col[u] for u in adj[v]))) for v in range(len(adj))]
        ids = {s: i for i, s in enumerate(sorted(set(sig)))}
        col = [ids[s] for s in sig]
        if len(ids) == classes:
            return col
        classes = len(ids)


def chain_aut_order(adj: Adj, colors: list[int], find_iso) -> int:
    """|Aut| = product of orbit sizes along a pointwise stabiliser chain.

    `find_iso(adj, labels_a, labels_b)` returns a label-preserving bijection
    of the graph onto itself (as a dict, labels_a on the left) or None.
    """
    n = len(adj)
    pin = [-1] * n
    order = 1
    while True:
        base = refine(adj, list(zip(colors, pin)))
        if len(set(base)) == n:
            return order
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(base):
            cells.setdefault(c, []).append(v)
        cell = min((c for c in cells.values() if len(c) > 1), key=len)
        v = cell[0]
        level = max(pin) + 1
        pin_v = pin[:]
        pin_v[v] = level
        labels_v = refine(adj, list(zip(colors, pin_v)))
        # union-find over the cell: orbits of the current stabiliser
        root = {u: u for u in cell}

        def find(u: int) -> int:
            while root[u] != u:
                root[u] = root[root[u]]
                u = root[u]
            return u

        for w in cell[1:]:
            if find(w) == find(v):
                continue
            pin_w = pin[:]
            pin_w[w] = level
            labels_w = refine(adj, list(zip(colors, pin_w)))
            if sorted(labels_v) != sorted(labels_w):
                continue
            sigma = find_iso(adj, labels_v, labels_w)
            if sigma is None:
                continue
            for u in cell:
                a, b = find(u), find(sigma[u])
                if a != b:
                    root[a] = b
        order *= sum(1 for u in cell if find(u) == find(v))
        pin = pin_v


def _vf2_isomorphism(adj: Adj, labels_a: list[int], labels_b: list[int]):
    import networkx as nx

    ga, gb = nx.Graph(), nx.Graph()
    for g, labels in ((ga, labels_a), (gb, labels_b)):
        g.add_nodes_from((v, {"lab": labels[v]}) for v in range(len(adj)))
        g.add_edges_from((u, w) for u in range(len(adj)) for w in adj[u] if u < w)
    return nx.vf2pp_isomorphism(ga, gb, node_label="lab")


def _backtrack_isomorphism(adj: Adj, labels_a: list[int], labels_b: list[int]):
    """Plain depth-first search for a label-preserving self-bijection."""
    n = len(adj)
    order = sorted(range(n), key=lambda v: (-len(adj[v]), v))
    by_label: dict[int, list[int]] = {}
    for w in range(n):
        by_label.setdefault(labels_b[w], []).append(w)
    image: dict[int, int] = {}
    used: set[int] = set()

    def extend(i: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for w in by_label.get(labels_a[v], ()):
            if w in used:
                continue
            if any((u in adj[v]) != (image[u] in adj[w]) for u in image):
                continue
            image[v] = w
            used.add(w)
            if extend(i + 1):
                return True
            del image[v]
            used.discard(w)
        return False

    return dict(image) if extend(0) else None
