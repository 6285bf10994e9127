"""Shared builders, independent oracles, and family generators for the tests.

The automorphism-counting and tree-canonicalization code here is deliberately
written from scratch (plain adjacency sets, AHU codes, permutation search) so
it can serve as an oracle for the package's own machinery.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Iterable, Optional, Sequence

from qblock.graph import ColoredGraph, make_graph, relabel

Edge = tuple[int, int]


# ---------------------------------------------------------------------------
# named builders
# ---------------------------------------------------------------------------


def path_graph(n: int) -> ColoredGraph:
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> ColoredGraph:
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> ColoredGraph:
    return make_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves: int) -> ColoredGraph:
    return make_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def graph_from_edges(n: int, edges: Iterable[Edge], colors=None) -> ColoredGraph:
    return make_graph(n, edges, colors)


C4 = cycle_graph(4)
DIAMOND = make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
BOWTIE = make_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
W5 = make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)] + [(5, i) for i in range(5)])


# ---------------------------------------------------------------------------
# independent brute-force automorphism oracle
# ---------------------------------------------------------------------------


def brute_automorphisms(
    g: ColoredGraph, pins: Sequence[int] = ()
) -> list[tuple[int, ...]]:
    """All automorphisms via plain backtracking on adjacency sets."""
    n = g.n
    adj = [set(g.adjacency[v]) for v in range(n)]
    deg = [len(adj[v]) for v in range(n)]
    pinset = set(pins)
    out: list[tuple[int, ...]] = []
    image: list[Optional[int]] = [None] * n
    taken = [False] * n

    def rec(v: int) -> None:
        if v == n:
            out.append(tuple(image))  # type: ignore[arg-type]
            return
        choices = [v] if v in pinset else range(n)
        for w in choices:
            if taken[w] or deg[v] != deg[w] or g.colors[v] != g.colors[w]:
                continue
            good = True
            for u in range(v):
                if ((u in adj[v]) != (image[u] in adj[w])):
                    good = False
                    break
            if not good:
                continue
            image[v] = w
            taken[w] = True
            rec(v + 1)
            image[v] = None
            taken[w] = False

    rec(0)
    return out


def brute_aut_order(g: ColoredGraph, pins: Sequence[int] = ()) -> int:
    return len(brute_automorphisms(g, pins))


def brute_orbits(g: ColoredGraph) -> list[tuple[int, ...]]:
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in brute_automorphisms(g):
        for v in range(g.n):
            a, b = find(v), find(p[v])
            if a != b:
                parent[a] = b
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(find(v), []).append(v)
    return sorted((tuple(sorted(vs)) for vs in groups.values()), key=lambda t: t[0])


# ---------------------------------------------------------------------------
# independent tree enumeration (AHU canonicalization)
# ---------------------------------------------------------------------------

_RTREE_CACHE: dict[int, list[tuple]] = {1: [()]}


def rooted_tree_structures(n: int) -> list[tuple]:
    """Canonical rooted trees with n nodes as sorted tuples of child trees."""
    if n in _RTREE_CACHE:
        return _RTREE_CACHE[n]
    out: set[tuple] = set()

    def extend(remaining: int, bound, acc: list) -> None:
        if remaining == 0:
            out.add(tuple(t for _, t in acc))
            return
        top = remaining if bound is None else min(remaining, bound[0])
        for s in range(top, 0, -1):
            for t in rooted_tree_structures(s):
                key = (s, t)
                if bound is not None and key > bound:
                    continue
                acc.append(key)
                extend(remaining - s, key, acc)
                acc.pop()

    extend(n - 1, None, [])
    res = sorted(out)
    _RTREE_CACHE[n] = res
    return res


def structure_to_graph(tree: tuple) -> ColoredGraph:
    edges: list[Edge] = []
    counter = [0]

    def walk(t: tuple, parent: Optional[int]) -> None:
        me = counter[0]
        counter[0] += 1
        if parent is not None:
            edges.append((parent, me))
        for child in t:
            walk(child, me)

    walk(tree, None)
    return make_graph(counter[0], edges)


def _tree_centers(adj: list[set[int]]) -> list[int]:
    n = len(adj)
    if n == 1:
        return [0]
    degs = [len(a) for a in adj]
    removed = [False] * n
    layer = [v for v in range(n) if degs[v] <= 1]
    remaining = n
    while remaining > 2:
        nxt = []
        for v in layer:
            removed[v] = True
            remaining -= 1
            for w in adj[v]:
                if not removed[w]:
                    degs[w] -= 1
                    if degs[w] == 1:
                        nxt.append(w)
        layer = nxt
    return sorted(v for v in range(n) if not removed[v])


def ahu_code(g: ColoredGraph, root: int) -> tuple:
    def rec(v: int, parent: Optional[int]) -> tuple:
        children = sorted(
            rec(w, v) for w in g.adjacency[v] if w != parent
        )
        return (g.colors[v], tuple(children))

    return rec(root, None)


def tree_canonical(g: ColoredGraph) -> tuple:
    """Canonical form of an unlabeled (colored) free tree via its center(s)."""
    adj = [set(g.adjacency[v]) for v in range(g.n)]
    return min(ahu_code(g, c) for c in _tree_centers(adj))


def free_trees(n: int) -> list[ColoredGraph]:
    seen: dict[tuple, ColoredGraph] = {}
    for t in rooted_tree_structures(n):
        g = structure_to_graph(t)
        key = tree_canonical(g)
        if key not in seen:
            seen[key] = g
    return [seen[k] for k in sorted(seen)]


FREE_TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47}
ROOTED_TREE_COUNT_9 = 286


# ---------------------------------------------------------------------------
# outerplanar chord machinery
# ---------------------------------------------------------------------------


def _crossing(c1: Edge, c2: Edge) -> bool:
    (a, b), (c, d) = sorted(c1), sorted(c2)
    return (a < c < b < d) or (c < a < d < b)


def cycle_chord_candidates(m: int) -> list[Edge]:
    return [
        (i, j)
        for i in range(m)
        for j in range(i + 2, m)
        if not (i == 0 and j == m - 1)
    ]


def noncrossing_chord_sets(m: int) -> list[tuple[Edge, ...]]:
    """All pairwise non-crossing chord subsets of the m-cycle (incl. empty)."""
    cands = cycle_chord_candidates(m)
    out: list[tuple[Edge, ...]] = []

    def rec(idx: int, acc: list[Edge]) -> None:
        out.append(tuple(acc))
        for i in range(idx, len(cands)):
            c = cands[i]
            if all(not _crossing(c, a) for a in acc):
                acc.append(c)
                rec(i + 1, acc)
                acc.pop()

    rec(0, [])
    return out


def outerplanar_block_graph(m: int, chords: Iterable[Edge]) -> ColoredGraph:
    edges = [(i, (i + 1) % m) for i in range(m)]
    edges.extend(chords)
    return make_graph(m, edges)


def hexagon_chain(k: int) -> ColoredGraph:
    """k hexagons in a row, each joined to the next at antipodal vertices.

    Hexagon i is the cycle 5i, 5i+1, 5i+2, 5i+5, 5i+4, 5i+3: it is entered at
    5i and left at its antipode 5i+5, the next hexagon's entry. The chain has
    5k+1 vertices.
    """
    edges = []
    for i in range(k):
        a = 5 * i
        ring = [a, a + 1, a + 2, a + 5, a + 4, a + 3]
        edges.extend((ring[j], ring[(j + 1) % 6]) for j in range(6))
    return make_graph(5 * k + 1, edges)


# ---------------------------------------------------------------------------
# random generators (seeded)
# ---------------------------------------------------------------------------


def rand_connected_graph(rng: random.Random, n: int) -> ColoredGraph:
    verts = list(range(n))
    rng.shuffle(verts)
    edges = set()
    for i in range(1, n):
        u = verts[rng.randrange(i)]
        v = verts[i]
        edges.add((min(u, v), max(u, v)))
    extra = rng.randint(0, max(0, n * (n - 1) // 2 - (n - 1)))
    pool = [
        (i, j)
        for i, j in combinations(range(n), 2)
        if (i, j) not in edges
    ]
    rng.shuffle(pool)
    edges.update(pool[:extra])
    return make_graph(n, edges)


def _glue_block(
    rng: random.Random,
    edges: list[Edge],
    n: int,
    block_edges_local: list[Edge],
    block_size: int,
) -> int:
    """Attach a block at a random existing vertex; returns the new vertex count."""
    attach = rng.randrange(n) if n > 0 else None
    ids: dict[int, int] = {}
    if attach is not None:
        ids[0] = attach
    nxt = n
    for v in range(block_size):
        if v not in ids:
            ids[v] = nxt
            nxt += 1
    for u, v in block_edges_local:
        a, b = ids[u], ids[v]
        edges.append((min(a, b), max(a, b)))
    return nxt


def rand_outerplanar(rng: random.Random, n_max: int = 9) -> ColoredGraph:
    target = rng.randint(2, n_max)
    edges: list[Edge] = []
    n = 1
    while n < target:
        budget = target - n
        if budget < 2 or rng.random() < 0.4:
            block = [(0, 1)]
            size = 2
        else:
            size = rng.randint(3, min(budget + 1, 7))
            block = [(i, (i + 1) % size) for i in range(size)]
            cands = cycle_chord_candidates(size)
            rng.shuffle(cands)
            acc: list[Edge] = []
            for c in cands:
                if rng.random() < 0.35 and all(not _crossing(c, a) for a in acc):
                    acc.append(c)
            block.extend(acc)
        n = _glue_block(rng, edges, n, block, size)
    return make_graph(n, edges)


def rand_outerplanar_block(rng: random.Random, m: int) -> ColoredGraph:
    """A relabelled m-cycle with up to m random pairwise non-crossing chords."""
    chords: list[Edge] = []
    for c in rng.sample(cycle_chord_candidates(m), min(m, m * (m - 3) // 2)):
        if all(not _crossing(c, a) for a in chords):
            chords.append(c)
    return relabel(outerplanar_block_graph(m, chords), rand_permutation(rng, m))


def rand_block_graph(rng: random.Random, n_max: int = 9) -> ColoredGraph:
    target = rng.randint(2, n_max)
    edges: list[Edge] = []
    n = 1
    while n < target:
        budget = target - n
        size = rng.randint(2, min(budget + 1, 6))
        block = [(i, j) for i in range(size) for j in range(i + 1, size)]
        n = _glue_block(rng, edges, n, block, size)
    return make_graph(n, edges)


def rand_permutation(rng: random.Random, n: int) -> list[int]:
    p = list(range(n))
    rng.shuffle(p)
    return p


# ---------------------------------------------------------------------------
# definitional block oracle (common-cycle relation via subdivision points)
# ---------------------------------------------------------------------------


def blocks_oracle(g: ColoredGraph) -> list[tuple[int, ...]]:
    """Blocks from the definition: edges grouped by the common-cycle relation.

    Two edges share a block iff no single vertex of g separates their
    midpoints in the graph with both edges subdivided.
    """
    edges = sorted(g.edges)
    m = len(edges)
    if m == 0:
        return []
    # subdivided graph: vertices 0..n-1 plus midpoint n+i for edge i
    n = g.n
    adj: list[set[int]] = [set() for _ in range(n + m)]
    for i, (u, v) in enumerate(edges):
        mid = n + i
        adj[u].add(mid)
        adj[mid].add(u)
        adj[v].add(mid)
        adj[mid].add(v)

    def comp_ids(removed: int) -> list[int]:
        ids = [-1] * (n + m)
        nxt = 0
        for s in range(n + m):
            if s == removed or ids[s] != -1:
                continue
            ids[s] = nxt
            stack = [s]
            while stack:
                u = stack.pop()
                for w in adj[u]:
                    if w != removed and ids[w] == -1:
                        ids[w] = ids[u]
                        stack.append(w)
            nxt += 1
        return ids

    together = [[True] * m for _ in range(m)]
    for w in range(n):
        ids = comp_ids(w)
        for i in range(m):
            for j in range(i + 1, m):
                if ids[n + i] != ids[n + j]:
                    together[i][j] = together[j][i] = False
    # union-find over edges
    parent = list(range(m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(m):
        for j in range(i + 1, m):
            if together[i][j]:
                parent[find(i)] = find(j)
    groups: dict[int, set[int]] = {}
    for i, (u, v) in enumerate(edges):
        groups.setdefault(find(i), set()).update((u, v))
    return sorted((tuple(sorted(vs)) for vs in groups.values()), key=lambda t: (t[0], t))


def brute_hamiltonian_cycles(g: ColoredGraph) -> set[frozenset[Edge]]:
    """All Hamiltonian cycles as edge sets, by exhaustive path extension."""
    n = g.n
    cycles: set[frozenset[Edge]] = set()
    if n < 3:
        return cycles

    def rec(path: list[int], used: set[int]) -> None:
        v = path[-1]
        if len(path) == n:
            if path[0] in g.adjacency[v]:
                es = frozenset(
                    (min(a, b), max(a, b))
                    for a, b in zip(path, path[1:] + [path[0]])
                )
                cycles.add(es)
            return
        for w in sorted(g.adjacency[v]):
            if w not in used:
                used.add(w)
                path.append(w)
                rec(path, used)
                path.pop()
                used.remove(w)

    rec([0], {0})
    return cycles


# ---------------------------------------------------------------------------
# reference searches for outerplanar blocks
# ---------------------------------------------------------------------------


def dihedral_orders(cycle: Sequence[int]) -> list[tuple[int, ...]]:
    """All 2m rotations/reflections of a cyclic order: from each start, the
    rotation and then the reflection."""
    m = len(cycle)
    out = []
    for s in range(m):
        out.append(tuple(cycle[(s + i) % m] for i in range(m)))
        out.append(tuple(cycle[(s - i) % m] for i in range(m)))
    return out


def ref_least_order(
    cycle: Sequence[int],
    chords: Iterable[Edge],
    label_of: dict[int, bytes],
    root: Optional[int] = None,
) -> tuple[int, ...]:
    """The first dihedral order (starting at `root` if given) with the least
    `_order_encoding`, found by encoding every candidate."""
    from qblock.canon import _order_encoding

    cands = [c for c in dihedral_orders(cycle) if root is None or c[0] == root]
    return min(cands, key=lambda c: _order_encoding(c, chords, label_of))


def ref_dihedral_symmetries(
    cycle: Sequence[int], chords: Iterable[Edge], label_of: dict[int, bytes]
) -> list[tuple[int, ...]]:
    """Label- and chord-preserving maps base[i] -> cand[i] over all dihedral
    orders, as sorted tuples indexed by vertex."""
    chordset = {frozenset(c) for c in chords}
    base = tuple(cycle)
    out = []
    for cand in dihedral_orders(base):
        sigma = dict(zip(base, cand))
        if any(label_of[v] != label_of[sigma[v]] for v in base):
            continue
        if {frozenset(sigma[v] for v in c) for c in chordset} != chordset:
            continue
        out.append(tuple(sigma[v] for v in sorted(base)))
    return sorted(out)


def ref_hamiltonian_cycle(b: ColoredGraph):
    """The cycle and chords of a block by the 2-separator definition: the
    outer edges of `classify_edges` must form one spanning cycle."""
    from qblock.classrec import CycleStructure, classify_edges
    from qblock.errors import NotOuterplanarBlockError

    outer, inner = classify_edges(b)
    nbrs: dict[int, list[int]] = {v: [] for v in range(b.n)}
    for u, v in outer:
        nbrs[u].append(v)
        nbrs[v].append(u)
    if any(len(nb) != 2 for nb in nbrs.values()):
        raise NotOuterplanarBlockError("outer edges do not form a spanning cycle")
    cycle = [0, min(nbrs[0])]
    while len(cycle) < b.n:
        a, c = nbrs[cycle[-1]]
        nxt = c if a == cycle[-2] else a
        if nxt == 0:
            raise NotOuterplanarBlockError("outer edges form more than one cycle")
        cycle.append(nxt)
    return CycleStructure(cycle=tuple(cycle), chords=inner)


def ref_json_obj(e):
    """Recursive JSON object of an expression; `render(e, "json")` must be the
    bytes of `json.dumps(ref_json_obj(e), separators=(",", ":"), sort_keys=True)`."""
    from qblock.qexpr import (
        Classical,
        FreeProduct,
        FreeWreath,
        InhomFreeWreath,
        SymQ,
        Trivial,
    )

    if isinstance(e, Trivial):
        return {"t": "trivial"}
    if isinstance(e, SymQ):
        return {"t": "symq", "n": e.n}
    if isinstance(e, Classical):
        return {
            "t": "classical",
            "degree": e.group.degree,
            "order": e.group.order,
            "gens": [list(p) for p in e.group.generators],
        }
    if isinstance(e, FreeProduct):
        return {"t": "freeprod", "factors": [ref_json_obj(f) for f in e.factors]}
    if isinstance(e, FreeWreath):
        return {
            "t": "freewreath",
            "inner": ref_json_obj(e.inner),
            "outer": ref_json_obj(e.outer),
        }
    if isinstance(e, InhomFreeWreath):
        return {
            "t": "inhomwreath",
            "factors": [{"g": ref_json_obj(f), "k": k} for f, k in e.factors],
            "base": ref_json_obj(e.base),
        }
    raise TypeError(f"not an expression: {e!r}")
