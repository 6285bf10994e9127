"""Command-line surface: qut / classify / blocktree / wl / selftest."""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

from . import canon
from .blocks import block_tree
from .classrec import GraphClass, classify
from .engine import qut
from .errors import (
    ClassRefusedError,
    OrbitGapError,
    ParseError,
    QBlockError,
    UnsupportedBlockError,
)
from .graph import ColoredGraph, make_graph, parse_graph
from .qexpr import classical_shadow_order, render
from .wl import stable_coloring

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_REFUSED = 3
EXIT_ORBIT_GAP = 4
EXIT_SHADOW_MISMATCH = 5
EXIT_INTERNAL = 6


def _read_graph(path: str) -> ColoredGraph:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    fmt = "graph6" if path.endswith(".g6") else "edgelist"
    return parse_graph(text, fmt)


def _cmd_qut(args: argparse.Namespace) -> int:
    g = _read_graph(args.file)
    t0 = time.monotonic()
    result = qut(g, force=args.force)
    elapsed = time.monotonic() - t0
    fmt = "json" if args.json else ("latex" if args.latex else "text")
    for note in result.assumptions:
        print(f"note: {note}", file=sys.stderr)
    print(f"class: {result.graph_class.tag} ({elapsed:.3f}s)", file=sys.stderr)
    print(render(result.expr, fmt))
    if args.check_aut:
        if g.n > canon.BRUTE_AUT_LIMIT:
            print(
                f"error: --check-aut is limited to {canon.BRUTE_AUT_LIMIT} vertices",
                file=sys.stderr,
            )
            return EXIT_INPUT
        aut = canon.automorphism_group(g)
        shadow = classical_shadow_order(result.expr)
        if shadow != aut.order:
            print(
                f"shadow mismatch: classical shadow {shadow} != |Aut| {aut.order}",
                file=sys.stderr,
            )
            return EXIT_SHADOW_MISMATCH
        print(f"shadow check ok: {shadow} = |Aut|", file=sys.stderr)
    return EXIT_OK


def _cmd_classify(args: argparse.Namespace) -> int:
    g = _read_graph(args.file)
    cls = classify(g)
    print(cls.tag)
    return EXIT_REFUSED if cls is GraphClass.UNSUPPORTED else EXIT_OK


def _node_name(node: tuple[str, int]) -> str:
    return f"{node[0]}{node[1]}"


def _cmd_blocktree(args: argparse.Namespace) -> int:
    g = _read_graph(args.file)
    t = block_tree(g)
    if args.dot:
        lines = ["graph blocktree {"]
        for i, blk in enumerate(t.blocks):
            extra = ",peripheries=2" if t.center == ("b", i) else ""
            label = "{" + ",".join(str(v) for v in blk) + "}"
            lines.append(f'  b{i} [shape=box{extra},label="{label}"];')
        for v in t.cuts:
            extra = ",peripheries=2" if t.center == ("c", v) else ""
            lines.append(f'  c{v} [shape=circle{extra},label="{v}"];')
        for i, v in sorted(t.tree_edges):
            lines.append(f"  b{i} -- c{v};")
        lines.append("}")
        print("\n".join(lines))
        return EXIT_OK
    print(f"blocks: {len(t.blocks)}  cuts: {len(t.cuts)}  center: {_node_name(t.center)}")
    for node in t.nodes():
        parent = t.parent[node]
        pname = _node_name(parent) if parent is not None else "-"
        detail = (
            "{" + ",".join(str(v) for v in t.blocks[node[1]]) + "}"
            if node[0] == "b"
            else str(node[1])
        )
        print(f"{_node_name(node)} level={t.level[node]} parent={pname} {detail}")
    return EXIT_OK


def _cmd_wl(args: argparse.Namespace) -> int:
    g = _read_graph(args.file)
    c = stable_coloring(g)
    print(c.num_classes())
    for row in c.color:
        print(",".join(str(x) for x in row))
    return EXIT_OK


# -- selftest: exhaustive unlabeled trees up to 8 vertices --------------------

_RootedTree = tuple  # sorted tuple of child trees


def _rooted_tree_structures(n: int, _cache: dict = {1: [()]}) -> list[_RootedTree]:
    if n in _cache:
        return _cache[n]
    out: set[_RootedTree] = set()

    def extend(remaining: int, bound, acc: list) -> None:
        if remaining == 0:
            out.add(tuple(t for _, t in acc))
            return
        max_s = remaining if bound is None else min(remaining, bound[0])
        for s in range(max_s, 0, -1):
            for t in _rooted_tree_structures(s):
                key = (s, t)
                if bound is not None and key > bound:
                    continue
                acc.append(key)
                extend(remaining - s, key, acc)
                acc.pop()

    extend(n - 1, None, [])
    res = sorted(out)
    _cache[n] = res
    return res


def _structure_to_graph(tree: _RootedTree) -> ColoredGraph:
    edges: list[tuple[int, int]] = []
    counter = [0]

    def walk(t: _RootedTree, parent: Optional[int]) -> None:
        me = counter[0]
        counter[0] += 1
        if parent is not None:
            edges.append((parent, me))
        for child in t:
            walk(child, me)

    walk(tree, None)
    return make_graph(counter[0], edges)


def free_trees(n: int) -> list[ColoredGraph]:
    """All unlabeled trees on n vertices, one representative each."""
    seen: dict[bytes, ColoredGraph] = {}
    for t in _rooted_tree_structures(n):
        g = _structure_to_graph(t)
        code = canon.rooted_code(g, None)
        if code not in seen:
            seen[code] = g
    return [seen[c] for c in sorted(seen)]


def _cmd_selftest(args: argparse.Namespace) -> int:
    total = 0
    for n in range(1, 9):
        for g in free_trees(n):
            result = qut(g)
            shadow = classical_shadow_order(result.expr)
            aut = canon.automorphism_group(g)
            if shadow != aut.order:
                print(
                    f"selftest failure on a tree with {n} vertices:"
                    f" shadow {shadow} != |Aut| {aut.order}",
                    file=sys.stderr,
                )
                return EXIT_SHADOW_MISMATCH
            total += 1
    print(f"selftest ok ({total} trees, n <= 8)")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qblock",
        description=(
            "Quantum automorphism groups of forests, outerplanar graphs and"
            " block graphs."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("qut", help="compute the quantum automorphism group")
    q.add_argument("file", help="graph file (edge list, or graph6 if *.g6); - for stdin")
    fmt = q.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON expression output")
    fmt.add_argument("--latex", action="store_true", help="LaTeX expression output")
    q.add_argument("--force", action="store_true", help="run outside supported classes")
    q.add_argument(
        "--check-aut",
        action="store_true",
        help="cross-check the classical shadow against brute-force |Aut|",
    )
    q.set_defaults(func=_cmd_qut)

    c = sub.add_parser("classify", help="print the graph class tag")
    c.add_argument("file")
    c.set_defaults(func=_cmd_classify)

    b = sub.add_parser("blocktree", help="print the block tree")
    b.add_argument("file")
    b.add_argument("--dot", action="store_true", help="emit DOT output")
    b.set_defaults(func=_cmd_blocktree)

    w = sub.add_parser("wl", help="stable 2-WL pair coloring")
    w.add_argument("file")
    w.set_defaults(func=_cmd_wl)

    s = sub.add_parser("selftest", help="exhaustive tree sweep, n <= 8")
    s.set_defaults(func=_cmd_selftest)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ClassRefusedError, UnsupportedBlockError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except OrbitGapError as exc:
        print(f"orbit gap: {exc}", file=sys.stderr)
        return EXIT_ORBIT_GAP
    except (QBlockError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        # a defect, not an input error: one line, no traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
