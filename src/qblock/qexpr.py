"""Quantum-group expressions: constructors, normalization, shadow, rendering.

Normal form invariants:
  - FreeProduct is flat, sorted, has >= 2 factors, and contains no Trivial;
  - SymQ(1) never appears (rewritten to Trivial);
  - Classical groups of order 1 are rewritten to Trivial;
  - InhomFreeWreath degenerates per the equal-fiber and trivial-base laws, and
    decomposes into a free product of plain free wreaths whenever the base is a
    free product of quantum symmetric groups acting independently per orbit;
  - FreeWreath(Trivial, H) = H and a degree-1 outer collapses to the inner.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import factorial, prod
from typing import Iterable, Optional, Sequence, Union

from .canon import ClassicalPermGroup, _closure, element_order, group_from_elements
from .errors import (
    BadOuterError,
    EmptyListError,
    OrbitGapError,
    OrbitMismatchError,
)


@dataclass(frozen=True)
class Trivial:
    pass


@dataclass(frozen=True)
class SymQ:
    n: int


@dataclass(frozen=True)
class Classical:
    group: ClassicalPermGroup


@dataclass(frozen=True)
class FreeProduct:
    factors: tuple["QGroupExpr", ...]


@dataclass(frozen=True)
class FreeWreath:
    inner: "QGroupExpr"
    outer: "QGroupExpr"


@dataclass(frozen=True)
class InhomFreeWreath:
    factors: tuple[tuple["QGroupExpr", int], ...]
    base: "QGroupExpr"


QGroupExpr = Union[Trivial, SymQ, Classical, FreeProduct, FreeWreath, InhomFreeWreath]

TRIVIAL = Trivial()


def sort_key(e: QGroupExpr):
    if isinstance(e, Trivial):
        return (0,)
    if isinstance(e, SymQ):
        return (1, e.n)
    if isinstance(e, Classical):
        return (2, e.group.degree, e.group.order, e.group.generators)
    if isinstance(e, FreeProduct):
        return (3, tuple(sort_key(f) for f in e.factors))
    if isinstance(e, FreeWreath):
        return (4, sort_key(e.inner), sort_key(e.outer))
    if isinstance(e, InhomFreeWreath):
        return (
            5,
            tuple((sort_key(f), k) for f, k in e.factors),
            sort_key(e.base),
        )
    raise TypeError(f"not an expression: {e!r}")


def degree(e: QGroupExpr) -> Optional[int]:
    """Number of points the expression permutes, when well defined."""
    if isinstance(e, Trivial):
        return None
    if isinstance(e, SymQ):
        return e.n
    if isinstance(e, Classical):
        return e.group.degree
    if isinstance(e, FreeProduct):
        ds = [degree(f) for f in e.factors]
        return None if any(d is None for d in ds) else sum(ds)  # type: ignore[arg-type]
    if isinstance(e, FreeWreath):
        di, do = degree(e.inner), degree(e.outer)
        return None if di is None or do is None else di * do
    if isinstance(e, InhomFreeWreath):
        total = 0
        for f, k in e.factors:
            df = degree(f)
            if df is None:
                return None
            total += df * k
        return total
    raise TypeError(f"not an expression: {e!r}")


def _children(e: QGroupExpr) -> tuple[QGroupExpr, ...]:
    """Operands in rendering order: factors, inner then outer, fibers then base."""
    if isinstance(e, FreeProduct):
        return e.factors
    if isinstance(e, FreeWreath):
        return (e.inner, e.outer)
    if isinstance(e, InhomFreeWreath):
        return (*(f for f, _ in e.factors), e.base)
    if isinstance(e, (Trivial, SymQ, Classical)):
        return ()
    raise TypeError(f"not an expression: {e!r}")


def _fold(e: QGroupExpr, combine):
    """Post-order walk: `combine(node, values of _children(node))` per node.

    An explicit stack keeps any depth within the recursion limit. The engine's
    memo shares subexpressions, so each node is combined once, keyed by `id`
    (every node stays alive through `e` while the walk runs).
    """
    done: dict[int, object] = {}
    stack = [e]
    while stack:
        node = stack[-1]
        if id(node) in done:
            stack.pop()
            continue
        kids = _children(node)
        todo = [k for k in kids if id(k) not in done]
        if todo:
            stack.extend(todo)
        else:
            stack.pop()
            done[id(node)] = combine(node, [done[id(k)] for k in kids])
    return done[id(e)]


# ---------------------------------------------------------------------------
# smart constructors (the only way normal forms are built)
# ---------------------------------------------------------------------------


def symq(n: int) -> QGroupExpr:
    if n < 1:
        raise ValueError("quantum symmetric group needs n >= 1")
    return TRIVIAL if n == 1 else SymQ(n)


def classical(group: ClassicalPermGroup) -> QGroupExpr:
    return TRIVIAL if group.order == 1 else Classical(group)


def free_product(factors: Sequence[QGroupExpr]) -> QGroupExpr:
    if not factors:
        raise EmptyListError("free product of an empty list")
    flat: list[QGroupExpr] = []
    for f in factors:
        if isinstance(f, FreeProduct):
            flat.extend(f.factors)
        elif not isinstance(f, Trivial):
            flat.append(f)
    if not flat:
        return TRIVIAL
    if len(flat) == 1:
        return flat[0]
    return FreeProduct(tuple(sorted(flat, key=sort_key)))


def free_wreath(inner: QGroupExpr, outer: QGroupExpr) -> QGroupExpr:
    if isinstance(outer, Trivial):
        return inner  # a single copy
    d = degree(outer)
    if d is None:
        raise BadOuterError("free wreath needs an outer group of known degree")
    if d == 1:
        return inner
    if isinstance(inner, Trivial):
        return outer
    return FreeWreath(inner, outer)


def _symq_parts(base: QGroupExpr) -> Optional[list[int]]:
    if isinstance(base, SymQ):
        return [base.n]
    if isinstance(base, FreeProduct) and all(isinstance(f, SymQ) for f in base.factors):
        return [f.n for f in base.factors]  # type: ignore[union-attr]
    return None


def inhom_free_wreath(
    factors: Sequence[tuple[QGroupExpr, int]], base: QGroupExpr
) -> QGroupExpr:
    if not factors:
        raise EmptyListError("inhomogeneous free wreath with no factors")
    if any(k < 1 for _, k in factors):
        raise OrbitMismatchError("orbit sizes must be positive")
    if isinstance(base, Trivial):
        expanded: list[QGroupExpr] = []
        for f, k in factors:
            expanded.extend([f] * k)
        return free_product(expanded)
    total = sum(k for _, k in factors)
    if isinstance(base, Classical) and total != base.group.degree:
        raise OrbitMismatchError(
            f"orbit sizes {[k for _, k in factors]} do not cover degree"
            f" {base.group.degree}"
        )
    first = factors[0][0]
    if all(f == first for f, _ in factors):
        # the equal-fiber rewrite needs the orbits to cover the base's points
        # exactly; a base that dropped singleton orbits keeps them as plain
        # free factors instead (unless the shared fiber is trivial anyway)
        d = degree(base)
        if isinstance(first, Trivial) or (d is not None and d == total):
            return free_wreath(first, base)
    parts = _symq_parts(base)
    if parts is not None:
        big = sorted(k for _, k in factors if k >= 2)
        if sorted(parts) == big:
            return free_product([free_wreath(f, symq(k)) for f, k in factors])
        raise OrbitMismatchError(
            f"orbit sizes {[k for _, k in factors]} incompatible with base parts {parts}"
        )
    return InhomFreeWreath(tuple((f, k) for f, k in factors), base)


def normalize(e: QGroupExpr) -> QGroupExpr:
    return _fold(e, _normal)


def _normal(e: QGroupExpr, vals: list) -> QGroupExpr:
    if isinstance(e, Trivial):
        return TRIVIAL
    if isinstance(e, SymQ):
        return symq(e.n)
    if isinstance(e, Classical):
        return classical(e.group)
    if isinstance(e, FreeProduct):
        return free_product(vals)
    if isinstance(e, FreeWreath):
        return free_wreath(*vals)
    return inhom_free_wreath([(v, k) for v, (_, k) in zip(vals, e.factors)], vals[-1])


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def is_classical(e: QGroupExpr) -> bool:
    """Whether the expression denotes a genuinely classical group.

    By normal form, free products have >= 2 nontrivial factors and free
    (inhomogeneous) wreaths have a nontrivial fiber over a base of degree
    >= 2; both produce noncommutative algebras.
    """
    if isinstance(e, (Trivial, Classical)):
        return True
    if isinstance(e, SymQ):
        return e.n <= 3
    return False


def classical_shadow_order(e: QGroupExpr) -> int:
    return _fold(e, _shadow)


def _shadow(e: QGroupExpr, vals: list) -> int:
    if isinstance(e, Trivial):
        return 1
    if isinstance(e, SymQ):
        return factorial(e.n)
    if isinstance(e, Classical):
        return e.group.order
    if isinstance(e, FreeProduct):
        return prod(vals)
    if isinstance(e, FreeWreath):
        d = degree(e.outer)
        if d is None:
            raise ValueError("free wreath outer without degree")
        return vals[0] ** d * vals[1]
    return vals[-1] * prod(v**k for v, (_, k) in zip(vals, e.factors))


def _normal_partition(partition: Iterable[Iterable[int]]) -> frozenset[frozenset[int]]:
    return frozenset(frozenset(p) for p in partition)


def quantum_orbits(
    aut_orbits: Iterable[Iterable[int]],
    wl_partition: Iterable[Iterable[int]],
) -> list[tuple[int, ...]]:
    """Pin quantum orbits via the sandwich Aut-orbits <= Qut-orbits <= WL classes.

    `wl_partition` is the colour-refinement (1-WL) classes, or the 2-WL vertex
    classes when 1-WL leaves a gap; both are coarser than the quantum orbits.
    When the two sides agree, the quantum orbits are squeezed to that common
    partition; otherwise the recursion cannot proceed soundly.
    """
    a = _normal_partition(aut_orbits)
    w = _normal_partition(wl_partition)
    if a != w:
        raise OrbitGapError(
            sorted(tuple(sorted(p)) for p in a),
            sorted(tuple(sorted(p)) for p in w),
        )
    return sorted((tuple(sorted(p)) for p in a), key=lambda t: t[0])


# ---------------------------------------------------------------------------
# rendering and parsing
# ---------------------------------------------------------------------------


def _group_catalog(group: ClassicalPermGroup) -> tuple[str, int]:
    """Classify a small permutation group: Z, S, D, or generic.

    Returns (kind, parameter): ("Z", n) cyclic of order n; ("S", k) symmetric
    on its k moved points; ("D", m) dihedral of order 2m (m >= 3); ("G", order)
    otherwise.
    """
    o = group.order
    elems = sorted(group.elements())
    if any(element_order(p) == o for p in elems):
        return ("Z", o)
    moved = {i for p in elems for i in range(group.degree) if p[i] != i}
    if o == factorial(len(moved)):
        return ("S", len(moved))
    if o % 2 == 0:
        m = o // 2
        if m >= 3:
            for r in elems:
                if element_order(r) != m:
                    continue
                rot = set(_closure(group.degree, [r]))
                if len(rot) != m:
                    continue
                for f in elems:
                    if f in rot or element_order(f) != 2:
                        continue
                    rinv = tuple(sorted(range(group.degree), key=lambda i: r[i]))
                    # check f r f == r^{-1}
                    frf = tuple(f[r[f[i]]] for i in range(group.degree))
                    if frf == rinv and len(_closure(group.degree, [r, f])) == o:
                        return ("D", m)
    return ("G", o)


# infix tokens, text then LaTeX; Z, S, D and G are the kinds of _group_catalog
_TOKENS = {
    "symq": ("S^+({})", r"\mathbb{{S}}_{{{}}}^+"),
    "Z": ("Z_{}", r"\mathbb{{Z}}_{{{}}}"),
    "S": ("S_{}", "S_{{{}}}"),
    "D": ("D_{}", "D_{{{}}}"),
    "G": ("Grp(order={})", r"\mathrm{{Grp}}_{{{}}}"),
    "prod": (" * ", r" \ast "),
    "wreath": ("{} wr* {}", r"{} \wr_\ast {}"),
    "inhom": ("({}) wrwr* {}", r"\left({}\right) \mathbin{{\tilde{{\wr}}_\ast}} {}"),
}


def _infix(e: QGroupExpr, vals: list[str], col: int) -> str:
    """Text (col 0) or LaTeX (col 1) of one node. Compound operands get
    parentheses, except the fibers of an inhomogeneous wreath."""
    if isinstance(e, Trivial):
        return "1"
    if isinstance(e, SymQ):
        return _TOKENS["symq"][col].format(e.n)
    if isinstance(e, Classical):
        kind, p = _group_catalog(e.group)
        return _TOKENS[kind][col].format(p)
    wrapped = [
        f"({v})" if isinstance(c, (FreeProduct, FreeWreath, InhomFreeWreath)) else v
        for c, v in zip(_children(e), vals)
    ]
    if isinstance(e, FreeProduct):
        return _TOKENS["prod"][col].join(wrapped)
    if isinstance(e, FreeWreath):
        return _TOKENS["wreath"][col].format(*wrapped)
    return _TOKENS["inhom"][col].format(", ".join(vals[:-1]), wrapped[-1])


def _json(e: QGroupExpr, vals: list[str]) -> str:
    """The bytes of `json.dumps(obj, separators=(",", ":"), sort_keys=True)`;
    every value is an int or a fixed tag, so nothing needs escaping."""
    if isinstance(e, Trivial):
        return '{"t":"trivial"}'
    if isinstance(e, SymQ):
        return f'{{"n":{e.n},"t":"symq"}}'
    if isinstance(e, Classical):
        g = e.group
        gens = ",".join("[" + ",".join(map(str, p)) + "]" for p in g.generators)
        return f'{{"degree":{g.degree},"gens":[{gens}],"order":{g.order},"t":"classical"}}'
    if isinstance(e, FreeProduct):
        return f'{{"factors":[{",".join(vals)}],"t":"freeprod"}}'
    if isinstance(e, FreeWreath):
        return f'{{"inner":{vals[0]},"outer":{vals[1]},"t":"freewreath"}}'
    fibers = ",".join(f'{{"g":{v},"k":{k}}}' for v, (_, k) in zip(vals, e.factors))
    return f'{{"base":{vals[-1]},"factors":[{fibers}],"t":"inhomwreath"}}'


def from_json_obj(obj) -> QGroupExpr:
    if not isinstance(obj, dict) or "t" not in obj:
        raise ValueError("expression object needs a 't' tag")
    t = obj["t"]
    if t == "trivial":
        return TRIVIAL
    if t == "symq":
        return symq(int(obj["n"]))
    if t == "classical":
        gens = tuple(tuple(int(x) for x in p) for p in obj["gens"])
        deg = int(obj["degree"])
        group = group_from_elements(deg, _closure(deg, gens))
        if group.order != int(obj["order"]):
            raise ValueError("classical group order does not match its generators")
        return classical(group)
    if t == "freeprod":
        return free_product([from_json_obj(f) for f in obj["factors"]])
    if t == "freewreath":
        return free_wreath(from_json_obj(obj["inner"]), from_json_obj(obj["outer"]))
    if t == "inhomwreath":
        factors = [(from_json_obj(f["g"]), int(f["k"])) for f in obj["factors"]]
        return inhom_free_wreath(factors, from_json_obj(obj["base"]))
    raise ValueError(f"unknown expression tag {t!r}")


def render(e: QGroupExpr, fmt: str = "text") -> str:
    if fmt == "json":
        return _fold(e, _json)
    if fmt not in ("text", "latex"):
        raise ValueError(f"unknown format {fmt!r}")
    col = 0 if fmt == "text" else 1
    return _fold(e, lambda node, vals: _infix(node, vals, col))


def from_json(text: str) -> QGroupExpr:
    return from_json_obj(json.loads(text))
