import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qblock.canon import ClassicalPermGroup, group_from_elements, _closure
from qblock.errors import (
    BadOuterError,
    EmptyListError,
    OrbitGapError,
    OrbitMismatchError,
)
from qblock.qexpr import (
    TRIVIAL,
    Classical,
    FreeProduct,
    FreeWreath,
    InhomFreeWreath,
    SymQ,
    Trivial,
    classical,
    classical_shadow_order,
    degree,
    free_product,
    free_wreath,
    from_json,
    inhom_free_wreath,
    is_classical,
    normalize,
    quantum_orbits,
    render,
    symq,
)

from helpers import ref_json_obj


def _cyclic(n: int) -> ClassicalPermGroup:
    gen = tuple((i + 1) % n for i in range(n))
    return group_from_elements(n, _closure(n, [gen]))


def _dihedral(m: int) -> ClassicalPermGroup:
    rot = tuple((i + 1) % m for i in range(m))
    ref = tuple((m - i) % m for i in range(m))
    return group_from_elements(m, _closure(m, [rot, ref]))


def _symmetric(s: int, degree_: int) -> ClassicalPermGroup:
    """S_s acting on the first s of degree_ points."""
    gens = []
    if s >= 2:
        gens.append(tuple([1, 0] + list(range(2, degree_))))
    if s >= 3:
        cyc = [(i + 1) % s for i in range(s)] + list(range(s, degree_))
        gens.append(tuple(cyc))
    return group_from_elements(degree_, _closure(degree_, gens))


Z2 = classical(_cyclic(2))
Z3 = classical(_cyclic(3))


# -- smart constructors -------------------------------------------------------


def test_symq_unit():
    assert symq(1) == TRIVIAL
    assert symq(2) == SymQ(2)
    with pytest.raises(ValueError):
        symq(0)


def test_classical_unit():
    assert classical(ClassicalPermGroup(3, (), 1)) == TRIVIAL
    assert isinstance(Z2, Classical)


def test_free_product_normalization():
    assert free_product([TRIVIAL, TRIVIAL]) == TRIVIAL
    assert free_product([symq(2)]) == SymQ(2)
    assert free_product([TRIVIAL, symq(2)]) == SymQ(2)
    # flattening and sorting
    e = free_product([free_product([symq(3), symq(2)]), symq(2)])
    assert e == FreeProduct((SymQ(2), SymQ(2), SymQ(3)))
    # determinism: order of inputs is irrelevant
    assert free_product([symq(2), symq(3)]) == free_product([symq(3), symq(2)])
    with pytest.raises(EmptyListError):
        free_product([])


def test_free_wreath_normalization():
    assert free_wreath(symq(2), TRIVIAL) == SymQ(2)
    assert free_wreath(symq(2), symq(1)) == SymQ(2)
    assert free_wreath(TRIVIAL, symq(3)) == SymQ(3)
    e = free_wreath(symq(2), symq(2))
    assert e == FreeWreath(SymQ(2), SymQ(2))
    # free products with defined degree are fine as outers
    assert isinstance(
        free_wreath(symq(2), free_product([symq(2), symq(2)])), FreeWreath
    )
    # an outer with no well-defined degree is rejected
    no_degree = inhom_free_wreath([(TRIVIAL, 1), (Z3, 1)], Z2)
    assert degree(no_degree) is None
    with pytest.raises(BadOuterError):
        free_wreath(symq(2), no_degree)
    # nested wreath outers are allowed when the degree is defined
    nested = free_wreath(Z2, free_wreath(symq(2), symq(2)))
    assert isinstance(nested, FreeWreath)
    assert degree(nested.outer) == 4


def test_inhom_trivial_base_becomes_free_product():
    e = inhom_free_wreath([(symq(2), 2), (Z3, 1)], TRIVIAL)
    assert e == free_product([symq(2), symq(2), Z3])


def test_inhom_equal_fibers_become_free_wreath():
    e = inhom_free_wreath([(symq(2), 2)], symq(2))
    assert e == FreeWreath(SymQ(2), SymQ(2))
    # trivial fibers always collapse onto the base
    assert inhom_free_wreath([(TRIVIAL, 2), (TRIVIAL, 2)], symq(2)) == SymQ(2)


def test_inhom_equal_fibers_need_exact_cover():
    """Equal fibers over a base that dropped singleton orbits must not merge."""
    e = inhom_free_wreath([(symq(2), 2), (symq(2), 1)], symq(2))
    assert e == free_product([free_wreath(symq(2), symq(2)), symq(2)])
    assert classical_shadow_order(e) == 16


def test_inhom_symq_parts_base():
    base = free_product([symq(2), symq(2)])
    e = inhom_free_wreath([(symq(3), 2), (Z2, 2)], base)
    assert e == free_product(
        [free_wreath(symq(3), symq(2)), free_wreath(Z2, symq(2))]
    )
    # singleton orbits join as plain free factors
    e2 = inhom_free_wreath([(Z3, 1), (symq(2), 2)], symq(2))
    assert e2 == free_product([Z3, free_wreath(symq(2), symq(2))])


def test_inhom_mismatches_raise():
    with pytest.raises(EmptyListError):
        inhom_free_wreath([], symq(2))
    with pytest.raises(OrbitMismatchError):
        inhom_free_wreath([(symq(2), 0)], symq(2))
    with pytest.raises(OrbitMismatchError):
        inhom_free_wreath([(symq(2), 3), (Z2, 1)], symq(2))
    with pytest.raises(OrbitMismatchError):
        # Classical bases are degree-faithful: orbit sizes must cover the degree
        inhom_free_wreath([(symq(2), 1)], Z2)


def test_inhom_classical_base_kept():
    e = inhom_free_wreath([(symq(2), 1), (Z3, 1)], Z2)
    assert e == InhomFreeWreath(((symq(2), 1), (Z3, 1)), Z2)
    assert classical_shadow_order(e) == 2 * 2 * 3
    assert degree(e) == 2 + 3


# -- normalization ------------------------------------------------------------


def _groups_pool():
    return [_cyclic(2), _cyclic(3), _dihedral(4), _symmetric(3, 3)]


def _random_raw_expr(rng: random.Random, depth: int):
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        leaf = rng.randrange(4)
        if leaf == 0:
            return Trivial()
        if leaf == 1:
            return SymQ(rng.randint(1, 4))
        if leaf == 2:
            return Classical(rng.choice(_groups_pool()))
        return Classical(ClassicalPermGroup(rng.randint(1, 4), (), 1))
    if roll < 0.55:
        k = rng.randint(1, 3)
        return FreeProduct(
            tuple(_random_raw_expr(rng, depth - 1) for _ in range(k))
        )
    if roll < 0.8:
        inner = _random_raw_expr(rng, depth - 1)
        outer = rng.choice([SymQ(rng.randint(1, 3)), Classical(rng.choice(_groups_pool())), Trivial()])
        return FreeWreath(inner, outer)
    base = rng.choice(
        [Trivial(), SymQ(rng.randint(2, 3)), Classical(rng.choice(_groups_pool()))]
    )
    if isinstance(base, Trivial):
        ks = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
    elif isinstance(base, SymQ):
        ks = [base.n] + [1] * rng.randint(0, 2)
    else:
        d = base.group.degree
        ks = []
        while sum(ks) < d:
            ks.append(min(rng.randint(1, 2), d - sum(ks)))
    factors = tuple((_random_raw_expr(rng, depth - 1), k) for k in ks)
    return InhomFreeWreath(factors, base)


def test_normalize_idempotent_on_random_trees():
    rng = random.Random(61)
    for _ in range(300):
        raw = _random_raw_expr(rng, 3)
        e = normalize(raw)
        assert normalize(e) == e


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_normalize_idempotent_hypothesis(seed):
    rng = random.Random(seed)
    e = normalize(_random_raw_expr(rng, 3))
    assert normalize(e) == e


def test_normalize_rebuilds_raw_nodes():
    raw = FreeProduct((SymQ(1), FreeProduct((SymQ(2), Trivial())), SymQ(3)))
    assert normalize(raw) == FreeProduct((SymQ(2), SymQ(3)))
    raw2 = InhomFreeWreath(((SymQ(2), 3),), Trivial())
    assert normalize(raw2) == FreeProduct((SymQ(2), SymQ(2), SymQ(2)))
    raw3 = InhomFreeWreath(((SymQ(2), 2),), SymQ(2))
    assert normalize(raw3) == FreeWreath(SymQ(2), SymQ(2))


# -- predicates and shadows ---------------------------------------------------


def test_is_classical_table():
    assert is_classical(TRIVIAL)
    assert is_classical(Z2)
    assert is_classical(symq(2)) and is_classical(symq(3))
    assert not is_classical(symq(4))
    assert not is_classical(free_product([symq(2), symq(2)]))
    assert not is_classical(free_wreath(symq(2), symq(2)))
    assert not is_classical(inhom_free_wreath([(symq(2), 1), (Z3, 1)], Z2))


def test_degree_table():
    assert degree(TRIVIAL) is None
    assert degree(symq(5)) == 5
    assert degree(Z3) == 3
    assert degree(free_product([symq(2), symq(3)])) == 5
    assert degree(free_wreath(symq(2), symq(3))) == 6
    assert degree(free_product([TRIVIAL, symq(2), symq(2)])) == 4


def test_classical_shadow_orders():
    assert classical_shadow_order(TRIVIAL) == 1
    assert classical_shadow_order(symq(4)) == 24
    assert classical_shadow_order(classical(_dihedral(5))) == 10
    assert classical_shadow_order(free_product([symq(2), symq(3)])) == 12
    # wreath: |inner|^deg(outer) * |outer|
    assert classical_shadow_order(free_wreath(symq(2), symq(2))) == 8
    assert classical_shadow_order(free_wreath(symq(3), Z2)) == 36 * 2


def test_quantum_orbits_sandwich():
    assert quantum_orbits([[0, 1], [2]], [(1, 0), (2,)]) == [(0, 1), (2,)]
    with pytest.raises(OrbitGapError):
        quantum_orbits([[0], [1], [2]], [(0, 1), (2,)])


# -- rendering ----------------------------------------------------------------


def test_render_text_examples():
    assert render(TRIVIAL) == "1"
    assert render(symq(2)) == "S^+(2)"
    assert render(free_wreath(symq(2), symq(2))) == "S^+(2) wr* S^+(2)"
    assert render(free_product([symq(2), symq(2)])) == "S^+(2) * S^+(2)"
    assert render(Z2) == "Z_2"
    assert render(classical(_dihedral(5))) == "D_5"
    assert render(classical(_symmetric(3, 5))) == "S_3"
    assert render(classical(_cyclic(6))) == "Z_6"
    klein = group_from_elements(
        4, _closure(4, [(1, 0, 3, 2), (2, 3, 0, 1)])
    )
    assert render(classical(klein)) == "Grp(order=4)"


def test_render_parenthesization():
    e = free_wreath(free_product([symq(2), symq(2)]), symq(2))
    assert render(e) == "(S^+(2) * S^+(2)) wr* S^+(2)"
    e2 = inhom_free_wreath([(symq(2), 1), (Z3, 1)], Z2)
    assert render(e2) == "(S^+(2), Z_3) wrwr* Z_2"


def test_render_latex():
    assert render(symq(2), "latex") == "\\mathbb{S}_{2}^+"
    assert render(TRIVIAL, "latex") == "1"
    assert (
        render(free_wreath(symq(2), symq(2)), "latex")
        == "\\mathbb{S}_{2}^+ \\wr_\\ast \\mathbb{S}_{2}^+"
    )
    assert render(Z2, "latex") == "\\mathbb{Z}_{2}"
    assert render(classical(_dihedral(5)), "latex") == "D_{5}"
    assert render(classical(_symmetric(3, 5)), "latex") == "S_{3}"
    assert render(classical(_cyclic(6)), "latex") == "\\mathbb{Z}_{6}"
    klein = group_from_elements(4, _closure(4, [(1, 0, 3, 2), (2, 3, 0, 1)]))
    assert render(classical(klein), "latex") == "\\mathrm{Grp}_{4}"
    assert (
        render(free_wreath(free_product([symq(2), symq(2)]), symq(2)), "latex")
        == "(\\mathbb{S}_{2}^+ \\ast \\mathbb{S}_{2}^+) \\wr_\\ast \\mathbb{S}_{2}^+"
    )
    assert (
        render(inhom_free_wreath([(symq(2), 1), (Z3, 1)], Z2), "latex")
        == "\\left(\\mathbb{S}_{2}^+, \\mathbb{Z}_{3}\\right)"
        " \\mathbin{\\tilde{\\wr}_\\ast} \\mathbb{Z}_{2}"
    )


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError):
        render(TRIVIAL, "yaml")


def test_render_rejects_non_expressions():
    for fmt in ("text", "latex", "json"):
        for bad in (42, FreeProduct((symq(2), "S^+(2)"))):
            with pytest.raises(TypeError):
                render(bad, fmt)


# -- JSON ---------------------------------------------------------------------


def test_json_round_trip_examples():
    exprs = [
        TRIVIAL,
        symq(4),
        Z2,
        free_product([symq(2), Z3]),
        free_wreath(symq(2), symq(2)),
        inhom_free_wreath([(symq(2), 1), (Z3, 1)], Z2),
    ]
    for e in exprs:
        text = render(e, "json")
        assert from_json(text) == e
        assert json.loads(text) == ref_json_obj(e)


def test_json_round_trip_random():
    rng = random.Random(67)
    for _ in range(200):
        e = normalize(_random_raw_expr(rng, 3))
        text = render(e, "json")
        assert from_json(text) == e
        assert text == json.dumps(ref_json_obj(e), separators=(",", ":"), sort_keys=True)


def test_json_rejects_garbage():
    with pytest.raises(ValueError):
        from_json("{}")
    with pytest.raises(ValueError):
        from_json('{"t":"nope"}')
    with pytest.raises(ValueError):
        from_json('{"t":"classical","degree":2,"order":7,"gens":[[1,0]]}')
