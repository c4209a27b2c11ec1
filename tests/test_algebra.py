"""Algebra construction: basis, multiplication, invariants, forms."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import surfalg as sa
from surfalg.algebra import el_add, form_value
from surfalg.fields import PrimeField

import fixtures as fx


def all_kind_tables():
    """One table per kind on quivers where the kind is legal."""
    tables = []
    for kind in ("weighted", "biserial", "string"):
        tables.append(sa.build_algebra(sa.Presentation(
            fx.triangle_quiver(), kind=kind, field=sa.QQ)))
        tables.append(sa.build_algebra(sa.Presentation(
            fx.tetrahedral_quiver(), kind=kind, field=sa.QQ)))
    tables.append(fx.deformed_triangle_f2())
    return tables


def test_dimension_formula_all_kinds():
    for t in all_kind_tables():
        rep = sa.dimension_report(t)
        assert rep["matches"], (t.kind, rep)


def test_presentation_validation():
    q = fx.triangle_quiver()
    with pytest.raises(ValueError):
        sa.Presentation(q, kind="weird", field=sa.QQ)
    with pytest.raises(ValueError):
        sa.Presentation(q, kind="weighted", field=sa.QQ, m={"alpha": 0})
    with pytest.raises(ValueError):
        sa.Presentation(q, kind="weighted", field=sa.QQ,
                        c={"alpha": Fraction(0)})
    with pytest.raises(ValueError):
        # weight 1 on an orbit of length 2 breaks m n >= 3
        sa.Presentation(fx.sphere_opposite_quiver(), kind="weighted",
                        field=sa.QQ)
    with pytest.raises(ValueError):
        # deformation scalars only at border vertices
        sa.Presentation(fx.tetrahedral_quiver(), kind="deformed",
                        field=PrimeField(2), b={1: 1})
    with pytest.raises(ValueError):
        # conflicting values for one g-orbit
        sa.Presentation(q, kind="weighted", field=sa.QQ,
                        m={"alpha": 2, "eta": 3})


def test_orbit_keys_normalize():
    q = fx.triangle_quiver()
    p1 = sa.Presentation(q, kind="weighted", field=sa.QQ, m={"eta": 2})
    p2 = sa.Presentation(q, kind="weighted", field=sa.QQ, m={"alpha": 2})
    t1, t2 = sa.build_algebra(p1), sa.build_algebra(p2)
    assert t1.dim == t2.dim == 72


def test_basis_layout():
    t = fx.triangle_algebra()
    kinds = [b[0] for b in t.basis]
    assert kinds.count("e") == 3 and kinds.count("s") == 3
    assert kinds.count("w") == t.dim - 6
    # string algebras have no socle rows of their own
    ts = sa.build_algebra(sa.Presentation(
        fx.triangle_quiver(), kind="string", field=sa.QQ))
    assert all(b[0] != "s" for b in ts.basis)


def test_identity_and_idempotents():
    for t in all_kind_tables():
        F = t.field
        for i, b in enumerate(t.basis):
            left = t.multiply(t.idempotent(t.src_of[i]), {i: F.one})
            right = t.multiply({i: F.one}, t.idempotent(t.tgt_of[i]))
            assert left == {i: F.one}, (t.kind, b)
            assert right == {i: F.one}, (t.kind, b)
            other = [v for v in t.quiver.vertices if v != t.src_of[i]][0]
            assert t.multiply(t.idempotent(other), {i: F.one}) == {}


def _check_assoc(t, triples):
    F = t.field
    for i, j, k in triples:
        ij = dict(t.basis_product(i, j))
        jk = dict(t.basis_product(j, k))
        lhs = t.multiply(ij, {k: F.one})
        rhs = t.multiply({i: F.one}, jk)
        assert lhs == rhs, (t.kind, t.basis[i], t.basis[j], t.basis[k])


def test_associativity_exhaustive_small():
    for t in all_kind_tables():
        if t.dim <= 40:
            _check_assoc(t, itertools.product(range(t.dim), repeat=3))


def test_associativity_random_large():
    rng = random.Random(20240814)
    big = [fx.triangle_algebra(m=2),
           fx.weighted(fx.tetrahedral_reversed_quiver())]
    for t in big:
        assert t.dim > 40
        triples = [(rng.randrange(t.dim), rng.randrange(t.dim),
                    rng.randrange(t.dim)) for _ in range(10000)]
        _check_assoc(t, triples)


def test_defining_relations_hold():
    for t in all_kind_tables():
        F = t.field
        for rel in sa.defining_relations(t):
            acc = {}
            for coeff, path in rel["terms"]:
                acc = el_add(F, acc, t.element_from_path(list(path), coeff))
            assert acc == {}, (t.kind, rel["name"])


def test_socle_is_two_sided_annihilator_of_radical():
    t = fx.triangle_algebra()
    F = t.field
    for v in t.quiver.vertices:
        s = t.socle_element(v)
        for a in t.quiver.arrows:
            assert t.multiply(s, t.arrow_element(a)) == {}
            assert t.multiply(t.arrow_element(a), s) == {}


def test_word_overflow_hits_socle():
    t = fx.triangle_algebra()
    F = t.field
    # B word of length m n equals the socle for parameter 1
    a = "alpha"
    arrows = t.word_arrows(a, t.mn[a])
    el = t.element_from_path(list(arrows))
    assert el == t.socle_element(t.quiver.src[a])


def test_cartan_matrix_values():
    t = fx.triangle_algebra()
    cm = sa.cartan_matrix(t)
    assert cm["matrix"] == [[4, 4, 4], [4, 4, 4], [4, 4, 4]]
    assert cm["det"] == 0
    t2 = fx.triangle_algebra(m=2)
    cm2 = sa.cartan_matrix(t2)
    assert cm2["matrix"] == [[8, 8, 8], [8, 8, 8], [8, 8, 8]]
    assert cm2["det"] == 0


def test_cartan_det_formula_sphere():
    q = fx.sphere_opposite_quiver()
    for m1, m2, m3 in [(2, 2, 2), (2, 3, 4), (3, 2, 5)]:
        t = fx.weighted(q, m={"alpha1": m1, "alpha2": m2, "alpha3": m3})
        assert sa.cartan_matrix(t)["det"] == 4 * m1 * m2 * m3


def test_cartan_det_formula_double_projective():
    q = fx.double_projective_quiver()
    for p, qq, r in [(3, 3, 1), (4, 3, 2), (5, 4, 3)]:
        t = fx.weighted(q, m={"alpha": p, "rho": qq, "beta": r})
        assert sa.cartan_matrix(t)["det"] == 4 * p * qq * r


def test_symmetrizing_form():
    for t in all_kind_tables():
        if t.kind == "string":
            with pytest.raises(ValueError):
                sa.symmetrizing_form(t)
            continue
        rep = sa.verify_symmetrizing_form(t)
        assert rep["symmetric"], t.kind
        assert rep["nondegenerate"], t.kind
        G = sa.gram_matrix(t, sa.symmetrizing_form(t))
        from surfalg.linalg import rank_of_rows
        assert rank_of_rows(G, t.field) == t.dim


def assert_dual_pairing(t):
    """phi(b_i . b_j*) is exactly delta_ij for all basis indices i, j."""
    F = t.field
    dual = sa.dual_basis(t)
    phi = sa.symmetrizing_form(t)
    for i in range(t.dim):
        for j in range(t.dim):
            prod = t.multiply({i: F.one}, dual[j])
            val = form_value(t, phi, prod)
            expect = F.one if i == j else F.zero
            assert val == expect, (i, j)


def test_dual_basis_pairing():
    deformed = fx.deformed_triangle_f2()
    # the socle deformation puts a second nonzero into some Gram rows
    gram = sa.gram_matrix(deformed, sa.symmetrizing_form(deformed))
    assert max(len(row) for row in gram) == 2
    for t in (fx.tetrahedral_algebra(a=2), fx.triangle_algebra(m=3),
              deformed):
        assert_dual_pairing(t)


@settings(max_examples=12, deadline=None)
@given(st.data())
def test_dual_basis_pairing_random(data):
    name = data.draw(st.sampled_from(sorted(fx.ALL_QUIVERS)))
    q = fx.ALL_QUIVERS[name]()
    low = fx.MIN_WEIGHTS[name]
    m, c = {}, {}
    for o in sa.g_structure(q).orbits:
        least = max(low.get(a, 1) for a in o)
        m[o[0]] = data.draw(st.integers(least, max(least, 3)))
        num = data.draw(st.integers(1, 5)) * data.draw(st.sampled_from((1, -1)))
        c[o[0]] = Fraction(num, data.draw(st.integers(1, 5)))
    assert_dual_pairing(fx.weighted(q, m=m, c=c))


def test_tetrahedral_parameters_and_roles():
    t = fx.tetrahedral_algebra(a=2, b=3, c=5, d=7)
    params = sa.tetrahedral_parameters(t)
    assert (params["a"], params["b"], params["c"], params["d"]) == \
        (Fraction(2), Fraction(3), Fraction(5), Fraction(7))
    assert params["product"] == Fraction(210)
    assert not params["singular"]
    t1 = fx.tetrahedral_algebra()
    assert sa.tetrahedral_parameters(t1)["singular"]
    with pytest.raises(ValueError):
        sa.tetrahedral_parameters(fx.triangle_algebra())


def test_scaling_isomorphism():
    a, b, c, d = Fraction(2), Fraction(3), Fraction(1, 5), Fraction(7)
    t_full = fx.tetrahedral_algebra(a=a, b=b, c=c, d=d)
    t_prod = fx.tetrahedral_algebra(a=a * b * c * d)
    ok, info = sa.scaling_isomorphism_check(t_full, t_prod)
    assert ok, info["failure"]
    bcd = b * c * d
    scale = info["scale"]
    assert scale["alpha"] == d and scale["mu"] == b and scale["nu"] == c
    assert scale["delta"] == scale["omega"] == scale["sigma"] == bcd
    # breaking one factor must break multiplicativity somewhere
    bad = dict(scale)
    bad["alpha"] = Fraction(1)
    ok2, _ = sa.scaling_isomorphism_check(t_full, t_prod, scale=bad)
    assert not ok2


def test_deformed_needs_border():
    with pytest.raises(ValueError):
        sa.Presentation(fx.tetrahedral_quiver(), kind="deformed",
                        field=PrimeField(2))


def test_zero_deformation_matches_weighted():
    F = PrimeField(2)
    t_w = sa.build_algebra(sa.Presentation(
        fx.triangle_quiver(), kind="weighted", field=F))
    t_d = sa.build_algebra(sa.Presentation(
        fx.triangle_quiver(), kind="deformed", field=F,
        b={1: 0, 2: 0, 3: 0}))
    assert t_w.basis == t_d.basis
    for i in range(t_w.dim):
        for j in range(t_w.dim):
            assert t_w.basis_product(i, j) == t_d.basis_product(i, j)


def test_loop_powers_at_border():
    # for a border loop with m n = 3 the cube is the socle, fourth power 0
    t = fx.triangle_algebra()
    F = t.field
    loop = t.arrow_element("epsilon")
    sq = t.multiply(loop, loop)
    cube = t.multiply(sq, loop)
    assert cube == t.socle_element(1)
    assert t.multiply(cube, loop) == {}
