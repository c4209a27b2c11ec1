"""Right modules, syzygies, and periodicity of simple modules."""

import random

import pytest

import surfalg as sa
from surfalg.algebra import el_add, el_scale
from surfalg.linalg import intersection_dim, pivot_columns, rows_mul
from surfalg.modules import (
    _resolution_maps,
    hom_space,
    projective_sum,
    syzygy,
)

import fixtures as fx
from test_closed_form import FIELDS
from test_syzygy import CASES, presentation


def test_projective_module_dims():
    t = fx.triangle_algebra()
    for v in t.quiver.vertices:
        p = sa.projective_module(t, v)
        assert p.total_dim == len(t.basis_of(source=v)) == 12
        assert p.violated_relations() == []


def test_simple_module_shape():
    t = fx.triangle_algebra()
    s = sa.simple_module(t, 2)
    assert s.total_dim == 1
    assert s.dims[2] == 1
    assert s.violated_relations() == []


def test_module_relation_check_catches_errors():
    t = fx.triangle_algebra()
    F = t.field
    dims = {v: 1 for v in t.quiver.vertices}
    # alpha alone may act: every relation word uses some other arrow
    ok_mats = {"alpha": [[F.one]]}
    m = sa.RightModule(t, dims, ok_mats)
    assert m.violated_relations() == []
    # alpha and beta acting by 1 break alpha . f(alpha) = c A-word
    bad_mats = {"alpha": [[F.one]], "beta": [[F.one]]}
    with pytest.raises(ValueError):
        sa.RightModule(t, dims, bad_mats)
    m2 = sa.RightModule(t, dims, bad_mats, check_relations=False)
    assert m2.violated_relations() != []
    with pytest.raises(ValueError):
        # wrong matrix shape
        sa.RightModule(t, dims, {"alpha": [[F.one, F.one]]})


def test_radical_profile_of_projective():
    t = fx.triangle_algebra()
    q = t.quiver
    p = sa.projective_module(t, 1)
    ranks = [len(pivot_columns([row for a in q.arrows if q.tgt[a] == v
                                for row in p.mats[a]], t.field))
             for v in q.vertices]
    # radical has codimension one in an indecomposable projective
    assert sum(ranks) == p.total_dim - 1


def test_syzygy_of_simple_is_radical():
    t = fx.triangle_algebra()
    s = sa.simple_module(t, 1)
    k, info = syzygy(s)
    assert info["surjective"] and info["minimal"]
    assert info["cover_components"] == [1]
    assert k.total_dim == 11
    assert k.violated_relations() == []


def test_syzygy_chain_dims_match_resolution():
    t = fx.triangle_algebra()
    rep = sa.verify_simple_resolution(t, 1)
    s = sa.simple_module(t, 1)
    chain = [s]
    for _ in range(4):
        k, info = syzygy(chain[-1])
        assert info["minimal"]
        chain.append(k)
    assert chain[2].total_dim == rep["omega2_dim"] == rep["omega2_expected"]
    assert chain[4].total_dim == 1


def test_hom_space_and_iso():
    t = fx.triangle_algebra()
    p1 = sa.projective_module(t, 1)
    p1b = sa.projective_module(t, 1)
    p2 = sa.projective_module(t, 2)
    s1 = sa.simple_module(t, 1)
    s2 = sa.simple_module(t, 2)
    assert len(hom_space(s1, s1)) == 1
    assert len(hom_space(s1, s2)) == 0
    ok, cert = sa.module_iso(p1, p1b)
    assert ok and "iso" in cert
    ok2, cert2 = sa.module_iso(s1, s2)
    assert not ok2 and cert2["definitive"]
    ok3, _ = sa.module_iso(p1, p2)
    assert not ok3
    # a projective and a sum of smaller modules of equal dimension
    big = projective_sum(t, [1])
    assert big.total_dim == p1.total_dim
    ok4, _ = sa.module_iso(big, p1)
    assert ok4


def test_simple_resolution_report_fields():
    t = fx.triangle_algebra()
    rep = sa.verify_simple_resolution(t, 1)
    assert rep["verdict"] == "PERIODIC_PERIOD_4"
    assert rep["failing_stage"] is None
    names = [s["name"] for s in rep["stages"]]
    assert names == [
        "image_pi1_is_radical",
        "pi1_pi2_composite_zero",
        "kernel_pi1_equals_image_pi2",
        "pi2_pi3_composite_zero",
        "kernel_pi2_equals_image_pi3",
        "kernel_pi3_is_socle",
    ]
    assert all(s["ok"] for s in rep["stages"])
    assert rep["dims"]["P0"] == 12
    assert rep["phi_psi_intersection_dim"] == 3


def test_simple_resolution_all_fixtures():
    tables = [
        fx.triangle_algebra(),
        fx.triangle_algebra(m=2),
        fx.weighted(fx.sphere_opposite_quiver(),
                    m={"alpha1": 2, "alpha2": 2, "alpha3": 2}),
        fx.weighted(fx.tetrahedral_reversed_quiver()),
        fx.deformed_triangle_f2(),
    ]
    for t in tables:
        for v in t.quiver.vertices:
            rep = sa.verify_simple_resolution(t, v)
            assert rep["verdict"] == "PERIODIC_PERIOD_4", (t.kind, v, rep)
            assert rep["omega2_dim"] == rep["omega2_expected"]


def test_simple_resolution_rejects_other_kinds():
    t = sa.build_algebra(sa.Presentation(
        fx.triangle_quiver(), kind="biserial", field=sa.QQ))
    with pytest.raises(ValueError):
        sa.verify_simple_resolution(t, 1)


def test_singular_tetrahedral_fails_with_intersection_4():
    t = fx.tetrahedral_algebra()
    for v in t.quiver.vertices:
        rep = sa.verify_simple_resolution(t, v)
        assert rep["verdict"] == "NOT_VERIFIED"
        assert rep["failing_stage"] == "kernel_pi1_equals_image_pi2"
        assert rep["phi_psi_intersection_dim"] == 4


def test_nonsingular_tetrahedral_passes_with_intersection_3():
    for kwargs in ({"a": 2}, {"a": "1/2", "b": 3}):
        t = fx.tetrahedral_algebra(**kwargs)
        for v in t.quiver.vertices:
            rep = sa.verify_simple_resolution(t, v)
            assert rep["verdict"] == "PERIODIC_PERIOD_4", (kwargs, v)
            assert rep["phi_psi_intersection_dim"] == 3


def test_uniserial_modules():
    t = fx.tetrahedral_algebra()
    u = sa.uniserial_module(t, "beta")
    assert u.total_dim == 2
    assert u.violated_relations() == []
    with pytest.raises(ValueError):
        sa.uniserial_module(fx.triangle_algebra(), "epsilon")


def test_uniserial_period_four_both_parameter_regimes():
    for t in (fx.tetrahedral_algebra(), fx.tetrahedral_algebra(a=2)):
        for a in t.quiver.arrows:
            rep = sa.uniserial_period_check(t, a)
            assert rep["period_exactly_4"], (a, rep)
            assert rep["partner_distinct"]
            q = t.quiver
            assert rep["partner"] == q.f[q.g(q.f[a])]


def test_deformed_resolution_columns_differ_from_weighted():
    # over F2 with b=1 the resolution still closes up exactly
    t = fx.deformed_triangle_f2()
    rep = sa.verify_simple_resolution(t, 1)
    assert rep["verdict"] == "PERIODIC_PERIOD_4"
    assert rep["omega2_dim"] == rep["omega2_expected"] == 13


# -- the simple-resolution readings against the products they replace ----


def oracle_columns(table, v):
    """phi = (phi0, phi1) and psi = (psi0, psi1) from their formulas."""
    q, field, f, g = table.quiver, table.field, table.quiver.f, table.gd.g
    al, ab = q.out_arrows(v)
    if q.f[ab] == ab:
        al, ab = ab, al
    bval = (table.pres.b.get(v, field.zero) if table.kind == "deformed"
            else field.zero)
    phi = [table.arrow_element(f[al]),
           el_scale(field, field.neg(table.c[ab]),
                    table.word_element(g[ab], table.mn[ab] - 2))]
    psi = [el_scale(field, field.neg(table.c[al]),
                    table.word_element(g[al], table.mn[al] - 2)),
           table.arrow_element(f[ab])]
    if bval != field.zero:
        phi[1] = el_add(field, phi[1], el_scale(
            field, field.neg(bval),
            table.word_element(g[ab], table.mn[ab] - 1)))
        psi[0] = el_add(field, psi[0], el_scale(
            field, field.neg(bval), table.word_element(al, table.mn[al] - 1)))
    return al, ab, phi, psi


def multiply_meet(table, v):
    """dim (phi A meet psi A), each span from products phi . b_k."""
    q, field = table.quiver, table.field
    al, ab, phi, psi = oracle_columns(table, v)
    spans = []
    for pair, arrow in ((phi, q.f[al]), (psi, q.f[ab])):
        spans.append([
            {(l, k2): cf for l, e in enumerate(pair)
             for k2, cf in table.multiply(e, {k: field.one}).items()}
            for k in table.basis_of(source=q.tgt[arrow])])
    return intersection_dim(*spans, field)


def element_vector(module, component, elem):
    """Sparse per-vertex coordinates of an algebra element in one summand."""
    out = {w: {} for w in module.dims}
    for k, cf in elem.items():
        w = module.table.tgt_of[k]
        out[w][module.layout_pos[w][(component, k)]] = cf
    return out


def socle_killed(table, v):
    """Whether pi3 kills s_v, by multiplying its coordinate vector."""
    pi3 = _resolution_maps(table, v)[4]
    soc = element_vector(pi3.domain, 0, table.socle_element(v))
    return not any(rows_mul([soc[w]], pi3.mats[w], table.field)[0]
                   for w in table.quiver.vertices)


def assert_readings_match_products(table):
    for v in table.quiver.vertices:
        rep = sa.verify_simple_resolution(table, v)
        assert rep["phi_psi_intersection_dim"] == multiply_meet(table, v), v
        stage = rep["stages"][-1]
        assert stage["name"] == "kernel_pi3_is_socle"
        assert stage["ok"] == (stage["kernel_dim"] == 1
                               and socle_killed(table, v)), v


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("name,kind", CASES)
def test_simple_readings_match_products(name, kind, field):
    rng = random.Random(f"{name}/{kind}/{field}")
    assert_readings_match_products(sa.build_algebra(
        presentation(name, kind, FIELDS[field], rng)))


@pytest.mark.parametrize("build", [
    fx.deformed_triangle_f2,
    lambda: fx.tetrahedral_algebra(),
    lambda: fx.tetrahedral_algebra(field=sa.PrimeField(101)),
], ids=["deformed_triangle_f2", "singular_tetrahedral_Q",
        "singular_tetrahedral_F101"])
def test_simple_readings_match_products_fixed(build):
    # the singular tetrahedral algebras meet in dimension 4, not 3
    assert_readings_match_products(build())
