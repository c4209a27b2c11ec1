"""Right modules, syzygies, and periodicity of simple modules."""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

import surfalg as sa
from surfalg import modules
from surfalg.algebra import el_add, el_scale
from surfalg.linalg import intersection_dim, pivot_columns, rows_mul
from surfalg.modules import (
    _resolution_maps,
    hom_space,
    projective_sum,
    syzygy,
)

import fixtures as fx
from fixtures import CASES, FIELDS, presentation


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


@pytest.mark.parametrize("dims,mats,match", [
    ({1: 1, 2: 1, 99: 5}, {}, "unknown vertex 99"),
    ({1: 1, 2: 1}, {"nope": [[1]]}, "unknown arrow 'nope'"),
    ({1: 1.7}, {}, "vertex 1 must be a non-negative int, got 1.7"),
    ({1: True}, {}, "got True"),
    ({1: -1}, {}, "got -1"),
    ({1: Fraction(1)}, {}, "got Fraction"),
    ({1: "1"}, {}, "got '1'"),
    ({1: 1, 2: 1}, {"alpha": [[0.5]]}, "got 0.5"),
    ({1: 1, 2: 1}, {"alpha": [[True]]}, "got True"),
    ({1: 1, 2: 1}, {"alpha": [["1"]]}, "got '1'"),
])
def test_right_module_refuses_unknown_keys_and_bad_dims(dims, mats, match):
    t = fx.triangle_algebra()
    for check in (True, False):
        with pytest.raises(ValueError, match=match):
            sa.RightModule(t, dims, mats, check_relations=check)


def test_right_module_reads_entries_in_the_field():
    # a stored 101 over F101 was a nonzero entry for the scalar 0, on which
    # module_iso divided by zero
    t = fx.triangle_algebra(field=sa.PrimeField(101))
    ends = {1: 1, 2: 1}
    zero = sa.RightModule(t, ends, {"alpha": [[101]]})
    one = sa.RightModule(t, ends, {"alpha": [[-100]]})
    assert zero.mats["alpha"] == [{}] and one.mats["alpha"] == [{0: 1}]
    assert sa.module_iso(zero, sa.RightModule(t, ends, {}))[0]
    assert sa.module_iso(one, sa.uniserial_module(t, "alpha"))[0]
    assert not sa.module_iso(zero, one)[0]


def test_right_module_stores_integral_fractions_as_ints():
    t = fx.triangle_algebra()
    m = sa.RightModule(t, {1: 1, 2: 1}, {"alpha": [[Fraction(4, 2)]]})
    (entry,) = m.mats["alpha"][0].values()
    assert type(entry) is int and entry == 2


def test_right_module_defaults_missing_vertices_and_arrows():
    t = fx.triangle_algebra()
    m = sa.RightModule(t, {2: 1}, {})
    assert m.dims == {1: 0, 2: 1, 3: 0}
    assert all(m.mats[a] == [{}] * m.dims[t.quiver.src[a]]
               for a in t.quiver.arrows)
    assert sa.simple_module(t, 1).dims == {1: 1, 2: 0, 3: 0}
    assert sa.uniserial_module(t, "beta").total_dim == 2


@pytest.mark.parametrize("build,key,match", [
    (sa.simple_module, 99, "unknown vertex 99"),
    (sa.projective_module, 99, "unknown vertex 99"),
    (sa.verify_simple_resolution, 99, "unknown vertex 99"),
    (modules.read_simple_syzygies, 99, "unknown vertex 99"),
    (sa.uniserial_module, "nope", "unknown arrow 'nope'"),
])
def test_module_constructors_refuse_unknown_ids(build, key, match):
    with pytest.raises(ValueError, match=match):
        build(fx.triangle_algebra(), key)


def test_module_map_reads_entries_in_the_field():
    # a stored 101 over F101 was a nonzero entry for the scalar 0: the
    # zero map reported is_zero() False and rank() 1
    t = fx.triangle_algebra(field=sa.PrimeField(101))
    s1 = sa.simple_module(t, 1)
    zero = sa.ModuleMap(s1, s1, {1: [{0: 101}], 2: [], 3: []})
    assert zero.mats == {1: [{}], 2: [], 3: []}
    assert zero.is_zero() and zero.rank() == 0
    one = sa.ModuleMap(s1, s1, {1: [{0: -100}]})
    assert one.mats == {1: [{0: 1}], 2: [], 3: []}
    assert not one.is_zero() and one.rank() == 1
    s1_q = sa.simple_module(fx.triangle_algebra(), 1)
    two = sa.ModuleMap(s1_q, s1_q, {1: [{0: Fraction(4, 2)}]})
    (entry,) = two.mats[1][0].values()
    assert type(entry) is int and entry == 2


def test_module_map_from_rows_takes_rows_as_they_are():
    t = fx.triangle_algebra(field=sa.PrimeField(101))
    s1 = sa.simple_module(t, 1)
    mats = {1: [{0: 101}], 2: [], 3: []}
    hom = sa.ModuleMap.from_rows(s1, s1, mats)
    assert hom.mats is mats and hom.domain is s1 and hom.codomain is s1


@pytest.mark.parametrize("mats,match", [
    ({1: [{0: 0.5}]}, "got 0.5"),
    ({1: [{0: True}]}, "got True"),
    ({9: []}, "unknown vertex 9"),
    ({1: []}, "must have 1 rows, got 0"),
    ({1: [{}, {}]}, "must have 1 rows, got 2"),
    ({2: [{}]}, "must have 0 rows, got 1"),
    ({1: [{1: 1}]}, "column 1 at vertex 1"),
    ({1: [{-1: 1}]}, "column -1 at vertex 1"),
    ({1: [{"0": 1}]}, "column '0' at vertex 1"),
    ({1: [[1]]}, "must be dicts"),
])
def test_module_map_refuses_bad_rows(mats, match):
    s1 = sa.simple_module(fx.triangle_algebra(), 1)
    with pytest.raises(ValueError, match=match):
        sa.ModuleMap(s1, s1, mats)


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


def test_module_iso_one_dimensional_hom_is_exact(monkeypatch):
    # Hom(U_alpha, S_1 (+) S_2) is one-dimensional and its map kills the
    # radical of U_alpha, at vertex 2: no map is invertible, and the
    # answer is definitive without a random search.
    t = fx.triangle_algebra()
    u = sa.uniserial_module(t, "alpha")
    semisimple = sa.RightModule(t, {1: 1, 2: 1}, {})
    basis = hom_space(u, semisimple)
    assert len(basis) == 1 and basis[0][2] == [{}]

    def no_search(seed):
        raise AssertionError("the random search was entered")

    monkeypatch.setattr(modules, "random", SimpleNamespace(Random=no_search))
    ok, cert = sa.module_iso(u, semisimple)
    assert not ok and cert["definitive"]
    ok, cert = sa.module_iso(u, u)
    assert ok and "iso" in cert


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


# -- the batch uniserial check against the four-syzygy loop it replaced --

def four_syzygy_check(table, arrow):
    """The uniserial report by four syzygies of U_arrow and two isomorphism
    searches, as computed before the batch read Omega^3 and Omega^4 off
    the partner's chain.  Looks ``syzygy`` and ``module_iso`` up in
    :mod:`surfalg.modules` at call time, so a patch there reaches it."""
    q = table.quiver
    f, g = q.f, table.gd.g
    partner = f[g[f[arrow]]]
    mods = [sa.uniserial_module(table, arrow)]
    infos = []
    for _ in range(4):
        k, info = modules.syzygy(mods[-1])
        mods.append(k)
        infos.append(info)
    ok2, _ = modules.module_iso(mods[2], sa.uniserial_module(table, partner))
    ok4, _ = modules.module_iso(mods[4], mods[0])
    report = {
        "arrow": arrow,
        "partner": partner,
        "partner_distinct": partner != arrow,
        "syzygy_dims": [m.total_dim for m in mods],
        "covers_minimal": all(i["minimal"] and i["surjective"] for i in infos),
        "omega2_is_partner_module": ok2,
        "omega4_is_start_module": ok4,
    }
    report["period_exactly_4"] = (
        ok2 and ok4 and partner != arrow and mods[1].dims != mods[0].dims
        and report["covers_minimal"])
    return report


def assert_batch_matches_four_syzygies(table, arrows):
    """``uniserial_period_checks`` equals ``four_syzygy_check`` arrow by
    arrow.  Returns the reports."""
    expect = [four_syzygy_check(table, a) for a in arrows]
    assert sa.uniserial_period_checks(table, arrows) == expect
    return expect


def relabelled_tetrahedral(a=1):
    """The tetrahedral algebra with renamed vertices and arrows, listed in
    reverse order, so arrows, blocks and basis indices are ordered
    differently."""
    q = fx.tetrahedral_quiver()
    renamed = sa.validate(
        [v * 10 for v in reversed(q.vertices)],
        [(x.upper(), q.src[x] * 10, q.tgt[x] * 10)
         for x in reversed(q.arrows)],
        {x.upper(): q.f[x].upper() for x in q.arrows})
    return fx.weighted(renamed, c={"BETA": Fraction(a)})


UNISERIAL_TABLES = {
    "a=1/Q": lambda: fx.tetrahedral_algebra(),
    "a=2/Q": lambda: fx.tetrahedral_algebra(a=2),
    "a=1/F101": lambda: fx.tetrahedral_algebra(field=sa.PrimeField(101)),
    "a=2/F101": lambda: fx.tetrahedral_algebra(a=2,
                                               field=sa.PrimeField(101)),
    "relabelled/a=1": relabelled_tetrahedral,
    "relabelled/a=2": lambda: relabelled_tetrahedral(2),
    # unequal weights: Omega^1 of an arrow and of its partner differ in
    # dimension, and Omega^2 is the partner's module for some arrows only
    "m_gamma=2/Q": lambda: fx.weighted(fx.tetrahedral_quiver(),
                                       m={"gamma": 2}),
    "m_beta=3,gamma=2/F101": lambda: fx.weighted(
        fx.tetrahedral_quiver(), m={"beta": 3, "gamma": 2},
        field=sa.PrimeField(101)),
}


@pytest.mark.parametrize("build", UNISERIAL_TABLES.values(),
                         ids=UNISERIAL_TABLES.keys())
def test_uniserial_batch_matches_four_syzygies(build):
    t = build()
    arrows = t.quiver.arrows
    expect = assert_batch_matches_four_syzygies(t, arrows)
    assert [sa.uniserial_period_check(t, a) for a in arrows] == expect


def count_syzygies(monkeypatch):
    calls = []
    syz = modules.syzygy

    def counted(module):
        calls.append(module)
        return syz(module)

    monkeypatch.setattr(modules, "syzygy", counted)
    return calls


def test_uniserial_batch_runs_two_syzygies_per_arrow(monkeypatch):
    t = fx.tetrahedral_algebra()
    calls = count_syzygies(monkeypatch)
    reports = sa.uniserial_period_checks(t, t.quiver.arrows)
    assert len(reports) == 12 and len(calls) == 24


def test_uniserial_batch_without_ok2_runs_the_syzygies(monkeypatch):
    # module_iso refuses every isomorphism onto U_p0, so the arrow with
    # partner p0 takes the direct path for Omega^3 and Omega^4.
    t = fx.tetrahedral_algebra()
    q = t.quiver
    arrow = q.arrows[0]
    p0 = q.f[t.gd.g[q.f[arrow]]]
    u = sa.uniserial_module(t, p0)
    iso = modules.module_iso

    def refusing(m1, m2, **kwargs):
        if m2.dims == u.dims and m2.mats == u.mats:
            return False, {"reason": "refused", "definitive": False}
        return iso(m1, m2, **kwargs)

    monkeypatch.setattr(modules, "module_iso", refusing)
    expect = [four_syzygy_check(t, a) for a in q.arrows]
    calls = count_syzygies(monkeypatch)
    got = sa.uniserial_period_checks(t, q.arrows)
    assert got == expect
    assert len(calls) == 26
    assert not got[0]["omega2_is_partner_module"]
    assert sum(not r["period_exactly_4"] for r in got) == 2


def test_uniserial_batch_reads_the_partner_certificates(monkeypatch):
    # A cover of the partner's chain that is not certified minimal shows
    # in the report of every arrow whose Omega^3 and Omega^4 it supplies.
    t = fx.tetrahedral_algebra()
    q = t.quiver
    partner = {a: q.f[t.gd.g[q.f[a]]] for a in q.arrows}
    p0 = q.arrows[0]
    omega1 = syzygy(sa.uniserial_module(t, p0))[0]
    syz = modules.syzygy

    def flagged(module):
        kernel, info = syz(module)
        if module.dims == omega1.dims and module.mats == omega1.mats:
            info = dict(info, minimal=False)
        return kernel, info

    monkeypatch.setattr(modules, "syzygy", flagged)
    reports = sa.uniserial_period_checks(t, q.arrows)
    assert [not r["covers_minimal"] for r in reports] == [
        a == p0 or partner[a] == p0 for a in q.arrows]
    assert sum(not r["covers_minimal"] for r in reports) == 2


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
        out[module.table.tgt_of[k]][module.coords[component][k]] = cf
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
