"""Acceptance suite: the twelve headline checks, one pass/fail line each."""

import functools
import itertools
import json
import random

import surfalg as sa
from surfalg.cli import main as cli_main
from surfalg.modules import syzygy

import fixtures as fx


def criterion(n, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {n:2d}: {desc}")
                raise
            print(f"[PASS] criterion {n:2d}: {desc}")
        return wrapper
    return deco


@criterion(1, "fixture quivers validate with the expected g-orbits")
def test_criterion_01_quivers_and_orbits():
    for name, build in fx.ALL_QUIVERS.items():
        build()
    gd = sa.g_structure(fx.triangle_quiver())
    assert gd.orbits == [("alpha", "eta", "beta", "mu", "gamma", "epsilon")]
    gd2 = sa.g_structure(fx.double_projective_quiver())
    assert {frozenset(o) for o in gd2.orbits} == {
        frozenset({"alpha"}), frozenset({"rho"}),
        frozenset({"beta", "delta", "sigma", "gamma"})}
    # orbit listing follows consecutive g-steps
    q = fx.double_projective_quiver()
    for o in gd2.orbits:
        for i, a in enumerate(o):
            assert q.g(a) == o[(i + 1) % len(o)]


@criterion(2, "surface round-trips are isomorphisms; tetrahedron splits "
              "into 4 triangles with no boundary")
def test_criterion_02_surface_round_trips():
    for name, build in fx.ALL_QUIVERS.items():
        q = build()
        q2 = sa.quiver_from_surface(sa.surface_from_quiver(q))
        assert list(sa.quiver_isomorphisms(q, q2)), name
    for name, build in fx.ALL_SURFACES.items():
        s = build()
        q = sa.quiver_from_surface(s)
        s2 = sa.surface_from_quiver(q)
        q2 = sa.quiver_from_surface(s2)
        assert list(sa.quiver_isomorphisms(q, q2)), name
    s = sa.surface_from_quiver(fx.tetrahedral_quiver())
    assert len(s.triangles) == 4 and s.boundary == ()


def _presentations_weights_1_to_3():
    pres = []
    for m in (1, 2, 3):
        pres.append(fx.weighted(fx.triangle_quiver(), m={"alpha": m}))
        pres.append(fx.weighted(fx.sphere_coherent_quiver(),
                                m={"alpha1": m}))
    for m1, m2, m3 in itertools.product((2, 3), repeat=3):
        pres.append(fx.weighted(fx.sphere_opposite_quiver(),
                                m={"alpha1": m1, "alpha2": m2,
                                   "alpha3": m3}))
    for r in (1, 2, 3):
        pres.append(fx.weighted(fx.double_projective_quiver(),
                                m={"alpha": 3, "rho": 3, "beta": r}))
    for m in (1, 2, 3):
        pres.append(fx.weighted(fx.tetrahedral_quiver(), m={"beta": m}))
    pres.append(fx.weighted(fx.tetrahedral_reversed_quiver()))
    return pres


@criterion(3, "dimension formulas hold on 22 presentations with "
              "weights 1 to 3, totals and per vertex")
def test_criterion_03_dimension_formulas():
    tables = _presentations_weights_1_to_3()
    assert len(tables) >= 20
    for t in tables:
        rep = sa.dimension_report(t)
        assert rep["matches"], rep
        assert rep["dim_at_vertex"] == rep["formula_at_vertex"]
        gd, pres = t.gd, t.pres
        for v in t.quiver.vertices:
            a, ab = t.quiver.out_arrows(v)
            expect = (pres.weight_of(a) * gd.n[a]
                      + pres.weight_of(ab) * gd.n[ab])
            assert rep["dim_at_vertex"][str(v)] == expect


@criterion(4, "multiplication is associative (exhaustive up to dim 40, "
              "10000 random triples beyond)")
def test_criterion_04_associativity():
    tables = [fx.triangle_algebra(),
              fx.deformed_triangle_f2(),
              fx.weighted(fx.tetrahedral_quiver()),
              fx.triangle_algebra(m=2),
              fx.weighted(fx.tetrahedral_reversed_quiver())]
    rng = random.Random(1)
    for t in tables:
        F = t.field
        if t.dim <= 40:
            triples = itertools.product(range(t.dim), repeat=3)
        else:
            triples = ((rng.randrange(t.dim), rng.randrange(t.dim),
                        rng.randrange(t.dim)) for _ in range(10000))
        for i, j, k in triples:
            lhs = t.multiply(dict(t.basis_product(i, j)), {k: F.one})
            rhs = t.multiply({i: F.one}, dict(t.basis_product(j, k)))
            assert lhs == rhs, (t.kind, i, j, k)


@criterion(5, "Cartan determinants: 0 on one-orbit algebras, 4 m1 m2 m3 "
              "and 4 p q r on the weighted families, and 0 on two "
              "6-vertex fixtures")
def test_criterion_05_cartan():
    for m in (1, 2, 3):
        cm = sa.cartan_matrix(fx.triangle_algebra(m=m))
        assert all(x == 4 * m for row in cm["matrix"] for x in row)
        assert cm["det"] == 0
    q = fx.sphere_opposite_quiver()
    for m1, m2, m3 in ((2, 2, 2), (2, 3, 4)):
        t = fx.weighted(q, m={"alpha1": m1, "alpha2": m2, "alpha3": m3})
        assert sa.cartan_matrix(t)["det"] == 4 * m1 * m2 * m3
    qd = fx.double_projective_quiver()
    for p, qq, r in ((3, 3, 1), (4, 3, 2)):
        t = fx.weighted(qd, m={"alpha": p, "rho": qq, "beta": r})
        assert sa.cartan_matrix(t)["det"] == 4 * p * qq * r
    singular = [fx.weighted(fx.tetrahedral_quiver()),
                fx.weighted(fx.tetrahedral_reversed_quiver())]
    for t in singular:
        assert len(t.quiver.vertices) >= 4
        assert sa.cartan_matrix(t)["det"] == 0


@criterion(6, "the socle form is symmetric and nondegenerate on all "
              "self-injective kinds")
def test_criterion_06_symmetrizing_form():
    tables = [fx.triangle_algebra(),
              fx.weighted(fx.tetrahedral_quiver()),
              sa.build_algebra(sa.Presentation(
                  fx.triangle_quiver(), kind="biserial", field=sa.QQ)),
              sa.build_algebra(sa.Presentation(
                  fx.tetrahedral_quiver(), kind="biserial", field=sa.QQ)),
              fx.deformed_triangle_f2()]
    for t in tables:
        rep = sa.verify_symmetrizing_form(t)
        assert rep["symmetric"] and rep["nondegenerate"], t.kind
        G = sa.gram_matrix(t, sa.symmetrizing_form(t))
        from surfalg.linalg import rank_of_rows
        assert rank_of_rows(G, t.field) == t.dim


def _simple_period_4(t, v):
    rep = sa.verify_simple_resolution(t, v)
    assert rep["verdict"] == "PERIODIC_PERIOD_4", (v, rep["failing_stage"])
    assert rep["omega2_dim"] == rep["omega2_expected"]
    chain = [sa.simple_module(t, v)]
    for _ in range(4):
        k, info = syzygy(chain[-1])
        assert info["minimal"]
        chain.append(k)
    ok4, cert = sa.module_iso(chain[4], chain[0])
    assert ok4 and "iso" in cert
    for j in (1, 2, 3):
        okj, certj = sa.module_iso(chain[j], chain[0])
        assert not okj and certj["definitive"], (v, j)


@criterion(7, "simple modules have exact period-4 resolutions on five "
              "presentations, with syzygy certificates")
def test_criterion_07_simple_periodicity():
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
            _simple_period_4(t, v)


@criterion(8, "tetrahedral dichotomy: intersection dim 4 and failure at "
              "product 1, dim 3 and success otherwise")
def test_criterion_08_tetrahedral_dichotomy():
    t_sing = fx.tetrahedral_algebra()
    for v in t_sing.quiver.vertices:
        rep = sa.verify_simple_resolution(t_sing, v)
        assert rep["phi_psi_intersection_dim"] == 4
        assert rep["verdict"] == "NOT_VERIFIED"
        assert rep["failing_stage"] == "kernel_pi1_equals_image_pi2"
    for kwargs in ({"a": 2}, {"a": "1/2", "b": 3}):
        t = fx.tetrahedral_algebra(**kwargs)
        for v in t.quiver.vertices:
            rep = sa.verify_simple_resolution(t, v)
            assert rep["phi_psi_intersection_dim"] == 3
            assert rep["verdict"] == "PERIODIC_PERIOD_4"


@criterion(9, "all 12 tetrahedral uniserial modules have period exactly 4 "
              "in both parameter regimes")
def test_criterion_09_uniserial_period():
    for t in (fx.tetrahedral_algebra(), fx.tetrahedral_algebra(a=2)):
        for a in t.quiver.arrows:
            rep = sa.uniserial_period_check(t, a)
            assert rep["period_exactly_4"], (a, rep)


@criterion(10, "bimodule resolutions close with period 4; the singular "
               "tetrahedral case fails at a named stage")
def test_criterion_10_bimodule_periodicity():
    for t in (fx.triangle_algebra(), fx.deformed_triangle_f2()):
        rep = sa.verify_bimodule_periodicity(t)
        assert rep["verdict"] == "PERIODIC_PERIOD_4", rep["failing_stage"]
    rep = sa.verify_bimodule_periodicity(fx.tetrahedral_algebra())
    assert rep["verdict"] == "NOT_VERIFIED"
    assert rep["failing_stage"] == "exact_at_P1"


@criterion(11, "growth classification returns the expected verdict on "
               "four fixtures and its witness walks verify")
def test_criterion_11_growth_classification():
    assert sa.classify_growth(fx.tetrahedral_algebra())["verdict"] == \
        "NotPeriodic_SingularTetrahedral"
    assert sa.classify_growth(fx.tetrahedral_algebra(a=2))["verdict"] == \
        "PolynomialGrowth_NonSingularTetrahedral"
    for t in (fx.weighted(fx.tetrahedral_reversed_quiver()),
              fx.triangle_algebra()):
        rep = sa.classify_growth(t)
        assert rep["verdict"] == "NonPolynomialGrowth_Tame"
        wit = rep["evidence"]
        assert wit["v"]["is_walk"] and wit["v"]["primitive"], wit
        assert wit["w"]["is_walk"] and wit["w"]["primitive"], wit


@criterion(12, "two identical CLI suite runs produce byte-identical output")
def test_criterion_12_cli_determinism(tmp_path, capsys):
    tri = tmp_path / "tri.json"
    tri.write_text(json.dumps(fx.quiver_doc(fx.triangle_quiver())))
    tet = tmp_path / "tet.json"
    tet.write_text(json.dumps(
        fx.quiver_doc(fx.tetrahedral_quiver(), params={"beta": "2"})))
    suite = [
        ["validate", str(tri)], ["orbits", str(tri)],
        ["build", str(tri)], ["dims", str(tri)],
        ["cartan", str(tri)], ["form", str(tri)],
        ["tetrahedral", str(tet)], ["classify", str(tet)],
        ["resolve-simple", str(tri), "--vertex", "1"],
        ["verify-bimodule-periodicity", str(tri)],
        ["uniserial-check", str(tet)],
        ["walks", str(tri), "--arrow", "alpha"],
        ["to-surface", str(tet)], ["dot", str(tri)],
    ]
    runs = []
    for _ in range(2):
        parts = []
        for argv in suite:
            code = cli_main(argv)
            out = capsys.readouterr().out
            parts.append(f"{code}:{out}")
        runs.append("".join(parts))
    assert runs[0] == runs[1]
