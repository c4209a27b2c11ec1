"""Algebra construction: basis, multiplication, invariants, forms."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import surfalg as sa
from surfalg.algebra import el_add
from surfalg.fields import PrimeField

import fixtures as fx
from fixtures import FIELDS, WORD_CASES, form_value, presentation
from test_closed_form import assert_words_match_walk


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


@pytest.mark.parametrize("weight", [True, False, 2.0, "2", None])
def test_weight_must_be_an_int(weight):
    # a bool is an int to isinstance, but True would build weight 1
    with pytest.raises(ValueError, match="positive integer"):
        sa.Presentation(fx.triangle_quiver(), m={"alpha": weight})


F101 = PrimeField(101)


@pytest.mark.parametrize("value", [101, -202, 0])
def test_fp_parameter_divisible_by_p_is_refused(value):
    with pytest.raises(ValueError, match="must be nonzero"):
        sa.Presentation(fx.triangle_quiver(), field=F101, c={"alpha": value})


@pytest.mark.parametrize("value", [Fraction(1, 2), Fraction(2), 0.5, 2.0,
                                   True, "2", None])
def test_fp_parameter_must_be_an_int(value):
    with pytest.raises(ValueError, match="F101 scalar must be an integer"):
        sa.Presentation(fx.triangle_quiver(), field=F101, c={"alpha": value})


def test_fp_scalars_are_stored_reduced():
    t = sa.build_algebra(sa.Presentation(
        fx.tetrahedral_quiver(), field=F101, c={"alpha": -1, "beta": 205}))
    assert t.c["alpha"] == 100 and t.c_inv["alpha"] == 100
    assert t.c["beta"] == 3 and t.c_inv["beta"] == 34
    # two spellings of one residue on one g-orbit do not conflict
    p = sa.Presentation(fx.triangle_quiver(), field=F101,
                        c={"alpha": 1, "eta": 102})
    assert p.param_of("eta") == 1
    p2 = sa.Presentation(fx.triangle_quiver(), kind="deformed",
                         field=PrimeField(2), b={1: 3, 2: -1, 3: 2})
    assert p2.b == {1: 1, 2: 1, 3: 0}
    with pytest.raises(ValueError, match="F2 scalar must be an integer"):
        sa.Presentation(fx.triangle_quiver(), kind="deformed",
                        field=PrimeField(2), b={1: 1.0})


@pytest.mark.parametrize("value", [0.5, 2.0, True, False, "1/2", None])
def test_q_parameter_must_be_an_int_or_fraction(value):
    with pytest.raises(ValueError, match="must be an int or a Fraction"):
        sa.Presentation(fx.triangle_quiver(), field=sa.QQ, c={"alpha": value})
    with pytest.raises(ValueError, match="must be an int or a Fraction"):
        sa.Presentation(fx.triangle_quiver(), kind="deformed", field=sa.QQ,
                        b={1: value})


def test_q_scalars_are_ints_when_integral():
    t = sa.build_algebra(sa.Presentation(
        fx.tetrahedral_quiver(), field=sa.QQ,
        c={"alpha": Fraction(4, 2), "beta": Fraction(-1, 2)}))
    assert type(t.c["alpha"]) is int and t.c["alpha"] == 2
    assert t.c_inv["alpha"] == Fraction(1, 2)
    assert type(t.c_inv["beta"]) is int and t.c_inv["beta"] == -2
    assert all(type(v) in (int, Fraction)
               for prods in t.right.values() for _, v in prods)


def test_orbit_keys_normalize():
    q = fx.triangle_quiver()
    p1 = sa.Presentation(q, kind="weighted", field=sa.QQ, m={"eta": 2})
    p2 = sa.Presentation(q, kind="weighted", field=sa.QQ, m={"alpha": 2})
    t1, t2 = sa.build_algebra(p1), sa.build_algebra(p2)
    assert t1.dim == t2.dim == 72


def test_basis_layout():
    t = fx.triangle_algebra()
    kinds = [t.basis_element(j)[0] for j in range(t.dim)]
    assert kinds == ["e"] * 3 + ["w"] * (t.dim - 6) + ["s"] * 3
    assert (t.first_word, t.first_socle) == (3, t.dim - 3)
    # string algebras have no socle rows of their own
    ts = sa.build_algebra(sa.Presentation(
        fx.triangle_quiver(), kind="string", field=sa.QQ))
    assert ts.first_socle == ts.dim
    assert all(ts.basis_element(j)[0] != "s" for j in range(ts.dim))


def test_checks_read_offsets_only(monkeypatch):
    """A table stores no tuple per basis element and no index dict, and
    the form, simple, bimodule, uniserial and growth checks of passing
    algebras never name a basis element: they read block offsets only."""
    def named(self, j):
        raise AssertionError(f"a check called basis_element({j})")

    monkeypatch.setattr(sa.AlgebraTable, "basis_element", named)
    tetra = fx.tetrahedral_algebra(a=2)
    for t in (fx.triangle_algebra(m=2), tetra, fx.deformed_triangle_f2()):
        assert not hasattr(t, "basis") and not hasattr(t, "index")
        rep = sa.verify_symmetrizing_form(t)
        assert rep["symmetric"] and rep["nondegenerate"]
        for v in t.quiver.vertices:
            rep = sa.verify_simple_resolution(t, v)
            assert rep["verdict"] == "PERIODIC_PERIOD_4", v
        rep = sa.verify_bimodule_periodicity(t)
        assert rep["verdict"] == "PERIODIC_PERIOD_4"
        if t.kind == "weighted":
            assert sa.classify_growth(t)["verdict"]
    reports = sa.uniserial_period_checks(tetra, tetra.quiver.arrows)
    assert all(r["period_exactly_4"] for r in reports)


def test_identity_and_idempotents():
    for t in all_kind_tables():
        F = t.field
        for i in range(t.dim):
            b = t.basis_element(i)
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
        assert lhs == rhs, (t.kind, i, j, k)


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
                acc = el_add(F, acc, fx.path_element(t, path, coeff))
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
    el = fx.path_element(t, arrows, F.one)
    assert el == t.socle_element(t.quiver.src[a])


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("name,kind", WORD_CASES)
def test_word_element_matches_walk(name, kind, field):
    rng = random.Random(f"{name}/{kind}/{field}")
    assert_words_match_walk(sa.build_algebra(
        presentation(name, kind, FIELDS[field], rng)))


def test_cartan_matrix_values():
    t = fx.triangle_algebra()
    cm = sa.cartan_matrix(t)
    assert cm["matrix"] == [[4, 4, 4], [4, 4, 4], [4, 4, 4]]
    assert cm["det"] == 0
    t2 = fx.triangle_algebra(m=2)
    cm2 = sa.cartan_matrix(t2)
    assert cm2["matrix"] == [[8, 8, 8], [8, 8, 8], [8, 8, 8]]
    assert cm2["det"] == 0
    # the counted matrix against the basis_of lists, on every fixture
    for name, kind in WORD_CASES:
        t = sa.build_algebra(presentation(name, kind, sa.QQ,
                                          random.Random(name)))
        verts = t.quiver.vertices
        assert sa.cartan_matrix(t)["matrix"] == [
            [len(t.basis_of(source=u, target=v)) for v in verts]
            for u in verts], (name, kind)


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


def test_gram_matrix_built_once_per_table(monkeypatch):
    calls = []
    build = sa.algebra.gram_matrix

    def counted(table, phi):
        calls.append(table)
        return build(table, phi)

    monkeypatch.setattr(sa.algebra, "gram_matrix", counted)
    t = fx.triangle_algebra(m=3)
    rep = sa.verify_symmetrizing_form(t)
    assert rep["symmetric"] and rep["nondegenerate"]
    assert len(sa.dual_basis(t)) == t.dim
    assert len(calls) == 1
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


def walk_scaling_check(table1, table2, scale):
    """The reference route for ``scaling_isomorphism_check``: each image
    multiplied out along its arrows by the walk."""
    field = table1.field
    images = []
    for j in range(table2.dim):
        s0, arrows = table2.chain(j)
        t = s0
        for x in arrows:
            t = field.mul(t, scale[x])
        bj = table2.basis_element(j)
        if bj[0] == "e":
            img = table1.idempotent(bj[1])
        else:
            img = fx.path_element(table1, arrows, t)
        images.append(img)
        if not img:
            return False, {"scale": scale, "failure": {"basis": list(bj)}}
    failure = None
    for i in range(table2.dim):
        for j in range(table2.dim):
            lhs = {}
            for k, ck in table2.basis_product(i, j):
                field.axpy(lhs, images[k].items(), ck)
            if lhs != table1.multiply(images[i], images[j]):
                failure = {"i": list(table2.basis_element(i)),
                           "j": list(table2.basis_element(j))}
                break
        if failure:
            break
    return failure is None, {"scale": scale, "failure": failure}


def test_scaling_check_matches_walk():
    a, b, c, d = Fraction(2), Fraction(3), Fraction(1, 5), Fraction(7)
    t_full = fx.tetrahedral_algebra(a=a, b=b, c=c, d=d)
    t_prod = fx.tetrahedral_algebra(a=a * b * c * d)
    scale = sa.tetrahedral_scaling(t_full, t_prod)
    bad = dict(scale, alpha=Fraction(1))
    # one g-orbit at weight 2: its words run past t_full's socle
    t_long = fx.weighted(fx.tetrahedral_quiver(), m={"alpha": 2},
                         c={"beta": a * b * c * d})
    results = []
    for table2, sc in ((t_prod, scale), (t_prod, bad), (t_long, scale)):
        got = sa.scaling_isomorphism_check(t_full, table2, scale=sc)
        assert got == walk_scaling_check(t_full, table2, sc)
        results.append(got)
    assert [ok for ok, _ in results] == [True, False, False]
    assert "i" in results[1][1]["failure"]
    kind, arrow, length = results[2][1]["failure"]["basis"]
    assert kind == "w" and length == t_full.mn[arrow] + 1


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
    assert t_w.dim == t_d.dim
    assert all(t_w.basis_element(j) == t_d.basis_element(j)
               for j in range(t_w.dim))
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


@pytest.mark.parametrize("name,kind", WORD_CASES)
def test_basis_of_matches_the_scan(name, kind):
    t = sa.build_algebra(presentation(name, kind, sa.QQ, random.Random(name)))
    ends = list(t.quiver.vertices) + [None, "no such vertex"]
    for s, g in itertools.product(ends, ends):
        scan = [i for i in range(t.dim)
                if (s is None or t.src_of[i] == s)
                and (g is None or t.tgt_of[i] == g)]
        got = t.basis_of(source=s, target=g)
        assert got == scan
        got.append(-1)  # a new list: the table's own is untouched
        assert t.basis_of(s, g) == scan
