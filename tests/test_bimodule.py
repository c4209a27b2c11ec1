"""Bimodule resolution of the algebra over its enveloping algebra."""

from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import surfalg as sa
import surfalg.bimodule as bim
from surfalg.bimodule import (
    CERTIFICATE_PRIMES,
    AlgebraTarget,
    BimoduleMap,
    bimodule_spaces,
    map_d,
    map_d0,
    map_R,
    map_S,
    map_theta,
    verify_bimodule_periodicity,
)
from surfalg.fields import PrimeField
from surfalg.linalg import rank_of_rows

import fixtures as fx


# frozen oracle for the one-triangle disc algebra with unit weights:
# dims of the four bimodule terms and the ranks of all five maps
DISC_DIMS = {"algebra": 36, "P0": 432, "P1": 864, "P2": 864, "P3": 432}
DISC_RANKS = {"d0": 36, "d": 396, "R": 468, "S": 396, "theta": 36}

# frozen oracles for the tetrahedral algebra (all parameters 1: singular;
# a=2: non-singular)
TETRA_DIMS = {"algebra": 36, "P0": 216, "P1": 432, "P2": 432, "P3": 216}
SINGULAR_TETRA_RANKS = {"d0": 36, "d": 180, "R": 216}
NONSINGULAR_TETRA_RANKS = {"d0": 36, "d": 180, "R": 252, "S": 180,
                           "theta": 36}


def test_bimodule_dims_formulas():
    t = fx.triangle_algebra()
    dims = sa.bimodule_dims(t)
    assert dims == DISC_DIMS
    # P0/P3 sum dim(A e_i) * dim(e_i A); P1/P2 run over arrows
    q = t.quiver
    left = {v: len(t.basis_of(target=v)) for v in q.vertices}
    right = {v: len(t.basis_of(source=v)) for v in q.vertices}
    assert dims["P0"] == sum(left[v] * right[v] for v in q.vertices)
    assert dims["P1"] == sum(left[q.src[a]] * right[q.tgt[a]]
                             for a in q.arrows)
    assert dims["P2"] == sum(left[q.src[a]] * right[q.tgt[q.f[a]]]
                             for a in q.arrows)


def test_bimodule_rank_oracle():
    rep = verify_bimodule_periodicity(fx.triangle_algebra())
    assert rep["dims"] == DISC_DIMS
    assert rep["ranks"] == DISC_RANKS
    assert rep["verdict"] == "PERIODIC_PERIOD_4"
    assert rep["failing_stage"] is None
    assert [s["name"] for s in rep["stages"]] == [
        "d0_surjective",
        "exact_at_P0",
        "exact_at_P1",
        "exact_at_P2",
        "kernel_of_S_is_the_algebra",
    ]


def test_euler_characteristic_of_exact_complex():
    # ranks of consecutive maps must tile the dimensions exactly
    rep = verify_bimodule_periodicity(fx.triangle_algebra())
    d, r = rep["dims"], rep["ranks"]
    assert r["d"] == d["P0"] - r["d0"]
    assert r["R"] == d["P1"] - r["d"]
    assert r["S"] == d["P2"] - r["R"]
    assert r["theta"] == d["algebra"]
    assert d["P3"] - r["S"] == r["theta"]


def test_bimodule_deformed_over_f2():
    rep = verify_bimodule_periodicity(fx.deformed_triangle_f2())
    assert rep["verdict"] == "PERIODIC_PERIOD_4"
    assert rep["ranks"] == DISC_RANKS


def test_bimodule_singular_tetrahedral_fails_named_stage():
    rep = verify_bimodule_periodicity(fx.tetrahedral_algebra())
    assert rep["verdict"] == "NOT_VERIFIED"
    assert rep["failing_stage"] == "exact_at_P1"
    assert rep["dims"] == TETRA_DIMS
    assert rep["ranks"] == SINGULAR_TETRA_RANKS
    last = rep["stages"][-1]
    assert (last["name"], last["rank"], last["expected"]) == (
        "exact_at_P1", 216, 252)


def test_bimodule_nonsingular_tetrahedral_passes():
    rep = verify_bimodule_periodicity(fx.tetrahedral_algebra(a=2))
    assert rep["verdict"] == "PERIODIC_PERIOD_4"
    assert rep["dims"] == TETRA_DIMS
    assert rep["ranks"] == NONSINGULAR_TETRA_RANKS


def per_tensor_rank(bmap):
    """Rank from the image of each basis tensor on its own, by block."""
    t = bmap.table
    one = t.field.one
    blocks = {}
    for s in range(len(bmap.domain.summands)):
        for kx in bmap.domain.left[s]:
            for ky in bmap.domain.right[s]:
                row = bmap.apply_flat([(s, {kx: one}, {ky: one})])
                if row:
                    key = (t.src_of[kx], t.tgt_of[ky])
                    blocks.setdefault(key, []).append(row)
    return sum(rank_of_rows(rows, t.field) for rows in blocks.values())


@pytest.mark.parametrize("build", [
    fx.triangle_algebra, fx.deformed_triangle_f2, fx.tetrahedral_algebra,
])
def test_rank_matches_per_tensor_images(build):
    # rank() forms one-sided products once per generator term; it must
    # agree with the rows apply_flat gives each basis tensor
    t = build()
    p0, p1, p2, p3 = bimodule_spaces(t)
    maps = [map_d0(t, p0), map_d(t, p0, p1), map_R(t, p1, p2),
            map_S(t, p2, p3)]
    for bmap in maps:
        assert bmap.rank() == per_tensor_rank(bmap)


def rows_seen():
    """Record the number of rows of every bimodule block rank."""
    return recorded(bim, "rank_of_rows", lambda rows, field: len(rows))


def test_d0_rank_from_unit_rows():
    # the unit rows e_u (x) k -> k already span A, so d0 eliminates dim A
    # rows and no more
    t = fx.triangle_algebra(m=2)
    p0 = bimodule_spaces(t)[0]
    with rows_seen() as sizes:
        assert map_d0(t, p0).rank() == t.dim
    assert sum(sizes) == t.dim


def test_unit_row_shortcut_falls_back_to_all_rows():
    # P0 -> A with e_v (x) e_v -> the loop at v: the unit rows loop . k fall
    # short of dim A, so every row counts, and the rank is that of all rows
    t = fx.triangle_algebra()
    q = t.quiver
    p0 = bimodule_spaces(t)[0]
    loops = [t.arrow_element(next(a for a in q.out_arrows(v)
                                  if q.tgt[a] == v)) for v in q.vertices]
    bmap = BimoduleMap(p0, AlgebraTarget(t),
                       [[(None, t.idempotent(v), z)]
                        for v, z in zip(q.vertices, loops)])
    one = t.field.one
    units = [t.multiply(z, {k: one})
             for v, z in zip(q.vertices, loops) for k in t.basis_of(source=v)]
    assert bmap.rank() == per_tensor_rank(bmap)
    assert rank_of_rows(units, t.field) < bmap.rank() < t.dim


def per_element_theta_rank(table, p3, xis):
    """Rank of theta from p3.flatten of xi_v . k for each basis element k."""
    one = table.field.one
    blocks = {}
    for k in range(table.dim):
        xi = xis[table.src_of[k]]
        row = p3.flatten([(s, x, table.multiply(y, {k: one}))
                          for s, x, y in xi])
        if row:
            key = (table.src_of[k], table.tgt_of[k])
            blocks.setdefault(key, []).append(row)
    return sum(rank_of_rows(rows, table.field) for rows in blocks.values())


def triangle_m2_f101():
    return fx.triangle_algebra(m=2, field=sa.PrimeField(101))


def relabelled_triangle():
    """The triangle with renamed vertices and arrows, listed out of order,
    so that summands, blocks and basis indices are ordered differently."""
    q = fx.triangle_quiver()
    vmap = {1: 30, 2: 10, 3: 20}
    amap = {a: f"x{i}" for i, a in enumerate(reversed(q.arrows))}
    arrows = [(amap[a], vmap[q.src[a]], vmap[q.tgt[a]])
              for a in reversed(q.arrows)]
    f = {amap[a]: amap[q.f[a]] for a in q.arrows}
    return fx.weighted(sa.validate([20, 30, 10], arrows, f),
                       m={amap["alpha"]: 2})


@pytest.mark.parametrize("build", [
    fx.triangle_algebra, fx.deformed_triangle_f2, fx.tetrahedral_algebra,
    triangle_m2_f101, relabelled_triangle,
])
def test_theta_rank_matches_per_element_rows(build):
    # theta's rows are the unit rows of the map P3 -> P3 sending each
    # generator to xi_v; they must agree with flattening xi_v . k for each
    # basis element k
    t = build()
    _, _, _, p3 = bimodule_spaces(t)
    theta = map_theta(t, p3)
    assert theta["rank"]() == per_element_theta_rank(t, p3, theta["xis"])


def test_deformed_nonzero_border_needs_char_2():
    t = sa.build_algebra(sa.Presentation(
        fx.triangle_quiver(), kind="deformed", field=sa.QQ,
        b={1: sa.QQ.one, 2: sa.QQ.zero, 3: sa.QQ.zero}))
    with pytest.raises(ValueError):
        verify_bimodule_periodicity(t)


def test_bimodule_rejects_other_kinds():
    t = sa.build_algebra(sa.Presentation(
        fx.triangle_quiver(), kind="biserial", field=sa.QQ))
    with pytest.raises(ValueError):
        verify_bimodule_periodicity(t)


def test_casimir_elements_kill_S_and_commute():
    t = fx.triangle_algebra()
    p0, p1, p2, p3 = bimodule_spaces(t)
    smap = map_S(t, p2, p3)
    theta = map_theta(t, p3)
    for v in t.quiver.vertices:
        assert smap.apply_flat(theta["xis"][v]) == {}
    # bimodule-map property: a . xi_{t(a)} = xi_{s(a)} . a
    q = t.quiver
    for a in q.arrows:
        el = t.arrow_element(a)
        xi_t = theta["xis"][q.tgt[a]]
        xi_s = theta["xis"][q.src[a]]
        left = p3.flatten([(s, t.multiply(el, x), y) for s, x, y in xi_t])
        right = p3.flatten([(s, x, t.multiply(y, el)) for s, x, y in xi_s])
        assert left == right, a


def test_casimir_socle_pairing_nonzero():
    t = fx.triangle_algebra()
    _, _, _, p3 = bimodule_spaces(t)
    theta = map_theta(t, p3)
    for v in t.quiver.vertices:
        xi = theta["xis"][v]
        soc = t.socle_element(v)
        flat = p3.flatten([(s, x, t.multiply(y, soc)) for s, x, y in xi])
        assert flat, v


# -- the modular rank certificate over Q ---------------------------------


def exact_report(table):
    """The report with the certificate off: every rank over Q."""
    with mock.patch.object(bim, "reduced_presentation",
                           lambda pres, p: None):
        return verify_bimodule_periodicity(table)


@contextmanager
def recorded(owner, name, field_of):
    """Record field_of(args) for every call of owner.name."""
    seen = []
    orig = getattr(owner, name)

    def wrapper(*args):
        seen.append(field_of(*args))
        return orig(*args)

    with mock.patch.object(owner, name, wrapper):
        yield seen


def rank_fields():
    """Fields of the rows that reach the bimodule block ranks."""
    return recorded(bim, "rank_of_rows", lambda rows, field: field)


def assert_certified_equal(table, prime):
    with rank_fields() as fields:
        rep = verify_bimodule_periodicity(table)
    assert fields and set(fields) == {PrimeField(prime)}
    assert rep == exact_report(table)
    return rep


@pytest.mark.parametrize("name", sorted(fx.ALL_QUIVERS))
def test_certificate_matches_exact_path(name):
    t = fx.weighted(fx.ALL_QUIVERS[name](), m=fx.MIN_WEIGHTS[name])
    assert verify_bimodule_periodicity(t) == exact_report(t)


@settings(max_examples=12, deadline=None)
@given(st.data())
def test_certificate_matches_exact_path_random(data):
    name = data.draw(st.sampled_from(sorted(fx.ALL_QUIVERS)))
    q = fx.ALL_QUIVERS[name]()
    low = fx.MIN_WEIGHTS[name]
    m, c = {}, {}
    for o in sa.g_structure(q).orbits:
        least = max(low.get(a, 1) for a in o)
        m[o[0]] = data.draw(st.integers(least, max(least, 2)))
        num = data.draw(st.integers(1, 9)) * data.draw(st.sampled_from((1, -1)))
        c[o[0]] = Fraction(num, data.draw(st.integers(1, 9)))
    t = fx.weighted(q, m=m, c=c)
    assert verify_bimodule_periodicity(t) == exact_report(t)


def test_certificate_deformed_over_q_with_zero_border():
    zero = sa.QQ.zero
    t = sa.build_algebra(sa.Presentation(
        fx.triangle_quiver(), kind="deformed", field=sa.QQ,
        b={1: zero, 2: zero, 3: zero}))
    rep = assert_certified_equal(t, CERTIFICATE_PRIMES[0])
    assert rep["ranks"] == DISC_RANKS


@pytest.mark.parametrize("inverted", [False, True])
def test_certificate_skips_a_prime_the_parameters_need(inverted):
    # c = p is 0 mod the first prime p; c = 1/p has p in its denominator
    p = CERTIFICATE_PRIMES[0]
    c = Fraction(1, p) if inverted else Fraction(p)
    t = fx.weighted(fx.triangle_quiver(), c={"alpha": c})
    rep = assert_certified_equal(t, CERTIFICATE_PRIMES[1])
    assert rep["verdict"] == "PERIODIC_PERIOD_4"


def test_certificate_falls_back_when_no_prime_fits():
    c = Fraction(CERTIFICATE_PRIMES[0] * CERTIFICATE_PRIMES[1])
    t = fx.weighted(fx.triangle_quiver(), c={"alpha": c})
    with rank_fields() as fields:
        rep = verify_bimodule_periodicity(t)
    assert set(fields) == {sa.QQ}
    assert rep["ranks"] == DISC_RANKS


def test_certificate_singular_tetrahedral_recomputes_R_exactly():
    t = fx.tetrahedral_algebra()
    with recorded(BimoduleMap, "rank", lambda bmap: bmap.table.field) \
            as fields:
        rep = verify_bimodule_periodicity(t)
    # d0 and d meet their bounds mod p; R falls short and runs over Q
    p = PrimeField(CERTIFICATE_PRIMES[0])
    assert fields == [p, p, p, sa.QQ]
    assert rep["ranks"] == SINGULAR_TETRA_RANKS
    assert rep["failing_stage"] == "exact_at_P1"
    last = rep["stages"][-1]
    assert (last["rank"], last["expected"]) == (216, 252)


def test_certificate_fast_path_taken():
    # a silent fallback to Q would pass every equality test above
    t = fx.triangle_algebra(m=2)
    with rank_fields() as fields:
        rep = verify_bimodule_periodicity(t)
    assert rep["verdict"] == "PERIODIC_PERIOD_4"
    assert len(rep["ranks"]) == 5
    assert fields and all(f == PrimeField(CERTIFICATE_PRIMES[0])
                          for f in fields)
