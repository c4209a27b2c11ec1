"""Bimodule resolution of the algebra over its enveloping algebra."""

import random
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import surfalg as sa
import surfalg.bimodule as bim
from surfalg.algebra import AlgebraTable, el_scale
from surfalg.bimodule import (
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
from surfalg.linalg import rank_of_rows

import fixtures as fx
from fixtures import CASES, FIELDS, WORD_CASES, deformed_triangle, presentation


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

# the row generator as defined, for wrappers that patch it
KEYED_ROWS = BimoduleMap._keyed_rows


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


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("name,kind", WORD_CASES)
def test_bimodule_dims_match_the_built_spaces(name, kind, field):
    rng = random.Random(f"dims/{name}/{kind}/{field}")
    for raise_by in (0, 1):
        t = sa.build_algebra(
            presentation(name, kind, FIELDS[field], rng, raise_by))
        spaces = bimodule_spaces(t)
        assert sa.bimodule_dims(t) == dict(
            algebra=t.dim, **{f"P{i}": p.dim for i, p in enumerate(spaces)})


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


def test_d0_top_rank_from_unit_rows():
    # the unit top rows e_u (x) e_u -> e_u already span A/J, so the top
    # rank of d0 builds n rows, not one per basis element of A
    t = fx.triangle_algebra(m=2)
    n = len(t.quiver.vertices)
    p0 = bimodule_spaces(t)[0]
    built = []

    def counted(bmap, lefts, top=False):
        rows = list(KEYED_ROWS(bmap, lefts, top))
        if top:
            built.extend(rows)
        return rows

    with mock.patch.object(BimoduleMap, "_keyed_rows", counted):
        assert map_d0(t, p0).rank(top=True) == n
    assert len(built) == n


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


# -- rows from the nonzero one-sided products ----------------------------


def oracle_keyed_rows(bmap, lefts, rights=None):
    """The rows of ``BimoduleMap._keyed_rows``, built term by term, for
    ky in ``rights[s]`` (default: the whole right factor of summand s).

    Every one-sided product kx.u and v.ky is a ``table.multiply`` call,
    each row loops over every generator term, and a tensor is added as
    the outer sum of its columns (into A: as ``multiply(kx.u, v.ky)``).
    """
    table, cod = bmap.table, bmap.codomain
    field = table.field
    mul, one = table.multiply, field.one
    pos = {}

    def add(row, s2, xu, vy):
        if isinstance(cod, AlgebraTarget):
            field.axpy(row, mul(xu, vy).items(), one)
            return
        if s2 not in pos:
            pos[s2] = ({k: p for p, k in enumerate(cod.left[s2])},
                       {k: p for p, k in enumerate(cod.right[s2])})
        lpos, rpos = pos[s2]
        nr = len(cod.right[s2])
        for kx, c in xu.items():
            base = cod.offsets[s2] + lpos[kx] * nr
            field.axpy(row, [(base + rpos[ky], d) for ky, d in vy.items()],
                       c)

    for s, terms in enumerate(bmap.gen_images):
        right = rights[s] if rights else bmap.domain.right[s]
        for kx in lefts[s]:
            xus = [mul({kx: one}, u) for _, u, _ in terms]
            for ky in right:
                row = {}
                for (s2, _, v), xu in zip(terms, xus):
                    vy = xu and mul(v, {ky: one})
                    if vy:
                        add(row, s2, xu, vy)
                yield (table.src_of[kx], table.tgt_of[ky]), row


def unit_lefts(bmap):
    """The left factors of the unit rows: e_i for each summand."""
    t = bmap.table
    return [[t.index[("e", i)]] for i, _ in bmap.domain.summands]


def row_cases(table):
    """(name, map, left factors) for the full and unit rows of d0, d, R
    and S (S only where the border allows it), and the unit rows of
    theta's Casimir map P3 -> P3."""
    p0, p1, p2, p3 = bimodule_spaces(table)
    maps = {"d0": map_d0(table, p0), "d": map_d(table, p0, p1),
            "R": map_R(table, p1, p2)}
    try:
        maps["S"] = map_S(table, p2, p3)
    except ValueError:
        pass
    cases = []
    for name, bmap in maps.items():
        cases.append((name, bmap, bmap.domain.left))
        cases.append((name + " units", bmap, unit_lefts(bmap)))
    xis = map_theta(table, p3)["xis"]
    casimir = BimoduleMap(p3, p3, [xis[v] for v in table.quiver.vertices])
    cases.append(("theta units", casimir, unit_lefts(casimir)))
    return cases


def walk_rho(table, arrows, coeff, sidx):
    """The reference route for ``rho``: each prefix and suffix multiplied
    out along its arrows by the walk, and zero ones skipped."""
    out = []
    for k, a in enumerate(arrows):
        if k == 0:
            x = {table.index[("e", table.quiver.src[a])]: coeff}
        else:
            x = fx.path_element(table, arrows[:k], coeff)
        if not x:
            continue
        if k == len(arrows) - 1:
            y = table.idempotent(table.quiver.tgt[a])
        else:
            y = fx.path_element(table, arrows[k + 1:], table.field.one)
        if y:
            out.append((sidx[a], x, y))
    return out


def walk_R_images(table):
    """R's generator images, each relation path lifted by ``walk_rho``."""
    q, field = table.quiver, table.field
    sidx = {a: p for p, a in enumerate(q.arrows)}
    gens = []
    for a in q.arrows:
        ab = q.bar[a]
        paths = [((a, q.f[a]), field.one),
                 (table.word_arrows(ab, table.mn[ab] - 1),
                  field.neg(table.c[ab]))]
        bb = table.pres.b.get(q.src[a], field.zero)
        if table.kind == "deformed" and q.f[a] == a and bb != field.zero:
            paths.append((table.word_arrows(ab, table.mn[ab]), field.neg(bb)))
        gens.append([term for path, coeff in paths
                     for term in walk_rho(table, path, coeff, sidx)])
    return gens


def assert_rows_match_oracle(table):
    """Same block keys, same row order, equal rows (empty ones included),
    and R's generator images equal to ``walk_R_images``.  Returns the
    number of rows compared."""
    rows = 0
    for name, bmap, lefts in row_cases(table):
        got = list(bmap._keyed_rows(lefts))
        assert got == list(oracle_keyed_rows(bmap, lefts)), name
        rows += len(got)
        if name == "R":
            assert bmap.gen_images == walk_R_images(table)
    return rows


@pytest.mark.parametrize("raise_by", (0, 1))
@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("name,kind", CASES)
def test_rows_match_multiply_oracle(name, kind, field, raise_by):
    rng = random.Random(f"{name}/{kind}/{field}/{raise_by}")
    assert_rows_match_oracle(sa.build_algebra(
        presentation(name, kind, FIELDS[field], rng, raise_by)))


@pytest.mark.parametrize("raise_by", (0, 1, 2))
def test_rows_match_multiply_oracle_deformed_f2(raise_by):
    rng = random.Random(f"deformed/F2/{raise_by}")
    assert_rows_match_oracle(sa.build_algebra(
        deformed_triangle(sa.PrimeField(2), rng, True, raise_by)))


def oracle_top_rows(bmap, lefts):
    """The top rows as full-size rows cut to the top: the row of
    kx (x) e_j from ``oracle_keyed_rows``, restricted to the columns whose
    right factor is an idempotent (into A: to its idempotent columns)."""
    table, cod = bmap.table, bmap.codomain
    index = table.index
    if isinstance(cod, AlgebraTarget):
        keep = {k for k, b in enumerate(table.basis) if b[0] == "e"}
    else:
        keep = {cod.left_part[s2][k] + cod.right_pos[s2][index[("e", j)]]
                for s2, (_, j) in enumerate(cod.summands)
                for k in cod.left[s2]}
    tops = [[index[("e", j)]] for _, j in bmap.domain.summands]
    for key, row in oracle_keyed_rows(bmap, lefts, tops):
        yield key, {c: x for c, x in row.items() if c in keep}


@pytest.mark.parametrize("raise_by", (0, 1))
@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("name,kind", CASES)
def test_top_rows_are_full_rows_cut_to_the_top(name, kind, field, raise_by):
    rng = random.Random(f"{name}/{kind}/{field}/{raise_by}")
    table = sa.build_algebra(
        presentation(name, kind, FIELDS[field], rng, raise_by))
    for case, bmap, lefts in row_cases(table):
        got = list(bmap._keyed_rows(lefts, top=True))
        assert got == list(oracle_top_rows(bmap, lefts)), case
        assert len(got) == sum(map(len, lefts)), case


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_top_rows_keep_the_coefficient_of_e_j(field):
    # every right factor of the complex's generator images has e_j
    # coefficient 1 or none; scaled by 3 they must give rows scaled alike
    t = fx.triangle_algebra(m=2, field=FIELDS[field])
    p0, p1, _, _ = bimodule_spaces(t)
    three = t.field.of_int(3)
    for bmap in (map_d0(t, p0), map_d(t, p0, p1)):
        scaled = BimoduleMap(bmap.domain, bmap.codomain, [
            [(s2, u, el_scale(t.field, three, v)) for s2, u, v in terms]
            for terms in bmap.gen_images])
        lefts = bmap.domain.left
        assert list(scaled._keyed_rows(lefts, top=True)) == \
            list(oracle_top_rows(scaled, lefts))
        assert list(scaled._keyed_rows(lefts)) == \
            list(oracle_keyed_rows(scaled, lefts))


@pytest.mark.parametrize("field", [sa.QQ, sa.PrimeField(101)])
def test_stage_ranks_make_no_multiply_call(field):
    # every stage rank reads its rows off the closed-form products of
    # AlgebraTable.products_by, not multiply, the top ranks of the
    # certificate included
    t = fx.triangle_algebra(m=2, field=field)
    depth, stages, calls = [0], [], []
    orig_multiply = AlgebraTable.multiply

    def multiply(table, x, y):
        if depth[0]:
            calls.append((x, y))
        return orig_multiply(table, x, y)

    def counted(method):
        def wrapper(bmap, *args, **kwargs):
            if not depth[0]:
                stages.append((bmap.domain.dim, bmap.codomain.dim))
            depth[0] += 1
            try:
                return method(bmap, *args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    with mock.patch.object(AlgebraTable, "multiply", multiply), \
            mock.patch.object(BimoduleMap, "rank",
                              counted(BimoduleMap.rank)), \
            mock.patch.object(BimoduleMap, "unit_rank",
                              counted(BimoduleMap.unit_rank)):
        rep = verify_bimodule_periodicity(t)
    assert rep["verdict"] == "PERIODIC_PERIOD_4"
    d = rep["dims"]
    assert stages == [(d["P0"], d["algebra"]), (d["P1"], d["P0"]),
                      (d["P2"], d["P1"]), (d["P3"], d["P2"]),
                      (d["P3"], d["P3"])]
    assert calls == []


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_bimodule_check_leaves_the_table_as_it_was(field):
    # basis_product and products_by keep no state: a memo of products
    # would grow here.
    # What the table computes once (the Gram matrix, the dual basis and
    # the basis_of lists the check reads) is computed beforehand.
    t = fx.triangle_algebra(m=4, field=FIELDS[field])
    sa.dual_basis(t)
    for v in t.quiver.vertices:
        t.basis_of(source=v)
        t.basis_of(target=v)

    def snapshot():
        return {k: len(x) if isinstance(x, (dict, list)) else None
                for k, x in vars(t).items()}

    before = snapshot()
    rep = verify_bimodule_periodicity(t)
    assert rep["verdict"] == "PERIODIC_PERIOD_4"
    assert snapshot() == before


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


# -- the top-complex certificate -----------------------------------------


def no_top_rows(bmap, lefts, top=False):
    """Top rows that certify nothing, so every top rank is 0; full-size
    rows as ``BimoduleMap._keyed_rows`` builds them."""
    return iter(()) if top else KEYED_ROWS(bmap, lefts)


def exact_report(table):
    """The report with the top certificate off: every rank from full-size
    rows.  Every top rank the certificate expects is positive (n, or
    dim Pbar - rank of the previous top map), so each stage falls back."""
    with mock.patch.object(BimoduleMap, "_keyed_rows", no_top_rows):
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


@contextmanager
def rank_calls():
    """Record (domain dim, codomain dim, top) for every stage rank call:
    ``BimoduleMap.rank`` for d0, d, R and S, and ``unit_rank`` for theta
    (``map_theta``'s rank).  Calls made inside another are not counted."""
    seen, depth = [], [0]

    def outermost(method):
        def wrapper(bmap, top=False):
            if not depth[0]:
                seen.append((bmap.domain.dim, bmap.codomain.dim, top))
            depth[0] += 1
            try:
                return method(bmap, top=top)
            finally:
                depth[0] -= 1
        return wrapper

    with mock.patch.object(BimoduleMap, "rank",
                           outermost(BimoduleMap.rank)), \
            mock.patch.object(BimoduleMap, "unit_rank",
                              outermost(BimoduleMap.unit_rank)):
        yield seen


def assert_certified_equal(table):
    """The top certificate decides every stage, and the report is the one
    built from full-size rows."""
    with rank_calls() as calls:
        rep = verify_bimodule_periodicity(table)
    assert len(calls) == 5 and all(top for _, _, top in calls)
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
    rep = assert_certified_equal(t)
    assert rep["ranks"] == DISC_RANKS


# large primes, in the numerator, the denominator and a product of two
P, Q = 1073741789, 1073741783


@pytest.mark.parametrize("c", [Fraction(P), Fraction(1, P), Fraction(P * Q)],
                         ids=["p", "inverse_p", "pq"])
def test_certificate_with_large_prime_parameters(c):
    t = fx.weighted(fx.triangle_quiver(), c={"alpha": c})
    rep = assert_certified_equal(t)
    assert rep["verdict"] == "PERIODIC_PERIOD_4"
    assert rep["ranks"] == DISC_RANKS


def test_certificate_singular_tetrahedral_recomputes_R_exactly():
    t = fx.tetrahedral_algebra()
    with rank_calls() as calls:
        rep = verify_bimodule_periodicity(t)
    # d0 and d are certified on the top complex; R's top rank falls short,
    # and only R is ranked on full-size rows
    d = rep["dims"]
    assert calls == [(d["P0"], d["algebra"], True), (d["P1"], d["P0"], True),
                     (d["P2"], d["P1"], True), (d["P2"], d["P1"], False)]
    assert rep["ranks"] == SINGULAR_TETRA_RANKS
    assert rep["failing_stage"] == "exact_at_P1"
    last = rep["stages"][-1]
    assert (last["rank"], last["expected"]) == (216, 252)


def test_certificate_fast_path_taken():
    # a silent fallback to full-size rows would pass every equality test
    t = fx.triangle_algebra(m=2)
    with rows_seen() as sizes, rank_calls() as calls:
        rep = verify_bimodule_periodicity(t)
    assert rep["verdict"] == "PERIODIC_PERIOD_4"
    assert len(rep["ranks"]) == 5
    assert sizes and max(sizes) <= 2 * t.dim
    assert len(calls) == 5 and all(top for _, _, top in calls)


def full_ranks(table, keys):
    """The rank of each stage in ``keys`` from its map's full-size rows,
    taken directly, outside the stage logic of
    ``verify_bimodule_periodicity``."""
    p0, p1, p2, p3 = bimodule_spaces(table)
    rank = {"d0": lambda: map_d0(table, p0).rank(),
            "d": lambda: map_d(table, p0, p1).rank(),
            "R": lambda: map_R(table, p1, p2).rank(),
            "S": lambda: map_S(table, p2, p3).rank(),
            "theta": lambda: map_theta(table, p3)["rank"]()}
    return {key: rank[key]() for key in keys}


def assert_top_matches_exact(table):
    """The certified report equals ``exact_report`` and its ranks equal
    ``full_ranks``; full-size rows are built for the failing stage of a
    NOT_VERIFIED report only.  A nonzero border away from characteristic 2
    must raise on both paths.  Returns the report, or None where both
    raised."""
    try:
        with rank_calls() as calls:
            rep = verify_bimodule_periodicity(table)
    except ValueError as err:
        with pytest.raises(ValueError, match=str(err)):
            exact_report(table)
        return None
    assert rep == exact_report(table)
    assert rep["ranks"] == full_ranks(table, rep["ranks"])
    tops = [top for _, _, top in calls]
    assert tops and all(tops[:-1]), tops
    assert tops[-1] == (rep["verdict"] == "PERIODIC_PERIOD_4")
    return rep


@pytest.mark.parametrize("raise_by", (0, 1))
@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("name,kind", CASES)
def test_top_certificate_matches_exact(name, kind, field, raise_by):
    rng = random.Random(f"{name}/{kind}/{field}/{raise_by}")
    assert_top_matches_exact(sa.build_algebra(
        presentation(name, kind, FIELDS[field], rng, raise_by)))


@pytest.mark.parametrize("raise_by", (0, 1, 2))
def test_top_certificate_matches_exact_deformed_f2(raise_by):
    rng = random.Random(f"deformed/F2/{raise_by}")
    assert_top_matches_exact(sa.build_algebra(
        deformed_triangle(sa.PrimeField(2), rng, True, raise_by)))


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("a", [1, 2])
def test_top_certificate_matches_exact_tetrahedral(a, field):
    # a = 1 is singular: the fallback of the failing stage R is compared too
    assert_top_matches_exact(fx.tetrahedral_algebra(a=a, field=FIELDS[field]))


def assert_radical_is_nilpotent_ideal(t):
    """The words and socle elements span a nilpotent two-sided ideal I:
    no product of one of them with any basis element, on either side, has
    an idempotent term, and the terms of products of basis elements of I
    never lead back to a factor (the graph from i to the terms of b_i b_j,
    j in I, is acyclic), so a product of more than |I| of them is zero."""
    rad = [i for i, b in enumerate(t.basis) if b[0] != "e"]
    succ = {i: set() for i in rad}
    for i in rad:
        for j in range(t.dim):
            for prod in (t.basis_product(i, j), t.basis_product(j, i)):
                assert all(t.basis[k][0] != "e" for k, _ in prod), (i, j)
            if t.basis[j][0] != "e":
                succ[i].update(k for k, _ in t.basis_product(i, j))
    # Kahn's algorithm: every node is removed iff the graph is acyclic
    indeg = {i: 0 for i in rad}
    for i in rad:
        for k in succ[i]:
            indeg[k] += 1
    ready = [i for i in rad if not indeg[i]]
    removed = 0
    while ready:
        i = ready.pop()
        removed += 1
        for k in succ[i]:
            indeg[k] -= 1
            if not indeg[k]:
                ready.append(k)
    assert removed == len(rad)


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("name,kind", CASES)
def test_radical_basis_spans_nilpotent_ideal(name, kind, field):
    rng = random.Random(f"{name}/{kind}/{field}/0")
    assert_radical_is_nilpotent_ideal(sa.build_algebra(
        presentation(name, kind, FIELDS[field], rng)))


def test_radical_basis_spans_nilpotent_ideal_deformed_f2():
    assert_radical_is_nilpotent_ideal(fx.deformed_triangle_f2())
