"""The one-term fast paths, each against the general path it skips.

``RowSolver`` and ``pivot_columns`` take a row of one entry or none
without reducing it; ``RationalField.inv`` inverts an int or a
``Fraction`` without ``1 / Fraction(a)``; ``GData.g_power`` reads g^k(a)
off the orbit; ``side_products`` lists only the nonzero products, in
closed form (``AlgebraTable.products_by``); ``apply_flat`` forms a
product of one-term factors with no call for an idempotent or an arrow
factor and one ``basis_product`` lookup otherwise; and
``RightModule.act_path`` maps a vector of one entry under an arrow to a
copy, or a multiple, of one row of the arrow's matrix.  Each must give
the general path's output exactly, in the same order.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import surfalg as sa
from surfalg.bimodule import (
    AlgebraTarget, BimoduleMap, bimodule_spaces, map_d, map_d0, map_R, map_S,
    map_theta, side_products)
from surfalg.linalg import RowSolver, _ckey, pivot_columns
from surfalg.modules import projective_sum

import fixtures as fx
from fixtures import CASES, FIELDS, WORD_CASES, deformed_triangle, presentation


# -- elimination -------------------------------------------------------------

def general_echelon(rows, field):
    """``RowSolver``'s elimination with every row taking the general path:
    (echelon rows, kernel vectors, kernel_rows)."""
    ech, pivots, kernel, kernel_rows = [], {}, [], []
    for i, row in enumerate(rows):
        r = dict(row)
        t = {i: field.one}
        while True:
            hit = next((c for c in r if c in pivots), None)
            if hit is None:
                break
            _, er, et = ech[pivots[hit]]
            s = field.neg(r[hit])
            field.axpy(r, er.items(), s)
            field.axpy(t, et.items(), s)
        if r:
            piv = min(r, key=_ckey)
            s = field.inv(r[piv])
            r = field.axpy({}, r.items(), s)
            t = field.axpy({}, t.items(), s)
            pivots[piv] = len(ech)
            ech.append((piv, r, t))
        else:
            kernel.append(t)
            kernel_rows.append(i)
    return ech, kernel, kernel_rows


def general_pivot_columns(rows, field):
    """The pivots-only loop with the least-key pick on every row."""
    pivots = {}
    for row in rows:
        r = dict(row)
        while r:
            c = next((c for c in r if c in pivots), None)
            if c is None:
                c = min(r, key=_ckey)
                pivots[c] = field.axpy({}, r.items(), field.inv(r[c]))
                break
            field.axpy(r, pivots[c].items(), field.neg(r[c]))
    return set(pivots)


def one_entry_rich_rows(field, rng, tuple_keys):
    """Seeded sparse rows, about half of them of one entry or none, over
    columns whose ``str`` order differs from their numeric order."""
    def col(k):
        return ("w", k % 3, k) if tuple_keys else k

    def scalar():
        if field.char == 0 and rng.random() < 0.3:
            return Fraction(rng.choice((1, -1)) * rng.randrange(1, 9),
                            rng.randrange(2, 9))
        return field.of_int(rng.choice((1, -1)) * rng.randrange(1, 101))

    rows = []
    for _ in range(rng.randrange(1, 40)):
        kind = rng.random()
        if kind < 0.15:
            rows.append({})
        elif kind < 0.5:
            rows.append({col(rng.randrange(25)): scalar()})
        elif kind < 0.6 and rows:
            rows.append(dict(rng.choice(rows)))
        elif kind < 0.7 and rows:
            row = {}
            for _ in range(rng.randrange(1, 4)):
                field.axpy(row, rng.choice(rows).items(), scalar())
            rows.append(row)
        else:
            rows.append({col(c): scalar()
                         for c in rng.sample(range(25), rng.randrange(2, 6))})
    return rows


def listed(rows):
    """Rows as lists of items, so that the order of entries counts."""
    return [list(r.items()) for r in rows]


@pytest.mark.parametrize("tuple_keys", (False, True), ids=("int", "tuple"))
@pytest.mark.parametrize("field", [sa.QQ, sa.PrimeField(101)],
                         ids=["Q", "F101"])
def test_row_solver_matches_general_path(field, tuple_keys):
    rng = random.Random(f"one-term/{field}/{tuple_keys}")
    for _ in range(300):
        rows = one_entry_rich_rows(field, rng, tuple_keys)
        before = [dict(r) for r in rows]
        solver = RowSolver(rows, field)
        ech, kernel, kernel_rows = general_echelon(rows, field)
        assert [c for c, _, _ in solver.ech] == [c for c, _, _ in ech]
        assert listed(r for _, r, _ in solver.ech) == \
            listed(r for _, r, _ in ech)
        assert listed(t for _, _, t in solver.ech) == \
            listed(t for _, _, t in ech)
        assert listed(solver.kernel()) == listed(kernel)
        assert solver.kernel_rows == kernel_rows
        assert pivot_columns(rows, field) == \
            general_pivot_columns(rows, field) == set(solver.pivots)
        assert rows == before


# -- rational inverses -------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.integers(-10 ** 9, 10 ** 9),
    st.sampled_from((1, -1)),
    st.fractions(max_denominator=10 ** 6)).filter(lambda a: a != 0))
def test_rational_inv_matches_fraction_division(a):
    got = sa.QQ.inv(a)
    assert type(got) in (int, Fraction), repr(got)
    assert got == 1 / Fraction(a)
    # an integral inverse is an int (a = 1/n or a = ±1)
    assert (type(got) is int) == (abs(a.numerator) == 1)


@pytest.mark.parametrize("zero", (0, Fraction(0)))
def test_rational_inv_of_zero_raises(zero):
    with pytest.raises(ZeroDivisionError, match="inverse of zero"):
        sa.QQ.inv(zero)


# -- g-powers ----------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(fx.ALL_QUIVERS))
def test_g_power_matches_the_orbit_walk(name):
    gd = sa.g_structure(fx.ALL_QUIVERS[name]())
    for a, n in gd.n.items():
        walked = a
        for k in range(3 * n + 1):
            assert gd.g_power(a, k) == walked, (a, k)
            walked = gd.g[walked]


# -- one-sided products ------------------------------------------------------

def general_side_products(table, basis, x, parts, left):
    """``side_products`` by the ``basis_product`` loop, for any x."""
    bp, field = table.basis_product, table.field
    out = []
    for p, k in enumerate(basis):
        acc = {}
        for j, c in x.items():
            prod = bp(k, j) if left else bp(j, k)
            if prod:
                field.axpy(acc, prod, c)
        if acc:
            out.append((p, [(parts[m], a) for m, a in acc.items()]))
    return out


def assert_side_products_match(table):
    field = table.field
    dim = table.dim
    parts = {m: 7 * m + 3 for m in range(dim)}
    scale = field.neg(field.of_int(2)) if field.char != 2 else field.one
    # the whole basis, and ascending parts of it that miss some products
    for basis in (list(range(dim)), list(range(1, dim, 2)),
                  list(range(0, dim, 3))):
        for j in range(dim):
            j2 = (7 * j + 3) % dim
            xs = [{j: field.one}, {j: scale}]
            if j2 != j:
                xs.append({j: field.one, j2: scale})
            for x in xs:
                for left in (True, False):
                    assert side_products(table, basis, x, parts, left) == \
                        general_side_products(table, basis, x, parts,
                                              left), (x, left)


@pytest.mark.parametrize("raise_by", (0, 1))
@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("name,kind", WORD_CASES)
def test_side_products_match_basis_product_loop(name, kind, field, raise_by):
    # every fixture quiver and kind, string algebras (no socle) among them
    rng = random.Random(f"{name}/{kind}/{field}/{raise_by}")
    assert_side_products_match(sa.build_algebra(
        presentation(name, kind, FIELDS[field], rng, raise_by)))


def test_side_products_match_basis_product_loop_deformed_f2():
    rng = random.Random("deformed/F2")
    assert_side_products_match(sa.build_algebra(
        deformed_triangle(sa.PrimeField(2), rng, True)))


# -- composites --------------------------------------------------------------

def maps_of(table):
    """d0, d, R and S (where the border allows it) of a table, and theta's
    Casimir map P3 -> P3."""
    p0, p1, p2, p3 = bimodule_spaces(table)
    maps = [map_d0(table, p0), map_d(table, p0, p1), map_R(table, p1, p2)]
    try:
        maps.append(map_S(table, p2, p3))
    except ValueError:
        pass
    xis = map_theta(table, p3)["xis"]
    maps.append(BimoduleMap(p3, p3, [xis[v] for v in table.quiver.vertices]))
    return maps


def general_apply_flat(bmap, terms):
    """``apply_flat`` as ``flatten`` of ``multiply``, the general path."""
    mul = bmap.table.multiply
    return bmap.codomain.flatten([
        (s2, mul(x, u), mul(v, y))
        for s, x, y in terms for s2, u, v in bmap.gen_images[s]])


def random_terms(bmap, rng):
    """Pure tensors of the domain with one, two or three terms a factor."""
    t, field = bmap.table, bmap.table.field
    terms = []
    for s in range(len(bmap.gen_images)):
        for _ in range(2):
            x, y = ({k: field.of_int(rng.randrange(1, 5))
                     for k in rng.sample(range(t.dim), rng.randrange(1, 4))}
                    for _ in range(2))
            terms.append((s, x, y))
    return terms


def assert_apply_flat_matches(table, rng):
    maps = maps_of(table)
    for bmap, nxt in zip(maps, maps[1:]):
        inputs = list(nxt.gen_images) + [random_terms(bmap, rng)]
        for terms in inputs:
            assert list(bmap.apply_flat(terms).items()) == \
                list(general_apply_flat(bmap, terms).items())


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("name,kind", CASES)
def test_apply_flat_matches_flatten_of_multiply(name, kind, field):
    rng = random.Random(f"apply_flat/{name}/{kind}/{field}")
    assert_apply_flat_matches(sa.build_algebra(
        presentation(name, kind, FIELDS[field], rng)), rng)


def test_apply_flat_matches_flatten_of_multiply_deformed_f2():
    rng = random.Random("apply_flat/deformed/F2")
    assert_apply_flat_matches(sa.build_algebra(
        deformed_triangle(sa.PrimeField(2), rng, True)), rng)


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("name,kind", WORD_CASES)
def test_algebra_target_flattens_to_multiply(name, kind, field):
    # a tensor x (x) y into A is x.y, an idempotent factor read with no
    # call; random factors, most of them not composable
    rng = random.Random(f"target/{name}/{kind}/{field}")
    t = sa.build_algebra(presentation(name, kind, FIELDS[field], rng, 1))
    target = AlgebraTarget(t)
    for _ in range(100):
        x, y = ({k: t.field.of_int(rng.randrange(1, 5))
                 for k in rng.sample(range(t.dim), rng.randrange(1, 4))}
                for _ in range(2))
        assert list(target.flatten([(None, x, y)]).items()) == \
            list(t.multiply(x, y).items())


# -- module arrow steps ------------------------------------------------------

def general_act_path(module, vec, arrows):
    """``act_path`` with every step taking the general ``axpy`` path."""
    field = module.table.field
    for a in arrows:
        out = {}
        for i, x in vec.items():
            field.axpy(out, module.mats[a][i].items(), x)
        vec = out
    return vec


def one_entry_scalars(field):
    """One, an int, and over Q an integral and a non-integral
    ``Fraction``."""
    if field.char == 0:
        return (1, -3, Fraction(4), Fraction(-2, 7))
    return (field.one, field.of_int(-3), field.of_int(57))


def assert_act_path_matches(module, rng):
    table, field = module.table, module.table.field
    paths = [table.chain(k)[1] for k in range(table.dim)]
    for v in table.quiver.vertices:
        n = module.dims[v]
        vecs = [{i: x} for i in range(n) for x in one_entry_scalars(field)]
        if n > 1:
            vecs.append({i: field.of_int(rng.randrange(1, 50))
                         for i in rng.sample(range(n), 2)})
        for arrows in paths:
            if arrows and table.quiver.src[arrows[0]] == v:
                for vec in vecs:
                    before = dict(vec)
                    assert list(module.act_path(vec, arrows).items()) == \
                        list(general_act_path(module, vec, arrows).items())
                    assert vec == before


def act_path_modules(table):
    """The regular module and the radical of each projective."""
    return [projective_sum(table, table.quiver.vertices)] + [
        sa.syzygy(sa.simple_module(table, v))[0]
        for v in table.quiver.vertices]


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("name,kind", CASES)
def test_act_path_one_entry_step_matches_general(name, kind, field):
    rng = random.Random(f"act_path/{name}/{kind}/{field}")
    t = sa.build_algebra(presentation(name, kind, FIELDS[field], rng))
    for module in act_path_modules(t):
        assert_act_path_matches(module, rng)


def test_act_path_one_entry_step_matches_general_deformed_f2():
    rng = random.Random("act_path/deformed/F2")
    t = sa.build_algebra(deformed_triangle(sa.PrimeField(2), rng, True))
    for module in act_path_modules(t):
        assert_act_path_matches(module, rng)
