"""The fraction-free pivots over Q and the one-pass composites, each
against the path it replaced.

``_pivot_rows`` reduces Q rows with integer steps r <- a.r - b.p; the
oracle is the rational loop it replaced, which scales every pivot row to
1 at its pivot.  ``BimoduleMap.apply_flat`` adds each pair of product
terms straight into its row; the oracle is ``flatten`` of ``multiply``.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import surfalg as sa
from surfalg.bimodule import (
    bimodule_spaces, map_d, map_d0, map_R, map_S, map_theta)
from surfalg.linalg import (
    _first_column, _least_column, _pivot_rows, pivot_columns, rank_of_rows)

import fixtures as fx
from fixtures import CASES, FIELDS, presentation
from test_one_term_paths import general_apply_flat

PICKS = {"first": _first_column, "least": _least_column}


# -- pivots-only elimination --------------------------------------------------

def rational_pivot_rows(rows, field, pick):
    """The pivots-only loop with every pivot row scaled to 1 at its pivot,
    over Q by ``Fraction`` arithmetic."""
    axpy_, inv, neg, one = field.axpy, field.inv, field.neg, field.one
    pivots = {}
    for row in rows:
        r = row
        while r:
            for c in r:
                pr = pivots.get(c)
                if pr is not None:
                    break
            else:
                c = pick(r)
                pivots[c] = ({c: one} if len(r) == 1
                             else axpy_({}, r.items(), inv(r[c])))
                break
            if r is row:
                r = dict(row)
            axpy_(r, pr.items(), neg(r[c]))
    return pivots


def random_rows(field, rng, tuple_keys):
    """Seeded sparse rows with fractional, integral and ``Fraction(n, 1)``
    entries over Q, many of them combinations of earlier rows, over
    columns whose ``str`` order differs from their numeric order."""
    def col(k):
        return ("w", k % 3, k) if tuple_keys else k

    def scalar():
        n = rng.choice((1, -1)) * rng.randrange(1, 30)
        if field.char:
            return field.of_int(n)
        kind = rng.random()
        if kind < 0.4:
            return Fraction(n, rng.randrange(2, 12))
        return Fraction(n, 1) if kind < 0.6 else n

    rows = []
    for _ in range(rng.randrange(1, 30)):
        kind = rng.random()
        if kind < 0.1:
            rows.append({})
        elif kind < 0.25:
            rows.append({col(rng.randrange(16)): scalar()})
        elif kind < 0.5 and rows:
            row = {}
            for _ in range(rng.randrange(1, 4)):
                field.axpy(row, rng.choice(rows).items(), scalar())
            rows.append(row)
        else:
            rows.append({col(c): scalar()
                         for c in rng.sample(range(16), rng.randrange(2, 8))})
    return rows


def typed_items(rows):
    return [[(k, type(v), v) for k, v in r.items()] for r in rows]


@pytest.mark.parametrize("pick", sorted(PICKS))
@pytest.mark.parametrize("tuple_keys", (False, True), ids=("int", "tuple"))
@pytest.mark.parametrize("field", sorted(FIELDS))
def test_pivot_rows_match_rational_elimination(field, tuple_keys, pick):
    field, pick = FIELDS[field], PICKS[pick]
    rng = random.Random(f"fraction-free/{field}/{tuple_keys}/{pick}")
    for _ in range(300):
        rows = random_rows(field, rng, tuple_keys)
        before = typed_items(rows)
        got = _pivot_rows(rows, field, pick)
        want = rational_pivot_rows(rows, field, pick)
        assert typed_items(rows) == before
        assert list(got) == list(want)
        for c, p in want.items():
            if field.char:
                assert list(got[c].items()) == list(p.items())
            else:
                # an integral multiple, positive at the pivot, entry for
                # entry in the same order
                assert all(type(v) is int for v in got[c].values())
                assert got[c][c] > 0
                assert list(got[c].items()) == \
                    [(k, got[c][c] * v) for k, v in p.items()]
        if pick is _first_column:
            assert rank_of_rows(rows, field) == len(want)
        else:
            assert pivot_columns(rows, field) == set(want)


def test_integral_rows_keep_int_pivots():
    # a row of ints and Fraction(n, 1)s is reduced in ints
    rows = [{1: Fraction(2), 2: 4}, {1: 3, 2: Fraction(5, 1), 3: 1}]
    piv = _pivot_rows(rows, sa.QQ, _first_column)
    assert list(piv) == [1, 2]
    assert all(type(v) is int for p in piv.values() for v in p.values())
    assert rows[0][1] == 2 and type(rows[0][1]) is Fraction


# -- composites ---------------------------------------------------------------

def composites(table):
    """(map, tensors it is applied to) for d0 d, d R, R S and S theta, as
    ``verify_bimodule_periodicity`` checks them; the last two only where
    the border allows S."""
    p0, p1, p2, p3 = bimodule_spaces(table)
    d0, d = map_d0(table, p0), map_d(table, p0, p1)
    r = map_R(table, p1, p2)
    pairs = [(d0, d.gen_images), (d, r.gen_images)]
    try:
        s = map_S(table, p2, p3)
    except ValueError:
        return pairs
    xis = map_theta(table, p3)["xis"]
    return pairs + [(r, s.gen_images),
                    (s, [xis[v] for v in table.quiver.vertices])]


TABLES = [(name, kind) for name, kind in CASES] + [
    ("tetrahedral", "singular"), ("tetrahedral", "nonsingular")]


def build(name, kind, field, seed):
    rng = random.Random(seed)
    if kind in ("singular", "nonsingular"):
        # abcd = 1 is singular; a drawn a != 1 is not
        a = 1 if kind == "singular" else rng.choice((2, 3, -1, Fraction(1, 2)))
        if field.char and isinstance(a, Fraction):
            a = 2
        return fx.tetrahedral_algebra(a=a, field=field)
    return sa.build_algebra(presentation(name, kind, field, rng))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(TABLES), st.sampled_from(sorted(FIELDS)),
       st.integers(0, 10 ** 6))
def test_composites_zero_exactly_as_multiply_says(case, field, seed):
    table = build(*case, FIELDS[field], seed)
    for bmap, images in composites(table):
        for img in images:
            got = bmap.apply_flat(img)
            want = general_apply_flat(bmap, img)
            assert (not got) == (not want)
            assert list(got.items()) == list(want.items())


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("kind", ("singular", "nonsingular"))
def test_tetrahedral_composites_are_zero(kind, field):
    # the complex is a complex on both tetrahedral algebras; the singular
    # one fails on a rank, not on a composite
    table = build("tetrahedral", kind, FIELDS[field], 0)
    for bmap, images in composites(table):
        assert not any(bmap.apply_flat(img) for img in images)
