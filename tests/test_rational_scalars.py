"""Rational scalars as ints when integral, against a Fraction-only field.

``RationalField`` keeps an integral scalar as an ``int`` and a non-integral
one as a ``Fraction``.  ``FractionField`` is the rationals as they were
before that, every scalar a ``Fraction``; it is the oracle here.  Each field
operation must give the oracle's value and never a float or a bool, and the
reports of algebras built over either field must be equal.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import surfalg as sa
from surfalg import cli

import fixtures as fx
from fixtures import CASES, least_weights


class FractionField(sa.RationalField):
    """The rationals with every scalar a ``Fraction``: zero and one, inverses,
    ``of_int``, ``parse`` and ``coerce`` all return ``Fraction``s."""

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def of_int(self, n):
        return Fraction(n)

    def coerce(self, value):
        return Fraction(super().coerce(value))

    def parse(self, value):
        return Fraction(super().parse(value))


QQ, ORACLE = sa.QQ, FractionField()

rationals = st.one_of(
    st.integers(-10 ** 6, 10 ** 6),
    st.fractions(max_denominator=50).filter(lambda x: abs(x) < 10 ** 6))


def assert_exact(value, expected):
    assert type(value) in (int, Fraction), repr(value)
    assert value == expected


@settings(max_examples=200, deadline=None)
@given(rationals, rationals)
def test_field_ops_stay_exact(a, b):
    for x in (a, b):
        assert_exact(QQ.coerce(x), ORACLE.coerce(x))
        assert_exact(QQ.neg(x), ORACLE.neg(x))
        assert_exact(QQ.parse(QQ.fmt(x)), ORACLE.parse(ORACLE.fmt(x)))
        if x:
            assert_exact(QQ.inv(x), ORACLE.inv(x))
    a, b = QQ.coerce(a), QQ.coerce(b)
    assert_exact(QQ.add(a, b), ORACLE.add(a, b))
    assert_exact(QQ.sub(a, b), ORACLE.sub(a, b))
    assert_exact(QQ.mul(a, b), ORACLE.mul(a, b))


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.integers(0, 8), rationals, max_size=6),
       st.lists(st.tuples(st.integers(0, 8), rationals), max_size=6),
       rationals)
def test_axpy_stays_exact(dst, pairs, s):
    dst = {k: QQ.coerce(v) for k, v in dst.items() if v}
    pairs = [(k, QQ.coerce(v)) for k, v in pairs]
    s = QQ.coerce(s)
    got = QQ.axpy(dict(dst), pairs, s)
    want = ORACLE.axpy({k: Fraction(v) for k, v in dst.items()},
                       [(k, Fraction(v)) for k, v in pairs], Fraction(s))
    assert got == want and 0 not in got.values()
    for value in got.values():
        assert type(value) in (int, Fraction), repr(value)


@given(st.integers(-10 ** 6, 10 ** 6))
def test_of_int_and_constants_are_ints(n):
    assert type(QQ.of_int(n)) is int and QQ.of_int(n) == ORACLE.of_int(n)
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert (QQ.zero, QQ.one) == (ORACLE.zero, ORACLE.one)


def non_integral(rng):
    """A nonzero rational that is not an integer."""
    den = rng.randint(2, 7)
    num = rng.choice([n for n in range(-9, 10) if n % den])
    return Fraction(num, den)


def tables(name, kind, raise_by, seed):
    """The same presentation built over QQ and over the oracle field."""
    rng = random.Random(seed)
    q = fx.ALL_QUIVERS[name]()
    m = {rep: w + raise_by for rep, w in least_weights(name, q).items()}
    c = {rep: non_integral(rng) for rep in m}
    b = ({v: rng.randrange(2) for v in sa.border(q)[0]}
         if kind == "deformed" else None)
    return [sa.build_algebra(sa.Presentation(q, kind=kind, field=field,
                                             m=m, c=c, b=b))
            for field in (QQ, ORACLE)]


def reports(table):
    out = {"simple": [cli._simple_report(table, v, 7)
                      for v in table.quiver.vertices],
           "form": sa.verify_symmetrizing_form(table)}
    if table.dim <= 100:
        try:
            out["bimodule"] = sa.verify_bimodule_periodicity(table)
        except ValueError as exc:
            out["bimodule"] = str(exc)
    return out


@pytest.mark.parametrize("raise_by", (0, 1))
@pytest.mark.parametrize("name,kind", CASES)
def test_reports_match_fraction_oracle(name, kind, raise_by):
    ints, fractions = tables(name, kind, raise_by, f"{name}/{kind}/{raise_by}")
    assert all(type(v) is Fraction for v in fractions.c.values())
    assert reports(ints) == reports(fractions)


@pytest.mark.parametrize("a", (1, 2))
def test_tetrahedral_reports_match_fraction_oracle(a):
    ints, fractions = (fx.tetrahedral_algebra(a, field=f) for f in (QQ, ORACLE))
    assert type(ints.c["beta"]) is int
    assert type(fractions.c["beta"]) is Fraction
    assert reports(ints) == reports(fractions)
    assert ([sa.uniserial_period_check(ints, x) for x in ints.quiver.arrows]
            == [sa.uniserial_period_check(fractions, x)
                for x in fractions.quiver.arrows])
