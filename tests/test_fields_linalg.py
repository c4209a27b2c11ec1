"""Exact scalar fields and the sparse linear algebra kernel."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import surfalg as sa
from surfalg.fields import PrimeField
from surfalg.linalg import (
    RowSolver,
    axpy,
    det_int,
    intersection_dim,
    rank_of_rows,
    rows_mul,
)


def test_rational_parse_and_fmt():
    F = sa.QQ
    assert F.parse("3/4") == Fraction(3, 4)
    assert F.parse("-2") == Fraction(-2)
    assert F.fmt(Fraction(5, 3)) == "5/3"
    assert F.fmt(Fraction(4, 2)) == "2"
    for bad in ("1/0", "x", "1.5", True, None, [1]):
        with pytest.raises(ValueError):
            F.parse(bad)


@given(st.integers(-100, 100), st.integers(1, 100))
def test_rational_fmt_parse_round_trip(n, d):
    F = sa.QQ
    x = Fraction(n, d)
    assert F.parse(F.fmt(x)) == x


def test_prime_field_ops():
    F = PrimeField(7)
    assert F.char == 7
    assert F.add(5, 4) == 2
    assert F.mul(3, 5) == 1
    assert F.inv(3) == 5
    assert F.neg(2) == 5
    assert F.parse(10) == 3
    with pytest.raises(ValueError):
        F.parse("3")
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


@given(st.sampled_from([2, 3, 5, 13]), st.integers(1, 1000))
def test_prime_field_inverse_property(p, a):
    F = PrimeField(p)
    x = a % p
    if x:
        assert F.mul(x, F.inv(x)) == 1


def test_field_from_json():
    assert sa.field_from_json("Q") == sa.QQ
    assert sa.field_from_json({"Fp": 5}) == PrimeField(5)
    for bad in ("R", {"Fp": 4}, {"GF": 5}, 7):
        with pytest.raises(ValueError):
            sa.field_from_json(bad)


def test_rank_of_sparse_rows():
    F = sa.QQ
    one = F.one
    rows = [{"x": one, "y": one},
            {"y": one},
            {"x": one, "y": F.add(one, one)}]
    assert rank_of_rows(rows, F) == 2


def test_row_solver_solve_and_contains():
    F = sa.QQ
    one = F.one
    rows = [{0: one, 1: one}, {1: one, 2: one}]
    sol = RowSolver(rows, F)
    combo = sol.solve({0: one, 1: F.parse("2"), 2: one})
    assert combo == {0: one, 1: one}
    assert sol.contains({0: one, 1: one})
    assert not sol.contains({0: one, 2: one})
    assert sol.solve({0: one}) is None


def test_row_solver_kernel():
    F = sa.QQ
    one = F.one
    rows = [{0: one}, {0: one}, {1: one}]
    combos = RowSolver(rows, F).kernel()
    assert len(combos) == 1
    combo = combos[0]
    # the kernel combination cancels the duplicated row
    acc = {}
    for idx, cf in combo.items():
        for col, v in rows[idx].items():
            acc[col] = F.add(acc.get(col, F.zero), F.mul(cf, v))
    assert all(v == F.zero for v in acc.values())


def test_sparse_helpers():
    F = sa.QQ
    one = F.one
    a = [{0: one}, {0: one, 1: one}]
    b = [{0: one, 1: one}, {1: one}]
    assert rank_of_rows(a, F) == 2
    assert rows_mul(a, b, F) == [{0: one, 1: one}, {0: one, 1: F.parse("2")}]
    ones = [{0: one, 1: one}, {0: one, 1: one}]
    assert rank_of_rows(ones, F) == 1
    ker = RowSolver(ones, F).kernel()
    assert len(ker) == 1
    assert rows_mul(ker, ones, F) == [{}]


def test_axpy_drops_cancelled_entries():
    F = sa.QQ
    one = F.one
    dst = {0: one, 1: F.parse("2")}
    assert axpy(dst, {0: one, 2: one}.items(), F.neg(one), F) == \
        {1: F.parse("2"), 2: F.neg(one)}
    assert axpy({}, [(0, one)], F.zero, F) == {}


def test_det_int():
    assert det_int([[2, 0], [0, 3]]) == 6
    assert det_int([[1, 2], [2, 4]]) == 0
    assert det_int([[0, 1], [1, 0]]) == -1
    assert det_int([[4]]) == 4


def test_intersection_dim():
    F = sa.QQ
    one = F.one
    u = [{0: one}, {1: one}]
    v = [{1: one}, {2: one}]
    assert intersection_dim(u, v, F) == 1
    assert intersection_dim(u, [{2: one}], F) == 0


def test_prime_field_linear_algebra():
    F = PrimeField(2)
    rows = [{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}]
    # third row is the sum of the first two over F2
    assert rank_of_rows(rows, F) == 2
