"""Exact scalar fields and the sparse linear algebra kernel."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import surfalg as sa
from surfalg.fields import PrimeField, _is_prime
from surfalg.linalg import (
    RowSolver,
    det_int,
    intersection_dim,
    pivot_columns,
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


def test_is_prime_agrees_with_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    for n in range(10 ** 4):
        assert _is_prime(n) == trial(n), n


def test_is_prime_rejects_pseudoprimes():
    # 3215031751 is a strong pseudoprime to bases 2, 3, 5 and 7; 561 is
    # the least Carmichael number
    assert not _is_prime(3215031751)
    assert not _is_prime(561)
    assert _is_prime(2147483647) and _is_prime(2147483629)


def test_prime_field_large_orders():
    t0 = time.perf_counter()
    F = PrimeField(10 ** 18 + 3)
    assert time.perf_counter() - t0 < 0.01
    assert F.mul(F.inv(12345), 12345) == 1
    with pytest.raises(ValueError):
        PrimeField(10 ** 18 + 5)
    for too_big in (2 ** 64 + 13, 2 ** 89 - 1):
        with pytest.raises(ValueError):
            PrimeField(too_big)


@pytest.mark.parametrize("order", (4, 1, "7", 2 ** 64 + 13))
def test_refused_prime_field_has_a_repr(order):
    # a traceback through a refused __init__ prints its half-built self
    field = PrimeField.__new__(PrimeField)
    with pytest.raises(ValueError):
        field.__init__(order)
    assert repr(field) == f"PrimeField({order})"


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
    assert not sol.residual({0: one, 1: one})
    assert sol.residual({0: one, 2: one})
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
    assert F.axpy(dst, {0: one, 2: one}.items(), F.neg(one)) == \
        {1: F.parse("2"), 2: F.neg(one)}
    assert F.axpy({}, [(0, one)], F.zero) == {}


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


# -- the per-field kernels and rank-only elimination ----------------------

KERNEL_FIELDS = (sa.QQ, PrimeField(2), PrimeField(101),
                 PrimeField(1073741789))


def scalar(field, num, den):
    """A scalar of the field from small integers; den is odd, so a unit."""
    if field.char == 0:
        return Fraction(num, den)
    return field.mul(field.of_int(num), field.inv(field.of_int(den)))


@st.composite
def kernel_cases(draw):
    """(field, rows) with duplicate rows and rows that cancel to zero."""
    field = draw(st.sampled_from(KERNEL_FIELDS))
    tuple_keys = draw(st.booleans())
    small = st.integers(-3, 3)

    def col(k):
        return ("w", k % 3, k) if tuple_keys else k

    def entry():
        return scalar(field, draw(small), draw(st.sampled_from((1, 3, 5))))

    rows = []
    for _ in range(draw(st.integers(0, 8))):
        choice = draw(st.sampled_from(("new", "copy", "combo")))
        if choice == "new" or not rows:
            row = {}
            for k in draw(st.lists(st.integers(0, 7), max_size=5)):
                field.axpy(row, [(col(k), entry())], field.one)
            rows.append(row)
        elif choice == "copy":
            rows.append(dict(draw(st.sampled_from(rows))))
        else:
            # a combination of earlier rows: it reduces to zero, and its
            # entries may cancel outright
            row = {}
            for _ in range(draw(st.integers(1, 3))):
                field.axpy(row, draw(st.sampled_from(rows)).items(), entry())
            rows.append(row)
    return field, rows


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
def test_rank_of_rows_matches_row_solver(case):
    field, rows = case
    before = [dict(r) for r in rows]
    assert rank_of_rows(rows, field) == RowSolver(rows, field).rank
    assert rows == before


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(KERNEL_FIELDS), st.data())
def test_field_axpy_matches_add_and_mul(field, data):
    # the kernel against entrywise field.add/field.mul; a key may repeat
    # within pairs, so entries can cancel inside one call
    def value():
        return scalar(field, data.draw(st.integers(-3, 3)),
                      data.draw(st.sampled_from((1, 3, 5))))

    keys = st.integers(0, 4)
    dst = {}
    for k in data.draw(st.lists(keys, max_size=4)):
        v = value()
        if v != field.zero:
            dst[k] = v
    pairs = [(k, value()) for k in data.draw(st.lists(keys, max_size=6))]
    s = value()
    want = dict(dst)
    for k, v in pairs:
        want[k] = field.add(want.get(k, field.zero), field.mul(s, v))
    want = {k: v for k, v in want.items() if v != field.zero}
    got = field.axpy(dst, pairs, s)
    assert got is dst
    assert got == want
    assert all(v != field.zero for v in got.values())


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
def test_field_axpy_drops_cancelled_entries(field):
    one = field.one
    dst = {0: one, 1: one}
    assert field.axpy(dst, [(0, one), (2, one)], field.neg(one)) == \
        {1: one, 2: field.neg(one)}
    assert field.axpy({}, [(0, one)], field.zero) == {}
    assert field.axpy({0: one}, [(0, one), (0, field.neg(one))], one) == \
        {0: one}
    assert field.axpy({0: one}, [(0, one)], field.neg(one)) == {}


def random_sparse_rows(field, rng):
    """Seeded sparse rows over int columns 0..30, whose str order differs
    from their numeric order ("10" < "2"), with zero rows, repeated rows
    and combinations of earlier rows mixed in."""
    rows = []
    for _ in range(rng.randrange(1, 40)):
        kind = rng.random()
        if kind < 0.1:
            rows.append({})
        elif kind < 0.2 and rows:
            rows.append(dict(rng.choice(rows)))
        elif kind < 0.35 and rows:
            row = {}
            for _ in range(rng.randrange(1, 4)):
                field.axpy(row, rng.choice(rows).items(),
                           field.of_int(rng.randrange(1, 7)))
            rows.append(row)
        else:
            row = {}
            for c in rng.sample(range(31), rng.randrange(1, 6)):
                row[c] = field.of_int(rng.randrange(1, 101))
            rows.append(row)
    return rows


@pytest.mark.parametrize("field", [sa.QQ, PrimeField(101)],
                         ids=["Q", "F101"])
def test_pivot_columns_match_row_solver(field):
    rng = random.Random(f"pivots/{field}")
    for _ in range(200):
        rows = random_sparse_rows(field, rng)
        before = [dict(r) for r in rows]
        assert pivot_columns(rows, field) == set(RowSolver(rows, field).pivots)
        assert rows == before


def test_pivot_columns_take_the_least_str_key():
    F = sa.QQ
    one = F.one
    # numeric order would pick 2, str order picks 10
    assert pivot_columns([{2: one, 10: one}], F) == {10}
    assert pivot_columns([{2: one, 10: one}, {2: one}], F) == {10, 2}
    assert pivot_columns([{}, {3: one}, {3: F.parse("2")}], F) == {3}


@pytest.mark.parametrize("field", [sa.QQ, PrimeField(101)],
                         ids=["Q", "F101"])
def test_kernel_rows_carry_an_identity_block(field):
    rng = random.Random(f"kernel_rows/{field}")
    for _ in range(200):
        rows = random_sparse_rows(field, rng)
        solver = RowSolver(rows, field)
        kernel = solver.kernel()
        assert len(solver.kernel_rows) == len(kernel)
        assert len(kernel) + solver.rank == len(rows)
        assert rows_mul(kernel, rows, field) == [{} for _ in kernel]
        for p, vec in enumerate(kernel):
            assert {i: vec.get(i, field.zero) for i in solver.kernel_rows} \
                == {i: (field.one if q == p else field.zero)
                    for q, i in enumerate(solver.kernel_rows)}
        # x . kernel = y is read off the identity block
        if kernel:
            x = {p: field.of_int(rng.randrange(101)) for p in
                 range(len(kernel))}
            y = {}
            for p, c in x.items():
                field.axpy(y, kernel[p].items(), c)
            assert {p: y.get(i, field.zero)
                    for p, i in enumerate(solver.kernel_rows)} == x
