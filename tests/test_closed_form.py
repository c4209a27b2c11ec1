"""The closed-form basis product, the socle-partner Gram matrix and dual basis.

Each is checked against the slow path it replaces: the product against
multiplying b_i by the arrows of b_j one at a time (``fixtures.walk``, the
arrow walk, which lives only in the tests), the Gram matrix against
computing every entry of the blocks e_v A e_u x e_u A e_v, and the dual
basis against solving with the transposed Gram matrix by elimination.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import surfalg as sa
from surfalg.algebra import _socle_partners, form_value
from surfalg.linalg import RowSolver

import fixtures as fx
from fixtures import (
    FIELDS, KINDS, deformed_triangle, least_weights, presentation)


def walk_product(t, i, j):
    """b_i b_j by the arrow walk over the word of b_j."""
    if t.tgt_of[i] != t.src_of[j]:
        return ()
    scale, arrows = t.chain(j)
    return tuple(sorted(fx.walk(t, {i: scale}, arrows).items()))


def assert_words_match_walk(t):
    """The g-word rule at every length, through the socle and past it.
    Returns the number of words compared."""
    words = 0
    for a in t.quiver.arrows:
        for length in range(t.mn[a] + 2):
            assert t.word_element(a, length) == fx.walked_word(t, a, length), \
                (t.kind, a, length)
        words += t.mn[a] + 2
    return words


def assert_products_match_walk(t):
    """Returns the number of basis pairs compared."""
    for i in range(t.dim):
        for j in range(t.dim):
            assert t.basis_product(i, j) == walk_product(t, i, j), \
                (t.kind, t.basis[i], t.basis[j])
    return t.dim * t.dim


# Raised weights reach words longer than 2, so the block offset i + l and
# the socle at total length mn are compared, not only the right table.
@pytest.mark.parametrize("raise_by", (0, 1, 2))
@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", sorted(fx.ALL_QUIVERS))
def test_closed_product_matches_walk(name, kind, field, raise_by):
    rng = random.Random(f"{name}/{kind}/{field}")
    t = sa.build_algebra(presentation(name, kind, FIELDS[field], rng,
                                      raise_by))
    assert_products_match_walk(t)


@pytest.mark.parametrize("raise_by", (0, 1, 2))
@pytest.mark.parametrize("border_nonzero", (True, False))
@pytest.mark.parametrize("field", (sa.PrimeField(2), sa.QQ),
                         ids=("F2", "Q"))
def test_closed_product_matches_walk_deformed(field, border_nonzero,
                                              raise_by):
    rng = random.Random(int(border_nonzero))
    t = sa.build_algebra(deformed_triangle(field, rng, border_nonzero,
                                           raise_by))
    assert_products_match_walk(t)


@settings(max_examples=12, deadline=None)
@given(st.data())
def test_closed_product_matches_walk_random(data):
    name = data.draw(st.sampled_from(sorted(fx.ALL_QUIVERS)))
    q = fx.ALL_QUIVERS[name]()
    kind = data.draw(st.sampled_from(KINDS))
    field = FIELDS[data.draw(st.sampled_from(sorted(FIELDS)))]
    m, c = {}, {}
    for rep, least in least_weights(name, q).items():
        m[rep] = data.draw(st.integers(least, max(least, 3)))
        if field.char == 0:
            num = data.draw(st.integers(1, 9)) * data.draw(
                st.sampled_from((1, -1)))
            c[rep] = Fraction(num, data.draw(st.integers(1, 9)))
        else:
            c[rep] = data.draw(st.integers(1, field.char - 1))
    t = sa.build_algebra(sa.Presentation(q, kind=kind, field=field,
                                         m=m, c=c))
    assert_products_match_walk(t)


def blockwise_gram(t, phi):
    """G[i][j] = phi(b_i b_j) over the whole block e_v A e_u of each row.

    For b_i in e_u A e_v, phi(b_i b_j) can be nonzero only for b_j in
    e_v A e_u; this computes every entry of those blocks.
    """
    gram = []
    for i in range(t.dim):
        row = {}
        for j in t.basis_of(source=t.tgt_of[i], target=t.src_of[i]):
            val = form_value(t, phi, dict(t.basis_product(i, j)))
            if val != t.field.zero:
                row[j] = val
        gram.append(row)
    return gram


def blockwise_failing_pair(t, gram):
    """The first pair i < j, in row-major order, with G[i][j] != G[j][i]."""
    zero = t.field.zero
    for i in range(t.dim):
        for j in t.basis_of(source=t.tgt_of[i], target=t.src_of[i]):
            if j > i and gram[i].get(j, zero) != gram[j].get(i, zero):
                return {"i": list(t.basis[i]), "j": list(t.basis[j])}
    return None


def fixture_algebras(max_dim=300):
    """Every fixture algebra with a form, up to max_dim, with its name."""
    rng = random.Random(6)
    for name in sorted(fx.ALL_QUIVERS):
        for kind in ("weighted", "biserial"):
            for field in sorted(FIELDS):
                for up in (0, 1, 2):
                    t = sa.build_algebra(presentation(
                        name, kind, FIELDS[field], rng, up))
                    if t.dim <= max_dim:
                        yield f"{name}/{kind}/{field}/+{up}", t
    for field in (sa.PrimeField(2), sa.QQ):
        for border_nonzero in (True, False):
            for up in (0, 1, 2):
                yield f"deformed/{field}/{border_nonzero}/+{up}", \
                    sa.build_algebra(deformed_triangle(
                        field, rng, border_nonzero, up))


def test_gram_matches_blockwise_gram():
    count = 0
    for name, t in fixture_algebras():
        phi = sa.symmetrizing_form(t)
        assert sa.gram_matrix(t, phi) == blockwise_gram(t, phi), name
        rep = sa.verify_symmetrizing_form(t)
        assert rep["symmetric"] and rep["nondegenerate"], name
        count += 1
    assert count > 60


def test_failing_pair_is_first_in_row_major_order():
    rng = random.Random(11)
    for t in (fx.triangle_algebra(m=2), fx.deformed_triangle_f2(),
              fx.tetrahedral_algebra(a=2, b=3)):
        gram = blockwise_gram(t, sa.symmetrizing_form(t))
        for _ in range(20):
            broken = [dict(row) for row in gram]
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(t.dim)
                j = rng.choice(t.basis_of(source=t.tgt_of[i],
                                          target=t.src_of[i]))
                broken[i][j] = t.field.add(broken[i].get(j, t.field.zero),
                                           t.field.one)
                if broken[i][j] == t.field.zero:
                    del broken[i][j]
            t._gram = broken
            expect = blockwise_failing_pair(t, broken)
            rep = sa.verify_symmetrizing_form(t)
            assert rep["failing_pair"] == expect
            assert rep["symmetric"] == (expect is None)


def test_gram_rejects_form_off_the_socle():
    t = fx.triangle_algebra()
    with pytest.raises(ValueError):
        sa.gram_matrix(t, {t.index[("e", 1)]: t.field.one})


def test_form_check_products_are_linear_in_dim(monkeypatch):
    calls = []
    product = sa.AlgebraTable.basis_product

    def counted(self, i, j):
        calls.append((i, j))
        return product(self, i, j)

    monkeypatch.setattr(sa.AlgebraTable, "basis_product", counted)
    t = fx.triangle_algebra(m=64)
    assert t.dim == 2304
    rep = sa.verify_symmetrizing_form(t)
    assert rep["symmetric"] and rep["nondegenerate"]
    assert len(calls) <= 2 * t.dim


def rowsolver_dual_basis(t):
    """b_j* as the solution x of x . G^T = e_j, by one RowSolver."""
    field = t.field
    gram = sa.gram_matrix(t, sa.symmetrizing_form(t))
    cols = [{} for _ in range(t.dim)]
    for i, row in enumerate(gram):
        for k, val in row.items():
            cols[k][i] = val
    solver = RowSolver(cols, field)
    dual = []
    for j in range(t.dim):
        x = solver.solve({j: field.one})
        if x is None:
            raise ValueError("symmetrizing form is degenerate")
        dual.append(x)
    return dual


def test_dual_basis_matches_rowsolver():
    count = 0
    for name, t in fixture_algebras():
        assert sa.dual_basis(t) == rowsolver_dual_basis(t), name
        count += 1
    assert count > 60


def test_dual_basis_rejects_a_degenerate_block():
    t2 = fx.triangle_algebra()
    pair = sorted(_socle_partners(t2, 0) + [0])
    t1 = fx.weighted(fx.sphere_opposite_quiver(),
                     m={"alpha1": 2, "alpha2": 2, "alpha3": 2})
    fixed = next(j for j in range(t1.dim) if _socle_partners(t1, j) == [j])
    for t, j in ((t2, pair[0]), (t1, fixed)):
        gram = [dict(row) for row in sa.gram_matrix(
            t, sa.symmetrizing_form(t))]
        gram[j] = {}
        t._gram, t._dual = gram, None
        with pytest.raises(ValueError):
            sa.dual_basis(t)
