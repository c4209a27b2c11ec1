"""The closed-form basis product, the block-ordered basis, the socle-partner
Gram matrix and dual basis.

Each is checked against the slow path it replaces: the product against
multiplying b_i by the arrows of b_j one at a time (``fixtures.walk``, the
arrow walk, which lives only in the tests), the basis against sorting
every word, the Gram matrix against computing every entry of the blocks
e_v A e_u x e_u A e_v, and the dual basis against solving with the
transposed Gram matrix by elimination.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import surfalg as sa
from surfalg.algebra import socle_involution
from surfalg.linalg import RowSolver
from surfalg.quiver import skey

import fixtures as fx
from fixtures import (
    FIELDS, KINDS, deformed_triangle, form_value, least_weights, nonzero,
    presentation)


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
                (t.kind, t.basis_element(i), t.basis_element(j))
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


def sorted_build(pres):
    """The basis of a presentation's table as built by sorting every word
    w(a, l) by (skey(rep a), skey(a), l), as a list of tuples, and its
    layout read off that list by looking each element up, each target by
    ``g_power``: the oracle of the block-ordered build."""
    q, gd = pres.quiver, pres.gd
    top = 2 if pres.kind == "string" else 1
    words = [("w", a, length) for a in q.arrows
             for length in range(1, pres.weight_of(a) * gd.n[a] - top + 1)]
    words.sort(key=lambda w: (skey(gd.rep[w[1]]), skey(w[1]), w[2]))
    basis = [("e", v) for v in q.vertices] + words
    if pres.kind != "string":
        basis += [("s", v) for v in q.vertices]
    index = {b: i for i, b in enumerate(basis)}
    return basis, {
        "vpos": {v: index[("e", v)] for v in q.vertices},
        "word_arrow": [w[1] for w in words],
        "start": {w[1]: index[w] for w in words if w[2] == 1},
        "arrow_at": {index[w]: w[1] for w in words if w[2] == 1},
        "src_of": [q.src[b[1]] if b[0] == "w" else b[1] for b in basis],
        "tgt_of": [q.tgt[gd.g_power(b[1], b[2] - 1)] if b[0] == "w"
                   else b[1] for b in basis],
        "first_word": len(q.vertices),
        "first_socle": len(q.vertices) + len(words),
        "dim": len(basis),
    }, index


def assert_build_matches_sort_oracle(t):
    """``basis_element``, every offset and the layout lists equal the sort
    oracle's, dicts in order, and the idempotent and socle elements sit
    at their tuples' positions.  Returns the number of basis elements
    compared."""
    basis, layout, index = sorted_build(t.pres)
    assert [t.basis_element(j) for j in range(t.dim)] == basis
    for key, want in layout.items():
        got = getattr(t, key)
        if isinstance(want, dict):
            got, want = list(got.items()), list(want.items())
        assert got == want, key
    one = t.field.one
    for v in t.quiver.vertices:
        assert t.idempotent(v) == {index[("e", v)]: one}, v
        if t.kind != "string":
            assert t.socle_element(v) == {index[("s", v)]: one}, v
            assert t.first_socle + t.vpos[v] == index[("s", v)], v
    return t.dim


def build_cases():
    """(label, presentation): every fixture quiver x kind (deformed where
    a border exists) x field at raises 0-2, and the deformed triangle over
    F2 and Q with a nonzero and a zero border."""
    for name in sorted(fx.ALL_QUIVERS):
        border = sa.border(fx.ALL_QUIVERS[name]())[0]
        for kind in KINDS + (("deformed",) if border else ()):
            for field in sorted(FIELDS):
                for up in (0, 1, 2):
                    rng = random.Random(f"{name}/{kind}/{field}/{up}")
                    yield f"{name}/{kind}/{field}/+{up}", presentation(
                        name, kind, FIELDS[field], rng, up)
    for field in (sa.PrimeField(2), sa.QQ):
        for border_nonzero in (True, False):
            for up in (0, 1, 2):
                rng = random.Random(f"{field}/{border_nonzero}/{up}")
                yield f"deformed/{field}/{border_nonzero}/+{up}", \
                    deformed_triangle(field, rng, border_nonzero, up)


BUILD_CASES = list(build_cases())


@pytest.mark.parametrize("pres", [pres for _, pres in BUILD_CASES],
                         ids=[label for label, _ in BUILD_CASES])
def test_build_matches_sort_oracle(pres):
    assert_build_matches_sort_oracle(sa.build_algebra(pres))


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
                return {"i": list(t.basis_element(i)),
                        "j": list(t.basis_element(j))}
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


def random_socle_form(t, rng):
    """A form on the socle elements, each value 0, 1 or a random nonzero
    scalar; a zero value is given or left out at random."""
    field, phi = t.field, {}
    for k in range(t.first_socle, t.dim):
        val = rng.choice((field.zero, field.one, nonzero(field, rng)))
        if val != field.zero or rng.random() < 0.5:
            phi[k] = val
    return phi


def assert_gram_matches_blockwise(t, rng):
    """The Gram matrices of the symmetrizing form and of two random socle
    forms equal ``blockwise_gram``, row by row in key order.  Returns the
    number of forms compared."""
    forms = (sa.symmetrizing_form(t), random_socle_form(t, rng),
             random_socle_form(t, rng))
    for phi in forms:
        got, want = sa.gram_matrix(t, phi), blockwise_gram(t, phi)
        assert [list(row.items()) for row in got] == \
            [list(row.items()) for row in want], phi
    return len(forms)


def assert_dual_matches_rowsolver(t):
    """The dual basis equals ``rowsolver_dual_basis``, each element's keys
    in ascending order."""
    dual = sa.dual_basis(t)
    assert dual == rowsolver_dual_basis(t)
    assert all(list(x) == sorted(x) for x in dual)


def test_gram_matches_blockwise_gram():
    count = 0
    rng = random.Random(29)
    for name, t in fixture_algebras():
        assert_gram_matches_blockwise(t, rng)
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
        sa.gram_matrix(t, {t.vpos[1]: t.field.one})


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
    assert len(sa.dual_basis(t)) == t.dim
    assert calls == []


def rowsolver_dual_basis(t, gram=None):
    """b_j* as the solution x of x . G^T = e_j, by one RowSolver, for the
    given Gram matrix G or that of the symmetrizing form."""
    field = t.field
    if gram is None:
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
    for _, t in fixture_algebras():
        assert_dual_matches_rowsolver(t)
        count += 1
    assert count > 60


def test_dual_basis_inverts_an_asymmetric_gram():
    """G[j][p(j)] scaled by 2 on every block j < p(j): the dual basis is
    column j of G^-1, which a symmetric G cannot tell from row j."""
    rng = random.Random(3)
    for t in (fx.triangle_algebra(m=2, field=sa.PrimeField(101)),
              sa.build_algebra(deformed_triangle(sa.QQ, rng, True, 1))):
        field = t.field
        gram = [dict(row) for row in sa.gram_matrix(
            t, sa.symmetrizing_form(t))]
        for j, p in enumerate(socle_involution(t)):
            if j < p:
                gram[j][p] = field.mul(gram[j][p], field.of_int(2))
        t._gram, t._dual = gram, None
        assert sa.dual_basis(t) == rowsolver_dual_basis(t, gram)


def test_dual_basis_rejects_a_degenerate_block():
    t2 = fx.triangle_algebra()
    pair = sorted({0, socle_involution(t2)[0]})
    t1 = fx.weighted(fx.sphere_opposite_quiver(),
                     m={"alpha1": 2, "alpha2": 2, "alpha3": 2})
    fixed = next(j for j, p in enumerate(socle_involution(t1)) if p == j)
    for t, j in ((t2, pair[0]), (t1, fixed)):
        gram = [dict(row) for row in sa.gram_matrix(
            t, sa.symmetrizing_form(t))]
        gram[j] = {}
        t._gram, t._dual = gram, None
        with pytest.raises(ValueError):
            sa.dual_basis(t)
