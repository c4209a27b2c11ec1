"""Finite-dimensional algebras attached to a weighted triangulation quiver.

Given a triangulation quiver (Q, f) with weights m and parameters c on its
g-orbits, four bound quiver algebras are supported:

* ``weighted``: the weighted surface algebra, with relations
  a f(a) = c_abar A_abar and a f(a) g(f(a)) = 0;
* ``biserial``: the biserial counterpart, with a f(a) = 0 and the two
  maximal cyclic paths at each vertex identified;
* ``string``: the quotient by all a f(a) and all maximal g-words A_a;
* ``deformed``: the socle deformation of ``weighted`` supported on border
  loops, a^2 = c_abar A_abar + b_i B_abar.

Here A_a is the g-word of length m n - 1 starting at a, and B_a = a A_g(a)
is the full cycle of length m n, which equals c_a^{-1} w_i in the socle.

The g-word rule.  The path a g(a) ... g^(l-1)(a) of length l is, in the
algebra, e_s(a) for l = 0, the basis word w(a, l) for 1 <= l <= m n - top
(top is 2 for ``string`` and 1 otherwise), c_a^{-1} s_s(a) for l = m n
except for ``string``, and 0 at every other length.  The relations give it:
a g-word extends along g by the right table until it tops out, the full
cycle B_a of length m n is c_a^{-1} times the socle element, and no arrow
extends the socle.  ``AlgebraTable.word_element`` is this rule.

Elements are sparse dicts basis index -> nonzero scalar over the monomial
basis: the idempotents, the g-words of each arrow as one block in length
order, and (except for ``string``) one socle element per vertex; element
arithmetic goes through ``field.axpy``.  The table of right products by
one arrow defines the algebra, and the modules walk it
(:mod:`surfalg.modules`).  Every other product of basis elements is one
monomial step in closed form at a cost that does not grow with the weight
(``AlgebraTable.basis_product``; ``products_by`` lists the products by one
element): an idempotent factor gives the other, an arrow on the right is
one right-table lookup, and a word times a word of length l >= 2 is the
word l places on in its block, the socle, or 0, by one g-orbit test.
Products are not memoized: a memo of the pairs the bimodule check asks for
held most of its memory.  The symmetrizing form is checked on the sparse
Gram matrix, at most two nonzero entries per row at the socle partners of
each basis element, so it costs O(dim).
"""

from collections import Counter

from .fields import RationalField
from .linalg import det_int, rank_of_rows
from .quiver import border, g_structure, is_tetrahedral, skey

KINDS = ("weighted", "biserial", "string", "deformed")


class Presentation:
    """A weighted presentation: quiver, kind, field, weights, parameters.

    Args:
        quiver: a validated TriangulationQuiver.
        kind: one of ``weighted``, ``biserial``, ``string``, ``deformed``.
        field: the ground field.
        m: weights, keyed by g-orbit representative (any orbit member is
            accepted and normalized); missing orbits default to 1.
        c: nonzero parameters, keyed like m; missing orbits default to 1.
        b: border function for ``deformed``, keyed by border vertex;
            missing vertices default to 0.

    Every parameter and border value passes through ``field.coerce``
    before any check, and is stored as the scalar it returns.  Over Q it
    accepts an ``int`` or a ``Fraction`` and stores an integral one as an
    ``int``; over F_p it accepts an ``int`` and stores it reduced mod p.
    It refuses a ``bool``, a ``float`` and every other type, and over
    F_p also a ``Fraction``.  A parameter is checked to be nonzero after
    the coercion, so an F_p parameter divisible by p is refused.

    Raises:
        ValueError: for unknown kinds, a weight that is not a positive
            ``int`` (a ``bool`` among them), a parameter or border value
            that ``field.coerce`` refuses, zero parameters, an orbit with
            m n < 3, a border function on a non-border vertex, or
            ``deformed`` on a quiver without border.
    """

    def __init__(self, quiver, kind="weighted", field=None, m=None, c=None, b=None):
        if kind not in KINDS:
            raise ValueError(f"unknown algebra kind {kind!r}")
        self.quiver = quiver
        self.kind = kind
        self.field = field if field is not None else RationalField()
        self.gd = g_structure(quiver)
        self.m = self._orbit_map(m or {}, "weight")
        self.c = self._orbit_map(c or {}, "parameter")
        for rep in self.m:
            w = self.m[rep]
            if isinstance(w, bool) or not isinstance(w, int) or w < 1:
                raise ValueError(f"weight of orbit {rep!r} must be a positive integer")
            if self.c[rep] == self.field.zero:
                raise ValueError(f"parameter of orbit {rep!r} must be nonzero")
            if w * self.gd.n[rep] < 3:
                raise ValueError(
                    f"orbit {rep!r} has m*n = {w * self.gd.n[rep]} < 3"
                )
        self.border_vertices, self.border_loops = border(quiver)
        self.b = {}
        if b:
            if kind != "deformed":
                raise ValueError("border function requires kind 'deformed'")
            for v, val in b.items():
                if v not in self.border_loops:
                    raise ValueError(f"border function on non-border vertex {v!r}")
                self.b[v] = self.field.coerce(val)
        if kind == "deformed":
            if not self.border_vertices:
                raise ValueError("kind 'deformed' requires a nonempty border")
            for v in self.border_vertices:
                self.b.setdefault(v, self.field.zero)

    def _orbit_map(self, given, what):
        out = {}
        default = 1 if what == "weight" else self.field.one
        for key, val in given.items():
            rep = self.gd.rep.get(key)
            if rep is None:
                raise ValueError(f"{what} keyed by unknown arrow {key!r}")
            if what == "parameter":
                val = self.field.coerce(val)
            if rep in out and out[rep] != val:
                raise ValueError(
                    f"conflicting {what} values for orbit of {rep!r}"
                )
            out[rep] = val
        for o in self.gd.orbits:
            out.setdefault(o[0], default)
        return out

    def weight_of(self, a):
        return self.m[self.gd.rep[a]]

    def param_of(self, a):
        return self.c[self.gd.rep[a]]


class AlgebraTable:
    """The algebra of a presentation, as a based multiplication table."""

    def __init__(self, pres):
        self.pres = pres
        self.quiver = pres.quiver
        self.gd = pres.gd
        self.field = pres.field
        self.kind = pres.kind
        q = self.quiver
        self.mn = {a: pres.weight_of(a) * self.gd.n[a] for a in q.arrows}
        self.c = {a: pres.param_of(a) for a in q.arrows}
        self.c_inv = {a: self.field.inv(c) for a, c in self.c.items()}
        self.basis = []
        for v in q.vertices:
            self.basis.append(("e", v))
        # the longest word has length mn - top
        self.top = 2 if pres.kind == "string" else 1
        words = []
        for a in q.arrows:
            for length in range(1, self.mn[a] - self.top + 1):
                words.append(("w", a, length))
        words.sort(key=lambda w: (skey(self.gd.rep[w[1]]), skey(w[1]), w[2]))
        self.basis.extend(words)
        if pres.kind != "string":
            for v in q.vertices:
                self.basis.append(("s", v))
        self.index = {b: i for i, b in enumerate(self.basis)}
        self.dim = len(self.basis)
        # the basis runs idempotents, words, socle elements
        self.first_word = len(q.vertices)
        self.first_socle = self.first_word + len(words)
        self.src_of = [self._src(b) for b in self.basis]
        self.tgt_of = [self._tgt(b) for b in self.basis]
        self._basis_of = {}
        self.right = {}
        self._build_right_table()
        self._gram = None
        self._dual = None

    def _src(self, b):
        if b[0] == "w":
            return self.quiver.src[b[1]]
        return b[1]

    def _tgt(self, b):
        if b[0] == "w":
            return self.quiver.tgt[self.gd.g_power(b[1], b[2] - 1)]
        return b[1]

    def least_arrow_at(self, v):
        return self.quiver.out_arrows(v)[0]

    def word_arrows(self, a, length):
        """The arrow sequence a, g(a), ..., g^(length-1)(a)."""
        out = []
        cur = a
        for _ in range(length):
            out.append(cur)
            cur = self.gd.g[cur]
        return tuple(out)

    def _build_right_table(self):
        field = self.field
        q = self.quiver
        for i, b in enumerate(self.basis):
            if b[0] == "e":
                for a in q.out_arrows(b[1]):
                    self.right[(i, a)] = ((self.index[("w", a, 1)], field.one),)
                continue
            if b[0] == "s":
                continue
            a, length = b[1], b[2]
            last = self.gd.g_power(a, length - 1)
            gx = self.gd.g[last]
            fx = q.f[last]
            mn = self.mn[a]
            # Extension along g: the word grows, tops out, or hits the socle.
            if length + 1 <= mn - self.top:
                self.right[(i, gx)] = ((self.index[("w", a, length + 1)], field.one),)
            elif self.kind != "string":
                soc = self.index[("s", q.src[a])]
                self.right[(i, gx)] = ((soc, self.c_inv[a]),)
            # Extension along f: zero except from single arrows in the
            # weighted and deformed algebras.
            if length == 1 and self.kind in ("weighted", "deformed"):
                ab = q.bar[a]
                terms = [(self.index[("w", ab, self.mn[ab] - 1)], self.c[ab])]
                if self.kind == "deformed" and q.f[a] == a:
                    bb = self.pres.b.get(q.src[a], field.zero)
                    if bb != field.zero:
                        soc = self.index[("s", q.src[a])]
                        terms.append((soc, field.mul(bb, self.c_inv[ab])))
                if fx == gx:
                    raise AssertionError("g- and f-extensions must differ")
                self.right[(i, fx)] = tuple(terms)

    def chain(self, j):
        """Basis element j as (scalar, arrow sequence); idempotents give ()."""
        b = self.basis[j]
        if b[0] == "e":
            return self.field.one, ()
        if b[0] == "w":
            return self.field.one, self.word_arrows(b[1], b[2])
        a = self.least_arrow_at(b[1])
        return self.c[a], self.word_arrows(a, self.mn[a])

    def basis_product(self, i, j):
        """Product of basis elements i and j, as a tuple of (index, scalar).

        The closed form equals b_i times the arrows of b_j, one ``right``
        lookup at a time (the walk, the oracle of the tests).  An
        idempotent factor gives the other factor, and a socle factor next
        to a non-idempotent gives 0.  Else b_i = w(y, k), b_j = w(a, l),
        and l = 1 is the right table's entry at (i, a).  For l >= 2, the
        f-extension by a (k = 1, a = f(y)), w(ybar, mn - 1) and in
        ``deformed`` a socle term, never continues: the word does not meet
        g(a) (see :func:`_socle_partners`), and no arrow extends the
        socle.  The g-extension exists only for a = g^k(y), and the right
        table extends it by every further arrow of b_j, each the
        g-successor.  So b_i b_j is the g-word rule at length k + l from
        y: w(y, k + l) while k + l <= mn - top, basis element i + l as
        the words of y form one block in length order; c_y^-1 s_src(y) at
        k + l = mn except for ``string``; else 0.
        """
        if self.tgt_of[i] != self.src_of[j]:
            return ()
        if j < self.first_word:
            return ((i, self.field.one),)
        if i < self.first_word:
            return ((j, self.field.one),)
        if i >= self.first_socle or j >= self.first_socle:
            return ()
        _, a, l = self.basis[j]
        if l == 1:
            return self.right.get((i, a), ())
        _, y, k = self.basis[i]
        if self.gd.g_power(y, k) != a:
            return ()
        if k + l <= self.mn[y] - self.top:
            return ((i + l, self.field.one),)
        if k + l == self.mn[y] and self.kind != "string":
            return self._socle_term(y)
        return ()

    def products_by(self, j, left):
        """The nonzero products b_k b_j (``left``) or b_j b_k, b_j not an
        idempotent, as (k, terms) in ascending k, listed in closed form by
        the rule of :meth:`basis_product`, not tried k by k.  s_v gives e_v
        only.  A word w(a, l) gives the idempotent at its outer end, the
        words w(y, d) with g^d(y) = a on the left (d in steps of the orbit
        length n) or w(g^l(a), d) on the right while d + l has a nonzero
        g-word, and for l = 1 the f-extension of f^-1(a) by a, or of a by
        f(a).
        """
        one = self.field.one
        out = [(self.index[("e", self.src_of[j] if left else self.tgt_of[j])],
                ((j, one),))]
        if j >= self.first_socle:
            return out
        _, a, l = self.basis[j]
        mn, index, g_power = self.mn[a], self.index, self.gd.g_power
        # the factors w(y, d) with g^d(y) = a (left) or w(g^l(a), d) meet
        # b_j in a word while d < stop, and in the socle at d + l = mn
        stop, socle = mn + 1 - self.top - l, self.kind != "string"
        n = self.gd.n[a] if left else 1
        for first in range(1, min(n, mn - l) + 1):
            y = g_power(a, n - first) if left else a
            base = index[("w", y if left else g_power(a, l), 1)] - 1
            to = base + l if left else j
            out += [(base + d, ((to + d, one),))
                    for d in range(first, stop, n)]
            if socle and (mn - l - first) % n == 0:
                out.append((base + mn - l, self._socle_term(y)))
        if l == 1:
            f = self.quiver.f
            k = index[("w", f[f[a]] if left else f[a], 1)]
            terms = self.right.get((k, a) if left else (j, f[a]))
            if terms:
                out.append((k, terms))
        out.sort()
        return out

    def _socle_term(self, a):
        """The full cycle B_a = c_a^-1 s_src(a), as the terms of a product."""
        return ((self.index[("s", self.quiver.src[a])], self.c_inv[a]),)

    def multiply(self, x, y):
        """Product of two elements (dicts basis index -> scalar)."""
        field = self.field
        out = {}
        for i, xi in x.items():
            for j, yj in y.items():
                prod = self.basis_product(i, j)
                if prod:
                    field.axpy(out, prod, field.mul(xi, yj))
        return out

    def idempotent(self, v):
        return {self.index[("e", v)]: self.field.one}

    def arrow_element(self, a):
        return {self.index[("w", a, 1)]: self.field.one}

    def word_element(self, a, length):
        """The path a g(a) ... g^(length-1)(a) as an element: the g-word
        rule of the module docstring, for any length >= 0."""
        if length == 0:
            return self.idempotent(self.quiver.src[a])
        if length <= self.mn[a] - self.top:
            return {self.index[("w", a, length)]: self.field.one}
        if length == self.mn[a] and self.kind != "string":
            return dict(self._socle_term(a))
        return {}

    def socle_element(self, v):
        return {self.index[("s", v)]: self.field.one}

    def basis_of(self, source=None, target=None):
        """A new list of the basis elements with this source and/or target."""
        key = (source, target)
        found = self._basis_of.get(key)
        if found is None:
            found = self._basis_of[key] = [
                i for i in range(self.dim)
                if (source is None or self.src_of[i] == source)
                and (target is None or self.tgt_of[i] == target)]
        return list(found)


def build_algebra(pres):
    """Build the multiplication table of a presentation."""
    return AlgebraTable(pres)


def el_add(field, x, y):
    return field.axpy(dict(x), y.items(), field.one)


def el_scale(field, s, x):
    return field.axpy({}, x.items(), s)


def defining_relations(table):
    """The defining relations of the presentation, as coefficiented paths.

    Each relation is a dict with a name and a list of (coefficient, arrow
    sequence) terms; the relation asserts that the sum vanishes.
    """
    pres = table.pres
    q = table.quiver
    field = table.field
    gd = table.gd
    rels = []
    if pres.kind in ("weighted", "deformed"):
        for a in q.arrows:
            ab = q.bar[a]
            terms = [
                (field.one, (a, q.f[a])),
                (field.neg(table.c[ab]), table.word_arrows(ab, table.mn[ab] - 1)),
            ]
            if pres.kind == "deformed" and q.f[a] == a:
                bb = pres.b.get(q.src[a], field.zero)
                if bb != field.zero:
                    terms.append(
                        (field.neg(bb), table.word_arrows(ab, table.mn[ab]))
                    )
            rels.append({"name": f"commute_{a}", "terms": terms})
            rels.append({
                "name": f"zero_{a}",
                "terms": [(field.one, (a, q.f[a], gd.g[q.f[a]]))],
            })
    elif pres.kind == "biserial":
        for v in q.vertices:
            a, ab = q.out_arrows(v)
            rels.append({
                "name": f"socle_{v}",
                "terms": [
                    (table.c[a], table.word_arrows(a, table.mn[a])),
                    (field.neg(table.c[ab]), table.word_arrows(ab, table.mn[ab])),
                ],
            })
        for a in q.arrows:
            rels.append({
                "name": f"zero_{a}",
                "terms": [(field.one, (a, q.f[a]))],
            })
    else:
        for a in q.arrows:
            rels.append({
                "name": f"zero_{a}",
                "terms": [(field.one, (a, q.f[a]))],
            })
            rels.append({
                "name": f"top_{a}",
                "terms": [(field.one, table.word_arrows(a, table.mn[a] - 1))],
            })
    return rels


def dimension_report(table):
    """Total dimension against the closed-form count, per vertex too."""
    gd = table.gd
    pres = table.pres
    formula = 0
    for o in gd.orbits:
        mo = pres.m[o[0]]
        formula += mo * len(o) * len(o)
    if pres.kind == "string":
        formula -= 3 * len(table.quiver.vertices)
    by_vertex = {}
    vertex_formula = {}
    for v in table.quiver.vertices:
        by_vertex[str(v)] = len(table.basis_of(source=v))
        out = table.quiver.out_arrows(v)
        count = sum(pres.weight_of(a) * gd.n[a] for a in out)
        if pres.kind == "string":
            count -= 3
        vertex_formula[str(v)] = count
    return {
        "dim": table.dim,
        "formula": formula,
        "matches": table.dim == formula
        and by_vertex == vertex_formula,
        "dim_at_vertex": by_vertex,
        "formula_at_vertex": vertex_formula,
    }


def cartan_matrix(table):
    """The Cartan matrix C[i][j] = dim e_i A e_j and its determinant."""
    verts = table.quiver.vertices
    counts = Counter(zip(table.src_of, table.tgt_of))
    mat = [[counts[(u, v)] for v in verts] for u in verts]
    return {
        "vertices": list(verts),
        "matrix": mat,
        "det": det_int(mat),
        "convention": "entry [i][j] counts basis elements of e_i A e_j",
    }


def symmetrizing_form(table):
    """The symmetrizing form: the coefficient functional of the socle basis.

    Returns the form as a dict basis index -> scalar (supported on the
    socle elements).  Raises for ``string``, which is not self-injective.
    """
    if table.kind == "string":
        raise ValueError("string algebras carry no symmetrizing form here")
    field = table.field
    return {
        table.index[("s", v)]: field.one for v in table.quiver.vertices
    }


def form_value(table, phi, x):
    field = table.field
    out = field.zero
    for k, v in x.items():
        p = phi.get(k)
        if p is not None:
            out = field.add(out, field.mul(p, v))
    return out


def _socle_partners(table, i):
    """The columns j, ascending, where b_i b_j can have a socle term.

    By the product rule of :meth:`AlgebraTable.basis_product`, b_i b_j has
    a socle term only in three cases:

    * one factor is e_v and the other s_v;
    * b_i = w(a, l) and b_j = w(g^l(a), mn - l): the g-extension of b_i
      by the first arrow of b_j, continued to total length mn;
    * ``deformed`` only: b_i = b_j = w(a, 1) for a border loop a, f(a) = a,
      whose f-extension a.a carries b/c times the socle.

    No other pair reaches the socle.  A socle factor kills every arrow, and
    an idempotent factor gives the other factor back.  An f-extension
    w(a, 1).f(a) gives w(abar, mn - 1), and that word continues only when
    g^(mn-1)(abar) = g(f(a)).  But g^(mn-1)(abar) = g^-1(abar) = f^-1(a),
    since g = bar . f, while g(f(a)) = bar(f^2(a)) = bar(f^-1(a)), and no
    arrow equals its bar.  So each row has at most two candidate columns.
    """
    b = table.basis[i]
    if b[0] == "e":
        return [table.index[("s", b[1])]]
    if b[0] == "s":
        return [table.index[("e", b[1])]]
    a, length = b[1], b[2]
    out = [table.index[("w", table.gd.g_power(a, length),
                        table.mn[a] - length)]]
    if table.kind == "deformed" and length == 1 and table.quiver.f[a] == a:
        out.append(i)
    return sorted(out)


def gram_matrix(table, phi):
    """The Gram matrix G[i][j] = phi(b_i b_j), as sparse rows.

    phi must be supported on the socle elements, as the symmetrizing form
    is.  Then G[i][j] can be nonzero only for the at most two socle
    partners j of i (see :func:`_socle_partners`), and only those entries
    are computed: every other product has no socle term, so its entry is
    exactly zero and the sparse rows are the full Gram matrix.  This takes
    at most 2 dim products, each O(1).

    Raises:
        ValueError: for ``string``, which has no socle elements, or when
            phi is nonzero off the socle.
    """
    if table.kind == "string":
        raise ValueError("string algebras carry no socle form")
    if any(table.basis[k][0] != "s" for k in phi):
        raise ValueError("the form must be supported on the socle")
    field = table.field
    gram = []
    for i in range(table.dim):
        row = {}
        for j in _socle_partners(table, i):
            val = form_value(table, phi, dict(table.basis_product(i, j)))
            if val != field.zero:
                row[j] = val
        gram.append(row)
    return gram


def _socle_gram(table):
    """The Gram matrix of the symmetrizing form, built once per table."""
    if table._gram is None:
        table._gram = gram_matrix(table, symmetrizing_form(table))
    return table._gram


def verify_symmetrizing_form(table):
    """Check symmetry phi(xy) = phi(yx) on all basis pairs and nondegeneracy.

    A pair i < j with G[i][j] != G[j][i] has a nonzero entry on at least
    one side, so symmetry is compared over the nonzero entries of the
    sparse Gram matrix only, and the least failing pair i < j, the first
    in row-major order, is reported.  G has at most two nonzero entries
    per row (see :func:`gram_matrix`), so the symmetry check and the rank
    both take O(dim).
    """
    field = table.field
    gram = _socle_gram(table)
    failure = None
    for i, row in enumerate(gram):
        for j, val in row.items():
            if j != i and gram[j].get(i, field.zero) != val:
                pair = (min(i, j), max(i, j))
                failure = pair if failure is None else min(failure, pair)
    if failure is not None:
        i, j = failure
        failure = {"i": list(table.basis[i]), "j": list(table.basis[j])}
    return {
        "symmetric": failure is None,
        "failing_pair": failure,
        "dim": table.dim,
        "nondegenerate": rank_of_rows(gram, field) == table.dim,
    }


def dual_basis(table):
    """The dual basis b_j* with phi(b_i . b_j*) = delta_ij, as elements.

    Writing b_j* = sum_k x_k b_k, the conditions read sum_k x_k G[i][k] =
    delta_ij, so x is column j of G^-1.  The socle partners of
    :func:`_socle_partners` pair each index i with p(i), an involution
    (p(p(i)) = i, as g^(mn)(a) = a), and G[i][k] is nonzero only for k in
    the block {i, p(i)}.  So G is the direct sum of these 1 x 1 and 2 x 2
    blocks, G^-1 is the direct sum of their inverses, and b_j* has its
    terms in the block of j: for a 2 x 2 block [[a, b], [c, d]] on
    indices i < p the inverse is [[d, -b], [-c, a]] / (ad - bc).

    Raises:
        ValueError: when the form is degenerate, that is when some block
            is singular.
    """
    if table._dual is not None:
        return table._dual
    field = table.field
    gram = _socle_gram(table)
    zero = field.zero
    dual = [None] * table.dim
    for j in range(table.dim):
        if dual[j] is not None:
            continue
        block = sorted({j, *_socle_partners(table, j)})
        if len(block) == 1:
            a = gram[j].get(j, zero)
            if a == zero:
                raise ValueError("symmetrizing form is degenerate")
            dual[j] = {j: field.inv(a)}
            continue
        i, p = block
        a, b = gram[i].get(i, zero), gram[i].get(p, zero)
        c, d = gram[p].get(i, zero), gram[p].get(p, zero)
        det = field.sub(field.mul(a, d), field.mul(b, c))
        if det == zero:
            raise ValueError("symmetrizing form is degenerate")
        s = field.inv(det)
        for k, (top, bottom) in ((i, (d, field.neg(c))),
                                 (p, (field.neg(b), a))):
            dual[k] = {idx: field.mul(s, x)
                       for idx, x in ((i, top), (p, bottom)) if x != zero}
    table._dual = dual
    return dual


def tetrahedral_parameters(table):
    """The four parameters (a, b, c, d) of a tetrahedral algebra.

    The labeling is the canonical one found by the isomorphism witness of
    :func:`is_tetrahedral`; the product a b c d (hence singularity) does
    not depend on the choice.

    Raises:
        ValueError: when the quiver is not tetrahedral or some weight
            exceeds 1.
    """
    ok, wit = is_tetrahedral(table.quiver)
    if not ok:
        raise ValueError("quiver is not tetrahedral")
    if any(w != 1 for w in table.pres.m.values()):
        raise ValueError("tetrahedral parameters require all weights 1")
    amap = wit["arrow_map"]
    inv = {ref: a for a, ref in amap.items()}
    field = table.field
    vals = {}
    for label, ref in (("a", "beta"), ("b", "rho"), ("c", "gamma"), ("d", "alpha")):
        vals[label] = table.c[inv[ref]]
    product = field.one
    for label in "abcd":
        product = field.mul(product, vals[label])
    return {
        "a": vals["a"], "b": vals["b"], "c": vals["c"], "d": vals["d"],
        "product": product,
        "singular": product == field.one,
        "arrow_map": amap,
    }


def tetrahedral_scaling(table1, table2):
    """Arrow scaling factors for the tetrahedral parameter-reduction map.

    For a tetrahedral algebra with parameters (a, b, c, d) and its
    companion with parameters (abcd, 1, 1, 1) on the same labeled quiver,
    the map fixing three arrow scalings per parameter sends one set of
    relations to the other.  Returns a dict arrow id -> scalar t such that
    arrow x maps to t x.
    """
    q1, q2 = table1.quiver, table2.quiver
    same = (q1.vertices == q2.vertices and q1.arrows == q2.arrows
            and q1.src == q2.src and q1.tgt == q2.tgt and q1.f == q2.f)
    if not same:
        raise ValueError("the two algebras must share one labeled quiver")
    params = tetrahedral_parameters(table1)
    field = table1.field
    a, b, c, d = params["a"], params["b"], params["c"], params["d"]
    bcd = field.mul(field.mul(b, c), d)
    inv = {ref: x for x, ref in params["arrow_map"].items()}
    scale = {x: field.one for x in q1.arrows}
    scale[inv["alpha"]] = d
    scale[inv["mu"]] = b
    scale[inv["nu"]] = c
    for ref in ("delta", "omega", "sigma"):
        scale[inv[ref]] = bcd
    return scale


def scaling_isomorphism_check(table1, table2, scale=None):
    """Verify the arrow-scaling map table2 -> table1 is an algebra isomorphism.

    Multiplicativity is checked on every pair of basis elements; linearity
    and bijectivity are immediate because each basis element maps to a
    nonzero multiple of itself.  Basis element j of table2 is t times the
    path of its arrows x, t the product of its ``chain`` scalar and the
    scale[x], so its image is t times that path in table1: a g-word, read
    off the g-word rule as t . ``word_element(first arrow, length)``.  An
    image that is 0, a word past table1's socle, fails the check and is
    named in the report.

    Args:
        table1: tetrahedral algebra with parameters (a, b, c, d).
        table2: algebra on the same labeled quiver, expected parameters
            (abcd, 1, 1, 1).
        scale: optional replacement scaling (dict arrow -> scalar); by
            default :func:`tetrahedral_scaling` is used.

    Returns:
        (ok, report) where report carries the scaling and any failing pair.
    """
    if scale is None:
        scale = tetrahedral_scaling(table1, table2)
    field = table1.field
    images = []
    for j in range(table2.dim):
        s0, arrows = table2.chain(j)
        t = s0
        for x in arrows:
            t = field.mul(t, scale[x])
        bj = table2.basis[j]
        if bj[0] == "e":
            img = table1.idempotent(bj[1])
        else:
            img = el_scale(field, t,
                           table1.word_element(arrows[0], len(arrows)))
        images.append(img)
        if not img:
            return False, {"scale": scale, "failure": {"basis": list(bj)}}
    failure = None
    for i in range(table2.dim):
        for j in range(table2.dim):
            lhs = {}
            for k, ck in table2.basis_product(i, j):
                field.axpy(lhs, images[k].items(), ck)
            rhs = table1.multiply(images[i], images[j])
            if lhs != rhs:
                failure = {"i": list(table2.basis[i]), "j": list(table2.basis[j])}
                break
        if failure:
            break
    return failure is None, {"scale": scale, "failure": failure}
