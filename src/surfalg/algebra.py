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

Elements are stored in the monomial basis: one idempotent per vertex, the
g-words of each admissible length, and (except for ``string``) one socle
element per vertex.  An element is a sparse dict basis index -> nonzero
scalar, and all element arithmetic goes through the field's sparse-row
kernel ``field.axpy``.  The product of two basis elements is read off in
closed form, one lookup in the table of right products by an arrow and one
g-orbit test, at a cost that does not grow with the weight; all
computations are exact.  The
symmetrizing form is checked on the sparse Gram matrix, which has at most
two nonzero entries per row, at the socle partners of each basis element,
so the Gram matrix, its symmetry and its rank cost O(dim).
"""

from fractions import Fraction

from .fields import PrimeField, RationalField
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

    Raises:
        ValueError: for unknown kinds, non-positive weights, zero
            parameters, an orbit with m n < 3, a border function on a
            non-border vertex, or ``deformed`` on a quiver without border.
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
            if not isinstance(w, int) or w < 1:
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
                self.b[v] = val
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
        self.src_of = [self._src(b) for b in self.basis]
        self.tgt_of = [self._tgt(b) for b in self.basis]
        self.by_pair = {}
        for i in range(self.dim):
            self.by_pair.setdefault((self.src_of[i], self.tgt_of[i]), []).append(i)
        self.right = {}
        self._build_right_table()
        self._bp = {}
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

        The product is read off in closed form, at a cost independent of
        the weights, not walked arrow by arrow.  Why this equals ``_walk``
        on the word of b_j (the oracle of the tests):

        * an idempotent factor gives the other factor, and a socle factor
          next to any non-idempotent gives 0: no arrow extends the socle
          on the right, and a word times the full cycle of s_v would pass
          length mn;
        * otherwise b_i is a word and b_j = w(a, l).  One lookup of
          ``right[(i, a)]`` gives at most two terms (the g- or the
          f-extension of b_i by a).  Every word term has length at least
          2, because b_i has length at least 1 and an f-extension gives
          w(abar, mn - 1) with mn >= 3.  The right table extends a word of
          length k >= 2 only along g, by its g-successor g^k(y), so a term
          w(y, k) meets the next arrow g(a) only if g^k(y) = g(a), and then
          every further arrow of b_j is again the g-successor.  The term
          grows to length L = k + l - 1: a word while L <= mn - top, at
          L = mn the socle times c_y^-1 (one extension past the last word,
          except for ``string``, which stops there), and 0 beyond.  A socle
          term is killed by any further arrow, so it survives only when
          l = 1.
        """
        key = (i, j)
        cached = self._bp.get(key)
        if cached is not None:
            return cached
        field = self.field
        bi, bj = self.basis[i], self.basis[j]
        if self.tgt_of[i] != self.src_of[j]:
            result = ()
        elif bj[0] == "e":
            result = ((i, field.one),)
        elif bi[0] == "e":
            result = ((j, field.one),)
        elif bi[0] == "s" or bj[0] == "s":
            result = ()
        else:
            a, length = bj[1], bj[2]
            terms = self.right.get((i, a), ())
            if length > 1:
                terms = [self._continue(t, a, length) for t in terms]
                terms = [t for t in terms if t is not None]
            result = tuple(sorted(terms))
        self._bp[key] = result
        return result

    def _continue(self, term, a, length):
        """A term of b_i a times g(a) ... g^(length-1)(a), or None for 0."""
        k, cf = term
        bk = self.basis[k]
        if bk[0] != "w":
            return None
        y, total = bk[1], bk[2] + length - 1
        if self.gd.g_power(y, bk[2]) != self.gd.g[a]:
            return None
        mn = self.mn[y]
        if total <= mn - self.top:
            return self.index[("w", y, total)], cf
        if total == mn and self.kind != "string":
            soc = self.index[("s", self.quiver.src[y])]
            return soc, self.field.mul(cf, self.c_inv[y])
        return None

    def _walk(self, cur, arrows):
        """The element cur multiplied on the right by each arrow in turn."""
        field = self.field
        for a in arrows:
            nxt = {}
            for k, cf in cur.items():
                field.axpy(nxt, self.right.get((k, a), ()), cf)
            cur = nxt
            if not cur:
                break
        return cur

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
        """The g-word of the given length starting at a; length 0 gives e."""
        if length == 0:
            return self.idempotent(self.quiver.src[a])
        return {self.index[("w", a, length)]: self.field.one}

    def socle_element(self, v):
        return {self.index[("s", v)]: self.field.one}

    def element_from_path(self, arrows, coeff=None):
        """Evaluate a path (sequence of composable arrows) in the algebra."""
        coeff = self.field.one if coeff is None else coeff
        if not arrows:
            raise ValueError("empty path has no source idempotent")
        start = self.index[("e", self.quiver.src[arrows[0]])]
        return self._walk({start: coeff}, arrows)

    def basis_of(self, source=None, target=None):
        """Indices of basis elements with the given source and/or target."""
        out = []
        for i in range(self.dim):
            if source is not None and self.src_of[i] != source:
                continue
            if target is not None and self.tgt_of[i] != target:
                continue
            out.append(i)
        return out


def build_algebra(pres):
    """Build the multiplication table of a presentation."""
    return AlgebraTable(pres)


def reduced_presentation(pres, p):
    """A presentation over Q with its parameters and border reduced mod p.

    Returns the same quiver, kind and weights over F_p, with each
    parameter c sent to c mod p and each border value b to b mod p.
    Returns None unless every c is a p-unit and no denominator of a c or
    a b is divisible by p.  The structure constants of the table are 1, c,
    1/c and b/c (see ``AlgebraTable._build_right_table``), so they then lie
    in the local ring Z_(p), and everything built from them by ring
    operations over Q is p-integral and reduces mod p to what the same
    construction gives over F_p.

    Raises:
        ValueError: unless the presentation is over Q.
    """
    if pres.field.char != 0:
        raise ValueError("only presentations over Q are reduced mod p")

    def mod_p(x):
        x = Fraction(x)
        if x.denominator % p == 0:
            return None
        return x.numerator * pow(x.denominator, -1, p) % p

    c = {rep: mod_p(val) for rep, val in pres.c.items()}
    b = {v: mod_p(val) for v, val in pres.b.items()}
    # a c that is None (p divides its denominator) or 0 is no p-unit
    if not all(c.values()) or None in b.values():
        return None
    return Presentation(pres.quiver, kind=pres.kind, field=PrimeField(p),
                        m=pres.m, c=c, b=b or None)


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
    mat = [[len(table.by_pair.get((u, v), ())) for v in verts] for u in verts]
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
    nonzero multiple of itself.

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
            img = table1.element_from_path(arrows, t)
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
