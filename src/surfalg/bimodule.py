"""The algebra as a bimodule over itself: the period-four projective complex.

For a weighted (or socle-deformed) surface algebra A, the complex

    A --theta--> P3 --S--> P2 --R--> P1 --d--> P0 --d0--> A --> 0

of projective bimodules has P0 and P3 a sum of one summand A e_i (x) e_i A
per vertex, P1 one summand A e_s(a) (x) e_t(a) A per arrow a, and P2 one
summand A e_s(a) (x) e_t(f(a)) A per arrow.  Exactness of the whole
complex, verified here by exact rank computations block by block, shows
the fourth syzygy of A over its enveloping algebra is A again.

Elements of a projective bimodule are stored as lists of pure tensors
(summand, left element, right element); maps are given on the summand
generators e (x) e and extended bilinearly, so composites only ever need
to be checked on generators.  A generator image sum over terms
t = (s2, u_t, v_t) sends the basis tensor kx (x) ky to the sum of
kx.u_t (x) v_t.ky, so a rank matrix row is built from the nonzero
one-sided products alone, listed in closed form per generator term
(:func:`side_products`).  A codomain says how a pair (left part, right
part) becomes flat columns: in P_i the one column left part + right part,
in A (the codomain of d0) the terms of the basis product.  The unit rows
e_i (x) ky give the rank of d0 (e_u (x) k -> k, the basis of A) and all of
theta: e_v (x) k -> xi_v . k is theta's row at k (:func:`map_theta`).

Each P_i is a projective right A-module, so by Nakayama's lemma a passing
stage is decided on the top complex X (x)_A A/J, J the radical: a summand
A e_i (x) e_j A has one top basis tensor kx (x) e_j per kx in A e_i, so the
top complex has dimensions n, dim A, 2 dim A, 2 dim A, dim A, n.  One
generator builds the rows of both, over the right basis e_j A or, for
the top, e_j alone; full-size rows are built only for a stage the top
complex does not certify (:func:`verify_bimodule_periodicity`).
"""

from bisect import bisect_left
from itertools import product

from .algebra import dual_basis, el_scale
from .linalg import rank_of_rows


class Codomain:
    """Flat coordinates of tensors, split into a left and a right part.

    Basis element k of a left (right) factor of summand s has the part
    ``left_parts(s)[k]`` (``right_parts(s)[k]``); ``add_tensor(row, lc,
    rc)`` adds to a flat row the sum of a.b (lp (x) rp) over (lp, a) in lc
    and (rp, b) in rc, and ``dim`` counts the flat columns.  Codomains
    differ only in how a pair of parts becomes columns: the column
    lp + rp, or, where ``product`` is set, the terms of ``product(lp,
    rp)``.  So the rank rows and the composites of every map come from
    one loop each.
    """

    def top(self, rows):
        """The parts of rows of kx (x) e_j that lie in the top complex:
        all of them, as a top row is built from the right part of e_j only
        and the k (x) e_j are basis vectors of P (x)_A A/J."""
        return rows

    product = None

    def flatten(self, terms):
        """Flat coordinates of a list of (summand, left, right) tensors."""
        out = {}
        for s, x, y in terms:
            if not (x and y):
                continue
            lp, rp = self.left_parts(s), self.right_parts(s)
            self.add_tensor(out, [(lp[k], c) for k, c in x.items()],
                            [(rp[k], c) for k, c in y.items()])
        return out


class BimoduleSpace(Codomain):
    """A direct sum of projective bimodules A e_i (x) e_j A.

    Basis tensor kx (x) ky of summand s sits at flat column
    ``left_part[s][kx] + right_pos[s][ky]``: the left part ``offsets[s] +
    (position of kx) * len(right[s])`` plus the position of ky.
    """

    def __init__(self, table, summands):
        self.table = table
        self.summands = list(summands)
        self.left = []
        self.right = []
        self.left_part = []
        self.right_pos = []
        self.offsets = []
        off = 0
        for i, j in self.summands:
            lb = table.basis_of(target=i)
            rb = table.basis_of(source=j)
            self.left.append(lb)
            self.right.append(rb)
            self.left_part.append(
                {k: off + p * len(rb) for p, k in enumerate(lb)})
            self.right_pos.append({k: p for p, k in enumerate(rb)})
            self.offsets.append(off)
            off += len(lb) * len(rb)
        self.dim = off
        # dim P (x)_A A/J: one kx (x) e_j per left basis element kx
        self.top_dim = sum(map(len, self.left))

    def left_parts(self, s):
        return self.left_part[s]

    def right_parts(self, s):
        return self.right_pos[s]

    def add_tensor(self, row, lc, rc):
        """row += the tensor whose parts are lc and rc: an outer sum.

        A monomial, one part on each side, is one column, added in place
        as ``field.axpy`` would add it."""
        field = self.table.field
        if len(lc) == 1 == len(rc):
            (a, c), = lc
            (b, d), = rc
            col, w = a + b, c * d
            old = row.get(col)
            if old is not None:
                w += old
            if field.char:
                w %= field.char
            if w:
                row[col] = w
            elif old is not None:
                del row[col]
            return
        for a, c in lc:
            field.axpy(row, [(a + b, d) for b, d in rc], c)


class AlgebraTarget(Codomain):
    """The algebra A as a codomain: a tensor x (x) y flattens to x . y.

    The product does not split into a left and a right column, so the
    parts are the basis indices themselves, and a pair (i, j) of parts
    becomes the terms of ``basis_product(i, j)``.
    """

    def __init__(self, table):
        self.table = table
        self.product = table.basis_product
        self.dim = table.dim
        # dim A/J: one idempotent per vertex
        self.top_dim = len(table.quiver.vertices)

    def left_parts(self, s):
        return range(self.dim)

    right_parts = left_parts

    def top(self, rows):
        """The images of rows in A/J: their idempotent columns."""
        words = self.table.first_word
        return [{k: c for k, c in row.items() if k < words} for row in rows]

    def add_tensor(self, row, lc, rc):
        """row += the sum of a.b.(b_i . b_j) over (i, a) in lc, (j, b) in
        rc; an idempotent factor gives the other factor, with no call."""
        t = self.table
        field, words, one = t.field, t.first_word, t.field.one
        for i, a in lc:
            for j, b in rc:
                if t.tgt_of[i] == t.src_of[j]:
                    field.axpy(row, ((i, one),) if j < words else ((j, one),)
                               if i < words else t.basis_product(i, j),
                               field.mul(a, b))


def side_products(table, basis, x, parts, left):
    """(position of k in ascending ``basis``, [(parts[m], scalar)]) for
    each k with k.x (``left``) or x.k nonzero, listing that product.

    Only nonzero products are formed.  Several terms of x are summed per
    k in the order of x, as ``multiply`` sums them.  A one-term x = c.b_j
    lists its products in closed form (:meth:`AlgebraTable.products_by`),
    found in ``basis`` by bisection, except two that read ``basis``
    itself: b_j = e_v gives c.k for each k that ends (``left``) or starts
    at v; and on the left an arrow b_j = a gives the right table's entry
    at (k, a), which about half the k ending at s(a) have, so one lookup
    per k costs less than listing them.
    """
    field = table.field
    if len(x) != 1:
        acc = {}
        for j, c in x.items():
            for p, terms in side_products(table, basis, {j: c}, parts, left):
                field.axpy(acc.setdefault(p, {}), terms, field.one)
        return [(p, list(acc[p].items())) for p in sorted(acc) if acc[p]]
    (j, c), = x.items()
    bj = table.basis[j]
    if bj[0] == "e":
        ends = table.tgt_of if left else table.src_of
        return [(p, [(parts[k], c)]) for p, k in enumerate(basis)
                if ends[k] == bj[1]]
    if left and bj[0] == "w" and bj[2] == 1:
        right, a = table.right, bj[1]
        found = enumerate(right.get((k, a)) for k in basis)
    else:
        found = _in_basis(basis, table.products_by(j, left))
    mul = field.mul
    return [(p, [(parts[m], e) for m, e in prod] if c == field.one
             else [(parts[m], mul(c, e)) for m, e in prod])
            for p, prod in found if prod]


def _in_basis(basis, prods):
    """(position in ``basis``, terms) for each (k, terms) of ``prods`` with
    k in ``basis``; both ascending in k."""
    p, n = 0, len(basis)
    for k, terms in prods:
        p = bisect_left(basis, k, p)
        if p == n:
            return
        if basis[p] == k:
            yield p, terms


def block_rank(keyed_rows, field):
    """Rank of a matrix given as (block key, row) pairs, summed over blocks.

    A row is keyed by (u, w) = (s(kx), t(ky)) of the basis tensor kx (x) ky
    it is the image of.  A bimodule map multiplies only on the inside, so
    the image is a sum of tensors kx.a (x) b.ky whose factors still start
    at u and end at w (in A, kx.a.b.ky lies in e_u A e_w).  Rows with
    different keys have disjoint supports, so the rank is the sum of the
    block ranks.  Empty rows are dropped.
    """
    blocks = {}
    for key, row in keyed_rows:
        if row:
            blocks.setdefault(key, []).append(row)
    return sum(rank_of_rows(rows, field) for rows in blocks.values())


class BimoduleMap:
    """A bimodule homomorphism, given by the images of summand generators.

    ``gen_images[s]`` is the image of e (x) e of summand s, a list of pure
    tensors (s2, u, v) in the codomain.  The codomain is a
    :class:`Codomain`: a BimoduleSpace, or A as AlgebraTarget.
    """

    def __init__(self, domain, codomain, gen_images):
        self.domain = domain
        self.codomain = codomain
        self.gen_images = gen_images
        self.table = domain.table

    def apply_flat(self, terms):
        """Flat image of a list of pure tensors (s, x, y) of the domain.

        It is ``codomain.flatten`` of x.u (x) v.y over the terms (s2, u, v)
        of each generator image, in one pass.  One-term factors a.b_i and
        c.b_j give (a c) times b_i b_j in the closed form of
        ``basis_product``, with no call where that is one step: an
        idempotent factor gives the other (once b_i ends where b_j starts),
        and an arrow b_j the right table's entry at (i, b_j).  Other
        products come from ``multiply``.  Generator terms are unpacked once
        per call.  Each pair of terms of x.u and v.y adds its scalar at its
        columns (as in :class:`Codomain`) at once, in ``flatten``'s order,
        so the dict is the same, order included.  v.y is not formed when
        x.u = 0.
        """
        table, cod = self.table, self.codomain
        bp, multiply, right_table = table.basis_product, table.multiply, \
            table.right
        basis, src_of, tgt_of = table.basis, table.src_of, table.tgt_of
        words, one = table.first_word, table.field.one
        axpy, p = table.field.axpy, table.field.char
        prod = cod.product
        gens = {}
        out = {}
        get = out.get
        for s, x, y in terms:
            (i, a), = x.items() if len(x) == 1 else ((None, None),)
            (k, b), = y.items() if len(y) == 1 else ((None, None),)
            gen = gens.get(s)
            if gen is None:
                gen = gens[s] = []
                for s2, u, v in self.gen_images[s]:
                    (j, c), = u.items() if len(u) == 1 else ((None, None),)
                    (jv, cv), = v.items() if len(v) == 1 else ((None, None),)
                    arrow = basis[j][1] if j is not None and \
                        basis[j][0] == "w" and basis[j][2] == 1 else None
                    gen.append((u, j, c, arrow, v, jv, cv,
                                cod.left_parts(s2), cod.right_parts(s2)))
            for u, j, c, arrow, v, jv, cv, lp, rp in gen:
                if i is None or j is None:
                    left, sc = multiply(x, u).items(), 1
                else:
                    sc = a * c
                    if arrow is not None:
                        left = right_table.get((i, arrow))
                    elif tgt_of[i] != src_of[j]:
                        continue
                    else:
                        left = ((i, one),) if j < words else \
                            ((j, one),) if i < words else bp(i, j)
                if not left:
                    continue
                if k is None or jv is None:
                    right = multiply(v, y).items()
                elif tgt_of[jv] != src_of[k]:
                    continue
                else:
                    sc = sc * cv * b
                    right = ((jv, one),) if k < words else \
                        ((k, one),) if jv < words else bp(jv, k)
                for m1, e1 in left:
                    e1 *= sc
                    at = lp[m1]
                    for m2, e2 in right:
                        w = e1 * e2
                        if prod is not None:
                            axpy(out, prod(at, rp[m2]), w)
                            continue
                        col = at + rp[m2]
                        old = get(col)
                        if old is not None:
                            w += old
                        if p:
                            w %= p
                        if w:
                            out[col] = w
                        elif old is not None:
                            del out[col]
        return out

    def unit_rank(self, top=False):
        """Rank of the unit rows, the images of e_i (x) ky, for e_i the
        left idempotent of each summand and every ky; with ``top``, of
        their top rows, the images of e_i (x) e_j in the top complex."""
        table = self.table
        units = [[table.index[("e", i)]] for i, _ in self.domain.summands]
        return block_rank(self._keyed_rows(units, top), table.field)

    def rank(self, top=False):
        """Rank of the matrix whose rows are the images of basis tensors;
        with ``top``, of the top map f (x) A/J, one row per kx (x) e_j.

        The unit rows (:meth:`unit_rank`) are some of the rows, and the
        columns, ``codomain.dim`` (``top_dim`` with ``top``), bound the
        rank.  So with at least as many unit rows as columns their rank is
        tried first and is the rank if it reaches the column count; else
        every row is used.  This decides d0 (P0 -> A) from its unit rows
        e_u (x) k -> k, the basis of A, and its top map from its n unit
        top rows e_u (x) e_u -> e_u.  The other maps have far fewer unit
        rows than columns.
        """
        dom, cod = self.domain, self.codomain
        if top:
            units, cols = len(dom.summands), cod.top_dim
        else:
            units, cols = sum(map(len, dom.right)), cod.dim
        if units >= cols:
            r = self.unit_rank(top)
            if r == cols:
                return r
        return block_rank(self._keyed_rows(dom.left, top), self.table.field)

    def _keyed_rows(self, lefts, top=False):
        """(block key, row) for the basis tensors kx (x) ky, kx in lefts[s].

        ky runs over a right basis of summand s: its whole right factor
        ``domain.right[s]``, or with ``top`` its right idempotent e_j
        alone.  Term t = (s2, u_t, v_t) of generator s sends kx (x) ky to
        kx.u_t (x) v_t.ky, so per term the nonzero v_t.ky and kx.u_t are
        listed (:func:`side_products`) and each pair is added to its own
        row by one ``codomain.add_tensor``.  Terms are taken in order, so
        each row is the same sum, in the same order, as term by term, and
        the work follows the nonzero products.  Every (kx, ky) gives a
        row, empty or not, keyed (s(kx), t(ky)) as in :func:`block_rank`.

        The top map sends kx (x) e_j to the sum over t of top(v_t) .
        (kx.u_t (x) e_j), top(v) the coefficient c of e_j in v, as the
        radical terms of v_t lie in P J.  So with ``top`` the one right
        product of term t is c.e_j, and a term without it adds nothing;
        into A the rows are then cut to their idempotent columns
        (:meth:`Codomain.top`).
        """
        table, cod = self.table, self.codomain
        src_of, tgt_of = table.src_of, table.tgt_of
        add = cod.add_tensor
        for s, terms in enumerate(self.gen_images):
            left = lefts[s]
            if top:
                e = table.index[("e", self.domain.summands[s][1])]
                right = [e]
            else:
                right = self.domain.right[s]
            n = len(right)
            rows = [{} for _ in range(len(left) * n)]
            for s2, u, v in terms:
                if top:
                    c = v.get(e)
                    if c is None:
                        continue
                    rcs = [(0, [(cod.right_parts(s2)[e], c)])]
                else:
                    rcs = side_products(table, right, v, cod.right_parts(s2),
                                        False)
                    if not rcs:
                        continue
                lcs = side_products(table, left, u, cod.left_parts(s2), True)
                for q, rc in rcs:
                    for p, lc in lcs:
                        add(rows[p * n + q], lc, rc)
            keys = product([src_of[kx] for kx in left],
                           [tgt_of[ky] for ky in right])
            yield from zip(keys, cod.top(rows) if top else rows)


def _summands(q):
    """The summands (i, j), for A e_i (x) e_j A, of P0, P1, P2 and P3."""
    return ([(v, v) for v in q.vertices],
            [(q.src[a], q.tgt[a]) for a in q.arrows],
            [(q.src[a], q.tgt[q.f[a]]) for a in q.arrows],
            [(v, v) for v in q.vertices])


def bimodule_spaces(table):
    """The four projective bimodules P0, P1, P2, P3 of the complex."""
    return tuple(BimoduleSpace(table, s) for s in _summands(table.quiver))


def bimodule_dims(table):
    """The report's dims, A then P0..P3, without building the spaces: a
    summand (i, j) has dim(A e_i) . dim(e_j A) basis tensors."""
    left = {v: len(table.basis_of(target=v)) for v in table.quiver.vertices}
    right = {v: len(table.basis_of(source=v)) for v in table.quiver.vertices}
    dims = {"algebra": table.dim}
    dims.update((f"P{n}", sum(left[i] * right[j] for i, j in s))
                for n, s in enumerate(_summands(table.quiver)))
    return dims


def rho(table, arrows, coeff, sidx):
    """The derivation-style lift of a relation path into P1.

    A path a_1 ... a_m maps to the sum over k of coeff . (a_1 ... a_{k-1})
    (x) (a_{k+1} ... a_m) in the summand ``sidx[a_k]``, an empty prefix or
    suffix read as an idempotent.  The paths lifted (:func:`map_R`) are
    (a, f(a)), A_abar and, for ``deformed``, B_abar; each prefix and suffix
    of them is empty, an arrow or a g-subword of length at most mn - 1, so
    it is one ``word_element`` lookup (the g-word rule), never 0 in the
    ``weighted`` and ``deformed`` kinds the complex is built for.
    """
    field = table.field
    last = len(arrows) - 1
    out = []
    for k, a in enumerate(arrows):
        x = el_scale(field, coeff, table.word_element(arrows[0], k))
        if k < last:
            y = table.word_element(arrows[k + 1], last - k)
        else:
            y = table.idempotent(table.quiver.tgt[a])
        out.append((sidx[a], x, y))
    return out


def map_d0(table, p0):
    """P0 -> A, e (x) e of summand i to e_i . e_i = e_i."""
    es = [table.idempotent(v) for v in table.quiver.vertices]
    return BimoduleMap(p0, AlgebraTarget(table), [[(None, e, e)] for e in es])


def map_d(table, p0, p1):
    """P1 -> P0, the universal derivation a -> a (x) e - e (x) a."""
    q = table.quiver
    field = table.field
    vidx = {v: p for p, v in enumerate(q.vertices)}
    gens = []
    for a in q.arrows:
        gens.append([
            (vidx[q.tgt[a]], table.arrow_element(a), table.idempotent(q.tgt[a])),
            (vidx[q.src[a]],
             el_scale(field, field.neg(field.one), table.idempotent(q.src[a])),
             table.arrow_element(a)),
        ])
    return BimoduleMap(p1, p0, gens)


def map_R(table, p1, p2):
    """P2 -> P1, lifting the commutation relations through rho."""
    q = table.quiver
    field = table.field
    sidx = {a: p for p, a in enumerate(q.arrows)}
    gens = []
    for a in q.arrows:
        ab = q.bar[a]
        terms = rho(table, (a, q.f[a]), field.one, sidx)
        terms.extend(rho(table, table.word_arrows(ab, table.mn[ab] - 1),
                         field.neg(table.c[ab]), sidx))
        if table.kind == "deformed" and q.f[a] == a:
            bb = table.pres.b.get(q.src[a], field.zero)
            if bb != field.zero:
                terms.extend(rho(table, table.word_arrows(ab, table.mn[ab]),
                                 field.neg(bb), sidx))
        gens.append(terms)
    return BimoduleMap(p2, p1, gens)


def map_S(table, p2, p3):
    """P3 -> P2, the socle-level map pairing each vertex's two arrows.

    With a nonzero border function this needs characteristic 2 (the
    correction terms of the border loops only square to zero there).
    """
    q = table.quiver
    field = table.field
    if table.kind == "deformed":
        if any(b != field.zero for b in table.pres.b.values()) \
                and field.char != 2:
            raise ValueError(
                "nonzero border function requires characteristic 2")
    sidx = {a: p for p, a in enumerate(q.arrows)}
    f = q.f
    gens = []
    for v in q.vertices:
        al, ab = q.out_arrows(v)
        terms = [
            (sidx[al], table.idempotent(v), table.arrow_element(f[f[al]])),
            (sidx[ab], table.idempotent(v), table.arrow_element(f[f[ab]])),
            (sidx[f[al]],
             el_scale(field, field.neg(field.one), table.arrow_element(al)),
             table.idempotent(q.src[al])),
            (sidx[f[ab]],
             el_scale(field, field.neg(field.one), table.arrow_element(ab)),
             table.idempotent(q.src[ab])),
        ]
        if table.kind == "deformed" and v in table.pres.b:
            bb = table.pres.b[v]
            if bb != field.zero:
                loop = al if f[al] == al else ab
                lam = field.mul(bb, field.inv(table.c[loop]))
                le = table.arrow_element(loop)
                powers = [table.idempotent(v), le]
                for _ in range(2):
                    powers.append(table.multiply(powers[-1], le))
                lam_k = lam
                for k in (1, 2, 3):
                    terms.append((sidx[loop], el_scale(field, lam_k, le),
                                  powers[k]))
                    if k < 3:
                        terms.append((sidx[loop],
                                      el_scale(field, lam_k,
                                               table.idempotent(v)),
                                      powers[k + 1]))
                    lam_k = field.mul(lam_k, lam)
        gens.append([t for t in terms if t[1] and t[2]])
    return BimoduleMap(p3, p2, gens)


def xi_element(table, v):
    """The Casimir-style element xi_v = sum b (x) b* over the basis of e_v A."""
    dual = dual_basis(table)
    vidx = {w: p for p, w in enumerate(table.quiver.vertices)}
    field = table.field
    terms = []
    for k in table.basis_of(source=v):
        terms.append((vidx[table.tgt_of[k]], {k: field.one}, dual[k]))
    return terms


def map_theta(table, p3):
    """A -> P3, e_v to xi_v; its image is the kernel of S.

    Basis element k of e_v A goes to xi_v . k, the sum of b (x) b*.k over
    the terms of xi_v.  That is the unit row e_v (x) k of the bimodule map
    P3 -> P3 sending the generator of summand v to xi_v (P3 and P0 are the
    same bimodule): e_v . b = b for every b in e_v A.  So ``rank`` is that
    map's :meth:`BimoduleMap.unit_rank`, one row per basis element of A,
    and ``rank(top=True)`` the rank of theta (x) A/J, whose row at e_v is
    the sum of top(b*) . (b (x) e_v).
    """
    xis = {v: xi_element(table, v) for v in table.quiver.vertices}
    casimir = BimoduleMap(p3, p3, [xis[v] for v in table.quiver.vertices])
    return {"xis": xis, "rank": casimir.unit_rank}


def verify_bimodule_periodicity(table):
    """Verify exactness of the period-four bimodule complex, stage by stage.

    Stages run in homological order with early exit: the surjection onto
    A, then each composite-zero and rank condition, and finally that the
    Casimir map theta identifies A with the kernel of S.  The report names
    the first failing stage, which distinguishes the singular tetrahedral
    algebras (not periodic) from all other weighted surface algebras.

    Each stage is first decided on the top complex Xbar = X (x)_A A/J of
    the complex X: 0 -> A -> P3 -> P2 -> P1 -> P0 -> A -> 0, and its rank
    is built from full-size rows only when Xbar does not certify it.  The
    certificate is exact:

    * J.  The words and socle elements, the basis elements that are not
      idempotents, span a two-sided ideal I: no product of two of them
      has an idempotent term, and I is nilpotent (every relation lies in
      the square of the arrow ideal, as ``Presentation`` asks mn >= 3).
      So I lies in J, and A/I = K^n is semisimple, so J lies in I: J = I,
      and top(a), the idempotent part of a, is the image of a in A/J.
    * Xbar.  P (x)_A A/J has basis kx (x) e_j, kx in the left factor
      A e_i of a summand and e_j its right idempotent, and f (x) A/J
      sends kx (x) e_j to the sum over terms t of top(v_t) . (kx.u_t (x)
      e_j); into A it is top(kx.u_t.v_t) (:meth:`BimoduleMap._keyed_rows`
      with ``top``).
      theta (x) A/J sends e_v to the sum of top(b*) . (b (x) e_v).
    * Lemma.  X is a bounded complex of finitely generated projective
      right A-modules, and its composites d0 d, d R, R S and S theta are
      checked to be zero exactly, on generators (which suffices for
      bimodule maps).  Let X be exact at the positions before a stage's
      and Xbar exact there and at the stage's own.  The rightmost
      remaining map onto the kernel before it is onto by Nakayama, so it
      splits, its kernel is a projective summand, and the truncated
      complex has the same Xbar homology: X is exact at the stage.
      Conversely, an exact bounded complex of projectives splits, so it
      stays exact after (x) A/J.  So the top certificate of a stage
      fails exactly when the stage itself fails.

    So a stage whose composite is zero and whose top rank is dim Pbar
    minus the rank of the previous top map has the rank expected of it,
    dim P minus the rank of the previous map; for d0 the top rank n
    (onto A/J) gives rank dim A (onto A).  theta is certified when
    S theta = 0, Xbar is exact at Pbar3 (dim Pbar3 - rank Sbar = n) and
    thetabar is injective (rank n); then rank theta = dim A.  A stage
    whose certificate fails gets its rank from the full-size rows over
    the table's own field, as reported, and no later stage uses the
    certificate.  The composite checks and the socle check always use
    the full maps.

    Raises:
        ValueError: unless the kind is weighted or deformed, or when a
            nonzero border function is used away from characteristic 2.
    """
    if table.kind not in ("weighted", "deformed"):
        raise ValueError(
            "bimodule periodicity requires kind 'weighted' or 'deformed'")
    q = table.quiver
    n = len(q.vertices)
    p0, p1, p2, p3 = bimodule_spaces(table)
    dims = bimodule_dims(table)
    maps = {"d0": map_d0(table, p0), "d": map_d(table, p0, p1),
            "R": map_R(table, p1, p2), "S": map_S(table, p2, p3)}
    stages = []
    ranks = {}
    # ranks of the top maps, one per certified stage; a stage whose
    # previous stage is not here is not certified
    top = {}

    def rank(key, top_expected, expected, full):
        """``expected`` if the top rank is ``top_expected``, else the rank
        of the full-size rows; with ``top_expected`` None, no certificate."""
        if top_expected is not None and full(top=True) == top_expected:
            top[key] = top_expected
            return expected
        return full()

    def report(ok):
        failing = None if ok else next(
            s["name"] for s in stages if not s["ok"])
        return {
            "dims": dims, "ranks": ranks, "stages": stages,
            "verdict": "PERIODIC_PERIOD_4" if ok else "NOT_VERIFIED",
            "failing_stage": failing,
        }

    ranks["d0"] = rank("d0", n, table.dim, maps["d0"].rank)
    stages.append({"name": "d0_surjective", "ok": ranks["d0"] == table.dim,
                   "rank": ranks["d0"], "expected": table.dim})
    if not stages[-1]["ok"]:
        return report(False)

    # Past d0, ranks["d0"] == dim A, so the expected rank of d is
    # dim P0 - dim A.
    for name, prev, key, space in (("exact_at_P0", "d0", "d", p0),
                                   ("exact_at_P1", "d", "R", p1),
                                   ("exact_at_P2", "R", "S", p2)):
        comp = all(not maps[prev].apply_flat(img)
                   for img in maps[key].gen_images)
        expected = space.dim - ranks[prev]
        top_expected = (space.top_dim - top[prev]
                        if comp and prev in top else None)
        ranks[key] = rank(key, top_expected, expected, maps[key].rank)
        stages.append({"name": name, "ok": comp and ranks[key] == expected,
                       "composite_zero": comp, "rank": ranks[key],
                       "expected": expected})
        if not stages[-1]["ok"]:
            return report(False)

    theta = map_theta(table, p3)
    comp = all(not maps["S"].apply_flat(theta["xis"][v]) for v in q.vertices)
    exact_at_p3 = top.get("S") == p3.top_dim - n
    ranks["theta"] = rank("theta", n if comp and exact_at_p3 else None,
                          table.dim, theta["rank"])
    kernel_dim = p3.dim - ranks["S"]
    socle_seen = all(
        p3.flatten([(s, x, table.multiply(y, table.socle_element(v)))
                    for s, x, y in theta["xis"][v]])
        for v in q.vertices
    )
    ok = (comp and ranks["theta"] == table.dim
          and kernel_dim == table.dim and socle_seen)
    stages.append({"name": "kernel_of_S_is_the_algebra", "ok": ok,
                   "composite_zero": comp, "rank": ranks["theta"],
                   "kernel_dim": kernel_dim,
                   "socle_faithful": socle_seen})
    return report(ok)
