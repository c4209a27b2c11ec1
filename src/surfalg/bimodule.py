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
to be checked on generators.  A generator image sum (s2, u, v) sends the
basis tensor kx (x) ky to sum kx.u (x) v.ky, so the rows of a rank matrix
come from left products kx.u and right products v.ky, each computed once
per generator term and basis element.  The flat column of a basis tensor
of P_i is a left part (from kx) plus a right part (from ky), so each
product is turned into integer columns once, and a row is a sum of outer
sums of such columns.  The codomain A of d0 multiplies instead.  The rank
of d0 is read off its unit rows e_u (x) k -> k when they reach dim A.

Over Q the stage ranks are certified by ranks of the same rows reduced mod
a fixed prime, and computed in Fraction arithmetic only when that falls
short; see :func:`verify_bimodule_periodicity`.
"""

from .algebra import build_algebra, dual_basis, el_scale, reduced_presentation
from .linalg import rank_of_rows

# Primes for the modular rank certificate over Q, tried in this order: the
# two largest primes below 2**30.  A residue below 2**30 is one digit of a
# CPython int, so the F_p arithmetic of the certificate takes the
# interpreter's one-digit paths.  Any prime is as sound.
CERTIFICATE_PRIMES = (1073741789, 1073741783)


class Codomain:
    """Flat coordinates of tensors, split into a left and a right part.

    A codomain gives ``left_coords(s, x)`` and ``right_coords(s, y)`` for
    tensors x (x) y of summand s, and ``add_tensor(row, lc, rc)`` adds the
    tensor they came from to a flat row; ``dim`` is the number of flat
    columns.  Callers that meet the same left or right factor many times
    compute its part once.
    """

    def flatten(self, terms):
        """Flat coordinates of a list of (summand, left, right) tensors."""
        out = {}
        for s, x, y in terms:
            self.add_tensor(out, self.left_coords(s, x),
                            self.right_coords(s, y))
        return out


class BimoduleSpace(Codomain):
    """A direct sum of projective bimodules A e_i (x) e_j A.

    Basis tensor kx (x) ky of summand s sits at flat column ``offsets[s] +
    left_pos[s][kx] * len(right[s]) + right_pos[s][ky]``: a left part that
    depends on kx only plus a right part that depends on ky only.
    """

    def __init__(self, table, summands):
        self.table = table
        self.summands = list(summands)
        self.left = []
        self.right = []
        self.left_pos = []
        self.right_pos = []
        self.offsets = []
        off = 0
        for i, j in self.summands:
            lb = table.basis_of(target=i)
            rb = table.basis_of(source=j)
            self.left.append(lb)
            self.right.append(rb)
            self.left_pos.append({k: p for p, k in enumerate(lb)})
            self.right_pos.append({k: p for p, k in enumerate(rb)})
            self.offsets.append(off)
            off += len(lb) * len(rb)
        self.dim = off

    def left_coords(self, s, x):
        """(left part of the column, scalar) for each basis term of x."""
        base, nr, lpos = self.offsets[s], len(self.right[s]), self.left_pos[s]
        return [(base + lpos[k] * nr, c) for k, c in x.items()]

    def right_coords(self, s, y):
        """(right part of the column, scalar) for each basis term of y."""
        rpos = self.right_pos[s]
        return [(rpos[k], c) for k, c in y.items()]

    def add_tensor(self, row, lc, rc):
        """row += the tensor whose parts are lc and rc: an outer sum."""
        axpy = self.table.field.axpy
        for a, c in lc:
            axpy(row, [(a + b, d) for b, d in rc], c)


class AlgebraTarget(Codomain):
    """The algebra A as a codomain: a tensor x (x) y flattens to x . y.

    The product does not split into a left and a right column, so the
    parts are the factors themselves and ``add_tensor`` multiplies them.
    """

    def __init__(self, table):
        self.table = table
        self.dim = table.dim

    def left_coords(self, s, x):
        return x

    def right_coords(self, s, y):
        return y

    def add_tensor(self, row, x, y):
        field = self.table.field
        field.axpy(row, self.table.multiply(x, y).items(), field.one)


def block_rank(keyed_rows, field):
    """Rank of a matrix given as (block key, row) pairs, summed over blocks.

    A row is keyed by (u, w) = (s(kx), t(ky)) of the basis tensor
    kx (x) ky it is the image of (theta keys basis element k by
    (s(k), t(k))).  A bimodule map multiplies only on the inside, so the
    image is a sum of tensors kx.a (x) b.ky whose left factor still starts
    at u and whose right factor still ends at w; in A it is kx.a.b.ky in
    e_u A e_w.  Rows with different keys therefore have disjoint column
    supports: the matrix is block diagonal up to a permutation, and its
    rank is the sum of the block ranks.  Empty rows are dropped.
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
        """Flat image of a list of pure tensors (s, x, y) of the domain."""
        mul = self.table.multiply
        return self.codomain.flatten([
            (s2, mul(x, u), mul(v, y))
            for s, x, y in terms for s2, u, v in self.gen_images[s]])

    def rank(self):
        """Rank of the matrix whose rows are the images of basis tensors.

        The unit rows, images of e_i (x) ky with e_i the left idempotent
        of the summand, are some of the rows, so their rank bounds the
        rank from below; the number of columns, ``codomain.dim``, bounds
        it from above.  So when there are at least as many unit rows as
        columns, their rank is tried first, and if it reaches
        ``codomain.dim`` it is the rank.  Otherwise every row is used.
        This decides d0 (P0 -> A) from dim A rows: its unit rows
        e_u (x) k -> k, for k in e_u A, are the basis of A.  The other
        maps have far fewer unit rows than columns and skip the first try.
        """
        table, cols = self.table, self.codomain.dim
        dom = self.domain
        if sum(map(len, dom.right)) >= cols:
            units = [[table.index[("e", i)]] for i, _ in dom.summands]
            r = block_rank(self._keyed_rows(units), table.field)
            if r == cols:
                return r
        return block_rank(self._keyed_rows(dom.left), table.field)

    def _keyed_rows(self, lefts):
        """(block key, row) for the basis tensors kx (x) ky, kx in lefts[s].

        Term (s2, u, v) of generator s sends kx (x) ky to kx.u (x) v.ky.
        The right coordinates of v.ky are formed once per (term, ky) and
        the left coordinates of kx.u once per (kx, term); terms with
        kx.u = 0 are dropped, and a row is the sum over the remaining
        terms of the outer sums of the two columns.
        """
        table, cod = self.table, self.codomain
        mul, one = table.multiply, table.field.one
        for s, terms in enumerate(self.gen_images):
            right = self.domain.right[s]
            rcs = [[cod.right_coords(s2, mul(v, {ky: one})) for ky in right]
                   for s2, _, v in terms]
            for kx in lefts[s]:
                lcs = []
                for (s2, u, _), rc in zip(terms, rcs):
                    xu = mul({kx: one}, u)
                    if xu:
                        lcs.append((cod.left_coords(s2, xu), rc))
                if not lcs:
                    continue
                src = table.src_of[kx]
                for p, ky in enumerate(right):
                    row = {}
                    for lc, rc in lcs:
                        if rc[p]:
                            cod.add_tensor(row, lc, rc[p])
                    yield (src, table.tgt_of[ky]), row


def bimodule_spaces(table):
    """The four projective bimodules P0, P1, P2, P3 of the complex."""
    q = table.quiver
    p0 = BimoduleSpace(table, [(v, v) for v in q.vertices])
    p1 = BimoduleSpace(table, [(q.src[a], q.tgt[a]) for a in q.arrows])
    p2 = BimoduleSpace(table, [(q.src[a], q.tgt[q.f[a]]) for a in q.arrows])
    p3 = BimoduleSpace(table, [(v, v) for v in q.vertices])
    return p0, p1, p2, p3


def space_dims(table, spaces):
    """The report's dims: A, then P0..P3."""
    dims = {"algebra": table.dim}
    dims.update((f"P{i}", p.dim) for i, p in enumerate(spaces))
    return dims


def bimodule_dims(table):
    return space_dims(table, bimodule_spaces(table))


def rho(table, arrows, coeff):
    """The derivation-style lift of a path into P1.

    A path a_1 ... a_m maps to the sum over k of
    (a_1 ... a_{k-1}) (x) (a_{k+1} ... a_m) placed in the summand of a_k,
    with the empty prefix and suffix read as idempotents.
    """
    q = table.quiver
    sidx = {a: p for p, a in enumerate(q.arrows)}
    out = []
    for k, a in enumerate(arrows):
        if k == 0:
            x = {table.index[("e", q.src[a])]: coeff}
        else:
            x = table.element_from_path(arrows[:k], coeff)
        if not x:
            continue
        if k == len(arrows) - 1:
            y = table.idempotent(q.tgt[a])
        else:
            y = table.element_from_path(arrows[k + 1:])
        if y:
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
    gens = []
    for a in q.arrows:
        ab = q.bar[a]
        terms = rho(table, (a, q.f[a]), field.one)
        terms.extend(rho(table, table.word_arrows(ab, table.mn[ab] - 1),
                         field.neg(table.c[ab])))
        if table.kind == "deformed" and q.f[a] == a:
            bb = table.pres.b.get(q.src[a], field.zero)
            if bb != field.zero:
                terms.extend(rho(table, table.word_arrows(ab, table.mn[ab]),
                                 field.neg(bb)))
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

    Not a BimoduleMap (its domain is A): basis element k of e_v A goes to
    xi_v . k, and ``rank`` sums the block ranks of those rows.  The left
    coordinates of each term of xi_v are formed once per term.
    """
    field = table.field
    xis = {v: xi_element(table, v) for v in table.quiver.vertices}

    def rank():
        mul, one = table.multiply, field.one
        lcs = {v: [(s, p3.left_coords(s, x), y) for s, x, y in xi]
               for v, xi in xis.items()}

        def keyed_rows():
            for k in range(table.dim):
                row = {}
                for s, lc, y in lcs[table.src_of[k]]:
                    yk = mul(y, {k: one})
                    if yk:
                        p3.add_tensor(row, lc, p3.right_coords(s, yk))
                yield (table.src_of[k], table.tgt_of[k]), row

        return block_rank(keyed_rows(), field)

    return {"xis": xis, "rank": rank}


def _modular_ranks(table):
    """Stage rank callables over the table reduced mod a prime, or None.

    The prime is the first of CERTIFICATE_PRIMES for which
    :func:`reduced_presentation` exists; with none, or over F_p, there is
    no reduced table.  Each callable builds its map on first use through
    the module-level ``map_*`` names.  The theta callable returns None when
    the symmetrizing form degenerates mod p, so it never raises.
    """
    if table.field.char != 0:
        return None
    reductions = (reduced_presentation(table.pres, p)
                  for p in CERTIFICATE_PRIMES)
    pres = next((r for r in reductions if r is not None), None)
    if pres is None:
        return None
    mod = build_algebra(pres)
    p0, p1, p2, p3 = bimodule_spaces(mod)

    def theta():
        try:
            rank = map_theta(mod, p3)["rank"]
        except ValueError:
            return None
        return rank()

    return {"d0": lambda: map_d0(mod, p0).rank(),
            "d": lambda: map_d(mod, p0, p1).rank(),
            "R": lambda: map_R(mod, p1, p2).rank(),
            "S": lambda: map_S(mod, p2, p3).rank(),
            "theta": theta}


def verify_bimodule_periodicity(table):
    """Verify exactness of the period-four bimodule complex, stage by stage.

    Stages run in homological order with early exit: the surjection onto
    A, then each composite-zero and rank condition, and finally that the
    Casimir map theta identifies A with the kernel of S.  The report names
    the first failing stage, which distinguishes the singular tetrahedral
    algebras (not periodic) from all other weighted surface algebras.

    Over Q each stage rank is first taken mod a prime p (the first of
    CERTIFICATE_PRIMES that :func:`reduced_presentation` accepts), on the
    same rows built from the table reduced mod p.  The result is exact:

    * Upper bounds.  rank d0 <= dim A, its number of columns; rank theta
      <= dim A, its number of rows.  For d, R and S the composite with the
      previous map is checked to be zero exactly over Q (on generators,
      which suffices for bimodule maps), so the image lies in the kernel
      of the previous map and rank <= dim(codomain) - rank(previous),
      the previous rank being exact already.  With a nonzero composite
      there is no bound and the rank is computed over Q.
    * Lower bound.  The structure constants 1, c, 1/c, b/c are p-integral
      with p-units c, and the rows of every map are built from them by
      ring operations, so each row over Q is p-integral and reduces to the
      row over F_p.  The theta rows also use the dual basis; when the
      Gram matrix is invertible mod p (else the reduced dual basis raises
      and theta is computed over Q), its inverse over Q is p-integral and
      reduces to the inverse mod p.  A nonzero minor mod p lifts to a
      nonzero minor over Q, so rank over Q >= rank mod p.

    So a rank mod p that meets its upper bound is the exact rank over Q.
    A rank mod p that falls short is discarded, and the rank is computed
    over Q: a failing stage, such as exact_at_P1 for the singular
    tetrahedral algebras, always reports an exact rank.  The composite
    checks and the theta elements used by the composite and socle checks
    are always exact over Q.  Tables over F_p use their own field only.

    Raises:
        ValueError: unless the kind is weighted or deformed, or when a
            nonzero border function is used away from characteristic 2.
    """
    if table.kind not in ("weighted", "deformed"):
        raise ValueError(
            "bimodule periodicity requires kind 'weighted' or 'deformed'")
    q = table.quiver
    p0, p1, p2, p3 = bimodule_spaces(table)
    dims = space_dims(table, (p0, p1, p2, p3))
    maps = {"d0": map_d0(table, p0), "d": map_d(table, p0, p1),
            "R": map_R(table, p1, p2), "S": map_S(table, p2, p3)}
    modular = _modular_ranks(table)
    stages = []
    ranks = {}

    def rank(key, bound, exact):
        """The exact rank of a stage: mod p when that meets the bound."""
        if modular is not None and bound is not None \
                and modular[key]() == bound:
            return bound
        return exact()

    def report(ok):
        failing = None if ok else next(
            s["name"] for s in stages if not s["ok"])
        return {
            "dims": dims, "ranks": ranks, "stages": stages,
            "verdict": "PERIODIC_PERIOD_4" if ok else "NOT_VERIFIED",
            "failing_stage": failing,
        }

    ranks["d0"] = rank("d0", table.dim, maps["d0"].rank)
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
        ranks[key] = rank(key, expected if comp else None, maps[key].rank)
        stages.append({"name": name, "ok": comp and ranks[key] == expected,
                       "composite_zero": comp, "rank": ranks[key],
                       "expected": expected})
        if not stages[-1]["ok"]:
            return report(False)

    theta = map_theta(table, p3)
    comp = all(not maps["S"].apply_flat(theta["xis"][v]) for v in q.vertices)
    ranks["theta"] = rank("theta", table.dim, theta["rank"])
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
