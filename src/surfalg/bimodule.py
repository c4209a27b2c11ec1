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
to be checked on generators.
"""

from .algebra import dual_basis, el_scale
from .linalg import axpy, rank_of_rows


class BimoduleSpace:
    """A direct sum of projective bimodules A e_i (x) e_j A."""

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

    def flatten(self, terms):
        """Flat coordinates of a list of (summand, left, right) tensors.

        Basis tensor kx (x) ky of summand s sits at ``offsets[s] +
        left_pos[s][kx] * len(right[s]) + right_pos[s][ky]``.
        """
        field = self.table.field
        out = {}
        for s, x, y in terms:
            nr, lpos = len(self.right[s]), self.left_pos[s]
            ys = [(self.right_pos[s][ky], cy) for ky, cy in y.items()]
            for kx, cx in x.items():
                base = self.offsets[s] + lpos[kx] * nr
                axpy(out, [(base + p, cy) for p, cy in ys], cx, field)
        return out


class BimoduleMap:
    """A bimodule homomorphism, given by the images of summand generators.

    ``gen_images[s]`` is the image of e (x) e of summand s, a list of pure
    tensors in the codomain.  When ``to_algebra`` is set the codomain is A
    itself and the images are plain elements.
    """

    def __init__(self, domain, codomain, gen_images, to_algebra=False):
        self.domain = domain
        self.codomain = codomain
        self.gen_images = gen_images
        self.to_algebra = to_algebra
        self.table = domain.table

    def apply_term(self, s, x, y):
        """Image of the pure tensor x (x) y of summand s."""
        table = self.table
        if self.to_algebra:
            return table.multiply(table.multiply(x, self.gen_images[s]), y)
        out = []
        for s2, u, v in self.gen_images[s]:
            xu = table.multiply(x, u)
            if not xu:
                continue
            vy = table.multiply(v, y)
            if vy:
                out.append((s2, xu, vy))
        return out

    def apply_flat(self, terms):
        """Flat image of a list of pure tensors of the domain."""
        if self.to_algebra:
            field = self.table.field
            out = {}
            for s, x, y in terms:
                axpy(out, self.apply_term(s, x, y).items(), field.one, field)
            return out
        img = []
        for s, x, y in terms:
            img.extend(self.apply_term(s, x, y))
        return self.codomain.flatten(img)

    def rank(self):
        """Rank of the full matrix, summed over the vertex-pair blocks.

        A bimodule map sends A e (x) e A tensors with left source u and
        right target w into the same (u, w) block of the codomain, so the
        matrix is block diagonal and ranks add up.
        """
        table = self.table
        field = table.field
        one = field.one
        blocks = {}
        for s in range(len(self.domain.summands)):
            for kx in self.domain.left[s]:
                for ky in self.domain.right[s]:
                    row = self.apply_flat([(s, {kx: one}, {ky: one})])
                    if row:
                        key = (table.src_of[kx], table.tgt_of[ky])
                        blocks.setdefault(key, []).append(row)
        return sum(rank_of_rows(rows, field) for rows in blocks.values())


def bimodule_spaces(table):
    """The four projective bimodules P0, P1, P2, P3 of the complex."""
    q = table.quiver
    p0 = BimoduleSpace(table, [(v, v) for v in q.vertices])
    p1 = BimoduleSpace(table, [(q.src[a], q.tgt[a]) for a in q.arrows])
    p2 = BimoduleSpace(table, [(q.src[a], q.tgt[q.f[a]]) for a in q.arrows])
    p3 = BimoduleSpace(table, [(v, v) for v in q.vertices])
    return p0, p1, p2, p3


def bimodule_dims(table):
    p0, p1, p2, p3 = bimodule_spaces(table)
    return {"algebra": table.dim, "P0": p0.dim, "P1": p1.dim,
            "P2": p2.dim, "P3": p3.dim}


def rho(table, p1, arrows, coeff):
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
    """P0 -> A, e (x) e of summand i to e_i."""
    return BimoduleMap(
        p0, None,
        [table.idempotent(v) for v in table.quiver.vertices],
        to_algebra=True)


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
        terms = rho(table, p1, (a, q.f[a]), field.one)
        terms.extend(rho(table, p1, table.word_arrows(ab, table.mn[ab] - 1),
                         field.neg(table.c[ab])))
        if table.kind == "deformed" and q.f[a] == a:
            bb = table.pres.b.get(q.src[a], field.zero)
            if bb != field.zero:
                terms.extend(rho(table, p1,
                                 table.word_arrows(ab, table.mn[ab]),
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


def xi_element(table, p3, v):
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

    Not a BimoduleMap (its domain is A), so rank and rows are provided
    directly.
    """
    field = table.field
    xis = {v: xi_element(table, p3, v) for v in table.quiver.vertices}

    def row(k):
        v = table.src_of[k]
        terms = [(s, x, table.multiply(y, {k: field.one}))
                 for s, x, y in xis[v]]
        return p3.flatten([t for t in terms if t[2]])

    def rank():
        blocks = {}
        for k in range(table.dim):
            r = row(k)
            if r:
                key = (table.src_of[k], table.tgt_of[k])
                blocks.setdefault(key, []).append(r)
        return sum(rank_of_rows(rows, field) for rows in blocks.values())

    return {"xis": xis, "row": row, "rank": rank}


def verify_bimodule_periodicity(table):
    """Verify exactness of the period-four bimodule complex, stage by stage.

    Stages run in homological order with early exit: the surjection onto
    A, then each composite-zero and rank condition, and finally that the
    Casimir map theta identifies A with the kernel of S.  The report names
    the first failing stage, which distinguishes the singular tetrahedral
    algebras (not periodic) from all other weighted surface algebras.

    Raises:
        ValueError: unless the kind is weighted or deformed, or when a
            nonzero border function is used away from characteristic 2.
    """
    if table.kind not in ("weighted", "deformed"):
        raise ValueError(
            "bimodule periodicity requires kind 'weighted' or 'deformed'")
    q = table.quiver
    field = table.field
    p0, p1, p2, p3 = bimodule_spaces(table)
    dims = {"algebra": table.dim, "P0": p0.dim, "P1": p1.dim,
            "P2": p2.dim, "P3": p3.dim}
    d0 = map_d0(table, p0)
    d = map_d(table, p0, p1)
    R = map_R(table, p1, p2)
    S = map_S(table, p2, p3)
    stages = []
    ranks = {}

    def fail():
        failing = next(s["name"] for s in stages if not s["ok"])
        return {
            "dims": dims, "ranks": ranks, "stages": stages,
            "verdict": "NOT_VERIFIED", "failing_stage": failing,
        }

    ranks["d0"] = d0.rank()
    stages.append({"name": "d0_surjective", "ok": ranks["d0"] == table.dim,
                   "rank": ranks["d0"], "expected": table.dim})
    if not stages[-1]["ok"]:
        return fail()

    vidx = {v: p for p, v in enumerate(q.vertices)}
    comp = all(
        not d0.apply_flat(d.gen_images[p])
        for p in range(len(q.arrows))
    )
    ranks["d"] = d.rank()
    expected = p0.dim - table.dim
    stages.append({"name": "exact_at_P0", "ok": comp and ranks["d"] == expected,
                   "composite_zero": comp, "rank": ranks["d"],
                   "expected": expected})
    if not stages[-1]["ok"]:
        return fail()

    comp = all(
        not d.apply_flat(R.gen_images[p])
        for p in range(len(q.arrows))
    )
    ranks["R"] = R.rank()
    expected = p1.dim - ranks["d"]
    stages.append({"name": "exact_at_P1", "ok": comp and ranks["R"] == expected,
                   "composite_zero": comp, "rank": ranks["R"],
                   "expected": expected})
    if not stages[-1]["ok"]:
        return fail()

    comp = all(
        not R.apply_flat(S.gen_images[vidx[v]])
        for v in q.vertices
    )
    ranks["S"] = S.rank()
    expected = p2.dim - ranks["R"]
    stages.append({"name": "exact_at_P2", "ok": comp and ranks["S"] == expected,
                   "composite_zero": comp, "rank": ranks["S"],
                   "expected": expected})
    if not stages[-1]["ok"]:
        return fail()

    theta = map_theta(table, p3)
    comp = all(
        not S.apply_flat(theta["xis"][v])
        for v in q.vertices
    )
    ranks["theta"] = theta["rank"]()
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
    if not ok:
        return fail()

    return {
        "dims": dims, "ranks": ranks, "stages": stages,
        "verdict": "PERIODIC_PERIOD_4", "failing_stage": None,
    }
