"""Right modules over a based algebra, and exact resolution checks.

A right module is a dimension vector over the vertices together with one
matrix per arrow, acting on row vectors: a vector v at the source of an
arrow a maps to v . M_a at its target.  A path acts by the product of its
arrow matrices in path order.  Vectors are sparse rows (dict coordinate ->
nonzero scalar) and every matrix, of an arrow or of a module map, is a
list of sparse rows in the format of :mod:`surfalg.linalg`.

The main consumers are the projective resolutions: every simple module
over a weighted (or socle-deformed) surface algebra has an explicit
complex of projectives of length four, and this module verifies its
exactness by rank bookkeeping, reporting the precise stage of any failure.
A verified complex whose maps land in the radical is a minimal
resolution, so the simple's syzygies are read off it
(:func:`read_simple_syzygies`); the generic :func:`syzygy` and
:func:`module_iso` serve the uniserial check and the cases where that
reading cannot be made.

Maps between projectives are built from basis products: a left
multiplication by an element is a sum of closed-form products
``AlgebraTable.basis_product``, and the cover map of a syzygy applies
every basis element of e_v A to a generator in one arrow step each, by
extending the shorter g-word (:meth:`RightModule.act_words`).  So both
cost one step per coordinate of the projective, not one per arrow of
each basis element's word.  A syzygy then runs one transform-tracking
elimination per vertex, on the rows of its cover map: the generators come
from a pivots-only elimination of the radical, and the kernel's arrow
action is read off the identity block of the kernel basis, with no solve.
"""

import random

from .algebra import defining_relations, el_add, el_scale
from .linalg import (RowSolver, intersection_dim, pivot_columns,
                     rank_of_rows, rows_mul)


class RightModule:
    """A right module: per-vertex dimensions and per-arrow matrices.

    ``mats`` gives dense matrices (lists of lists) keyed by arrow; a missing
    arrow acts by zero.  Their shapes are checked against ``dims`` and they
    are stored as sparse rows in ``self.mats``.
    """

    def __init__(self, table, dims, mats, check_relations=True):
        self.table = table
        q = table.quiver
        zero = table.field.zero
        self.dims = {v: int(dims.get(v, 0)) for v in q.vertices}
        self.mats = {}
        for a in q.arrows:
            ns, nt = self.dims[q.src[a]], self.dims[q.tgt[a]]
            m = mats.get(a)
            if m is None:
                m = [[zero] * nt for _ in range(ns)]
            if len(m) != ns or any(len(row) != nt for row in m):
                raise ValueError(
                    f"matrix for arrow {a!r} must be {ns} x {nt}"
                )
            self.mats[a] = [{j: x for j, x in enumerate(row) if x != zero}
                            for row in m]
        if check_relations:
            bad = self.violated_relations()
            if bad:
                raise ValueError(f"module violates relations: {', '.join(bad)}")

    @classmethod
    def from_rows(cls, table, dims, mats):
        """A module from per-arrow sparse rows, taken as they are."""
        mod = cls.__new__(cls)
        mod.table = table
        mod.dims = dims
        mod.mats = mats
        return mod

    @property
    def total_dim(self):
        return sum(self.dims.values())

    def act_path(self, vec, arrows):
        """Apply a path of arrows to a sparse vector at the path's source."""
        field = self.table.field
        for a in arrows:
            mat = self.mats[a]
            out = {}
            for i, x in vec.items():
                field.axpy(out, mat[i].items(), x)
            vec = out
        return vec

    def act_words(self, vec, v):
        """The products vec . b_k for every basis element b_k of e_v A.

        Returns a dict basis index k -> sparse vector, for vec at vertex v.
        Each product is one arrow step from a shorter one, by the prefix
        identity of g-words: w(a, 1) = e_v . a and w(a, l) = w(a, l - 1) .
        g^(l-1)(a), so vec . w(a, l) is vec . w(a, l - 1) times the arrow
        g^(l-1)(a).  The socle element is s_v = c_a w(a, mn_a) for the
        least arrow a at v (:meth:`AlgebraTable.chain`): one step past the
        longest word of a, times the socle scalar c_a.  So vec meets one
        arrow matrix per basis element of e_v A, not one per arrow of its
        word.
        """
        table = self.table
        g, index = table.gd.g, table.index
        out = {index[("e", v)]: dict(vec)}
        least = table.least_arrow_at(v)
        for a in table.quiver.out_arrows(v):
            cur, arrow = vec, a
            for length in range(1, table.mn[a] - table.top + 1):
                cur = self.act_path(cur, (arrow,))
                out[index[("w", a, length)]] = cur
                arrow = g[arrow]
            if a == least and table.kind != "string":
                out[index[("s", v)]] = el_scale(
                    table.field, table.c[a], self.act_path(cur, (arrow,)))
        return out

    def violated_relations(self):
        """Names of defining relations whose action does not vanish."""
        field = self.table.field
        q = self.table.quiver
        bad = []
        for rel in defining_relations(self.table):
            s = q.src[rel["terms"][0][1][0]]
            for i in range(self.dims[s]):
                total = {}
                for coeff, arrows in rel["terms"]:
                    field.axpy(total, self.act_path(
                        {i: field.one}, arrows).items(), coeff)
                if total:
                    bad.append(rel["name"])
                    break
        return bad


def projective_sum(table, vertices):
    """The projective module P = (+) e_v A over the listed vertices.

    The returned module carries a ``layout`` attribute: for each vertex w,
    the list of (component index, algebra basis index) pairs naming its
    coordinates, in order.
    """
    q = table.quiver
    layout = {w: [] for w in q.vertices}
    for j, v in enumerate(vertices):
        for k in table.basis_of(source=v):
            layout[table.tgt_of[k]].append((j, k))
    pos = {w: {pk: i for i, pk in enumerate(layout[w])} for w in q.vertices}
    dims = {w: len(layout[w]) for w in q.vertices}
    mats = {}
    for a in q.arrows:
        t = q.tgt[a]
        mats[a] = [{pos[t][(j, k2)]: c2
                    for k2, c2 in table.right.get((k, a), ())}
                   for j, k in layout[q.src[a]]]
    mod = RightModule.from_rows(table, dims, mats)
    mod.layout = layout
    mod.layout_pos = pos
    mod.components = tuple(vertices)
    return mod


def projective_module(table, v):
    return projective_sum(table, [v])


def simple_module(table, v):
    dims = {w: (1 if w == v else 0) for w in table.quiver.vertices}
    return RightModule(table, dims, {}, check_relations=False)


class ModuleMap:
    """A homomorphism of right modules, one matrix per vertex (row action)."""

    def __init__(self, domain, codomain, mats):
        self.domain = domain
        self.codomain = codomain
        self.mats = mats

    def rank(self):
        return sum(rank_of_rows(self.mats[w], self.domain.table.field)
                   for w in self.mats)

    def then(self, second):
        """The composite x -> second(self(x))."""
        field = self.domain.table.field
        mats = {w: rows_mul(self.mats[w], second.mats[w], field)
                for w in self.mats}
        return ModuleMap(self.domain, second.codomain, mats)

    def is_zero(self):
        return not any(row for rows in self.mats.values() for row in rows)


def module_map_from_elements(elems, domain, codomain):
    """The map (+)_j P_srcs[j] -> (+)_l P_dsts[l] of left multiplications.

    ``domain`` and ``codomain`` are the projective sums over srcs and dsts
    (:func:`projective_sum`), so a resolution can share one module between
    two maps.  ``elems[l][j]`` is an algebra element in e_dsts[l] A
    e_srcs[j] (or None for zero); component l of the image of (x_j)_j is
    sum_j elems[l][j] x_j.  Left multiplication commutes with the right
    module structure, so this is a module homomorphism.  The domain
    coordinate (j, k), the basis element b_k of summand j, goes to
    elems[l][j] b_k in summand l: the sum over the terms cf b_i of
    elems[l][j] of cf times the closed-form product b_i b_k
    (:meth:`AlgebraTable.basis_product`).
    """
    table = domain.table
    field = table.field
    mats = {}
    for w in table.quiver.vertices:
        pos = codomain.layout_pos[w]
        mat = []
        for j, k in domain.layout[w]:
            row = {}
            for l, line in enumerate(elems):
                for i, cf in (line[j] or {}).items():
                    field.axpy(row, ((pos[(l, k2)], c2)
                                     for k2, c2 in table.basis_product(i, k)),
                               cf)
            mat.append(row)
        mats[w] = mat
    return ModuleMap(domain, codomain, mats)


def syzygy(module):
    """The kernel of a projective cover, with a minimality certificate.

    Returns (kernel module, info).  The cover is built from the radical:
    at each vertex, the coordinates that are not pivot columns of the
    radical rows (the images of the arrows into the vertex) lift the top,
    by :func:`surfalg.linalg.pivot_columns`, whose least-key rule fixes
    which coordinates these are.  The cover map h sends the coordinate
    (j, k) of the cover, the basis element b_k in the summand of generator
    j, to gen_j . b_k; all of one generator's images come from one
    :meth:`RightModule.act_words` call, one arrow step per basis element.

    One RowSolver per vertex on the rows of h is the only other
    elimination.  Its echelon rows and its left kernel together account
    for every row, so the rank of h at the vertex is the number of rows
    minus the dimension of the left kernel, and h is surjective exactly
    when these ranks sum to the module's dimension.  The kernel's arrow
    action is read off its own basis: the kernel carries an identity block
    on the rows that reduced to zero (``RowSolver.kernel_rows``), so the
    coordinates of the image y of a kernel vector under an arrow are the
    entries of y there, and y lies in the kernel exactly when that
    combination of the kernel basis gives y back, which is checked.  The
    certificate records that the cover is surjective and that its kernel
    sits inside the radical of the cover (so the cover is minimal and the
    kernel is the syzygy).
    """
    table = module.table
    q = table.quiver
    field = table.field
    gens = []
    for v in q.vertices:
        radical = [row for a in q.arrows if q.tgt[a] == v
                   for row in module.mats[a]]
        pivots = pivot_columns(radical, field)
        gens.extend((v, col) for col in range(module.dims[v])
                    if col not in pivots)
    cover = projective_sum(table, [v for v, _ in gens])
    images = [module.act_words({col: field.one}, v) for v, col in gens]
    hsolvers = {w: RowSolver([images[j][k] for j, k in cover.layout[w]],
                             field)
                for w in q.vertices}
    surjective = (sum(s.rank for s in hsolvers.values())
                  == module.total_dim)
    kbasis = {w: hsolvers[w].kernel() for w in q.vertices}
    # Minimality: kernel rows avoid the generator coordinates e_v.
    gen_coord = {}
    for j, (v, _) in enumerate(gens):
        gen_coord.setdefault(v, []).append(
            cover.layout_pos[v][(j, table.index[("e", v)])])
    minimal = not any(p in row for w in q.vertices for row in kbasis[w]
                      for p in gen_coord.get(w, ()))
    # cover coordinate -> the kernel vector with its identity entry there
    kpos = {w: {i: p for p, i in enumerate(hsolvers[w].kernel_rows)}
            for w in q.vertices}
    kdims = {w: len(kbasis[w]) for w in q.vertices}
    kmats = {}
    for a in q.arrows:
        basis, pos = kbasis[q.tgt[a]], kpos[q.tgt[a]]
        mat = []
        for row in kbasis[q.src[a]]:
            y = cover.act_path(row, (a,))
            x = {pos[i]: c for i, c in y.items() if i in pos}
            back = {}
            for p, c in x.items():
                field.axpy(back, basis[p].items(), c)
            if back != y:
                raise AssertionError("kernel is not arrow-stable")
            mat.append(x)
        kmats[a] = mat
    kernel = RightModule.from_rows(table, kdims, kmats)
    info = {
        "cover_components": [v for v, _ in gens],
        "cover_dim": cover.total_dim,
        "surjective": surjective,
        "minimal": minimal,
    }
    return kernel, info


def hom_space(m1, m2):
    """A basis of module homomorphisms m1 -> m2, per-vertex matrices.

    The unknowns are the entries X_v[i][j]; arrow a gives the equations
    (a, i, j) of ``M1_a . X_t = X_s . M2_a``.  Each unknown is a row over
    the equations, and the kernel of those rows is the hom space.
    """
    table = m1.table
    q = table.quiver
    field = table.field
    minus_one = field.neg(field.one)
    variables = []
    for v in q.vertices:
        for i in range(m1.dims[v]):
            for j in range(m2.dims[v]):
                variables.append((v, i, j))
    var_pos = {var: k for k, var in enumerate(variables)}
    rows = [dict() for _ in variables]
    for a in q.arrows:
        s, t = q.src[a], q.tgt[a]
        # Each (unknown, equation) entry gets at most one term from each
        # side, and the M1 side comes first.
        for i, row in enumerate(m1.mats[a]):
            for k, cf in row.items():
                for j in range(m2.dims[t]):
                    rows[var_pos[(t, k, j)]][(a, i, j)] = cf
        for l, row in enumerate(m2.mats[a]):
            for i in range(m1.dims[s]):
                field.axpy(rows[var_pos[(s, i, l)]],
                           (((a, i, j), cf) for j, cf in row.items()),
                           minus_one)
    out = []
    for combo in RowSolver(rows, field).kernel():
        mats = {v: [{} for _ in range(m1.dims[v])] for v in q.vertices}
        for k, cf in combo.items():
            v, i, j = variables[k]
            mats[v][i][j] = cf
        out.append(mats)
    return out


def _invertible_everywhere(mats, dims, field):
    return all(rank_of_rows(mats[v], field) == n for v, n in dims.items())


def module_iso(m1, m2, seed=0, budget=64):
    """Search for an explicit isomorphism m1 -> m2.

    Returns (True, {"iso": matrices}) with a certified isomorphism, or
    (False, reason).  A False answer is definitive when the dimension
    vectors differ or no homomorphisms exist at all; otherwise it only
    reports that no isomorphism was found within the seeded random budget.
    """
    if m1.dims != m2.dims:
        return False, {"reason": "dimension vectors differ", "definitive": True}
    field = m1.table.field
    if m1.total_dim == 0:
        return True, {"iso": {v: [] for v in m1.dims}}
    basis = hom_space(m1, m2)
    if not basis:
        return False, {"reason": "no homomorphisms at all", "definitive": True}
    for mats in basis:
        if _invertible_everywhere(mats, m1.dims, field):
            return True, {"iso": mats}
    rng = random.Random(seed)
    span = field.char if field.char else 11
    for _ in range(budget):
        coeffs = [field.of_int(rng.randrange(span)) for _ in basis]
        mats = {v: [{} for _ in range(m1.dims[v])] for v in m1.dims}
        for cf, base in zip(coeffs, basis):
            if cf == field.zero:
                continue
            for v in mats:
                for acc, row in zip(mats[v], base[v]):
                    field.axpy(acc, row.items(), cf)
        if _invertible_everywhere(mats, m1.dims, field):
            return True, {"iso": mats}
    return False, {
        "reason": f"no isomorphism found within budget {budget}",
        "definitive": False,
    }


def _resolution_maps(table, v):
    """The three maps of the period-four complex over the simple at v."""
    q = table.quiver
    field = table.field
    out = list(q.out_arrows(v))
    # At a border vertex the loop plays the distinguished role.
    if q.f[out[1]] == out[1]:
        out.reverse()
    al, ab = out
    f, g = q.f, table.gd.g
    bval = table.pres.b.get(v, field.zero) if table.kind == "deformed" else field.zero
    # P3 = P0 = P_v; each projective is built once and shared by its maps.
    p0 = projective_sum(table, [v])
    p1 = projective_sum(table, [q.tgt[al], q.tgt[ab]])
    p2 = projective_sum(table, [q.tgt[f[al]], q.tgt[f[ab]]])
    pi1 = module_map_from_elements(
        [[table.arrow_element(al), table.arrow_element(ab)]], p1, p0)
    # Column 0: phi = (f(al), -c_ab A'_ab [- b B'_ab]); column 1:
    # psi = (-c_al A'_al [- b A_al], f(ab)).
    phi0 = table.arrow_element(f[al])
    phi1 = el_scale(field, field.neg(table.c[ab]),
                    table.word_element(g[ab], table.mn[ab] - 2))
    psi0 = el_scale(field, field.neg(table.c[al]),
                    table.word_element(g[al], table.mn[al] - 2))
    psi1 = table.arrow_element(f[ab])
    if bval != field.zero:
        extra_phi = el_scale(field, field.neg(bval),
                             table.word_element(g[ab], table.mn[ab] - 1))
        phi1 = el_add(field, phi1, extra_phi)
        extra_psi = el_scale(field, field.neg(bval),
                             table.word_element(al, table.mn[al] - 1))
        psi0 = el_add(field, psi0, extra_psi)
    pi2 = module_map_from_elements([[phi0, psi0], [phi1, psi1]], p2, p1)
    pi3 = module_map_from_elements(
        [[table.arrow_element(f[f[al]])], [table.arrow_element(f[f[ab]])]],
        p0, p2)
    return al, ab, pi1, pi2, pi3


def _lands_in_radical(pi):
    """Whether every row of a map between projective sums avoids the
    generator coordinates (j, e_w) of its codomain, w the vertex of
    summand j: then its image lies in the radical of the codomain."""
    index = pi.domain.table.index
    codomain = pi.codomain
    for j, w in enumerate(codomain.components):
        pos = codomain.layout_pos[w][(j, index[("e", w)])]
        if any(pos in row for row in pi.mats[w]):
            return False
    return True


def verify_simple_resolution(table, v):
    """Verify the period-four projective resolution of the simple at v.

    Builds the explicit three maps, then checks by exact rank computation:
    the first map covers the radical, composites vanish, kernels equal
    images stage by stage, and the final kernel is the socle.  All stages
    are evaluated; the verdict names the first failure, and the dimension
    of the intersection of the two cyclic submodules generated by the
    middle map's columns is reported (it detects the singular tetrahedral
    case).

    Raises:
        ValueError: unless the kind is weighted or deformed.
    """
    return _simple_resolution(table, v)[0]


def read_simple_syzygies(table, v):
    """Verify the resolution at v and read the simple's syzygies off it.

    Returns (report, fields): ``report`` is that of
    :func:`verify_simple_resolution`, and ``fields`` holds the entries
    ``syzygy_dims``, ``omega4_isomorphic_to_simple`` and ``early_return``
    that four generic :func:`syzygy` steps and :func:`module_iso` searches
    would give, or is None when no reading can be made.  The reading is
    exact by the following argument.

    Every stage passes, so 0 -> S_v -> P_v -> P2 -> P1 -> P_v -> S_v -> 0
    is exact.  If moreover each map lands in the radical of its codomain,
    the sequence is a minimal projective resolution: each P_(i+1) maps
    onto ker pi_i with kernel im pi_(i+2) inside rad P_(i+1), so it is a
    projective cover.  pi1 landing in rad P_v is already a stage, and the
    socle inclusion S_v -> P_v lands in J; pi2 and pi3 are checked here on
    their own rows (:func:`_lands_in_radical`), not taken from the element
    formulas.  Minimal syzygies are unique up to isomorphism, so
    Omega^1 = rad P_v, Omega^2 = ker pi1 (dimension dim P1 - r1, the
    report's ``omega2_dim``), Omega^3 = ker pi2 = im pi3 (dimension r3)
    and Omega^4 = ker pi3, with r1 and r3 the ranks of the stages
    ``image_pi1_is_radical`` and ``kernel_pi2_equals_image_pi3``.  The
    stage ``kernel_pi3_is_socle`` makes Omega^4 = K s_v, one-dimensional
    at v; arrows act on it nilpotently, hence by zero, so it is isomorphic
    to S_v (``module_iso`` finds this deterministically: the hom space is
    one-dimensional and its basis map is invertible).  Omega^j can be
    isomorphic to S_v only at total dimension 1, so ``early_return`` is
    empty when none of Omega^1, Omega^2, Omega^3 has dimension 1; if one
    does, no reading is made and the caller falls back to the generic
    chain.  No reading is made either when a stage fails, as for a
    singular tetrahedral algebra, or when pi2 or pi3 leaves the radical.
    """
    report, pi2, pi3 = _simple_resolution(table, v)
    if (report["failing_stage"] is not None or not _lands_in_radical(pi2)
            or not _lands_in_radical(pi3)):
        return report, None
    # r3 is the rank of the stage kernel_pi2_equals_image_pi3.
    middle = [report["dims"]["P0"] - 1, report["omega2_dim"],
              report["stages"][4]["rank"]]
    if 1 in middle:
        return report, None
    return report, {
        "syzygy_dims": [1] + middle + [1],
        "omega4_isomorphic_to_simple": True,
        "early_return": [],
    }


def _simple_resolution(table, v):
    """The report of :func:`verify_simple_resolution`, with pi2 and pi3."""
    if table.kind not in ("weighted", "deformed"):
        raise ValueError(
            "simple resolutions require kind 'weighted' or 'deformed'")
    q = table.quiver
    field = table.field
    al, ab, pi1, pi2, pi3 = _resolution_maps(table, v)
    p_v = pi1.codomain
    dims = {
        "P0": p_v.total_dim,
        "P1": pi1.domain.total_dim,
        "P2": pi2.domain.total_dim,
        "P3": pi3.domain.total_dim,
    }
    stages = []

    r1 = pi1.rank()
    stages.append({
        "name": "image_pi1_is_radical",
        "ok": _lands_in_radical(pi1) and r1 == p_v.total_dim - 1,
        "rank": r1,
        "expected_rank": p_v.total_dim - 1,
    })

    z12 = pi2.then(pi1).is_zero()
    stages.append({"name": "pi1_pi2_composite_zero", "ok": z12})

    ker1 = pi1.domain.total_dim - r1
    r2 = pi2.rank()
    stages.append({
        "name": "kernel_pi1_equals_image_pi2",
        "ok": z12 and r2 == ker1,
        "rank": r2,
        "expected_rank": ker1,
    })

    z23 = pi3.then(pi2).is_zero()
    stages.append({"name": "pi2_pi3_composite_zero", "ok": z23})

    ker2 = pi2.domain.total_dim - r2
    r3 = pi3.rank()
    stages.append({
        "name": "kernel_pi2_equals_image_pi3",
        "ok": z23 and r3 == ker2,
        "rank": r3,
        "expected_rank": ker2,
    })

    ker3 = pi3.domain.total_dim - r3
    # The socle s_v of P_v is the single coordinate (0, s_v) at vertex v,
    # looked up as e_v is for pi1 above: pi3 kills s_v exactly when its
    # row of pi3 is empty.
    s_pos = p_v.layout_pos[v][(0, table.index[("s", v)])]
    soc_killed = not pi3.mats[v][s_pos]
    stages.append({
        "name": "kernel_pi3_is_socle",
        "ok": ker3 == 1 and soc_killed,
        "kernel_dim": ker3,
    })

    # The cyclic submodules generated by phi and psi are the images of
    # pi2's domain summands j = 0 and 1.  Both are graded by vertex (the
    # coordinate (j, k) lands at t(k)), so their meet is the sum over the
    # vertices w of the meets of the rows of pi2 at w, split by j.
    meet = 0
    for w, rows in pi2.mats.items():
        parts = ([], [])
        for (j, _), row in zip(pi2.domain.layout[w], rows):
            parts[j].append(row)
        meet += intersection_dim(*parts, field)

    omega2 = ker1
    expected_omega2 = table.mn[q.f[al]] + table.mn[q.f[ab]] + 1
    failing = next((s["name"] for s in stages if not s["ok"]), None)
    report = {
        "vertex": v,
        "alpha": al,
        "alpha_bar": ab,
        "dims": dims,
        "stages": stages,
        "omega2_dim": omega2,
        "omega2_expected": expected_omega2,
        "phi_psi_intersection_dim": meet,
        "verdict": "PERIODIC_PERIOD_4" if failing is None else "NOT_VERIFIED",
        "failing_stage": failing,
    }
    return report, pi2, pi3


def uniserial_module(table, arrow):
    """The two-dimensional uniserial module supported on one arrow."""
    q = table.quiver
    s, t = q.src[arrow], q.tgt[arrow]
    if s == t:
        raise ValueError("uniserial arrow module needs distinct endpoints")
    dims = {w: 0 for w in q.vertices}
    dims[s] = 1
    dims[t] = 1
    mats = {arrow: [[table.field.one]]}
    return RightModule(table, dims, mats, check_relations=True)


def uniserial_period_check(table, arrow):
    """Check the period-four syzygy cycle of an arrow's uniserial module.

    Computes four successive syzygies of U_arrow, certifies that the
    second is the uniserial module of the arrow f(g(f(arrow))) (a
    different arrow), and that the fourth returns to U_arrow.
    """
    q = table.quiver
    f, g = q.f, table.gd.g
    partner = f[g[f[arrow]]]
    mods = [uniserial_module(table, arrow)]
    infos = []
    for _ in range(4):
        k, info = syzygy(mods[-1])
        mods.append(k)
        infos.append(info)
    ok2, cert2 = module_iso(mods[2], uniserial_module(table, partner))
    ok4, cert4 = module_iso(mods[4], mods[0])
    dims_differ = mods[1].dims != mods[0].dims
    report = {
        "arrow": arrow,
        "partner": partner,
        "partner_distinct": partner != arrow,
        "syzygy_dims": [m.total_dim for m in mods],
        "covers_minimal": all(i["minimal"] and i["surjective"] for i in infos),
        "omega2_is_partner_module": ok2,
        "omega4_is_start_module": ok4,
    }
    report["period_exactly_4"] = (
        ok2 and ok4 and partner != arrow and dims_differ
        and report["covers_minimal"]
    )
    return report
