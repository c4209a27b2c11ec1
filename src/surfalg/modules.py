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
"""

import random

from .algebra import defining_relations, el_add, el_scale
from .linalg import RowSolver, axpy, intersection_dim, rank_of_rows, rows_mul


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
                axpy(out, mat[i].items(), x, field)
            vec = out
        return vec

    def act_basis(self, vec, basis_idx):
        """Apply an algebra basis element (acting on the right) to a vector."""
        scale, arrows = self.table.chain(basis_idx)
        out = self.act_path(vec, arrows)
        if scale == self.table.field.one:
            return out
        return el_scale(self.table.field, scale, out)

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
                    axpy(total, self.act_path({i: field.one}, arrows).items(),
                         coeff, field)
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


def element_vector(module, component, elem):
    """Sparse per-vertex coordinates of an algebra element in one summand."""
    out = {w: {} for w in module.dims}
    for k, cf in elem.items():
        w = module.table.tgt_of[k]
        out[w][module.layout_pos[w][(component, k)]] = cf
    return out


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

    def intertwines(self):
        """Check compatibility with all arrow actions (for tests)."""
        field = self.domain.table.field
        q = self.domain.table.quiver
        for a in q.arrows:
            s, t = q.src[a], q.tgt[a]
            lhs = rows_mul(self.domain.mats[a], self.mats[t], field)
            rhs = rows_mul(self.mats[s], self.codomain.mats[a], field)
            if lhs != rhs:
                return False
        return True


def module_map_from_elements(table, elems, srcs, dsts):
    """The map (+)_j P_srcs[j] -> (+)_l P_dsts[l] of left multiplications.

    ``elems[l][j]`` is an algebra element in e_dsts[l] A e_srcs[j] (or None
    for zero); component l of the image of (x_j)_j is sum_j elems[l][j] x_j.
    Left multiplication commutes with the right module structure, so this
    is a module homomorphism.
    """
    field = table.field
    domain = projective_sum(table, srcs)
    codomain = projective_sum(table, dsts)
    mats = {}
    for w in table.quiver.vertices:
        pos = codomain.layout_pos[w]
        mat = []
        for j, k in domain.layout[w]:
            row = {}
            for l in range(len(dsts)):
                e = elems[l][j]
                if e:
                    img = table.multiply(e, {k: field.one})
                    axpy(row, ((pos[(l, k2)], cf) for k2, cf in img.items()),
                         field.one, field)
            mat.append(row)
        mats[w] = mat
    return ModuleMap(domain, codomain, mats)


def radical_profile(module):
    """Per-vertex radical row spaces, as RowSolver objects."""
    q = module.table.quiver
    field = module.table.field
    solvers = {}
    for v in q.vertices:
        rows = []
        for a in q.arrows:
            if q.tgt[a] == v:
                rows.extend(module.mats[a])
        solvers[v] = RowSolver(rows, field)
    return solvers


def syzygy(module):
    """The kernel of a projective cover, with a minimality certificate.

    Returns (kernel module, info).  The cover is built from the radical:
    at each vertex, coordinates outside the radical row space lift the top.
    The certificate records that the cover is surjective and that its
    kernel sits inside the radical of the cover (so the cover is minimal
    and the kernel is the syzygy).
    """
    table = module.table
    q = table.quiver
    field = table.field
    rad = radical_profile(module)
    gens = []
    for v in q.vertices:
        pivots = set(rad[v].pivots)
        for col in range(module.dims[v]):
            if col not in pivots:
                gens.append((v, col))
    cover = projective_sum(table, [v for v, _ in gens])
    hmats = {}
    for w in q.vertices:
        mat = []
        for j, k in cover.layout[w]:
            v, col = gens[j]
            mat.append(module.act_basis({col: field.one}, k))
        hmats[w] = mat
    h = ModuleMap(cover, module, hmats)
    surjective = h.rank() == module.total_dim
    kbasis = {w: RowSolver(hmats[w], field).kernel() for w in q.vertices}
    # Minimality: kernel rows avoid the generator coordinates e_v.
    gen_coord = {}
    for j, (v, _) in enumerate(gens):
        gen_coord.setdefault(v, []).append(
            cover.layout_pos[v][(j, table.index[("e", v)])])
    minimal = not any(p in row for w in q.vertices for row in kbasis[w]
                      for p in gen_coord.get(w, ()))
    solvers = {w: RowSolver(kbasis[w], field) for w in q.vertices}
    kdims = {w: len(kbasis[w]) for w in q.vertices}
    kmats = {}
    for a in q.arrows:
        mat = []
        for row in kbasis[q.src[a]]:
            sol = solvers[q.tgt[a]].solve(cover.act_path(row, [a]))
            if sol is None:
                raise AssertionError("kernel is not arrow-stable")
            mat.append(sol)
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
                axpy(rows[var_pos[(s, i, l)]],
                     (((a, i, j), cf) for j, cf in row.items()),
                     minus_one, field)
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
                    axpy(acc, row.items(), cf, field)
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
    pi1 = module_map_from_elements(
        table,
        [[table.arrow_element(al), table.arrow_element(ab)]],
        srcs=[q.tgt[al], q.tgt[ab]], dsts=[v])
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
    pi2 = module_map_from_elements(
        table, [[phi0, psi0], [phi1, psi1]],
        srcs=[q.tgt[f[al]], q.tgt[f[ab]]], dsts=[q.tgt[al], q.tgt[ab]])
    pi3 = module_map_from_elements(
        table,
        [[table.arrow_element(f[f[al]])], [table.arrow_element(f[f[ab]])]],
        srcs=[v], dsts=[q.tgt[f[al]], q.tgt[f[ab]]])
    return al, ab, pi1, pi2, pi3, (phi0, phi1, psi0, psi1)


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
    if table.kind not in ("weighted", "deformed"):
        raise ValueError(
            "simple resolutions require kind 'weighted' or 'deformed'")
    q = table.quiver
    field = table.field
    al, ab, pi1, pi2, pi3, cols = _resolution_maps(table, v)
    p_v = pi1.codomain
    dims = {
        "P0": p_v.total_dim,
        "P1": pi1.domain.total_dim,
        "P2": pi2.domain.total_dim,
        "P3": pi3.domain.total_dim,
    }
    stages = []

    r1 = pi1.rank()
    e_pos = p_v.layout_pos[v][(0, table.index[("e", v)])]
    in_radical = all(e_pos not in row for row in pi1.mats[v])
    stages.append({
        "name": "image_pi1_is_radical",
        "ok": in_radical and r1 == p_v.total_dim - 1,
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
    soc_vec = element_vector(pi3.domain, 0, table.socle_element(v))
    soc_killed = not any(rows_mul([soc_vec[w]], pi3.mats[w], field)[0]
                         for w in q.vertices)
    stages.append({
        "name": "kernel_pi3_is_socle",
        "ok": ker3 == 1 and soc_killed,
        "kernel_dim": ker3,
    })

    phi0, phi1, psi0, psi1 = cols
    cod = pi2.codomain
    phi_rows = []
    psi_rows = []
    for k in table.basis_of(source=q.tgt[q.f[al]]):
        x = {k: field.one}
        row = {}
        for l, e in ((0, phi0), (1, phi1)):
            for k2, cf in table.multiply(e, x).items():
                row[(l, k2)] = cf
        phi_rows.append(row)
    for k in table.basis_of(source=q.tgt[q.f[ab]]):
        x = {k: field.one}
        row = {}
        for l, e in ((0, psi0), (1, psi1)):
            for k2, cf in table.multiply(e, x).items():
                row[(l, k2)] = cf
        psi_rows.append(row)
    meet = intersection_dim(phi_rows, psi_rows, field)

    omega2 = ker1
    expected_omega2 = table.mn[q.f[al]] + table.mn[q.f[ab]] + 1
    failing = next((s["name"] for s in stages if not s["ok"]), None)
    return {
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
