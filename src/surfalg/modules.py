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

Maps between projectives are read off the codomain's own arrow matrices,
which are the algebra's table of right products by an arrow: a left
multiplication by elements sends the basis of one domain summand e_v A to
a vector x of the codomain at v times every basis element of e_v A, and
:meth:`RightModule.act_words` forms all of these products in one arrow
step each, by extending the shorter g-word.  The cover map of a syzygy is
built the same way from a generator.  So both cost one step per
coordinate of the projective, not one per arrow of each basis element's
word, and no closed-form product ``AlgebraTable.basis_product`` is asked
for.  A syzygy then runs one transform-tracking elimination per vertex,
on the rows of its cover map: the generators come from a pivots-only
elimination of the radical, and the kernel's arrow action is read off
the identity block of the kernel basis, with no solve.

These inner loops are monomial almost everywhere (on the triangle at
m = 8 over F101 every cover-map row has at most one entry), so they run
over integer positions: a projective sum gives each summand's basis
elements their coordinates once, in a dict per summand (``coords``), and
reads every right product through it; an arrow step from a vector of one
entry copies or scales one row (:func:`_arrow_step`); and a one-entry
kernel vector's image is the cover's row itself.  Every call builds its
projectives afresh, and none is cached on the table (see
:func:`projective_sum`).
"""

import random
from collections import Counter

from .algebra import defining_relations, el_add, el_scale
from .linalg import (RowSolver, intersection_dim, pivot_columns,
                     rank_of_rows, rows_mul)


class RightModule:
    """A right module: per-vertex dimensions and per-arrow matrices.

    ``dims`` maps vertices to non-negative ints; a missing vertex has
    dimension 0.  ``mats`` gives dense matrices (lists of lists) keyed by
    arrow; a missing arrow acts by zero.  Their shapes are checked against
    ``dims``, each entry is read by ``field.coerce`` (so 101 is 0 over
    F101), and they are stored as sparse rows in ``self.mats``, without
    the entries that are zero.

    Raises:
        ValueError: for a vertex or an arrow the quiver does not have, a
            dimension that is not a non-negative ``int`` (a ``bool``
            among them), a matrix of the wrong shape, an entry that
            ``field.coerce`` refuses (a float, a ``bool`` or a string
            among them), or, with ``check_relations``, a relation that
            does not act by zero.
    """

    def __init__(self, table, dims, mats, check_relations=True):
        self.table = table
        q = table.quiver
        zero, coerce = table.field.zero, table.field.coerce
        for what, keys, known in (("vertex", dims, q.vertices),
                                  ("arrow", mats, q.arrows)):
            for k in keys:
                if k not in known:
                    raise ValueError(f"unknown {what} {k!r}")
        for v, n in dims.items():
            if type(n) is not int or n < 0:
                raise ValueError(f"dimension at vertex {v!r} must be a "
                                 f"non-negative int, got {n!r}")
        self.dims = {v: dims.get(v, 0) for v in q.vertices}
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
            self.mats[a] = [{j: x for j, x in enumerate(map(coerce, row))
                             if x != zero} for row in m]
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
        """Apply a path of arrows to a sparse vector at the path's source,
        one :func:`_arrow_step` per arrow."""
        field, mats = self.table.field, self.mats
        for a in arrows:
            vec = _arrow_step(vec, mats[a], field)
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
        word.  Each step is one :func:`_arrow_step`, which gives every
        product a fresh dict.
        """
        table = self.table
        field = table.field
        mats, g, start = self.mats, table.gd.g, table.start
        out = {table.vpos[v]: dict(vec)}
        least = table.least_arrow_at(v)
        for a in table.quiver.out_arrows(v):
            cur, arrow = vec, a
            for length in range(1, table.mn[a] - table.top + 1):
                cur = _arrow_step(cur, mats[arrow], field)
                out[start[a] + length - 1] = cur
                arrow = g[arrow]
            if a == least and table.kind != "string":
                out[table.first_socle + table.vpos[v]] = el_scale(
                    field, table.c[a], _arrow_step(cur, mats[arrow], field))
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


def _arrow_step(vec, mat, field):
    """The sparse vector vec . M, for M the rows of an arrow matrix.

    A vector of one entry {i: x} maps to row i of M, copied when x is one
    and scaled by x otherwise.  That is the sum the general step builds
    with ``field.axpy``: each entry is x times the row's entry, and none
    cancels, since both factors are nonzero (no sparse vector or row
    stores a zero).  In the simple-module checks six to seven arrow steps
    in ten start from a vector of one entry.  The result is always a
    fresh dict, an empty one for an empty vector.
    """
    if len(vec) == 1:
        (i, x), = vec.items()
        row = mat[i]
        return (dict(row) if x == field.one else
                {j: field.mul(x, c) for j, c in row.items()})
    out = {}
    for i, x in vec.items():
        field.axpy(out, mat[i].items(), x)
    return out


def projective_sum(table, vertices):
    """The projective module P = (+) e_v A over the listed vertices.

    The returned module carries a ``layout`` attribute: for each vertex w,
    the list of (component index, algebra basis index) pairs naming its
    coordinates, in order, and ``coords``, its inverse: ``coords[j][k]``
    is the position of the basis element k of summand j among the
    coordinates at the target of k.  The arrow matrices are the right
    table, one summand at a time.  One pass per summand j fills
    ``coords[j]`` and ``layout``, and each row of an arrow a is the right
    products of its basis element by a, read through the coordinates of
    its own summand: no (j, k) pair is formed per entry.  Every
    call builds fresh rows, which the caller owns.  Projectives are not
    cached on the table: a module points back to its table, so such a
    cache is a reference cycle that holds each table, and everything
    built on it, until a full garbage collection.
    """
    q = table.quiver
    tgt_of, right = table.tgt_of, table.right
    layout = {w: [] for w in q.vertices}
    coords = []
    for j, v in enumerate(vertices):
        coord = {}
        for k in table.basis_of(source=v):
            col = layout[tgt_of[k]]
            coord[k] = len(col)
            col.append((j, k))
        coords.append(coord)
    dims = {w: len(layout[w]) for w in q.vertices}
    mats = {}
    for a in q.arrows:
        mat = []
        for j, k in layout[q.src[a]]:
            terms = right.get((k, a))
            if terms is None:
                mat.append({})
                continue
            coord = coords[j]
            row = {}
            for k2, c2 in terms:
                row[coord[k2]] = c2
            mat.append(row)
        mats[a] = mat
    mod = RightModule.from_rows(table, dims, mats)
    mod.layout = layout
    mod.coords = coords
    mod.components = tuple(vertices)
    return mod


def _known_vertex(table, v):
    if v not in table.quiver.vertices:
        raise ValueError(f"unknown vertex {v!r}")


def projective_module(table, v):
    _known_vertex(table, v)
    return projective_sum(table, [v])


def simple_module(table, v):
    return RightModule(table, {v: 1}, {}, check_relations=False)


class ModuleMap:
    """A homomorphism of right modules, one matrix per vertex (row action).

    ``mats`` maps vertices to lists of sparse rows: at a vertex w, one row
    per coordinate of the domain at w, keyed by coordinates of the
    codomain at w; a missing vertex maps by zero.  Each entry is read by
    ``field.coerce`` (so 101 is 0 over F101) and stored without the
    entries that are zero.  That the matrices commute with the arrow
    actions is not checked.

    Raises:
        ValueError: for a vertex the quiver does not have, a row that is
            not a dict, a wrong number of rows at a vertex, a column that
            is not an ``int`` coordinate of the codomain, or an entry that
            ``field.coerce`` refuses (a float among them).
    """

    def __init__(self, domain, codomain, mats):
        q = domain.table.quiver
        zero, coerce = domain.table.field.zero, domain.table.field.coerce
        for w in mats:
            if w not in q.vertices:
                raise ValueError(f"unknown vertex {w!r}")
        self.domain = domain
        self.codomain = codomain
        self.mats = {}
        for w in q.vertices:
            n, m = domain.dims[w], codomain.dims[w]
            rows = mats.get(w, [{}] * n)
            if len(rows) != n:
                raise ValueError(f"map at vertex {w!r} must have {n} rows, "
                                 f"got {len(rows)}")
            out = []
            for row in rows:
                if not isinstance(row, dict):
                    raise ValueError(f"rows at vertex {w!r} must be dicts")
                kept = {}
                for j, x in row.items():
                    if type(j) is not int or not 0 <= j < m:
                        raise ValueError(
                            f"column {j!r} at vertex {w!r} is not a "
                            f"coordinate of the codomain (dimension {m})")
                    x = coerce(x)
                    if x != zero:
                        kept[j] = x
                out.append(kept)
            self.mats[w] = out

    @classmethod
    def from_rows(cls, domain, codomain, mats):
        """A map from per-vertex sparse rows, taken as they are."""
        hom = cls.__new__(cls)
        hom.domain = domain
        hom.codomain = codomain
        hom.mats = mats
        return hom

    def rank(self):
        return sum(rank_of_rows(self.mats[w], self.domain.table.field)
                   for w in self.mats)

    def then(self, second):
        """The composite x -> second(self(x))."""
        field = self.domain.table.field
        mats = {w: rows_mul(self.mats[w], second.mats[w], field)
                for w in self.mats}
        return ModuleMap.from_rows(self.domain, second.codomain, mats)

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
    x_j . b_k, where x_j is the column (elems[l][j])_l: its term cf b_i of
    elems[l][j] is the codomain coordinate (l, i), at the vertex srcs[j]
    where b_i ends.  :meth:`RightModule.act_words` of the codomain gives
    x_j . b_k for every basis element b_k of e_srcs[j] A, one arrow step
    each, so the map is read off the codomain's arrow matrices.

    Why this is the sum over the terms cf b_i of elems[l][j] of cf times
    b_i b_k in summand l.  A projective's arrow matrices are the right
    table: the coordinate (l, i) times an arrow a is the row of right
    products of b_i by a, in summand l.  ``act_words`` takes b_k = e_v as
    x_j itself, the word w(a, l) as w(a, l - 1) times the arrow
    g^(l-1)(a) (the prefix identity of g-words), and the socle element s_v
    as c_a w(a, mn_a) for the least arrow a at v.  So x_j . b_k is x_j
    multiplied by the arrows of b_k's word, one right-table lookup per
    term and arrow, times b_k's scalar: by linearity the sum over the
    terms of cf times the arrow walk of b_i over b_k, which is b_i b_k
    (the walk is the oracle of the closed-form products
    :meth:`AlgebraTable.basis_product`).
    """
    coords = codomain.coords
    images = []
    for j, v in enumerate(domain.components):
        images.append(codomain.act_words(
            {coords[l][i]: cf for l, line in enumerate(elems)
             for i, cf in (line[j] or {}).items()}, v))
    return ModuleMap.from_rows(domain, codomain, {
        w: [images[j][k] for j, k in domain.layout[w]]
        for w in domain.table.quiver.vertices})


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
    minimal = _in_radical(cover, kbasis)
    # cover coordinate -> the kernel vector with its identity entry there
    kpos = {w: {i: p for p, i in enumerate(hsolvers[w].kernel_rows)}
            for w in q.vertices}
    kdims = {w: len(kbasis[w]) for w in q.vertices}
    kmats = {}
    one = field.one
    for a in q.arrows:
        basis, pos = kbasis[q.tgt[a]], kpos[q.tgt[a]]
        arrow_rows = cover.mats[a]
        mat = []
        for row in kbasis[q.src[a]]:
            # A kernel vector of one entry is its identity entry {i: 1}.
            # Its image is row i of the arrow's matrix, read in place: y
            # is compared, never stored.
            y = None
            if len(row) == 1:
                (i, c), = row.items()
                if c == one:
                    y = arrow_rows[i]
            if y is None:
                y = cover.act_path(row, (a,))
            x, back = {}, {}
            for i, c in y.items():
                p = pos.get(i)
                if p is not None:
                    x[p] = c
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
    vectors differ, no homomorphisms exist at all, or every one is a
    multiple of one map that is not invertible; otherwise it only reports
    that no isomorphism was found within the seeded random budget.
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
    if len(basis) == 1:
        return False, {"reason": "the one homomorphism up to scalars is "
                       "not invertible", "definitive": True}
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


def _in_radical(projective, rows):
    """Whether the rows at each vertex w, ``rows[w]`` in the coordinates of
    a projective sum, avoid its generator coordinates (j, e_w), w the
    vertex of summand j: then they lie in the radical of the sum."""
    vpos = projective.table.vpos
    return not any(projective.coords[j][vpos[w]] in row
                   for j, w in enumerate(projective.components)
                   for row in rows[w])


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
        ValueError: unless the kind is weighted or deformed and v a vertex.
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
    their own rows (:func:`_in_radical`), not taken from the element
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
    if (report["failing_stage"] is not None
            or not _in_radical(pi2.codomain, pi2.mats)
            or not _in_radical(pi3.codomain, pi3.mats)):
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
    _known_vertex(table, v)
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
        "ok": _in_radical(p_v, pi1.mats) and r1 == p_v.total_dim - 1,
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
    s_pos = p_v.coords[0][table.first_socle + table.vpos[v]]
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
    if arrow not in q.src:
        raise ValueError(f"unknown arrow {arrow!r}")
    s, t = q.src[arrow], q.tgt[arrow]
    if s == t:
        raise ValueError("uniserial arrow module needs distinct endpoints")
    return RightModule(table, {s: 1, t: 1}, {arrow: [[table.field.one]]})


def uniserial_period_checks(table, arrows):
    """Check the period-four syzygy cycle of each listed arrow's uniserial
    module; returns one report per arrow, in order.

    For an arrow a with partner p = f(g(f(a))), the report certifies that
    Omega^2(U_a) is isomorphic to U_p (a different arrow's module), that
    Omega^4(U_a) returns to U_a, and that every cover along the way is
    minimal.  The first two syzygies of U_x are computed once for each
    arrow x the call meets, as a listed arrow or as a partner.  The call
    keeps what the reports read of them (U_x, the dimension vector of
    Omega^1(U_x), Omega^2(U_x) and the two cover certificates) until the
    last report that reads them.

    Omega^3 and Omega^4 come from the partner's syzygies when
    ``module_iso`` certifies an isomorphism Omega^2(U_a) -> U_p (ok2).
    Minimal syzygies are unique up to isomorphism, and an isomorphism
    M -> N carries a projective cover of N, with its kernel, to one of M.
    So Omega^3(U_a) is isomorphic to Omega^1(U_p) and Omega^4(U_a) to
    Omega^2(U_p): the syzygy dimensions are p's, the covers of p's first
    two steps, certified minimal and surjective by :func:`syzygy`, are
    carried to covers of Omega^2(U_a) and Omega^3(U_a), and whether
    Omega^4(U_a) is isomorphic to U_a is asked of Omega^2(U_p) and U_a.
    ``syzygy`` builds its cover from a basis of the top, so it is minimal
    on every module and the dimensions it gives are those of the minimal
    syzygy, whichever representative of the class it is handed.  Without
    ok2 the third and fourth syzygies of U_a are computed directly.
    """
    q = table.quiver
    f, g = q.f, table.gd.g
    arrows = list(arrows)
    partners = [f[g[f[a]]] for a in arrows]
    readers = Counter(arrows + partners)
    chains = {}

    def chain(x):
        if x not in chains:
            u = uniserial_module(table, x)
            omega1, info1 = syzygy(u)
            omega2, info2 = syzygy(omega1)
            chains[x] = u, omega1.dims, omega2, _certified(info1, info2)
        return chains[x]

    reports = []
    for arrow, partner in zip(arrows, partners):
        u, dims1, omega2, minimal = chain(arrow)
        pu, pdims1, pomega2, pminimal = chain(partner)
        ok2, _ = module_iso(omega2, pu)
        if ok2:
            dims3, omega4, later_minimal = pdims1, pomega2, pminimal
        else:
            omega3, info3 = syzygy(omega2)
            omega4, info4 = syzygy(omega3)
            dims3, later_minimal = omega3.dims, _certified(info3, info4)
        ok4, _ = module_iso(omega4, u)
        report = {
            "arrow": arrow,
            "partner": partner,
            "partner_distinct": partner != arrow,
            "syzygy_dims": [u.total_dim, sum(dims1.values()),
                            omega2.total_dim, sum(dims3.values()),
                            omega4.total_dim],
            "covers_minimal": minimal and later_minimal,
            "omega2_is_partner_module": ok2,
            "omega4_is_start_module": ok4,
        }
        report["period_exactly_4"] = (
            ok2 and ok4 and partner != arrow and dims1 != u.dims
            and report["covers_minimal"]
        )
        reports.append(report)
        for x in (arrow, partner):
            readers[x] -= 1
            if not readers[x]:
                del chains[x]
    return reports


def _certified(*infos):
    """Whether every syzygy certificate says surjective and minimal."""
    return all(i["minimal"] and i["surjective"] for i in infos)


def uniserial_period_check(table, arrow):
    """The report of :func:`uniserial_period_checks` for one arrow."""
    return uniserial_period_checks(table, [arrow])[0]
