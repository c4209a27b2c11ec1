"""Shared quiver, surface, and document fixtures named by their structure,
and the seeded presentations that the tests and ``tools/`` build from them."""

from fractions import Fraction

import surfalg as sa


def triangle_quiver():
    """One triangle with all three edges on the boundary (three loops)."""
    vertices = [1, 2, 3]
    arrows = [("alpha", 1, 2), ("beta", 2, 3), ("gamma", 3, 1),
              ("epsilon", 1, 1), ("eta", 2, 2), ("mu", 3, 3)]
    f = {"alpha": "beta", "beta": "gamma", "gamma": "alpha",
         "epsilon": "epsilon", "eta": "eta", "mu": "mu"}
    return sa.validate(vertices, arrows, f)


def sphere_coherent_quiver():
    """Two triangles glued along all edges with matching orientations."""
    vertices = [1, 2, 3]
    arrows = [("alpha1", 1, 2), ("alpha2", 2, 3), ("alpha3", 3, 1),
              ("beta1", 1, 2), ("beta2", 2, 3), ("beta3", 3, 1)]
    f = {"alpha1": "alpha2", "alpha2": "alpha3", "alpha3": "alpha1",
         "beta1": "beta2", "beta2": "beta3", "beta3": "beta1"}
    return sa.validate(vertices, arrows, f)


def sphere_opposite_quiver():
    """Two triangles glued along all edges with opposite orientations."""
    vertices = [1, 2, 3]
    arrows = [("alpha1", 1, 2), ("alpha2", 2, 3), ("alpha3", 3, 1),
              ("beta1", 2, 1), ("beta2", 3, 2), ("beta3", 1, 3)]
    f = {"alpha1": "alpha2", "alpha2": "alpha3", "alpha3": "alpha1",
         "beta1": "beta3", "beta3": "beta2", "beta2": "beta1"}
    return sa.validate(vertices, arrows, f)


def double_projective_quiver():
    """Two self-folded triangles sharing their third edge."""
    vertices = [1, 2, 3]
    arrows = [("alpha", 1, 1), ("beta", 1, 2), ("gamma", 2, 1),
              ("rho", 3, 3), ("sigma", 3, 2), ("delta", 2, 3)]
    f = {"alpha": "beta", "beta": "gamma", "gamma": "alpha",
         "rho": "sigma", "sigma": "delta", "delta": "rho"}
    return sa.validate(vertices, arrows, f)


def tetrahedral_quiver():
    return sa.tetrahedral_reference()


def tetrahedral_reversed_quiver():
    """The tetrahedral quiver with one triangle's orientation reversed."""
    vertices = [1, 2, 3, 4, 5, 6]
    arrows = [("gamma", 1, 4), ("eta", 4, 5), ("delta", 5, 1),
              ("epsilon", 2, 5), ("xi", 5, 3), ("sigma", 3, 2),
              ("rho", 2, 6), ("omega", 6, 4), ("beta", 4, 2),
              ("nu", 1, 6), ("mu", 6, 3), ("alpha", 3, 1)]
    f = {"gamma": "eta", "eta": "delta", "delta": "gamma",
         "epsilon": "xi", "xi": "sigma", "sigma": "epsilon",
         "rho": "omega", "omega": "beta", "beta": "rho",
         "nu": "mu", "mu": "alpha", "alpha": "nu"}
    return sa.validate(vertices, arrows, f)


ALL_QUIVERS = {
    "triangle": triangle_quiver,
    "sphere_coherent": sphere_coherent_quiver,
    "sphere_opposite": sphere_opposite_quiver,
    "double_projective": double_projective_quiver,
    "tetrahedral": tetrahedral_quiver,
    "tetrahedral_reversed": tetrahedral_reversed_quiver,
}

# smallest legal weights per quiver (the m n >= 3 rule binds short orbits)
MIN_WEIGHTS = {
    "triangle": {},
    "sphere_coherent": {},
    "sphere_opposite": {"alpha1": 2, "alpha2": 2, "alpha3": 2},
    "double_projective": {"alpha": 3, "rho": 3},
    "tetrahedral": {},
    "tetrahedral_reversed": {},
}


def disc_surface():
    return sa.validate_surface([1, 2, 3], [[1, 2, 3]], [1, 2, 3])


def sphere_coherent_surface():
    return sa.validate_surface([1, 2, 3], [[1, 2, 3], [1, 2, 3]])


def sphere_opposite_surface():
    return sa.validate_surface([1, 2, 3], [[1, 2, 3], [1, 3, 2]])


def double_projective_surface():
    return sa.validate_surface([1, 2, 3], [[1, 1, 2], [3, 3, 2]])


def tetrahedron_surface():
    return sa.validate_surface(
        [1, 2, 3, 4, 5, 6],
        [[1, 5, 4], [2, 5, 3], [2, 6, 4], [1, 6, 3]])


ALL_SURFACES = {
    "disc": disc_surface,
    "sphere_coherent": sphere_coherent_surface,
    "sphere_opposite": sphere_opposite_surface,
    "double_projective": double_projective_surface,
    "tetrahedron": tetrahedron_surface,
}


def weighted(quiver, m=None, c=None, field=None):
    return sa.build_algebra(sa.Presentation(
        quiver, kind="weighted", field=field or sa.QQ, m=m, c=c))


def triangle_algebra(m=1, field=None):
    return weighted(triangle_quiver(), m={"alpha": m}, field=field)


def tetrahedral_algebra(a=1, b=1, c=1, d=1, field=None):
    field = field or sa.QQ
    if field is sa.QQ:
        a, b, c, d = (Fraction(x) for x in (a, b, c, d))
    params = {"beta": a, "rho": b, "gamma": c, "alpha": d}
    return weighted(tetrahedral_quiver(), c=params, field=field)


def deformed_triangle_f2(b=(1, 1, 1)):
    field = sa.PrimeField(2)
    return sa.build_algebra(sa.Presentation(
        triangle_quiver(), kind="deformed", field=field,
        b={1: b[0], 2: b[1], 3: b[2]}))


# -- seeded presentations of the fixture quivers --------------------------

KINDS = ("weighted", "biserial", "string")
FIELDS = {"Q": sa.QQ, "F101": sa.PrimeField(101)}


def nonzero(field, rng):
    if field.char == 0:
        return Fraction(rng.randint(1, 7) * rng.choice((1, -1)),
                        rng.randint(1, 7))
    return rng.randrange(1, field.char)


def least_weights(name, q):
    low = MIN_WEIGHTS[name]
    return {o[0]: max(low.get(a, 1) for a in o)
            for o in sa.g_structure(q).orbits}


def presentation(name, kind, field, rng, raise_by=0):
    """A fixture quiver's presentation at raised weights, with seeded
    nonzero parameters and, for ``deformed``, border values in {0, 1}."""
    q = ALL_QUIVERS[name]()
    m = {rep: w + raise_by for rep, w in least_weights(name, q).items()}
    c = {rep: nonzero(field, rng) for rep in m}
    b = None
    if kind == "deformed":
        b = {v: field.of_int(rng.randrange(2)) for v in sa.border(q)[0]}
    return sa.Presentation(q, kind=kind, field=field, m=m, c=c, b=b)


def deformed_triangle(field, rng, border_nonzero, raise_by=0):
    q = triangle_quiver()
    m = {o[0]: 1 + raise_by for o in sa.g_structure(q).orbits}
    c = {rep: nonzero(field, rng) for rep in m}
    b = {v: nonzero(field, rng) if border_nonzero else field.zero
         for v in q.vertices}
    return sa.Presentation(q, kind="deformed", field=field, m=m, c=c, b=b)


# (quiver name, kind) for every fixture quiver, deformed where a border
# exists
CASES = [(name, kind) for name in sorted(ALL_QUIVERS)
         for kind in ("weighted", "deformed")
         if kind == "weighted" or sa.border(ALL_QUIVERS[name]())[0]]
# act_words serves every kind: string algebras stop at words of length
# mn - 2 and have no socle element.
WORD_CASES = CASES + [(name, kind) for name in sorted(ALL_QUIVERS)
                      for kind in ("biserial", "string")]


def walk(table, cur, arrows):
    """The element cur multiplied on the right by each arrow in turn.

    Each step is one lookup per term in the table's right products by an
    arrow, which define the algebra.  This is the slow oracle for the
    closed-form products and the g-word rule (``basis_product``,
    ``word_element``), which never walk.
    """
    field = table.field
    for a in arrows:
        nxt = {}
        for k, cf in cur.items():
            field.axpy(nxt, table.right.get((k, a), ()), cf)
        cur = nxt
        if not cur:
            break
    return cur


def path_element(table, arrows, coeff):
    """coeff times a nonempty path of composable arrows, by the walk."""
    start = table.index[("e", table.quiver.src[arrows[0]])]
    return walk(table, {start: coeff}, arrows)


def walked_word(table, a, length):
    """The path a g(a) ... g^(length-1)(a), by the walk from e_s(a)."""
    start = table.index[("e", table.quiver.src[a])]
    return walk(table, {start: table.field.one},
                table.word_arrows(a, length))


def quiver_doc(quiver, **extra):
    """A CLI input document for a quiver."""
    doc = {
        "quiver": {
            "vertices": list(quiver.vertices),
            "arrows": [{"id": a, "from": quiver.src[a], "to": quiver.tgt[a]}
                       for a in quiver.arrows],
            "f": {str(a): quiver.f[a] for a in quiver.arrows},
        },
    }
    doc.update(extra)
    return doc


def surface_doc(surface, **extra):
    """A CLI input document for a surface."""
    doc = {"surface": surface.to_json()}
    doc.update(extra)
    return doc
