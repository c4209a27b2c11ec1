"""Triangulation quivers.

A triangulation quiver is a pair (Q, f): a finite connected 2-regular
quiver Q (every vertex is the source of exactly two arrows and the target
of exactly two arrows) together with a permutation f of the arrows such
that f(a) starts where a ends and f has order dividing 3.  Every directed
triangulated surface gives one, with f rotating each triangle and fixing
the boundary loops.
"""


def skey(x):
    """Deterministic sort key for mixed-type vertex or arrow ids."""
    return (str(x), repr(x))


class QuiverValidationError(ValueError):
    """Raised when a quiver violates the triangulation axioms.

    The ``diagnostics`` attribute lists every violated axiom.
    """

    def __init__(self, diagnostics):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = list(diagnostics)


class TriangulationQuiver:
    """A validated triangulation quiver. Build via :func:`validate`."""

    def __init__(self, vertices, arrows, f):
        self.vertices = tuple(vertices)
        self.arrows = tuple(a for a, _, _ in arrows)
        self.src = {a: s for a, s, _ in arrows}
        self.tgt = {a: t for a, _, t in arrows}
        self.f = dict(f)
        self._out = {v: [] for v in self.vertices}
        self._in = {v: [] for v in self.vertices}
        for a in self.arrows:
            self._out[self.src[a]].append(a)
            self._in[self.tgt[a]].append(a)
        for v in self.vertices:
            self._out[v].sort(key=skey)
            self._in[v].sort(key=skey)
        # The involution swapping the two arrows out of each vertex.
        self.bar = {}
        for v in self.vertices:
            a, b = self._out[v]
            self.bar[a] = b
            self.bar[b] = a

    def out_arrows(self, v):
        return tuple(self._out[v])

    def in_arrows(self, v):
        return tuple(self._in[v])

    def g(self, a):
        """The translation g = bar . f, whose orbits are the cyclic paths."""
        return self.bar[self.f[a]]

    def to_json(self):
        return {
            "vertices": list(self.vertices),
            "arrows": [
                {"id": a, "from": self.src[a], "to": self.tgt[a]}
                for a in self.arrows
            ],
            "f": {str(a): self.f[a] for a in self.arrows},
        }

    def __repr__(self):
        return (f"TriangulationQuiver({len(self.vertices)} vertices, "
                f"{len(self.arrows)} arrows)")


def _structural_check(vertices, arrows, f):
    """Reject malformed input (duplicates, dangling ids) with ValueError."""
    seen = set()
    for v in vertices:
        if v in seen:
            raise ValueError(f"duplicate vertex id {v!r}")
        seen.add(v)
    vset = set(vertices)
    aseen = set()
    for a, s, t in arrows:
        if a in aseen:
            raise ValueError(f"duplicate arrow id {a!r}")
        aseen.add(a)
        if s not in vset:
            raise ValueError(f"arrow {a!r} has unknown source vertex {s!r}")
        if t not in vset:
            raise ValueError(f"arrow {a!r} has unknown target vertex {t!r}")
    if set(f.keys()) != aseen:
        missing = sorted(aseen - set(f.keys()), key=skey)
        extra = sorted(set(f.keys()) - aseen, key=skey)
        raise ValueError(
            f"f must be defined on exactly the arrow ids "
            f"(missing {missing!r}, extra {extra!r})"
        )
    if set(f.values()) != aseen:
        raise ValueError("f must be a permutation of the arrows")


def diagnose(vertices, arrows, f):
    """List every violated triangulation-quiver axiom (empty when valid).

    Structural problems (duplicate ids, dangling endpoints, f not a
    permutation) raise ValueError instead, since the axioms cannot even be
    stated for such input.
    """
    _structural_check(vertices, arrows, f)
    problems = []
    if len(vertices) < 3:
        problems.append(f"quiver has {len(vertices)} vertices, need at least 3")
    out = {v: 0 for v in vertices}
    inn = {v: 0 for v in vertices}
    src = {}
    tgt = {}
    for a, s, t in arrows:
        out[s] += 1
        inn[t] += 1
        src[a] = s
        tgt[a] = t
    for v in sorted(vertices, key=skey):
        if out[v] != 2:
            problems.append(f"vertex {v!r} is the source of {out[v]} arrows, need 2")
        if inn[v] != 2:
            problems.append(f"vertex {v!r} is the target of {inn[v]} arrows, need 2")
    if vertices:
        seen = {vertices[0]}
        stack = [vertices[0]]
        nbr = {v: set() for v in vertices}
        for a, s, t in arrows:
            nbr[s].add(t)
            nbr[t].add(s)
        while stack:
            v = stack.pop()
            for w in nbr[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(vertices):
            problems.append("underlying graph is not connected")
    for a in sorted(src, key=skey):
        fa = f[a]
        if src[fa] != tgt[a]:
            problems.append(
                f"f({a!r}) = {fa!r} starts at {src[fa]!r}, "
                f"but {a!r} ends at {tgt[a]!r}"
            )
    for a in sorted(src, key=skey):
        if f[f[f[a]]] != a:
            problems.append(f"f cubed moves arrow {a!r}")
    return problems


def validate(vertices, arrows, f):
    """Build a TriangulationQuiver, or raise with the full diagnostic list.

    Args:
        vertices: iterable of vertex ids.
        arrows: iterable of (arrow id, source, target) triples.
        f: dict mapping each arrow id to its f-image.

    Returns:
        A TriangulationQuiver.

    Raises:
        QuiverValidationError: listing every violated axiom.
        ValueError: on structurally malformed input.
    """
    vertices = list(vertices)
    arrows = [tuple(a) for a in arrows]
    problems = diagnose(vertices, arrows, f)
    if problems:
        raise QuiverValidationError(problems)
    return TriangulationQuiver(vertices, arrows, f)


def _orbits(arrows, perm):
    """The orbits of a permutation of the arrows, as tuples.

    Arrows are visited in sorted order, so each orbit starts at its least
    member and the orbits come ordered by least member.
    """
    orbits = []
    seen = set()
    for a in sorted(arrows, key=skey):
        if a in seen:
            continue
        orbit = [a]
        cur = perm[a]
        while cur != a:
            orbit.append(cur)
            cur = perm[cur]
        seen.update(orbit)
        orbits.append(tuple(orbit))
    return orbits


def f_orbits(quiver):
    """The f-orbits (triangles and border loops), each from its least arrow."""
    return _orbits(quiver.arrows, quiver.f)


class GData:
    """The g-orbit structure of a triangulation quiver.

    Attributes:
        orbits: list of g-orbits, each a tuple of arrow ids starting at its
            least member; orbits ordered by least member.
        rep: arrow id -> canonical orbit representative (least member).
        n: arrow id -> length of its g-orbit.
    """

    def __init__(self, quiver):
        self.quiver = quiver
        self.g = {a: quiver.g(a) for a in quiver.arrows}
        self.orbits = _orbits(quiver.arrows, self.g)
        self.rep = {}
        self.n = {}
        for orbit in self.orbits:
            for x in orbit:
                self.rep[x] = orbit[0]
                self.n[x] = len(orbit)

    def g_power(self, a, k):
        """g^k(a) for k >= 0."""
        for _ in range(k % self.n[a]):
            a = self.g[a]
        return a


def g_structure(quiver):
    """Compute g and the ordered list of g-orbits."""
    return GData(quiver)


def border(quiver):
    """The border: vertices carrying an f-fixed loop, with their loops.

    Returns:
        (vertices, loops): sorted list of border vertices, and a dict
        vertex -> its f-fixed loop.
    """
    loops = {}
    for a in quiver.arrows:
        if quiver.f[a] == a:
            loops[quiver.src[a]] = a
    return sorted(loops, key=skey), loops


def tetrahedral_reference():
    """The triangulation quiver of the tetrahedron, with fixed labels.

    Six vertices (the edges of a tetrahedron), twelve arrows, four
    f-triangles, four g-orbits of length 3.
    """
    arrows = [
        ("delta", 1, 5), ("eta", 5, 4), ("gamma", 4, 1),
        ("epsilon", 2, 5), ("xi", 5, 3), ("sigma", 3, 2),
        ("rho", 2, 6), ("omega", 6, 4), ("beta", 4, 2),
        ("nu", 1, 6), ("mu", 6, 3), ("alpha", 3, 1),
    ]
    f = {
        "delta": "eta", "eta": "gamma", "gamma": "delta",
        "epsilon": "xi", "xi": "sigma", "sigma": "epsilon",
        "rho": "omega", "omega": "beta", "beta": "rho",
        "nu": "mu", "mu": "alpha", "alpha": "nu",
    }
    return validate([1, 2, 3, 4, 5, 6], arrows, f)


def quiver_isomorphisms(q1, q2, fix_vertices=False):
    """Yield all isomorphisms (vertex_map, arrow_map) from q1 onto q2.

    An isomorphism maps vertices and arrows bijectively, preserving
    sources, targets, and f.  Since bar and f together act transitively on
    the arrows of a connected triangulation quiver, each isomorphism is
    determined by the image of one arrow; candidates are propagated from
    there, so the search is linear per candidate.

    Args:
        q1, q2: validated triangulation quivers.
        fix_vertices: only yield isomorphisms acting as the identity on
            vertex ids (both quivers must then share their vertex set).
    """
    if len(q1.vertices) != len(q2.vertices) or len(q1.arrows) != len(q2.arrows):
        return
    if not q1.arrows:
        return
    a0 = q1.arrows[0]
    for b0 in sorted(q2.arrows, key=skey):
        amap = {a0: b0}
        queue = [a0]
        ok = True
        while queue and ok:
            a = queue.pop()
            b = amap[a]
            for na, nb in ((q1.f[a], q2.f[b]), (q1.bar[a], q2.bar[b])):
                cur = amap.get(na)
                if cur is None:
                    amap[na] = nb
                    queue.append(na)
                elif cur != nb:
                    ok = False
                    break
        if not ok or len(amap) != len(q1.arrows):
            continue
        if len(set(amap.values())) != len(q1.arrows):
            continue
        vmap = {}
        for a, b in amap.items():
            for v, w in ((q1.src[a], q2.src[b]), (q1.tgt[a], q2.tgt[b])):
                cur = vmap.get(v)
                if cur is None:
                    vmap[v] = w
                elif cur != w:
                    ok = False
                    break
            if not ok:
                break
        if not ok or len(set(vmap.values())) != len(q1.vertices):
            continue
        if fix_vertices and any(v != w for v, w in vmap.items()):
            continue
        yield vmap, amap


def is_tetrahedral(quiver):
    """Test whether the quiver is the tetrahedral one, with a witness.

    Returns:
        (True, {"vertex_map": ..., "arrow_map": ...}) with an explicit
        isomorphism onto :func:`tetrahedral_reference`, or
        (False, witness) where the witness names a g-orbit of length != 3
        when one exists (the tetrahedral quiver is the unique one whose
        g-orbits all have length 3).
    """
    gd = g_structure(quiver)
    for o in gd.orbits:
        if len(o) != 3:
            return False, {"violating_orbit": list(o), "orbit_length": len(o)}
    ref = tetrahedral_reference()
    found = None
    for vmap, amap in quiver_isomorphisms(quiver, ref):
        if found is None:
            found = (vmap, amap)
        if all(str(a) == str(r) for a, r in amap.items()):
            found = (vmap, amap)
            break
    if found is not None:
        return True, {"vertex_map": found[0], "arrow_map": found[1]}
    return False, {"reason": "no isomorphism onto the tetrahedral quiver"}
