"""Directed triangulated surfaces and their triangulation quivers.

A directed triangulation is a multiset of oriented triangles over an edge
set, plus a set of boundary edges.  Each edge occupies exactly two slots,
where a slot is either a side of a triangle (a self-folded triangle
(a, a, b) gives its doubled edge two slots) or a boundary marking.  The
associated quiver has the edges as vertices, one arrow per triangle side
following the orientation, and one f-fixed loop per boundary edge.
"""

from . import quiver as qv
from .quiver import skey


class DirectedTriangulation:
    """A validated directed triangulated surface. Build via :func:`validate_surface`."""

    def __init__(self, edges, triangles, boundary):
        self.edges = tuple(edges)
        self.triangles = tuple(tuple(t) for t in triangles)
        self.boundary = tuple(sorted(boundary, key=skey))

    def is_self_folded(self, triangle):
        return len(set(triangle)) < 3

    def to_json(self):
        return {
            "edges": list(self.edges),
            "triangles": [
                {"edges": list(t), "selfFolded": self.is_self_folded(t)}
                for t in self.triangles
            ],
            "boundary": list(self.boundary),
        }

    def __repr__(self):
        return (f"DirectedTriangulation({len(self.edges)} edges, "
                f"{len(self.triangles)} triangles, "
                f"{len(self.boundary)} boundary)")


def validate_surface(edges, triangles, boundary=()):
    """Build a DirectedTriangulation, checking the two-slot invariant.

    Args:
        edges: iterable of edge ids.
        triangles: iterable of oriented triangles, each a triple of edge
            ids; a self-folded triangle repeats its folded edge in the
            first two positions, (a, a, b).
        boundary: iterable of boundary edge ids.

    Returns:
        A DirectedTriangulation.

    Raises:
        ValueError: on duplicate ids, unknown edges, triangles of the wrong
            shape, or an edge not occupying exactly two slots.
    """
    edges = list(edges)
    seen = set()
    for e in edges:
        if e in seen:
            raise ValueError(f"duplicate edge id {e!r}")
        seen.add(e)
    eset = set(edges)
    triangles = [tuple(t) for t in triangles]
    for t in triangles:
        if len(t) != 3:
            raise ValueError(f"triangle {t!r} does not have 3 sides")
        for e in t:
            if e not in eset:
                raise ValueError(f"triangle {t!r} uses unknown edge {e!r}")
        if len(set(t)) == 1:
            raise ValueError(f"triangle {t!r} repeats a single edge three times")
        if len(set(t)) == 2 and t[0] != t[1]:
            raise ValueError(
                f"self-folded triangle {t!r} must repeat its folded edge "
                f"in the first two positions"
            )
    boundary = list(boundary)
    bset = set()
    for e in boundary:
        if e in bset:
            raise ValueError(f"duplicate boundary edge {e!r}")
        if e not in eset:
            raise ValueError(f"unknown boundary edge {e!r}")
        bset.add(e)
    slots = {e: 0 for e in edges}
    for t in triangles:
        for e in t:
            slots[e] += 1
    for e in boundary:
        slots[e] += 1
    bad = [e for e in sorted(edges, key=skey) if slots[e] != 2]
    if bad:
        detail = ", ".join(f"{e!r} has {slots[e]}" for e in bad)
        raise ValueError(f"each edge must occupy exactly two slots: {detail}")
    return DirectedTriangulation(edges, triangles, boundary)


def quiver_from_surface(surface):
    """The triangulation quiver of a directed triangulated surface.

    Vertices are the edges.  Triangle k with sides (a, b, c) contributes
    arrows ``tk_0: a -> b``, ``tk_1: b -> c``, ``tk_2: c -> a`` forming an
    f-orbit; each boundary edge e contributes an f-fixed loop ``bd_e``.
    Arrow names are deterministic in triangle order and slot order.
    """
    arrows = []
    f = {}
    for k, t in enumerate(surface.triangles):
        names = [f"t{k}_{s}" for s in range(3)]
        for s in range(3):
            arrows.append((names[s], t[s], t[(s + 1) % 3]))
            f[names[s]] = names[(s + 1) % 3]
    for e in surface.boundary:
        name = f"bd_{e}"
        arrows.append((name, e, e))
        f[name] = name
    return qv.validate(list(surface.edges), arrows, f)


def surface_from_quiver(quiver):
    """The directed triangulated surface of a triangulation quiver.

    Inverts :func:`quiver_from_surface` up to relabeling: each f-orbit of
    length 3 becomes an oriented triangle of source vertices, each f-fixed
    loop a boundary edge.  Triangles are rotated canonically (a self-folded
    one starts at its doubled edge, otherwise the rotation is
    lexicographically least) and listed in sorted order.
    """
    triangles = []
    boundary = []
    for orbit in qv.f_orbits(quiver):
        a = orbit[0]
        if len(orbit) == 1:
            boundary.append(quiver.src[a])
            continue
        if len(orbit) != 3:
            raise ValueError(
                f"f-orbit of {a!r} has length {len(orbit)}, expected 1 or 3"
            )
        tri = tuple(quiver.src[x] for x in orbit)
        rotations = [tuple(tri[i:] + tri[:i]) for i in range(3)]
        folded = [r for r in rotations if r[0] == r[1]]
        if folded:
            tri = folded[0]
        else:
            tri = min(rotations, key=lambda r: tuple(skey(e) for e in r))
        triangles.append(tri)
    triangles.sort(key=lambda t: tuple(skey(e) for e in t))
    boundary.sort(key=skey)
    return validate_surface(list(quiver.vertices), triangles, boundary)
