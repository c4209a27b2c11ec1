"""Quiver validation, g-structure, border, and tetrahedral detection."""

import pytest

import surfalg as sa
from surfalg.quiver import skey

import fixtures as fx


def test_fixture_quivers_validate():
    for name, build in fx.ALL_QUIVERS.items():
        q = build()
        assert len(q.arrows) == 2 * len(q.vertices), name


def test_structural_errors_raise_value_error():
    with pytest.raises(ValueError):
        sa.validate([1, 1, 2], [("a", 1, 2)], {"a": "a"})
    with pytest.raises(ValueError):
        sa.validate([1, 2], [("a", 1, 3)], {"a": "a"})
    with pytest.raises(ValueError):
        sa.validate([1, 2], [("a", 1, 2), ("a", 2, 1)], {"a": "a"})
    with pytest.raises(ValueError):
        # f not a permutation of the arrows
        sa.validate([1, 2], [("a", 1, 2), ("b", 2, 1)], {"a": "a", "b": "a"})


def test_diagnose_reports_axiom_violations():
    # too few vertices and f not matching targets
    d = sa.diagnose([1, 2],
                    [("a", 1, 2), ("b", 2, 1), ("c", 1, 2), ("d", 2, 1)],
                    {"a": "b", "b": "a", "c": "d", "d": "c"})
    assert any("at least 3" in x for x in d)
    q = fx.triangle_quiver()
    assert sa.diagnose(list(q.vertices),
                       [(a, q.src[a], q.tgt[a]) for a in q.arrows],
                       dict(q.f)) == []


def test_f_permutation_axioms():
    for name, build in fx.ALL_QUIVERS.items():
        q = build()
        for a in q.arrows:
            assert q.src[q.f[a]] == q.tgt[a], name
            assert q.f[q.f[q.f[a]]] == a, name


def test_bar_swaps_parallel_starts():
    q = fx.triangle_quiver()
    assert q.bar["alpha"] == "epsilon"
    assert q.bar["epsilon"] == "alpha"
    for name, build in fx.ALL_QUIVERS.items():
        qq = build()
        for a in qq.arrows:
            b = qq.bar[a]
            assert b != a and qq.src[b] == qq.src[a], name
            assert qq.bar[b] == a, name


def test_g_orbit_of_triangle_quiver():
    gd = sa.g_structure(fx.triangle_quiver())
    assert gd.orbits == [("alpha", "eta", "beta", "mu", "gamma", "epsilon")]
    assert gd.n["alpha"] == 6


def test_g_orbits_of_double_projective_quiver():
    gd = sa.g_structure(fx.double_projective_quiver())
    as_sets = {frozenset(o) for o in gd.orbits}
    assert as_sets == {frozenset({"alpha"}), frozenset({"rho"}),
                       frozenset({"beta", "delta", "sigma", "gamma"})}
    # each orbit is listed as consecutive g-steps
    q = fx.double_projective_quiver()
    for o in gd.orbits:
        for i, a in enumerate(o):
            assert q.g(a) == o[(i + 1) % len(o)]


def test_g_follows_f_then_bar():
    for build in fx.ALL_QUIVERS.values():
        q = build()
        for a in q.arrows:
            assert q.g(a) == q.bar[q.f[a]]
            # the f-step out of any arrow is bar of the g-step
            assert q.f[a] == q.bar[q.g(a)]


def test_border_of_triangle_quiver():
    verts, loops = sa.border(fx.triangle_quiver())
    assert verts == [1, 2, 3]
    assert loops == {1: "epsilon", 2: "eta", 3: "mu"}


def test_border_empty_without_fixed_points():
    for name in ("sphere_coherent", "sphere_opposite", "tetrahedral"):
        verts, loops = sa.border(fx.ALL_QUIVERS[name]())
        assert verts == [] and loops == {}, name


def test_tetrahedral_detection():
    ok, wit = sa.is_tetrahedral(fx.tetrahedral_quiver())
    assert ok
    # identity labeling is preferred when available
    assert all(str(a) == str(r) for a, r in wit["arrow_map"].items())
    ok2, wit2 = sa.is_tetrahedral(fx.tetrahedral_reversed_quiver())
    assert not ok2
    assert len(wit2["violating_orbit"]) == 9
    ok3, _ = sa.is_tetrahedral(fx.triangle_quiver())
    assert not ok3


def test_isomorphism_respects_relabeling():
    q = fx.tetrahedral_quiver()
    renamed = sa.validate(
        [v * 10 for v in q.vertices],
        [(a.upper(), q.src[a] * 10, q.tgt[a] * 10) for a in q.arrows],
        {a.upper(): q.f[a].upper() for a in q.arrows})
    isos = list(sa.quiver_isomorphisms(q, renamed))
    assert isos
    vmap, amap = isos[0]
    for a in q.arrows:
        assert amap[q.f[a]] == renamed.f[amap[a]]
        assert vmap[q.src[a]] == renamed.src[amap[a]]
    ok, _ = sa.is_tetrahedral(renamed)
    assert ok


def enumerated_tetrahedral_witness(quiver):
    """``is_tetrahedral``'s choice by the full enumeration: the first
    isomorphism onto the reference that keeps every arrow's ``str`` label,
    or else the first one."""
    found = None
    for vmap, amap in sa.quiver_isomorphisms(quiver,
                                             sa.tetrahedral_reference()):
        if found is None:
            found = (vmap, amap)
        if all(str(a) == str(r) for a, r in amap.items()):
            found = (vmap, amap)
            break
    return {"vertex_map": found[0], "arrow_map": found[1]}


def relabelled(q, vertex, arrow):
    return sa.validate([vertex(v) for v in q.vertices],
                       [(arrow(a), vertex(q.src[a]), vertex(q.tgt[a]))
                        for a in q.arrows],
                       {arrow(a): arrow(q.f[a]) for a in q.arrows})


def test_tetrahedral_witness_matches_full_enumeration():
    ref = sa.tetrahedral_reference()
    labels = [str(a) for a in ref.arrows]
    rotated = dict(zip(labels, labels[1:] + labels[:1]))
    quivers = [
        ref,
        relabelled(ref, lambda v: v * 10, str.upper),
        relabelled(ref, str, lambda a: "x" + a),
        # the reference labels on other vertices
        relabelled(ref, lambda v: 7 - v, lambda a: a),
        # the reference's set of labels, moved to other arrows
        relabelled(ref, lambda v: v, rotated.get),
    ]
    for q in quivers:
        ok, wit = sa.is_tetrahedral(q)
        assert ok
        assert wit == enumerated_tetrahedral_witness(q)
    assert sa.tetrahedral_reference() is not sa.tetrahedral_reference()


def test_non_isomorphic_quivers_have_no_isomorphism():
    assert not list(sa.quiver_isomorphisms(
        fx.sphere_coherent_quiver(), fx.sphere_opposite_quiver()))
    assert not list(sa.quiver_isomorphisms(
        fx.tetrahedral_quiver(), fx.tetrahedral_reversed_quiver()))


def test_out_and_in_arrows_sorted_and_complete():
    for build in fx.ALL_QUIVERS.values():
        q = build()
        for v in q.vertices:
            out = q.out_arrows(v)
            assert len(out) == 2
            assert list(out) == sorted(out, key=skey)
            assert all(q.src[a] == v for a in out)
            inn = q.in_arrows(v)
            assert len(inn) == 2
            assert all(q.tgt[a] == v for a in inn)
