"""Syzygies and the prefix products behind their cover maps.

``RightModule.act_words`` and ``syzygy`` are checked against the slow paths
they replace: each basis element's word applied arrow by arrow from
``AlgebraTable.chain``, and the syzygy whose cover map is built that way,
with its rank taken by a separate elimination, its generators read off a
transform-tracking ``RowSolver`` of the radical, and its kernel action
solved by a second ``RowSolver`` on the kernel basis.  So the oracle
shares no elimination with ``syzygy`` but the one of the cover map's
left kernel.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import surfalg as sa
from surfalg.algebra import el_scale
from surfalg.linalg import RowSolver
from surfalg import modules
from surfalg.modules import ModuleMap, projective_sum

import fixtures as fx
from test_closed_form import FIELDS, least_weights, nonzero


def chain_act_words(module, vec, v):
    """vec . b_k for every b_k of e_v A, each word applied arrow by arrow."""
    table = module.table
    out = {}
    for k in table.basis_of(source=v):
        scale, arrows = table.chain(k)
        img = module.act_path(vec, arrows)
        out[k] = el_scale(table.field, scale, img)
    return out


def radical_profile(module):
    """Per-vertex radical row spaces, as RowSolver objects."""
    q = module.table.quiver
    return {v: RowSolver([row for a in q.arrows if q.tgt[a] == v
                          for row in module.mats[a]], module.table.field)
            for v in q.vertices}


def chain_syzygy(module):
    """The syzygy with its cover map built from ``chain``, as it once was."""
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
            scale, arrows = table.chain(k)
            mat.append(el_scale(field, scale,
                                module.act_path({col: field.one}, arrows)))
        hmats[w] = mat
    h = ModuleMap(cover, module, hmats)
    surjective = h.rank() == module.total_dim
    kbasis = {w: RowSolver(hmats[w], field).kernel() for w in q.vertices}
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
    kernel = sa.RightModule.from_rows(table, kdims, kmats)
    info = {
        "cover_components": [v for v, _ in gens],
        "cover_dim": cover.total_dim,
        "surjective": surjective,
        "minimal": minimal,
    }
    return kernel, info


def presentation(name, kind, field, rng, raise_by=0):
    """A fixture quiver's presentation at raised weights, with seeded
    nonzero parameters and, for ``deformed``, border values in {0, 1}."""
    q = fx.ALL_QUIVERS[name]()
    m = {rep: w + raise_by for rep, w in least_weights(name, q).items()}
    c = {rep: nonzero(field, rng) for rep in m}
    b = None
    if kind == "deformed":
        b = {v: field.of_int(rng.randrange(2)) for v in sa.border(q)[0]}
    return sa.Presentation(q, kind=kind, field=field, m=m, c=c, b=b)


def algebra_cases():
    """(quiver name, kind) for every fixture quiver, deformed where a border
    exists."""
    cases = []
    for name in sorted(fx.ALL_QUIVERS):
        cases.append((name, "weighted"))
        if sa.border(fx.ALL_QUIVERS[name]())[0]:
            cases.append((name, "deformed"))
    return cases


CASES = algebra_cases()
# act_words serves every kind: string algebras stop at words of length
# mn - 2 and have no socle element.
WORD_CASES = CASES + [(name, kind) for name in sorted(fx.ALL_QUIVERS)
                      for kind in ("biserial", "string")]


def start_modules(table):
    """The simple modules, and the uniserial module of every arrow between
    distinct vertices that satisfies the relations."""
    mods = [sa.simple_module(table, v) for v in table.quiver.vertices]
    for a in table.quiver.arrows:
        try:
            mods.append(sa.uniserial_module(table, a))
        except ValueError:
            pass
    return mods


def assert_syzygy_matches_oracle(module, steps):
    """Both syzygies agree along ``steps`` successive syzygies."""
    for _ in range(steps):
        kernel, info = sa.syzygy(module)
        expect, expect_info = chain_syzygy(module)
        assert info == expect_info
        assert kernel.dims == expect.dims
        assert kernel.mats == expect.mats
        module = kernel


def assert_words_match_chain(module, rng):
    field = module.table.field
    for v in module.table.quiver.vertices:
        n = module.dims[v]
        vecs = [{i: field.one} for i in range(n)]
        if n:
            vecs.append({i: nonzero(field, rng) for i in range(n)
                         if rng.random() < 0.5})
        for vec in vecs:
            assert module.act_words(vec, v) == chain_act_words(module, vec, v)


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("name,kind", WORD_CASES)
def test_act_words_matches_chain(name, kind, field):
    rng = random.Random(f"{name}/{kind}/{field}")
    t = sa.build_algebra(presentation(name, kind, FIELDS[field], rng))
    regular = projective_sum(t, t.quiver.vertices)
    assert_words_match_chain(regular, rng)
    v = t.quiver.vertices[0]
    radical, _ = chain_syzygy(sa.simple_module(t, v))
    assert_words_match_chain(radical, rng)


@settings(max_examples=12, deadline=None)
@given(st.data())
def test_act_words_matches_chain_random(data):
    name, kind = data.draw(st.sampled_from(WORD_CASES))
    q = fx.ALL_QUIVERS[name]()
    field = FIELDS[data.draw(st.sampled_from(sorted(FIELDS)))]
    m, c = {}, {}
    for rep, least in least_weights(name, q).items():
        m[rep] = data.draw(st.integers(least, max(least, 3)))
        if field.char == 0:
            num = data.draw(st.integers(1, 9)) * data.draw(
                st.sampled_from((1, -1)))
            c[rep] = Fraction(num, data.draw(st.integers(1, 9)))
        else:
            c[rep] = data.draw(st.integers(1, field.char - 1))
    b = None
    if kind == "deformed":
        b = {v: data.draw(st.integers(0, 2)) for v in sa.border(q)[0]}
        if field.char == 0:
            b = {v: Fraction(x) for v, x in b.items()}
    t = sa.build_algebra(sa.Presentation(q, kind=kind, field=field,
                                         m=m, c=c, b=b))
    rng = random.Random(data.draw(st.integers(0, 2 ** 16)))
    assert_words_match_chain(projective_sum(t, t.quiver.vertices), rng)


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("name,kind", CASES)
def test_syzygy_matches_chain_oracle(name, kind, field):
    rng = random.Random(f"{name}/{kind}/{field}")
    t = sa.build_algebra(presentation(name, kind, FIELDS[field], rng))
    for module in start_modules(t):
        assert_syzygy_matches_oracle(module, 4)


def test_syzygy_matches_chain_oracle_deformed_f2():
    t = fx.deformed_triangle_f2()
    for module in start_modules(t):
        assert_syzygy_matches_oracle(module, 4)


def test_syzygy_reports_a_cover_that_is_not_onto():
    # Not a module: the triangle alpha beta gamma acts by the identity on
    # the first coordinate at vertex 1, so that coordinate lies in the
    # radical and is never reached from the one generator, x1.
    t = fx.triangle_algebra()
    one = t.field.one
    mats = {a: [{} for _ in range(2 if t.quiver.src[a] == 1 else 1)]
            for a in t.quiver.arrows}
    for a in t.quiver.arrows:
        if t.quiver.src[a] != t.quiver.tgt[a]:
            mats[a] = [{0: one}] + [{}] * (len(mats[a]) - 1)
    fake = sa.RightModule.from_rows(t, {1: 2, 2: 1, 3: 1}, mats)
    kernel, info = sa.syzygy(fake)
    assert info["cover_components"] == [1]
    assert info["surjective"] is False
    expect, expect_info = chain_syzygy(fake)
    assert info == expect_info
    assert kernel.mats == expect.mats


def test_cover_map_takes_one_arrow_step_per_cover_basis_element(monkeypatch):
    steps = []
    act_path = sa.RightModule.act_path

    def counted(self, vec, arrows):
        steps.append((self, len(arrows)))
        return act_path(self, vec, arrows)

    monkeypatch.setattr(sa.RightModule, "act_path", counted)
    t = fx.triangle_algebra(m=16)
    module = sa.simple_module(t, 1)
    for _ in range(4):
        steps.clear()
        kernel, info = sa.syzygy(module)
        assert info["surjective"] and info["minimal"]
        on_module = sum(n for mod, n in steps if mod is module)
        assert on_module <= info["cover_dim"]
        module = kernel
    assert module.total_dim == 1


def test_syzygy_rejects_a_kernel_that_is_not_arrow_stable(monkeypatch):
    # A cover arrow that sends a radical coordinate to the generator e_v
    # is no module map: the kernel vectors through that coordinate leave
    # the kernel, which has no entry at e_v.
    t = fx.triangle_algebra()
    q, v = t.quiver, 1
    real = modules.projective_sum

    def corrupted(table, vertices):
        p = real(table, vertices)
        a = next(a for a in q.arrows if q.tgt[a] == vertices[0])
        e = {w: p.layout_pos[w].get((0, table.index[("e", w)]))
             for w in (q.src[a], q.tgt[a])}
        row = next(i for i in range(p.dims[q.src[a]]) if i != e[q.src[a]])
        p.mats[a][row] = {e[q.tgt[a]]: table.field.one}
        return p

    monkeypatch.setattr(modules, "projective_sum", corrupted)
    with pytest.raises(AssertionError, match="kernel is not arrow-stable"):
        sa.syzygy(sa.simple_module(t, v))


def test_syzygy_runs_one_elimination_per_vertex(monkeypatch):
    calls = {"RowSolver": 0, "solve": 0}
    init, solve = RowSolver.__init__, RowSolver.solve

    def counted_init(self, rows, field):
        calls["RowSolver"] += 1
        init(self, rows, field)

    def counted_solve(self, target):
        calls["solve"] += 1
        return solve(self, target)

    monkeypatch.setattr(RowSolver, "__init__", counted_init)
    monkeypatch.setattr(RowSolver, "solve", counted_solve)
    t = fx.triangle_algebra(m=4)
    module = sa.simple_module(t, 1)
    for _ in range(4):
        calls.update(RowSolver=0, solve=0)
        module, info = sa.syzygy(module)
        assert info["surjective"] and info["minimal"]
        assert calls == {"RowSolver": len(t.quiver.vertices), "solve": 0}
    assert module.total_dim == 1


def sheared(module, v, src, dst):
    """The module with its basis at v changed so that x'[dst] = x[dst] +
    x[src]: rows into v move their src entry onto dst too, and row src of
    each arrow out of v loses row dst.  Rows are kept sorted by column."""
    q, field = module.table.quiver, module.table.field
    mats = {}
    for a in q.arrows:
        rows = [dict(r) for r in module.mats[a]]
        if q.src[a] == v:
            field.axpy(rows[src], rows[dst].items(), field.neg(field.one))
        if q.tgt[a] == v:
            for r in rows:
                if src in r:
                    field.axpy(r, ((dst, r[src]),), field.one)
        mats[a] = [dict(sorted(r.items())) for r in rows]
    return sa.RightModule.from_rows(module.table, dict(module.dims), mats)


def test_syzygy_takes_generators_by_the_least_key_pivot():
    # The radical of P_1 + P_1 over the triangle algebra has 16 coordinates
    # at vertex 2, tops 0 and 8, and the radical row {10: 1}.  Moving the
    # top 8 by coordinate 10 makes that row {8: 1, 10: 1}.  Its least-key
    # pivot is 10, since "10" < "8", so 8 stays a generator; a pivot taken
    # as the row's first column would make the radical coordinate 10 one,
    # and so change the cover map and the kernel's basis.
    t = fx.triangle_algebra(m=2)
    q, one = t.quiver, t.field.one
    double = sa.RightModule(t, {1: 2}, {}, check_relations=False)
    module = sheared(sa.syzygy(double)[0], 2, 10, 8)
    assert not module.violated_relations()
    radical = [row for a in q.arrows if q.tgt[a] == 2
               for row in module.mats[a]]
    assert {8: one, 10: one} in radical
    assert list(next(r for r in radical if 8 in r)) == [8, 10]
    assert_syzygy_matches_oracle(module, 2)
