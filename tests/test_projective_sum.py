"""``projective_sum`` against the tuple-keyed build it replaced.

``projective_sum`` gives each summand's basis elements their coordinates
in one dict per summand, ``coords``, and reads every right product
through it.  The oracle builds the module as it once was: a position per
(summand, basis index) pair inverted from ``layout``, and each row of an
arrow through it, with one such pair per entry.  ``dims``, ``layout``,
``coords``, ``components`` and every row of every arrow must be equal,
in their order too.
"""

import random

import pytest

import surfalg as sa
from surfalg.modules import projective_sum

from fixtures import FIELDS, WORD_CASES, presentation


def tuple_keyed_projective_sum(table, vertices):
    """(dims, mats, layout, coords) of the projective sum, each row keyed
    through the (summand, basis index) positions inverted from
    ``layout``, and ``coords[j]`` read off them in basis order."""
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
    coords = [{k: pos[table.tgt_of[k]][(j, k)]
               for k in table.basis_of(source=v)}
              for j, v in enumerate(vertices)]
    return dims, mats, layout, coords


def ordered(mapping):
    """A dict of dicts or of lists of dicts, with every order kept."""
    return [(key, [list(r.items()) for r in val] if isinstance(val, list)
             else list(val.items())) for key, val in mapping.items()]


@pytest.mark.parametrize("raise_by", [0, 1])
@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("name,kind", WORD_CASES)
def test_projective_sum_matches_tuple_keyed_build(name, kind, field,
                                                  raise_by):
    rng = random.Random(f"{name}/{kind}/{field}/{raise_by}")
    t = sa.build_algebra(
        presentation(name, kind, FIELDS[field], rng, raise_by))
    vs = t.quiver.vertices
    for vertices in ([vs[0]], [vs[0], vs[1]], [vs[1], vs[1]], list(vs), []):
        p = projective_sum(t, vertices)
        dims, mats, layout, coords = tuple_keyed_projective_sum(t, vertices)
        assert list(p.dims.items()) == list(dims.items())
        assert list(p.layout.items()) == list(layout.items())
        assert [list(c.items()) for c in p.coords] == \
            [list(c.items()) for c in coords]
        assert p.components == tuple(vertices)
        assert ordered(p.mats) == ordered(mats)


def test_projective_sum_builds_fresh_rows():
    t = sa.build_algebra(presentation("triangle", "weighted", FIELDS["Q"],
                                      random.Random(0), 1))
    vs = list(t.quiver.vertices) * 2
    first, second = projective_sum(t, vs), projective_sum(t, vs)
    rows = [row for p in (first, second) for mat in p.mats.values()
            for row in mat]
    assert len({id(row) for row in rows}) == len(rows)
