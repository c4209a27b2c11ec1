"""The maps of the simple resolutions, against the products they replace.

``module_map_from_elements`` reads each map between projective sums off the
codomain's own arrow matrices, one ``RightModule.act_words`` walk per
domain summand.  The oracle here builds the same map as it once was: every
row as the sum, over the terms cf b_i of the elements, of cf times the
closed-form product ``AlgebraTable.basis_product(i, k)``.  The rows of pi1,
pi2 and pi3 must be equal at every vertex.
"""

import random

import pytest

import surfalg as sa
from surfalg import modules
from surfalg.modules import ModuleMap

import fixtures as fx
from fixtures import CASES, FIELDS, presentation


def product_map_from_elements(elems, domain, codomain):
    """The map of left multiplications by ``elems``, each row a sum of
    closed-form basis products."""
    table = domain.table
    field = table.field
    mats = {}
    coords = codomain.coords
    for w in table.quiver.vertices:
        mat = []
        for j, k in domain.layout[w]:
            row = {}
            for l, line in enumerate(elems):
                for i, cf in (line[j] or {}).items():
                    field.axpy(row, ((coords[l][k2], c2)
                                     for k2, c2 in table.basis_product(i, k)),
                               cf)
            mat.append(row)
        mats[w] = mat
    return ModuleMap(domain, codomain, mats)


def product_resolution_maps(table, v, seen=None):
    """pi1, pi2 and pi3 of ``_resolution_maps`` with every map built by
    ``product_map_from_elements``.  The elements of each map are appended
    to ``seen`` when it is given."""
    def oracle(elems, domain, codomain):
        if seen is not None:
            seen.append(elems)
        return product_map_from_elements(elems, domain, codomain)

    real = modules.module_map_from_elements
    modules.module_map_from_elements = oracle
    try:
        return modules._resolution_maps(table, v)[2:]
    finally:
        modules.module_map_from_elements = real


def resolution_maps_match_products(table):
    """The number of maps compared; raises AssertionError at the first map
    whose rows differ from the oracle's at some vertex."""
    count = 0
    for v in table.quiver.vertices:
        maps = modules._resolution_maps(table, v)[2:]
        for name, got, want in zip(("pi1", "pi2", "pi3"), maps,
                                   product_resolution_maps(table, v)):
            assert got.domain.dims == want.domain.dims, (v, name)
            assert got.codomain.dims == want.codomain.dims, (v, name)
            for w in table.quiver.vertices:
                assert got.mats[w] == want.mats[w], (v, name, w)
            count += 1
    return count


@pytest.mark.parametrize("up", [0, 1])
@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("name,kind", CASES)
def test_resolution_maps_match_products(name, kind, field, up):
    rng = random.Random(f"maps/{name}/{kind}/{field}/{up}")
    t = sa.build_algebra(presentation(name, kind, FIELDS[field], rng, up))
    assert resolution_maps_match_products(t) == 3 * len(t.quiver.vertices)


def test_resolution_maps_match_products_deformed_f2():
    # a nonzero border gives phi1 and psi0 a second term, b times a word
    t = fx.deformed_triangle_f2()
    seen = []
    for v in t.quiver.vertices:
        product_resolution_maps(t, v, seen)
    pi2_elems = seen[1::3]
    assert all(len(e[1][0]) == 2 and len(e[0][1]) == 2 for e in pi2_elems)
    assert resolution_maps_match_products(t) == 9


@pytest.mark.parametrize("build", [
    lambda: fx.triangle_algebra(m=4),
    fx.deformed_triangle_f2,
    lambda: fx.tetrahedral_algebra(field=sa.PrimeField(101)),
], ids=["triangle_m4", "deformed_triangle_f2", "singular_tetrahedral"])
def test_simple_checks_ask_for_no_basis_product(build, monkeypatch):
    t = build()
    calls = []
    product = sa.AlgebraTable.basis_product

    def counted(self, i, j):
        calls.append((i, j))
        return product(self, i, j)

    monkeypatch.setattr(sa.AlgebraTable, "basis_product", counted)
    for v in t.quiver.vertices:
        sa.verify_simple_resolution(t, v)
        modules.read_simple_syzygies(t, v)
    assert calls == []
