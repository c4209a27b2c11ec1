"""Check every fast path against its oracle at weight raises 0, 1 and 2.

    python3 tools/check_oracles.py

The tier-1 tests hold each fast path to a slow oracle at weight raises 0
and 1 (up to raise 2: the closed-form products, the block-ordered build,
and the Gram matrix and dual basis up to dimension 300).  This tool makes
the same comparisons, with the same test helpers, up to raise 2 over the
least legal weights:

- products: ``AlgebraTable.basis_product`` on every pair of basis elements
  and ``word_element`` at every length against the arrow walk
  (``assert_products_match_walk`` and ``assert_words_match_walk`` of
  ``tests/test_closed_form.py``);
- rows: the bimodule rank rows of d0, d, R, S and of theta's Casimir map
  against rows built from ``multiply`` (``assert_rows_match_oracle`` of
  ``tests/test_bimodule.py``);
- top: the top-certified bimodule report against the report, and each
  rank, from full-size rows (``assert_top_matches_exact`` there);
- syzygies: four syzygies of every simple module and of every uniserial
  module of an arrow between distinct vertices against the chain oracle,
  with ``pivot_columns`` against ``RowSolver`` pivots on every radical
  (``assert_start_modules_match_oracle`` of ``tests/test_syzygy.py``);
  the uniserial batch against the four-syzygy loop on every arrow whose
  module and whose partner's module live on distinct vertices
  (``assert_batch_matches_four_syzygies`` of ``tests/test_modules.py``);
  the maps of the simple resolutions against maps built from basis
  products (``resolution_maps_match_products`` of
  ``tests/test_resolution_maps.py``);
- form, on every table with a socle: the block-ordered basis against the
  basis built by sorting every word (``assert_build_matches_sort_oracle``
  of ``tests/test_closed_form.py``), the Gram matrix of the symmetrizing
  form and of two random socle forms against the blockwise Gram matrix
  (``assert_gram_matches_blockwise``), and the dual basis against the
  RowSolver dual (``assert_dual_matches_rowsolver``).

``tables`` yields each table once, with the oracles that run on it.
Parameters are seeded per table.  Prints one line of counts per oracle;
prints MISMATCH and exits 1 at the first mismatch.
"""

import collections
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import pytest  # noqa: E402

import surfalg as sa  # noqa: E402

import fixtures as fx  # noqa: E402
from fixtures import (  # noqa: E402
    CASES, FIELDS, KINDS, deformed_triangle, presentation)
from test_bimodule import (  # noqa: E402
    assert_rows_match_oracle, assert_top_matches_exact)
from test_closed_form import (  # noqa: E402
    assert_build_matches_sort_oracle, assert_dual_matches_rowsolver,
    assert_gram_matches_blockwise, assert_products_match_walk,
    assert_words_match_walk)
from test_modules import assert_batch_matches_four_syzygies  # noqa: E402
from test_resolution_maps import resolution_maps_match_products  # noqa: E402
from test_syzygy import assert_start_modules_match_oracle  # noqa: E402

RAISES = (0, 1, 2)

LINES = (
    "closed form equals the walk on {pairs} basis pairs and {words} words "
    "of {products_tables} tables",
    "bimodule rows equal the multiply oracle: {rows} rows of "
    "{rows_tables} tables",
    "top-certified bimodule reports equal the full-row reports: "
    "{top_tables} reports, {not_verified} NOT_VERIFIED",
    "syzygy equals the chain oracle on {modules} modules of {syzygies_tables} "
    "tables; pivot_columns equals RowSolver pivots on {radicals} radicals; "
    "uniserial_period_checks equals the four-syzygy loop on {uniserial} "
    "reports ({partner_reads} with Omega^2 the partner's module); "
    "module_map_from_elements equals the basis-product maps on {maps} "
    "resolution maps",
    "block-ordered build equals the sort oracle on {builds} basis elements, "
    "Gram matrix equals the blockwise Gram on {grams} forms, dual basis "
    "equals the RowSolver dual, of {form_tables} tables",
)


def products(t, n):
    n["pairs"] += assert_products_match_walk(t)
    n["words"] += assert_words_match_walk(t)


def rows(t, n):
    n["rows"] += assert_rows_match_oracle(t)


def top(t, n):
    rep = assert_top_matches_exact(t)
    n["not_verified"] += rep is not None and rep["verdict"] == "NOT_VERIFIED"


def syzygies(t, n):
    modules, radicals = assert_start_modules_match_oracle(t)
    n["modules"] += modules
    n["radicals"] += radicals
    q = t.quiver
    arrows = [a for a in q.arrows
              if all(q.src[b] != q.tgt[b] for b in (a, q.f[t.gd.g[q.f[a]]]))]
    reports = assert_batch_matches_four_syzygies(t, arrows)
    n["uniserial"] += len(reports)
    n["partner_reads"] += sum(r["omega2_is_partner_module"] for r in reports)
    n["maps"] += resolution_maps_match_products(t)


def form(t, n):
    n["builds"] += assert_build_matches_sort_oracle(t)
    n["grams"] += assert_gram_matches_blockwise(
        t, random.Random(f"{t.kind}/{t.field}/{t.dim}"))
    assert_dual_matches_rowsolver(t)


def tables():
    """(label, table, oracles), each table once: every fixture quiver x
    {weighted, biserial, string, deformed where a border exists} x
    {Q, F101} x each raise; the deformed triangle over F2 and Q with a
    nonzero and a zero border at each raise; and the tetrahedral algebras
    a = 1, 2 over Q and F101 (top only)."""
    kinds = sorted(set(CASES) | {(name, kind) for name in fx.ALL_QUIVERS
                                 for kind in KINDS})
    for name, kind in kinds:
        oracles = (((products,) if kind in KINDS else ())
                   + ((form,) if kind != "string" else ())
                   + ((rows, top, syzygies) if (name, kind) in CASES else ()))
        for field in sorted(FIELDS):
            for up in RAISES:
                rng = random.Random(f"{name}/{kind}/{field}/{up}")
                yield f"{name} {kind} +{up}", sa.build_algebra(
                    presentation(name, kind, FIELDS[field], rng, up)), oracles
    deformed = {"F2": sa.PrimeField(2), "Q": sa.QQ}
    for field, border, oracles in (("F2", True, (products, form, rows, top)),
                                   ("F2", False, (products, form)),
                                   ("Q", True, (products, form)),
                                   ("Q", False, (products, form))):
        for up in RAISES:
            rng = random.Random(f"deformed/{field}/{up}"
                                + ("" if border else "/zero"))
            label = "triangle deformed" + ("" if border else " b=0")
            yield f"{label} +{up}", sa.build_algebra(
                deformed_triangle(deformed[field], rng, border, up)), oracles
    for field in sorted(FIELDS):
        for a in (1, 2):
            yield f"tetrahedral a={a}", fx.tetrahedral_algebra(
                a=a, field=FIELDS[field]), (top,)


def run(cases, n):
    """Runs the oracles of each case, counting into ``n``.  Returns 1 at
    the first mismatch, which it prints, else 0."""
    for label, t, oracles in cases:
        for oracle in oracles:
            try:
                oracle(t, n)
            except (AssertionError, pytest.fail.Exception) as err:
                print(f"MISMATCH {oracle.__name__}: {label} over {t.field}, "
                      f"dim {t.dim}: {err!r}")
                return 1
            n[oracle.__name__ + "_tables"] += 1
    return 0


def main():
    if not __debug__:
        print("the oracles are assert statements: run without -O")
        return 2
    n = collections.Counter()
    if run(tables(), n):
        return 1
    print("\n".join(LINES).format_map(n))
    return 0


if __name__ == "__main__":
    sys.exit(main())
