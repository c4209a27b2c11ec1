"""Check ``syzygy`` against the syzygy built from ``AlgebraTable.chain``.

    python3 tools/check_syzygies.py

For every fixture quiver of ``tests/fixtures.py``, the kinds ``weighted``
and, where the quiver has a border, ``deformed`` (seeded border values in
{0, 1}), the fields Q and F101 and each weight raise 0, 1 and 2 over the
least legal weights, it takes every simple module and every uniserial
module of an arrow between distinct vertices, then four successive
syzygies of each.  At every step the kernel dimensions, the kernel arrow
matrices and the cover certificate of ``syzygy`` must equal those of
``chain_syzygy`` in ``tests/test_syzygy.py``, whose tests run the least
weights only.  On every module it meets it also checks that the
pivots-only elimination ``pivot_columns`` of each vertex's radical rows
picks the pivots of a ``RowSolver`` on them, the generators' complement.
On the same tables, ``uniserial_period_checks`` over every arrow whose
module and whose partner's module (f(g(f(arrow)))) both live on distinct
vertices must equal the four-syzygy loop ``four_syzygy_check`` of
``tests/test_modules.py``, arrow by arrow; on most non-tetrahedral tables
Omega^2 is not the partner's module, so both of the batch's paths run.
On the same tables again, the maps pi1, pi2 and pi3 of the simple
resolution at every vertex, which ``module_map_from_elements`` reads off
the codomain's arrow matrices, must equal row for row the maps built from
closed-form basis products, ``product_map_from_elements`` of
``tests/test_resolution_maps.py``, whose tests run weight raises 0 and 1.
Prints the number of modules, tables, radicals, uniserial reports and
resolution maps compared; exits 1 at the first mismatch.
"""

import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import surfalg as sa  # noqa: E402

from surfalg.linalg import RowSolver, pivot_columns  # noqa: E402
from test_closed_form import FIELDS  # noqa: E402
from test_modules import four_syzygy_check  # noqa: E402
from test_resolution_maps import resolution_maps_match_products  # noqa: E402
from test_syzygy import (  # noqa: E402
    CASES, chain_syzygy, presentation, start_modules)

RAISES = (0, 1, 2)
STEPS = 4


def main():
    rng = random.Random(7)
    modules = tables = radicals = 0
    uniserial = partner_reads = maps = 0
    for name, kind in CASES:
        for field in sorted(FIELDS):
            for up in RAISES:
                t = sa.build_algebra(presentation(name, kind, FIELDS[field],
                                                  rng, up))
                q = t.quiver
                for module in start_modules(t):
                    for step in range(STEPS):
                        for v in q.vertices:
                            rows = [row for a in q.arrows if q.tgt[a] == v
                                    for row in module.mats[a]]
                            if pivot_columns(rows, t.field) != set(
                                    RowSolver(rows, t.field).pivots):
                                print(f"PIVOT MISMATCH {name} {kind} over "
                                      f"{t.field} dim {t.dim}, radical at "
                                      f"{v} of a module of dim "
                                      f"{module.total_dim}")
                                return 1
                            radicals += 1
                        kernel, info = sa.syzygy(module)
                        expect, expect_info = chain_syzygy(module)
                        if (info != expect_info or kernel.dims != expect.dims
                                or kernel.mats != expect.mats):
                            print(f"MISMATCH {name} {kind} over {t.field} "
                                  f"dim {t.dim}, syzygy {step + 1} of a "
                                  f"module of dim {module.total_dim}: "
                                  f"{info} against {expect_info}")
                            return 1
                        modules += 1
                        module = kernel
                arrows = [a for a in q.arrows
                          if distinct_ends(q, a)
                          and distinct_ends(q, q.f[t.gd.g[q.f[a]]])]
                expect = [four_syzygy_check(t, a) for a in arrows]
                if sa.uniserial_period_checks(t, arrows) != expect:
                    print(f"UNISERIAL MISMATCH {name} {kind} over {t.field} "
                          f"dim {t.dim}")
                    return 1
                uniserial += len(expect)
                partner_reads += sum(r["omega2_is_partner_module"]
                                     for r in expect)
                try:
                    maps += resolution_maps_match_products(t)
                except AssertionError as err:
                    print(f"MAP MISMATCH {name} {kind} over {t.field} "
                          f"dim {t.dim} at (vertex, map[, row vertex]) {err}")
                    return 1
                tables += 1
    print(f"syzygy equals the chain oracle on {modules} modules "
          f"of {tables} tables; pivot_columns equals RowSolver pivots on "
          f"{radicals} radicals; uniserial_period_checks equals the "
          f"four-syzygy loop on {uniserial} reports "
          f"({partner_reads} with Omega^2 the partner's module); "
          f"module_map_from_elements equals the basis-product maps on "
          f"{maps} resolution maps")
    return 0


def distinct_ends(q, a):
    return q.src[a] != q.tgt[a]


if __name__ == "__main__":
    sys.exit(main())
