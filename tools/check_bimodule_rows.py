"""Check the bimodule rank rows against rows built from ``multiply``.

    python3 tools/check_bimodule_rows.py

For every fixture quiver of ``tests/fixtures.py``, the kinds ``weighted``
and, where the quiver has a border, ``deformed`` (seeded border values in
{0, 1}), the fields Q and F101 and each weight raise 0, 1 and 2 over the
least legal weights, plus the deformed triangle over F2 with a nonzero
border at the same raises, it builds the rows of d0, d, R and S (full and
unit rows) and the unit rows of theta's Casimir map.  Each must equal
``oracle_keyed_rows`` of ``tests/test_bimodule.py``, whose tests run
raises 0 and 1 only: the same block keys, in the same order, with equal
rows.  R's generator images must also equal ``walk_R_images`` there, the
relation paths lifted with every prefix and suffix multiplied out by the
arrow walk of ``tests/fixtures.py``.  Prints the number of rows and
tables compared; exits 1 at the first mismatch.
"""

import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import surfalg as sa  # noqa: E402

from test_bimodule import (  # noqa: E402
    oracle_keyed_rows, row_cases, walk_R_images)
from test_closed_form import FIELDS, deformed_triangle  # noqa: E402
from test_syzygy import CASES, presentation  # noqa: E402

RAISES = (0, 1, 2)


def tables():
    for name, kind in CASES:
        for field in sorted(FIELDS):
            for up in RAISES:
                rng = random.Random(f"{name}/{kind}/{field}/{up}")
                yield f"{name} {kind} +{up}", sa.build_algebra(
                    presentation(name, kind, FIELDS[field], rng, up))
    for up in RAISES:
        rng = random.Random(f"deformed/F2/{up}")
        yield f"triangle deformed +{up}", sa.build_algebra(
            deformed_triangle(sa.PrimeField(2), rng, True, up))


def main():
    rows = count = 0
    for label, t in tables():
        for name, bmap, lefts in row_cases(t):
            got = list(bmap._keyed_rows(lefts))
            if got != list(oracle_keyed_rows(bmap, lefts)):
                print(f"MISMATCH {name} rows of {label} over {t.field}, "
                      f"dim {t.dim}")
                return 1
            rows += len(got)
            if name == "R" and bmap.gen_images != walk_R_images(t):
                print(f"MISMATCH R generator images of {label} over "
                      f"{t.field}, dim {t.dim}")
                return 1
        count += 1
    print(f"bimodule rows equal the multiply oracle: {rows} rows "
          f"of {count} tables")
    return 0


if __name__ == "__main__":
    sys.exit(main())
