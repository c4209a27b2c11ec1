"""Exhaustive check of the closed-form products against the arrow walk.

    python3 tools/check_products.py

For every fixture quiver of ``tests/fixtures.py``, every kind among
``weighted``, ``biserial`` and ``string``, the fields Q and F101 and each
weight raise 0, 1 and 2 over the least legal weights, plus ``deformed`` on
the triangle over F2 and over Q with nonzero and with zero borders, it
compares ``AlgebraTable.basis_product`` on every pair of basis elements with
the product obtained by multiplying b_i by the arrows of b_j one at a time
(``walk_product`` of ``tests/test_closed_form.py``), and
``AlgebraTable.word_element(a, l)`` for every arrow a and every length
0 <= l <= mn + 1 with the path a g(a) ... walked from e_s(a)
(``fixtures.walked_word``).  The walk lives in ``tests/fixtures.py`` only;
the tests run a smaller sample of the same comparisons.  Parameters are
seeded nonzero draws.  Prints the number of pairs, words and tables
compared; exits 1 at the first mismatch.
"""

import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import surfalg as sa  # noqa: E402

import fixtures as fx  # noqa: E402
from test_closed_form import (  # noqa: E402
    FIELDS, KINDS, deformed_triangle, presentation, walk_product)

RAISES = (0, 1, 2)


def presentations(rng):
    for name in sorted(fx.ALL_QUIVERS):
        for kind in KINDS:
            for field in sorted(FIELDS):
                for up in RAISES:
                    yield presentation(name, kind, FIELDS[field], rng, up)
    for field in (sa.PrimeField(2), sa.QQ):
        for border_nonzero in (True, False):
            for up in RAISES:
                yield deformed_triangle(field, rng, border_nonzero, up)


def main():
    rng = random.Random(6)
    pairs = words = tables = 0
    for pres in presentations(rng):
        t = sa.build_algebra(pres)
        for i in range(t.dim):
            for j in range(t.dim):
                closed, walked = t.basis_product(i, j), walk_product(t, i, j)
                if closed != walked:
                    print(f"MISMATCH {pres.kind} over {t.field} dim {t.dim}: "
                          f"{t.basis[i]} * {t.basis[j]}: closed {closed}, "
                          f"walk {walked}")
                    return 1
        for a in t.quiver.arrows:
            for length in range(t.mn[a] + 2):
                rule = t.word_element(a, length)
                walked = fx.walked_word(t, a, length)
                if rule != walked:
                    print(f"MISMATCH {pres.kind} over {t.field} dim {t.dim}: "
                          f"word of {a!r} length {length}: rule {rule}, "
                          f"walk {walked}")
                    return 1
            words += t.mn[a] + 2
        pairs += t.dim * t.dim
        tables += 1
    print(f"closed form equals the walk on {pairs} basis pairs "
          f"and {words} words of {tables} tables")
    return 0


if __name__ == "__main__":
    sys.exit(main())
