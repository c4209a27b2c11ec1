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
weights only.  Prints the number of modules and tables compared; exits 1
at the first mismatch.
"""

import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import surfalg as sa  # noqa: E402

from test_closed_form import FIELDS  # noqa: E402
from test_syzygy import (  # noqa: E402
    CASES, chain_syzygy, presentation, start_modules)

RAISES = (0, 1, 2)
STEPS = 4


def main():
    rng = random.Random(7)
    modules = tables = 0
    for name, kind in CASES:
        for field in sorted(FIELDS):
            for up in RAISES:
                t = sa.build_algebra(presentation(name, kind, FIELDS[field],
                                                  rng, up))
                for module in start_modules(t):
                    for step in range(STEPS):
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
                tables += 1
    print(f"syzygy equals the chain oracle on {modules} modules "
          f"of {tables} tables")
    return 0


if __name__ == "__main__":
    sys.exit(main())
