"""Measure the memory and time of the bimodule check on the triangle algebra.

    python3 tools/memory_probe.py

For the triangle algebra at weight m = 16, 64 and 256, over Q and F101,
one line per case gives: the ``tracemalloc`` peak of Python allocations
during ``verify_bimodule_periodicity`` on a fresh table, the MB those
allocations still hold once the check has returned (its report, and what
the check left on the table), and the wall time of three more checks,
each on a fresh table and untraced, with the best of them.  Every table
is built before the measurement starts, and a full garbage collection
runs before each check and before the memory is read, so cyclic garbage
counts in neither figure.  Figures are Python allocations, not RSS.
"""

import gc
import os
import sys
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import surfalg as sa  # noqa: E402

import fixtures as fx  # noqa: E402

FIELDS = (("Q", sa.QQ), ("F101", sa.PrimeField(101)))
WEIGHTS = (16, 64, 256)
RUNS = 3
MB = 1 << 20


def traced(m, field):
    """(dim, verdict, peak MB, MB left behind) of one traced check."""
    table = fx.triangle_algebra(m=m, field=field)
    gc.collect()
    tracemalloc.start()
    report = sa.verify_bimodule_periodicity(table)
    gc.collect()
    left, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return table.dim, report["verdict"], peak / MB, left / MB


def timed(m, field):
    """Wall time of one untraced check on a fresh table."""
    table = fx.triangle_algebra(m=m, field=field)
    gc.collect()
    t0 = time.perf_counter()
    sa.verify_bimodule_periodicity(table)
    return time.perf_counter() - t0


def main():
    for m in WEIGHTS:
        for name, field in FIELDS:
            dim, verdict, peak, left = traced(m, field)
            runs = [timed(m, field) for _ in range(RUNS)]
            print(f"triangle m={m} {name} dim={dim} {verdict} "
                  f"peak_mb={peak:.1f} left_mb={left:.1f} "
                  f"runs_s={','.join(f'{r:.3f}' for r in runs)} "
                  f"best_s={min(runs):.3f}", flush=True)


if __name__ == "__main__":
    main()
