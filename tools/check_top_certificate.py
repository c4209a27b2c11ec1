"""Check the top-complex certificate against ranks from full-size rows.

    python3 tools/check_top_certificate.py

For every fixture quiver of ``tests/fixtures.py``, the kinds ``weighted``
and, where the quiver has a border, ``deformed`` (seeded border values in
{0, 1}), the fields Q and F101 and each weight raise 0, 1 and 2 over the
least legal weights, plus the deformed triangle over F2 with a nonzero
border and the singular (a = 1) and non-singular (a = 2) tetrahedral
algebras over Q and F101, it runs ``verify_bimodule_periodicity`` and
compares the report with ``exact_report`` of ``tests/test_bimodule.py``,
which takes every rank from full-size rows; the tests there run raises
0 and 1 only.  Each reported rank must also equal the rank of its map's
full-size rows taken directly, which does not go through the stage logic
of ``verify_bimodule_periodicity``.  Where the check raises (a nonzero
border away from characteristic 2) both must raise the same error.
Prints the number of reports compared and how many were NOT_VERIFIED;
exits 1 at the first mismatch.
"""

import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import surfalg as sa  # noqa: E402
from surfalg.bimodule import (  # noqa: E402
    bimodule_spaces, map_d, map_d0, map_R, map_S, map_theta)

import fixtures as fx  # noqa: E402
from test_bimodule import exact_report  # noqa: E402
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
    for field in sorted(FIELDS):
        for a in (1, 2):
            yield f"tetrahedral a={a}", fx.tetrahedral_algebra(
                a=a, field=FIELDS[field])


def full_rank(t, key):
    """The rank of stage ``key`` from full-size rows, outside the check."""
    p0, p1, p2, p3 = bimodule_spaces(t)
    if key == "theta":
        return map_theta(t, p3)["rank"]()
    build = {"d0": lambda: map_d0(t, p0), "d": lambda: map_d(t, p0, p1),
             "R": lambda: map_R(t, p1, p2), "S": lambda: map_S(t, p2, p3)}
    return build[key]().rank()


def outcome(check, table):
    try:
        return check(table)
    except ValueError as err:
        return f"ValueError: {err}"


def main():
    count = failing = 0
    for label, t in tables():
        got = outcome(sa.verify_bimodule_periodicity, t)
        if got != outcome(exact_report, t) or isinstance(got, dict) and any(
                r != full_rank(t, key) for key, r in got["ranks"].items()):
            print(f"MISMATCH {label} over {t.field}, dim {t.dim}")
            return 1
        count += 1
        failing += isinstance(got, dict) and got["verdict"] == "NOT_VERIFIED"
    print(f"top-certified bimodule reports equal the full-row reports: "
          f"{count} reports, {failing} NOT_VERIFIED")
    return 0


if __name__ == "__main__":
    sys.exit(main())
