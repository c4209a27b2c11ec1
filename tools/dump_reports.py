"""Print one deterministic JSON document of the package's reports.

    python3 tools/dump_reports.py SEED > dump.json

Two versions of the package that print the same bytes agree on: the simple
report at every vertex, the form check and the bimodule check (dim <= 100)
of every fixture quiver x {weighted, deformed where a border exists} x
{Q, F101} x weight raise 0/1 and of the deformed triangle over F2; the
same three reports of every such case at least weights with parameters and
border values that only ``field.coerce`` normalizes (integral ``Fraction``s
over Q, negative and unreduced ints over F101); the uniserial check of the
tetrahedral algebras (a = 1, 2); and exit code and stdout of every CLI
command on each fixture quiver and surface document.  The seed draws
parameters and border values and is the CLI ``--seed``.
"""

import contextlib
import io
import json
import os
import random
import sys
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import surfalg as sa  # noqa: E402
from surfalg import cli  # noqa: E402

import fixtures as fx  # noqa: E402
from fixtures import CASES, FIELDS, least_weights, presentation  # noqa: E402


def run_cli(argv, text):
    out, stdin, sys.stdin = io.StringIO(), sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        sys.stdin = stdin
    return [argv, code, out.getvalue()]


def bimodule(table):
    """The bimodule report, its ValueError, or None above dimension 100."""
    try:
        return (sa.verify_bimodule_periodicity(table) if table.dim <= 100
                else None)
    except ValueError as exc:
        return {"error": str(exc)}


def coerced_presentation(name, kind, field, rng):
    """A fixture presentation whose scalars are not yet in normal form:
    integral Fractions over Q, negative or unreduced ints (none divisible
    by p) over a prime field."""
    q = fx.ALL_QUIVERS[name]()
    sign = (1, -1)
    if field.char == 0:
        def draw(zero_ok=False):
            return Fraction(rng.randint(0 if zero_ok else 1, 5)
                            * rng.choice(sign))
    else:
        def draw(zero_ok=False):
            if zero_ok and rng.randrange(3) == 0:
                return 0
            return (rng.choice(sign) * rng.randrange(1, field.char)
                    + field.char * rng.randint(-3, 3))
    m = least_weights(name, q)
    c = {rep: draw() for rep in m}
    b = ({v: draw(zero_ok=True) for v in sa.border(q)[0]}
         if kind == "deformed" else None)
    return sa.Presentation(q, kind=kind, field=field, m=m, c=c, b=b)


def main(seed):
    rng = random.Random(seed)
    tables = {f"{name}/{kind}/{field}/+{up}": sa.build_algebra(presentation(
                  name, kind, FIELDS[field], rng, up))
              for name, kind in CASES for field in sorted(FIELDS)
              for up in (0, 1)}
    tables["triangle/deformed/F2"] = fx.deformed_triangle_f2()
    coerce_rng = random.Random(f"{seed}/coerce")
    for name, kind in CASES:
        for field in sorted(FIELDS):
            tables[f"{name}/{kind}/{field}/coerced"] = sa.build_algebra(
                coerced_presentation(name, kind, FIELDS[field], coerce_rng))
    dump = {key: {"simple": [cli._simple_report(t, v, seed)
                             for v in t.quiver.vertices],
                  "form": sa.verify_symmetrizing_form(t),
                  "bimodule": bimodule(t)} for key, t in tables.items()}
    dump["uniserial"] = [rep for t in map(fx.tetrahedral_algebra, (1, 2))
                         for rep in sa.uniserial_period_checks(
                             t, t.quiver.arrows)]
    docs = [(fx.surface_doc(s()), sa.quiver_from_surface(s()))
            for _, s in sorted(fx.ALL_SURFACES.items())]
    for name, build in sorted(fx.ALL_QUIVERS.items()):
        q = build()
        for fjson, draw in (("Q", lambda: str(rng.randint(1, 5))),
                            ({"Fp": 101}, lambda: rng.randint(1, 100))):
            reps = sorted(set(sa.g_structure(q).rep.values()))
            params = {a: draw() for a in reps}
            docs.append((fx.quiver_doc(q, field=fjson, params=params,
                                       weights=fx.MIN_WEIGHTS[name]), q))
    dump["cli"] = [run_cli([command, "-", "--seed", str(seed)] + {
        "resolve-simple": ["--vertex", str(q.vertices[0])],
        "walks": ["--arrow", str(q.arrows[0])]}.get(command, []),
        json.dumps(doc))
        for doc, q in docs for command in list(cli.COMMANDS) + ["dot"]]
    print(json.dumps(cli._jsonable(dump), sort_keys=True, default=str))


if __name__ == "__main__":
    main(int(sys.argv[1]))
