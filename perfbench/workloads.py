"""Seeded inputs and the op list of each workload.

An op is one time-to-verdict unit: it builds its own Presentation and
AlgebraTable (or calls ``surfalg.cli.main`` once), computes a verdict and
checks it against the expected-verdict table.  Its function returns None
when the verdict is as expected, or a one-line description of the mismatch.

The seed drives vertex and arrow relabelling, the parameter draws and the
seed handed to the isomorphism searches.  The job mix and the algebra sizes
do not depend on it.
"""

import contextlib
import io
import json
import random
import sys
from fractions import Fraction

PERIODIC = "PERIODIC_PERIOD_4"
SIMPLE_FAIL = "kernel_pi1_equals_image_pi2"
BIMODULE_FAIL = "exact_at_P1"

# Base quivers as (vertices, arrows, f), with the labels of the package docs.
TRIANGLE = ([1, 2, 3],
            [("alpha", 1, 2), ("beta", 2, 3), ("gamma", 3, 1),
             ("epsilon", 1, 1), ("eta", 2, 2), ("mu", 3, 3)],
            {"alpha": "beta", "beta": "gamma", "gamma": "alpha",
             "epsilon": "epsilon", "eta": "eta", "mu": "mu"})
SPHERE = ([1, 2, 3],
          [("alpha1", 1, 2), ("alpha2", 2, 3), ("alpha3", 3, 1),
           ("beta1", 1, 2), ("beta2", 2, 3), ("beta3", 3, 1)],
          {"alpha1": "alpha2", "alpha2": "alpha3", "alpha3": "alpha1",
           "beta1": "beta2", "beta2": "beta3", "beta3": "beta1"})
DOUBLE_PROJECTIVE = ([1, 2, 3],
                     [("alpha", 1, 1), ("beta", 1, 2), ("gamma", 2, 1),
                      ("rho", 3, 3), ("sigma", 3, 2), ("delta", 2, 3)],
                     {"alpha": "beta", "beta": "gamma", "gamma": "alpha",
                      "rho": "sigma", "sigma": "delta", "delta": "rho"})

# Base surfaces as (edges, triangles, boundary).
DISC = ([1, 2, 3], [[1, 2, 3]], [1, 2, 3])
SPHERE_SURFACE = ([1, 2, 3], [[1, 2, 3], [1, 2, 3]], [])
DOUBLE_PROJECTIVE_SURFACE = ([1, 2, 3], [[1, 1, 2], [3, 3, 2]], [])
TETRAHEDRON = ([1, 2, 3, 4, 5, 6],
               [[1, 5, 4], [2, 5, 3], [2, 6, 4], [1, 6, 3]], [])

Q_SCALARS = ("1", "-1", "2", "-2", "3", "-3", "1/2", "-1/2", "2/3", "-3/2")


class Op:
    """One timed unit of a pass.

    ``kind`` names the end-to-end sum it feeds (form, simple, bimodule or
    other), ``field`` is "Q", "Fp" or "-" for documents that name no valid
    field.  A ``known_defect`` op fails at the version of the program the
    benchmark was written against; it still counts as failed.
    """

    def __init__(self, name, kind, field, fn, known_defect=False):
        self.name = name
        self.kind = kind
        self.field = field
        self.fn = fn
        self.known_defect = known_defect


class Algebra:
    """A relabelled presentation, built afresh by every op that uses it."""

    def __init__(self, sa, name, quiver, field, m=None, c=None, b=None,
                 kind="weighted", singular=False):
        self.sa = sa
        self.name = name
        self.quiver = quiver
        self.field = field
        self.m, self.c, self.b = m or {}, c or {}, b
        self.kind = kind
        self.singular = singular
        self.tag = "Q" if field.char == 0 else "Fp"

    def build(self):
        sa = self.sa
        return sa.build_algebra(sa.Presentation(
            self.quiver, kind=self.kind, field=self.field,
            m=self.m, c=self.c, b=self.b))


def relabel(spec, rng):
    """Relabel a quiver spec with seeded vertex ints and arrow ids.

    Returns (vertices, arrows, f, arrow_map, vertex_map); list orders are
    shuffled too.
    """
    vertices, arrows, f = spec
    vmap = dict(zip(vertices, rng.sample(range(1, 100), len(vertices))))
    ids = rng.sample(range(100, 1000), len(arrows))
    amap = {a: f"a{i}" for (a, _, _), i in zip(arrows, ids)}
    new_arrows = [(amap[a], vmap[s], vmap[t]) for a, s, t in arrows]
    rng.shuffle(new_arrows)
    new_vertices = [vmap[v] for v in vertices]
    rng.shuffle(new_vertices)
    new_f = {amap[a]: amap[x] for a, x in f.items()}
    return new_vertices, new_arrows, new_f, amap, vmap


def relabel_surface(spec, rng):
    edges, triangles, boundary = spec
    emap = dict(zip(edges, rng.sample(range(1, 100), len(edges))))
    tris = [[emap[e] for e in t] for t in triangles]
    rng.shuffle(tris)
    return ([emap[e] for e in edges], tris, [emap[e] for e in boundary])


def quiver_json(vertices, arrows, f):
    return {"vertices": list(vertices),
            "arrows": [{"id": a, "from": s, "to": t} for a, s, t in arrows],
            "f": dict(f)}


def tetrahedral_spec(sa):
    q = sa.tetrahedral_reference()
    return (list(q.vertices), [(a, q.src[a], q.tgt[a]) for a in q.arrows],
            dict(q.f))


def orbit_reps(sa, spec):
    """One arrow per g-orbit of a base spec, in a fixed order."""
    return [o[0] for o in sa.g_structure(sa.validate(*spec)).orbits]


def draw(rng, field):
    """A nonzero scalar of small height, as (library value, JSON value)."""
    if field.char == 0:
        s = rng.choice(Q_SCALARS)
        return Fraction(s), s
    v = rng.randint(1, 9)
    return field.of_int(v), v


def tetra_params(rng, field, reps, singular):
    """Parameters on the four g-orbits with product 1 exactly when singular.

    Returns {orbit rep: (library value, JSON value)}.
    """
    vals = [draw(rng, field) for _ in range(3)]
    prod = field.one
    for v, _ in vals:
        prod = field.mul(prod, v)
    if singular:
        last = field.inv(prod)
    else:
        last = draw(rng, field)[0]
        if field.mul(prod, last) == field.one:
            last = field.add(last, field.one)
    last_json = (field.fmt(last) if field.char == 0 else int(last))
    vals.append((last, last_json))
    return dict(zip(reps, vals))


# ----------------------------------------------------------------------
# Library ops (ladder and wide-weights)


def simple_report(sa, table, v, seed):
    """The report ``verify-simple-periodicity`` prints for one vertex."""
    rep = sa.verify_simple_resolution(table, v)
    chain = [sa.simple_module(table, v)]
    for _ in range(4):
        chain.append(sa.syzygy(chain[-1])[0])
    iso4 = sa.module_iso(chain[4], chain[0], seed=seed)[0]
    early = [j for j in (1, 2, 3)
             if chain[j].total_dim == chain[0].total_dim
             and sa.module_iso(chain[j], chain[0], seed=seed)[0]]
    ok = (rep["verdict"] == PERIODIC and iso4 and not early
          and rep["omega2_dim"] == rep["omega2_expected"])
    return rep, ok


def form_op(alg):
    sa = alg.sa

    def run():
        table = alg.build()
        if not sa.dimension_report(table)["matches"]:
            return "dimension report does not match the formula"
        rep = sa.verify_symmetrizing_form(table)
        if not (rep["symmetric"] and rep["nondegenerate"]):
            return f"form not symmetric and nondegenerate: {rep}"
        if len(sa.dual_basis(table)) != table.dim:
            return "dual basis has the wrong length"
        return None
    return Op(f"{alg.name}/form", "form", alg.tag, run)


def invariants_op(alg):
    sa = alg.sa

    def run():
        table = alg.build()
        if not sa.dimension_report(table)["matches"]:
            return "dimension report does not match the formula"
        cartan = sa.cartan_matrix(table)
        if sum(map(sum, cartan["matrix"])) != table.dim:
            return "Cartan matrix entries do not sum to the dimension"
        return None
    return Op(f"{alg.name}/invariants", "other", alg.tag, run)


def simple_op(alg, v, seed):
    sa = alg.sa

    def run():
        rep, ok = simple_report(sa, alg.build(), v, seed)
        if alg.singular:
            if (rep["verdict"], rep["failing_stage"]) != ("NOT_VERIFIED",
                                                         SIMPLE_FAIL):
                return (f"expected NOT_VERIFIED at {SIMPLE_FAIL}, got "
                        f"{rep['verdict']} at {rep['failing_stage']}")
        elif not ok:
            return (f"simple report not periodic: {rep['verdict']} at "
                    f"{rep['failing_stage']}")
        return None
    return Op(f"{alg.name}/simple/{v}", "simple", alg.tag, run)


def bimodule_op(alg):
    sa = alg.sa

    def run():
        rep = sa.verify_bimodule_periodicity(alg.build())
        want = (("NOT_VERIFIED", BIMODULE_FAIL) if alg.singular
                else (PERIODIC, None))
        got = (rep["verdict"], rep["failing_stage"])
        return None if got == want else f"expected {want}, got {got}"
    return Op(f"{alg.name}/bimodule", "bimodule", alg.tag, run)


def weighted_algebra(sa, rng, name, spec, field, weights=None):
    """A relabelled weighted algebra with seeded parameters per g-orbit."""
    vertices, arrows, f, amap, _ = relabel(spec, rng)
    q = sa.validate(vertices, arrows, f)
    c = {amap[r]: draw(rng, field)[0] for r in orbit_reps(sa, spec)}
    m = {amap[a]: w for a, w in (weights or {}).items()}
    return Algebra(sa, name, q, field, m=m, c=c)


def tetrahedral_algebra(sa, rng, name, field, singular):
    spec = tetrahedral_spec(sa)
    vertices, arrows, f, amap, _ = relabel(spec, rng)
    q = sa.validate(vertices, arrows, f)
    params = tetra_params(rng, field, orbit_reps(sa, spec), singular)
    c = {amap[r]: v for r, (v, _) in params.items()}
    return Algebra(sa, name, q, field, c=c, singular=singular)


def deformed_triangle(sa, rng):
    vertices, arrows, f, _, vmap = relabel(TRIANGLE, rng)
    q = sa.validate(vertices, arrows, f)
    return Algebra(sa, "deformed-triangle-F2", q, sa.PrimeField(2),
                   b={vmap[v]: 1 for v in (1, 2, 3)}, kind="deformed")


def ladder(sa, seed):
    """Form, simple and bimodule checks on the ROADMAP ladder.

    Every op takes about a second or less, so that the reference chunks
    timed around it see the speed it ran at.  That leaves out the two
    bimodule checks of about five seconds each, triangle m=4 over Q and
    m=8 over F101; their form and simple checks are on wide-weights.
    """
    rng = random.Random(seed)
    QQ, F101 = sa.QQ, sa.PrimeField(101)
    algs = []
    for field, weights in ((QQ, (1, 2)), (F101, (1, 2, 4))):
        for m in weights:
            algs.append(weighted_algebra(
                sa, rng, f"triangle-m{m}-{field.name}", TRIANGLE, field,
                {"alpha": m}))
    for field in (QQ, F101):
        for singular in (False, True):
            label = "singular" if singular else "nonsingular"
            algs.append(tetrahedral_algebra(
                sa, rng, f"tetrahedral-{label}-{field.name}", field, singular))
        algs.append(weighted_algebra(
            sa, rng, f"sphere-{field.name}", SPHERE, field))
        algs.append(weighted_algebra(
            sa, rng, f"double-projective-{field.name}", DOUBLE_PROJECTIVE,
            field, {"alpha": 3, "rho": 3}))
    algs.append(deformed_triangle(sa, rng))
    ops = []
    for alg in algs:
        ops.append(form_op(alg))
        ops.extend(simple_op(alg, v, seed) for v in alg.quiver.vertices)
        ops.append(bimodule_op(alg))
    return ops


def wide_weights(sa, seed):
    """Large weights, dense Gram and module matrices, no bimodule work.

    The largest algebras whose form op stays under about half a second:
    dim 144 over Q and dim 288 over F101.
    """
    rng = random.Random(seed)
    QQ, F101 = sa.QQ, sa.PrimeField(101)
    algs = [
        weighted_algebra(sa, rng, "triangle-m4-Q", TRIANGLE, QQ,
                         {"alpha": 4}),
        weighted_algebra(sa, rng, "triangle-m8-F101", TRIANGLE, F101,
                         {"alpha": 8}),
        weighted_algebra(sa, rng, "sphere-m4-Q", SPHERE, QQ, {"alpha1": 4}),
        weighted_algebra(sa, rng, "double-projective-m9-Q",
                         DOUBLE_PROJECTIVE, QQ, {"alpha": 9, "rho": 9}),
    ]
    ops = []
    for alg in algs:
        ops.append(invariants_op(alg))
        ops.append(form_op(alg))
        ops.extend(simple_op(alg, v, seed) for v in alg.quiver.vertices)
    return ops


# ----------------------------------------------------------------------
# CLI ops (cli-small)


def call_cli(sa, argv, text):
    """Run ``surfalg.cli.main`` in process on a document given on stdin.

    Returns (exit code, stdout).  Exceptions propagate to the caller.
    """
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = sa.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue()


class CliCase:
    """One invocation with its expected exit code and report check."""

    def __init__(self, name, field, argv, text, code, check=None,
                 known_defect=False):
        self.name = name
        self.field = field
        self.argv = argv
        self.text = text
        self.code = code
        self.check = check
        self.known_defect = known_defect
        self.first = None

    def ops(self, sa):
        kind = {"form": "form", "verify-simple-periodicity": "simple",
                "verify-bimodule-periodicity": "bimodule"}.get(
                    self.argv[0], "other")

        def run(repeat):
            code, out = call_cli(sa, self.argv, self.text)
            if code != self.code:
                return f"exit {code}, expected {self.code}"
            if code == 2 and out:
                return "exit 2 with a report on stdout"
            if repeat:
                if out != self.first:
                    return "stdout differs between two identical runs"
            else:
                self.first = out
            if self.check is not None:
                return self.check(json.loads(out)["result"])
            return None

        return [Op(f"{self.name}#{i + 1}", kind, self.field,
                   lambda r=bool(i): run(r), self.known_defect)
                for i in range(2)]


def expect(key, want):
    def check(result):
        got = result.get(key)
        return None if got == want else f"{key} is {got!r}, expected {want!r}"
    return check


def expect_form(result):
    if result["symmetric"] and result["nondegenerate"]:
        return None
    return "form not symmetric and nondegenerate"


def expect_simple_fail(result):
    stages = {r["failing_stage"] for r in result["per_vertex"]}
    if result["verdict"] == "NOT_VERIFIED" and stages == {SIMPLE_FAIL}:
        return None
    return f"expected NOT_VERIFIED at {SIMPLE_FAIL}, got {stages}"


def cli_small(sa, seed):
    """At least 100 small CLI invocations per pass, each run twice."""
    rng = random.Random(seed)
    p = rng.choice((101, 103, 107, 109, 113))
    fp = sa.PrimeField(p)
    common = ["--seed", str(seed)]
    cases = []

    def add(name, field, command, doc_text, code=0, check=None, extra=(),
            known_defect=False):
        argv = [command, "-"] + list(extra) + common
        cases.append(CliCase(f"{name}/{command}", field, argv, doc_text, code,
                             check, known_defect))

    tspec = tetrahedral_spec(sa)
    reps = orbit_reps(sa, tspec)
    for field, fjson, tag in ((sa.QQ, "Q", "Q"), (fp, {"Fp": p}, "Fp")):
        for singular in (False, True):
            vertices, arrows, f, amap, _ = relabel(tspec, rng)
            params = tetra_params(rng, field, reps, singular)
            text = json.dumps({
                "quiver": quiver_json(vertices, arrows, f), "field": fjson,
                "params": {amap[r]: j for r, (_, j) in params.items()}})
            name = (f"tetrahedral-{'singular' if singular else 'nonsingular'}"
                    f"-{tag}")
            verdict = ("NotPeriodic_SingularTetrahedral" if singular
                       else "PolynomialGrowth_NonSingularTetrahedral")
            fail = 1 if singular else 0
            add(name, tag, "validate", text, check=expect("valid", True))
            add(name, tag, "orbits", text)
            add(name, tag, "tetrahedral", text,
                check=expect("singular", singular))
            add(name, tag, "to-surface", text)
            add(name, tag, "dims", text, check=expect("matches", True))
            add(name, tag, "cartan", text)
            add(name, tag, "form", text, check=expect_form)
            add(name, tag, "classify", text, check=expect("verdict", verdict))
            add(name, tag, "walks", text,
                extra=["--arrow", rng.choice(arrows)[0]])
            add(name, tag, "verify-simple-periodicity", text, code=fail,
                check=(expect_simple_fail if singular
                       else expect("verdict", PERIODIC)))
            add(name, tag, "uniserial-check", text,
                check=expect("all_period_4", True))
            add(name, tag, "verify-bimodule-periodicity", text, code=fail,
                check=expect("failing_stage",
                             BIMODULE_FAIL if singular else None))

    small = (("triangle-Q", TRIANGLE, sa.QQ, "Q", {"alpha": 2}),
             ("triangle-Fp", TRIANGLE, fp, {"Fp": p}, {}),
             ("sphere-Q", SPHERE, sa.QQ, "Q", {}),
             ("double-projective-Fp", DOUBLE_PROJECTIVE, fp, {"Fp": p},
              {"alpha": 3, "rho": 3}))
    for name, spec, field, fjson, weights in small:
        vertices, arrows, f, amap, _ = relabel(spec, rng)
        tag = "Q" if field.char == 0 else "Fp"
        text = json.dumps({
            "quiver": quiver_json(vertices, arrows, f), "field": fjson,
            "weights": {amap[a]: w for a, w in weights.items()},
            "params": {amap[r]: draw(rng, field)[1]
                       for r in orbit_reps(sa, spec)}})
        add(name, tag, "validate", text, check=expect("valid", True))
        add(name, tag, "orbits", text)
        add(name, tag, "tetrahedral", text,
            check=expect("is_tetrahedral", False))
        add(name, tag, "to-surface", text)
        add(name, tag, "dims", text, check=expect("matches", True))
        add(name, tag, "cartan", text)
        add(name, tag, "form", text, check=expect_form)
        add(name, tag, "classify", text,
            check=expect("verdict", "NonPolynomialGrowth_Tame"))
        add(name, tag, "walks", text,
            extra=["--arrow", rng.choice(arrows)[0]])
        add(name, tag, "verify-simple-periodicity", text,
            check=expect("verdict", PERIODIC))

    surfaces = (("disc", DISC), ("sphere-surface", SPHERE_SURFACE),
                ("double-projective-surface", DOUBLE_PROJECTIVE_SURFACE),
                ("tetrahedron", TETRAHEDRON))
    for name, spec in surfaces:
        verdict = ("NotPeriodic_SingularTetrahedral" if spec is TETRAHEDRON
                   else "NonPolynomialGrowth_Tame")
        edges, triangles, boundary = relabel_surface(spec, rng)
        text = json.dumps({"surface": {
            "edges": edges, "triangles": [{"edges": t} for t in triangles],
            "boundary": boundary}})
        add(name, "Q", "validate", text, check=expect("valid", True))
        add(name, "Q", "from-surface", text)
        if spec is DOUBLE_PROJECTIVE_SURFACE:
            # weight 1 on the two self-folded loops breaks m n >= 3
            add(name, "Q", "dims", text, code=2)
            continue
        add(name, "Q", "dims", text, check=expect("matches", True))
        add(name, "Q", "classify", text, check=expect("verdict", verdict))

    # Malformed documents: each must exit 2.  The first four are the CLI
    # defects listed in ROADMAP item 5; they raise instead.
    vertices, arrows, f, _, _ = relabel(TRIANGLE, rng)
    base = {"quiver": quiver_json(vertices, arrows, f)}
    malformed = (
        ("weights-list", "dims", dict(base, weights=[1]), True),
        ("params-string", "dims", dict(base, params="x"), True),
        ("vertices-int", "validate",
         {"quiver": dict(base["quiver"], vertices=5)}, True),
        ("field-Fp4", "validate", dict(base, field={"Fp": 4}), True),
        ("unknown-key", "validate", dict(base, extra=1), False),
        ("quiver-and-surface", "validate",
         dict(base, surface={"edges": [1], "triangles": []}), False),
        ("weight-zero", "dims",
         dict(base, weights={arrows[0][0]: 0}), False),
    )
    for name, command, doc, defect in malformed:
        add(f"malformed-{name}", "-", command, json.dumps(doc), code=2,
            known_defect=defect)
    add("malformed-json", "-", "validate", "{nope", code=2)

    ops = []
    for case in cases:
        ops.extend(case.ops(sa))
    return ops


WORKLOADS = {
    "ladder": ladder,
    "wide-weights": wide_weights,
    "cli-small": cli_small,
}
