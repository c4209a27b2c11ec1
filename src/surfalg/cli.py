"""Command-line interface: JSON in, deterministic JSON (or DOT) out.

Input documents describe a triangulation quiver or a directed triangulated
surface, plus optional weights, parameters, border function, ground field,
and algebra kind.  Every command prints a report with sorted keys, so runs
with identical input and seed are byte-identical.  Exit codes: 0 when all
requested verifications pass, 1 when a mathematical check fails, 2 for
input or usage errors.
"""

import argparse
import functools
import json
import os
import sys

from . import algebra as alg
from . import bimodule as bim
from . import modules as mods
from . import quiver as qv
from . import reptype as rep
from . import surface as surf
from .fields import field_from_json

TOP_KEYS = {"quiver", "surface", "weights", "params", "border", "field", "kind"}


class InputError(Exception):
    """Schema or usage problem; maps to exit code 2."""


def _require_object(obj, where):
    if not isinstance(obj, dict):
        raise InputError(f"{where} must be a JSON object")
    return obj


def _require_keys(obj, allowed, required, where):
    _require_object(obj, where)
    for k in obj:
        if k not in allowed:
            raise InputError(f"unknown key {k!r} in {where}")
    for k in required:
        if k not in obj:
            raise InputError(f"missing key {k!r} in {where}")


def _require_id(value, where):
    """A vertex, arrow or edge id: a JSON integer or string."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise InputError(f"{where} must be an integer or a string, "
                         f"got {value!r}")
    return value


def _require_list(value, where):
    if not isinstance(value, list):
        raise InputError(f"{where} must be a JSON array")
    return value


def _id_list(value, where):
    return [_require_id(v, f"an id in {where}")
            for v in _require_list(value, where)]


def parse_document(obj):
    """Validate the input schema and assemble a document dict.

    Every JSON type the schema fixes is checked here, so a malformed
    document raises InputError (exit 2) before any command runs:

    - the document, ``quiver``, ``surface``, each arrow and triangle
      entry, ``f``, ``weights``, ``params`` and ``border`` are objects;
    - ``vertices``, ``arrows``, the surface's ``edges``, ``triangles``
      and ``boundary`` and each triangle's ``edges`` are arrays;
    - every vertex, arrow and edge id (the values of ``f`` and an arrow's
      ``from`` and ``to`` among them) is an integer or a string, never a
      boolean;
    - ``selfFolded`` is a boolean;
    - ``field`` is a description ``field_from_json`` accepts, and
      ``kind`` one of the algebra kinds.

    The values of ``weights``, ``params`` and ``border`` are checked once
    the quiver is known (:func:`get_presentation`).  Quiver axiom
    violations are left to the commands (the ``validate`` command reports
    them, the others refuse to run).
    """
    _require_keys(obj, TOP_KEYS, (), "the top-level document")
    if ("quiver" in obj) == ("surface" in obj):
        raise InputError(
            "the document needs exactly one of 'quiver' or 'surface'")
    try:
        field = field_from_json(obj.get("field", "Q"))
    except ValueError as exc:
        raise InputError(str(exc)) from None
    doc = {
        "field": field,
        "kind": obj.get("kind", "weighted"),
        "warnings": [],
    }
    if doc["kind"] not in alg.KINDS:
        raise InputError(f"unknown kind {obj['kind']!r}")
    if "quiver" in obj:
        qo = obj["quiver"]
        _require_keys(qo, {"vertices", "arrows", "f"},
                      ("vertices", "arrows", "f"), "'quiver'")
        vertices = _id_list(qo["vertices"], "'quiver.vertices'")
        arrows = []
        for a in _require_list(qo["arrows"], "'quiver.arrows'"):
            _require_keys(a, {"id", "from", "to"}, ("id", "from", "to"),
                          "an arrow entry")
            arrows.append(tuple(_require_id(a[k], f"an arrow's {k!r}")
                                for k in ("id", "from", "to")))
        ids = _ids_by_str(a[0] for a in arrows)
        f = {}
        for k, v in _require_object(qo["f"], "'quiver.f'").items():
            if k not in ids:
                raise InputError(f"f maps unknown arrow id {k!r}")
            f[_resolve(k, ids, "arrow")] = _require_id(v, "an f value")
        doc["raw_quiver"] = (vertices, arrows, f)
        doc["surface"] = None
    else:
        so = obj["surface"]
        _require_keys(so, {"edges", "triangles", "boundary"},
                      ("edges", "triangles"), "'surface'")
        triangles = []
        for t in _require_list(so["triangles"], "'surface.triangles'"):
            _require_keys(t, {"edges", "selfFolded"}, ("edges",),
                          "a triangle entry")
            sides = _id_list(t["edges"], "a triangle's 'edges'")
            if len(sides) != 3:
                raise InputError(f"triangle {sides!r} does not have 3 edges")
            if "selfFolded" in t:
                if not isinstance(t["selfFolded"], bool):
                    raise InputError(
                        f"selfFolded of triangle {sides!r} must be true or "
                        f"false")
                folded = len(set(sides)) < 3
                if t["selfFolded"] != folded:
                    raise InputError(
                        f"triangle {sides!r} has selfFolded={t['selfFolded']}"
                        f" but its edge multiset says {folded}")
            triangles.append(sides)
        doc["raw_surface"] = (
            _id_list(so["edges"], "'surface.edges'"), triangles,
            _id_list(so.get("boundary", []), "'surface.boundary'"))
        doc["raw_quiver"] = None
    for key in ("weights", "params", "border"):
        doc[f"raw_{key}"] = _require_object(obj.get(key, {}), f"'{key}'")
    return doc


def _ids_by_str(ids):
    """Map each id's ``str`` to the ids that print as it, in order."""
    out = {}
    for c in ids:
        out.setdefault(str(c), []).append(c)
    return out


def _resolve(key, ids, what):
    """Match a JSON object key (a string) against ids of any type, given
    as their :func:`_ids_by_str` map, built once per list of ids."""
    hits = ids.get(str(key), ())
    if not hits:
        raise InputError(f"unknown {what} id {key!r}")
    if len(hits) > 1:
        raise InputError(f"ambiguous {what} id {key!r}")
    return hits[0]


def get_surface(doc):
    if doc.get("raw_surface") is None:
        raise InputError("this command needs a 'surface' document")
    edges, triangles, boundary = doc["raw_surface"]
    try:
        return surf.validate_surface(edges, triangles, boundary)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _checked_quiver(build, *args):
    """``build(*args)``, a validated quiver, with its refusal as an
    InputError: the axioms it violates, or the structural fault."""
    try:
        return build(*args)
    except qv.QuiverValidationError as exc:
        raise InputError(
            "quiver violates the triangulation axioms: "
            + "; ".join(exc.diagnostics)) from None
    except ValueError as exc:
        raise InputError(str(exc)) from None


def get_quiver(doc):
    """The document's quiver (derived from the surface when needed).

    A surface that passes :func:`surfalg.surface.validate_surface` can
    still give a quiver that breaks the axioms (a disconnected one, or
    one with fewer than three vertices); that is refused like a quiver
    document that breaks them.
    """
    if doc.get("raw_quiver") is not None:
        return _checked_quiver(qv.validate, *doc["raw_quiver"])
    return _checked_quiver(surf.quiver_from_surface, get_surface(doc))


def get_presentation(doc, quiver):
    """Weights, parameters, and border resolved onto the quiver's orbits."""
    gd = qv.g_structure(quiver)
    field = doc["field"]
    arrows = _ids_by_str(quiver.arrows)
    weights = {}
    for k, v in doc["raw_weights"].items():
        a = _resolve(k, arrows, "arrow")
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise InputError(f"weight for {k!r} must be a positive integer")
        if gd.rep[a] != a:
            doc["warnings"].append(
                f"weights: key {k!r} normalized to orbit representative "
                f"{gd.rep[a]!r}")
        weights[a] = v
    params = {}
    for k, v in doc["raw_params"].items():
        a = _resolve(k, arrows, "arrow")
        if gd.rep[a] != a:
            doc["warnings"].append(
                f"params: key {k!r} normalized to orbit representative "
                f"{gd.rep[a]!r}")
        try:
            params[a] = field.parse(v)
        except ValueError as exc:
            raise InputError(str(exc)) from None
    border = {}
    vertices = _ids_by_str(quiver.vertices)
    for k, v in doc["raw_border"].items():
        vert = _resolve(k, vertices, "vertex")
        try:
            border[vert] = field.parse(v)
        except ValueError as exc:
            raise InputError(str(exc)) from None
    try:
        return alg.Presentation(quiver, kind=doc["kind"], field=field,
                                m=weights, c=params, b=border or None)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def get_table(doc):
    return alg.build_algebra(get_presentation(doc, get_quiver(doc)))


def _basis_json(table):
    return [list(table.basis_element(j)) for j in range(table.dim)]


def cmd_validate(doc, args):
    if doc.get("raw_quiver") is not None:
        vertices, arrows, f = doc["raw_quiver"]
        try:
            diagnostics = qv.diagnose(vertices, arrows, f)
        except ValueError as exc:
            raise InputError(str(exc)) from None
        return {"valid": not diagnostics, "diagnostics": diagnostics}, \
            not diagnostics
    edges, triangles, boundary = doc["raw_surface"]
    try:
        surface = surf.validate_surface(edges, triangles, boundary)
    except ValueError as exc:
        return {"valid": False, "diagnostics": [str(exc)]}, False
    try:
        surf.quiver_from_surface(surface)
    except qv.QuiverValidationError as exc:
        return {"valid": False, "diagnostics": exc.diagnostics}, False
    return {"valid": True, "diagnostics": []}, True


def cmd_orbits(doc, args):
    quiver = get_quiver(doc)
    gd = qv.g_structure(quiver)
    return {
        "g_orbits": [{"representative": o[0], "arrows": list(o),
                      "length": len(o)} for o in gd.orbits],
        "f_orbits": qv.f_orbits(quiver),
    }, True


def cmd_border(doc, args):
    quiver = get_quiver(doc)
    vertices, loops = qv.border(quiver)
    return {
        "border_vertices": vertices,
        "border_loops": {str(v): loops[v] for v in vertices},
    }, True


def cmd_tetrahedral(doc, args):
    quiver = get_quiver(doc)
    ok, witness = qv.is_tetrahedral(quiver)
    report = {"is_tetrahedral": ok, "witness": _jsonable(witness)}
    if ok:
        pres = get_presentation(doc, quiver)
        if all(w == 1 for w in pres.m.values()):
            table = alg.build_algebra(pres)
            params = alg.tetrahedral_parameters(table)
            field = doc["field"]
            report["parameters"] = {k: field.fmt(params[k]) for k in "abcd"}
            report["parameter_product"] = field.fmt(params["product"])
            report["singular"] = params["singular"]
    return report, True


def cmd_from_surface(doc, args):
    quiver = _checked_quiver(surf.quiver_from_surface, get_surface(doc))
    return {"quiver": quiver.to_json()}, True


def cmd_to_surface(doc, args):
    quiver = get_quiver(doc)
    try:
        surface = surf.surface_from_quiver(quiver)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    return {"surface": surface.to_json()}, True


def cmd_build(doc, args):
    table = get_table(doc)
    return {
        "kind": table.kind,
        "field": table.field.to_json(),
        "dim": table.dim,
        "basis": _basis_json(table),
    }, True


def cmd_dims(doc, args):
    report = alg.dimension_report(get_table(doc))
    return report, report["matches"]


def cmd_cartan(doc, args):
    return alg.cartan_matrix(get_table(doc)), True


def cmd_form(doc, args):
    table = get_table(doc)
    if table.kind == "string":
        raise InputError("the string kind carries no symmetrizing form")
    report = alg.verify_symmetrizing_form(table)
    return report, report["symmetric"] and report["nondegenerate"]


def _simple_report(table, v, seed):
    """The per-vertex report of ``resolve-simple`` and
    ``verify-simple-periodicity``.

    The syzygy fields are read off the verified resolution
    (:func:`modules.read_simple_syzygies`, whose docstring gives the
    argument).  Only when no reading can be made, as when a stage fails
    for a singular tetrahedral algebra, are four syzygies computed
    generically and compared with the simple by ``module_iso``.
    """
    report, fields = mods.read_simple_syzygies(table, v)
    if fields is None:
        chain = [mods.simple_module(table, v)]
        for _ in range(4):
            k, _info = mods.syzygy(chain[-1])
            chain.append(k)
        fields = {
            "syzygy_dims": [m.total_dim for m in chain],
            "omega4_isomorphic_to_simple":
                mods.module_iso(chain[4], chain[0], seed=seed)[0],
            "early_return": [
                j for j in (1, 2, 3)
                if chain[j].total_dim == chain[0].total_dim
                and mods.module_iso(chain[j], chain[0], seed=seed)[0]],
        }
    report.update(fields)
    report["ok"] = (report["verdict"] == "PERIODIC_PERIOD_4"
                    and report["omega4_isomorphic_to_simple"]
                    and not report["early_return"]
                    and report["omega2_dim"] == report["omega2_expected"])
    return report


def cmd_resolve_simple(doc, args):
    table = get_table(doc)
    if table.kind not in ("weighted", "deformed"):
        raise InputError(
            "simple resolutions need kind 'weighted' or 'deformed'")
    v = _resolve(args.vertex, _ids_by_str(table.quiver.vertices), "vertex")
    report = _simple_report(table, v, args.seed)
    return report, report["ok"]


def cmd_verify_simple(doc, args):
    table = get_table(doc)
    if table.kind not in ("weighted", "deformed"):
        raise InputError(
            "simple resolutions need kind 'weighted' or 'deformed'")
    per_vertex = []
    for v in table.quiver.vertices:
        per_vertex.append(_simple_report(table, v, args.seed))
    ok = all(r["ok"] for r in per_vertex)
    return {
        "per_vertex": per_vertex,
        "verdict": "PERIODIC_PERIOD_4" if ok else "NOT_VERIFIED",
    }, ok


def cmd_verify_bimodule(doc, args):
    pres = get_presentation(doc, get_quiver(doc))
    if pres.kind not in ("weighted", "deformed"):
        raise InputError(
            "bimodule periodicity needs kind 'weighted' or 'deformed'")
    dims = bim.bimodule_dims(pres)
    limit = args.max_dim
    widest = max(dims.values())
    if widest > limit:
        raise InputError(
            f"bimodule spaces reach dimension {widest}, over the limit "
            f"{limit}; raise --max-dim or SAW_MAX_DIM to proceed")
    table = alg.build_algebra(pres)
    try:
        report = bim.verify_bimodule_periodicity(table)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    return report, report["verdict"] == "PERIODIC_PERIOD_4"


def cmd_uniserial_check(doc, args):
    table = get_table(doc)
    ok_tet, _ = qv.is_tetrahedral(table.quiver)
    if not ok_tet:
        raise InputError("uniserial-check needs a tetrahedral quiver")
    if table.kind not in ("weighted", "deformed"):
        raise InputError("uniserial-check needs kind 'weighted' or 'deformed'")
    reports = mods.uniserial_period_checks(table, table.quiver.arrows)
    ok = all(r["period_exactly_4"] for r in reports)
    return {"per_arrow": reports, "all_period_4": ok}, ok


def cmd_walks(doc, args):
    table = get_table(doc)
    a = _resolve(args.arrow, _ids_by_str(table.quiver.arrows), "arrow")
    report = rep.bipartite_walk_report(table, a)
    witness = rep.nonpolynomial_witness(table)
    return {
        "bipartite": report,
        "nonpolynomial_witness": witness,
    }, report["is_walk"] and report["primitive"]


def cmd_classify(doc, args):
    table = get_table(doc)
    if table.kind != "weighted":
        raise InputError("classify needs kind 'weighted'")
    return rep.classify_growth(table), True


_DOT_COLORS = ("blue", "red", "darkgreen", "orange", "purple", "brown",
               "cadetblue", "magenta")


def cmd_dot(doc, args):
    quiver = get_quiver(doc)
    lines = ["digraph triangulation {"]
    for v in quiver.vertices:
        lines.append(f'  "{v}";')
    for group, orbit in enumerate(qv.f_orbits(quiver)):
        color = _DOT_COLORS[group % len(_DOT_COLORS)]
        for x in orbit:
            lines.append(
                f'  "{quiver.src[x]}" -> "{quiver.tgt[x]}" '
                f'[label="{x}", color="{color}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


COMMANDS = {
    "validate": cmd_validate,
    "orbits": cmd_orbits,
    "border": cmd_border,
    "tetrahedral": cmd_tetrahedral,
    "from-surface": cmd_from_surface,
    "to-surface": cmd_to_surface,
    "build": cmd_build,
    "dims": cmd_dims,
    "cartan": cmd_cartan,
    "form": cmd_form,
    "resolve-simple": cmd_resolve_simple,
    "verify-simple-periodicity": cmd_verify_simple,
    "verify-bimodule-periodicity": cmd_verify_bimodule,
    "verify-periodicity": cmd_verify_bimodule,
    "uniserial-check": cmd_uniserial_check,
    "walks": cmd_walks,
    "classify": cmd_classify,
}


def _jsonable(value):
    """Coerce witness payloads (maps with non-string keys) to JSON form."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _default_max_dim():
    env = os.environ.get("SAW_MAX_DIM")
    if env is None:
        return 60000
    try:
        return int(env)
    except ValueError:
        raise InputError(f"SAW_MAX_DIM must be an integer, got {env!r}")


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared after it.

    Sharing one parser between calls is sound: ``parse_args`` returns a
    fresh ``Namespace`` each time and the parser keeps no state of a
    call; argparse looks ``sys.stderr`` up when it prints, so a usage
    error goes to the stream current at that call; and the one default
    read from the environment, ``SAW_MAX_DIM``, stays out of the parser
    and is read by :func:`main` on every call.  Every caller gets the
    same object, so none may change it.  The parser is not built at
    import, so importing the package does not pay for it.
    """
    parser = argparse.ArgumentParser(
        prog="surfalg",
        description="Weighted surface algebras: construction and "
                    "verification from triangulation data.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in list(COMMANDS) + ["dot"]:
        p = sub.add_parser(name)
        p.add_argument("input", help="input JSON file, or - for stdin")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized searches (default 0)")
        p.add_argument("--max-dim", type=int, default=None,
                       help="largest bimodule dimension to attempt "
                            "(default 60000, or SAW_MAX_DIM)")
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_true",
                         help="compact JSON output (default)")
        fmt.add_argument("--pretty", action="store_true",
                         help="indented JSON output")
        if name == "resolve-simple":
            p.add_argument("--vertex", required=True,
                           help="vertex of the simple module")
        if name == "walks":
            p.add_argument("--arrow", required=True,
                           help="arrow generating the bipartite walk")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.max_dim is None:
            args.max_dim = _default_max_dim()
        if args.input == "-":
            text = sys.stdin.read()
        else:
            try:
                with open(args.input, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise InputError(str(exc)) from None
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(
                f"invalid JSON at line {exc.lineno} column {exc.colno}: "
                f"{exc.msg}") from None
        doc = parse_document(obj)
        if args.command == "dot":
            sys.stdout.write(cmd_dot(doc, args))
            return 0
        result, ok = COMMANDS[args.command](doc, args)
        report = {
            "command": args.command,
            "ok": bool(ok),
            "result": _jsonable(result),
            "warnings": list(doc["warnings"]),
        }
        if args.pretty:
            out = json.dumps(report, sort_keys=True, indent=2)
        else:
            out = json.dumps(report, sort_keys=True, separators=(",", ":"))
        sys.stdout.write(out + "\n")
        return 0 if ok else 1
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
