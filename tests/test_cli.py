"""Command-line interface: schema, commands, exit codes, determinism."""

import contextlib
import io
import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

import surfalg.algebra as alg
from surfalg.algebra import KINDS
from surfalg.cli import COMMANDS, build_parser, main

import fixtures as fx


def write_doc(tmp_path, doc, name="doc.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    return code, json.loads(out), err


def call_stdin(argv, text):
    """Run ``main`` on a document given on stdin; (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def triangle_doc(**extra):
    return fx.quiver_doc(fx.triangle_quiver(), **extra)


def tetrahedral_doc(**extra):
    return fx.quiver_doc(fx.tetrahedral_quiver(), **extra)


def test_validate_ok(tmp_path, capsys):
    path = write_doc(tmp_path, triangle_doc())
    code, rep, _ = run_json(capsys, ["validate", path])
    assert code == 0
    assert rep["ok"] and rep["result"]["valid"]


def test_validate_axiom_failure_exits_1(tmp_path, capsys):
    doc = {"quiver": {
        "vertices": [1, 2],
        "arrows": [{"id": "a", "from": 1, "to": 2},
                   {"id": "b", "from": 2, "to": 1},
                   {"id": "c", "from": 1, "to": 2},
                   {"id": "d", "from": 2, "to": 1}],
        "f": {"a": "b", "b": "a", "c": "d", "d": "c"}}}
    path = write_doc(tmp_path, doc)
    code, rep, _ = run_json(capsys, ["validate", path])
    assert code == 1
    assert not rep["ok"]
    assert rep["result"]["diagnostics"]


def test_unknown_top_level_key_exits_2(tmp_path, capsys):
    doc = triangle_doc()
    doc["extra"] = 1
    path = write_doc(tmp_path, doc)
    code, out, err = run(capsys, ["validate", path])
    assert code == 2
    assert out == ""
    assert "extra" in err


def test_quiver_and_surface_together_exit_2(tmp_path, capsys):
    doc = triangle_doc()
    doc["surface"] = fx.disc_surface().to_json()
    path = write_doc(tmp_path, doc)
    code, _, err = run(capsys, ["validate", path])
    assert code == 2


def with_quiver(**entries):
    doc = triangle_doc()
    doc["quiver"].update(entries)
    return doc


def with_surface(**entries):
    doc = fx.surface_doc(fx.disc_surface())
    doc["surface"].update(entries)
    return doc


# name: (command, document, a phrase the error line must hold)
SCHEMA_ERRORS = {
    "weights-list": ("dims", triangle_doc(weights=[1]), "'weights'"),
    "params-string": ("dims", triangle_doc(params="x"), "'params'"),
    "border-list": ("dims", triangle_doc(border=[1]), "'border'"),
    "vertices-int": ("validate", with_quiver(vertices=5),
                     "'quiver.vertices' must be a JSON array"),
    "vertices-nested-list": ("validate", with_quiver(vertices=[[1]]),
                             "got [1]"),
    "vertices-bool": ("validate", with_quiver(vertices=[True, 2, 3]),
                      "got True"),
    "arrows-object": ("validate", with_quiver(arrows={}),
                      "'quiver.arrows'"),
    "arrow-id-null": ("validate", with_quiver(arrows=[
        {"id": None, "from": 1, "to": 2}]), "an arrow's 'id'"),
    "f-list": ("validate", with_quiver(f=[]), "'quiver.f'"),
    "f-value-list": ("validate", with_quiver(f={"alpha": ["beta"]}),
                     "an f value"),
    "field-Fp4": ("validate", triangle_doc(field={"Fp": 4}), "got 4"),
    "field-bogus": ("validate", triangle_doc(field="bogus"),
                    "unknown field description 'bogus'"),
    "field-Fp-string": ("validate", triangle_doc(field={"Fp": "7"}),
                        "got '7'"),
    "surface-edges-int": ("validate", with_surface(edges=5),
                          "'surface.edges'"),
    "surface-triangles-object": ("validate", with_surface(triangles={}),
                                 "'surface.triangles'"),
    "surface-boundary-string": ("validate", with_surface(boundary="123"),
                                "'surface.boundary'"),
    "triangle-edges-string": ("validate", with_surface(
        triangles=[{"edges": "123"}]), "a triangle's 'edges'"),
    "selfFolded-int": ("validate", with_surface(
        triangles=[{"edges": [1, 2, 3], "selfFolded": 0}]), "selfFolded"),
}


@pytest.mark.parametrize("name", sorted(SCHEMA_ERRORS))
def test_schema_type_error_exits_2(name):
    command, doc, phrase = SCHEMA_ERRORS[name]
    code, out, err = call_stdin([command, "-"], json.dumps(doc))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert phrase in err


def test_malformed_json_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{nope")
    code, _, err = run(capsys, ["validate", str(p)])
    assert code == 2
    assert "line" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, ["validate", "/nonexistent/x.json"])
    assert code == 2


def test_orbits_and_border(tmp_path, capsys):
    path = write_doc(tmp_path, triangle_doc())
    code, rep, _ = run_json(capsys, ["orbits", path])
    assert code == 0
    orbit = rep["result"]["g_orbits"][0]
    assert orbit["arrows"] == ["alpha", "eta", "beta", "mu", "gamma",
                               "epsilon"]
    code, rep, _ = run_json(capsys, ["border", path])
    assert rep["result"]["border_vertices"] == [1, 2, 3]


def test_surface_round_trip_via_cli(tmp_path, capsys):
    path = write_doc(tmp_path, fx.surface_doc(fx.tetrahedron_surface()))
    code, rep, _ = run_json(capsys, ["from-surface", path])
    assert code == 0
    assert len(rep["result"]["quiver"]["arrows"]) == 12
    qdoc = {"quiver": rep["result"]["quiver"]}
    qpath = write_doc(tmp_path, qdoc, "roundtrip.json")
    code, rep2, _ = run_json(capsys, ["to-surface", qpath])
    assert code == 0
    assert len(rep2["result"]["surface"]["triangles"]) == 4
    assert rep2["result"]["surface"]["boundary"] == []


def test_build_dims_cartan_form(tmp_path, capsys):
    path = write_doc(tmp_path, triangle_doc())
    code, rep, _ = run_json(capsys, ["build", path])
    assert code == 0 and rep["result"]["dim"] == 36
    code, rep, _ = run_json(capsys, ["dims", path])
    assert code == 0 and rep["result"]["matches"]
    code, rep, _ = run_json(capsys, ["cartan", path])
    assert code == 0 and rep["result"]["det"] == 0
    code, rep, _ = run_json(capsys, ["form", path])
    assert code == 0 and rep["result"]["symmetric"]


def test_weights_key_normalization_warning(tmp_path, capsys):
    path = write_doc(tmp_path, triangle_doc(weights={"eta": 2}))
    code, rep, _ = run_json(capsys, ["dims", path])
    assert code == 0
    assert rep["result"]["dim"] == 72
    assert any("normalized" in w for w in rep["warnings"])


def test_field_and_kind_parsing(tmp_path, capsys):
    doc = triangle_doc(field={"Fp": 2}, kind="deformed",
                       border={"1": 1, "2": 1, "3": 1})
    path = write_doc(tmp_path, doc)
    code, rep, _ = run_json(capsys, ["build", path])
    assert code == 0
    assert rep["result"]["kind"] == "deformed"
    assert rep["result"]["field"] == {"Fp": 2}
    # rational scalars must be strings
    bad = triangle_doc(params={"alpha": 0.5})
    code, _, err = run(capsys, ["build", write_doc(tmp_path, bad, "b.json")])
    assert code == 2


def test_tetrahedral_command(tmp_path, capsys):
    path = write_doc(tmp_path, tetrahedral_doc(params={"beta": "2"}))
    code, rep, _ = run_json(capsys, ["tetrahedral", path])
    assert code == 0
    res = rep["result"]
    assert res["is_tetrahedral"] and not res["singular"]
    assert res["parameters"] == {"a": "2", "b": "1", "c": "1", "d": "1"}
    path2 = write_doc(tmp_path, triangle_doc(), "t2.json")
    code, rep, _ = run_json(capsys, ["tetrahedral", path2])
    assert code == 0
    assert not rep["result"]["is_tetrahedral"]


def test_resolve_simple_and_periodicity(tmp_path, capsys):
    path = write_doc(tmp_path, triangle_doc())
    code, rep, _ = run_json(capsys, ["resolve-simple", path, "--vertex", "2"])
    assert code == 0
    assert rep["result"]["verdict"] == "PERIODIC_PERIOD_4"
    assert rep["result"]["syzygy_dims"] == [1, 11, 13, 11, 1]
    assert rep["result"]["omega4_isomorphic_to_simple"]
    assert rep["result"]["early_return"] == []
    code, rep, _ = run_json(capsys, ["verify-simple-periodicity", path])
    assert code == 0 and rep["result"]["verdict"] == "PERIODIC_PERIOD_4"


def test_unknown_vertex_exits_2(tmp_path, capsys):
    path = write_doc(tmp_path, triangle_doc())
    code, _, err = run(capsys, ["resolve-simple", path, "--vertex", "9"])
    assert code == 2


def test_singular_tetrahedral_failures(tmp_path, capsys):
    path = write_doc(tmp_path, tetrahedral_doc())
    code, rep, _ = run_json(capsys, ["verify-simple-periodicity", path])
    assert code == 1
    assert rep["result"]["verdict"] == "NOT_VERIFIED"
    first = rep["result"]["per_vertex"][0]
    assert first["failing_stage"] == "kernel_pi1_equals_image_pi2"
    code, rep, _ = run_json(capsys, ["verify-bimodule-periodicity", path])
    assert code == 1
    assert rep["result"]["failing_stage"] == "exact_at_P1"


def test_bimodule_periodicity_and_alias(tmp_path, capsys):
    path = write_doc(tmp_path, triangle_doc())
    code, rep, _ = run_json(capsys, ["verify-bimodule-periodicity", path])
    assert code == 0
    assert rep["result"]["ranks"] == {"d0": 36, "d": 396, "R": 468,
                                      "S": 396, "theta": 36}
    code2, rep2, _ = run_json(capsys, ["verify-periodicity", path])
    assert code2 == 0
    assert rep2["result"] == rep["result"]


def test_max_dim_gate(tmp_path, capsys, monkeypatch):
    path = write_doc(tmp_path, triangle_doc())
    code, _, err = run(capsys,
                       ["verify-bimodule-periodicity", path,
                        "--max-dim", "100"])
    assert code == 2 and "max-dim" in err.replace("_", "-")
    monkeypatch.setenv("SAW_MAX_DIM", "100")
    code, _, err = run(capsys, ["verify-bimodule-periodicity", path])
    assert code == 2
    monkeypatch.setenv("SAW_MAX_DIM", "2000")
    code, _, _ = run(capsys, ["verify-bimodule-periodicity", path])
    assert code == 0
    # the parser is shared between calls; the variable is read on each
    monkeypatch.setenv("SAW_MAX_DIM", "100")
    code, _, err = run(capsys, ["verify-bimodule-periodicity", path])
    assert code == 2 and "SAW_MAX_DIM" in err
    monkeypatch.setenv("SAW_MAX_DIM", "many")
    code, _, err = run(capsys, ["verify-bimodule-periodicity", path])
    assert code == 2 and err.startswith("error: SAW_MAX_DIM")


def test_max_dim_gate_builds_no_table(tmp_path, capsys, monkeypatch):
    # the guard prices the spaces off the presentation alone
    built = []
    monkeypatch.setattr(alg.AlgebraTable, "__init__",
                        lambda self, pres: built.append(pres))
    path = write_doc(tmp_path, triangle_doc())
    code, out, err = run(capsys, ["verify-bimodule-periodicity", path,
                                  "--max-dim", "100"])
    assert (code, out, built) == (2, "", [])
    assert err == ("error: bimodule spaces reach dimension 864, over the "
                   "limit 100; raise --max-dim or SAW_MAX_DIM to proceed\n")


def test_default_max_dim_admits_triangle_m4(tmp_path, capsys, monkeypatch):
    # P1 = P2 = 13 824 at weight 4, under the default limit of 60 000
    monkeypatch.delenv("SAW_MAX_DIM", raising=False)
    path = write_doc(tmp_path, triangle_doc(weights={"alpha": 4}))
    code, rep, _ = run_json(capsys, ["verify-bimodule-periodicity", path])
    assert code == 0
    assert rep["result"]["dims"]["P1"] == 13824


def test_field_order_over_2_64_exits_2(tmp_path, capsys):
    path = write_doc(tmp_path, triangle_doc(field={"Fp": 2 ** 64 + 13}))
    code, out, err = run(capsys, ["dims", path])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_uniserial_check(tmp_path, capsys):
    path = write_doc(tmp_path, tetrahedral_doc())
    code, rep, _ = run_json(capsys, ["uniserial-check", path])
    assert code == 0
    assert rep["result"]["all_period_4"]
    assert len(rep["result"]["per_arrow"]) == 12
    path2 = write_doc(tmp_path, triangle_doc(), "t.json")
    code, _, err = run(capsys, ["uniserial-check", path2])
    assert code == 2


def test_walks_and_classify(tmp_path, capsys):
    path = write_doc(tmp_path, triangle_doc())
    code, rep, _ = run_json(capsys, ["walks", path, "--arrow", "alpha"])
    assert code == 0
    assert rep["result"]["bipartite"]["is_walk"]
    assert rep["result"]["nonpolynomial_witness"] is not None
    code, rep, _ = run_json(capsys, ["classify", path])
    assert code == 0
    assert rep["result"]["verdict"] == "NonPolynomialGrowth_Tame"
    tpath = write_doc(tmp_path, tetrahedral_doc(), "tet.json")
    code, rep, _ = run_json(capsys, ["classify", tpath])
    assert code == 0
    assert rep["result"]["verdict"] == "NotPeriodic_SingularTetrahedral"


def test_dot_output(tmp_path, capsys):
    path = write_doc(tmp_path, triangle_doc())
    code, out, _ = run(capsys, ["dot", path])
    assert code == 0
    assert out.startswith("digraph")
    assert '"1" -> "2" [label="alpha"' in out
    # the three f-cycle arrows share a color; the loops get their own
    alpha_color = [l for l in out.splitlines() if 'label="alpha"' in l][0]
    beta_color = [l for l in out.splitlines() if 'label="beta"' in l][0]
    assert alpha_color.split("color=")[1] == beta_color.split("color=")[1]


def test_pretty_and_compact_agree(tmp_path, capsys):
    path = write_doc(tmp_path, triangle_doc())
    _, compact, _ = run(capsys, ["cartan", path])
    _, pretty, _ = run(capsys, ["cartan", path, "--pretty"])
    assert json.loads(compact) == json.loads(pretty)
    assert len(pretty) > len(compact)


def test_byte_determinism_across_runs(tmp_path, capsys):
    tri = write_doc(tmp_path, triangle_doc())
    tet = write_doc(tmp_path, tetrahedral_doc(params={"beta": "3"}),
                    "tet.json")
    surf = write_doc(tmp_path, fx.surface_doc(fx.double_projective_surface()),
                     "surf.json")
    suite = [
        ["validate", tri], ["orbits", tri], ["border", tri],
        ["build", tri], ["dims", tri], ["cartan", tri], ["form", tri],
        ["tetrahedral", tet], ["classify", tet],
        ["resolve-simple", tri, "--vertex", "1", "--seed", "5"],
        ["verify-simple-periodicity", tet],
        ["verify-bimodule-periodicity", tri],
        ["uniserial-check", tet],
        ["walks", tri, "--arrow", "gamma"],
        ["from-surface", surf], ["to-surface", tri], ["dot", tet],
    ]
    outputs = []
    for _ in range(2):
        chunks = []
        for argv in suite:
            code, out, err = run(capsys, argv)
            chunks.append(f"{argv[0]}:{code}\n{out}")
        outputs.append("".join(chunks))
    assert outputs[0] == outputs[1]


def test_stdin_input(capsys, monkeypatch):
    import io
    doc = json.dumps(triangle_doc())
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code, rep, _ = run(capsys, ["orbits", "-"])
    assert code == 0
    assert json.loads(rep)["ok"]


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_usage_error_goes_to_the_current_stderr(tmp_path, capsys):
    path = write_doc(tmp_path, triangle_doc())
    for _ in range(2):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                pytest.raises(SystemExit) as exc:
            main(["resolve-simple", path])
        assert exc.value.code == 2
        assert err.getvalue().startswith("usage: surfalg resolve-simple")
        assert "--vertex" in err.getvalue()
        code, rep, err = run_json(capsys,
                                  ["resolve-simple", path, "--vertex", "2"])
        assert code == 0 and rep["ok"] and err == ""


# Fuzzer over the document schema: one key of a well-formed document takes
# an arbitrary JSON value.  Integers stay small, so a fuzzed weight builds
# an algebra of dimension at most 12 * 36.
TRIANGLE_IDS = ["alpha", "beta", "gamma", "epsilon", "eta", "mu",
                "1", "2", "3"]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 12)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=3) | st.sampled_from(KINDS + ("Q", "1/2", "-3")),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(TRIANGLE_IDS + ["Fp"]) | st.text(max_size=2),
        inner, max_size=4),
    max_leaves=8)
QUIVER_KEYS = {"quiver": (), "weights": (), "params": (), "border": (),
               "field": (), "kind": (), "vertices": ("quiver",),
               "arrows": ("quiver",), "f": ("quiver",),
               "id": ("quiver", "arrows", 0), "from": ("quiver", "arrows", 0),
               "to": ("quiver", "arrows", 0)}
SURFACE_KEYS = {"surface": (), "edges": ("surface",),
                "triangles": ("surface",), "boundary": ("surface",),
                "selfFolded": ("surface", "triangles", 0)}


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(sorted(QUIVER_KEYS) + sorted(SURFACE_KEYS)),
       value=JSON_VALUES)
def test_fuzzed_document_exits_0_1_or_2(key, value):
    if key in QUIVER_KEYS:
        doc, where = triangle_doc(), QUIVER_KEYS[key]
    else:
        doc, where = fx.surface_doc(fx.disc_surface()), SURFACE_KEYS[key]
    target = doc
    for step in where:
        target = target[step]
    target[key] = value
    text = json.dumps(doc)
    for command in ("validate", "dims", "form"):
        code, out, err = call_stdin([command, "-"], text)
        assert code in (0, 1, 2)
        if code == 2:
            assert out == "" and err.startswith("error:")
        else:
            assert err == "" and json.loads(out)["ok"] == (code == 0)


def relabelled_triangle_doc(arrow_1_twice=False, **extra):
    """The triangle document with vertex 2 renamed "1" and arrow eta, its
    loop, renamed 1: two vertex ids print alike, and with
    ``arrow_1_twice`` a further arrow "1" prints like arrow 1."""
    vmap = {1: 1, 2: "1", 3: 3}
    amap = {"eta": 1}
    q = fx.triangle_quiver()
    arrows = [{"id": amap.get(a, a), "from": vmap[q.src[a]],
               "to": vmap[q.tgt[a]]} for a in q.arrows]
    if arrow_1_twice:
        arrows.append({"id": "1", "from": 1, "to": 1})
    return {
        "quiver": {
            "vertices": [vmap[v] for v in q.vertices],
            "arrows": arrows,
            "f": {str(amap.get(a, a)): amap.get(q.f[a], q.f[a])
                  for a in q.arrows},
        },
        **extra,
    }


# boundary edges 1 and "1" would both give a loop named "bd_1"
ALIKE_BOUNDARY = {"surface": {
    "edges": [1, "1", 2], "triangles": [{"edges": [1, "1", 2]}],
    "boundary": [1, "1", 2]}}
ALIKE_ERROR = ("boundary edges 1 and '1' print alike, so both loops would "
               "be named 'bd_1'")

ID_ERRORS = {
    "weights-unknown": (["dims"], triangle_doc(weights={"nope": 2}),
                        "error: unknown arrow id 'nope'\n"),
    "params-unknown": (["dims"], triangle_doc(params={"beta2": "3"}),
                       "error: unknown arrow id 'beta2'\n"),
    "border-unknown": (["dims"], triangle_doc(border={"9": "1"}),
                       "error: unknown vertex id '9'\n"),
    "vertex-unknown": (["resolve-simple", "--vertex", "9"], triangle_doc(),
                       "error: unknown vertex id '9'\n"),
    "arrow-unknown": (["walks", "--arrow", "nope"], triangle_doc(),
                      "error: unknown arrow id 'nope'\n"),
    "border-ambiguous": (["dims"], relabelled_triangle_doc(
        border={"1": "1"}), "error: ambiguous vertex id '1'\n"),
    "vertex-ambiguous": (["resolve-simple", "--vertex", "1"],
                         relabelled_triangle_doc(),
                         "error: ambiguous vertex id '1'\n"),
    "f-ambiguous": (["validate"], relabelled_triangle_doc(arrow_1_twice=True),
                    "error: ambiguous arrow id '1'\n"),
    **{f"boundary-alike-{command}": ([command], ALIKE_BOUNDARY,
                                     f"error: {ALIKE_ERROR}\n")
       for command in ("from-surface", "dims", "orbits", "dot")},
}


@pytest.mark.parametrize("name", sorted(ID_ERRORS))
def test_unknown_and_ambiguous_ids_exit_2(name):
    argv, doc, want = ID_ERRORS[name]
    code, out, err = call_stdin(argv[:1] + ["-"] + argv[1:], json.dumps(doc))
    assert (code, out, err) == (2, "", want)


def test_relabelled_ids_resolve_by_their_str():
    # key "1" names arrow 1 alone (no arrow "1"): weight 2 on its orbit
    # doubles the dimension of the unit-weight algebra, 36
    doc = json.dumps(relabelled_triangle_doc(weights={"1": 2},
                                             params={"1": "3"}))
    code, out, err = call_stdin(["dims", "-"], doc)
    assert (code, err) == (0, "")
    assert json.loads(out)["result"]["dim"] == 72
    code, out, _ = call_stdin(["resolve-simple", "-", "--vertex", "3"], doc)
    assert code == 0 and json.loads(out)["result"]["alpha"] == "mu"


def test_validate_reports_boundary_edges_printing_alike():
    code, out, err = call_stdin(["validate", "-"], json.dumps(ALIKE_BOUNDARY))
    assert (code, err) == (1, "")
    assert json.loads(out)["result"] == {"valid": False,
                                         "diagnostics": [ALIKE_ERROR]}


# Surfaces that pass the schema and the slot count but whose quiver breaks
# the triangulation axioms: each must be refused, never end in a traceback.
AXIOM_BREAKING_SURFACES = {
    "disconnected": ({"surface": {
        "edges": [1, 2, 3, 4, 5, 6],
        "triangles": [{"edges": [1, 2, 3]}, {"edges": [1, 2, 3]},
                      {"edges": [4, 5, 6]}, {"edges": [4, 5, 6]}]}},
        "underlying graph is not connected"),
    "two-vertices": ({"surface": {
        "edges": [1, 2], "triangles": [{"edges": [1, 1, 2]}],
        "boundary": [2]}}, "quiver has 2 vertices, need at least 3"),
}
ALL_COMMANDS = {
    name: [name, "-"] + {"resolve-simple": ["--vertex", "1"],
                         "walks": ["--arrow", "t0_0"]}.get(name, [])
    for name in list(COMMANDS) + ["dot"]}


@pytest.mark.parametrize("name", sorted(AXIOM_BREAKING_SURFACES))
def test_surface_breaking_the_axioms_is_refused(name):
    doc, diagnostic = AXIOM_BREAKING_SURFACES[name]
    text = json.dumps(doc)
    assert len(ALL_COMMANDS) == 18
    for command, argv in sorted(ALL_COMMANDS.items()):
        code, out, err = call_stdin(argv, text)
        if command == "validate":
            assert (code, err) == (1, "")
            assert json.loads(out)["result"] == {
                "valid": False, "diagnostics": [diagnostic]}
        else:
            assert (code, out, err) == (
                2, "", "error: quiver violates the triangulation axioms: "
                f"{diagnostic}\n"), command


@st.composite
def surface_documents(draw):
    """A surface document of 1 to 5 edges: the two slots of every edge are
    dealt at random into triangles, three at a time, and the boundary, and
    a self-folded triangle is rotated to (a, a, b).  The slot count always
    holds.  Draws with more triangles come first, and shrink toward them,
    since the more boundary slots, the likelier an edge is dealt to the
    boundary twice, which ``validate_surface`` refuses.  Disconnected
    quivers and quivers of fewer than three vertices are drawn too."""
    edges = list(range(1, draw(st.integers(1, 5)) + 1))
    slots = draw(st.permutations(edges * 2))
    # few boundary slots first: two of them may be one edge's
    n = len(slots) - len(slots) % 3 - 3 * draw(st.integers(0, len(slots) // 3))
    triangles = []
    for i in range(0, n, 3):
        t = slots[i:i + 3]
        while len(set(t)) == 2 and t[0] != t[1]:
            t = t[1:] + t[:1]
        triangles.append({"edges": t})
    return {"surface": {"edges": edges, "triangles": triangles,
                        "boundary": slots[n:]}}


@settings(max_examples=200, deadline=None)
@given(doc=surface_documents())
def test_generated_surface_exits_0_1_or_2(doc):
    text = json.dumps(doc)
    for command in ("validate", "dims", "from-surface", "orbits", "dot"):
        code, out, err = call_stdin([command, "-"], text)
        assert code in (0, 1, 2), command
        if code == 2:
            assert out == "" and err.startswith("error: ")
            assert err.count("\n") == 1 and err.endswith("\n"), command
        elif command == "dot":
            assert (code, err) == (0, "") and out.startswith("digraph")
        else:
            assert err == "" and json.loads(out)["ok"] == (code == 0)
