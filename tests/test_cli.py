"""Command-line interface: schema, commands, exit codes, determinism."""

import json

from surfalg.cli import main

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
