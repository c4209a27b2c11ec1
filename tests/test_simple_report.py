"""The per-vertex simple report, read off the verified resolution.

``cli._simple_report`` reads the syzygy fields off the explicit resolution
and runs the generic syzygy chain only when no reading can be made.  These
tests compare it with the report built the generic way every time, count
the generic calls, and force the fallback with maps that leave the radical.
"""

import collections
import random

import pytest

import surfalg as sa
from surfalg import cli, modules

import fixtures as fx
from test_cli import run_json, write_doc
from fixtures import CASES, FIELDS, deformed_triangle, presentation

GENERIC = ("syzygy", "hom_space", "module_iso")


def generic_simple_report(table, v, seed=0):
    """The simple report with four generic syzygies and ``module_iso``
    searches after the resolution check, as every report was once built."""
    report = sa.verify_simple_resolution(table, v)
    chain = [sa.simple_module(table, v)]
    for _ in range(4):
        chain.append(sa.syzygy(chain[-1])[0])
    iso4 = sa.module_iso(chain[4], chain[0], seed=seed)[0]
    early = [j for j in (1, 2, 3)
             if chain[j].total_dim == chain[0].total_dim
             and sa.module_iso(chain[j], chain[0], seed=seed)[0]]
    report["syzygy_dims"] = [m.total_dim for m in chain]
    report["omega4_isomorphic_to_simple"] = iso4
    report["early_return"] = early
    report["ok"] = (report["verdict"] == "PERIODIC_PERIOD_4" and iso4
                    and not early
                    and report["omega2_dim"] == report["omega2_expected"])
    return report


def assert_reports_match_generic(table):
    for v in table.quiver.vertices:
        report, fields = modules.read_simple_syzygies(table, v)
        # the reading is made exactly on the resolutions that pass
        assert (fields is None) == (report["verdict"] != "PERIODIC_PERIOD_4")
        assert cli._simple_report(table, v, 0) == generic_simple_report(
            table, v), v


@pytest.fixture
def generic_calls(monkeypatch):
    """Counts of calls to the generic syzygy and isomorphism functions."""
    calls = collections.Counter()
    for name in GENERIC:
        def counted(*args, _real=getattr(modules, name), _name=name, **kw):
            calls[_name] += 1
            return _real(*args, **kw)
        monkeypatch.setattr(modules, name, counted)
    return calls


def put_generator_entry(table, pi):
    """Give pi's first row at the vertex of its codomain's first summand an
    entry at that summand's generator coordinate."""
    w = pi.codomain.components[0]
    pi.mats[w][0][pi.codomain.coords[0][table.vpos[w]]] = (
        table.field.one)


@pytest.mark.parametrize("up", [0, 1])
@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("name,kind", CASES)
def test_simple_report_matches_generic_chain(name, kind, field, up):
    rng = random.Random(f"{name}/{kind}/{field}/{up}")
    assert_reports_match_generic(sa.build_algebra(
        presentation(name, kind, FIELDS[field], rng, up)))


@pytest.mark.parametrize("up", [0, 1, 2])
def test_simple_report_matches_generic_chain_deformed_f2(up):
    rng = random.Random(f"deformed/F2/{up}")
    assert_reports_match_generic(sa.build_algebra(
        deformed_triangle(sa.PrimeField(2), rng, True, up)))


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("a", [1, 2])
def test_simple_report_matches_generic_chain_tetrahedral(a, field):
    # a = 1 is singular: every resolution fails and the fallback runs
    table = fx.tetrahedral_algebra(a, field=FIELDS[field])
    assert_reports_match_generic(table)
    verdicts = {sa.verify_simple_resolution(table, v)["verdict"]
                for v in table.quiver.vertices}
    assert verdicts == {"NOT_VERIFIED" if a == 1 else "PERIODIC_PERIOD_4"}


@pytest.mark.parametrize("field", ["Q", {"Fp": 101}], ids=["Q", "F101"])
def test_passing_periodicity_makes_no_generic_call(tmp_path, capsys,
                                                   generic_calls, field):
    doc = fx.quiver_doc(fx.triangle_quiver(), weights={"alpha": 2},
                        field=field)
    code, rep, _ = run_json(
        capsys, ["verify-simple-periodicity", write_doc(tmp_path, doc)])
    assert code == 0 and rep["result"]["verdict"] == "PERIODIC_PERIOD_4"
    assert sum(generic_calls.values()) == 0


def test_singular_tetrahedral_runs_generic_chain(tmp_path, capsys,
                                                 generic_calls):
    doc = fx.quiver_doc(fx.tetrahedral_quiver())
    code, rep, _ = run_json(
        capsys, ["verify-simple-periodicity", write_doc(tmp_path, doc)])
    assert code == 1 and rep["result"]["verdict"] == "NOT_VERIFIED"
    assert generic_calls["syzygy"] == 4 * len(rep["result"]["per_vertex"])
    assert generic_calls["module_iso"] > 0


@pytest.mark.parametrize("which", ["pi2", "pi3"])
def test_corrupted_map_takes_fallback(monkeypatch, generic_calls, which):
    real = modules._resolution_maps

    def corrupted(table, v):
        maps = real(table, v)
        put_generator_entry(table, maps[{"pi2": 3, "pi3": 4}[which]])
        return maps

    monkeypatch.setattr(modules, "_resolution_maps", corrupted)
    table = fx.triangle_algebra(m=2)
    report = cli._simple_report(table, 1, 0)
    assert report["verdict"] == "NOT_VERIFIED"
    assert generic_calls["syzygy"] == 4
    assert report == generic_simple_report(table, 1)


@pytest.mark.parametrize("which", ["pi2", "pi3"])
def test_passing_maps_outside_radical_take_fallback(monkeypatch,
                                                    generic_calls, which):
    # Exactness of the real maps forces pi2 and pi3 into the radical, so
    # the entry goes in after the stages pass: only the radical scan can
    # then refuse the reading.
    real = modules._simple_resolution

    def outside(table, v):
        report, pi2, pi3 = real(table, v)
        put_generator_entry(table, {"pi2": pi2, "pi3": pi3}[which])
        return report, pi2, pi3

    monkeypatch.setattr(modules, "_simple_resolution", outside)
    table = fx.triangle_algebra(m=2)
    report, fields = modules.read_simple_syzygies(table, 1)
    assert report["verdict"] == "PERIODIC_PERIOD_4" and fields is None
    report = cli._simple_report(table, 1, 0)
    assert generic_calls["syzygy"] == 4
    assert report == generic_simple_report(table, 1)


def test_one_dimensional_middle_syzygy_takes_fallback(monkeypatch):
    # No legal algebra has one; a syzygy of total dimension 1 could be
    # isomorphic to the simple, which only the generic chain decides.
    real = modules._simple_resolution

    def small_omega2(table, v):
        report, pi2, pi3 = real(table, v)
        report["omega2_dim"] = 1
        return report, pi2, pi3

    monkeypatch.setattr(modules, "_simple_resolution", small_omega2)
    report, fields = modules.read_simple_syzygies(fx.triangle_algebra(), 1)
    assert report["verdict"] == "PERIODIC_PERIOD_4" and fields is None
