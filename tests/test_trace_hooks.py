"""The per-layer benchmark trace still finds every bimodule hook."""

import importlib.util
import pathlib

from surfalg.bimodule import verify_bimodule_periodicity

import fixtures as fx

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_bimodule_hooks_present_and_stages_traced():
    tracing = load_tracing()
    table = fx.triangle_algebra()
    trace = tracing.Trace()
    trace.install()
    try:
        verify_bimodule_periodicity(table)
    finally:
        trace.uninstall()
    missing = [name for name, _ in trace.missing
               if name.startswith("surfalg.bimodule.")]
    assert missing == []
    metrics, _ = trace.metrics()
    for stage in tracing.STAGES:
        assert metrics[f"bimodule.assembly_s.{stage}"] > 0, stage
        assert metrics[f"linalg.rows.{stage}"] > 0, stage
