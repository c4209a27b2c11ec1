"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks that one pass of each workload completes, traced and untraced, with
metric names and units exactly as BENCHMARK.json lists them; that the only
failed ops are the known CLI defects; that counts repeat exactly across
processes; that no AlgebraTable is shared between ops; and that a trace
hook whose target is gone is reported missing instead of crashing.
"""

import json
import os
import re
import subprocess
import sys
import weakref

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
COUNTS = re.compile(r"(algebra\.multiply_calls|linalg\.(rows|rank|nnz)\..*"
                    r"|fields\.ops\..*)\Z")

sys.path.insert(0, os.path.join(ROOT, "src"))
import run  # noqa: E402
import tracing  # noqa: E402


def bench(workload, trace, seed=3):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
            workload, "--seed", str(seed), "--seconds", "0",
            "--min-passes", "1", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_names(spec):
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names)), "metric or workload name reused"
    for name in names:
        assert NAME.match(name), f"bad name {name!r}"


def check_run(spec, workload, trace, result, defects):
    listed = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, (workload, trace, set(got) ^ set(want))
    assert result["correct"], (workload, trace)
    passes = result["attempted"] // len(defects["ops"])
    assert result["failed"] == defects["count"] * passes, (workload, result)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values()), \
            (workload, result["metrics"])


def check_no_shared_tables(workload):
    """Every table an op multiplies in was built by that op."""
    ops = run.setup(workload, 5)
    table_cls = sys.modules["surfalg.algebra"].AlgebraTable
    current = [None]
    created = [0]
    owner = weakref.WeakKeyDictionary()
    init, multiply = table_cls.__init__, table_cls.multiply

    def tagged_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        owner[self] = current[0]
        created[0] += 1

    def checked_multiply(self, x, y):
        assert owner.get(self) == current[0], (
            f"op {current[0]} used a table built by {owner.get(self)}")
        return multiply(self, x, y)

    table_cls.__init__, table_cls.multiply = tagged_init, checked_multiply
    try:
        for op in ops:
            current[0] = op.name
            built = created[0]
            try:
                op.fn()
            except AssertionError:
                raise
            except Exception:
                if not op.known_defect:
                    raise
            if workload != "cli-small":
                assert created[0] > built, f"op {op.name} built no table"
    finally:
        table_cls.__init__, table_cls.multiply = init, multiply


def check_missing_hook():
    ops = run.setup("cli-small", 7)
    hooks = tracing.HOOKS + [
        ("surfalg.linalg", "removed_function", "time", ["linalg.removed_s"]),
        ("surfalg.algebra", "AlgebraTable.removed_method", "count",
         ["algebra.removed_calls"]),
        ("surfalg.removed_module", "anything", "time", ["removed.any_s"]),
    ]
    linalg = sys.modules["surfalg.linalg"]
    before = dict(vars(linalg))
    tr = tracing.Trace(hooks)
    tr.install()
    try:
        run.run_pass(ops[:40], [[] for _ in ops[:40]], [])
    finally:
        tr.uninstall()
    assert all(vars(linalg)[k] is v for k, v in before.items())
    metrics, missing = tr.metrics()
    for name in ("linalg.removed_s", "algebra.removed_calls", "removed.any_s"):
        assert name in missing and metrics[name] == 0, name
    assert metrics["algebra.multiply_calls"] > 0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_names(spec)
    for workload in run.workloads.WORKLOADS:
        ops = run.setup(workload, 3)
        defects = {"ops": ops,
                   "count": sum(op.known_defect for op in ops)}
        results = [bench(workload, trace) for trace in (0, 1)]
        for trace, result in enumerate(results):
            check_run(spec, workload, trace, result, defects)
        print(f"ok: {workload} runs traced and untraced")
    counts = [{k: v["value"] for k, v in bench("cli-small", 1)["metrics"]
               .items() if COUNTS.match(k)} for _ in range(2)]
    assert counts[0] == counts[1] and counts[0], counts
    print("ok: counts repeat across processes")
    for workload in run.workloads.WORKLOADS:
        check_no_shared_tables(workload)
    print("ok: no AlgebraTable is shared between ops")
    check_missing_hook()
    print("ok: missing trace hooks are reported, not fatal")


if __name__ == "__main__":
    main()
