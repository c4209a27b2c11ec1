"""Write a BENCH_<tag>.json result file and compare it with the ROADMAP.

    python3 perfbench/baseline.py --tag 5324385 --seed 1 --seconds 35

The file holds the last JSON line of ``run.py`` for each workload, traced
and untraced, plus single-algebra probes on the ROADMAP's unrelabelled
triangle (all parameters 1): the bimodule check at m=4 over Q and F101 and
the form check at dim 288 over Q.  Each probe's time is the median of
three fresh builds, in raw wall-clock seconds like the ROADMAP figures
(the run results are in reference-chunk seconds, see METRICS.md), given
with its ratio to the ROADMAP figure.  The
assembly share comes from one traced run, whose counting hooks add to the
assembly side.  Counts must match the ROADMAP exactly.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import surfalg as sa  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Figures from the ROADMAP re-anchor (Python 3.11).
ROADMAP = {
    "bimodule_m4_Q_s": 4.8,
    "bimodule_m4_F101_s": 0.85,
    "assembly_share_m4_Q": 0.78,
    "form_dim288_Q_s": 1.2,
    "multiply_calls_m4_Q": 586734,
}


def triangle(m, field):
    q = sa.validate(*workloads.TRIANGLE)
    return sa.build_algebra(sa.Presentation(q, field=field, m={"alpha": m}))


def timed(fn, m, field, reps=3):
    times = []
    for _ in range(reps):
        table = triangle(m, field)
        t0 = time.perf_counter()
        fn(table)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def traced_bimodule(m, field):
    tr = tracing.Trace()
    tr.install()
    try:
        t0 = time.perf_counter()
        sa.verify_bimodule_periodicity(triangle(m, field))
        total = time.perf_counter() - t0
    finally:
        tr.uninstall()
    layer, _missing = tr.metrics()
    assembly = sum(layer[f"bimodule.assembly_s.{s}"] for s in tracing.STAGES)
    elimination = sum(layer[f"linalg.rank_s.{s}"] for s in tracing.STAGES)
    return {"traced_s": total, "assembly_s": assembly,
            "elimination_s": elimination,
            "assembly_share": assembly / total,
            "multiply_calls": layer["algebra.multiply_calls"]}


def probes():
    f101 = sa.PrimeField(101)
    out = {
        "bimodule_m4_Q_s": timed(sa.verify_bimodule_periodicity, 4, sa.QQ),
        "bimodule_m4_F101_s": timed(sa.verify_bimodule_periodicity, 4, f101),
        "form_dim288_Q_s": timed(sa.verify_symmetrizing_form, 8, sa.QQ),
        "form_and_dual_basis_dim288_Q_s": timed(
            lambda t: (sa.verify_symmetrizing_form(t), sa.dual_basis(t)),
            8, sa.QQ),
        "traced_bimodule_m4_Q": traced_bimodule(4, sa.QQ),
        "traced_bimodule_m4_F101": traced_bimodule(4, f101),
    }
    q = out["traced_bimodule_m4_Q"]
    out["assembly_share_m4_Q"] = q["assembly_share"]
    out["multiply_calls_m4_Q"] = q["multiply_calls"]
    compare = {}
    for key, ref in ROADMAP.items():
        entry = {"measured": out[key], "roadmap": ref}
        if isinstance(ref, int):
            entry["exact_match"] = out[key] == ref
        else:
            entry["ratio_to_roadmap"] = out[key] / ref
        compare[key] = entry
    return out, compare


def bench_runs(seed, seconds):
    runs = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, os.path.join(HERE, "run.py"),
                    "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True,
                                  text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            runs[f"{name}/trace{trace}"] = {
                "summary": lines[0], "result": json.loads(lines[-1]),
                "failures": proc.stderr.strip().splitlines()}
    return runs


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    args = parser.parse_args()
    out, compare = probes()
    record = {
        "tag": args.tag,
        "machine": {"platform": platform.platform(),
                    "python": platform.python_version(),
                    "cpus": os.cpu_count()},
        "command": f"python3 perfbench/run.py --seed {args.seed} "
                   f"--seconds {args.seconds:g}",
        "roadmap_comparison": compare,
        "probes": out,
        "runs": bench_runs(args.seed, args.seconds),
    }
    path = os.path.join(HERE, f"BENCH_{args.tag}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps(compare, indent=1, sort_keys=True))
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
