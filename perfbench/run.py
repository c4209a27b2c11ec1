"""Time-to-verdict benchmark for surfalg.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads: ``ladder``, ``wide-weights``, ``cli-small``, or
``all``, which runs each of the three in its own process.

Before every pass a run sets up three times (imports surfalg afresh and
generates the seeded inputs); ``setup_s`` is the median of all set-ups.
Passes over the workload's ops run while the next one is expected to end
within ``--seconds``, and at least ``--min-passes`` (default 3).

Every time is taken relative to a reference chunk: fixed pure-Python
Fraction and dict work that runs between ops.  An op's sample is its time
over the mean time of the chunks just before and after it; the op's figure
is the median of its samples over the passes, times REF_SECONDS.  On a
shared machine the speed the process gets swings by up to two times, in
phases of a second to minutes, and that swing cancels in the ratio.  The
end-to-end times are sums of those figures, and the verdict latency
percentiles are taken over them.  Every op takes about a second or less,
so the chunks around it see the speed it ran at.
With ``--trace 1`` one more pass runs with the per-layer trace installed,
and the per-layer metrics are printed instead.  The last line of stdout is
one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 3
# Times are measured against a fixed pure-Python reference chunk that runs
# between ops (see ``run_pass``); they are reported in seconds at the
# nominal speed where one chunk takes REF_SECONDS.
REF_SECONDS = 1e-3
REF_LOOPS = 240
# With --trace 1, room left before the deadline for the traced pass, in
# untraced passes: the trace makes a pass about twice as slow.
TRACE_RESERVE = 3

import tracing  # noqa: E402
import workloads  # noqa: E402


def setup(workload, seed):
    """Import surfalg afresh and generate the workload's ops."""
    for name in [k for k in sys.modules
                 if k == "surfalg" or k.startswith("surfalg.")]:
        del sys.modules[name]
    sa = importlib.import_module("surfalg")
    importlib.import_module("surfalg.cli")
    return workloads.WORKLOADS[workload](sa, seed)


def reference():
    """Fraction and dict work that shares no code with surfalg."""
    acc = Fraction(0)
    table = {}
    for i in range(1, REF_LOOPS):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        key = (i % 17, i % 5)
        table[key] = table.get(key, 0) + i
    return acc, table


def ref_time(refs=None):
    t0 = time.perf_counter()
    reference()
    elapsed = time.perf_counter() - t0
    if refs is not None:
        refs.append(elapsed)
    return elapsed


def run_pass(ops, samples, failures, refs=None):
    """Run every op once and append its time, in reference chunks.

    A reference chunk runs before the first op and after each op.  An op's
    time is divided by the mean of the two chunks around it, so the speed
    the shared machine happens to give the process at that moment cancels
    out.  Returns the pass's wall-clock time.
    """
    clock = time.perf_counter
    t0 = clock()
    before = ref_time(refs)
    for i, op in enumerate(ops):
        start = clock()
        try:
            err = op.fn()
        except Exception as exc:  # a crash is a failed op, never fatal
            where = traceback.extract_tb(exc.__traceback__)[-1]
            err = (f"raised {type(exc).__name__}: {exc} "
                   f"({os.path.basename(where.filename)}:{where.lineno})")
        elapsed = clock() - start
        after = ref_time(refs)
        samples[i].append(elapsed / ((before + after) / 2))
        before = after
        if err:
            failures.append((op, err))
    return clock() - t0


def end_to_end(ops, per_op, setup_s):
    def total(pred):
        return sum(t for op, t in zip(ops, per_op) if pred(op))

    deciles = statistics.quantiles(per_op, n=10)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(per_op), "s"),
        "verify_q_s": (total(lambda op: op.field == "Q"), "s"),
        "verify_fp_s": (total(lambda op: op.field == "Fp"), "s"),
        "form_s": (total(lambda op: op.kind == "form"), "s"),
        "simple_s": (total(lambda op: op.kind == "simple"), "s"),
        "verdict_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
        "verdict_p90_ms": (deciles[8] * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def peak_rss_mb():
    """Peak resident set size of this process image, in MiB.

    Not ``ru_maxrss``: Linux carries the peak from before ``exec`` into it,
    so a run started by a larger process would report that process's peak.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


UNITS = {"_s": "s", "_ratio": "ratio", "_ms": "ms"}


def unit_of(name):
    for suffix, unit in UNITS.items():
        if name.endswith(suffix) or f"{suffix}." in name:
            return unit
    return "count"


def timed_setups(args, setups):
    """Set up SETUP_REPS times, recording each time in reference chunks.

    Returns the ops of the last set-up.
    """
    before = ref_time()
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        ops = setup(args.workload, args.seed)
        elapsed = time.perf_counter() - t0
        after = ref_time()
        setups.append(elapsed / ((before + after) / 2))
        before = after
    return ops


def run(args):
    setups = []
    samples = None
    failures = []
    walls = []
    refs = []
    clock = time.perf_counter
    deadline = clock() + args.seconds
    last = 0.0  # the last set-up plus pass, the estimate for the next one
    while len(walls) < args.min_passes or clock() + last <= deadline:
        t0 = clock()
        # Set-up is sampled before every pass, so that its median spans
        # the whole run rather than the machine's state at start-up.
        ops = timed_setups(args, setups)
        if samples is None:
            samples = [[] for _ in ops]
        walls.append(run_pass(ops, samples, failures, refs))
        last = (clock() - t0) * (1 + TRACE_RESERVE * args.trace)
    passes = len(walls)
    per_op = [statistics.median(s) * REF_SECONDS for s in samples]
    metrics = end_to_end(ops, per_op,
                         statistics.median(setups) * REF_SECONDS)
    print(f"# {args.workload} seed {args.seed}: {len(ops)} ops per pass, "
          f"{passes} passes of {', '.join(f'{w:.2f}' for w in walls)} s "
          f"wall clock; reference chunk median "
          f"{statistics.median(refs) * 1e3:.3f} ms, fastest "
          f"{min(refs) * 1e3:.3f} ms")
    if args.trace:
        traced = [[] for _ in ops]
        tr = tracing.Trace()
        tr.install()
        try:
            run_pass(ops, traced, failures)
        finally:
            tr.uninstall()
        passes += 1
        layer, missing = tr.metrics()
        layer["trace_overhead_ratio"] = (
            sum(t for (t,) in traced) * REF_SECONDS / sum(per_op))
        layer["bimodule_s"] = sum(t for op, t in zip(ops, per_op)
                                  if op.kind == "bimodule")
        layer["verdict_samples"] = len(ops)
        layer["trace.missing_hooks"] = len(tr.missing)
        metrics = {k: (v, unit_of(k)) for k, v in sorted(layer.items())}
        if missing:
            print("trace: missing (reported as 0): " + ", ".join(missing),
                  file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    attempted = len(ops) * passes
    report_failures(failures)
    unexpected = [op for op, _ in failures if not op.known_defect]
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


def report_failures(failures):
    seen = Counter((op.name, err, op.known_defect) for op, err in failures)
    for (name, err, known), count in seen.items():
        tag = "known defect" if known else "UNEXPECTED"
        print(f"failed ({tag}) x{count}: {name}: {err}", file=sys.stderr)


def run_all(args):
    """Each workload in its own process, one after another."""
    code = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--min-passes",
                str(args.min_passes)]
        print(f"## {name}", flush=True)
        code = max(code, subprocess.run(argv, cwd=ROOT).returncode)
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-passes", type=int, default=3)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "surfalg", "__init__.py")):
        print(f"error: no surfalg package under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
