"""Time one workload's ops under two source trees, in one process.

    python3 tools/ab_ops.py OLD NEW --workload wide-weights --rounds 10

OLD and NEW are roots of source checkouts, each with ``src/surfalg``.
Both packages are imported into this process, each as its own set of
module objects, and the ops of the workload are built once per tree from
``perfbench/workloads.py`` of the checkout this script lives in (it is
only read).  Every op builds its own tables, so a pass can be repeated.

After one warm-up pass per tree, which is not counted, each round runs
one pass per tree, and the order of the two trees
alternates from round to round.  An op's figure is its best time over the
rounds, so a swing in the speed the machine gives the process touches
both trees alike.  Printed: the sums of the best times of all ops, per op
kind and per field, for both trees and as the ratio NEW/OLD; the median
over rounds of each round's NEW/OLD ratio of the same sums
(``round_median``), which a slow spell moves less, since the two trees
run back to back within a round; for each tree the garbage collections of
each generation per pass (mean over its passes), whose shift moves the
benchmark's ``peak_rss_mb``; and the number of failed ops.  A collection
of generation 1 or 2 also empties generation 0 but counts only at its own
generation, so the three add up to the times the generation-0 threshold
was crossed.
"""

import argparse
import gc
import importlib
import importlib.util
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_package(root):
    """Import ``surfalg`` (and its CLI) afresh from ``root/src``."""
    for name in [k for k in sys.modules
                 if k == "surfalg" or k.startswith("surfalg.")]:
        del sys.modules[name]
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    try:
        sa = importlib.import_module("surfalg")
        importlib.import_module("surfalg.cli")
    finally:
        sys.path.remove(src)
    if not os.path.abspath(sa.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: surfalg was not imported from {src}")
    return sa


def load_workloads():
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("ab_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_pass(ops):
    """Run every op once.

    Returns (time of each op, collections of each generation during the
    pass, failed ops).
    """
    clock = time.perf_counter
    before = [g["collections"] for g in gc.get_stats()]
    failed = 0
    times = []
    for op in ops:
        start = clock()
        try:
            err = op.fn()
        except Exception:  # a crash is a failed op, as in the benchmark
            err = True
        times.append(clock() - start)
        failed += bool(err)
    after = [g["collections"] for g in gc.get_stats()]
    return times, [b - a for a, b in zip(before, after)], failed


def groups(ops):
    """(label, predicate) for all ops, each op kind and each field."""
    out = [("all", lambda op: True)]
    out += [(f"kind={k}", lambda op, k=k: op.kind == k)
            for k in sorted({op.kind for op in ops})]
    out += [(f"field={f}", lambda op, f=f: op.field == f)
            for f in sorted({op.field for op in ops})]
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    workloads = load_workloads()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(sorted(workloads.WORKLOADS))}")
    trees = []
    for root in (args.old, args.new):
        ops = workloads.WORKLOADS[args.workload](load_package(root),
                                                 args.seed)
        trees.append({"ops": ops, "rounds": [], "collections": [],
                      "failed": 0})
    if [op.name for op in trees[0]["ops"]] != \
            [op.name for op in trees[1]["ops"]]:
        raise SystemExit("error: the two trees give different op lists")
    for tree in trees:  # warm-up: first-call caches, not counted
        run_pass(tree["ops"])
    for r in range(args.rounds):
        for tree in (trees if r % 2 == 0 else trees[::-1]):
            times, collections, failed = run_pass(tree["ops"])
            tree["rounds"].append(times)
            tree["collections"].append(collections)
            tree["failed"] += failed
    for tree in trees:
        tree["best"] = [min(t) for t in zip(*tree["rounds"])]
    ops = trees[0]["ops"]
    print(f"# {args.workload} seed {args.seed}: {len(ops)} ops per pass, "
          f"best of {args.rounds} rounds, alternating order")
    print(f"{'group':<16} {'old_s':>10} {'new_s':>10} {'new/old':>8} "
          f"{'round_median':>12}")
    for label, pred in groups(ops):
        def total(times):
            return sum(t for op, t in zip(ops, times) if pred(op))
        old, new = (total(tree["best"]) for tree in trees)
        per_round = statistics.median(
            total(n) / total(o)
            for o, n in zip(trees[0]["rounds"], trees[1]["rounds"]))
        print(f"{label:<16} {old:>10.5f} {new:>10.5f} {new / old:>8.3f} "
              f"{per_round:>12.3f}")
    for name, tree in zip(("old", "new"), trees):
        per_gen = (statistics.mean(c) for c in zip(*tree["collections"]))
        print(f"collections per pass, {name}: "
              + " ".join(f"gen{g} {c:.1f}" for g, c in enumerate(per_gen)))
    print(f"failed ops: old {trees[0]['failed']} new {trees[1]['failed']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
