"""Per-layer trace, installed from outside the package.

``Trace.install`` wraps public functions and methods of the ``surfalg``
modules with timers and counters; ``Trace.uninstall`` restores them.  A
function imported by name into several modules is replaced in each of them.
A hook whose target no longer exists is recorded as missing and the metrics
it feeds are reported as missing (value 0, named on stderr) instead of
failing the run.

Times are inclusive: ``algebra.gram_s`` also counts the Gram matrices built
inside ``dual_basis``.  Two exceptions partition their time:
``bimodule.assembly_s.<stage>`` is the stage's rank call minus the
elimination inside it (``linalg.rank_s.<stage>``), and
``linalg.rowsolver_s`` counts RowSolver work outside the bimodule ranks.
"""

import sys
import time
from collections import defaultdict

STAGES = ("d0", "d", "R", "S", "theta")
STAGE_MAPS = {"map_d0": "d0", "map_d": "d", "map_R": "R", "map_S": "S"}

RANK_METRICS = [f"linalg.{k}.{s}" for k in ("rank_s", "rows", "rank", "nnz")
                for s in STAGES]
STAGE_METRICS = ([f"bimodule.assembly_s.{s}" for s in STAGES]
                 + RANK_METRICS + ["bimodule.composite_s"])

# (module, "function" or "Class.method", wrapper kind, metrics it feeds)
HOOKS = [
    ("surfalg.algebra", "AlgebraTable.multiply", "count",
     ["algebra.multiply_calls"]),
    ("surfalg.algebra", "AlgebraTable.basis_product", "hits",
     ["algebra.basis_product_hit_ratio"]),
    ("surfalg.algebra", "build_algebra", "time", ["algebra.build_s"]),
    ("surfalg.algebra", "gram_matrix", "time", ["algebra.gram_s"]),
    ("surfalg.algebra", "dual_basis", "time", ["algebra.dual_basis_s"]),
    ("surfalg.linalg", "dense_invert", "time",
     ["linalg.dense_invert_s", "linalg.dense_invert_n"]),
    ("surfalg.linalg", "rank_of_rows", "rank", RANK_METRICS),
    ("surfalg.linalg", "RowSolver.__init__", "unstaged",
     ["linalg.rowsolver_s"]),
    ("surfalg.linalg", "RowSolver.solve", "unstaged",
     ["linalg.rowsolver_s"]),
    ("surfalg.linalg", "RowSolver.residual", "unstaged",
     ["linalg.rowsolver_s"]),
    ("surfalg.fields", "RationalField.add", "count", ["fields.ops.Q"]),
    ("surfalg.fields", "RationalField.mul", "count", ["fields.ops.Q"]),
    ("surfalg.fields", "PrimeField.add", "count", ["fields.ops.Fp"]),
    ("surfalg.fields", "PrimeField.mul", "count", ["fields.ops.Fp"]),
    ("surfalg.modules", "verify_simple_resolution", "time",
     ["modules.resolution_s"]),
    ("surfalg.modules", "syzygy", "time", ["modules.syzygy_s"]),
    ("surfalg.modules", "hom_space", "time", ["modules.hom_space_s"]),
    ("surfalg.modules", "module_iso", "time", ["modules.module_iso_s"]),
    ("surfalg.modules", "_invertible_everywhere", "count",
     ["modules.iso_tries"]),
    ("surfalg.bimodule", "bimodule_spaces", "time", ["bimodule.setup_s"]),
    ("surfalg.bimodule", "map_d0", "stage_map", ["bimodule.setup_s"]),
    ("surfalg.bimodule", "map_d", "stage_map", ["bimodule.setup_s"]),
    ("surfalg.bimodule", "map_R", "stage_map", ["bimodule.setup_s"]),
    ("surfalg.bimodule", "map_S", "stage_map", ["bimodule.setup_s"]),
    ("surfalg.bimodule", "map_theta", "theta_map",
     ["bimodule.setup_s"] + STAGE_METRICS),
    ("surfalg.bimodule", "BimoduleMap.rank", "stage_rank", STAGE_METRICS),
    ("surfalg.bimodule", "BimoduleMap.apply_flat", "unstaged",
     ["bimodule.composite_s"]),
    ("surfalg.quiver", "g_structure", "time", ["quiver.g_structure_s"]),
    ("surfalg.quiver", "is_tetrahedral", "time", ["quiver.is_tetrahedral_s"]),
    ("surfalg.reptype", "classify_growth", "time", ["reptype.classify_s"]),
    ("surfalg.cli", "parse_document", "time", ["cli.parse_s"]),
]

# Which accumulator each hook writes (default: its first metric).
KEYS = {
    "AlgebraTable.basis_product": "bp",
    "dense_invert": "linalg.dense_invert",
    "map_d0": "bimodule.setup_s", "map_d": "bimodule.setup_s",
    "map_R": "bimodule.setup_s", "map_S": "bimodule.setup_s",
    "map_theta": "bimodule.setup_s",
}


class Trace:
    """Timers and counters around surfalg calls, plus their undo log."""

    def __init__(self, hooks=HOOKS):
        self.hooks = list(hooks)
        self.t = defaultdict(float)
        self.n = defaultdict(int)
        self.missing = []
        self.stage = None
        self.bp_unavailable = False
        self._undo = []

    # -- installing ------------------------------------------------------

    def install(self):
        for modname, target, kind, metrics in self.hooks:
            mod = sys.modules.get(modname)
            owner, _, attr = target.rpartition(".")
            holder = getattr(mod, owner, None) if owner else mod
            orig = None
            if holder is not None:
                orig = (vars(holder).get(attr) if isinstance(holder, type)
                        else getattr(holder, attr, None))
            if not callable(orig):
                self.missing.append((f"{modname}.{target}", metrics))
                continue
            key = KEYS.get(target, metrics[0])
            new = getattr(self, "_" + kind)(orig, key, attr)
            if owner:
                self._set(holder, attr, new)
            else:
                for m in list(sys.modules.values()):
                    name = getattr(m, "__name__", "")
                    if name != "surfalg" and not name.startswith("surfalg."):
                        continue
                    for k, v in list(vars(m).items()):
                        if v is orig:
                            self._set(m, k, new)

    def _set(self, obj, attr, value):
        self._undo.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, value)

    def uninstall(self):
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    # -- wrapper kinds ---------------------------------------------------

    def _time(self, orig, key, _attr):
        t, n, clock = self.t, self.n, time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                t[key] += clock() - t0
                n[key] += 1
        return wrapper

    def _count(self, orig, key, _attr):
        n = self.n

        def wrapper(*args, **kwargs):
            n[key] += 1
            return orig(*args, **kwargs)
        return wrapper

    def _hits(self, orig, key, _attr):
        n, trace = self.n, self

        def wrapper(table, i, j):
            cache = getattr(table, "_bp", None)
            if cache is None:
                trace.bp_unavailable = True
            elif (i, j) in cache:
                n[key + ".hits"] += 1
            n[key + ".calls"] += 1
            return orig(table, i, j)
        return wrapper

    def _rank(self, orig, _key, _attr):
        t, n, trace, clock = self.t, self.n, self, time.perf_counter

        def wrapper(rows, field):
            stage = trace.stage
            if stage is None:
                return orig(rows, field)
            rows = list(rows)
            t0 = clock()
            r = orig(rows, field)
            t["linalg.rank_s." + stage] += clock() - t0
            n["linalg.rows." + stage] += len(rows)
            n["linalg.rank." + stage] += r
            n["linalg.nnz." + stage] += sum(len(row) for row in rows)
            return r
        return wrapper

    def _unstaged(self, orig, key, _attr):
        """Time calls made outside the bimodule rank stages only."""
        t, trace, clock = self.t, self, time.perf_counter

        def wrapper(*args, **kwargs):
            if trace.stage is not None:
                return orig(*args, **kwargs)
            t0 = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                t[key] += clock() - t0
        return wrapper

    def _staged(self, fn, stage):
        """Run a rank computation with its stage set for the linalg hooks."""
        t, trace, clock = self.t, self, time.perf_counter

        def wrapper(*args, **kwargs):
            outer, trace.stage = trace.stage, stage
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t["bimodule.rank_call_s." + stage] += clock() - t0
                trace.stage = outer
        return wrapper

    def _stage_map(self, orig, key, attr):
        timed = self._time(orig, key, attr)
        stage = STAGE_MAPS[attr]

        def wrapper(*args, **kwargs):
            result = timed(*args, **kwargs)
            try:
                result._perfbench_stage = stage
            except AttributeError:
                pass
            return result
        return wrapper

    def _theta_map(self, orig, key, attr):
        timed = self._time(orig, key, attr)
        trace = self

        def wrapper(*args, **kwargs):
            result = timed(*args, **kwargs)
            if isinstance(result, dict) and callable(result.get("rank")):
                result["rank"] = trace._staged(result["rank"], "theta")
            return result
        return wrapper

    def _stage_rank(self, orig, _key, _attr):
        staged = {s: self._staged(orig, s) for s in STAGES}

        def wrapper(self_, *args, **kwargs):
            stage = getattr(self_, "_perfbench_stage", None)
            if stage is None:
                return orig(self_, *args, **kwargs)
            return staged[stage](self_, *args, **kwargs)
        return wrapper

    # -- results ---------------------------------------------------------

    def metrics(self):
        """Per-layer values, and the names of metrics whose hook is missing."""
        t, n = self.t, self.n
        out = {
            "algebra.multiply_calls": n["algebra.multiply_calls"],
            "algebra.basis_product_hit_ratio":
                n["bp.hits"] / n["bp.calls"] if n["bp.calls"] else 0.0,
            "linalg.dense_invert_s": t["linalg.dense_invert"],
            "linalg.dense_invert_n": n["linalg.dense_invert"],
            "bimodule.composite_s": t["bimodule.composite_s"],
        }
        for s in STAGES:
            out[f"bimodule.assembly_s.{s}"] = max(
                0.0, t["bimodule.rank_call_s." + s] - t["linalg.rank_s." + s])
            out[f"linalg.rank_s.{s}"] = t["linalg.rank_s." + s]
            for k in ("rows", "rank", "nnz"):
                out[f"linalg.{k}.{s}"] = n[f"linalg.{k}.{s}"]
        for name in ("fields.ops.Q", "fields.ops.Fp", "modules.iso_tries"):
            out[name] = n[name]
        for _m, _t, _k, metrics in self.hooks:
            for name in metrics:
                if name not in out:
                    out[name] = t[name]
        missing = sorted({m for _h, ms in self.missing for m in ms})
        if self.bp_unavailable:
            missing.append("algebra.basis_product_hit_ratio")
        for name in missing:
            out[name] = 0
        return out, missing
