"""Span tracer that wraps dflkit's public functions from outside the package.

``Tracer.install()`` replaces every module-level binding of a traced
function (``dflkit.learning.solve``, ``dflkit.targets.solve``, ...) with a
wrapper that records one span per call, so a solve issued by ``learning`` is
told apart from one issued by ``targets``.  ``Tracer.remove()`` puts the
original objects back.  Spans stay in memory until ``write()``.

A span is ``[name, caller, start, end, parent, op, extra]``: ``caller`` is the
module whose binding was called, ``parent`` the index of the enclosing span
(-1 at top level), ``op`` the arm, command or sweep cell being run, and
``extra`` a small dict of counts read off the call's arguments or result.
"""

from __future__ import annotations

import gzip
import json
import os
import time
from collections import defaultdict

import dflkit
from dflkit import bench, cli, core, datagen, learning, oracles, targets

MODULES = {"dflkit": dflkit, "oracles": oracles, "targets": targets,
           "learning": learning, "datagen": datagen, "bench": bench, "cli": cli}

TRACED = {
    "oracles.solve": oracles.solve,
    "oracles.top_k_solve": oracles.top_k_solve,
    "oracles.robust_solve": oracles.robust_solve,
    "oracles.worst_case_cost": oracles.worst_case_cost,
    "targets.build_targets": targets.build_targets,
    "learning.train": learning.train,
    "learning.save_model": learning.save_model,
    "learning.load_model": learning.load_model,
    "datagen.generate_samples": datagen.generate_samples,
    "datagen.save_dataset": datagen.save_dataset,
    "datagen.load_dataset": datagen.load_dataset,
    "bench.eval_regret": bench.eval_regret,
    "bench.eval_expected_regret": bench.eval_expected_regret,
    "bench.run_sweep": bench.run_sweep,
    "bench.write_sweep_csv": bench.write_sweep_csv,
    "cli.main": cli.main,
}
TRACED_METHODS = {"core.rng.permutation": (core.RngStream, "permutation"),
                  "core.rng.normal": (core.RngStream, "normal")}

POLICY_KEYS = {targets.Empirical: "emp", targets.RobustOpt: "ro",
               targets.TopK: "topk", targets.KNN: "knn"}


def _arg(args, kwargs, pos, name):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _dir_bytes(path) -> int:
    try:
        return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())
    except FileNotFoundError:
        return 0


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = ""
        self._stack = []
        self._saved = []
        self._cells = 0

    # -- wrapping -----------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        originals = {id(fn): name for name, fn in TRACED.items()}
        for caller, module in MODULES.items():
            for attr, value in list(vars(module).items()):
                name = originals.get(id(value))
                if name is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, self._wrap(value, name, caller))
        for name, (cls, attr) in TRACED_METHODS.items():
            fn = cls.__dict__[attr]
            self._saved.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(fn, name, "core"))

    def remove(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved = []

    def _wrap(self, fn, name, caller):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            rec = [name, caller, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            if before is not None:
                rec[6] = before(caller, args, kwargs)
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if after is not None:
                rec[6] = after(rec[6], args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- per-function extras --------------------------------------------------

    def _before_oracles_top_k_solve(self, caller, args, kwargs):
        audit = _arg(args, kwargs, 3, "audit")
        return {"audit": audit, "start": audit.solve_count if audit else 0}

    def _after_oracles_top_k_solve(self, extra, args, kwargs, result):
        audit = extra["audit"]
        return {"solves": audit.solve_count - extra["start"] if audit else 0}

    def _before_datagen_generate_samples(self, caller, args, kwargs):
        # Each sweep cell starts by generating its train split.
        if caller == "bench" and _arg(args, kwargs, 4, "split") == "train":
            self._cells += 1
            self.op = self.op.split("/cell")[0] + f"/cell{self._cells}"
        return None

    def _after_targets_build_targets(self, extra, args, kwargs, result):
        return {"policy": POLICY_KEYS[type(args[0])], "solves": result.precompute_solves}

    def _after_learning_train(self, extra, args, kwargs, result):
        return {"gradient": result.audit.gradient, "evaluation": result.audit.evaluation}

    def _after_datagen_save_dataset(self, extra, args, kwargs, result):
        return {"bytes": _dir_bytes(_arg(args, kwargs, 1, "directory"))}

    def _before_datagen_load_dataset(self, caller, args, kwargs):
        return {"bytes": _dir_bytes(_arg(args, kwargs, 0, "directory"))}

    def _before_cli_main(self, caller, args, kwargs):
        argv = _arg(args, kwargs, 0, "argv")
        return {"command": argv[0]}

    def _after_bench_run_sweep(self, extra, args, kwargs, result):
        self.op = self.op.split("/cell")[0]
        detail = [r for r in result if r["row_type"] == "detail"]
        return {"cells": len(detail),
                "failed": sum(r["status"] != "ok" for r in detail)}

    # -- output ---------------------------------------------------------------

    def write(self, path) -> None:
        keys = ("name", "caller", "start", "end", "parent", "op", "extra")
        with gzip.open(path, "wt") as fh:
            for rec in self.spans:
                extra = rec[6]
                if extra is not None:
                    extra = {k: v for k, v in extra.items() if k != "audit"}
                fh.write(json.dumps(dict(zip(keys, rec[:6] + [extra]))) + "\n")


def layer_metrics(spans) -> dict:
    """Per-layer metrics (values only) aggregated over all recorded spans."""
    dur = [rec[3] - rec[2] for rec in spans]
    child_s = [0.0] * len(spans)
    child_solves = [0] * len(spans)
    for i, rec in enumerate(spans):
        parent = rec[4]
        if parent >= 0:
            child_s[parent] += dur[i]
            if rec[0] == "oracles.solve":
                child_solves[parent] += 1

    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    counts = defaultdict(int)
    for i, rec in enumerate(spans):
        name, caller, extra = rec[0], rec[1], rec[6] or {}
        keys = [name]
        if name == "oracles.solve":
            keys.append(f"oracles.solve.from_{caller}")
        elif name == "targets.build_targets":
            keys.append(f"targets.build_targets.{extra['policy']}")
            counts[f"targets.build_targets.{extra['policy']}.solves"] += extra["solves"]
        elif name.startswith("core.rng."):
            keys.append("core.rng")
        elif name == "cli.main":
            keys.append(f"cli.main.{extra['command']}")
        elif name == "oracles.top_k_solve":
            counts["oracles.top_k_solve.solves"] += extra["solves"]
        elif name == "learning.train":
            counts["learning.solves.gradient"] += extra["gradient"]
            counts["learning.solves.evaluation"] += extra["evaluation"]
        elif name in ("datagen.save_dataset", "datagen.load_dataset"):
            counts[f"{name}.bytes"] += extra["bytes"]
        elif name == "bench.run_sweep":
            counts["bench.sweep.cells"] += extra["cells"]
            counts["bench.sweep.cells_failed"] += extra["failed"]
        if name in ("oracles.robust_solve", "bench.eval_regret",
                    "bench.eval_expected_regret"):
            counts[f"{name}.solves"] += child_solves[i]
        for key in keys:
            calls[key] += 1
            total[key] += dur[i]
            self_s[key] += dur[i] - child_s[i]

    def per_call_us(key):
        return 1e6 * total[key] / calls[key] if calls[key] else 0.0

    m = {
        "oracles.solve.calls": calls["oracles.solve"],
        "oracles.solve.s": total["oracles.solve"],
        "oracles.solve.us": per_call_us("oracles.solve"),
    }
    for caller in ("learning", "targets", "bench"):
        key = f"oracles.solve.from_{caller}"
        m[f"{key}.calls"] = calls[key]
        m[f"{key}.s"] = total[key]
    m.update({
        "oracles.top_k_solve.calls": calls["oracles.top_k_solve"],
        "oracles.top_k_solve.s": total["oracles.top_k_solve"],
        "oracles.top_k_solve.solves": counts["oracles.top_k_solve.solves"],
        "oracles.robust_solve.calls": calls["oracles.robust_solve"],
        "oracles.robust_solve.self_s": self_s["oracles.robust_solve"],
        "oracles.robust_solve.solves": counts["oracles.robust_solve.solves"],
        "oracles.worst_case_cost.calls": calls["oracles.worst_case_cost"],
        "oracles.worst_case_cost.us": per_call_us("oracles.worst_case_cost"),
    })
    for policy in ("emp", "ro", "topk", "knn"):
        key = f"targets.build_targets.{policy}"
        m[f"{key}.s"] = total[key]
        m[f"{key}.self_s"] = self_s[key]
        m[f"{key}.solves"] = counts[f"{key}.solves"]
    m.update({
        "learning.train.s": total["learning.train"],
        "learning.train.self_s": self_s["learning.train"],
        "learning.solves.gradient": counts["learning.solves.gradient"],
        "learning.solves.evaluation": counts["learning.solves.evaluation"],
        "learning.save_model.s": total["learning.save_model"],
        "learning.load_model.s": total["learning.load_model"],
        "datagen.generate_samples.s": total["datagen.generate_samples"],
        "datagen.save_dataset.s": total["datagen.save_dataset"],
        "datagen.save_dataset.bytes": counts["datagen.save_dataset.bytes"],
        "datagen.load_dataset.s": total["datagen.load_dataset"],
        "datagen.load_dataset.bytes": counts["datagen.load_dataset.bytes"],
        "bench.eval_regret.s": total["bench.eval_regret"],
        "bench.eval_regret.solves": counts["bench.eval_regret.solves"],
        "bench.eval_expected_regret.s": total["bench.eval_expected_regret"],
        "bench.eval_expected_regret.solves": counts["bench.eval_expected_regret.solves"],
        "bench.run_sweep.s": total["bench.run_sweep"],
        "bench.run_sweep.self_s": self_s["bench.run_sweep"],
        "bench.sweep.cells": counts["bench.sweep.cells"],
        "bench.sweep.cells_failed": counts["bench.sweep.cells_failed"],
        "bench.write_sweep_csv.s": total["bench.write_sweep_csv"],
    })
    for command in ("datagen", "train", "eval", "sweep"):
        m[f"cli.main.self_s.{command}"] = self_s[f"cli.main.{command}"]
    m["core.rng.calls"] = calls["core.rng"]
    m["core.rng.s"] = total["core.rng"]
    return m
