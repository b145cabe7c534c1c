"""The benchmark's workloads, their operations and their correctness checks.

A workload has four operation kinds; ``run.py`` runs rounds of one
operation of each kind, in this order:

* ``grid-train`` -- training arms on a 5x5 grid shaped like acceptance
  criterion 6: SPO+/emp, SPO+/knn, PFYL/emp, PFYL/knn.
* ``tsp-targets`` -- SPO+ arms on the 8-node TSP with the policies emp, ro,
  topk and knn; target precompute dominates.
* ``cli-pipeline`` -- the ``datagen``, ``train``, ``eval`` and ``sweep``
  commands, run in-process through ``dflkit.cli.main``.

Every dflkit function is looked up on its module at call time
(``targets.build_targets``, not a local name), so the tracer's wrappers see
the benchmark's own calls too.  ``run_op`` is the timed part; ``check``
runs afterwards, outside the timed region, and returns
``(solves, digests, failures, cells, cells_failed)``: the audited nominal
solves the operation used, digests that repeats must reproduce, failed
check messages, and the sweep cells run and failed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dflkit import bench, cli, core, datagen, learning, oracles, targets

import checks

FEATURES = 5
DEGREE = 6
NOISE = 1.0
KNN_K, KNN_W = 10, 0.5
TOPK_K = 10
RHO, GAMMA_FRAC = 0.5, 0.125


@dataclass(frozen=True)
class Sizes:
    train: int
    val: int
    test: int
    epochs: int


def _policy(key: str, n: int):
    if key == "emp":
        return targets.Empirical()
    if key == "knn":
        return targets.KNN(k=KNN_K, w=KNN_W)
    if key == "topk":
        return targets.TopK(k=TOPK_K)
    if key == "ro":
        return targets.RobustOpt(oracles.UncertaintyParams(rho=RHO, gamma=GAMMA_FRAC * n))
    raise ValueError(f"unknown policy {key!r}")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@dataclass
class Arm:
    cfg: object
    train_ds: object
    test_ds: object
    targets: object
    model: object
    pred: np.ndarray
    report: object
    test_solves: int


class ArmWorkload:
    """Training arms: datagen, ``build_targets``, ``train``, ``eval_regret``."""

    def __init__(self, seed: int, workdir: Path, problem: dict, arms: dict,
                 sizes: Sizes, warm_sizes: Sizes):
        self.seed = seed
        self.workdir = workdir
        self.problem = problem
        self.arms = arms            # kind -> (method, policy key)
        self.kinds = list(arms)
        self.sizes = sizes
        self.warm_sizes = warm_sizes
        self.inst = None
        self._feasible = None

    def setup(self) -> None:
        """Build the instance and make one small call of every entry point."""
        self.inst = bench.build_instance(self.problem, instance_seed=self.seed)
        for kind in self.kinds:
            self._arm(kind, self.warm_sizes)

    def run_op(self, kind: str) -> Arm:
        return self._arm(kind, self.sizes)

    def _arm(self, kind: str, sz: Sizes) -> Arm:
        inst, seed = self.inst, self.seed
        method, key = self.arms[kind]
        policy = _policy(key, inst.n)
        params = datagen.GenParams(m=FEATURES, deg=DEGREE, noise_halfwidth=NOISE,
                                   t_train=sz.train, t_val=sz.val, t_test=sz.test,
                                   seed=seed)
        gm = datagen.make_gen_model(inst, FEATURES, seed)
        train_ds, val_ds, test_ds = (
            datagen.generate_samples(gm, count, params, core.RngStream(seed, stream), split)
            for split, count, stream in (("train", sz.train, core.STREAM_TRAIN_SAMPLES),
                                         ("val", sz.val, core.STREAM_VAL_SAMPLES),
                                         ("test", sz.test, core.STREAM_TEST_SAMPLES)))
        ts = targets.build_targets(policy, train_ds, inst)
        cfg = learning.TrainConfig(method=method, policy=policy, epochs=sz.epochs,
                                   seed=seed)
        model = learning.train(cfg, train_ds, val_ds, inst, ts)
        audit = oracles.OracleAudit()
        pred = model.predictor.predict_batch(test_ds.features)
        report = bench.eval_regret(pred, test_ds, inst, audit, split="test")
        return Arm(cfg, train_ds, test_ds, ts, model, pred, report, audit.solve_count)

    def check(self, kind: str, arm: Arm):
        if self._feasible is None:
            self._feasible = checks.feasible_set(self.inst)
        D, sz = self._feasible, self.sizes
        method, key = self.arms[kind]
        fails = []
        per = arm.targets.per_sample
        costs = arm.train_ds.costs
        if key in ("emp", "knn"):
            fails += checks.check_optimal(D, np.vstack([st.costs for st in per]),
                                          np.vstack([st.decisions for st in per]),
                                          f"{kind} targets")
        elif key == "topk":
            for i, st in enumerate(per):
                fails += checks.check_top_k(D, costs[i], st.decisions, TOPK_K,
                                            f"{kind} targets[{i}]")
        else:
            u = arm.cfg.policy.u
            for i, st in enumerate(per):
                fails += checks.check_robust(D, costs[i], st.decisions[0], u.rho, u.gamma,
                                             f"{kind} targets[{i}]")
        fails += checks.check_regrets(D, arm.pred, arm.test_ds.costs,
                                      arm.report.per_sample, f"{kind} test regret")
        samples = arm.cfg.pfyl_samples if method == "pfyl" else 1
        audit = arm.model.audit
        expected = {"gradient": (audit.gradient, sz.train * sz.epochs * samples),
                    "evaluation": (audit.evaluation, (sz.train + sz.val) * (sz.epochs + 1)),
                    "test eval": (arm.test_solves, 2 * sz.test)}
        fails += [f"{kind}: {what} solves {got}, expected {want}"
                  for what, (got, want) in expected.items() if got != want]
        model_path = self.workdir / "arm-model.json"
        learning.save_model(arm.model, arm.cfg, model_path)
        digests = {"theta": _sha(np.ascontiguousarray(arm.model.predictor.theta).tobytes()),
                   "regret": _sha(np.ascontiguousarray(arm.report.per_sample).tobytes()),
                   "model.json": _sha(model_path.read_bytes())}
        solves = audit.precompute + audit.gradient + audit.evaluation + arm.test_solves
        return solves, digests, fails, 0, 0


class CliWorkload:
    """The CLI commands in order, each reading what the previous one wrote."""

    kinds = ["datagen", "train", "eval", "sweep"]

    def __init__(self, seed: int, workdir: Path, sizes: Sizes, sweep_sizes: Sizes,
                 sweep_seeds: int, warm: "CliWorkload" = None):
        self.seed = seed
        self.workdir = workdir
        self.sizes = sizes
        self.sweep_sizes = sweep_sizes
        self.sweep_seeds = sweep_seeds
        self.warm = warm
        self._test_ds = None
        self._feasible = None
        self._verified = {}

    @property
    def data(self) -> Path:
        return self.workdir / "data"

    def _argv(self, kind: str) -> list:
        sz, w = self.sizes, self.workdir
        if kind == "datagen":
            return ["datagen", "--problem", "grid", "--grid", "5x5",
                    "--features", str(FEATURES), "--deg", str(DEGREE),
                    "--noise", str(NOISE), "--train", str(sz.train), "--val", str(sz.val),
                    "--test", str(sz.test), "--seed", str(self.seed), "--out", str(self.data)]
        if kind == "train":
            return ["train", "--data", str(self.data), "--method", "spo+", "--loss", "knn",
                    "--k", str(KNN_K), "--w", str(KNN_W), "--epochs", str(sz.epochs),
                    "--seed", str(self.seed), "--out", str(w / "model.json")]
        if kind == "eval":
            return ["eval", "--data", str(self.data), "--model", str(w / "model.json"),
                    "--split", "test", "--report", str(w / "report.json")]
        return ["sweep", "--config", str(w / "sweep.json"), "--out", str(w / "results.csv")]

    def _sweep_config(self) -> dict:
        sz = self.sweep_sizes
        return {
            "problems": [{"kind": "grid", "v": 3, "h": 3, "t_values": [sz.train]},
                         {"kind": "tsp", "nodes": 6, "t_values": [sz.train]}],
            "t_values": [sz.train],
            "noise_values": [NOISE],
            "methods": ["spo+", "pfyl", "mse"],
            "policies": [{"kind": "empirical"},
                         {"kind": "ro", "rho": RHO, "gamma_frac": GAMMA_FRAC},
                         {"kind": "topk", "k": TOPK_K},
                         {"kind": "knn", "k": KNN_K, "w": KNN_W}],
            "seeds": [self.seed + i for i in range(self.sweep_seeds)],
            "epochs_by_t": {str(sz.train): sz.epochs},
            "features": FEATURES,
            "degree": DEGREE,
            "val_size": sz.val,
            "test_size": sz.test,
            "instance_seed": self.seed,
        }

    def setup(self) -> None:
        """Write the sweep config and run every command once on tiny inputs."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        (self.workdir / "sweep.json").write_text(json.dumps(self._sweep_config()))
        if self.warm is not None:
            self.warm.setup()
            for kind in self.warm.kinds:
                self.warm.run_op(kind)

    def run_op(self, kind: str) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self._argv(kind))

    def check(self, kind: str, rc: int):
        if rc != 0:
            return 0, {}, [f"{kind}: exit code {rc}"], 0, 0
        return getattr(self, "_check_" + kind)()

    def _check_datagen(self):
        h = hashlib.sha256()
        for split in ("train", "val", "test"):
            for path in sorted((self.data / split).iterdir()):
                h.update(path.read_bytes())
        digests = {"files": h.hexdigest()[:16]}
        # A repeat with the same bytes gets the same verdict, so the full
        # check runs once per distinct output.
        key, fails = self._verified.get("datagen", (None, None))
        if key == digests:
            return 0, digests, list(fails), 0, 0
        sz, fails = self.sizes, []
        inst = bench.build_instance({"kind": "grid", "v": 5, "h": 5})
        params = datagen.GenParams(m=FEATURES, deg=DEGREE, noise_halfwidth=NOISE,
                                   t_train=sz.train, t_val=sz.val, t_test=sz.test,
                                   seed=self.seed)
        gm = datagen.make_gen_model(inst, FEATURES, self.seed)
        for split, count, stream in (("train", sz.train, core.STREAM_TRAIN_SAMPLES),
                                     ("val", sz.val, core.STREAM_VAL_SAMPLES),
                                     ("test", sz.test, core.STREAM_TEST_SAMPLES)):
            loaded = datagen.load_dataset(self.data / split)
            fresh = datagen.generate_samples(gm, count, params,
                                             core.RngStream(self.seed, stream), split)
            if not all(np.array_equal(getattr(loaded, a), getattr(fresh, a))
                       for a in ("features", "costs", "clean_costs")):
                fails.append(f"datagen: {split} split does not load back bit-identical")
            if split == "test":
                self._test_ds = loaded
        self._verified["datagen"] = (digests, fails)
        return 0, digests, list(fails), 0, 0

    def _check_train(self):
        sz = self.sizes
        raw = (self.workdir / "model.json").read_bytes()
        audit = json.loads(raw)["audit"]
        want = {"precompute": sz.train * min(KNN_K, sz.train - 1),
                "gradient": sz.train * sz.epochs,
                "evaluation": (sz.train + sz.val) * (sz.epochs + 1)}
        fails = [f"train: {k} solves {audit[k]}, expected {v}"
                 for k, v in want.items() if audit[k] != v]
        return sum(audit.values()), {"model.json": _sha(raw)}, fails, 0, 0

    def _check_eval(self):
        raw = (self.workdir / "report.json").read_bytes()
        model = (self.workdir / "model.json").read_bytes()
        digests = {"report": _sha(raw)}
        ds = self._test_ds
        key, fails = self._verified.get("eval", (None, None))
        if key == (digests, _sha(model)):
            return 4 * len(ds), digests, list(fails), 0, 0
        report = json.loads(raw)
        predictor, _ = learning.load_model(self.workdir / "model.json")
        if self._feasible is None:
            self._feasible = checks.feasible_set(bench.build_instance(
                {"kind": "grid", "v": 5, "h": 5}))
        fails = checks.check_regrets(self._feasible, predictor.predict_batch(ds.features),
                                     ds.costs, report["per_sample_regret"],
                                     "eval per-sample regret")
        self._verified["eval"] = ((digests, _sha(model)), fails)
        # eval_regret and eval_expected_regret each solve twice per row.
        return 4 * len(ds), digests, list(fails), 0, 0

    def _check_sweep(self):
        sz = self.sweep_sizes
        with open(self.workdir / "results.csv", newline="") as fh:
            rows = [r for r in csv.DictReader(fh) if r["row_type"] == "detail"]
        fails, solves, cells_failed, h = [], 0, 0, hashlib.sha256()
        for r in rows:
            h.update(repr(sorted((k, v) for k, v in r.items() if k != "wall_time_s")).encode())
            label = f"sweep cell {r['problem'].split(',')[0]} {r['method']} {r['policy']} seed={r['seed']}"
            if r["status"] != "ok":
                fails.append(f"{label}: {r['status']}")
                cells_failed += 1
                continue
            per_sample = {"spo+": 1, "pfyl": 1, "mse": 0}[r["method"]]
            want = {"gradient_solves": sz.train * sz.epochs * per_sample,
                    "eval_solves": (sz.train + sz.val) * (sz.epochs + 1)}
            bad = [f"{label}: {k} {r[k]}, expected {v}"
                   for k, v in want.items() if int(r[k]) != v]
            fails += bad
            cells_failed += bool(bad)
            solves += (int(r["precompute_solves"]) + int(r["gradient_solves"])
                       + int(r["eval_solves"]) + 4 * sz.test)
        if len(rows) != 2 * 9 * self.sweep_seeds:
            fails.append(f"sweep: {len(rows)} cells, expected {2 * 9 * self.sweep_seeds}")
        return solves, {"results.csv": h.hexdigest()[:16]}, fails, len(rows), cells_failed


def make(name: str, seed: int, workdir: Path, smoke: bool = False):
    """Workload ``name`` for ``seed``; ``smoke`` shrinks it for self-tests."""
    warm = Sizes(train=3, val=2, test=2, epochs=1)
    if name == "grid-train":
        arms = {"spo+/emp": ("spo+", "emp"), "spo+/knn": ("spo+", "knn"),
                "pfyl/emp": ("pfyl", "emp"), "pfyl/knn": ("pfyl", "knn")}
        sizes = Sizes(12, 5, 10, 2) if smoke else Sizes(100, 100, 1000, 200)
        return ArmWorkload(seed, workdir, {"kind": "grid", "v": 5, "h": 5}, arms,
                           sizes, warm)
    if name == "tsp-targets":
        arms = {k: ("spo+", k) for k in ("emp", "ro", "topk", "knn")}
        sizes = Sizes(12, 5, 5, 1) if smoke else Sizes(100, 20, 50, 3)
        return ArmWorkload(seed, workdir, {"kind": "tsp", "nodes": 8}, arms, sizes, warm)
    if name == "cli-pipeline":
        sizes = Sizes(12, 10, 30, 1) if smoke else Sizes(100, 1000, 5000, 5)
        sweep = Sizes(12, 4, 5, 1) if smoke else Sizes(20, 10, 20, 3)
        tiny = CliWorkload(seed, workdir / "warm", Sizes(12, 4, 4, 1),
                           Sizes(5, 2, 2, 1), 1)
        return CliWorkload(seed, workdir, sizes, sweep, 1 if smoke else 2, warm=tiny)
    raise ValueError(f"unknown workload {name!r}")

