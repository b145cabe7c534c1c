"""Experiment harness: regret metrics, significance testing, sweeps, and the
variance-bias Monte Carlo.

Normalized regret over a split is ``100 * sum(regret_i) / (sum |c_i^T x*(c_i)| + 1e-12)``,
computed by the regret kernel in :mod:`dflkit.learning`.  A split whose
optimal objectives sum to zero is flagged rather than dropped.

The sweep runner builds every (problem, t, noise, method, policy, seed) cell
before any runs, then per cell regenerates data (fresh mixing matrix per
seed) and trains one model.  It pairs each robust policy against its
empirical counterpart within the same method using a two-sided paired
Student t-test.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import MISSING, asdict, dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import (Dataset, DimensionError, RngStream, STREAM_BIAS_DEMO,
                   STREAM_INSTANCE, exact_float, exact_int)
from .datagen import GenParams, generate_splits
from .learning import METHODS, TrainConfig, decision_regret, normalized_regret_pct, train
from .oracles import DenseTSP, GridShortestPath, OracleAudit
from .targets import Empirical, build_targets, policy_from_dict, policy_label


# ---------------------------------------------------------------------------
# Regret evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegretReport:
    split: str
    model_id: str
    per_sample: np.ndarray
    normalized_regret_pct: float
    denominator_zero: bool


def _check_pred(pred_costs, ds: Dataset) -> np.ndarray:
    pred = np.asarray(pred_costs, dtype=np.float64)
    if pred.shape != ds.costs.shape:
        raise DimensionError(
            f"predictions have shape {pred.shape}, dataset costs {ds.costs.shape}")
    return pred


def eval_regret(pred_costs, ds: Dataset, inst, audit: Optional[OracleAudit] = None,
                split: str = "", model_id: str = "") -> RegretReport:
    """Empirical regret of predicted costs: ``c^T x*(chat) - c^T x*(c)``."""
    regrets, opt_vals = decision_regret(inst, _check_pred(pred_costs, ds), ds.costs,
                                        audit=audit)
    return RegretReport(split=split, model_id=model_id, per_sample=regrets,
                        normalized_regret_pct=normalized_regret_pct(regrets, opt_vals),
                        denominator_zero=float(np.sum(np.abs(opt_vals))) == 0.0)


def eval_expected_regret(pred_costs, ds: Dataset, inst,
                         audit: Optional[OracleAudit] = None) -> float:
    """Regret against the conditional-mean costs stored by the generator."""
    if ds.clean_costs is None:
        raise ValueError("dataset has no clean costs; regenerate with them")
    return normalized_regret_pct(*decision_regret(
        inst, _check_pred(pred_costs, ds), ds.clean_costs, audit=audit))


# ---------------------------------------------------------------------------
# Paired t-test via the regularized incomplete beta function
# ---------------------------------------------------------------------------

_BETA_TOL = 1e-10
_BETA_MAX_ITER = 500


def _beta_cont_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz), iterated
    to relative tolerance 1e-10."""
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETA_TOL:
            return h
    raise RuntimeError("incomplete beta continued fraction failed to converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log(1.0 - x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_fraction(a, b, x) / a
    return 1.0 - front * _beta_cont_fraction(b, a, 1.0 - x) / b


@dataclass(frozen=True)
class TTestResult:
    t_stat: float
    p_value: float
    significant: bool


def paired_t_test(a: Sequence[float], b: Sequence[float],
                  alpha: float = 0.05) -> TTestResult:
    """Two-sided paired Student t-test on seed-paired observations.

    Conventions: all-zero differences give ``(t=0, p=1)``; zero variance with
    a nonzero mean gives ``p=0`` (maximally significant).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise DimensionError("paired samples must be equal-length vectors")
    r = a.shape[0]
    if r < 2:
        raise ValueError("need at least two pairs")
    d = a - b
    mean = float(d.mean())
    var = float(np.sum((d - mean) ** 2)) / (r - 1)
    if var == 0.0:
        if mean == 0.0:
            return TTestResult(t_stat=0.0, p_value=1.0, significant=False)
        sign = 1.0 if mean > 0 else -1.0
        return TTestResult(t_stat=sign * math.inf, p_value=0.0,
                           significant=(0.0 < alpha))
    t = mean / math.sqrt(var / r)
    df = r - 1
    p = regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))
    return TTestResult(t_stat=t, p_value=p, significant=(p < alpha))


# ---------------------------------------------------------------------------
# Variance-bias Monte Carlo
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BiasDemoConfig:
    n_h: int
    n_l: int
    sigma_h: float
    sigma_l: float
    trials: int
    seed: int = 0

    def __post_init__(self):
        if self.n_h < 1 or self.n_l < 1 or self.n_h + self.n_l < 2:
            raise ValueError("need at least one decision per group and two total")
        if self.sigma_h < 0 or self.sigma_l < 0:
            raise ValueError("standard deviations must be non-negative")
        if not (math.isfinite(self.sigma_h) and math.isfinite(self.sigma_l)):
            raise ValueError("standard deviations must be finite")
        if self.trials < 1:
            raise ValueError("need at least one trial")


@dataclass(frozen=True)
class BiasDemoResult:
    config: BiasDemoConfig
    counts: np.ndarray        # wins per decision, high group first
    frequencies: np.ndarray
    high_mean_freq: float
    low_mean_freq: float

    def to_dict(self) -> dict:
        return {
            **asdict(self.config),
            "counts": [int(k) for k in self.counts],
            "frequencies": [float(f) for f in self.frequencies],
            "high_mean_freq": self.high_mean_freq,
            "low_mean_freq": self.low_mean_freq,
        }


def bias_demo(cfg: BiasDemoConfig) -> BiasDemoResult:
    """Monte Carlo of a one-of-n selection with independent zero-mean normal
    coefficients: decisions 0..n_h-1 have std ``sigma_h``, the rest
    ``sigma_l``.  Records how often each decision realizes the minimum
    (index ties go to the smallest index)."""
    n = cfg.n_h + cfg.n_l
    stream = RngStream(cfg.seed, STREAM_BIAS_DEMO)
    draws = stream.normal((cfg.trials, n))
    scale = np.concatenate([np.full(cfg.n_h, cfg.sigma_h),
                            np.full(cfg.n_l, cfg.sigma_l)])
    wins = np.argmin(draws * scale, axis=1)
    counts = np.bincount(wins, minlength=n)
    freqs = counts / cfg.trials
    return BiasDemoResult(
        config=cfg, counts=counts, frequencies=freqs,
        high_mean_freq=float(freqs[:cfg.n_h].mean()),
        low_mean_freq=float(freqs[cfg.n_h:].mean()),
    )


# ---------------------------------------------------------------------------
# Sweep runner
# ---------------------------------------------------------------------------

def _epochs_by_t(value) -> Dict[int, int]:
    if not isinstance(value, dict):
        raise TypeError(f"expected an object mapping t to epochs, got {type(value).__name__}")
    return {exact_int(k): exact_int(v) for k, v in value.items()}


# how SweepConfig.from_dict converts each required field
_REQUIRED_CASTS = dict(
    problems=tuple,
    t_values=lambda v: tuple(map(exact_int, v)),
    noise_values=lambda v: tuple(map(exact_float, v)),
    methods=tuple,
    policies=tuple,
    seeds=lambda v: tuple(map(exact_int, v)),
    epochs_by_t=_epochs_by_t,
)


@dataclass(frozen=True)
class SweepConfig:
    problems: Tuple[dict, ...]
    t_values: Tuple[int, ...]
    noise_values: Tuple[float, ...]
    methods: Tuple[str, ...]
    policies: Tuple[dict, ...]
    seeds: Tuple[int, ...]
    epochs_by_t: Dict[int, int]
    features: int = GenParams.m
    degree: int = GenParams.deg
    val_size: int = GenParams.t_val
    test_size: int = GenParams.t_test
    batch_size: int = TrainConfig.batch_size
    lr: float = TrainConfig.lr
    pfyl_samples: int = TrainConfig.pfyl_samples
    pfyl_sigma: float = TrainConfig.pfyl_sigma
    alpha: float = 0.05
    instance_seed: int = 0

    @staticmethod
    def from_dict(d: dict) -> "SweepConfig":
        """Parse a sweep JSON object.  Optional keys absent from ``d`` keep
        the dataclass defaults; present ones go through `exact_int` or
        `exact_float`, by the default's type.  A missing required key, or a
        value that does not convert or that the cast would change, raises a
        ``ValueError`` starting ``sweep config:`` that names the field."""
        casts = dict(_REQUIRED_CASTS)
        for f in fields(SweepConfig):
            if f.default is not MISSING and f.name in d:
                casts[f.name] = exact_int if type(f.default) is int else exact_float
        parsed = {}
        for name, cast in casts.items():
            if name not in d:
                raise ValueError(f"sweep config: missing field {name!r}")
            try:
                parsed[name] = cast(d[name])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"sweep config: {name}: {exc}") from None
        return SweepConfig(**parsed)


def default_sweep_config() -> dict:
    """Desk-scale defaults: 5x5 grid (t in {100, 1000}) and 8-node TSP
    (t=100), 10 seeds, 200 epochs at t=100 and 100 at t=1000."""
    return {
        "problems": [
            {"kind": "grid", "v": 5, "h": 5, "t_values": [100, 1000]},
            {"kind": "tsp", "nodes": 8, "t_values": [100]},
        ],
        "t_values": [100],
        "noise_values": [0.0, 0.5, 1.0],
        "methods": ["spo+", "pfyl", "mse"],
        "policies": [
            {"kind": "empirical"},
            {"kind": "ro", "rho": 0.5, "gamma_frac": 0.125},
            {"kind": "topk", "k": 10},
            {"kind": "knn", "k": 10, "w": 0.5},
        ],
        "seeds": list(range(10)),
        "epochs_by_t": {"100": 200, "1000": 100},
    }


def build_instance(problem: dict, instance_seed: int = 0):
    kind = problem["kind"]
    if kind == "grid":
        return GridShortestPath(exact_int(problem["v"]), exact_int(problem["h"]))
    if kind == "tsp":
        nodes = exact_int(problem["nodes"])
        stream = RngStream(instance_seed, STREAM_INSTANCE)
        coords = [(round(stream.uniform(0.0, 1.0), 6), round(stream.uniform(0.0, 1.0), 6))
                  for _ in range(nodes)]
        return DenseTSP(nodes, coords=coords)
    raise ValueError(f"unknown problem kind {kind!r}")


SWEEP_COLUMNS = [
    "row_type", "problem", "t", "noise", "method", "policy", "seed", "status",
    "test_regret_pct", "test_expected_regret_pct",
    "precompute_solves", "gradient_solves", "eval_solves", "wall_time_s",
    "mean_regret_pct", "std_regret_pct", "t_stat", "p_value", "marker",
]


def _parse_entry(where: str, build, entry, *args):
    """``build(entry, *args)``, re-raising a bad entry as a ``ValueError``
    that names ``where`` (``problems[i]``, its ``t_values``, or ``policies[j]``)."""
    try:
        return build(entry, *args)
    except KeyError as exc:
        raise ValueError(f"sweep config: {where} has no field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"sweep config: {where}: {exc}") from None


def sweep_cells(cfg: SweepConfig) -> List[Tuple[object, GenParams, TrainConfig]]:
    """Every detail cell as ``(instance, GenParams, TrainConfig)``, in run
    order: problem, t, noise, method, policy, seed.  Building a cell runs
    every check its objects make, so a config that cannot run raises a
    ``ValueError`` starting ``sweep config:`` before any cell runs; so does
    an empty list that would leave the sweep without cells.  An mse-only
    sweep never parses its policies."""
    for method in cfg.methods:
        if method not in METHODS:
            raise ValueError(f"sweep config: methods: unknown method {method!r}")
    uses_policies = any(method != "mse" for method in cfg.methods)
    for name in ("problems", "noise_values", "methods", "seeds", "policies"):
        if not getattr(cfg, name) and (name != "policies" or uses_policies):
            raise ValueError(f"sweep config: {name} is empty")
    cells = []
    for i, problem in enumerate(cfg.problems):
        inst = _parse_entry(f"problems[{i}]", build_instance, problem, cfg.instance_seed)
        where, t_values = "t_values", cfg.t_values
        if "t_values" in problem:
            where = f"problems[{i}].t_values"
            t_values = _parse_entry(where, _REQUIRED_CASTS["t_values"], problem["t_values"])
        if not t_values:
            raise ValueError(f"sweep config: {where} is empty")
        policies = [_parse_entry(f"policies[{j}]", policy_from_dict, entry, inst.n)
                    for j, entry in enumerate(cfg.policies) if uses_policies]
        runs = [(method, policy) for method in cfg.methods
                for policy in ([None] if method == "mse" else policies)]
        for t, noise, (method, policy), seed in itertools.product(
                t_values, cfg.noise_values, runs, cfg.seeds):
            if t not in cfg.epochs_by_t:
                raise ValueError(f"sweep config: epochs_by_t has no entry for t={t}")
            try:
                params = GenParams(m=cfg.features, deg=cfg.degree, noise_halfwidth=noise,
                                   t_train=t, t_val=cfg.val_size, t_test=cfg.test_size,
                                   seed=seed)
                tc = TrainConfig(method=method, policy=policy, epochs=cfg.epochs_by_t[t],
                                 batch_size=cfg.batch_size, lr=cfg.lr, seed=seed,
                                 pfyl_samples=cfg.pfyl_samples, pfyl_sigma=cfg.pfyl_sigma)
            except ValueError as exc:
                raise ValueError(f"sweep config: {exc}") from None
            cells.append((inst, params, tc))
    return cells


def run_cell(cell: Tuple[object, GenParams, TrainConfig]) -> dict:
    """One detail row: generate the cell's data, train, and score the test
    split.  A failure is recorded in ``status``."""
    inst, params, tc = cell
    row = {k: "" for k in SWEEP_COLUMNS}
    row.update(row_type="detail", problem=inst.descriptor(), t=params.t_train,
               noise=params.noise_halfwidth, method=tc.method,
               policy="mse" if tc.policy is None else policy_label(tc.policy),
               seed=params.seed)
    start = time.perf_counter()
    try:
        train_ds, val_ds, test_ds = generate_splits(inst, params)
        targets = None if tc.method == "mse" else build_targets(tc.policy, train_ds, inst)
        model = train(tc, train_ds, val_ds, inst, targets)
        pred = model.predictor.predict_batch(test_ds.features)
        row.update(
            test_regret_pct=eval_regret(pred, test_ds, inst).normalized_regret_pct,
            test_expected_regret_pct=eval_expected_regret(pred, test_ds, inst),
            precompute_solves=model.audit.precompute,
            gradient_solves=model.audit.gradient,
            eval_solves=model.audit.evaluation,
            status="ok")
    except Exception as exc:  # recorded, sweep continues
        row["status"] = f"error: {exc}"
    row["wall_time_s"] = time.perf_counter() - start
    return row


def run_sweep(cfg: SweepConfig) -> List[dict]:
    """Run the full experiment grid; returns detail rows followed by one
    aggregate row per cell.  Every cell is built before any runs (see
    ``sweep_cells``); individual run failures are recorded in the
    ``status`` column and the sweep continues."""
    detail_rows = [run_cell(cell) for cell in sweep_cells(cfg)]

    aggregate_rows: List[dict] = []
    groups: Dict[tuple, List[dict]] = {}
    for row in detail_rows:
        key = (row["problem"], row["t"], row["noise"], row["method"], row["policy"])
        groups.setdefault(key, []).append(row)

    def seed_series(key):
        return {r["seed"]: r["test_regret_pct"]
                for r in groups.get(key, []) if r["status"] == "ok"}

    for key, rows in groups.items():
        problem, t, noise, method, plabel = key
        vals = [r["test_regret_pct"] for r in rows if r["status"] == "ok"]
        agg = {k: "" for k in SWEEP_COLUMNS}
        agg.update(row_type="aggregate", problem=problem, t=t, noise=noise,
                   method=method, policy=plabel, status=f"ok:{len(vals)}/{len(rows)}")
        if vals:
            agg["mean_regret_pct"] = float(np.mean(vals))
            agg["std_regret_pct"] = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
        emp_key = (problem, t, noise, method, policy_label(Empirical()))
        if plabel not in ("mse", policy_label(Empirical())) and vals:
            mine = seed_series(key)
            theirs = seed_series(emp_key)
            shared = sorted(set(mine) & set(theirs))
            if len(shared) >= 2:
                res = paired_t_test([mine[s] for s in shared],
                                    [theirs[s] for s in shared], cfg.alpha)
                agg["t_stat"] = res.t_stat
                agg["p_value"] = res.p_value
                if res.significant:
                    agg["marker"] = "*" if res.t_stat < 0 else "x"
        aggregate_rows.append(agg)
    return detail_rows + aggregate_rows


def write_sweep_csv(rows: List[dict], path) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: (repr(v) if isinstance(v, float) else v)
                             for k, v in row.items()})
