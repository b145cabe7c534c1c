"""Target policies: per-sample (cost, decision) pairs precomputed before training.

Four policies are supported.  ``Empirical`` pairs each sample's realized cost
with its optimal decision; ``RobustOpt`` swaps in the budget-robust decision
(keeping the realized cost, which is what the downstream regret uses);
``TopK`` keeps the best ``k`` decisions under the realized cost; ``KNN``
replaces the cost with interpolated neighbour costs
``w * c_neighbour + (1 - w) * c`` and solves each of them.

The query point is excluded from its own neighbour set: including it would
collapse the first interpolated cost to the sample's own cost and weaken the
estimator.  Distances are plain Euclidean in raw feature space, brute force.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from .core import Dataset, DimensionError, exact_float, from_fields
from .oracles import OracleAudit, UncertaintyParams, robust_solve, solve, top_k_solve


@dataclass(frozen=True)
class Empirical:
    kind, prefix = "empirical", "emp"


@dataclass(frozen=True)
class RobustOpt:
    kind = prefix = "ro"
    u: UncertaintyParams


@dataclass(frozen=True)
class TopK:
    kind = prefix = "topk"
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")


@dataclass(frozen=True)
class KNN:
    kind = prefix = "knn"
    k: int
    w: float

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if not 0.0 <= self.w <= 1.0:
            raise ValueError("interpolation weight must lie in [0, 1]")


TargetPolicy = Union[Empirical, RobustOpt, TopK, KNN]

POLICY_KINDS = {cls.kind: cls for cls in (Empirical, RobustOpt, TopK, KNN)}

# each kind's default entry, read by the train CLI's flags and the default sweep
POLICY_DEFAULTS = {"empirical": {}, "ro": {"rho": 0.5, "gamma_frac": 0.125},
                   "topk": {"k": 10}, "knn": {"k": 10, "w": 0.5}}


def policy_to_dict(policy: TargetPolicy) -> dict:
    return {"kind": policy.kind, **asdict(policy.u if isinstance(policy, RobustOpt) else policy)}


def policy_label(policy: TargetPolicy) -> str:
    """``emp``, or the prefix and `policy_to_dict`'s values: ints whole, floats ``:g``."""
    args = ";".join(f"{key}={value:g}" if isinstance(value, float) else f"{key}={value}"
                    for key, value in policy_to_dict(policy).items() if key != "kind")
    return f"{policy.prefix}({args})" if args else policy.prefix


def policy_from_dict(d: dict, n: Optional[int] = None) -> TargetPolicy:
    """The one policy parser: ``d["kind"]`` names a class of `POLICY_KINDS`,
    whose fields `from_fields` parses from the other keys.  A ``ro`` entry
    gives its budget as ``gamma`` or as ``gamma_frac`` of the cost dimension ``n``."""
    entry = {**d}
    kind = entry.pop("kind")
    if kind not in POLICY_KINDS:
        raise ValueError(f"unknown policy kind: {kind!r}")
    if kind != "ro":
        return from_fields(POLICY_KINDS[kind], entry)
    if "gamma_frac" in entry:
        if "gamma" in entry:
            raise ValueError("ro takes gamma or gamma_frac, not both")
        if n is None:
            raise ValueError("gamma_frac needs the cost dimension n")
        entry["gamma"] = exact_float(entry.pop("gamma_frac")) * n
    return RobustOpt(from_fields(UncertaintyParams, entry))


def knn_neighbors(ds: Dataset, i: int, k: int) -> List[int]:
    """Indices of the ``k`` samples nearest to sample ``i`` in feature space,
    excluding ``i`` itself; distance ties break toward the smaller index."""
    t = len(ds)
    if not 1 <= k <= t - 1:
        raise ValueError(f"k={k} out of range for dataset of size {t}")
    diffs = ds.features - ds.features[i]
    dists = np.sqrt(np.sum(diffs * diffs, axis=1))
    order = np.lexsort((np.arange(t), dists))
    picked = [int(j) for j in order if j != i]
    return picked[:k]


@dataclass(frozen=True)
class SampleTargets:
    """Targets for one sample: row ``j`` of ``costs``/``decisions`` is the
    j-th (target cost, target decision) pair.  ``ref_cost`` is the cost the
    surrogate-gradient engines subtract from the doubled prediction: the
    sample's own cost except under KNN, where it is the interpolated
    neighbour mean ``w * mean_j(c_j) + (1 - w) * c`` (this algebraic form is
    exact at ``w = 0``, keeping the KNN(w=0) run bit-identical to Empirical).
    """

    costs: np.ndarray       # (k, n)
    decisions: np.ndarray   # (k, n)
    ref_cost: np.ndarray    # (n,)

    def __post_init__(self):
        if self.decisions.shape[0] < 1:
            raise ValueError("target list is empty")

    def decision_mean(self) -> np.ndarray:
        """Mean target decision, a new array on each call."""
        return self.decisions.mean(axis=0)


@dataclass(frozen=True)
class TargetSet:
    policy: TargetPolicy
    per_sample: Tuple[SampleTargets, ...]
    precompute_solves: int

    def __len__(self) -> int:
        return len(self.per_sample)


def build_targets(policy: TargetPolicy, ds: Dataset, inst,
                  audit: Optional[OracleAudit] = None) -> TargetSet:
    """Precompute every sample's target pairs and record the solves consumed.

    Empirical and RobustOpt store one pair per sample; TopK and KNN store
    ``min(k, available)`` pairs.  All stored decisions are feasible by
    construction.  Empirical and KNN solve all their costs in one
    :func:`solve` call; RobustOpt and TopK work sample by sample.
    """
    if ds.meta.n != inst.n:
        raise DimensionError(
            f"dataset has n={ds.meta.n} but instance expects n={inst.n}")
    if audit is None:
        audit = OracleAudit()
    start = audit.solve_count
    if isinstance(policy, KNN):
        k, w = min(policy.k, len(ds) - 1), policy.w
        raws = [ds.costs[knn_neighbors(ds, i, k)] for i in range(len(ds))]
        costs_w = [w * raw + (1.0 - w) * c for raw, c in zip(raws, ds.costs)]
        decisions = solve(inst, np.concatenate(costs_w), audit)
        per_sample = [SampleTargets(costs=cw, decisions=x,
                                    ref_cost=w * raw.mean(axis=0) + (1.0 - w) * c)
                      for raw, c, cw, x in zip(raws, ds.costs, costs_w,
                                               decisions.reshape(len(ds), k, inst.n))]
    else:
        if isinstance(policy, Empirical):
            decisions = [[x] for x in solve(inst, ds.costs, audit)]
        elif isinstance(policy, RobustOpt):
            decisions = [[robust_solve(inst, c, policy.u, audit)] for c in ds.costs]
        elif isinstance(policy, TopK):
            decisions = [top_k_solve(inst, c, policy.k, audit) for c in ds.costs]
        else:
            raise TypeError(f"unknown target policy: {policy!r}")
        per_sample = [SampleTargets(costs=np.array([c] * len(decs)), decisions=np.array(decs),
                                    ref_cost=c.copy())
                      for c, decs in zip(ds.costs, decisions)]
    return TargetSet(policy=policy, per_sample=tuple(per_sample),
                     precompute_solves=audit.solve_count - start)
