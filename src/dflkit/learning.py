"""Linear predictor, surrogate-gradient engines, the regret kernel, and the
training loop.

Gradient engines (all return gradients with respect to the predicted cost
vectors, one row per sample; the chain rule to predictor parameters is
``g z^T``).  Each is a minibatch kernel that makes one ``solve_batch`` call:

* ``spo_plus_batch_gradient``: ``2 * (xbar - x*(2 chat - c_ref))`` where
  ``xbar`` is the mean target decision and ``c_ref`` the target reference
  cost (the sample's own cost except under KNN; see
  ``SampleTargets.ref_cost``).  One nominal solve per row.
* ``pfyl_batch_gradient``: ``xbar - mean_j x*(chat + sigma * zeta_j)`` with
  standard-normal perturbations from a dedicated stream, drawn for the whole
  minibatch at once; ``samples`` nominal solves per row.
* ``mse_gradient``: gradient of ``(1/n) ||chat - c||^2``; no solves.

Regret kernel: ``decision_regret`` gives per-row regrets
``c_i^T x*(chat_i) - c_i^T x*(c_i)`` against any cost matrix, reusing
precomputed optimal values when given; ``normalized_regret_pct`` turns them
into ``100 * sum(regret_i) / (sum |c_i^T x*(c_i)| + 1e-12)``.  Both training
and ``bench`` evaluate through them.

``train`` computes every gradient through the engines above and every
evaluation through the regret kernel.  It uses zero-initialized parameters,
seeded shuffling, mean-aggregated minibatch gradients, one bias-corrected
Adam step per minibatch, and picks the snapshot with the best validation
empirical regret (earliest on ties).  Gradient-path and evaluation-path
solves are audited separately.

Batching keeps every byte of the per-sample computation: the stacked matvec
``np.matmul(theta[None], Z[:, :, None])`` equals ``theta @ z`` per row, the
axis-0 sum of ``G[:, :, None] * Z[:, None, :]`` equals accumulating
``np.outer(g, z)`` sample by sample, one ``normal((b, s, n))`` draw equals
``b`` draws of ``(s, n)``, and the row dot
``np.matmul(C[:, None, :], X[:, :, None])`` equals ``np.dot`` per row.
The tests pin all four.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from .core import Dataset, DimensionError, RngStream, STREAM_PFYL, STREAM_SHUFFLE
from .oracles import OracleAudit, solve, solve_batch
from .targets import (Empirical, KNN, RobustOpt, SampleTargets, TargetPolicy,
                      TargetSet, TopK, policy_label, policy_to_dict)


class TrainingError(RuntimeError):
    """Raised on predictions the oracle rejects, or a non-finite gradient or metric."""


@dataclass
class LinearPredictor:
    """``chat = theta @ z``."""

    theta: np.ndarray                 # (n, m)

    def predict_batch(self, features: np.ndarray) -> np.ndarray:
        return features @ self.theta.T


def mse_gradient(c, chat) -> np.ndarray:
    """Gradient for one cost vector, or row by row for a ``(b, n)`` batch."""
    c = np.asarray(c, dtype=np.float64)
    chat = np.asarray(chat, dtype=np.float64)
    if c.shape != chat.shape:
        raise DimensionError("cost vectors differ in length")
    return (2.0 / c.shape[-1]) * (chat - c)


def spo_plus_batch_gradient(xbar: np.ndarray, ref: np.ndarray, chat: np.ndarray,
                            inst, audit: Optional[OracleAudit] = None) -> np.ndarray:
    """SPO+ gradients of a minibatch: rows of ``xbar`` (mean target
    decisions), ``ref`` (reference costs) and ``chat`` (predictions)."""
    return 2.0 * (xbar - solve_batch(inst, 2.0 * chat - ref, audit))


def pfyl_batch_gradient(xbar: np.ndarray, chat: np.ndarray, inst, samples: int,
                        sigma: float, stream: RngStream,
                        audit: Optional[OracleAudit] = None) -> np.ndarray:
    """PFYL gradients of a minibatch: rows of ``xbar`` and ``chat``, with
    ``samples`` perturbations per row drawn as one ``(b, samples, n)`` block."""
    if samples < 1:
        raise ValueError("need at least one perturbation sample")
    if sigma < 0:
        raise ValueError("perturbation amplitude must be non-negative")
    b, n = chat.shape
    zeta = stream.normal((b, samples, n))
    X = solve_batch(inst, (chat[:, None, :] + sigma * zeta).reshape(b * samples, n), audit)
    # sums of 0/1 entries are exact, so the summation order cannot matter
    return xbar - X.reshape(b, samples, n).sum(axis=1) / samples


def spo_plus_surrogate(ts_i: SampleTargets, chat: np.ndarray, inst,
                       audit: Optional[OracleAudit] = None) -> float:
    """Value of the convex surrogate whose subgradient is the one-row
    :func:`spo_plus_batch_gradient`:
    ``max_x (c - 2 chat)^T x + 2 chat^T xbar - c^T xbar`` with targets in
    place of the empirical optimum."""
    xbar = ts_i.decision_mean()
    c_ref = ts_i.ref_cost
    x_adj = solve(inst, 2.0 * chat - c_ref, audit)
    return (-float(np.dot(2.0 * chat - c_ref, x_adj))
            + 2.0 * float(np.dot(chat, xbar)) - float(np.dot(c_ref, xbar)))


def loss_value(policy: TargetPolicy, ts_i: SampleTargets, chat: np.ndarray,
               inst, audit: Optional[OracleAudit] = None) -> float:
    """Training-policy loss of prediction ``chat`` on one sample: the mean
    over target pairs of ``c_target^T (x*(chat) - x_target)``.  One nominal
    solve (for ``x*(chat)``) per call."""
    k = ts_i.decisions.shape[0]
    if isinstance(policy, (Empirical, RobustOpt)) and k != 1:
        raise ValueError(f"{policy_label(policy)} targets must hold one pair")
    if isinstance(policy, (TopK, KNN)) and k > policy.k:
        raise ValueError("target list longer than the policy's k")
    xhat = solve(inst, chat, audit)
    gaps = ts_i.costs @ xhat - np.einsum("ij,ij->i", ts_i.costs, ts_i.decisions)
    return float(gaps.mean())


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Standard bias-corrected Adam over one parameter array; the moments
    start as the scalar 0.0, which adds exactly as zeros of its shape would."""

    lr: float = 0.01
    step: int = 0
    m1: Union[float, np.ndarray] = 0.0
    m2: Union[float, np.ndarray] = 0.0


def adam_step(state: AdamState, theta: np.ndarray, g: np.ndarray) -> np.ndarray:
    """One in-place Adam update of ``theta`` by gradient ``g``; returns ``theta``."""
    if not np.all(np.isfinite(g)):
        raise TrainingError("non-finite parameter gradient")
    if g.shape != theta.shape:
        raise DimensionError(f"gradient shape {g.shape} != parameter shape {theta.shape}")
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    corr1 = 1.0 - b1 ** state.step
    corr2 = 1.0 - b2 ** state.step
    state.m1 = b1 * state.m1 + (1.0 - b1) * g
    state.m2 = b2 * state.m2 + (1.0 - b2) * (g * g)
    m_hat = state.m1 / corr1
    v_hat = state.m2 / corr2
    theta -= state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return theta


METHODS = ("spo+", "pfyl", "mse")


@dataclass(frozen=True)
class TrainConfig:
    method: str                      # "spo+" | "pfyl" | "mse"
    policy: Optional[TargetPolicy]   # None only for "mse", which uses no targets
    epochs: int
    batch_size: int = 32
    lr: float = 0.01
    seed: int = 0
    pfyl_samples: int = 1
    pfyl_sigma: float = 1.0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.policy is None and self.method != "mse":
            raise ValueError(f"method {self.method!r} needs a target policy")
        if self.epochs < 0:
            raise ValueError(f"epochs must be non-negative, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ValueError(f"lr must be finite and non-negative, got {self.lr}")
        if self.pfyl_samples < 1:
            raise ValueError(
                f"pfyl_samples must be at least 1, got {self.pfyl_samples}")
        if not self.pfyl_sigma >= 0:
            raise ValueError(
                f"pfyl_sigma must be non-negative, got {self.pfyl_sigma}")

    def to_dict(self) -> dict:
        # "shuffle" and "use_bias" are fixed: training always shuffles and
        # never fits a bias, and model files keep recording both.
        return {**vars(self), "shuffle": True, "use_bias": False,
                "policy": None if self.policy is None else policy_to_dict(self.policy)}


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_regret_pct: float
    val_regret_pct: float


@dataclass(frozen=True)
class SolveCounts:
    precompute: int
    gradient: int
    evaluation: int


@dataclass(frozen=True)
class TrainedModel:
    predictor: LinearPredictor
    best_epoch: int
    history: List[EpochStats]
    audit: SolveCounts


def _row_dot(C: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``C[i] @ X[i]`` for every row, bit-identical to ``np.dot`` per row."""
    return np.matmul(C[:, None, :], X[:, :, None])[:, 0, 0]


def optimal_values(inst, costs, audit: Optional[OracleAudit] = None) -> np.ndarray:
    """``c_i^T x*(c_i)`` for every row of ``costs``; one nominal solve each."""
    costs = np.asarray(costs, dtype=np.float64)
    return _row_dot(costs, solve_batch(inst, costs, audit))


def decision_regret(inst, pred, costs, opt_values: Optional[np.ndarray] = None,
                    audit: Optional[OracleAudit] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row regret ``c_i^T x*(chat_i) - c_i^T x*(c_i)`` of predictions
    ``pred`` judged against the rows of ``costs``.

    Returns ``(regrets, opt_values)``.  One nominal solve per row, plus one
    more per row for :func:`optimal_values` unless ``opt_values`` is given.
    """
    if opt_values is None:
        opt_values = optimal_values(inst, costs, audit)
    achieved = _row_dot(np.asarray(costs, dtype=np.float64), solve_batch(inst, pred, audit))
    return achieved - opt_values, opt_values


def normalized_regret_pct(regrets: np.ndarray, opt_values: np.ndarray) -> float:
    return 100.0 * float(np.sum(regrets)) / (float(np.sum(np.abs(opt_values))) + 1e-12)


def train(cfg: TrainConfig, train_ds: Dataset, val_ds: Dataset, inst,
          targets: Optional[TargetSet]) -> TrainedModel:
    """Deterministic minibatch training with best-epoch model selection.

    ``targets`` must be built with ``cfg.policy`` on ``train_ds``; it may be
    ``None`` only for the prediction-focused ``mse`` method, which uses no
    targets and performs no gradient-path solves.
    """
    t = len(train_ds)
    if t < 1 or len(val_ds) < 1:
        raise ValueError("empty dataset")
    if cfg.method == "mse":
        per_sample = None
    else:
        if targets is None:
            raise ValueError(f"method {cfg.method!r} requires a target set")
        if targets.policy != cfg.policy:
            raise ValueError("target set was built with a different policy")
        if len(targets) != t:
            raise ValueError("target set size does not match training set")
        per_sample = targets.per_sample

    n, m = train_ds.meta.n, train_ds.meta.m
    predictor = LinearPredictor(np.zeros((n, m)))
    state = AdamState(lr=cfg.lr)

    grad_audit = OracleAudit()
    eval_audit = OracleAudit()
    shuffle_stream = RngStream(cfg.seed, STREAM_SHUFFLE)
    pfyl_stream = RngStream(cfg.seed, STREAM_PFYL)

    # Split optima are fixed; solve them once up front (evaluation path).
    tr_opt_val = optimal_values(inst, train_ds.costs, eval_audit)
    va_opt_val = optimal_values(inst, val_ds.costs, eval_audit)

    def finite(pred, epoch, where):
        if not np.isfinite(pred).all():
            raise TrainingError(f"non-finite {where} predictions at epoch {epoch}")
        return pred

    def solved(where, epoch, engine, *args):
        """``engine(*args)``, naming the epoch when the oracle rejects its costs."""
        try:
            return engine(*args)
        except ValueError as exc:   # finite predictions past the oracle's cost bound
            raise TrainingError(f"{where} predictions at epoch {epoch} fail the "
                                f"oracle's cost checks: {exc}") from exc

    def split_pct(ds, opt_values, epoch) -> float:
        pred = finite(predictor.predict_batch(ds.features), epoch, "evaluation")
        pct = normalized_regret_pct(*solved("evaluation", epoch, decision_regret,
                                            inst, pred, ds.costs, opt_values, eval_audit))
        if not math.isfinite(pct):
            raise TrainingError(f"non-finite validation metric at epoch {epoch}")
        return pct

    features = train_ds.features
    costs = train_ds.costs
    if per_sample is not None:
        xbars = np.array([st.decision_mean() for st in per_sample])
        refs = np.array([st.ref_cost for st in per_sample])
    history: List[EpochStats] = []
    best_val = math.inf
    best_epoch = 0
    best_predictor = LinearPredictor(predictor.theta.copy())

    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_stream.permutation(t)
        for lo in range(0, t, cfg.batch_size):
            batch = order[lo:lo + cfg.batch_size]
            Z = features[batch]
            chat = finite(np.matmul(predictor.theta[None], Z[:, :, None])[:, :, 0], epoch,
                          "minibatch")
            if cfg.method == "spo+":
                G = solved("minibatch", epoch, spo_plus_batch_gradient, xbars[batch],
                           refs[batch], chat, inst, grad_audit)
            elif cfg.method == "pfyl":
                G = solved("minibatch", epoch, pfyl_batch_gradient, xbars[batch], chat,
                           inst, cfg.pfyl_samples, cfg.pfyl_sigma, pfyl_stream, grad_audit)
            else:
                G = mse_gradient(costs[batch], chat)
            bad = ~np.isfinite(G).all(axis=1)
            if bad.any():
                raise TrainingError(f"non-finite cost gradient at epoch {epoch}, "
                                    f"sample {batch[bad.argmax()]}")
            g_theta = (G[:, :, None] * Z[:, None, :]).sum(axis=0)
            g_theta /= len(batch)
            adam_step(state, predictor.theta, g_theta)
        train_pct = split_pct(train_ds, tr_opt_val, epoch)
        val_pct = split_pct(val_ds, va_opt_val, epoch)
        history.append(EpochStats(epoch=epoch, train_regret_pct=train_pct,
                                  val_regret_pct=val_pct))
        if val_pct < best_val:
            best_val = val_pct
            best_epoch = epoch
            best_predictor = LinearPredictor(predictor.theta.copy())

    audit = SolveCounts(
        precompute=0 if targets is None else targets.precompute_solves,
        gradient=grad_audit.solve_count,
        evaluation=eval_audit.solve_count,
    )
    return TrainedModel(predictor=best_predictor, best_epoch=best_epoch,
                        history=list(history), audit=audit)


def save_model(model: TrainedModel, cfg: TrainConfig, path) -> None:
    """Write a model file; floats use shortest round-trip decimal form, so
    reading the file back reproduces every parameter bit-for-bit."""
    predictor = model.predictor
    payload = {
        "config": cfg.to_dict(),
        "theta": predictor.theta.tolist(),
        "bias": None,
        "best_epoch": model.best_epoch,
        "audit": asdict(model.audit),
        "history": [asdict(h) for h in model.history],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)


def _numeric_array(values, name: str, path) -> np.ndarray:
    try:
        arr = np.array(values)
    except ValueError as exc:  # ragged nesting
        raise ValueError(f"model file {path}: {name} is not a numeric array") from exc
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"model file {path}: {name} is not a numeric array")
    arr = arr.astype(np.float64)
    if not np.isfinite(arr).all():
        raise ValueError(f"model file {path}: {name} has non-finite entries")
    return arr


def load_model(path) -> tuple:
    """Returns ``(LinearPredictor, payload_dict)``.  ``theta`` must be a 2-D
    matrix of finite numbers and ``bias`` must be null (predictors have no
    bias)."""
    with open(path) as fh:
        payload = json.load(fh)
    for name in ("theta", "bias"):
        if name not in payload:
            raise ValueError(f"model file {path}: missing field {name!r}")
    theta = _numeric_array(payload["theta"], "theta", path)
    if theta.ndim != 2:
        raise DimensionError(
            f"model file {path}: theta has shape {theta.shape}, expected a 2-D matrix")
    if payload["bias"] is not None:
        raise ValueError(f"model file {path}: bias must be null")
    return LinearPredictor(theta=theta), payload
