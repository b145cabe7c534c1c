"""Command-line interface.

Subcommands: ``datagen`` (synthesize train/val/test splits), ``train``
(fit one model and write model.json), ``eval`` (regret report for a split),
``sweep`` (full experiment grid to CSV), and ``bias-demo`` (the one-of-n
variance Monte Carlo).  Repeating any invocation with identical flags
reproduces byte-identical model.json output and identical results.csv
numeric fields (the wall-time bookkeeping column aside).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bench import (BiasDemoConfig, SweepConfig, bias_demo, build_instance,
                    default_sweep_config, eval_expected_regret, eval_regret,
                    run_sweep, write_sweep_csv)
from .core import DimensionError
from .datagen import GenParams, generate_splits, load_dataset, save_dataset
from .learning import TrainConfig, load_model, save_model, train
from .oracles import instance_from_descriptor
from .targets import POLICY_DEFAULTS, build_targets, policy_from_dict


def _add_datagen(sub):
    p = sub.add_parser("datagen", help="generate train/val/test splits")
    p.add_argument("--problem", choices=["grid", "tsp"], required=True)
    p.add_argument("--grid", default="5x5", help="VxH for grid problems")
    p.add_argument("--nodes", type=int, default=8, help="node count for tsp problems")
    p.add_argument("--features", type=int, default=GenParams.m)
    p.add_argument("--deg", type=int, default=GenParams.deg)
    p.add_argument("--noise", type=float, default=GenParams.noise_halfwidth)
    p.add_argument("--train", type=int, default=GenParams.t_train)
    p.add_argument("--val", type=int, default=GenParams.t_val)
    p.add_argument("--test", type=int, default=GenParams.t_test)
    p.add_argument("--seed", type=int, default=GenParams.seed)
    p.add_argument("--noise-shared", action="store_true",
                   help="one noise factor per sample instead of per coefficient")
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_datagen)


def _cmd_datagen(args) -> int:
    # the seed is checked here first, since a TSP's coordinates draw from it
    params = GenParams(m=args.features, deg=args.deg, noise_halfwidth=args.noise,
                       t_train=args.train, t_val=args.val, t_test=args.test,
                       seed=args.seed, noise_shared=args.noise_shared)
    if args.problem == "grid":
        inst = instance_from_descriptor("grid:" + args.grid)
    else:
        inst = build_instance({"kind": "tsp", "nodes": args.nodes}, instance_seed=args.seed)
    out = Path(args.out)
    for ds in generate_splits(inst, params):
        save_dataset(ds, out / ds.meta.split)
    print(f"wrote {out}/train,val,test ({inst.descriptor()}, n={inst.n})")
    return 0


def _add_train(sub):
    p = sub.add_parser("train", help="train one model")
    p.add_argument("--data", required=True, help="dataset directory from datagen")
    p.add_argument("--method", choices=["spo+", "pfyl", "pfl"], required=True)
    p.add_argument("--loss", choices=["emp", "ro", "topk", "knn"], default="emp")
    p.add_argument("--k", type=int)  # policy flags default to POLICY_DEFAULTS
    p.add_argument("--w", type=float)
    p.add_argument("--rho", type=float)
    p.add_argument("--gamma-frac", type=float,
                   help="total deviation budget as a fraction of n")
    p.add_argument("--pfyl-m", type=int, default=TrainConfig.pfyl_samples)
    p.add_argument("--pfyl-sigma", type=float, default=TrainConfig.pfyl_sigma)
    p.add_argument("--epochs", type=int, required=True)
    p.add_argument("--batch", type=int, default=TrainConfig.batch_size)
    p.add_argument("--lr", type=float, default=TrainConfig.lr)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_train)


def _cmd_train(args) -> int:
    data = Path(args.data)
    train_ds = load_dataset(data / "train")
    val_ds = load_dataset(data / "val")
    if val_ds.meta.instance != train_ds.meta.instance:
        raise ValueError(f"val split instance {val_ds.meta.instance!r} differs from "
                         f"train split instance {train_ds.meta.instance!r}")
    inst = instance_from_descriptor(train_ds.meta.instance)
    method = "mse" if args.method == "pfl" else args.method
    kind = "empirical" if args.loss == "emp" else args.loss
    entry = {key: default if getattr(args, key) is None else getattr(args, key)
             for key, default in POLICY_DEFAULTS[kind].items()}
    policy = policy_from_dict({"kind": kind, **entry}, inst.n)
    cfg = TrainConfig(method=method, policy=policy, epochs=args.epochs,
                      batch_size=args.batch, lr=args.lr, seed=args.seed,
                      pfyl_samples=args.pfyl_m, pfyl_sigma=args.pfyl_sigma)
    targets = None if method == "mse" else build_targets(policy, train_ds, inst)
    model = train(cfg, train_ds, val_ds, inst, targets)
    save_model(model, cfg, args.out)
    print(f"wrote {args.out} (best epoch {model.best_epoch}, "
          f"solves: precompute={model.audit.precompute} "
          f"gradient={model.audit.gradient} eval={model.audit.evaluation})")
    return 0


def _add_eval(sub):
    p = sub.add_parser("eval", help="evaluate a model on one split")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--split", choices=["train", "val", "test"], required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(run=_cmd_eval)


def _cmd_eval(args) -> int:
    ds = load_dataset(Path(args.data) / args.split)
    inst = instance_from_descriptor(ds.meta.instance)
    predictor, _payload = load_model(args.model)
    if predictor.theta.shape != (ds.meta.n, ds.meta.m):
        raise DimensionError(
            f"model theta has shape {predictor.theta.shape}, dataset needs "
            f"{(ds.meta.n, ds.meta.m)} (n costs x m features)")
    pred = predictor.predict_batch(ds.features)
    report = eval_regret(pred, ds, inst, split=args.split, model_id=str(args.model))
    expected = (eval_expected_regret(pred, ds, inst)
                if ds.clean_costs is not None else None)
    payload = {
        "split": report.split,
        "model": report.model_id,
        "normalized_regret_pct": report.normalized_regret_pct,
        "expected_normalized_regret_pct": expected,
        "denominator_zero": report.denominator_zero,
        "per_sample_regret": [float(r) for r in report.per_sample],
    }
    with open(args.report, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
    print(f"{args.split}: normalized regret {report.normalized_regret_pct:.4f}%")
    return 0


def _add_sweep(sub):
    p = sub.add_parser("sweep", help="run an experiment grid")
    p.add_argument("--config", required=True,
                   help="sweep JSON; 'default' writes and uses desk-scale defaults")
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_sweep)


def _cmd_sweep(args) -> int:
    if args.config == "default":
        cfg_dict = default_sweep_config()
    else:
        with open(args.config) as fh:
            cfg_dict = json.load(fh)
    cfg = SweepConfig.from_dict(cfg_dict)
    rows = run_sweep(cfg)
    write_sweep_csv(rows, args.out)
    n_detail = sum(1 for r in rows if r["row_type"] == "detail")
    print(f"wrote {args.out}: {n_detail} runs, {len(rows) - n_detail} aggregates")
    return 0


def _add_bias_demo(sub):
    p = sub.add_parser("bias-demo", help="one-of-n variance Monte Carlo")
    p.add_argument("--nh", type=int, required=True)
    p.add_argument("--nl", type=int, required=True)
    p.add_argument("--sigma-h", type=float, required=True)
    p.add_argument("--sigma-l", type=float, required=True)
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=int, default=BiasDemoConfig.seed)
    p.add_argument("--out", default=None, help="optional JSON output path")
    p.set_defaults(run=_cmd_bias_demo)


def _cmd_bias_demo(args) -> int:
    result = bias_demo(BiasDemoConfig(
        n_h=args.nh, n_l=args.nl, sigma_h=args.sigma_h, sigma_l=args.sigma_l,
        trials=args.trials, seed=args.seed))
    text = json.dumps(result.to_dict(), sort_keys=True, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dflkit",
        description="decision-focused learning with robust regret losses")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_datagen(sub)
    _add_train(sub)
    _add_eval(sub)
    _add_sweep(sub)
    _add_bias_demo(sub)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
