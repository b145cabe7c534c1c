"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is deterministic (fixed seeds throughout).
"""

import contextlib
import json
import time

import numpy as np
import pytest

import bruteforce as bf
from dflkit.bench import (BiasDemoConfig, bias_demo, eval_expected_regret,
                          eval_regret, paired_t_test)
from dflkit.cli import main as cli_main
from dflkit.core import (Dataset, DatasetMeta, RngStream, STREAM_TEST_SAMPLES,
                         STREAM_TRAIN_SAMPLES, STREAM_VAL_SAMPLES)
from dflkit.datagen import GenParams, generate_samples, make_gen_model
from dflkit.learning import TrainConfig, loss_value, spo_plus_surrogate, train
from dflkit.oracles import (DenseTSP, GridShortestPath, SelectOne,
                            UncertaintyParams, robust_solve, solve, top_k_solve,
                            worst_case_cost)
from dflkit.targets import Empirical, KNN, build_targets
from row_gradients import pfyl_gradient, spo_plus_gradient


@contextlib.contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {num} ({desc}): FAIL")
        raise
    print(f"\nACCEPTANCE {num} ({desc}): PASS")


def bits(x):
    return tuple(int(round(v)) for v in x)


def make_ds(features, costs, clean=None, instance="select:0"):
    features = np.asarray(features, dtype=float)
    costs = np.asarray(costs, dtype=float)
    meta = DatasetMeta(problem="select", instance=instance, m=features.shape[1],
                       n=costs.shape[1], t=len(features), seed=0,
                       noise_halfwidth=0.0, degree=1)
    return Dataset(features=features, costs=costs, clean_costs=clean, meta=meta)


def test_criterion_1_oracle_exactness():
    with criterion(1, "oracle exactness vs brute force"):
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        cases = []
        for v, h in [(2, 2), (3, 3), (4, 4)]:
            cases.append((GridShortestPath(v, h),
                          [np.array(p, float) for p in bf.grid_paths(v, h)]))
        for nn in (5, 6, 7, 8):
            cases.append((DenseTSP(nn),
                          [np.array(tr, float) for tr in bf.tsp_tours(nn)]))
        budgets = [(0.25, "n8"), (0.5, "n4"), (0.5, "rn"), (1.0, "n8")]
        for inst, decisions in cases:
            # the candidate list is fixed per case: convert it once, not per trial
            decision_bits = [bits(d) for d in decisions]
            for trial in range(100):
                c = rng.normal(size=inst.n) * 5.0
                # the same float64 sums in the same order, as Python floats
                c_list = c.tolist()
                assert bits(solve(inst, c)) == bf.best_decision(decision_bits, c_list)
                k = 2 + trial % 4  # k in 2..5
                got = [bits(x) for x in top_k_solve(inst, c, k)]
                assert got == bf.k_best_decisions(decision_bits, c_list, k)
                rho, gkind = budgets[trial % 4]
                gamma = {"n8": inst.n / 8, "n4": inst.n / 4, "rn": rho * inst.n}[gkind]
                u = UncertaintyParams(rho=rho, gamma=gamma)
                got_r = robust_solve(inst, c, u)
                wccs = [(worst_case_cost(inst, c, d, u), bf.support_of(db), d)
                        for d, db in zip(decisions, decision_bits)]
                best = min(wccs, key=lambda rec: rec[:2])
                assert bits(got_r) == bits(best[2])
        elapsed = time.perf_counter() - start
        print(f"  [criterion 1 took {elapsed:.1f}s]", end=" ")
        assert elapsed < 60.0


def test_criterion_2_bias_monte_carlo():
    with criterion(2, "variance-bias Monte Carlo matches closed forms"):
        start = time.perf_counter()
        res = bias_demo(BiasDemoConfig(n_h=2, n_l=2, sigma_h=1.0, sigma_l=1e-6,
                                       trials=100_000, seed=7))
        # closed-form limits: per-high (1/n_h)(1 - (1/2)^n_h) = 0.375,
        # per-low (1/n_l)(1/2)^n_h = 0.125
        assert abs(res.high_mean_freq - 0.375) <= 0.01
        assert abs(res.low_mean_freq - 0.125) <= 0.01
        res2 = bias_demo(BiasDemoConfig(n_h=1, n_l=1, sigma_h=1.0, sigma_l=1e-6,
                                        trials=100_000, seed=8))
        assert abs(res2.high_mean_freq - 0.5) <= 0.01
        assert abs(res2.low_mean_freq - 0.5) <= 0.01
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0


def _accounting_problem(t, seed=0):
    inst = GridShortestPath(2, 3)
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(t, 3))
    costs = rng.uniform(0.5, 4.0, size=(t, inst.n))
    tr = make_ds(feats, costs, instance=inst.descriptor())
    va = make_ds(rng.normal(size=(4, 3)), rng.uniform(0.5, 4.0, size=(4, inst.n)),
                 instance=inst.descriptor())
    return inst, tr, va


def test_criterion_3_solve_count_accounting():
    with criterion(3, "solve-count accounting"):
        inst, tr, va = _accounting_problem(t=10)
        ts = build_targets(Empirical(), tr, inst)
        cfg = TrainConfig(method="spo+", policy=Empirical(), epochs=5, seed=3)
        model = train(cfg, tr, va, inst, ts)
        assert model.audit.precompute == 10
        assert model.audit.gradient == 50
        assert model.audit.precompute + model.audit.gradient == 10 * (5 + 1) == 60

        ts_k = build_targets(KNN(k=3, w=0.5), tr, inst)
        cfg_k = TrainConfig(method="spo+", policy=KNN(k=3, w=0.5), epochs=5, seed=3)
        model_k = train(cfg_k, tr, va, inst, ts_k)
        total = model_k.audit.precompute + model_k.audit.gradient
        assert total <= 10 * (3 + 5) == 80
        assert total == 80  # exactly t*k precompute + t*s gradient here


def test_criterion_4_gradient_correctness():
    with criterion(4, "gradient correctness"):
        # finite-difference agreement of the SPO+ subgradient
        rng = np.random.default_rng(11)
        h = 1e-5
        checked = 0
        for n in (2, 3, 4):
            inst = SelectOne(n)
            while checked < 10 * (n - 1):
                c = rng.normal(size=n)
                chat = rng.normal(size=n)
                adj = 2 * chat - c
                srt = np.sort(adj)
                if srt[1] - srt[0] < 10 * h:  # need a unique optimizer near chat
                    continue
                ds = make_ds(np.zeros((1, 1)), [c], instance=inst.descriptor())
                ts = build_targets(Empirical(), ds, inst).per_sample[0]
                g = spo_plus_gradient(ts, chat, inst)
                for j in range(n):
                    e = np.zeros(n)
                    e[j] = h
                    fd = (spo_plus_surrogate(ts, chat + e, inst)
                          - spo_plus_surrogate(ts, chat - e, inst)) / (2 * h)
                    assert abs(fd - g[j]) <= 1e-4
                checked += 1

        # exact fixed points
        inst = GridShortestPath(2, 2)
        c = np.array([1.0, 5.0, 1.0, 2.0])
        ds = make_ds(np.zeros((1, 1)), [c], instance=inst.descriptor())
        ts = build_targets(Empirical(), ds, inst).per_sample[0]
        assert np.array_equal(spo_plus_gradient(ts, c, inst), np.zeros(4))
        g0 = pfyl_gradient(ts, c, inst, samples=1, sigma=0.0, stream=RngStream(0, 5))
        assert np.array_equal(g0, np.zeros(4))

        # KNN(w=0) training trajectory bit-identical to Empirical
        inst, tr, va = _accounting_problem(t=12, seed=5)
        for method in ("spo+", "pfyl"):
            ts_e = build_targets(Empirical(), tr, inst)
            ts_k = build_targets(KNN(k=3, w=0.0), tr, inst)
            m_e = train(TrainConfig(method=method, policy=Empirical(), epochs=4,
                                    batch_size=5, seed=6), tr, va, inst, ts_e)
            m_k = train(TrainConfig(method=method, policy=KNN(k=3, w=0.0), epochs=4,
                                    batch_size=5, seed=6), tr, va, inst, ts_k)
            assert np.array_equal(m_e.predictor.theta, m_k.predictor.theta)
            assert m_e.history == m_k.history


def test_criterion_5_loss_identities():
    with criterion(5, "loss identities on 1000 random triples"):
        rng = np.random.default_rng(13)
        instances = [GridShortestPath(2, 2), GridShortestPath(2, 3),
                     GridShortestPath(3, 3), DenseTSP(5), SelectOne(4)]
        for trial in range(1000):
            inst = instances[trial % len(instances)]
            c = rng.normal(size=inst.n) * 3.0
            chat = rng.normal(size=inst.n) * 3.0
            ds = make_ds(np.zeros((1, 1)), [c], instance=inst.descriptor())
            u = UncertaintyParams(rho=0.5, gamma=inst.n / 8)
            from dflkit.targets import RobustOpt, TopK

            ts_e = build_targets(Empirical(), ds, inst).per_sample[0]
            ts_r = build_targets(RobustOpt(u), ds, inst).per_sample[0]
            ts_k = build_targets(TopK(k=3), ds, inst).per_sample[0]
            ts_1 = build_targets(TopK(k=1), ds, inst).per_sample[0]
            l_emp = loss_value(Empirical(), ts_e, chat, inst)
            l_ro = loss_value(RobustOpt(u), ts_r, chat, inst)
            l_tk = loss_value(TopK(k=3), ts_k, chat, inst)
            l_t1 = loss_value(TopK(k=1), ts_1, chat, inst)
            assert l_emp >= -1e-9
            assert l_ro <= l_emp + 1e-9
            assert l_tk <= l_emp + 1e-9
            assert l_t1 == l_emp


def _trend_arm(method, policy, seed, inst):
    params = GenParams(m=5, deg=6, noise_halfwidth=1.0, t_train=100, t_val=100,
                       t_test=1000, seed=seed)
    gm = make_gen_model(inst, 5, seed)
    tr = generate_samples(gm, 100, params, RngStream(seed, STREAM_TRAIN_SAMPLES), "train")
    va = generate_samples(gm, 100, params, RngStream(seed, STREAM_VAL_SAMPLES), "val")
    te = generate_samples(gm, 1000, params, RngStream(seed, STREAM_TEST_SAMPLES), "test")
    ts = build_targets(policy, tr, inst)
    cfg = TrainConfig(method=method, policy=policy, epochs=200, batch_size=32,
                      lr=0.01, seed=seed)
    model = train(cfg, tr, va, inst, ts)
    pred = model.predictor.predict_batch(te.features)
    return eval_regret(pred, te, inst).normalized_regret_pct


def test_criterion_6_desk_scale_trend():
    with criterion(6, "desk-scale uncertainty-sweep trend (knn < empirical)"):
        start = time.perf_counter()
        inst = GridShortestPath(5, 5)
        seeds = range(10)
        summary = {}
        for method in ("spo+", "pfyl"):
            emp = [_trend_arm(method, Empirical(), s, inst) for s in seeds]
            knn = [_trend_arm(method, KNN(k=10, w=0.5), s, inst) for s in seeds]
            tt = paired_t_test(knn, emp)
            summary[method] = (float(np.mean(emp)), float(np.mean(knn)), tt)
            assert np.mean(knn) < np.mean(emp), (
                f"{method}: knn {np.mean(knn):.2f} !< emp {np.mean(emp):.2f}")
            assert tt.t_stat < 0  # direction consistent with the mean ordering
        elapsed = time.perf_counter() - start
        for method, (e, k, tt) in summary.items():
            print(f"  [{method}: emp {e:.2f}% vs knn {k:.2f}%, "
                  f"t={tt.t_stat:.2f}, p={tt.p_value:.4f}]", end=" ")
        print(f"[criterion 6 took {elapsed:.0f}s]", end=" ")
        assert elapsed < 900.0


def test_criterion_7_conditional_mean_sanity():
    with criterion(7, "conditional-mean sanity"):
        inst = GridShortestPath(3, 3)
        gm = make_gen_model(inst, 4, seed=21)
        params = GenParams(m=4, deg=6, noise_halfwidth=1.0, seed=21)
        ds = generate_samples(gm, 50, params, RngStream(21, STREAM_TRAIN_SAMPLES))
        # a predictor that recovers the conditional mean exactly
        assert eval_expected_regret(ds.clean_costs, ds, inst) == 0.0

        params0 = GenParams(m=4, deg=6, noise_halfwidth=0.0, seed=22)
        ds0 = generate_samples(gm, 50, params0, RngStream(22, STREAM_TRAIN_SAMPLES))
        rng = np.random.default_rng(23)
        pred = rng.uniform(0.5, 3.0, size=ds0.costs.shape)
        emp = eval_regret(pred, ds0, inst).normalized_regret_pct
        exp = eval_expected_regret(pred, ds0, inst)
        assert exp == emp


def test_criterion_8_cli_determinism(tmp_path):
    with criterion(8, "CLI byte-level determinism"):
        # datagen twice
        gen_args = ["datagen", "--problem", "grid", "--grid", "3x3", "--features",
                    "3", "--deg", "4", "--noise", "0.5", "--train", "10",
                    "--val", "5", "--test", "5", "--seed", "17"]
        d1, d2 = tmp_path / "d1", tmp_path / "d2"
        assert cli_main(gen_args + ["--out", str(d1)]) == 0
        assert cli_main(gen_args + ["--out", str(d2)]) == 0
        for split in ("train", "val", "test"):
            for name in ("features.csv", "costs.csv", "clean_costs.csv", "meta.json"):
                assert (d1 / split / name).read_bytes() == (d2 / split / name).read_bytes()

        # train twice -> byte-identical model.json
        train_args = ["train", "--data", str(d1), "--method", "spo+", "--loss",
                      "knn", "--k", "3", "--w", "0.5", "--epochs", "3",
                      "--seed", "2"]
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        assert cli_main(train_args + ["--out", str(m1)]) == 0
        assert cli_main(train_args + ["--out", str(m2)]) == 0
        assert m1.read_bytes() == m2.read_bytes()

        # eval twice -> byte-identical report
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for rp in (r1, r2):
            assert cli_main(["eval", "--data", str(d1), "--model", str(m1),
                             "--split", "test", "--report", str(rp)]) == 0
        assert r1.read_bytes() == r2.read_bytes()

        # sweep twice -> identical numeric fields (wall-time bookkeeping aside)
        cfg = {
            "problems": [{"kind": "grid", "v": 2, "h": 2}],
            "t_values": [6], "noise_values": [0.5], "methods": ["spo+"],
            "policies": [{"kind": "empirical"}, {"kind": "ro", "rho": 0.5,
                                                 "gamma_frac": 0.125}],
            "seeds": [0, 1], "epochs_by_t": {"6": 2},
            "features": 2, "degree": 2, "val_size": 3, "test_size": 4,
        }
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(cfg))
        s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(s1)]) == 0
        assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(s2)]) == 0
        import csv as csv_mod

        def rows_without_walltime(path):
            with open(path, newline="") as fh:
                rows = list(csv_mod.reader(fh))
            drop = rows[0].index("wall_time_s")
            return [[c for i, c in enumerate(r) if i != drop] for r in rows]

        assert rows_without_walltime(s1) == rows_without_walltime(s2)
