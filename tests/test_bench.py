import math

import numpy as np
import pytest

from dflkit.bench import (BiasDemoConfig, SweepConfig, bias_demo, eval_expected_regret,
                          eval_regret, paired_t_test, regularized_incomplete_beta,
                          run_sweep, sweep_cells, write_sweep_csv)
from dflkit.core import Dataset, DatasetMeta, RngStream, STREAM_TRAIN_SAMPLES
from dflkit.datagen import GenParams, generate_samples, make_gen_model
from dflkit.oracles import GridShortestPath, SelectOne, UncertaintyParams
from dflkit.targets import RobustOpt, policy_label


def make_ds(features, costs, clean=None, instance=None):
    features = np.asarray(features, dtype=float)
    costs = np.asarray(costs, dtype=float)
    meta = DatasetMeta(problem="select",
                       instance=instance or f"select:{costs.shape[1]}",
                       m=features.shape[1], n=costs.shape[1], t=len(features),
                       seed=0, noise_halfwidth=0.0, degree=1)
    return Dataset(features=features, costs=costs, clean_costs=clean, meta=meta)


class TestEvalRegret:
    def test_perfect_model(self):
        inst = SelectOne(3)
        costs = np.array([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0]])
        ds = make_ds(np.zeros((2, 1)), costs)
        rep = eval_regret(costs, ds, inst)
        assert rep.normalized_regret_pct == 0.0
        assert not rep.denominator_zero

    def test_degenerate_denominator_flagged(self):
        inst = SelectOne(2)
        costs = np.array([[0.0, 1.0], [0.0, 1.0]])
        ds = make_ds(np.zeros((2, 1)), costs)
        pred = np.array([[1.0, 0.0], [1.0, 0.0]])  # always picks the bad option
        rep = eval_regret(pred, ds, inst)
        assert rep.denominator_zero
        assert np.array_equal(rep.per_sample, [1.0, 1.0])

    def test_grid_200_percent(self):
        inst = GridShortestPath(2, 2)
        ds = make_ds(np.zeros((1, 1)), [[1.0, 5.0, 1.0, 1.0]],
                     instance=inst.descriptor())
        rep = eval_regret(np.array([[5.0, 1.0, 1.0, 1.0]]), ds, inst)
        assert np.array_equal(rep.per_sample, [4.0])
        assert rep.normalized_regret_pct == pytest.approx(200.0)

    def test_zero_predictor_metric_consistency(self):
        # the all-zero prediction resolves to the tie-broken decision; its
        # regret is deterministic and reproducible
        from dflkit.oracles import solve
        from dflkit.learning import TrainConfig, train
        from dflkit.targets import Empirical, build_targets

        inst = GridShortestPath(2, 3)
        rng = np.random.default_rng(8)
        costs = rng.uniform(0.5, 4.0, size=(6, inst.n))
        ds = make_ds(rng.normal(size=(6, 2)), costs, instance=inst.descriptor())
        ts = build_targets(Empirical(), ds, inst)
        model = train(TrainConfig(method="spo+", policy=Empirical(), epochs=0),
                      ds, ds, inst, ts)
        pred = model.predictor.predict_batch(ds.features)
        rep1 = eval_regret(pred, ds, inst)
        rep2 = eval_regret(np.zeros_like(costs), ds, inst)
        assert np.array_equal(rep1.per_sample, rep2.per_sample)
        tie_decision = solve(inst, np.zeros(inst.n))
        expected = [float(np.dot(c, tie_decision) - np.dot(c, solve(inst, c)))
                    for c in costs]
        assert np.array_equal(rep1.per_sample, expected)


class TestEvalExpectedRegret:
    def test_perfect_conditional_mean(self):
        inst = SelectOne(3)
        gm = make_gen_model(inst, 2, seed=0)
        params = GenParams(m=2, deg=3, noise_halfwidth=1.0, seed=0)
        ds = generate_samples(gm, 30, params, RngStream(0, STREAM_TRAIN_SAMPLES))
        assert eval_expected_regret(ds.clean_costs, ds, inst) == 0.0

    def test_zero_noise_expected_equals_empirical(self):
        inst = SelectOne(3)
        gm = make_gen_model(inst, 2, seed=1)
        params = GenParams(m=2, deg=3, noise_halfwidth=0.0, seed=1)
        ds = generate_samples(gm, 30, params, RngStream(1, STREAM_TRAIN_SAMPLES))
        rng = np.random.default_rng(2)
        pred = rng.normal(size=ds.costs.shape)
        emp = eval_regret(pred, ds, inst).normalized_regret_pct
        exp = eval_expected_regret(pred, ds, inst)
        assert exp == emp

    def test_missing_clean_costs(self):
        inst = SelectOne(2)
        ds = make_ds(np.zeros((2, 1)), [[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError):
            eval_expected_regret(ds.costs, ds, inst)


class TestPairedTTest:
    def test_equal_samples(self):
        res = paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert (res.t_stat, res.p_value, res.significant) == (0.0, 1.0, False)

    def test_zero_variance_nonzero_mean(self):
        res = paired_t_test([2.0, 3.0, 4.0, 5.0], [1.0, 2.0, 3.0, 4.0])
        assert res.p_value == 0.0 and res.significant
        assert math.isinf(res.t_stat) and res.t_stat > 0

    def test_reference_values(self):
        # differences [0.8, 1.2, 0.9, 1.1, 1.0]; frozen from an independent
        # statistics package: t = 14.142135623730951, p = 1.4512817061e-4
        a = [0.8, 1.2, 0.9, 1.1, 1.0]
        b = [0.0] * 5
        res = paired_t_test(a, b)
        assert res.t_stat == pytest.approx(14.142135623730951, rel=1e-12)
        assert res.p_value == pytest.approx(1.4512817061319757e-4, rel=1e-9)
        assert res.significant

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=8)
        b = rng.normal(size=8)
        r1 = paired_t_test(a, b)
        r2 = paired_t_test(b, a)
        assert r1.t_stat == pytest.approx(-r2.t_stat, rel=1e-12)
        assert r1.p_value == pytest.approx(r2.p_value, rel=1e-12)

    def test_beta_against_scipy(self):
        from scipy.special import betainc

        rng = np.random.default_rng(4)
        for _ in range(50):
            a = float(rng.uniform(0.3, 20))
            b = float(rng.uniform(0.3, 20))
            x = float(rng.uniform(0, 1))
            assert regularized_incomplete_beta(a, b, x) == pytest.approx(
                float(betainc(a, b, x)), rel=1e-9, abs=1e-12)

    def test_too_few_pairs(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0], [2.0])


class TestBiasDemo:
    def test_counts_sum_to_trials(self):
        res = bias_demo(BiasDemoConfig(n_h=2, n_l=2, sigma_h=1.0, sigma_l=1e-6,
                                       trials=5000, seed=0))
        assert int(res.counts.sum()) == 5000
        assert float(res.frequencies.sum() * 5000) == 5000.0

    def test_high_variance_wins_more(self):
        res = bias_demo(BiasDemoConfig(n_h=2, n_l=2, sigma_h=1.0, sigma_l=1e-6,
                                       trials=100_000, seed=1))
        assert abs(res.high_mean_freq - 0.375) < 0.01
        assert abs(res.low_mean_freq - 0.125) < 0.01

    def test_single_decision_groups(self):
        res = bias_demo(BiasDemoConfig(n_h=1, n_l=1, sigma_h=1.0, sigma_l=1e-6,
                                       trials=100_000, seed=2))
        assert abs(res.high_mean_freq - 0.5) < 0.01
        assert abs(res.low_mean_freq - 0.5) < 0.01

    def test_equal_sigmas_symmetric(self):
        res = bias_demo(BiasDemoConfig(n_h=2, n_l=3, sigma_h=1.0, sigma_l=1.0,
                                       trials=100_000, seed=3))
        assert np.all(np.abs(res.frequencies - 0.2) < 0.01)


def tiny_sweep_config(seeds=(0, 1, 2)):
    return SweepConfig.from_dict({
        "problems": [{"kind": "grid", "v": 2, "h": 2}],
        "t_values": [8],
        "noise_values": [0.5],
        "methods": ["spo+"],
        "policies": [{"kind": "empirical"}, {"kind": "knn", "k": 2, "w": 0.5}],
        "seeds": list(seeds),
        "epochs_by_t": {"8": 2},
        "features": 2,
        "degree": 2,
        "val_size": 4,
        "test_size": 6,
    })


MINIMAL_SWEEP = {"problems": [{"kind": "grid", "v": 2, "h": 2}], "t_values": [8],
                 "noise_values": [0.5], "methods": ["mse"], "policies": [],
                 "seeds": [0], "epochs_by_t": {"8": 1}}


class TestSweepConfig:
    def test_absent_optional_keys_keep_defaults(self):
        cfg = SweepConfig.from_dict(MINIMAL_SWEEP)
        assert (cfg.features, cfg.degree, cfg.val_size, cfg.test_size) == (5, 6, 100, 1000)
        assert (cfg.batch_size, cfg.lr, cfg.pfyl_samples, cfg.pfyl_sigma) == (32, 0.01, 1, 1.0)
        assert (cfg.alpha, cfg.instance_seed) == (0.05, 0)

    def test_present_optional_keys_are_cast(self):
        cfg = SweepConfig.from_dict({**MINIMAL_SWEEP, "features": 3.0, "lr": 1,
                                     "pfyl_sigma": "0.5", "instance_seed": "2"})
        assert cfg.features == 3 and type(cfg.features) is int
        assert cfg.lr == 1.0 and type(cfg.lr) is float
        assert cfg.pfyl_sigma == 0.5 and cfg.instance_seed == 2

    def test_integral_floats_load_as_ints(self):
        cfg = SweepConfig.from_dict({
            **MINIMAL_SWEEP, "problems": [{"kind": "grid", "v": 2.0, "h": 3.0}],
            "t_values": [8.0], "methods": ["spo+"], "policies": [{"kind": "topk", "k": 2.0}],
            "seeds": [1.0], "epochs_by_t": {"8": 2.0}, "batch_size": 4.0})
        [(inst, params, tc)] = sweep_cells(cfg)
        values = (inst.v, inst.h, params.t_train, params.seed, tc.epochs, tc.batch_size,
                  tc.policy.k)
        assert values == (2, 3, 8, 1, 2, 4, 2)
        assert all(type(v) is int for v in values)

    def test_problem_t_values_load_as_ints(self):
        cfg = SweepConfig.from_dict({
            **MINIMAL_SWEEP, "problems": [{"kind": "grid", "v": 2, "h": 2, "t_values": [8.0]}]})
        [(_, params, _)] = sweep_cells(cfg)
        assert params.t_train == 8 and type(params.t_train) is int

    @pytest.mark.parametrize("field", ["problems", "seeds", "epochs_by_t"])
    def test_missing_required_field(self, field):
        d = dict(MINIMAL_SWEEP)
        del d[field]
        with pytest.raises(ValueError, match=f"sweep config: missing field '{field}'"):
            SweepConfig.from_dict(d)


class TestSweepPreflight:
    """A config that cannot run fails before any cell generates data."""

    def run_unrunnable(self, monkeypatch, **changes):
        import dflkit.bench as bench

        def no_cells(*args, **kwargs):
            raise AssertionError("a cell ran before the config was checked")

        monkeypatch.setattr(bench, "generate_splits", no_cells)
        d = {**MINIMAL_SWEEP, "methods": ["spo+", "mse"],
             "policies": [{"kind": "empirical"}], **changes}
        return run_sweep(SweepConfig.from_dict(d))

    def test_t_without_epochs_entry(self, monkeypatch):
        with pytest.raises(ValueError, match="epochs_by_t has no entry for t=6"):
            self.run_unrunnable(monkeypatch, problems=[
                {"kind": "grid", "v": 2, "h": 2, "t_values": [8, 6]}])

    def test_problem_without_kind(self, monkeypatch):
        with pytest.raises(ValueError, match=r"problems\[1\] has no field 'kind'"):
            self.run_unrunnable(monkeypatch, problems=[
                {"kind": "grid", "v": 2, "h": 2}, {"v": 2, "h": 2}])

    def test_problem_without_size(self, monkeypatch):
        with pytest.raises(ValueError, match=r"problems\[0\] has no field 'nodes'"):
            self.run_unrunnable(monkeypatch, problems=[{"kind": "tsp"}])

    def test_unknown_method(self, monkeypatch):
        with pytest.raises(ValueError, match="methods: unknown method 'spo'"):
            self.run_unrunnable(monkeypatch, methods=["mse", "spo"])

    def test_policy_without_field(self, monkeypatch):
        with pytest.raises(ValueError, match=r"policies\[1\] has no field 'k'"):
            self.run_unrunnable(monkeypatch, policies=[{"kind": "empirical"},
                                                       {"kind": "topk"}])

    def test_unknown_policy_kind(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown policy kind: 'best'"):
            self.run_unrunnable(monkeypatch, policies=[{"kind": "best"}])

    @pytest.mark.parametrize("changes, message", [
        ({"epochs_by_t": {"8": -1}}, "epochs must be non-negative, got -1"),
        ({"batch_size": 0}, "batch_size must be at least 1, got 0"),
        ({"methods": ["pfyl"], "pfyl_samples": 0}, "pfyl_samples must be at least 1"),
        ({"test_size": 0}, "need at least one sample in each split"),
        ({"features": 0}, "need at least one feature"),
        ({"degree": 0}, "polynomial degree must be at least 1"),
        ({"noise_values": [0.5, -1.0]}, "noise half-width must be non-negative"),
        ({"problems": [{"kind": "grid", "v": 1, "h": 2}]},
         r"problems\[0\]: grid needs at least 2 rows"),
        ({"problems": [{"kind": "grid", "v": 2, "h": 2}, {"kind": "ring"}]},
         r"problems\[1\]: unknown problem kind 'ring'"),
        ({"policies": [{"kind": "topk", "k": 0}]}, r"policies\[0\]: k must be at least 1"),
        ({"policies": [{"kind": "empirical"}, {"kind": "knn", "k": 2, "w": 2}]},
         r"policies\[1\]: interpolation weight must lie in \[0, 1\]"),
        ({"policies": [{"kind": "ro", "rho": -1, "gamma": 1}]},
         r"policies\[0\]: uncertainty parameters must be non-negative"),
        ({"policies": [{"kind": "topk", "k": "x"}]},
         r"policies\[0\]: invalid literal for int\(\)"),
        ({"problems": []}, "problems is empty"),
        ({"noise_values": []}, "noise_values is empty"),
        ({"methods": []}, "methods is empty"),
        ({"seeds": []}, "seeds is empty"),
        ({"problems": [{"kind": "grid", "v": 2, "h": 2, "t_values": []}]},
         r"problems\[0\]\.t_values is empty"),
        ({"t_values": []}, "t_values is empty"),
        ({"policies": []}, "policies is empty"),
        ({"features": "abc"}, r"features: invalid literal for int\(\)"),
        ({"t_values": ["x"]}, r"t_values: invalid literal for int\(\)"),
        ({"epochs_by_t": {"100": "x"}}, r"epochs_by_t: invalid literal for int\(\)"),
        ({"epochs_by_t": [1]}, "epochs_by_t: expected an object mapping t to epochs, got list"),
        ({"seeds": 3}, "seeds: 'int' object is not iterable"),
        ({"lr": None}, r"lr: float\(\) argument must be"),
        ({"lr": float("nan")}, "lr must be finite and non-negative, got nan"),
        ({"lr": float("inf")}, "lr must be finite and non-negative, got inf"),
        ({"lr": -0.01}, "lr must be finite and non-negative, got -0.01"),
        ({"noise_values": [float("nan")]},
         "noise half-width must be non-negative and finite, got nan"),
        ({"noise_values": [float("inf")]},
         "noise half-width must be non-negative and finite, got inf"),
        ({"policies": [{"kind": "ro", "rho": float("nan"), "gamma": 1}]},
         r"policies\[0\]: uncertainty parameter rho cannot be nan"),
        ({"policies": [{"kind": "ro", "rho": 0.5, "gamma": float("nan")}]},
         r"policies\[0\]: uncertainty parameter gamma cannot be nan"),
        ({"policies": [{"kind": "ro", "rho": float("inf"), "gamma": 1}]},
         r"policies\[0\]: uncertainty parameter rho cannot be inf"),
        ({"epochs_by_t": {"8": 2.7}}, "epochs_by_t: 2.7 is not an integer"),
        ({"epochs_by_t": {"8": True}}, "epochs_by_t: True is not an integer"),
        ({"seeds": [1.9, True]}, "seeds: 1.9 is not an integer"),
        ({"seeds": [1, True]}, "seeds: True is not an integer"),
        ({"t_values": [8.5]}, "t_values: 8.5 is not an integer"),
        ({"batch_size": 32.5}, "batch_size: 32.5 is not an integer"),
        ({"instance_seed": False}, "instance_seed: False is not an integer"),
        ({"problems": [{"kind": "grid", "v": 5.6, "h": 2}]},
         r"problems\[0\]: 5.6 is not an integer"),
        ({"problems": [{"kind": "tsp", "nodes": 6.5}]},
         r"problems\[0\]: 6.5 is not an integer"),
        ({"policies": [{"kind": "topk", "k": 2.5}]}, r"policies\[0\]: 2.5 is not an integer"),
        ({"policies": [{"kind": "knn", "k": True, "w": 0.5}]},
         r"policies\[0\]: True is not an integer"),
        ({"lr": True}, "lr: True is not a number"),
        ({"pfyl_sigma": True}, "pfyl_sigma: True is not a number"),
        ({"alpha": True}, "alpha: True is not a number"),
        ({"noise_values": [0.5, True]}, "noise_values: True is not a number"),
        ({"policies": [{"kind": "ro", "rho": True, "gamma": True}]},
         r"policies\[0\]: True is not a number"),
        ({"policies": [{"kind": "ro", "rho": True, "gamma": 1.0}]},
         r"policies\[0\]: True is not a number"),
        ({"policies": [{"kind": "ro", "rho": 0.5, "gamma_frac": True}]},
         r"policies\[0\]: True is not a number"),
        ({"policies": [{"kind": "knn", "k": 2, "w": True}]},
         r"policies\[0\]: True is not a number"),
        ({"problems": [{"kind": "grid", "v": 2, "h": 2, "t_values": [8.5]}]},
         r"problems\[0\]\.t_values: 8.5 is not an integer"),
        ({"problems": [{"kind": "grid", "v": 2, "h": 2, "t_values": [8, False]}]},
         r"problems\[0\]\.t_values: False is not an integer"),
    ], ids=["epochs", "batch_size", "pfyl_samples", "test_size", "features", "degree",
            "noise", "grid_v", "problem_kind", "topk_k", "knn_w", "ro_rho", "k_not_int",
            "no_problems", "no_noise_values", "no_methods", "no_seeds", "no_problem_t_values",
            "no_t_values", "no_policies", "features_not_int", "t_value_not_int",
            "epochs_not_int", "epochs_not_object", "seeds_not_list", "lr_null",
            "lr_nan", "lr_inf", "lr_negative", "noise_nan", "noise_inf", "ro_rho_nan",
            "ro_gamma_nan", "ro_rho_inf", "epochs_fraction", "epochs_bool", "seed_fraction",
            "seed_bool", "t_value_fraction", "batch_size_fraction", "instance_seed_bool",
            "grid_v_fraction", "tsp_nodes_fraction", "topk_k_fraction", "knn_k_bool",
            "lr_bool", "pfyl_sigma_bool", "alpha_bool", "noise_bool", "ro_bools",
            "ro_rho_bool", "ro_gamma_frac_bool", "knn_w_bool", "problem_t_value_fraction",
            "problem_t_value_bool"])
    def test_unrunnable_value(self, monkeypatch, changes, message):
        with pytest.raises(ValueError, match="^sweep config: " + message):
            self.run_unrunnable(monkeypatch, **changes)

    def test_policies_unused_by_mse_only_sweep(self):
        d = {**MINIMAL_SWEEP, "policies": [{"kind": "topk"}], "features": 2,
             "degree": 2, "val_size": 4, "test_size": 6}
        rows = run_sweep(SweepConfig.from_dict(d))
        assert rows[0]["status"] == "ok"


class TestRunSweep:
    def test_default_config_parses(self):
        from dflkit.bench import default_sweep_config

        cfg = SweepConfig.from_dict(default_sweep_config())
        assert cfg.epochs_by_t == {100: 200, 1000: 100}
        assert cfg.problems[0]["t_values"] == [100, 1000]
        assert cfg.problems[1]["t_values"] == [100]

    def test_row_bookkeeping(self):
        cfg = tiny_sweep_config()
        rows = run_sweep(cfg)
        detail = [r for r in rows if r["row_type"] == "detail"]
        agg = [r for r in rows if r["row_type"] == "aggregate"]
        assert len(detail) == 2 * 3  # policies x seeds
        assert len(agg) == 2
        assert all(r["status"] == "ok" for r in detail)

    def test_aggregate_mean_matches_details(self):
        rows = run_sweep(tiny_sweep_config())
        detail = [r for r in rows if r["row_type"] == "detail"]
        for agg in (r for r in rows if r["row_type"] == "aggregate"):
            vals = [d["test_regret_pct"] for d in detail
                    if d["policy"] == agg["policy"]]
            assert agg["mean_regret_pct"] == pytest.approx(float(np.mean(vals)))

    def test_significance_wiring(self):
        rows = run_sweep(tiny_sweep_config())
        for agg in (r for r in rows if r["row_type"] == "aggregate"):
            if agg["policy"] == "emp":
                assert agg["marker"] == "" and agg["p_value"] == ""
            else:
                assert agg["p_value"] != ""
                starred = agg["marker"] != ""
                assert starred == (float(agg["p_value"]) < 0.05)

    @pytest.mark.parametrize("shift, marker", [(-1.0, "*"), (1.0, "x")])
    def test_significant_marker_follows_the_sign(self, monkeypatch, shift, marker):
        # knn beats (or trails) emp by about `shift` on every seed: a
        # significant paired difference, starred when knn is the lower
        import dflkit.bench as bench

        def shifted_cell(cell):
            row = real_run_cell(cell)
            seed = row["seed"]
            row["test_regret_pct"] = 10.0 + seed + (
                0.0 if row["policy"] == "emp" else shift + 0.1 * seed * seed)
            return row

        real_run_cell = bench.run_cell
        monkeypatch.setattr(bench, "run_cell", shifted_cell)
        rows = run_sweep(tiny_sweep_config())
        knn = [r for r in rows if r["row_type"] == "aggregate" and r["policy"] != "emp"]
        assert len(knn) == 1 and knn[0]["p_value"] < 0.05
        assert (knn[0]["t_stat"] < 0) == (shift < 0)
        assert knn[0]["marker"] == marker

    def test_failed_cell_is_recorded_and_sweep_continues(self, monkeypatch):
        import dflkit.bench as bench

        def train_failing_seed_1(tc, *args):
            if tc.seed == 1:
                raise RuntimeError("boom")
            return real_train(tc, *args)

        real_train = bench.train
        monkeypatch.setattr(bench, "train", train_failing_seed_1)
        rows = run_sweep(tiny_sweep_config())
        detail = [r for r in rows if r["row_type"] == "detail"]
        assert [r["status"] for r in detail] == ["ok", "error: boom", "ok"] * 2
        assert all(r["test_regret_pct"] == "" for r in detail if r["seed"] == 1)
        assert all(r["wall_time_s"] != "" for r in detail)
        agg = [r for r in rows if r["row_type"] == "aggregate"]
        assert [r["status"] for r in agg] == ["ok:2/3", "ok:2/3"]

    def test_reproducibility(self, tmp_path):
        cfg = tiny_sweep_config(seeds=(0, 1))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(run_sweep(cfg), p1)
        write_sweep_csv(run_sweep(cfg), p2)

        def strip_wall(path):
            import csv

            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            drop = rows[0].index("wall_time_s")
            return [[col for i, col in enumerate(row) if i != drop] for row in rows]

        assert strip_wall(p1) == strip_wall(p2)

    def test_detail_row_order(self):
        rows = run_sweep(SweepConfig.from_dict({
            "problems": [{"kind": "grid", "v": 2, "h": 2, "t_values": [8, 6]},
                         {"kind": "grid", "v": 2, "h": 3}],
            "t_values": [8], "noise_values": [0.0, 0.5], "methods": ["spo+", "mse"],
            "policies": [{"kind": "empirical"}, {"kind": "topk", "k": 2}],
            "seeds": [1, 0], "epochs_by_t": {"8": 1, "6": 1}, "features": 2,
            "degree": 2, "val_size": 4, "test_size": 6}))
        detail = [r for r in rows if r["row_type"] == "detail"]
        assert all(r["status"] == "ok" for r in detail)
        expected = [(problem, t, noise, method, policy, seed)
                    for problem, t_values in (("grid:2x2", (8, 6)), ("grid:2x3", (8,)))
                    for t in t_values
                    for noise in (0.0, 0.5)
                    for method, policy in (("spo+", "emp"), ("spo+", "topk(k=2)"),
                                           ("mse", "mse"))
                    for seed in (1, 0)]
        assert [(r["problem"], r["t"], r["noise"], r["method"], r["policy"], r["seed"])
                for r in detail] == expected

    def test_gamma_frac_entry_parsed_with_n(self):
        rows = run_sweep(SweepConfig.from_dict({
            "problems": [{"kind": "grid", "v": 2, "h": 2}], "t_values": [8],
            "noise_values": [0.5], "methods": ["spo+"], "seeds": [0],
            "epochs_by_t": {"8": 1}, "features": 2, "degree": 2, "val_size": 4,
            "test_size": 6, "policies": [{"kind": "ro", "rho": 0.5, "gamma_frac": 0.125}]}))
        expected = policy_label(RobustOpt(UncertaintyParams(rho=0.5, gamma=0.125 * 4)))
        assert rows[0]["status"] == "ok" and rows[0]["policy"] == expected
