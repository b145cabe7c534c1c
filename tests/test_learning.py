import json

import numpy as np
import pytest

from dflkit.bench import eval_regret
from dflkit.core import Dataset, DatasetMeta, DimensionError, RngStream
from dflkit.datagen import GenParams, generate_splits
from dflkit.learning import (AdamState, LinearPredictor, TrainConfig,
                             TrainingError, adam_step, decision_regret, load_model,
                             loss_value, mse_gradient, save_model, spo_plus_surrogate,
                             train)
from dflkit.oracles import (GridShortestPath, SelectOne, UncertaintyParams,
                            solve)
from dflkit.targets import (Empirical, KNN, RobustOpt, SampleTargets, TargetSet,
                            TopK, build_targets)
from row_gradients import pfyl_gradient, spo_plus_gradient


def make_ds(features, costs, clean=None, instance=None):
    features = np.asarray(features, dtype=float)
    costs = np.asarray(costs, dtype=float)
    meta = DatasetMeta(problem="select",
                       instance=instance or f"select:{costs.shape[1]}",
                       m=features.shape[1], n=costs.shape[1], t=len(features),
                       seed=0, noise_halfwidth=0.0, degree=1)
    return Dataset(features=features, costs=costs, clean_costs=clean, meta=meta)


def single_targets(policy, c, inst):
    ds = make_ds(np.zeros((1, 1)), [c], instance=inst.descriptor())
    return build_targets(policy, ds, inst).per_sample[0]


class TestPredict:
    def test_identity(self):
        p = LinearPredictor(theta=np.eye(2))
        assert np.array_equal(p.predict_batch(np.array([[3.0, 4.0]])), [[3.0, 4.0]])

    def test_zero(self):
        p = LinearPredictor(theta=np.zeros((3, 2)))
        assert np.array_equal(p.predict_batch(np.array([[1.0, 2.0]])), np.zeros((1, 3)))

    def test_hand(self):
        p = LinearPredictor(theta=np.array([[1.0, 1.0], [1.0, -1.0]]))
        assert np.array_equal(p.predict_batch(np.array([[2.0, 1.0], [0.0, 1.0]])),
                              [[3.0, 1.0], [1.0, -1.0]])


class TestMseGradient:
    def test_examples(self):
        assert np.array_equal(mse_gradient([1.0], [1.0]), [0.0])
        assert np.array_equal(mse_gradient([0.0, 0.0], [1.0, 1.0]), [1.0, 1.0])
        assert np.array_equal(mse_gradient([1.0], [0.0]), [-2.0])


class TestSpoPlusGradient:
    def test_one_of_two(self):
        inst = SelectOne(2)
        ts = single_targets(Empirical(), [0.0, 1.0], inst)
        g = spo_plus_gradient(ts, np.array([1.0, 0.0]), inst)
        assert np.array_equal(g, [2.0, -2.0])

    def test_fixed_point(self):
        inst = SelectOne(3)
        c = np.array([2.0, 1.0, 5.0])
        ts = single_targets(Empirical(), c, inst)
        assert np.array_equal(spo_plus_gradient(ts, c, inst), np.zeros(3))
        grid = GridShortestPath(2, 2)
        cg = np.array([1.0, 5.0, 1.0, 2.0])
        tsg = single_targets(Empirical(), cg, grid)
        assert np.array_equal(spo_plus_gradient(tsg, cg, grid), np.zeros(4))

    def test_topk_two_path(self):
        grid = GridShortestPath(2, 2)
        c = np.array([1.0, 5.0, 1.0, 1.0])
        chat = np.array([5.0, 1.0, 1.0, 1.0])
        ts = single_targets(TopK(k=2), c, grid)
        # 2*chat - c = [9, -3, 1, 1] -> bottom path wins
        assert tuple(solve(grid, 2 * chat - c)) == (0.0, 1.0, 1.0, 0.0)
        g = spo_plus_gradient(ts, chat, grid)
        assert np.array_equal(g, [1.0, -1.0, -1.0, 1.0])

    def test_finite_difference_subgradient(self):
        rng = np.random.default_rng(17)
        h = 1e-5
        for n in (2, 3, 4):
            inst = SelectOne(n)
            for _ in range(10):
                c = rng.normal(size=n)
                ts = single_targets(Empirical(), c, inst)
                chat = rng.normal(size=n)
                # require unique optimizers near chat so the surrogate is smooth
                adj = 2 * chat - c
                if np.sort(adj)[1] - np.sort(adj)[0] < 10 * h:
                    continue
                g = spo_plus_gradient(ts, chat, inst)
                for j in range(n):
                    e = np.zeros(n)
                    e[j] = h
                    fd = (spo_plus_surrogate(ts, chat + e, inst)
                          - spo_plus_surrogate(ts, chat - e, inst)) / (2 * h)
                    assert abs(fd - g[j]) < 1e-4


class TestPfylGradient:
    def test_sigma_zero_fixed_point(self):
        inst = SelectOne(3)
        c = np.array([2.0, 1.0, 5.0])
        ts = single_targets(Empirical(), c, inst)
        g = pfyl_gradient(ts, c, inst, samples=1, sigma=0.0, stream=RngStream(0, 5))
        assert np.array_equal(g, np.zeros(3))

    def test_sigma_zero_any_m(self):
        inst = SelectOne(2)
        c = np.array([0.0, 1.0])
        ts = single_targets(Empirical(), c, inst)
        chat = np.array([0.7, 0.1])
        g1 = pfyl_gradient(ts, chat, inst, 1, 0.0, RngStream(0, 5))
        g3 = pfyl_gradient(ts, chat, inst, 3, 0.0, RngStream(1, 5))
        xbar_minus = ts.decisions[0] - solve(inst, chat)
        assert np.array_equal(g1, xbar_minus)
        assert np.array_equal(g3, xbar_minus)

    def test_symmetric_tie_monte_carlo(self):
        inst = SelectOne(2)
        ts = single_targets(Empirical(), [0.0, 1.0], inst)
        g = pfyl_gradient(ts, np.zeros(2), inst, samples=100_000, sigma=1.0,
                          stream=RngStream(7, 5))
        assert abs(g[0] - 0.5) < 0.01 and abs(g[1] + 0.5) < 0.01


class TestLossValue:
    def test_one_of_two(self):
        inst = SelectOne(2)
        c = np.array([0.0, 1.0])
        ts = single_targets(Empirical(), c, inst)
        assert loss_value(Empirical(), ts, np.array([1.0, 0.0]), inst) == 1.0
        assert loss_value(Empirical(), ts, c, inst) == 0.0

    def test_topk_two_path(self):
        grid = GridShortestPath(2, 2)
        c = np.array([1.0, 5.0, 1.0, 1.0])
        chat = np.array([5.0, 1.0, 1.0, 1.0])
        ts = single_targets(TopK(k=2), c, grid)
        assert loss_value(TopK(k=2), ts, chat, grid) == 2.0

    def test_identities_random(self):
        rng = np.random.default_rng(19)
        grid = GridShortestPath(2, 3)
        for _ in range(40):
            c = rng.normal(size=grid.n) * 3
            chat = rng.normal(size=grid.n) * 3
            ts_e = single_targets(Empirical(), c, grid)
            ts_r = single_targets(RobustOpt(UncertaintyParams(0.5, grid.n / 8)), c, grid)
            ts_k = single_targets(TopK(k=3), c, grid)
            ts_1 = single_targets(TopK(k=1), c, grid)
            l_emp = loss_value(Empirical(), ts_e, chat, grid)
            assert l_emp >= -1e-9
            assert loss_value(RobustOpt(UncertaintyParams(0.5, grid.n / 8)),
                              ts_r, chat, grid) <= l_emp + 1e-9
            assert loss_value(TopK(k=3), ts_k, chat, grid) <= l_emp + 1e-9
            assert loss_value(TopK(k=1), ts_1, chat, grid) == l_emp

    def test_ro_loss_decomposition(self):
        # l_ro equals l_emp minus the robust decision's nominal-cost premium
        rng = np.random.default_rng(21)
        grid = GridShortestPath(3, 3)
        u = UncertaintyParams(0.5, grid.n / 8)
        for _ in range(20):
            c = rng.normal(size=grid.n) * 2
            chat = rng.normal(size=grid.n) * 2
            ts_e = single_targets(Empirical(), c, grid)
            ts_r = single_targets(RobustOpt(u), c, grid)
            l_emp = loss_value(Empirical(), ts_e, chat, grid)
            l_ro = loss_value(RobustOpt(u), ts_r, chat, grid)
            premium = float(np.dot(c, ts_r.decisions[0] - ts_e.decisions[0]))
            assert l_ro == pytest.approx(l_emp - premium, rel=1e-12, abs=1e-12)


class TestAdam:
    def test_zero_gradient_no_change(self):
        theta = np.ones((2, 2))
        st = AdamState(lr=0.01)
        adam_step(st, theta, np.zeros((2, 2)))
        assert np.array_equal(theta, np.ones((2, 2)))

    def test_first_step_closed_form(self):
        theta = np.array([[0.0]])
        st = AdamState(lr=0.01)
        adam_step(st, theta, np.array([[1.0]]))
        expected = -0.01 * 1.0 / (1.0 + 1e-8)
        assert theta[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_zero_lr(self):
        theta = np.full((2,), 3.0)
        st = AdamState(lr=0.0)
        for _ in range(2):
            adam_step(st, theta, np.array([5.0, -1.0]))
        assert np.array_equal(theta, [3.0, 3.0])

    def test_nonfinite_gradient_aborts(self):
        theta = np.zeros(2)
        with pytest.raises(TrainingError):
            adam_step(AdamState(), theta, np.array([np.nan, 0.0]))


def tiny_problem(t=10, seed=0, n=3, m=2):
    inst = SelectOne(n)
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(t, m))
    costs = rng.normal(size=(t, n)) + 2.0
    train_ds = make_ds(feats, costs)
    val_ds = make_ds(rng.normal(size=(5, m)), rng.normal(size=(5, n)) + 2.0)
    return inst, train_ds, val_ds


class TestTrain:
    def test_zero_epochs(self):
        inst, tr, va = tiny_problem()
        ts = build_targets(Empirical(), tr, inst)
        cfg = TrainConfig(method="spo+", policy=Empirical(), epochs=0)
        model = train(cfg, tr, va, inst, ts)
        assert model.best_epoch == 0 and model.history == []
        assert np.array_equal(model.predictor.theta, np.zeros((3, 2)))
        assert model.audit.gradient == 0

    def test_solve_count_t_s_plus_one(self):
        inst, tr, va = tiny_problem(t=10)
        ts = build_targets(Empirical(), tr, inst)
        cfg = TrainConfig(method="spo+", policy=Empirical(), epochs=5, seed=1)
        model = train(cfg, tr, va, inst, ts)
        assert model.audit.gradient == 10 * 5
        assert model.audit.precompute == 10
        assert model.audit.gradient + model.audit.precompute == 10 * (5 + 1)

    def test_solve_count_knn_bound(self):
        inst, tr, va = tiny_problem(t=10)
        ts = build_targets(KNN(k=3, w=0.5), tr, inst)
        cfg = TrainConfig(method="spo+", policy=KNN(k=3, w=0.5), epochs=5, seed=1)
        model = train(cfg, tr, va, inst, ts)
        total = model.audit.gradient + model.audit.precompute
        assert model.audit.gradient == 50
        assert total <= 10 * (3 + 5)
        assert total == 80

    def test_pfyl_solve_count_scales_with_m(self):
        inst, tr, va = tiny_problem(t=6)
        ts = build_targets(Empirical(), tr, inst)
        cfg = TrainConfig(method="pfyl", policy=Empirical(), epochs=3,
                          pfyl_samples=2, seed=2)
        model = train(cfg, tr, va, inst, ts)
        assert model.audit.gradient == 6 * 3 * 2

    def test_mse_needs_no_targets_or_solves(self):
        inst, tr, va = tiny_problem()
        cfg = TrainConfig(method="mse", policy=Empirical(), epochs=3)
        model = train(cfg, tr, va, inst, None)
        assert model.audit.gradient == 0 and model.audit.precompute == 0
        assert len(model.history) == 3

    def test_mse_without_policy_matches_with_policy(self):
        inst, tr, va = tiny_problem(t=12, seed=3)
        models = [train(TrainConfig(method="mse", policy=policy, epochs=4,
                                    batch_size=5, seed=7), tr, va, inst, None)
                  for policy in (None, Empirical())]
        assert np.array_equal(models[0].predictor.theta, models[1].predictor.theta)
        assert models[0].history == models[1].history

    def test_determinism(self):
        inst, tr, va = tiny_problem(t=12)
        for method in ("spo+", "pfyl", "mse"):
            ts = None if method == "mse" else build_targets(Empirical(), tr, inst)
            cfg = TrainConfig(method=method, policy=Empirical(), epochs=4,
                              batch_size=5, seed=9)
            m1 = train(cfg, tr, va, inst, ts)
            m2 = train(cfg, tr, va, inst, ts)
            assert np.array_equal(m1.predictor.theta, m2.predictor.theta)
            assert m1.history == m2.history
            assert m1.best_epoch == m2.best_epoch

    def test_knn_w0_trajectory_identical_to_empirical(self):
        inst, tr, va = tiny_problem(t=12, seed=4)
        for method in ("spo+", "pfyl"):
            ts_e = build_targets(Empirical(), tr, inst)
            ts_k = build_targets(KNN(k=3, w=0.0), tr, inst)
            cfg_e = TrainConfig(method=method, policy=Empirical(), epochs=4,
                                batch_size=4, seed=3)
            cfg_k = TrainConfig(method=method, policy=KNN(k=3, w=0.0), epochs=4,
                                batch_size=4, seed=3)
            m_e = train(cfg_e, tr, va, inst, ts_e)
            m_k = train(cfg_k, tr, va, inst, ts_k)
            assert np.array_equal(m_e.predictor.theta, m_k.predictor.theta)
            assert m_e.history == m_k.history

    def test_best_epoch_earliest_minimum(self):
        inst, tr, va = tiny_problem(t=10, seed=6)
        ts = build_targets(Empirical(), tr, inst)
        cfg = TrainConfig(method="spo+", policy=Empirical(), epochs=6, seed=5)
        model = train(cfg, tr, va, inst, ts)
        vals = [h.val_regret_pct for h in model.history]
        assert model.best_epoch == vals.index(min(vals)) + 1

    def test_nonfinite_targets_abort(self):
        inst, tr, va = tiny_problem(t=4)
        bad = TargetSet(
            policy=Empirical(),
            per_sample=tuple(
                SampleTargets(costs=np.full((1, 3), np.nan),
                              decisions=np.array([[1.0, 0.0, 0.0]]),
                              ref_cost=np.full(3, np.nan))
                for _ in range(4)),
            precompute_solves=0)
        cfg = TrainConfig(method="spo+", policy=Empirical(), epochs=1)
        with pytest.raises((TrainingError, ValueError)):
            train(cfg, tr, va, inst, bad)

    @pytest.mark.parametrize("method, lr, batch_size, message", [
        pytest.param("spo+", 1e308, 4, "non-finite minibatch predictions at epoch 1$",
                     id="4-minibatch"),
        pytest.param("spo+", 1e308, 32, "non-finite evaluation predictions at epoch 1$",
                     id="32-evaluation"),
        *(pytest.param(method, 1e200, batch_size,
                       f"{where} predictions at epoch 1 fail the oracle's cost checks: "
                       "cost magnitudes too large", id=f"{method}-{batch_size}-too-large")
          for method in ("spo+", "pfyl")
          for batch_size, where in ((4, "minibatch"), (32, "evaluation")))])
    def test_exploding_predictions_name_the_epoch(self, method, lr, batch_size, message):
        # one Adam step of lr sends theta to about lr, so the next predictions
        # overflow (lr=1e308) or pass the oracle's cost bound (lr=1e200): in
        # the second minibatch when there is one, else in the epoch's evaluation
        inst = GridShortestPath(3, 3)
        tr, va, _ = generate_splits(inst, GenParams(t_train=20, t_val=10, t_test=1))
        ts = build_targets(Empirical(), tr, inst)
        cfg = TrainConfig(method=method, policy=Empirical(), epochs=2, lr=lr,
                          batch_size=batch_size)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                TrainingError, match=f"^{message}"):
            train(cfg, tr, va, inst, ts)

    def test_policy_mismatch_rejected(self):
        inst, tr, va = tiny_problem()
        ts = build_targets(Empirical(), tr, inst)
        cfg = TrainConfig(method="spo+", policy=TopK(k=2), epochs=1)
        with pytest.raises(ValueError):
            train(cfg, tr, va, inst, ts)

    def test_missing_targets_rejected(self):
        inst, tr, va = tiny_problem()
        cfg = TrainConfig(method="spo+", policy=Empirical(), epochs=1)
        with pytest.raises(ValueError, match="^method 'spo\\+' requires a target set$"):
            train(cfg, tr, va, inst, None)

    def test_targets_of_another_length_rejected(self):
        inst, tr, va = tiny_problem(t=10)
        ts = build_targets(Empirical(), tiny_problem(t=9)[1], inst)
        cfg = TrainConfig(method="spo+", policy=Empirical(), epochs=1)
        with pytest.raises(ValueError, match="^target set size does not match training set$"):
            train(cfg, tr, va, inst, ts)


class TestTrainConfig:
    @pytest.mark.parametrize("kwargs", [{"pfyl_samples": 0}, {"pfyl_samples": -2},
                                        {"pfyl_sigma": -1.0},
                                        {"pfyl_sigma": float("nan")},
                                        {"pfyl_sigma": float("inf")}])
    def test_bad_pfyl_settings_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(method="pfyl", policy=Empirical(), epochs=1, **kwargs)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
            TrainConfig(method="spo+", policy=Empirical(), epochs=1, seed=-1)

    def test_sigma_zero_allowed(self):
        TrainConfig(method="pfyl", policy=Empirical(), epochs=1, pfyl_sigma=0.0)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), -float("inf"), -0.01])
    def test_bad_lr_rejected(self, lr):
        with pytest.raises(ValueError, match="^lr must be finite and non-negative, got "):
            TrainConfig(method="mse", policy=None, epochs=1, lr=lr)

    def test_lr_zero_allowed(self):
        TrainConfig(method="mse", policy=None, epochs=1, lr=0.0)

    @pytest.mark.parametrize("method", ["spo+", "pfyl"])
    def test_policy_required_unless_mse(self, method):
        with pytest.raises(ValueError, match="needs a target policy"):
            TrainConfig(method=method, policy=None, epochs=1)

    def test_mse_without_policy_serializes(self):
        cfg = TrainConfig(method="mse", policy=None, epochs=1)
        assert cfg.to_dict()["policy"] is None


class TestTrainEvaluation:
    def test_history_matches_eval_regret(self):
        # training's per-epoch metric and eval_regret share one regret kernel
        inst, tr, va = tiny_problem(t=10, seed=8)
        for method in ("spo+", "pfyl", "mse"):
            ts = None if method == "mse" else build_targets(Empirical(), tr, inst)
            cfg = TrainConfig(method=method, policy=Empirical(), epochs=1, seed=2)
            model = train(cfg, tr, va, inst, ts)
            for ds, pct in ((tr, model.history[0].train_regret_pct),
                            (va, model.history[0].val_regret_pct)):
                report = eval_regret(model.predictor.predict_batch(ds.features), ds, inst)
                assert pct == report.normalized_regret_pct

    @pytest.mark.parametrize("pred_shape, cost_shape", [
        ((4,), (4,)), ((3, 4), (2, 4)), ((4,), (2, 4)), ((2, 4), (4,)),
        ((1, 2, 4), (1, 2, 4))],
        ids=["vectors", "row_counts", "vector_pred", "vector_costs", "three_d"])
    def test_regret_kernel_refuses_other_shapes(self, pred_shape, cost_shape):
        inst = GridShortestPath(2, 2)
        with pytest.raises(DimensionError, match=r"^predictions have shape \("):
            decision_regret(inst, np.ones(pred_shape), np.ones(cost_shape))

    def test_evaluation_solve_count(self):
        inst, tr, va = tiny_problem(t=10)
        ts = build_targets(Empirical(), tr, inst)
        for epochs in (0, 3):
            cfg = TrainConfig(method="spo+", policy=Empirical(), epochs=epochs)
            model = train(cfg, tr, va, inst, ts)
            assert model.audit.evaluation == (10 + 5) * (epochs + 1)


class TestModelIO:
    def test_roundtrip_bit_exact(self, tmp_path):
        inst, tr, va = tiny_problem(t=8)
        ts = build_targets(Empirical(), tr, inst)
        cfg = TrainConfig(method="spo+", policy=Empirical(), epochs=3, seed=11)
        model = train(cfg, tr, va, inst, ts)
        path = tmp_path / "model.json"
        save_model(model, cfg, path)
        predictor, payload = load_model(path)
        assert np.array_equal(predictor.theta, model.predictor.theta)
        assert payload["best_epoch"] == model.best_epoch
        assert payload["config"]["method"] == "spo+"

    def _write(self, path, theta, bias=None):
        path.write_text(json.dumps({"theta": theta, "bias": bias}))
        return path

    def test_ragged_theta_rejected(self, tmp_path):
        path = self._write(tmp_path / "m.json", [[1.0, 2.0], [3.0]])
        with pytest.raises(ValueError, match="theta is not a numeric array"):
            load_model(path)

    def test_non_numeric_theta_rejected(self, tmp_path):
        path = self._write(tmp_path / "m.json", [["a", "b"]])
        with pytest.raises(ValueError, match="theta is not a numeric array"):
            load_model(path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_theta_rejected(self, tmp_path, bad):
        path = self._write(tmp_path / "m.json", [[1.0, bad], [0.5, 2.0]])
        with pytest.raises(ValueError, match="m.json: theta has non-finite entries"):
            load_model(path)

    def test_theta_must_be_matrix(self, tmp_path):
        path = self._write(tmp_path / "m.json", [1.0, 2.0])
        with pytest.raises(DimensionError, match="2-D"):
            load_model(path)

    def test_non_null_bias_rejected(self, tmp_path):
        path = self._write(tmp_path / "m.json", [[1.0], [2.0]], bias=[0.0, 1.0])
        with pytest.raises(ValueError, match="m.json: bias must be null"):
            load_model(path)

    @pytest.mark.parametrize("field", ["theta", "bias"])
    def test_missing_field_rejected(self, tmp_path, field):
        path = tmp_path / "m.json"
        payload = {"theta": [[1.0]], "bias": None}
        del payload[field]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"m.json: missing field '{field}'"):
            load_model(path)
