import numpy as np
import pytest

from dflkit.core import Dataset, DatasetMeta
from dflkit.oracles import (GridShortestPath, OracleAudit, SelectOne,
                            UncertaintyParams, is_feasible, solve)
from dflkit.targets import (Empirical, KNN, RobustOpt, SampleTargets, TopK,
                            build_targets, knn_neighbors, policy_from_dict,
                            policy_label, policy_to_dict)


def make_ds(features, costs, problem="select", instance=None):
    features = np.asarray(features, dtype=float)
    costs = np.asarray(costs, dtype=float)
    meta = DatasetMeta(problem=problem,
                       instance=instance or f"select:{costs.shape[1]}",
                       m=features.shape[1], n=costs.shape[1], t=len(features),
                       seed=0, noise_halfwidth=0.0, degree=1)
    return Dataset(features=features, costs=costs, clean_costs=None, meta=meta)


class TestKnnNeighbors:
    def setup_method(self):
        self.ds = make_ds([[0.0], [1.0], [3.0]], np.eye(3))

    def test_nearest_on_line(self):
        assert knn_neighbors(self.ds, 0, 1) == [1]

    def test_two_nearest(self):
        assert knn_neighbors(self.ds, 1, 2) == [0, 2]

    def test_duplicate_features_tie(self):
        ds = make_ds([[2.0], [9.0], [2.0]], np.eye(3))
        assert knn_neighbors(ds, 2, 1) == [0]

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            knn_neighbors(self.ds, 0, 3)


class TestKnnTargetCosts:
    """Interpolated neighbour costs ``w * c_j + (1 - w) * c_i`` as stored by
    ``build_targets``."""

    def test_midpoint(self):
        ds = make_ds([[0.0], [1.0]], [[2.0, 2.0], [1.0, 3.0]])
        out = build_targets(KNN(k=1, w=0.5), ds, SelectOne(2)).per_sample[0].costs
        assert np.array_equal(out[0], [1.5, 2.5])

    def test_w_zero_equals_own_cost(self):
        ds = make_ds([[0.0], [1.0], [2.0]], [[2.0, 5.0], [1.0, 3.0], [9.0, 9.0]])
        out = build_targets(KNN(k=2, w=0.0), ds, SelectOne(2)).per_sample[0].costs
        assert len(out) == 2
        for cw in out:
            assert np.array_equal(cw, ds.costs[0])

    def test_w_one_equals_neighbor_cost(self):
        ds = make_ds([[0.0], [1.0]], [[2.0, 2.0], [1.0, 3.0]])
        out = build_targets(KNN(k=1, w=1.0), ds, SelectOne(2)).per_sample[0].costs
        assert np.array_equal(out[0], ds.costs[1])


class TestBuildTargets:
    def test_empirical_counts(self):
        inst = SelectOne(3)
        ds = make_ds(np.zeros((3, 2)), [[1, 2, 3], [3, 1, 2], [2, 3, 1]])
        audit = OracleAudit()
        ts = build_targets(Empirical(), ds, inst, audit)
        assert audit.solve_count == 3 and ts.precompute_solves == 3
        assert all(st.costs.shape == (1, 3) for st in ts.per_sample)
        assert np.array_equal(ts.per_sample[1].decisions[0], [0, 1, 0])

    def test_knn_counts(self):
        inst = SelectOne(3)
        rng = np.random.default_rng(0)
        ds = make_ds(rng.normal(size=(5, 2)), rng.normal(size=(5, 3)))
        ts = build_targets(KNN(k=2, w=0.5), ds, inst)
        assert sum(st.costs.shape[0] for st in ts.per_sample) == 10
        assert ts.precompute_solves == 10  # <= t * k, exactly t*k here

    def test_topk_two_path_example(self):
        inst = GridShortestPath(2, 2)
        ds = make_ds([[0.0]], [[1.0, 5.0, 1.0, 1.0]])
        ts = build_targets(TopK(k=2), ds, inst)
        decs = [tuple(int(b) for b in row) for row in ts.per_sample[0].decisions]
        assert decs == [(1, 0, 0, 1), (0, 1, 1, 0)]
        assert np.array_equal(ts.per_sample[0].costs[0], ts.per_sample[0].costs[1])

    def test_robust_stores_realized_cost(self):
        inst = GridShortestPath(2, 2)
        ds = make_ds([[0.0]], [[1.0, 5.0, 1.0, 1.0]])
        u = UncertaintyParams(rho=0.5, gamma=1.0)
        ts = build_targets(RobustOpt(u), ds, inst)
        st = ts.per_sample[0]
        assert np.array_equal(st.costs[0], ds.costs[0])
        assert tuple(st.decisions[0]) == (1.0, 0.0, 0.0, 1.0)

    def test_knn_w0_identical_to_empirical(self):
        inst = SelectOne(4)
        rng = np.random.default_rng(3)
        ds = make_ds(rng.normal(size=(6, 2)), rng.normal(size=(6, 4)))
        emp = build_targets(Empirical(), ds, inst)
        knn = build_targets(KNN(k=3, w=0.0), ds, inst)
        for st_e, st_k in zip(emp.per_sample, knn.per_sample):
            assert np.array_equal(st_k.ref_cost, st_e.ref_cost)
            for row in range(3):
                assert np.array_equal(st_k.costs[row], st_e.costs[0])
                assert np.array_equal(st_k.decisions[row], st_e.decisions[0])

    def test_topk_targets_sorted_distinct_first_empirical(self):
        inst = GridShortestPath(3, 3)
        rng = np.random.default_rng(5)
        for _ in range(5):
            c = rng.normal(size=inst.n)
            ds = make_ds([[0.0]], [c], instance=inst.descriptor())
            ts = build_targets(TopK(k=4), ds, inst)
            st = ts.per_sample[0]
            vals = [float(np.dot(c, d)) for d in st.decisions]
            assert vals == sorted(vals)
            keys = {tuple(d) for d in st.decisions}
            assert len(keys) == len(st.decisions)
            assert np.array_equal(st.decisions[0], solve(inst, c))

    def test_all_targets_feasible(self):
        inst = GridShortestPath(2, 3)
        rng = np.random.default_rng(7)
        ds = make_ds(rng.normal(size=(4, 2)), rng.normal(size=(4, inst.n)),
                     instance=inst.descriptor())
        for policy in (Empirical(), RobustOpt(UncertaintyParams(0.5, 1.0)),
                       TopK(k=3), KNN(k=2, w=0.5)):
            ts = build_targets(policy, ds, inst)
            for st in ts.per_sample:
                for d in st.decisions:
                    assert is_feasible(inst, d)

    def test_w1_full_k_mean_matches_local_average(self):
        # constant features: every sample's neighbours are all the others, so
        # the mean target cost approaches the dataset average
        inst = SelectOne(2)
        rng = np.random.default_rng(11)
        costs = rng.normal(size=(6, 2))
        ds = make_ds(np.zeros((6, 1)), costs)
        ts = build_targets(KNN(k=5, w=1.0), ds, inst)
        for i, st in enumerate(ts.per_sample):
            others = np.delete(costs, i, axis=0)
            assert np.allclose(st.costs.mean(axis=0), others.mean(axis=0))


class TestPolicyFromDict:
    POLICIES = (Empirical(), RobustOpt(UncertaintyParams(rho=0.5, gamma=1.5)),
                TopK(k=3), KNN(k=4, w=0.25))

    def test_roundtrip_all_kinds(self):
        for p in self.POLICIES:
            assert policy_from_dict(policy_to_dict(p)) == p

    def test_gamma_frac_scales_by_n(self):
        entry = {"kind": "ro", "rho": 0.5, "gamma_frac": 0.125}
        assert policy_from_dict(entry, n=12) == RobustOpt(
            UncertaintyParams(rho=0.5, gamma=0.125 * 12))
        with pytest.raises(ValueError):
            policy_from_dict(entry)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            policy_from_dict({"kind": "bogus"})

    @pytest.mark.parametrize("entry, message", [
        ({"kind": "topk", "K": 3}, "unknown field 'K'"),
        ({"kind": "knn", "k": 3, "w": 0.5, "rho": 0.5}, "unknown field 'rho'"),
        ({"kind": "empirical", "k": 3}, "unknown field 'k'"),
        ({"kind": "ro", "rho": 0.5, "gamma": 1.0, "gamma_frac": 0.1},
         "ro takes gamma or gamma_frac, not both"),
    ], ids=["topk_K", "knn_rho", "empirical_k", "ro_gamma_and_gamma_frac"])
    def test_refused_entry(self, entry, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            policy_from_dict(entry, n=12)

    @pytest.mark.parametrize("policy, label, as_dict", [
        (Empirical(), "emp", [("kind", "empirical")]),
        (RobustOpt(UncertaintyParams(rho=0.5, gamma=5.0)), "ro(rho=0.5;gamma=5)",
         [("kind", "ro"), ("rho", 0.5), ("gamma", 5.0)]),
        (RobustOpt(UncertaintyParams(rho=0.25, gamma=1.5)), "ro(rho=0.25;gamma=1.5)",
         [("kind", "ro"), ("rho", 0.25), ("gamma", 1.5)]),
        (TopK(k=1), "topk(k=1)", [("kind", "topk"), ("k", 1)]),
        (TopK(k=1234567), "topk(k=1234567)", [("kind", "topk"), ("k", 1234567)]),
        (KNN(k=10, w=0.5), "knn(k=10;w=0.5)", [("kind", "knn"), ("k", 10), ("w", 0.5)]),
        (KNN(k=3, w=1e-07), "knn(k=3;w=1e-07)", [("kind", "knn"), ("k", 3), ("w", 1e-07)]),
    ], ids=["emp", "ro_whole_gamma", "ro", "topk", "topk_large_k", "knn", "knn_tiny_w"])
    def test_label_and_dict_are_pinned(self, policy, label, as_dict):
        assert policy_label(policy) == label
        assert list(policy_to_dict(policy).items()) == as_dict
        assert [type(v) for _, v in policy_to_dict(policy).items()] == [type(v) for _, v in as_dict]
        assert policy_from_dict(policy_to_dict(policy)) == policy


class TestSampleTargets:
    def test_decision_mean_cached_read_only(self):
        ds = make_ds([[0.0], [1.0], [2.0]], [[2.0, 1.0], [1.0, 3.0], [0.0, 9.0]])
        st = build_targets(KNN(k=2, w=1.0), ds, SelectOne(2)).per_sample[0]
        mean = st.decision_mean()
        assert np.array_equal(mean, st.decisions.mean(axis=0))
        assert np.array_equal(mean, [1.0, 0.0])
        mean[:] = 7.0   # a caller's array: writing into it changes no target
        assert np.array_equal(st.decision_mean(), [1.0, 0.0])
        assert np.array_equal(st.decisions, [[1.0, 0.0], [1.0, 0.0]])

    def test_empty_target_list_rejected(self):
        with pytest.raises(ValueError):
            SampleTargets(costs=np.zeros((0, 2)), decisions=np.zeros((0, 2)),
                          ref_cost=np.zeros(2))
