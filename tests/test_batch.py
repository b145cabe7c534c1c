"""Batched solves and batched training equal their per-row forms, bit for bit.

``solve`` on a ``(B, n)`` batch must return, row for row, what it returns on
each row as a cost vector, and count one nominal solve per row; so must the
Empirical target precompute, which solves a whole dataset in one call.  Each
instance has one DP that applies the tie rule itself; for TSP that is one
Held-Karp, so its tie rule is checked against enumeration of every tour, with
one and with several words per support key, and against a plain-Python
Held-Karp on decimal costs, whose float ties depend on the summation order.
The batched training path rests on four numpy identities, pinned here so
that a numpy upgrade breaking one fails the suite.
"""

import numpy as np
import pytest

import bruteforce as bf
import dflkit.oracles as oracles
from dflkit.core import Dataset, DatasetMeta, DimensionError, RngStream
from dflkit.datagen import GenParams, generate_splits
from dflkit.learning import pfyl_batch_gradient, spo_plus_batch_gradient
from dflkit.oracles import (BIG_CUTOFF, DenseTSP, GridShortestPath, OracleAudit,
                            SelectOne, solve, top_k_solve)
from dflkit.targets import KNN, Empirical, build_targets

from row_gradients import pfyl_gradient, spo_plus_gradient
from test_oracles import bits, dyadic_near_ties

INSTANCES = [GridShortestPath(2, 2), GridShortestPath(5, 5), GridShortestPath(10, 10),
             DenseTSP(3), DenseTSP(6), DenseTSP(8), SelectOne(5)]
IDS = [inst.descriptor() for inst in INSTANCES]
ROWS = 60


def cost_rows(inst, kind, seed=0):
    rng = np.random.default_rng(seed)
    if kind == "normal":
        return rng.normal(size=(ROWS, inst.n))
    if kind == "datagen":
        params = GenParams(m=5, deg=6, noise_halfwidth=0.5, t_train=ROWS, t_val=1,
                           t_test=1, seed=seed)
        return np.array(generate_splits(inst, params)[0].costs)
    if kind == "integer":
        return rng.integers(0, 3, size=(ROWS, inst.n)).astype(float)
    if kind == "constant":
        return np.repeat(np.resize([0.0, 1.0, 2.0, -0.75], (ROWS, 1)), inst.n, axis=1)
    if kind == "decimal":
        return rng.choice([0.1, 0.2, 0.3, 0.7], size=(ROWS, inst.n))
    return np.array([dyadic_near_ties(rng, inst.n) for _ in range(ROWS)])


def per_row(inst, C):
    return np.array([solve(inst, c) for c in C]).reshape(C.shape)


def as_dataset(inst, C):
    meta = DatasetMeta(problem=inst.kind, instance=inst.descriptor(), m=1, n=inst.n,
                       t=len(C), seed=0, noise_halfwidth=0.0, degree=1)
    return Dataset(features=np.zeros((len(C), 1)), costs=C, clean_costs=None, meta=meta)


class TestBatchedEqualsPerRow:
    @pytest.mark.parametrize("kind", ["normal", "datagen", "integer", "dyadic",
                                      "constant", "decimal"])
    @pytest.mark.parametrize("inst", INSTANCES, ids=IDS)
    def test_law(self, inst, kind):
        C = cost_rows(inst, kind)
        want = per_row(inst, C).tobytes()
        audit = OracleAudit()
        X = solve(inst, C, audit)
        assert X.tobytes() == want
        assert audit.solve_count == ROWS
        # the Empirical precompute solves the dataset in one batch
        ts = build_targets(Empirical(), as_dataset(inst, C), inst)
        assert np.concatenate([st.decisions for st in ts.per_sample]).tobytes() == want
        assert ts.precompute_solves == ROWS

    @pytest.mark.parametrize("kind", ["normal", "datagen"])
    @pytest.mark.parametrize("inst", INSTANCES, ids=IDS)
    def test_untied_rows_rank_first_in_top_k(self, inst, kind):
        # rows without ties have one cheapest decision, which k-best
        # ranks first; about half of all TSP rows close a tour and its own
        # reverse at equal cost, which is no tie
        C = cost_rows(inst, kind)
        for c, x in zip(C, solve(inst, C)):
            best = top_k_solve(inst, c, 2)
            assert x.tobytes() == best[0].tobytes()
            if len(best) == 2:
                assert float(c @ best[0]) < float(c @ best[1])

    @pytest.mark.parametrize("inst", [INSTANCES[2], INSTANCES[4], INSTANCES[5]],
                             ids=[IDS[2], IDS[4], IDS[5]])
    def test_integer_ties_equal_per_row(self, inst):
        # every integer TSP row has states with two cheapest ways in
        C = cost_rows(inst, "integer")
        assert solve(inst, C).tobytes() == per_row(inst, C).tobytes()

    @pytest.mark.parametrize("inst", [GridShortestPath(2, 2), GridShortestPath(5, 5),
                                      DenseTSP(4), DenseTSP(6)],
                             ids=["grid2x2", "grid5x5", "tsp4", "tsp6"])
    def test_constant_rows_equal_per_row(self, inst):
        # every decision of a constant row ties
        C = np.repeat([[0.0], [1.0], [2.0]], inst.n, axis=1)
        X = solve(inst, C)
        assert X.tobytes() == per_row(inst, C).tobytes()

    def test_select_integer_ties_equal_per_row(self):
        inst = SelectOne(5)
        C = cost_rows(inst, "integer")
        assert solve(inst, C).tobytes() == per_row(inst, C).tobytes()

    def test_tied_and_untied_rows_equal_per_row(self):
        # rows 1 and 3 tie (all tours cost the same; two tours close at the
        # same cost), rows 0 and 2 do not
        inst = DenseTSP(4)
        C = np.array([[0.3, 1.7, 0.9, 2.6, 1.1, 0.4], np.ones(inst.n),
                      [3.0, 1.0, 2.0, 0.0, 5.0, 1.5], [0.2, 0.7, 0.2, 0.2, 0.2, 0.7]])
        audit = OracleAudit()
        assert solve(inst, C, audit).tobytes() == per_row(inst, C).tobytes()
        assert audit.solve_count == 4

    @pytest.mark.parametrize("kind", ["normal", "integer"])
    @pytest.mark.parametrize("inst", [DenseTSP(9), DenseTSP(10)], ids=["tsp:9", "tsp:10"])
    def test_law_across_blocks(self, inst, kind):
        # a 9-node block holds 28 rows and a 10-node block 12, so 60 rows
        # span 3 and 5 blocks
        C = cost_rows(inst, kind)
        audit = OracleAudit()
        X = solve(inst, C, audit)
        assert X.tobytes() == per_row(inst, C).tobytes()
        assert audit.solve_count == ROWS

    def test_blocks_match_one_block(self, monkeypatch):
        inst = DenseTSP(6)
        C = cost_rows(inst, "normal")
        whole = solve(inst, C)
        monkeypatch.setattr(oracles, "BATCH_TABLE_ENTRIES", inst.row_table_entries * 7)
        assert solve(inst, C).tobytes() == whole.tobytes()


class TestTSPTieRule:
    """Held-Karp's exact tie rule on every tour of TSP 4 to 8, and on the
    convex-position tours of 12 to 16 nodes, whose keys take two words."""

    @staticmethod
    def tie_rows(inst, kind, rows):
        rng = np.random.default_rng(inst.n_nodes)
        if kind == "integer":
            return rng.integers(0, 3, size=(rows, inst.n)).astype(float)
        if kind == "dyadic":
            return np.array([dyadic_near_ties(rng, inst.n) for _ in range(rows)])
        return np.repeat([[0.0], [1.0], [2.0], [-0.75]], inst.n, axis=1)

    @staticmethod
    def check_bruteforce(inst, C):
        tours = bf.tsp_tours(inst.n_nodes)
        for c, x in zip(C, solve(inst, C)):
            want = bf.best_decision(tours, bf.exact_costs(c))
            assert bits(x) == want
            assert bits(solve(inst, c)) == want

    @pytest.mark.parametrize("kind", ["integer", "dyadic", "constant"])
    @pytest.mark.parametrize("nodes", [4, 5, 6, 7, 8])
    def test_batch_and_solve_match_exact_bruteforce(self, nodes, kind):
        inst = DenseTSP(nodes)
        self.check_bruteforce(inst, self.tie_rows(inst, kind, 40 if nodes < 8 else 12))

    @pytest.mark.parametrize("nodes", [4, 5, 6, 7, 8])
    def test_matches_plain_held_karp(self, nodes):
        # decimal costs tie in float64 only where two sums round alike, so
        # the reference must add the same terms in the same order
        inst = DenseTSP(nodes)
        C = np.random.default_rng(nodes).choice([0.1, 0.2, 0.3, 0.7], size=(200, inst.n))
        for c, x in zip(C, solve(inst, C)):
            assert bits(x) == bf.held_karp(nodes, c)

    @pytest.mark.parametrize("row", [
        [0.2, 0.7, 0.2, 0.2, 0.2, 0.7],
        [0.3, 0.7, 0.3, 0.7, 0.3, 0.3],
        [0.3, 0.7, 0.1, 0.3, 0.1, 0.7, 0.3, 0.1, 0.2, 0.2],
        [0.2, 0.3, 0.1, 0.3, 0.1, 0.1, 0.7, 0.2, 0.7, 0.1],
        [0.1, 0.1, 0.2, 0.7, 0.3, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.2, 0.7, 0.1, 0.2]],
        ids=["tsp4a", "tsp4b", "tsp5a", "tsp5b", "tsp6"])
    def test_closing_tie_matches_plain_held_karp(self, row):
        # two tours close at the same float64 cost through different last
        # nodes; the lex-smaller support wins, whichever last node it has
        nodes = {6: 4, 10: 5, 15: 6}[len(row)]
        assert bits(solve(DenseTSP(nodes), np.array([row]))[0]) == bf.held_karp(nodes, row)

    @pytest.mark.parametrize("nodes", [4, 5, 6, 7])
    def test_several_key_words(self, nodes, monkeypatch):
        monkeypatch.setattr(oracles, "KEY_WORD_BITS", 3)
        inst = DenseTSP(nodes)                          # its tables read the patched width
        assert len(inst._hk_layers[1]) == -(-inst.n // 3) >= 2   # words per key
        for kind in ("integer", "dyadic", "constant"):
            self.check_bruteforce(inst, self.tie_rows(inst, kind, 20))

    @pytest.mark.parametrize("nodes", [12, 14, 16])
    def test_convex_position(self, nodes):
        # points on a circle: the one optimal tour visits them in angular order
        rng = np.random.default_rng(nodes)
        inst = DenseTSP(nodes)
        pairs = bf.tsp_pair_indices(nodes)
        C, want = [], []
        for _ in range(2):
            labels = rng.permutation(nodes)
            angles = 2 * np.pi * (np.arange(nodes) + rng.uniform(-0.3, 0.3, nodes)) / nodes
            coords = [None] * nodes
            for label, a in zip(labels.tolist(), angles.tolist()):
                coords[label] = (np.cos(a), np.sin(a))
            C.append(bf.euclidean_tsp_costs(coords))
            tour = np.zeros(inst.n)
            for a, b in zip(labels.tolist(), np.roll(labels, -1).tolist()):
                tour[pairs[min(a, b), max(a, b)]] = 1.0
            want.append(tour)
        assert solve(inst, np.array(C)).tobytes() == np.array(want).tobytes()


class TestBatchEdges:
    @pytest.mark.parametrize("inst", INSTANCES, ids=IDS)
    def test_one_row(self, inst):
        c = np.random.default_rng(3).normal(size=inst.n)
        X = solve(inst, c[None])
        assert X.shape == (1, inst.n)
        assert X[0].tobytes() == solve(inst, c).tobytes()

    @pytest.mark.parametrize("inst", INSTANCES, ids=IDS)
    def test_zero_rows(self, inst):
        audit = OracleAudit()
        X = solve(inst, np.zeros((0, inst.n)), audit)
        assert X.shape == (0, inst.n)
        assert audit.solve_count == 0

    @pytest.mark.parametrize("shape", [(5,), (2, 6), (2, 4, 1), ()])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(DimensionError):
            solve(GridShortestPath(2, 3), np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_like_solve(self, bad):
        inst = GridShortestPath(3, 3)
        C = np.ones((4, inst.n))
        C[2, 5] = bad
        # the same check, each message naming what it was given
        with pytest.raises(ValueError, match="^cost batch contains non-finite entries$"):
            solve(inst, C)
        with pytest.raises(ValueError, match="^cost vector contains non-finite entries$"):
            solve(inst, C[2])

    def test_sentinel_sized_rejected_like_solve(self):
        inst = DenseTSP(5)
        C = np.ones((3, inst.n))
        C[1, 0] = BIG_CUTOFF / inst.n
        with pytest.raises(ValueError, match=r"summed \|cost\| must stay below") as batch_err:
            solve(inst, C)
        with pytest.raises(ValueError) as row_err:
            solve(inst, C[1])
        assert str(batch_err.value) == str(row_err.value)

    def test_tsp_node_cap_applies(self):
        inst = DenseTSP(DenseTSP.SOLVE_MAX_NODES + 1)
        with pytest.raises(ValueError, match="capped"):
            solve(inst, np.ones((1, inst.n)))


class TestNumpyIdentities:
    """The byte-identity of batched training depends on these."""

    def test_stacked_matvec_equals_per_sample_matvec(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n, m, b = (int(v) for v in rng.integers(1, 60, size=3))
            theta, Z = rng.normal(size=(n, m)), rng.normal(size=(b, m))
            got = np.matmul(theta[None], Z[:, :, None])[:, :, 0]
            for i in range(b):
                assert got[i].tobytes() == (theta @ Z[i]).tobytes()

    def test_axis0_sum_equals_outer_accumulation(self):
        rng = np.random.default_rng(22)
        for b in list(range(1, 40)) + [100, 257]:
            n, m = (int(v) for v in rng.integers(1, 30, size=2))
            G, Z = rng.normal(size=(b, n)), rng.normal(size=(b, m))
            acc = np.zeros((n, m))
            for i in range(b):
                acc += np.outer(G[i], Z[i])
            assert (G[:, :, None] * Z[:, None, :]).sum(axis=0).tobytes() == acc.tobytes()

    def test_one_block_draw_equals_per_sample_draws(self):
        block = RngStream(5, 9).normal((7, 3, 11))
        one = RngStream(5, 9)
        for i in range(7):
            assert block[i].tobytes() == one.normal((3, 11)).tobytes()

    def test_row_dot_equals_np_dot(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n, b = (int(v) for v in rng.integers(1, 200, size=2))
            C = rng.normal(size=(b, n))
            X = (rng.random((b, n)) < 0.5).astype(float)
            got = np.matmul(C[:, None, :], X[:, :, None])[:, 0, 0]
            for i in range(b):
                assert got[i] == float(np.dot(C[i], X[i]))
                assert got[i] == float(np.dot(X[i], C[i]))


class TestGradientKernels:
    """A sample's gradient in a minibatch equals its gradient as a batch of one."""

    def setup_method(self):
        self.inst = GridShortestPath(3, 3)
        params = GenParams(m=4, deg=4, noise_halfwidth=0.5, t_train=12, t_val=1,
                           t_test=1, seed=4)
        ds = generate_splits(self.inst, params)[0]
        self.per_sample = build_targets(KNN(k=3, w=0.5), ds, self.inst).per_sample
        self.xbar = np.array([st.decision_mean() for st in self.per_sample])
        self.ref = np.array([st.ref_cost for st in self.per_sample])
        self.chat = np.random.default_rng(8).normal(size=self.xbar.shape)

    def test_spo_plus_rows(self):
        audit = OracleAudit()
        G = spo_plus_batch_gradient(self.xbar, self.ref, self.chat, self.inst, audit)
        assert audit.solve_count == len(self.chat)
        for st, chat, g in zip(self.per_sample, self.chat, G):
            assert spo_plus_gradient(st, chat, self.inst).tobytes() == g.tobytes()

    def test_pfyl_rows_draw_in_sample_order(self):
        audit = OracleAudit()
        G = pfyl_batch_gradient(self.xbar, self.chat, self.inst, 3, 0.8,
                                RngStream(2, 5), audit)
        assert audit.solve_count == 3 * len(self.chat)
        stream = RngStream(2, 5)
        for st, chat, g in zip(self.per_sample, self.chat, G):
            assert pfyl_gradient(st, chat, self.inst, 3, 0.8, stream).tobytes() == g.tobytes()
