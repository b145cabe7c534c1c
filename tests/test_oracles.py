import re

import numpy as np
import pytest

import bruteforce as bf
from dflkit.core import DimensionError
from dflkit.oracles import (BIG_CUTOFF, DenseTSP, GridShortestPath, OracleAudit,
                            SelectOne, UncertaintyParams, instance_from_descriptor,
                            is_feasible, robust_solve, solve, top_k_solve,
                            worst_case_cost)


def bits(x):
    return tuple(int(round(v)) for v in x)


GRID22 = GridShortestPath(2, 2)


class TestGridSolve:
    def test_two_path_example(self):
        assert bits(solve(GRID22, [1, 5, 1, 1])) == (1, 0, 0, 1)

    def test_tie_breaking_rule(self):
        # both paths cost 2; the tie goes to the one using variable 0
        assert bits(solve(GRID22, [1, 1, 1, 1])) == (1, 0, 0, 1)

    def test_matches_bruteforce_random(self):
        rng = np.random.default_rng(11)
        for v, h in [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (5, 5)]:
            inst = GridShortestPath(v, h)
            paths = bf.grid_paths(v, h)
            for _ in range(40):
                c = rng.normal(size=inst.n) * 10  # negatives allowed on the DAG
                assert bits(solve(inst, c)) == bf.best_decision(paths, c)

    def test_integer_tie_cases_match_bruteforce(self):
        rng = np.random.default_rng(5)
        inst = GridShortestPath(3, 3)
        paths = bf.grid_paths(3, 3)
        for _ in range(60):
            c = rng.integers(0, 3, size=inst.n).astype(float)  # many exact ties
            assert bits(solve(inst, c)) == bf.best_decision(paths, c)

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(2)
        inst = GridShortestPath(3, 4)
        for _ in range(20):
            c = rng.normal(size=inst.n)
            a = float(rng.uniform(0.1, 50))
            assert bits(solve(inst, c)) == bits(solve(inst, a * c))
        assert bits(solve(inst, np.ones(inst.n))) == bits(solve(inst, 7.0 * np.ones(inst.n)))

    def test_dimension_and_magnitude_errors(self):
        with pytest.raises(DimensionError):
            solve(GRID22, [1, 2, 3])
        with pytest.raises(ValueError, match=r"summed \|cost\| must stay below"):
            solve(GRID22, np.full(4, BIG_CUTOFF))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_costs_rejected(self, bad):
        for inst in (GRID22, DenseTSP(4), SelectOne(3)):
            c = np.ones(inst.n)
            c[1] = bad
            with pytest.raises(ValueError, match="non-finite"):
                solve(inst, c)


class TestGridTopK:
    def test_two_path_example(self):
        out = top_k_solve(GRID22, [1, 5, 1, 1], 2)
        assert [bits(x) for x in out] == [(1, 0, 0, 1), (0, 1, 1, 0)]
        costs = [float(np.dot([1, 5, 1, 1], x)) for x in out]
        assert costs == [2.0, 6.0]

    def test_truncation(self):
        assert len(top_k_solve(GRID22, [1, 5, 1, 1], 5)) == 2

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(23)
        inst = GridShortestPath(3, 3)
        paths = bf.grid_paths(3, 3)
        for _ in range(30):
            c = rng.normal(size=inst.n) * 4
            got = [bits(x) for x in top_k_solve(inst, c, 4)]
            assert got == bf.k_best_decisions(paths, c, 4)

    def test_prefix_property_and_distinct(self):
        rng = np.random.default_rng(29)
        inst = GridShortestPath(3, 4)
        c = rng.normal(size=inst.n)
        full = [bits(x) for x in top_k_solve(inst, c, 6)]
        assert len(set(full)) == len(full)
        for j in range(1, 6):
            assert [bits(x) for x in top_k_solve(inst, c, j)] == full[:j]
        vals = [bf.cost_of(c, d) for d in full]
        assert vals == sorted(vals)

    def test_first_equals_solve(self):
        rng = np.random.default_rng(31)
        inst = GridShortestPath(4, 3)
        for _ in range(10):
            c = rng.normal(size=inst.n)
            assert bits(top_k_solve(inst, c, 3)[0]) == bits(solve(inst, c))

    def test_tied_costs_match_bruteforce_ordering(self):
        # full degeneracy: every path ties; ordering must follow the tie rule
        for v, h in [(2, 2), (3, 3), (3, 4)]:
            inst = GridShortestPath(v, h)
            paths = bf.grid_paths(v, h)
            got = [bits(x) for x in top_k_solve(inst, np.ones(inst.n), len(paths))]
            assert got == bf.k_best_decisions(paths, np.ones(inst.n), len(paths))
        rng = np.random.default_rng(37)
        inst = GridShortestPath(3, 3)
        paths = bf.grid_paths(3, 3)
        for _ in range(60):
            c = rng.integers(0, 3, size=inst.n).astype(float)
            got = [bits(x) for x in top_k_solve(inst, c, 6)]
            assert got == bf.k_best_decisions(paths, c, 6)

    def test_audit_partition_count(self):
        # documented: 1 root solve plus one per spawned subproblem
        inst = GridShortestPath(2, 2)
        audit = OracleAudit()
        out = top_k_solve(inst, [1.0, 5.0, 1.0, 1.0], 2, audit)
        # root (1) + first path spawns len(path)=2 subproblems
        assert len(out) == 2
        assert audit.solve_count == 3


class TestTSP:
    def test_square_perimeter(self):
        inst = DenseTSP(4, coords=[(0, 0), (1, 0), (1, 1), (0, 1)])
        c = np.array(bf.euclidean_tsp_costs(inst.coords))
        x = solve(inst, c)
        assert bits(x) == (1, 0, 1, 1, 0, 1)
        assert float(np.dot(c, x)) == pytest.approx(4.0)
        # exhaustive check over all 3 canonical tours
        assert bits(x) == bf.best_decision(bf.tsp_tours(4), c)

    def test_matches_bruteforce_random(self):
        rng = np.random.default_rng(41)
        for nn in (5, 6, 7, 8):
            inst = DenseTSP(nn)
            tours = bf.tsp_tours(nn)
            for _ in range(15):
                c = rng.normal(size=inst.n) * 3
                assert bits(solve(inst, c)) == bf.best_decision(tours, c)

    def test_all_ones_tie(self):
        # every tour ties; lex rule picks the support-smallest tour, and
        # k-best lists every tour in the rule's order
        inst = DenseTSP(4)
        got = bits(solve(inst, np.ones(6)))
        assert got == bf.best_decision(bf.tsp_tours(4), np.ones(6))
        assert got == (1, 1, 0, 0, 1, 1)
        for nn in (4, 5):
            inst, tours = DenseTSP(nn), bf.tsp_tours(nn)
            got = [bits(x) for x in top_k_solve(inst, np.ones(inst.n), len(tours))]
            assert got == bf.k_best_decisions(tours, np.ones(inst.n), len(tours))

    def test_integer_ties_match_bruteforce(self):
        rng = np.random.default_rng(43)
        inst = DenseTSP(5)
        tours = bf.tsp_tours(5)
        for _ in range(40):
            c = rng.integers(0, 2, size=inst.n).astype(float)
            assert bits(solve(inst, c)) == bf.best_decision(tours, c)

    def test_top_k_matches_bruteforce(self):
        rng = np.random.default_rng(47)
        inst = DenseTSP(6)
        tours = bf.tsp_tours(6)
        for _ in range(10):
            c = rng.normal(size=inst.n)
            got = [bits(x) for x in top_k_solve(inst, c, 5)]
            assert got == bf.k_best_decisions(tours, c, 5)

    def test_top_k_results_are_independent_copies(self):
        inst = DenseTSP(6)
        c = np.random.default_rng(83).normal(size=inst.n)
        first = top_k_solve(inst, c, 3)
        expected = [x.copy() for x in first]
        for x in first:
            x[:] = 1.0 - x
        again = top_k_solve(inst, c, 3)
        assert [bits(x) for x in again] == [bits(x) for x in expected]
        assert all(x.flags.writeable for x in again)

    def test_size_caps(self):
        big = DenseTSP(17)
        with pytest.raises(ValueError):
            solve(big, np.ones(big.n))
        mid = DenseTSP(11)
        with pytest.raises(ValueError):
            top_k_solve(mid, np.ones(mid.n), 2)

    def test_descriptor_roundtrip(self):
        inst = DenseTSP(4, coords=[(0.125, 0.5), (1, 0), (0.333333, 1), (0, 1)])
        back = instance_from_descriptor(inst.descriptor())
        assert back.n_nodes == 4 and back.coords == inst.coords
        grid = instance_from_descriptor("grid:3x4")
        assert (grid.v, grid.h, grid.n) == (3, 4, 17)

    def test_select_descriptor_and_unknown_kinds(self):
        sel = instance_from_descriptor("select:7")
        assert isinstance(sel, SelectOne) and sel.n == 7 and sel.descriptor() == "select:7"
        for desc in ("ring:5", "grid5x5"):
            with pytest.raises(ValueError,
                               match=re.escape(f"unknown instance descriptor: '{desc}'")):
                instance_from_descriptor(desc)

    @pytest.mark.parametrize("desc", ["grid:5", "grid:5x5x5", "grid:ax5", "select:x",
                                      "tsp:x", "tsp:5,foo", "tsp:3,coords=0,0;1"])
    def test_malformed_descriptor(self, desc):
        kind = desc.split(":")[0]
        with pytest.raises(ValueError, match=re.escape(f"bad {kind} descriptor: '{desc}'")):
            instance_from_descriptor(desc)


class TestSelectOne:
    def test_solve_and_ties(self):
        inst = SelectOne(3)
        assert bits(solve(inst, [2.0, 1.0, 1.0])) == (0, 1, 0)  # tie -> low index
        assert [bits(x) for x in top_k_solve(inst, [3.0, 1.0, 2.0], 2)] == \
            [(0, 1, 0), (0, 0, 1)]

    def test_feasibility(self):
        inst = SelectOne(3)
        assert is_feasible(inst, [0, 1, 0])
        assert not is_feasible(inst, [1, 1, 0])
        assert not is_feasible(inst, [0, 0, 0])


class TestFeasibility:
    def test_grid_examples(self):
        assert is_feasible(GRID22, [1, 0, 0, 1])
        assert not is_feasible(GRID22, [1, 0, 0, 0])  # dangling
        assert not is_feasible(GRID22, [1, 1, 1, 1])  # branching

    def test_tsp_subtours_rejected(self):
        inst = DenseTSP(4)
        pair = bf.tsp_pair_indices(4)
        # a 3-cycle plus an isolated node
        x = np.zeros(6)
        x[pair[0, 1]] = 1
        x[pair[1, 2]] = 1
        x[pair[0, 2]] = 1
        assert not is_feasible(inst, x)
        # the 0/1 shadow of two disjoint 2-cycles: edges (0,1) and (2,3) only
        y = np.zeros(6)
        y[pair[0, 1]] = 1
        y[pair[2, 3]] = 1
        assert not is_feasible(inst, y)
        # two disjoint 3-cycles on six nodes
        inst6 = DenseTSP(6)
        pair6 = bf.tsp_pair_indices(6)
        z = np.zeros(inst6.n)
        for a, b in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
            z[pair6[a, b]] = 1
        assert not is_feasible(inst6, z)
        assert is_feasible(inst, solve(inst, np.arange(6.0)))

    def test_tsp_degree_other_than_two_rejected(self):
        # four edges on four nodes, but node 0 has three and node 3 one
        inst = DenseTSP(4)
        x = np.zeros(6)
        pair = bf.tsp_pair_indices(4)
        for a, b in [(0, 1), (0, 2), (0, 3), (1, 2)]:
            x[pair[a, b]] = 1
        assert not is_feasible(inst, x)

    @pytest.mark.parametrize("bad", [0.5, 2.0, np.nan])
    def test_non_binary_entries_rejected(self, bad):
        for inst in (GRID22, DenseTSP(4), SelectOne(3)):
            x = solve(inst, np.arange(float(inst.n)))
            assert is_feasible(inst, x)
            for i in range(inst.n):
                y = x.copy()
                y[i] = bad
                assert not is_feasible(inst, y)

    def test_negative_zero_counts_as_zero(self):
        for inst in (GRID22, DenseTSP(4), SelectOne(3)):
            x = solve(inst, np.arange(float(inst.n)))
            assert is_feasible(inst, np.where(x == 0.0, -0.0, x))

    def test_all_solutions_feasible(self):
        rng = np.random.default_rng(53)
        for inst in (GridShortestPath(3, 3), DenseTSP(5), SelectOne(4)):
            for _ in range(5):
                c = rng.normal(size=inst.n)
                assert is_feasible(inst, solve(inst, c))
                for x in top_k_solve(inst, c, 3):
                    assert is_feasible(inst, x)


class TestWorstCase:
    def test_hand_example(self):
        u = UncertaintyParams(rho=0.5, gamma=1.0)
        assert worst_case_cost(GRID22, [1, 5, 1, 1], [1, 0, 0, 1], u) == 3.0
        assert worst_case_cost(GRID22, [1, 5, 1, 1], [0, 1, 1, 0], u) == 9.0

    def test_zero_rho(self):
        u = UncertaintyParams(rho=0.0, gamma=5.0)
        assert worst_case_cost(GRID22, [1, 5, 1, 1], [1, 0, 0, 1], u) == 2.0

    def test_non_binding_budget(self):
        # dyadic costs keep the scaling identity exact
        c = np.array([2.0, 8.0, 4.0, 0.5])
        u = UncertaintyParams(rho=0.5, gamma=4 * 0.5)
        x = np.array([1.0, 0.0, 0.0, 1.0])
        assert worst_case_cost(GRID22, c, x, u) == 1.5 * float(np.dot(c, x))

    def test_against_independent_lp(self):
        from scipy.optimize import linprog

        rng = np.random.default_rng(59)
        inst = GridShortestPath(2, 3)
        paths = bf.grid_paths(2, 3)
        for _ in range(25):
            c = rng.normal(size=inst.n) * 5
            x = np.array(paths[rng.integers(len(paths))], dtype=float)
            rho = float(rng.uniform(0, 1))
            gamma = float(rng.uniform(0, rho * inst.n))
            u = UncertaintyParams(rho=rho, gamma=gamma)
            # max sum |c_i| x_i zeta_i  s.t.  0 <= zeta <= rho, sum zeta <= gamma
            obj = -(np.abs(c) * x)
            res = linprog(obj, A_ub=np.ones((1, inst.n)), b_ub=[gamma],
                          bounds=[(0, rho)] * inst.n, method="highs")
            expected = float(np.dot(c, x)) - res.fun
            assert worst_case_cost(inst, c, x, u) == pytest.approx(expected, rel=1e-9)

    def test_infeasible_decision_rejected(self):
        with pytest.raises(ValueError):
            worst_case_cost(GRID22, [1, 1, 1, 1], [1, 1, 0, 0],
                            UncertaintyParams(0.5, 1.0))


class TestRobustSolve:
    @pytest.mark.parametrize("rho, gamma, message", [
        (np.nan, 1.0, "uncertainty parameter rho cannot be nan"),
        (0.5, np.nan, "uncertainty parameter gamma cannot be nan"),
        (np.inf, 1.0, "uncertainty parameter rho cannot be inf"),
        (-np.inf, 1.0, "uncertainty parameter rho cannot be -inf"),
        (-0.5, 1.0, "uncertainty parameters must be non-negative, got rho=-0.5"),
        (0.5, -1.0, "uncertainty parameters must be non-negative, got gamma=-1.0"),
    ])
    def test_hostile_params_rejected(self, rho, gamma, message):
        # NaN fails every comparison, so an unchecked NaN gamma reads as no deviation
        with pytest.raises(ValueError, match=f"^{message}$"):
            UncertaintyParams(rho, gamma)

    def test_unbounded_budget_allowed(self):
        u = UncertaintyParams(0.5, np.inf)
        assert bits(robust_solve(GRID22, [1, 5, 1, 1], u)) == \
            bits(robust_solve(GRID22, [1, 5, 1, 1], UncertaintyParams(0.5, 4.0)))

    def test_grid_example(self):
        u = UncertaintyParams(rho=0.5, gamma=1.0)
        assert bits(robust_solve(GRID22, [1, 5, 1, 1], u)) == (1, 0, 0, 1)

    def test_zero_rho_equals_nominal(self):
        rng = np.random.default_rng(61)
        inst = GridShortestPath(3, 3)
        for _ in range(5):
            c = rng.normal(size=inst.n)
            u = UncertaintyParams(rho=0.0, gamma=2.0)
            assert bits(robust_solve(inst, c, u)) == bits(solve(inst, c))

    def test_nonbinding_budget_equals_nominal_for_positive_costs(self):
        rng = np.random.default_rng(67)
        inst = GridShortestPath(3, 3)
        for _ in range(5):
            c = rng.uniform(0.5, 4.0, size=inst.n)
            u = UncertaintyParams(rho=0.5, gamma=0.5 * inst.n)
            assert bits(robust_solve(inst, c, u)) == bits(solve(inst, c))

    @pytest.mark.parametrize("rho", [0.0, 0.25, 0.5, 1.0])
    def test_brute_equivalence_grid(self, rho):
        rng = np.random.default_rng(71)
        for v, h in [(2, 2), (2, 3), (3, 3)]:
            inst = GridShortestPath(v, h)
            paths = [np.array(p, dtype=float) for p in bf.grid_paths(v, h)]
            for gamma in [0.0, inst.n / 8, inst.n / 4, rho * inst.n]:
                u = UncertaintyParams(rho=rho, gamma=gamma)
                for _ in range(6):
                    c = rng.normal(size=inst.n) * 3
                    got = robust_solve(inst, c, u)
                    best = min(worst_case_cost(inst, c, p, u) for p in paths)
                    assert worst_case_cost(inst, c, got, u) == best

    @pytest.mark.parametrize("nn", [5, 6, 7])
    def test_brute_equivalence_tsp(self, nn):
        rng = np.random.default_rng(73)
        inst = DenseTSP(nn)
        tours = [np.array(tr, dtype=float) for tr in bf.tsp_tours(nn)]
        for rho, gamma in [(0.25, inst.n / 8), (0.5, inst.n / 4), (1.0, inst.n / 8)]:
            u = UncertaintyParams(rho=rho, gamma=gamma)
            for _ in range(3):
                c = rng.normal(size=inst.n) * 2
                got = robust_solve(inst, c, u)
                best = min(worst_case_cost(inst, c, tr, u) for tr in tours)
                assert worst_case_cost(inst, c, got, u) == best

    def test_fractional_budget(self):
        rng = np.random.default_rng(79)
        inst = GridShortestPath(2, 3)
        paths = [np.array(p, dtype=float) for p in bf.grid_paths(2, 3)]
        for _ in range(20):
            c = rng.normal(size=inst.n) * 4
            u = UncertaintyParams(rho=0.4, gamma=1.3)  # gamma/rho = 3.25
            got = robust_solve(inst, c, u)
            best = min(worst_case_cost(inst, c, p, u) for p in paths)
            assert worst_case_cost(inst, c, got, u) == best


class TestBatchRefused:
    """``solve`` takes a ``(B, n)`` batch; the oracles that take one cost
    vector refuse one as a shape error, before any other check."""

    @pytest.mark.parametrize("call", ["top_k_solve", "robust_solve", "worst_case_cost"])
    @pytest.mark.parametrize("inst", [GridShortestPath(3, 3), DenseTSP(5), SelectOne(4)],
                             ids=["grid3x3", "tsp5", "select4"])
    def test_batch_is_a_dimension_error(self, inst, call):
        C = np.ones((2, inst.n))
        u = UncertaintyParams(rho=0.5, gamma=1.0)
        x = solve(inst, C[0])
        calls = {"top_k_solve": lambda: top_k_solve(inst, C, 2),
                 "robust_solve": lambda: robust_solve(inst, C, u),
                 "worst_case_cost": lambda: worst_case_cost(inst, C, x, u)}
        message = f"cost vector has shape (2, {inst.n}), instance expects length {inst.n}"
        with pytest.raises(DimensionError, match="^" + re.escape(message) + "$"):
            calls[call]()


class TestAudit:
    def test_solve_increments_once(self):
        audit = OracleAudit()
        solve(GRID22, [1, 5, 1, 1], audit)
        assert audit.solve_count == 1
        solve(GRID22, [1, 5, 1, 1], audit)
        assert audit.solve_count == 2

    def test_robust_documented_count(self):
        audit = OracleAudit()
        c = np.array([1.0, 5.0, 1.0, 1.0])
        u = UncertaintyParams(rho=0.5, gamma=1.0)
        robust_solve(GRID22, c, u, audit)
        thresholds = {0.0} | {0.5 * abs(x) for x in c}
        assert audit.solve_count == len(thresholds)

    def test_rho_zero_single_solve(self):
        audit = OracleAudit()
        robust_solve(GRID22, [1, 2, 3, 4], UncertaintyParams(0.0, 1.0), audit)
        assert audit.solve_count == 1

    def test_tsp_topk_counts_one(self):
        inst = DenseTSP(5)
        audit = OracleAudit()
        top_k_solve(inst, np.arange(float(inst.n)), 3, audit)
        assert audit.solve_count == 1


class TestTieDeterminism:
    def test_repeated_and_fresh_instances_agree(self):
        c = np.ones(GridShortestPath(3, 3).n)
        results = {bits(solve(GridShortestPath(3, 3), c)) for _ in range(5)}
        assert len(results) == 1
        assert results.pop() == bf.best_decision(bf.grid_paths(3, 3), c)

    def test_all_ones_grid_lex(self):
        inst = GridShortestPath(3, 3)
        got = bits(solve(inst, np.ones(inst.n)))
        # lex-best support walks the top row then the last column
        expected = bf.best_decision(bf.grid_paths(3, 3), np.ones(inst.n))
        assert got == expected


def dyadic_near_ties(rng, n):
    """Integer costs in {0, 1, 2} with two coefficients moved by +-2**-40.
    Every sum of these is exact in float64, so the solvers' sums are the
    exact costs and any tie they see is a true tie."""
    c = rng.integers(0, 3, size=n).astype(float)
    for i in rng.choice(n, size=2, replace=False):
        c[i] += rng.choice([-1.0, 1.0]) * 2.0 ** -40
    return c


class TestExactNearTies:
    IDS = ["grid3x4", "tsp6", "select5"]
    INSTANCES = [GridShortestPath(3, 4), DenseTSP(6), SelectOne(5)]

    @pytest.mark.parametrize("inst,decisions,kmax", [
        (INSTANCES[0], bf.grid_paths(3, 4), 6),
        (INSTANCES[1], bf.tsp_tours(6), 8),
        (INSTANCES[2], bf.select_one_decisions(5), 5),
    ], ids=IDS)
    def test_match_exact_bruteforce(self, inst, decisions, kmax):
        rng = np.random.default_rng(97)
        # every worst case here is a sum of dyadic terms, exact in float64
        u = UncertaintyParams(0.5, inst.n / 4)
        for trial in range(300):
            c = dyadic_near_ties(rng, inst.n)
            exact = bf.exact_costs(c)
            assert bits(solve(inst, c)) == bf.best_decision(decisions, exact)
            k = 1 + trial % kmax
            got = [bits(x) for x in top_k_solve(inst, c, k)]
            assert got == bf.k_best_decisions(decisions, exact, k)
            assert bits(robust_solve(inst, c, u)) == bf.brute_robust_best(
                decisions, c, u.rho, u.gamma,
                wcc=lambda d: worst_case_cost(inst, c, np.array(d, dtype=float), u))

    LAW_IDS = IDS + ["grid5x5", "tsp8"]
    LAW_INSTANCES = INSTANCES + [GridShortestPath(5, 5), DenseTSP(8)]

    # top-1 equals solve wherever the float sums are exact, which dyadic and
    # integer rows guarantee
    @pytest.mark.parametrize("inst,rows", [
        (inst, rows) for inst in LAW_INSTANCES for rows in ("dyadic", "integer")],
        ids=[name + suffix for name in LAW_IDS for suffix in ("", "-integer")])
    def test_consistency_laws(self, inst, rows):
        rng = np.random.default_rng(101)
        u = UncertaintyParams(rho=0.0, gamma=1.0)
        for _ in range(300):
            if rows == "dyadic":
                c = dyadic_near_ties(rng, inst.n)
            else:
                c = rng.integers(0, 3, size=inst.n).astype(float)
            x = bits(solve(inst, c))
            assert bits(top_k_solve(inst, c, 1)[0]) == x
            assert bits(robust_solve(inst, c, u)) == x


class TestGridTieRule5x5:
    """The grid's exact tie rule on all 70 paths of a 5x5 grid."""

    INST = GridShortestPath(5, 5)
    PATHS = bf.grid_paths(5, 5)

    @pytest.mark.parametrize("kind", ["integer", "dyadic", "constant"])
    def test_batch_and_top_k_match_exact_bruteforce(self, kind):
        rng = np.random.default_rng(103)
        n = self.INST.n
        if kind == "integer":
            C = rng.integers(0, 3, size=(40, n)).astype(float)
        elif kind == "dyadic":
            C = np.array([dyadic_near_ties(rng, n) for _ in range(40)])
        else:
            C = np.repeat([[0.0], [1.0], [2.0], [-0.75]], n, axis=1)
        X = solve(self.INST, C)
        for i, (c, x) in enumerate(zip(C, X)):
            exact = bf.exact_costs(c)
            assert bits(x) == bf.best_decision(self.PATHS, exact)
            k = len(self.PATHS) if i % 4 == 0 else 1 + (7 * i) % len(self.PATHS)
            got = [bits(y) for y in top_k_solve(self.INST, c, k)]
            assert got == bf.k_best_decisions(self.PATHS, exact, k)

    def test_constant_costs_give_every_path_in_lex_order(self):
        got = [bits(y) for y in top_k_solve(self.INST, np.full(self.INST.n, 1.5), 70)]
        assert got == sorted(self.PATHS, key=bf.support_of)
