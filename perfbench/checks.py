"""Brute-force correctness checks for benchmark outputs.

Every check enumerates the instance's whole feasible set (70 paths for a 5x5
grid, 2,520 tours for an 8-node TSP) from the problem definition alone, with
no solver code, and compares what dflkit returned against it.  A check
returns a list of failure messages; an empty list means the output is right.

Objective values here come from matrix products, which sum in another order
than the oracles' dynamic programs, so values are compared within
``REL_TOL * (1 + |value|)``.  With continuous random costs, decisions whose
objectives differ by less than that are treated as tied.
"""

from __future__ import annotations

import itertools

import numpy as np

REL_TOL = 1e-9


def _tol(values) -> np.ndarray:
    return REL_TOL * (1.0 + np.abs(values))


def grid_paths(v: int, h: int) -> np.ndarray:
    """All source-to-sink monotone paths of a ``v x h`` grid as 0/1 rows.

    Edge order as documented by ``GridShortestPath``: horizontal edges
    row-major (``r(h-1) + c``), then vertical edges row-major
    (``v(h-1) + r h + c``)."""
    n = v * (h - 1) + h * (v - 1)
    moves = (v - 1) + (h - 1)
    rows = []
    for downs in itertools.combinations(range(moves), v - 1):
        bits = np.zeros(n)
        r = c = 0
        for step in range(moves):
            if step in downs:
                bits[v * (h - 1) + r * h + c] = 1.0
                r += 1
            else:
                bits[r * (h - 1) + c] = 1.0
                c += 1
        rows.append(bits)
    return np.array(rows)


def tsp_tours(n_nodes: int) -> np.ndarray:
    """All undirected Hamiltonian cycles as 0/1 rows over the pairs
    ``(i, j)``, ``i < j``, in lexicographic order; each tour appears once."""
    index = {}
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            index[(i, j)] = len(index)
    rows = []
    for perm in itertools.permutations(range(1, n_nodes)):
        if perm[0] > perm[-1]:
            continue
        order = (0,) + perm
        bits = np.zeros(len(index))
        for a, b in zip(order, order[1:] + (0,)):
            bits[index[(min(a, b), max(a, b))]] = 1.0
        rows.append(bits)
    return np.array(rows)


def feasible_set(inst) -> np.ndarray:
    """Every feasible decision of a grid or TSP instance, one per row."""
    if inst.kind == "grid":
        return grid_paths(inst.v, inst.h)
    if inst.kind == "tsp":
        return tsp_tours(inst.n_nodes)
    raise ValueError(f"no enumeration for instance kind {inst.kind!r}")


def _not_feasible(D: np.ndarray, decisions: np.ndarray) -> int:
    members = {row.tobytes() for row in D}
    return sum(np.ascontiguousarray(x, dtype=np.float64).tobytes() not in members
               for x in decisions)


def check_optimal(D, costs, decisions, label) -> list:
    """Each ``decisions[i]`` is feasible and minimises ``costs[i] @ x``."""
    costs = np.asarray(costs, dtype=np.float64)
    decisions = np.asarray(decisions, dtype=np.float64)
    out = []
    bad = _not_feasible(D, decisions)
    if bad:
        out.append(f"{label}: {bad} decisions are not feasible")
    best = (costs @ D.T).min(axis=1)
    got = np.einsum("ij,ij->i", costs, decisions)
    worse = int(np.sum(got > best + _tol(best)))
    if worse:
        out.append(f"{label}: {worse} of {len(got)} decisions are not optimal")
    return out


def check_top_k(D, cost, decisions, k, label) -> list:
    """``decisions`` are ``min(k, |D|)`` distinct feasible decisions whose
    objectives equal the brute-force k smallest, in order."""
    decisions = np.asarray(decisions, dtype=np.float64)
    want = np.sort(D @ cost)[:k]
    out = []
    if len(decisions) != len(want):
        return [f"{label}: {len(decisions)} decisions, expected {len(want)}"]
    if _not_feasible(D, decisions):
        out.append(f"{label}: infeasible decision in k-best list")
    if len({x.tobytes() for x in decisions}) != len(decisions):
        out.append(f"{label}: repeated decision in k-best list")
    got = decisions @ cost
    if np.any(np.abs(got - want) > _tol(want)):
        out.append(f"{label}: k-best objectives differ from enumeration")
    return out


def worst_case_costs(D, cost, rho, gamma) -> np.ndarray:
    """Worst-case objective of every row of ``D`` under the budget set:
    ``c x`` plus the adversary's fractional-knapsack deviation, taking
    ``min(rho, remaining budget)`` of each used magnitude, largest first."""
    nominal = D @ cost
    if rho <= 0.0 or gamma <= 0.0:
        return nominal
    mags = -np.sort(-(D * np.abs(cost)), axis=1)
    j = np.arange(D.shape[1])
    take = np.minimum(rho, np.maximum(gamma - j * rho, 0.0))
    return nominal + mags @ take


def check_robust(D, cost, decision, rho, gamma, label) -> list:
    """``decision`` is feasible and minimises the worst-case objective."""
    decision = np.asarray(decision, dtype=np.float64)
    if _not_feasible(D, decision[None, :]):
        return [f"{label}: robust decision is not feasible"]
    best = worst_case_costs(D, cost, rho, gamma).min()
    got = worst_case_costs(decision[None, :], cost, rho, gamma)[0]
    if got > best + _tol(best):
        return [f"{label}: robust decision is not worst-case optimal"]
    return []


def check_regrets(D, pred, costs, regrets, label) -> list:
    """Each reported regret equals ``c x*(pred) - min_x c x`` for some
    decision ``x*(pred)`` that minimises the predicted objective (several
    qualify only under a near tie)."""
    pred = np.asarray(pred, dtype=np.float64)
    costs = np.asarray(costs, dtype=np.float64)
    regrets = np.asarray(regrets, dtype=np.float64)
    if regrets.shape != (costs.shape[0],):
        return [f"{label}: {regrets.shape} regrets for {costs.shape[0]} samples"]
    p = pred @ D.T
    p_min = p.min(axis=1, keepdims=True)
    argmins = p <= p_min + _tol(p_min)
    realized = costs @ D.T
    opt = realized.min(axis=1, keepdims=True)
    match = np.abs(realized - opt - regrets[:, None]) <= _tol(opt)
    bad = int(np.sum(~np.any(argmins & match, axis=1)))
    if bad:
        return [f"{label}: {bad} of {len(regrets)} regrets disagree with enumeration"]
    return []


def check_equal(expected, got, label) -> list:
    """Repeats of one operation must reproduce the first one's digests."""
    if expected == got:
        return []
    diff = sorted(k for k in set(expected) | set(got) if expected.get(k) != got.get(k))
    return [f"{label}: digests differ from the first repeat ({', '.join(diff)})"]
