"""Independent enumeration oracles used to verify the production solvers.

Everything here is re-derived from the problem definitions (variable
orderings included) without importing any solver internals, so agreement is
meaningful.  The tie rule is the documented one: among equal-cost decisions
prefer the lexicographically smallest sorted tuple of used variable indices.
"""

import functools
import itertools
import math
from fractions import Fraction


def grid_h_index(v, h, r, c):
    return r * (h - 1) + c


def grid_v_index(v, h, r, c):
    return v * (h - 1) + r * h + c


def grid_paths(v, h):
    """All NW->SE monotone paths as 0/1 tuples over the documented ordering."""
    n = v * (h - 1) + h * (v - 1)
    paths = []

    def walk(r, c, used):
        if (r, c) == (v - 1, h - 1):
            bits = [0] * n
            for e in used:
                bits[e] = 1
            paths.append(tuple(bits))
            return
        if c + 1 < h:
            walk(r, c + 1, used + [grid_h_index(v, h, r, c)])
        if r + 1 < v:
            walk(r + 1, c, used + [grid_v_index(v, h, r, c)])

    walk(0, 0, [])
    return paths


def tsp_pair_indices(n_nodes):
    pairs = {}
    k = 0
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            pairs[(i, j)] = k
            k += 1
    return pairs


def tsp_tours(n_nodes):
    """All undirected Hamiltonian cycles as 0/1 tuples (each tour once)."""
    pairs = tsp_pair_indices(n_nodes)
    n = n_nodes * (n_nodes - 1) // 2
    tours = []
    for perm in itertools.permutations(range(1, n_nodes)):
        if perm[0] > perm[-1]:
            continue
        order = (0,) + perm
        bits = [0] * n
        for k in range(n_nodes):
            a, b = order[k], order[(k + 1) % n_nodes]
            bits[pairs[(min(a, b), max(a, b))]] = 1
        tours.append(tuple(bits))
    return tours


def held_karp(n_nodes, costs):
    """Held-Karp in plain Python floats, as a 0/1 tuple.  Each path is summed
    from node 0 in visiting order, one edge at a time, and so is the closing
    edge; an exact float tie between two ways into a state, or between two
    closing edges, goes to the lex-smaller sorted support."""
    pairs = tsp_pair_indices(n_nodes)
    costs = [float(c) for c in costs]

    def extend(state, a, b):
        cost, support = state
        e = pairs[(min(a, b), max(a, b))]
        return cost + costs[e], tuple(sorted(support + (e,)))

    best = {(1 | 1 << j, j): extend((0.0, ()), 0, j) for j in range(1, n_nodes)}
    for mask in sorted(range(1, 1 << n_nodes, 2), key=lambda m: bin(m).count("1")):
        for nxt in range(1, n_nodes):
            prev = mask ^ (1 << nxt)
            if mask >> nxt & 1 and prev != 1:   # states {0, nxt} are seeded above
                best[mask, nxt] = min(extend(best[prev, last], last, nxt)
                                      for last in range(1, n_nodes) if prev >> last & 1)
    full = (1 << n_nodes) - 1
    _, support = min(extend(best[full, last], last, 0) for last in range(1, n_nodes))
    return tuple(int(e in support) for e in range(len(costs)))


def select_one_decisions(n):
    out = []
    for i in range(n):
        bits = [0] * n
        bits[i] = 1
        out.append(tuple(bits))
    return out


def cost_of(costs, bits):
    return sum(c for c, b in zip(costs, bits) if b)


def exact_costs(costs):
    """Costs as exact rationals, so ``cost_of`` sums them without rounding."""
    return [Fraction(float(c)) for c in costs]


@functools.lru_cache(maxsize=None)
def support_of(bits):
    """Used indices of a 0/1 tuple.  Memoised: callers rank the same fixed
    decision lists over and over, so each support is computed once."""
    return tuple(i for i, b in enumerate(bits) if b)


def best_decision(decisions, costs):
    """(cost, lex-support) minimum over an explicit decision list."""
    return min(decisions, key=lambda d: (cost_of(costs, d), support_of(d)))


def k_best_decisions(decisions, costs, k):
    ranked = sorted(decisions, key=lambda d: (cost_of(costs, d), support_of(d)))
    return ranked[:k]


def brute_worst_case(costs, bits, rho, gamma):
    """Fractional-knapsack worst case written independently: LP over the
    deviation simplex solved by sorting, plus the trivial rho/gamma gates."""
    base = cost_of(costs, bits)
    if rho == 0 or gamma == 0:
        return base
    mags = sorted((abs(costs[i]) for i in support_of(bits)), reverse=True)
    remaining = gamma
    extra = 0.0
    for mag in mags:
        take = min(rho, remaining)
        if take <= 0:
            break
        extra += take * mag
        remaining -= take
    return base + extra


def brute_robust_best(decisions, costs, rho, gamma, wcc=None):
    """argmin of worst-case cost over an explicit decision list.

    ``wcc`` lets the caller supply the production worst-case function when a
    test wants value equality through an identical code path.
    """
    fn = wcc if wcc is not None else (lambda d: brute_worst_case(costs, d, rho, gamma))
    return min(decisions, key=lambda d: (fn(d), support_of(d)))


def feasible_grid_path(v, h, bits):
    return tuple(int(b) for b in bits) in set(grid_paths(v, h))


def feasible_tour(n_nodes, bits):
    return tuple(int(b) for b in bits) in set(tsp_tours(n_nodes))


def euclidean_tsp_costs(coords):
    n_nodes = len(coords)
    pairs = sorted(tsp_pair_indices(n_nodes).items(), key=lambda kv: kv[1])
    return [math.dist(coords[i], coords[j]) for (i, j), _ in pairs]
