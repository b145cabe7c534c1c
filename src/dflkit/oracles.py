"""Exact solvers behind a single oracle interface.

Three instance kinds are supported:

* :class:`GridShortestPath` -- directed source-to-sink paths on a ``v x h``
  grid (moves go right or down only).  Variables are ordered all horizontal
  edges row-major first, then all vertical edges row-major.
* :class:`DenseTSP` -- Hamiltonian cycles on a complete graph.  Variables are
  the unordered node pairs ``(i, j)`` with ``i < j`` in lexicographic order.
* :class:`SelectOne` -- pick exactly one of ``n`` options (unit vectors);
  handy for tiny enumerable test problems.

Tie rule (applies everywhere, documented once): among equal-cost feasible
decisions, return the one whose sorted list of used variable indices is
lexicographically smallest, i.e. the decision that prefers low-numbered
variables.  All feasible decisions of one instance use the same number of
variables, so this order is total.

Excluded edges are modelled with a large cost sentinel rather than true
infinity so the dynamic programs stay in ordinary float arithmetic; inputs
large enough to be confused with the sentinel are rejected up front.
"""

from __future__ import annotations

import heapq
import itertools
import math
import threading
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import DimensionError

BIG = 1e12          # sentinel cost for excluded edges
BIG_CUTOFF = 1e11   # any objective at or above this marks an infeasible branch
TIE_REL_TOL = 1e-9  # relative slack used when collecting tied-optimal edges

INF = math.inf


class OracleAudit:
    """Thread-safe counter of nominal-solve invocations.

    Incremented exactly once per nominal solve, including the nominal solves
    performed inside ``robust_solve`` and ``top_k_solve``.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._count = 0

    @property
    def solve_count(self) -> int:
        return self._count

    def add(self, k: int = 1) -> None:
        with self._lock:
            self._count += k


@dataclass(frozen=True)
class UncertaintyParams:
    """Budget uncertainty set parameters.

    ``rho`` bounds each coefficient's relative deviation and ``gamma`` bounds
    the total relative deviation, i.e. the adversary picks
    ``c * (1 + zeta)`` with ``|zeta_i| <= rho`` and ``sum |zeta_i| <= gamma``.
    """

    rho: float
    gamma: float

    def __post_init__(self):
        if self.rho < 0 or self.gamma < 0:
            raise ValueError("uncertainty parameters must be non-negative")


def _check_costs(inst, costs) -> np.ndarray:
    c = np.asarray(costs, dtype=np.float64)
    if c.ndim != 1 or c.shape[0] != inst.n:
        raise DimensionError(
            f"cost vector has shape {c.shape}, instance expects length {inst.n}")
    # one reduction serves both checks: NaN and inf propagate through max
    biggest = float(np.abs(c).max(initial=0.0))
    if not math.isfinite(biggest):
        raise ValueError("cost vector contains non-finite entries")
    if biggest * (inst.n + 1) >= BIG_CUTOFF:
        raise ValueError(
            "cost magnitudes too large for sentinel arithmetic "
            f"(need max|c| * (n+1) < {BIG_CUTOFF:g})")
    return c


def _check_decision(inst, x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] != inst.n:
        raise DimensionError(
            f"decision has shape {arr.shape}, instance expects length {inst.n}")
    return arr


def _support(bits: np.ndarray) -> Tuple[int, ...]:
    return tuple(np.flatnonzero(bits).tolist())


def _binary_support(x: np.ndarray) -> Optional[Tuple[int, ...]]:
    """Used indices of a 0/1 vector, or ``None`` when any entry is neither
    0 nor 1 (``-0.0`` counts as 0; ``NaN`` is rejected)."""
    used = []
    for i, v in enumerate(x.tolist()):
        if v == 1.0:
            used.append(i)
        elif v != 0.0:
            return None
    return tuple(used)


# ---------------------------------------------------------------------------
# Grid shortest path
# ---------------------------------------------------------------------------

class GridShortestPath:
    """NW-to-SE shortest path on a ``v x h`` grid solved by topological DP.

    ``n = v(h-1) + h(v-1)`` edges; horizontal edge (r, c)->(r, c+1) has index
    ``r(h-1) + c`` and vertical edge (r, c)->(r+1, c) has index
    ``v(h-1) + r h + c``.  Negative costs are fine (the graph is a DAG).
    """

    kind = "grid"

    def __init__(self, v_rows: int, h_cols: int):
        if v_rows < 2 or h_cols < 2:
            raise ValueError("grid needs at least 2 rows and 2 columns")
        self.v = int(v_rows)
        self.h = int(h_cols)
        self.n = self.v * (self.h - 1) + self.h * (self.v - 1)
        self._n_h = self.v * (self.h - 1)
        # incoming[(r, c)] = list of (edge_index, prev_r, prev_c)
        incoming = {}
        for r in range(self.v):
            for c in range(self.h):
                entries = []
                if c > 0:
                    entries.append((self._h_idx(r, c - 1), r, c - 1))
                if r > 0:
                    entries.append((self._v_idx(r - 1, c), r - 1, c))
                incoming[(r, c)] = entries
        self._incoming = incoming

    def _h_idx(self, r: int, c: int) -> int:
        return r * (self.h - 1) + c

    def _v_idx(self, r: int, c: int) -> int:
        return self._n_h + r * self.h + c

    def edge_endpoints(self, idx: int) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        if idx < self._n_h:
            r, c = divmod(idx, self.h - 1)
            return (r, c), (r, c + 1)
        k = idx - self._n_h
        r, c = divmod(k, self.h)
        return (r, c), (r + 1, c)

    def descriptor(self) -> str:
        return f"grid:{self.v}x{self.h}"

    # -- nominal solve -----------------------------------------------------

    def solve_nominal(self, costs: np.ndarray) -> np.ndarray:
        # plain floats: the DP does the same IEEE arithmetic without numpy
        # scalar overhead on every element access
        res = self._segment_solve(costs.tolist(), None, (0, 0))
        if res is None:
            raise RuntimeError("grid instance unexpectedly infeasible")
        _, edges = res
        bits = np.zeros(self.n)
        bits[list(edges)] = 1.0
        return bits

    def _segment_solve(self, costs, excluded, start):
        """Min-cost path start->sink honouring exclusions and the tie rule.

        Returns ``(cost, edge_index_list)`` or ``None`` when no path below
        the sentinel cutoff exists.  The fast path is a plain forward DP with
        backtracking; exact cost ties during backtracking trigger the
        tie-resolution pass in :meth:`_lex_best_path`.
        """
        r0, c0 = start
        r1, c1 = self.v - 1, self.h - 1
        dist = self._forward_dist(costs, excluded, start)
        total = dist[r1 - r0][c1 - c0]
        if total >= BIG_CUTOFF:
            return None
        # Backtrack; bail to the exact tie pass on the first tied choice.
        edges = []
        r, c = r1, c1
        tied = False
        while (r, c) != (r0, c0):
            here = dist[r - r0][c - c0]
            cands = []
            for idx, pr, pc in self._incoming[(r, c)]:
                if pr < r0 or pc < c0:
                    continue
                w = BIG if (excluded is not None and idx in excluded) else costs[idx]
                if dist[pr - r0][pc - c0] + w == here:
                    cands.append((idx, pr, pc))
            if len(cands) != 1:
                tied = True
                break
            idx, r, c = cands[0]
            edges.append(idx)
        if not tied:
            edges.reverse()
            return total, edges
        return total, self._lex_best_path(costs, excluded, start, dist, total)

    def _forward_dist(self, costs, excluded, start):
        r0, c0 = start
        rows = self.v - r0
        cols = self.h - c0
        dist = [[INF] * cols for _ in range(rows)]
        dist[0][0] = 0.0
        for r in range(rows):
            row = dist[r]
            for c in range(cols):
                if r == 0 and c == 0:
                    continue
                best = INF
                if c > 0:
                    idx = self._h_idx(r0 + r, c0 + c - 1)
                    w = BIG if (excluded is not None and idx in excluded) else costs[idx]
                    best = row[c - 1] + w
                if r > 0:
                    idx = self._v_idx(r0 + r - 1, c0 + c)
                    w = BIG if (excluded is not None and idx in excluded) else costs[idx]
                    cand = dist[r - 1][c] + w
                    if cand < best:
                        best = cand
                row[c] = best
        return dist

    def _lex_best_path(self, costs, excluded, start, dist_fwd, total):
        """Resolve exact cost ties: keep only edges on optimal paths, then
        maximize ``sum 2**(n-1-i)`` over the surviving paths with exact
        integer arithmetic, which selects the documented lex-best support."""
        r0, c0 = start
        rows = self.v - r0
        cols = self.h - c0
        dist_bwd = [[INF] * cols for _ in range(rows)]
        dist_bwd[rows - 1][cols - 1] = 0.0
        for r in range(rows - 1, -1, -1):
            for c in range(cols - 1, -1, -1):
                if r == rows - 1 and c == cols - 1:
                    continue
                best = INF
                if c + 1 < cols:
                    idx = self._h_idx(r0 + r, c0 + c)
                    w = BIG if (excluded is not None and idx in excluded) else costs[idx]
                    best = dist_bwd[r][c + 1] + w
                if r + 1 < rows:
                    idx = self._v_idx(r0 + r, c0 + c)
                    w = BIG if (excluded is not None and idx in excluded) else costs[idx]
                    cand = dist_bwd[r + 1][c] + w
                    if cand < best:
                        best = cand
                dist_bwd[r][c] = best
        tol = TIE_REL_TOL * (1.0 + abs(total))
        nbits = self.n
        weight = [[-1] * cols for _ in range(rows)]  # -1 marks unreachable
        weight[0][0] = 0
        back = [[None] * cols for _ in range(rows)]
        for r in range(rows):
            for c in range(cols):
                if r == 0 and c == 0:
                    continue
                best_w = -1
                best_from = None
                for idx, pr, pc in self._incoming[(r0 + r, c0 + c)]:
                    if pr < r0 or pc < c0:
                        continue
                    lr, lc = pr - r0, pc - c0
                    if weight[lr][lc] < 0:
                        continue
                    w = BIG if (excluded is not None and idx in excluded) else costs[idx]
                    if abs(dist_fwd[lr][lc] + w + dist_bwd[r][c] - total) > tol:
                        continue
                    cand = weight[lr][lc] + (1 << (nbits - 1 - idx))
                    if cand > best_w:
                        best_w = cand
                        best_from = (idx, lr, lc)
                weight[r][c] = best_w
                back[r][c] = best_from
        edges = []
        r, c = rows - 1, cols - 1
        while (r, c) != (0, 0):
            idx, r, c = back[r][c]
            edges.append(idx)
        edges.reverse()
        return edges

    def _constrained_solve(self, costs, excluded: frozenset, forced: Tuple[int, ...]):
        """Solve with a forced source-anchored prefix ``forced`` (edges in
        path order) and an excluded set: the prefix's cost plus one segment
        solve from the prefix's end to the sink (``None`` if infeasible)."""
        total = 0.0
        for e in forced:
            total += costs[e]
        start = self.edge_endpoints(forced[-1])[1] if forced else (0, 0)
        seg = self._segment_solve(costs, excluded, start)
        if seg is None:
            return None
        total += seg[0]
        if total >= BIG_CUTOFF:
            return None
        bits = np.zeros(self.n)
        bits[list(forced) + seg[1]] = 1.0
        return total, bits

    def _path_edge_sequence(self, bits: np.ndarray) -> List[int]:
        """Used edges in path order, walking from the source."""
        used = set(_support(bits))
        seq = []
        r, c = 0, 0
        while (r, c) != (self.v - 1, self.h - 1):
            if c + 1 < self.h and self._h_idx(r, c) in used:
                seq.append(self._h_idx(r, c))
                c += 1
            else:
                seq.append(self._v_idx(r, c))
                r += 1
        return seq

    # -- k-best ------------------------------------------------------------

    def top_k(self, costs: np.ndarray, k: int):
        """Lawler partitioning: spawn one subproblem per deviation position,
        forcing the popped path's prefix and excluding the deviating edge.
        Every constrained solve counts as one nominal evaluation, so the
        total is ``1 + (number of spawned subproblems)``."""
        costs = costs.tolist()
        root = self._constrained_solve(costs, frozenset(), ())
        solves = 1
        results: List[np.ndarray] = []
        heap = []
        counter = itertools.count()  # heap stability; never reached for comparison
        cost0, bits0 = root
        heapq.heappush(heap, (cost0, _support(bits0), next(counter), bits0, (), frozenset()))
        while heap and len(results) < k:
            cost, _supp, _, bits, forced, excluded = heapq.heappop(heap)
            results.append(bits)
            if len(results) == k:
                break
            seq = self._path_edge_sequence(bits)
            for j in range(len(forced), len(seq)):
                sub_forced = tuple(seq[:j])
                sub_excluded = excluded | {seq[j]}
                sub = self._constrained_solve(costs, frozenset(sub_excluded), sub_forced)
                solves += 1
                if sub is not None:
                    sc, sbits = sub
                    heapq.heappush(
                        heap, (sc, _support(sbits), next(counter), sbits, sub_forced, sub_excluded))
        return results, solves

    # -- feasibility -------------------------------------------------------

    def is_feasible(self, x: np.ndarray) -> bool:
        support = _binary_support(x)
        if support is None:
            return False
        used = set(support)
        r, c = 0, 0
        consumed = 0
        while (r, c) != (self.v - 1, self.h - 1):
            right = c + 1 < self.h and self._h_idx(r, c) in used
            down = r + 1 < self.v and self._v_idx(r, c) in used
            if right and down:
                return False
            if right:
                consumed += 1
                c += 1
            elif down:
                consumed += 1
                r += 1
            else:
                return False
        return consumed == len(used)


# ---------------------------------------------------------------------------
# Dense symmetric TSP
# ---------------------------------------------------------------------------

class DenseTSP:
    """Hamiltonian cycle on a complete graph, solved exactly by Held-Karp.

    Decision variables are unordered pairs; a tour's incidence vector is
    direction independent.  ``solve`` accepts up to 16 nodes, ``top_k`` up to
    10 (exhaustive canonical-tour enumeration); both caps keep exactness at
    desk scale.  ``coords`` are optional planar coordinates used only for the
    instance descriptor and distance-based cost helpers.
    """

    kind = "tsp"
    SOLVE_MAX_NODES = 16
    TOPK_MAX_NODES = 10

    def __init__(self, n_nodes: int, coords: Optional[Sequence[Tuple[float, float]]] = None):
        if n_nodes < 3:
            raise ValueError("TSP needs at least 3 nodes")
        self.n_nodes = int(n_nodes)
        self.n = self.n_nodes * (self.n_nodes - 1) // 2
        if coords is not None:
            coords = tuple((float(x), float(y)) for x, y in coords)
            if len(coords) != self.n_nodes:
                raise ValueError("coords length must equal n_nodes")
        self.coords = coords
        self._pairs = [(i, j) for i in range(self.n_nodes) for j in range(i + 1, self.n_nodes)]
        self._pair_idx = {p: k for k, p in enumerate(self._pairs)}
        self._tours = None  # (bits, support) per canonical tour, cached by top_k

    def pair_index(self, i: int, j: int) -> int:
        if i == j:
            raise ValueError("no self-loop variables")
        return self._pair_idx[(i, j) if i < j else (j, i)]

    def descriptor(self) -> str:
        if self.coords is None:
            return f"tsp:{self.n_nodes}"
        pts = ";".join(f"{x:.6f},{y:.6f}" for x, y in self.coords)
        return f"tsp:{self.n_nodes},coords={pts}"

    def distance_costs(self) -> np.ndarray:
        if self.coords is None:
            raise ValueError("instance has no coordinates")
        return np.array([
            math.dist(self.coords[i], self.coords[j]) for i, j in self._pairs
        ])

    def _matrix(self, costs: np.ndarray) -> List[List[float]]:
        nn = self.n_nodes
        d = [[0.0] * nn for _ in range(nn)]
        for (i, j), cost in zip(self._pairs, costs.tolist()):
            d[i][j] = cost
            d[j][i] = cost
        return d

    def _tour_bits(self, order: Sequence[int]) -> np.ndarray:
        bits = np.zeros(self.n)
        nn = len(order)
        for k in range(nn):
            bits[self.pair_index(order[k], order[(k + 1) % nn])] = 1.0
        return bits

    # -- nominal solve -----------------------------------------------------

    def solve_nominal(self, costs: np.ndarray) -> np.ndarray:
        if self.n_nodes > self.SOLVE_MAX_NODES:
            raise ValueError(
                f"exact TSP solve capped at {self.SOLVE_MAX_NODES} nodes, "
                f"instance has {self.n_nodes}")
        nn = self.n_nodes
        d = self._matrix(costs)
        full = (1 << nn) - 1
        dp = [[INF] * nn for _ in range(1 << nn)]
        dp[1][0] = 0.0
        for mask in range(1, 1 << nn, 2):
            row = dp[mask]
            # (unvisited node, dp row it extends into), hoisted out of the loop
            steps = [(nxt, dp[mask | (1 << nxt)]) for nxt in range(1, nn)
                     if not mask & (1 << nxt)]
            for last in range(nn):
                base = row[last]
                if base == INF:
                    continue
                dlast = d[last]
                for nxt, tgt in steps:
                    cand = base + dlast[nxt]
                    if cand < tgt[nxt]:
                        tgt[nxt] = cand
        best = INF
        best_last = -1
        tied = False
        for last in range(1, nn):
            val = dp[full][last] + d[last][0]
            if val < best:
                best = val
                best_last = last
                tied = False
            elif val == best:
                tied = True
        if not tied:
            order = self._backtrack(dp, d, full, best_last)
            if order is not None:
                return self._tour_bits(order)
        return self._lex_best_tour(dp, d, best)

    def _backtrack(self, dp, d, full, last):
        """Reconstruct the optimal tour; return None on any exact tie."""
        order = [last]
        mask = full
        cur = last
        while mask != 1:
            here = dp[mask][cur]
            prev_mask = mask ^ (1 << cur)
            hits = []
            for p in range(self.n_nodes):
                if not prev_mask & (1 << p):
                    continue
                if p == 0 and prev_mask != 1:
                    continue
                if dp[prev_mask][p] + d[p][cur] == here:
                    hits.append(p)
            if len(hits) != 1:
                return None
            cur = hits[0]
            mask = prev_mask
            order.append(cur)
        order.reverse()
        return order

    def _lex_best_tour(self, dp, d, best):
        """Tie resolution over the Held-Karp state DAG: keep transitions on
        optimal tours, then maximize the exact integer support weight."""
        nn = self.n_nodes
        full = (1 << nn) - 1
        bwd = [[INF] * nn for _ in range(1 << nn)]
        for last in range(nn):
            bwd[full][last] = d[last][0]
        for mask in range(full - 2, 0, -2):  # even masks lack node 0; skip them
            row = bwd[mask]
            # supersets of mask are larger numbers, so their rows are final
            steps = [(nxt, bwd[mask | (1 << nxt)][nxt]) for nxt in range(1, nn)
                     if not mask & (1 << nxt)]
            for last in range(nn):
                if not mask & (1 << last):
                    continue
                acc = INF
                dlast = d[last]
                for nxt, rest in steps:
                    cand = dlast[nxt] + rest
                    if cand < acc:
                        acc = cand
                row[last] = acc
        tol = TIE_REL_TOL * (1.0 + abs(best))
        nbits = self.n
        weight = {(1, 0): 0}
        back = {}
        for mask in range(1, 1 << nn, 2):
            for last in range(nn):
                key = (mask, last)
                if key not in weight:
                    continue
                wbase = weight[key]
                fbase = dp[mask][last]
                for nxt in range(1, nn):
                    if mask & (1 << nxt):
                        continue
                    nmask = mask | (1 << nxt)
                    if abs(fbase + d[last][nxt] + bwd[nmask][nxt] - best) > tol:
                        continue
                    cand = wbase + (1 << (nbits - 1 - self.pair_index(last, nxt)))
                    nkey = (nmask, nxt)
                    if cand > weight.get(nkey, -1):
                        weight[nkey] = cand
                        back[nkey] = key
        best_w = -1
        best_key = None
        for last in range(1, nn):
            key = (full, last)
            if key not in weight:
                continue
            if abs(dp[full][last] + d[last][0] - best) > tol:
                continue
            cand = weight[key] + (1 << (nbits - 1 - self.pair_index(last, 0)))
            if cand > best_w:
                best_w = cand
                best_key = key
        order = []
        key = best_key
        while key != (1, 0):
            order.append(key[1])
            key = back[key]
        order.append(0)
        order.reverse()
        return self._tour_bits(order)

    def canonical_tours(self):
        """All tours as node orders anchored at 0, with the direction whose
        second node is smaller; each undirected tour appears exactly once."""
        nn = self.n_nodes
        for perm in itertools.permutations(range(1, nn)):
            if perm[0] < perm[-1]:
                yield (0,) + perm

    # -- k-best ------------------------------------------------------------

    def top_k(self, costs: np.ndarray, k: int):
        """Exhaustive canonical-tour enumeration keeping a k-best set; the
        single enumeration pass counts as one nominal evaluation.  The tour
        vectors are built once per instance and kept read-only; callers get
        copies.  Two threads racing on the first call build equal lists."""
        if self.n_nodes > self.TOPK_MAX_NODES:
            raise ValueError(
                f"k-best TSP enumeration capped at {self.TOPK_MAX_NODES} nodes, "
                f"instance has {self.n_nodes}")
        if self._tours is None:
            tours = []
            for order in self.canonical_tours():
                bits = self._tour_bits(order)
                bits.flags.writeable = False
                tours.append((bits, _support(bits)))
            self._tours = tours
        scored = [(float(np.dot(costs, bits)), supp, bits) for bits, supp in self._tours]
        best = heapq.nsmallest(k, scored, key=lambda rec: (rec[0], rec[1]))
        # copies keep callers from writing into the cached tour vectors
        return [bits.copy() for _, _, bits in best], 1

    # -- feasibility -------------------------------------------------------

    def is_feasible(self, x: np.ndarray) -> bool:
        used = _binary_support(x)
        if used is None or len(used) != self.n_nodes:
            return False
        adj = [[] for _ in range(self.n_nodes)]
        for idx in used:
            i, j = self._pairs[idx]
            adj[i].append(j)
            adj[j].append(i)
        for nb in adj:
            if len(nb) != 2:
                return False
        # walk the cycle from node 0; a single cycle covers every node
        prev, cur = 0, adj[0][0]
        seen = 1
        while cur != 0:
            seen += 1
            a, b = adj[cur]
            prev, cur = cur, (b if a == prev else a)
        return seen == self.n_nodes


# ---------------------------------------------------------------------------
# One-of-n selection
# ---------------------------------------------------------------------------

class SelectOne:
    """Pick exactly one of ``n`` options; decisions are the unit vectors."""

    kind = "select"

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one option")
        self.n = int(n)

    def descriptor(self) -> str:
        return f"select:{self.n}"

    def solve_nominal(self, costs: np.ndarray) -> np.ndarray:
        bits = np.zeros(self.n)
        bits[int(np.argmin(costs))] = 1.0  # argmin keeps the smallest index on ties
        return bits

    def top_k(self, costs: np.ndarray, k: int):
        order = sorted(range(self.n), key=lambda i: (costs[i], i))
        out = []
        for i in order[:k]:
            bits = np.zeros(self.n)
            bits[i] = 1.0
            out.append(bits)
        return out, 1

    def is_feasible(self, x: np.ndarray) -> bool:
        used = _binary_support(x)
        return used is not None and len(used) == 1


# ---------------------------------------------------------------------------
# Public oracle interface
# ---------------------------------------------------------------------------

def solve(inst, costs, audit: Optional[OracleAudit] = None) -> np.ndarray:
    """Minimum-cost feasible decision (ties per the module tie rule)."""
    c = _check_costs(inst, costs)
    if audit is not None:
        audit.add(1)
    return inst.solve_nominal(c)


def top_k_solve(inst, costs, k: int, audit: Optional[OracleAudit] = None) -> List[np.ndarray]:
    """The distinct feasible decisions with the ``k`` smallest costs, sorted
    by non-decreasing cost (ties per the tie rule).  Returns fewer than ``k``
    when the instance has fewer feasible decisions."""
    if k < 1:
        raise ValueError("k must be at least 1")
    c = _check_costs(inst, costs)
    decisions, solves = inst.top_k(c, k)
    if audit is not None:
        audit.add(solves)
    return decisions


def worst_case_cost(inst, costs, x, u: UncertaintyParams) -> float:
    """``c^T x`` plus the adversary's best deviation under the budget set,
    computed by fractional knapsack over the used coefficients.

    The result is accumulated with a correctly-rounded sum so that decisions
    whose worst cases are equal in exact arithmetic (common under full
    per-coefficient deviation with signed costs) compare as exactly equal,
    keeping the tie rule meaningful.
    """
    c = _check_costs(inst, costs)
    bits = _check_decision(inst, x)
    if not inst.is_feasible(bits):
        raise ValueError("decision is not feasible for this instance")
    used = c[bits != 0.0]
    terms = used.tolist()
    if u.rho > 0.0 and u.gamma > 0.0:
        budget = u.gamma
        mags = np.abs(used)
        mags.sort()
        for mag in mags[::-1].tolist():
            take = u.rho if u.rho <= budget else budget
            if take <= 0.0:
                break
            terms.append(take * mag)
            budget -= take
    return math.fsum(terms)


def robust_solve(inst, costs, u: UncertaintyParams,
                 audit: Optional[OracleAudit] = None) -> np.ndarray:
    """Decision minimizing :func:`worst_case_cost`.

    Threshold decomposition over nominal solves: with deviations
    ``d_i = rho * |c_i|``, every threshold ``theta`` in ``{0} union {d_i}``
    yields the candidate ``argmin`` of the adjusted costs
    ``c_i + max(d_i - theta, 0)``.  The adjusted costs do not depend on the
    cardinality budget, so the documented solve count is exactly the number
    of distinct thresholds.  Every candidate is then re-evaluated with the
    exact fractional-knapsack worst case, which also guards the non-integer
    budget corner; ties break by the module tie rule.
    """
    c = _check_costs(inst, costs)
    if u.rho == 0.0:
        return solve(inst, c, audit)
    devs = u.rho * np.abs(c)
    thresholds = sorted({0.0, *(float(dv) for dv in devs)})
    best = None
    seen = set()
    for theta in thresholds:
        adjusted = c + np.maximum(devs - theta, 0.0)
        cand = solve(inst, adjusted, audit)
        key = _support(cand)
        if key in seen:
            continue
        seen.add(key)
        wcc = worst_case_cost(inst, c, cand, u)
        rec = (wcc, key, cand)
        if best is None or rec[:2] < best[:2]:
            best = rec
    return best[2]


def is_feasible(inst, x) -> bool:
    bits = _check_decision(inst, x)
    return inst.is_feasible(bits)


def instance_from_descriptor(desc: str):
    """Inverse of each instance's ``descriptor()``."""
    if desc.startswith("grid:"):
        v, h = desc[len("grid:"):].split("x")
        return GridShortestPath(int(v), int(h))
    if desc.startswith("select:"):
        return SelectOne(int(desc[len("select:"):]))
    if desc.startswith("tsp:"):
        body = desc[len("tsp:"):]
        if "," not in body:
            return DenseTSP(int(body))
        head, coord_part = body.split(",", 1)
        if not coord_part.startswith("coords="):
            raise ValueError(f"bad tsp descriptor: {desc!r}")
        pts = []
        for chunk in coord_part[len("coords="):].split(";"):
            xs, ys = chunk.split(",")
            pts.append((float(xs), float(ys)))
        return DenseTSP(int(head), coords=pts)
    raise ValueError(f"unknown instance descriptor: {desc!r}")
