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
variables, so this order is total.  "Equal cost" means exact equality of
the float64 sums the solver forms, with no tolerance, so wherever those sums
are exact (integer or dyadic costs, for instance) the result is the rule
above in exact arithmetic.  The grid DP sums each path from the sink and
gives an exact tie between a cell's two moves to the right move, which is
the rule made local; on near-ties whose sums are not exact, summing from the
sink can rank two paths differently from summing from the source.
Held-Karp breaks an exact tie between two ways into a state by the supports.

Batched solves (:func:`solve_batch`) return, row for row, exactly what
:func:`solve` returns.  Grid rows never fall back.  Batched Held-Karp reduces
each popcount layer across its ways in, stored ways first, and keeps the
first way at a state's minimum.  It flags every row that meets an exact
float64 tie: a DP state with two equal-cost ways in, or equal closing edges
from two different tours (a tour and its own reverse have the same support,
so that is no tie).  Only these TSP rows are re-solved by the scalar
Held-Karp; ``OracleAudit.fallback_count`` counts them.  ``SelectOne`` takes
a plain ``argmin``, which keeps the smallest index.  Grid Lawler k-best
reads one DP per call.
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

BIG_CUTOFF = 1e11   # cost checks keep every decision's summed |cost| below this

INF = math.inf

# DP table entries (rows times per-row table size) that solve_batch works on
# at once; for TSP the per-row table is (2^(nodes-1), nodes), so an 8-node
# block holds 64 rows and a 10-node block 12.
BATCH_TABLE_ENTRIES = 1 << 16


class OracleAudit:
    """Thread-safe counter of nominal-solve invocations.

    Incremented exactly once per nominal solve, including the nominal solves
    performed inside ``robust_solve`` and ``top_k_solve``; a batch of ``B``
    rows counts ``B``, and each grid Lawler subproblem counts one.
    ``fallback_count`` is the number of TSP batch rows that met an exact tie
    and were re-solved by the scalar Held-Karp; grid rows never fall back.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._count = 0
        self._fallback = 0

    @property
    def solve_count(self) -> int:
        return self._count

    @property
    def fallback_count(self) -> int:
        return self._fallback

    def add(self, k: int = 1, fallback: int = 0) -> None:
        with self._lock:
            self._count += k
            self._fallback += fallback


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


def _check_costs(inst, costs, ndim: int = 1) -> np.ndarray:
    """A cost vector (``ndim=1``) or a ``(rows, n)`` cost batch (``ndim=2``)
    as float64, rejecting wrong shapes, non-finite entries and magnitudes
    that would let a decision's summed |cost| reach :data:`BIG_CUTOFF`."""
    c = np.asarray(costs, dtype=np.float64)
    if c.ndim != ndim or c.shape[-1] != inst.n:
        want = f"length {inst.n}" if ndim == 1 else f"(rows, {inst.n})"
        raise DimensionError(
            f"cost {'vector' if ndim == 1 else 'batch'} has shape {c.shape}, "
            f"instance expects {want}")
    # one reduction serves both checks: NaN and inf propagate through max
    biggest = float(np.abs(c).max(initial=0.0))
    if not math.isfinite(biggest):
        raise ValueError("cost vector contains non-finite entries")
    if biggest * (inst.n + 1) >= BIG_CUTOFF:
        raise ValueError(
            "cost magnitudes too large: every decision's summed |cost| must stay "
            f"below {BIG_CUTOFF:g} (need max|c| * (n+1) < {BIG_CUTOFF:g})")
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
    Every horizontal index is below every vertical one and both rise along a
    path, so of two paths leaving one cell, the one going right holds the
    smallest index they do not share.  The tie rule is therefore local, and
    one pass from the sink, :meth:`_suffix_pass`, serves every solve.
    """

    kind = "grid"

    def __init__(self, v_rows: int, h_cols: int):
        if v_rows < 2 or h_cols < 2:
            raise ValueError("grid needs at least 2 rows and 2 columns")
        self.v = int(v_rows)
        self.h = int(h_cols)
        self.n = self.v * (self.h - 1) + self.h * (self.v - 1)
        self._n_h = self.v * (self.h - 1)
        self.row_table_entries = self.v * self.h + 1  # solve_batch's per-row DP table
        self._tables = self._steps = None  # built by _pass_tables

    def _h_idx(self, r: int, c: int) -> int:
        return r * (self.h - 1) + c

    def _v_idx(self, r: int, c: int) -> int:
        return self._n_h + r * self.h + c

    def descriptor(self) -> str:
        return f"grid:{self.v}x{self.h}"

    # -- the DP ------------------------------------------------------------

    def _pass_tables(self):
        """Index arrays for :meth:`_suffix_pass`, built once.  Cells are
        numbered by anti-diagonal from the sink (position 0) to the source
        (``v h - 1``); ``v h`` is a pad whose cost to the sink is INF.  Key
        ``2 p + move`` (0 right, 1 down) gives a move's edge and head
        position; a missing move takes edge 0 to the pad.  Each wave holds
        one anti-diagonal's positions, its moves' heads (right moves first)
        and its slice of ``wave_edges``, the moves' edges in wave order."""
        if self._tables is None:
            v, h, pad = self.v, self.h, self.v * self.h
            cells = sorted(range(pad), key=lambda cell: -sum(divmod(cell, h)))
            pos = {cell: p for p, cell in enumerate(cells)}
            edges, heads = [0, 0], [pad, pad]     # the sink makes no move
            for cell in cells[1:]:
                r, c = divmod(cell, h)
                edges += [self._h_idx(r, c) if c + 1 < h else 0,
                          self._v_idx(r, c) if r + 1 < v else 0]
                heads += [pos[cell + 1] if c + 1 < h else pad,
                          pos[cell + h] if r + 1 < v else pad]
            waves, order, lo = [], [], 1
            for d in range(v + h - 3, -1, -1):
                hi = lo + min(v - 1, d) + 1 - max(0, d - h + 1)
                keys = [*range(2 * lo, 2 * hi, 2), *range(2 * lo + 1, 2 * hi, 2)]
                waves.append((slice(lo, hi), np.array([heads[key] for key in keys]),
                              slice(len(order), len(order) + len(keys))))
                order += keys
                lo = hi
            self._steps = (edges, heads)   # set first: a racing caller reads it
            self._tables = (waves, np.array([edges[key] for key in order]),
                            np.array(edges), np.array(heads))
        return self._tables

    def _suffix_pass(self, C: np.ndarray):
        """The grid DP over every row of the ``(rows, n)`` batch ``C``:
        ``(dist, down)``, where ``dist[p, row]`` is the cheapest cost from
        position ``p`` to the sink, summed from the sink, and ``down[p,
        row]`` whether that path's first move is down."""
        waves, wave_edges, _, _ = self._pass_tables()
        cells = self.v * self.h
        move_costs = C.T.take(wave_edges, axis=0)   # take: far less overhead than []
        dist = np.empty((cells + 1, C.shape[0]))
        dist[0] = 0.0
        dist[cells] = INF
        down = np.zeros((cells, C.shape[0]), dtype=bool)
        for at, heads, moves in waves:
            cand = dist.take(heads, axis=0)
            cand += move_costs[moves]
            right, below = cand[:at.stop - at.start], cand[at.stop - at.start:]
            np.less(below, right, out=down[at])   # an exact tie goes right
            np.minimum(right, below, out=dist[at])
        return dist, down

    # -- nominal solve -----------------------------------------------------

    def solve_nominal(self, costs: np.ndarray) -> np.ndarray:
        _, down = self._suffix_pass(costs[None])
        bits = np.zeros(self.n)
        bits[self._best_path(self.v * self.h - 1, down[:, 0].tolist())] = 1.0
        return bits

    def solve_nominal_batch(self, C: np.ndarray):
        """Every row's path, read from the source after one
        :meth:`_suffix_pass`, and ``tied``, which flags no row."""
        rows = C.shape[0]
        _, down = self._suffix_pass(C)
        _, _, edges, heads = self._pass_tables()
        idx = np.arange(rows)
        p = np.full(rows, self.v * self.h - 1)
        path = np.empty((self.v + self.h - 2, rows), dtype=np.intp)
        for step in path:
            key = 2 * p + down.take(p * rows + idx)
            step[:] = edges.take(key)
            p = heads.take(key)
        X = np.zeros((rows, self.n))
        X[idx, path] = 1.0
        return X, np.zeros(rows, dtype=bool)

    def _best_path(self, p: int, down: List[bool]) -> List[int]:
        """Edges of one row's best path from position ``p`` to the sink;
        ``down`` is that row's column of the pass, as a list."""
        edges, heads = self._steps
        path = []
        while p:
            key = 2 * p + down[p]
            path.append(edges[key])
            p = heads[key]
        return path

    # -- k-best ------------------------------------------------------------

    def top_k(self, costs: np.ndarray, k: int):
        """Lawler partitioning (Lawler 1972) over one :meth:`_suffix_pass`.
        A popped path spawns one subproblem per position ``j`` from the end
        of its forced prefix on, forcing its first ``j`` edges and excluding
        edge ``j``.  Exclusions only leave the end cell of a forced prefix,
        so a subproblem's answer is the prefix, that cell's other move (if
        any is left) and the stored best path on.  Each subproblem counts as
        one nominal solve: ``1 + (number spawned)`` in all."""
        c = costs.tolist()
        dist, down = self._suffix_pass(costs[None])
        dist, down = dist[:, 0].tolist(), down[:, 0].tolist()
        edges, heads = self._steps
        source, pad = self.v * self.h - 1, self.v * self.h
        path = self._best_path(source, down)
        # (cost summed from the sink, support, path, forced length, excluded edges)
        heap = [(dist[source], tuple(sorted(path)), path, 0, frozenset())]
        solves, results = 1, []
        while heap and len(results) < k:
            _cost, _supp, path, forced, excluded = heapq.heappop(heap)
            bits = np.zeros(self.n)
            bits[path] = 1.0
            results.append(bits)
            if len(results) == k:
                break
            p = source
            for j, e in enumerate(path):
                key = 2 * p + (e >= self._n_h)   # vertical edges are the down moves
                if j >= forced:
                    blocked = (excluded if j == forced else frozenset()) | {e}
                    solves += 1
                    for other in (2 * p, 2 * p + 1):
                        if heads[other] == pad or edges[other] in blocked:
                            continue
                        total = c[edges[other]] + dist[heads[other]]
                        for f in reversed(path[:j]):
                            total = c[f] + total
                        sub = path[:j] + [edges[other]] + self._best_path(
                            heads[other], down)
                        heapq.heappush(heap, (total, tuple(sorted(sub)), sub, j, blocked))
                p = heads[key]
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
    instance descriptor.
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
        self._pair_matrix = np.zeros((self.n_nodes, self.n_nodes), dtype=np.intp)
        for k, (i, j) in enumerate(self._pairs):
            self._pair_matrix[i, j] = self._pair_matrix[j, i] = k
        # solve_batch's per-row table: one entry per (odd mask, last node)
        self.row_table_entries = (1 << (self.n_nodes - 1)) * self.n_nodes
        self._layer_tables = None  # Held-Karp index arrays, built by _hk_layers
        self._tours = None  # (tour matrix, support ranks), built by top_k

    def pair_index(self, i: int, j: int) -> int:
        if i == j:
            raise ValueError("no self-loop variables")
        return self._pair_idx[(i, j) if i < j else (j, i)]

    def descriptor(self) -> str:
        if self.coords is None:
            return f"tsp:{self.n_nodes}"
        pts = ";".join(f"{x:.6f},{y:.6f}" for x, y in self.coords)
        return f"tsp:{self.n_nodes},coords={pts}"

    def _matrix(self, costs: np.ndarray) -> List[List[float]]:
        nn = self.n_nodes
        d = [[0.0] * nn for _ in range(nn)]
        for (i, j), cost in zip(self._pairs, costs.tolist()):
            d[i][j] = cost
            d[j][i] = cost
        return d

    # -- nominal solve -----------------------------------------------------

    def solve_nominal(self, costs: np.ndarray) -> np.ndarray:
        """Held-Karp over ``(visited mask, last node)`` states.  Each state
        keeps its cost and one predecessor node; when two ways into a state
        cost exactly the same, the path with the lex-smaller support wins,
        and the closing edge back to node 0 is chosen the same way."""
        self._check_solve_cap()
        nn = self.n_nodes
        d = self._matrix(costs)
        full = (1 << nn) - 1
        dp = [[INF] * nn for _ in range(1 << nn)]
        pred = [[0] * nn for _ in range(1 << nn)]
        dp[1][0] = 0.0
        for mask in range(1, 1 << nn, 2):
            row = dp[mask]
            # (unvisited node, dp and pred rows it extends into), hoisted
            steps = [(nxt, dp[mask | (1 << nxt)], pred[mask | (1 << nxt)])
                     for nxt in range(1, nn) if not mask & (1 << nxt)]
            for last in range(nn):
                base = row[last]
                if base == INF:
                    continue
                dlast = d[last]
                for nxt, tgt, tpred in steps:
                    cand = base + dlast[nxt]
                    if cand <= tgt[nxt] and (cand < tgt[nxt] or self._lex_less(
                            pred, mask, last, tpred[nxt], nxt)):
                        tgt[nxt] = cand
                        tpred[nxt] = last
        best = INF
        best_last = -1
        for last in range(1, nn):
            val = dp[full][last] + d[last][0]
            if val < best or (val == best and self._lex_less(
                    pred, full, last, best_last, 0)):
                best = val
                best_last = last
        edges = self._path_edges(pred, full, best_last)
        edges.append(self.pair_index(best_last, 0))
        bits = np.zeros(self.n)
        bits[edges] = 1.0
        return bits

    def _check_solve_cap(self):
        if self.n_nodes > self.SOLVE_MAX_NODES:
            raise ValueError(
                f"exact TSP solve capped at {self.SOLVE_MAX_NODES} nodes, "
                f"instance has {self.n_nodes}")

    def solve_nominal_batch(self, C: np.ndarray):
        """Held-Karp over every row of ``C`` at once, one popcount layer of
        states per step.  A layer gathers its candidates as one ``(ways in,
        states, rows)`` array and reduces across the ways in: the minimum is
        the state's cost, and the first way that reaches it (the lowest
        predecessor node, the index ``argmin`` would return) its predecessor.
        Returns ``(decisions, tied)``: ``tied`` flags the rows where some
        state's cheapest ways in cost exactly the same, or where the cheapest
        closing edges finish two different tours; their decisions
        :func:`solve_batch` takes from :meth:`solve_nominal`."""
        self._check_solve_cap()
        nn = self.n_nodes
        rows = C.shape[0]
        costs = np.ascontiguousarray(C.T)                 # (n, rows)
        dp = np.empty((self.row_table_entries, rows))     # state (mask >> 1) * nn + last
        pred = np.empty((self.row_table_entries, rows), dtype=np.int8)
        dp[0] = 0.0                                       # mask 1, last 0
        tied = np.zeros(rows, dtype=bool)
        for states, prev_states, prev_nodes, edges in self._hk_layers():
            cand = dp.take(prev_states, axis=0)           # (ways in, states, rows)
            cand += costs.take(edges, axis=0)
            if len(cand) == 1:                            # one way in: nothing to reduce
                dp[states] = cand[0]
                pred[states] = prev_nodes[0][:, None]
                continue
            best = cand.min(axis=0)
            eq = cand == best
            # ways at each state's minimum; int8 holds the at most nodes - 2 ways in
            tied |= eq.sum(axis=0, dtype=np.int8).max(axis=0) > 1
            dp[states] = best
            # the first way at the minimum has the lowest node, so the highest
            # nn - node; a max over the ways axis costs far less than argmin
            pred[states] = nn - (eq * (nn - prev_nodes)[:, :, None]).max(axis=0)
        lasts = np.arange(1, nn)
        close = dp[(((1 << nn) - 1) >> 1) * nn + lasts] + costs[self._pair_matrix[lasts, 0]]
        best = close.min(axis=0)
        X = self._hk_walk(pred, np.arange(rows), close.argmin(axis=0) + 1)
        minima = (close == best).sum(axis=0)
        tied |= minima > 2
        two = np.flatnonzero(minima == 2)
        if two.size:
            # a tour and its own reverse close at different nodes: no tie
            second = nn - 1 - (close[::-1, two] == best[two]).argmax(axis=0)
            tied[two] |= (self._hk_walk(pred, two, second) != X[two]).any(axis=1)
        return X, tied

    def _hk_walk(self, pred, cols, last):
        """Tours of the batch columns ``cols`` that close from node ``last``
        (one per column), read back through the predecessor table."""
        nn = self.n_nodes
        idx = np.arange(len(cols))
        X = np.zeros((len(cols), self.n))
        X[idx, self._pair_matrix[last, 0]] = 1.0
        mask = np.full(len(cols), (1 << nn) - 1)
        for _ in range(nn - 1):
            prev = pred[(mask >> 1) * nn + last, cols].astype(np.intp)
            X[idx, self._pair_matrix[prev, last]] = 1.0
            mask = mask ^ (1 << last)
            last = prev
        return X

    def _hk_layers(self):
        """Per popcount ``size`` of the visited mask (2 to ``nodes``): the
        layer's states ``(mask >> 1) * nodes + nxt`` and its ways in, stored
        ways first as ``(ways in, states)`` tables of predecessor states,
        their last nodes (ascending along the ways axis) and the edges from
        them to ``nxt``."""
        if self._layer_tables is None:
            nn = self.n_nodes
            masks = np.arange(1, 1 << nn, 2)
            bits = (masks[:, None] >> np.arange(1, nn)) & 1    # nodes 1 .. nn-1
            sizes = bits.sum(axis=1) + 1
            layers = []

            def ways_first(table, dtype):   # (masks, nxt, ways in) -> (ways in, states)
                return np.ascontiguousarray(table.reshape(-1, table.shape[-1]).T, dtype=dtype)

            for size in range(2, nn + 1):
                ms = masks[sizes == size]
                nxt = np.nonzero(bits[sizes == size])[1].reshape(len(ms), size - 1) + 1
                if size == 2:
                    ways = np.zeros((len(ms), 1, 1), dtype=np.intp)   # from node 0
                else:  # the other visited nodes besides 0 and nxt
                    others = [[i for i in range(size - 1) if i != j] for j in range(size - 1)]
                    ways = nxt[:, others]
                prev = ms[:, None] ^ (1 << nxt)
                layers.append((
                    ((ms[:, None] >> 1) * nn + nxt).ravel(),
                    ways_first((prev[:, :, None] >> 1) * nn + ways, np.int32),
                    ways_first(ways, np.int8),
                    ways_first(self._pair_matrix[ways, nxt[:, :, None]], np.int32)))
            self._layer_tables = layers
        return self._layer_tables

    def _path_edges(self, pred, mask, last):
        """Edges of the stored path from node 0 through ``mask`` to ``last``."""
        edges = []
        while mask != 1:
            prev = pred[mask][last]
            edges.append(self.pair_index(prev, last))
            mask ^= 1 << last
            last = prev
        return edges

    def _lex_less(self, pred, mask, a, b, nxt):
        """Whether the stored path through ``mask`` ending at ``a``, extended
        to ``nxt``, has a lex-smaller support than the one ending at ``b``."""
        sa = self._path_edges(pred, mask, a) + [self.pair_index(a, nxt)]
        sb = self._path_edges(pred, mask, b) + [self.pair_index(b, nxt)]
        return sorted(sa) < sorted(sb)

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
        single enumeration pass counts as one nominal evaluation.  The tours
        are built once per instance as one read-only ``(tours, n)`` matrix,
        with each tour's rank in lex order of sorted supports as its tie key;
        callers get copies.  Two threads racing on the first call build equal
        matrices."""
        if self.n_nodes > self.TOPK_MAX_NODES:
            raise ValueError(
                f"k-best TSP enumeration capped at {self.TOPK_MAX_NODES} nodes, "
                f"instance has {self.n_nodes}")
        if self._tours is None:
            supports = [sorted(self.pair_index(order[i - 1], order[i])
                               for i in range(len(order)))
                        for order in self.canonical_tours()]
            tours = np.zeros((len(supports), self.n))
            tours[np.arange(len(supports))[:, None], supports] = 1.0
            tours.flags.writeable = False
            ranks = np.empty(len(supports), dtype=np.intp)
            ranks[sorted(range(len(supports)), key=supports.__getitem__)] = \
                np.arange(len(supports))
            self._tours = (tours, ranks)
        tours, ranks = self._tours
        scores = np.matmul(tours[:, None, :], costs[:, None])[:, 0, 0]
        # copies keep callers from writing into the cached tour matrix
        return [tours[i].copy() for i in np.lexsort((ranks, scores))[:k]], 1

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
        self.row_table_entries = self.n

    def descriptor(self) -> str:
        return f"select:{self.n}"

    def solve_nominal(self, costs: np.ndarray) -> np.ndarray:
        bits = np.zeros(self.n)
        bits[int(np.argmin(costs))] = 1.0  # argmin keeps the smallest index on ties
        return bits

    def solve_nominal_batch(self, C: np.ndarray):
        """Row-wise ``argmin``, which already applies the tie rule: no row is
        ever flagged."""
        X = np.zeros(C.shape)
        X[np.arange(C.shape[0]), np.argmin(C, axis=1)] = 1.0
        return X, np.zeros(C.shape[0], dtype=bool)

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


def solve_batch(inst, costs, audit: Optional[OracleAudit] = None) -> np.ndarray:
    """Row ``i`` of the result is ``solve(inst, costs[i])``, for every row of
    the ``(B, n)`` cost batch; counts ``B`` nominal solves.  Rows run in
    blocks of at most :data:`BATCH_TABLE_ENTRIES` DP table entries.  Grid
    rows never fall back; TSP rows that meet an exact tie are re-solved by
    the scalar Held-Karp."""
    C = _check_costs(inst, costs, ndim=2)
    X = np.zeros(C.shape)
    block = max(1, BATCH_TABLE_ENTRIES // inst.row_table_entries)
    fallback = 0
    for lo in range(0, C.shape[0], block):
        part = C[lo:lo + block]
        X[lo:lo + block], tied = inst.solve_nominal_batch(part)
        for i in np.flatnonzero(tied).tolist():
            X[lo + i] = inst.solve_nominal(part[i])
        fallback += int(tied.sum())
    if audit is not None:
        audit.add(C.shape[0], fallback)
    return X


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
    thresholds = np.array(sorted({0.0, *(float(dv) for dv in devs)}))
    adjusted = c + np.maximum(devs - thresholds[:, None], 0.0)
    best = None
    seen = set()
    for cand in solve_batch(inst, adjusted, audit):
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
    kind, sep, body = desc.partition(":")
    if not sep or kind not in ("grid", "select", "tsp"):
        raise ValueError(f"unknown instance descriptor: {desc!r}")
    coords = None
    try:
        if kind == "grid":
            v, h = map(int, body.split("x"))
        elif kind == "select":
            size = int(body)
        else:
            head, sep, coord_part = body.partition(",")
            size = int(head)
            if sep:
                if not coord_part.startswith("coords="):
                    raise ValueError
                coords = []
                for chunk in coord_part[len("coords="):].split(";"):
                    xs, ys = chunk.split(",")
                    coords.append((float(xs), float(ys)))
    except ValueError:
        raise ValueError(f"bad {kind} descriptor: {desc!r}") from None
    if kind == "grid":
        return GridShortestPath(v, h)
    if kind == "select":
        return SelectOne(size)
    return DenseTSP(size, coords=coords)
