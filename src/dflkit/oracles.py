"""Exact solvers behind a single oracle interface.

Three instance kinds are supported:

* :class:`GridShortestPath` -- directed source-to-sink paths on a ``v x h``
  grid (moves go right or down only).  Variables are ordered all horizontal
  edges row-major first, then all vertical edges row-major.
* :class:`DenseTSP` -- Hamiltonian cycles on a complete graph.  Variables are
  the unordered node pairs ``(i, j)`` with ``i < j`` in lexicographic order.
* :class:`SelectOne` -- pick exactly one of ``n`` options (unit vectors);
  handy for tiny enumerable test problems.  It stays public because entry
  points reach it: ``dflkit train`` and ``dflkit eval`` run on a dataset
  whose ``meta.json`` names ``select:n``.

Tie rule (applies everywhere, documented once): among equal-cost feasible
decisions, return the one whose sorted list of used variable indices is
lexicographically smallest, i.e. the decision that prefers low-numbered
variables.  All feasible decisions of one instance use the same number of
variables, so this order is total, and it is the order of their 0/1 rows
from the lexicographically largest down; the candidate lists of TSP k-best
and of the robust counterpart are ranked that way.  "Equal cost" means
exact equality of the float64 sums the solver forms, with no tolerance, so
wherever those sums are exact (integer or dyadic costs, for instance) the
result is the rule above in exact arithmetic.  The grid DP sums each path
from the sink and gives an exact tie between a cell's two moves to the right
move, which is the rule made local; on near-ties whose sums are not exact,
summing from the sink can rank two paths differently from summing from the
source.  Held-Karp sums each path from node 0 and breaks an exact tie
between two ways into a state, or between two closing edges, by the paths'
supports, which it carries as integer keys.

Each instance has one nominal solver, its batched ``solve_nominal_batch``,
which applies the tie rule itself; :func:`solve` is the one-row call of
:func:`solve_batch`.  The grid reads every path from one pass from the
sink, walked in numpy for a batch and in Python for Lawler k-best, whose
heap ranks equal-cost paths by their edge lists in walk order; the same
move tables check a grid decision's feasibility.
Held-Karp reduces each popcount layer across its ways in, stored ways
first, and keeps the largest support key at a state's minimum.
``SelectOne`` takes a plain ``argmin``, which keeps the smallest index.

The first decision of :func:`top_k_solve` is :func:`solve`'s wherever the
float sums are exact, and always on the grid, whose k-best walks the same
pass, and on ``SelectOne``.  TSP k-best scores every tour in one stacked
matrix product, which sums in the BLAS kernel's order rather than in index
order, so on inexact costs it can rank near-tied tours otherwise than
Held-Karp.

:func:`worst_case_cost` and the feasibility checks under it stay public,
though no entry point calls them: the worst case defines the robust loss
that :func:`robust_solve` minimizes, and ``perfbench/tracer.py`` binds
``oracles.worst_case_cost`` at import.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import DimensionError

BIG_CUTOFF = 1e11   # cost checks keep every decision's summed |cost| below this

INF = math.inf

# DP table entries (rows times per-row table size) that solve_batch works on
# at once; for TSP the per-row table is (2^(nodes-1), nodes), so an 8-node
# block holds 64 rows and a 10-node block 12.
BATCH_TABLE_ENTRIES = 1 << 16

# Bits per int64 word of a Held-Karp support key; 63 keeps every key word
# non-negative, so one word holds the 55 edges of 11 nodes and two the 120
# of 16.
KEY_WORD_BITS = 63


class OracleAudit:
    """Counter of nominal-solve invocations, owned by one caller.

    Incremented exactly once per nominal solve, including the nominal solves
    performed inside ``robust_solve`` and ``top_k_solve``; a batch of ``B``
    rows counts ``B``, and each grid Lawler subproblem counts one.
    """

    def __init__(self):
        self.solve_count = 0

    def add(self, k: int = 1) -> None:
        self.solve_count += k


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
        for name, value in (("rho", self.rho), ("gamma", self.gamma)):
            if math.isnan(value) or (name == "rho" and math.isinf(value)):
                raise ValueError(f"uncertainty parameter {name} cannot be {value}")
            if value < 0:
                raise ValueError(
                    f"uncertainty parameters must be non-negative, got {name}={value}")


def _check_costs(inst, costs, ndim: int = 1) -> np.ndarray:
    """A cost vector (``ndim=1``) or a ``(rows, n)`` cost batch (``ndim=2``)
    as float64, rejecting wrong shapes, non-finite entries and magnitudes
    that would let a decision's summed |cost| reach :data:`BIG_CUTOFF`."""
    c = np.asarray(costs, dtype=np.float64)
    what = "vector" if ndim == 1 else "batch"
    if c.ndim != ndim or c.shape[-1] != inst.n:
        want = f"length {inst.n}" if ndim == 1 else f"(rows, {inst.n})"
        raise DimensionError(f"cost {what} has shape {c.shape}, instance expects {want}")
    # one reduction serves both checks: NaN and inf propagate through max
    biggest = float(np.abs(c).max(initial=0.0))
    if not math.isfinite(biggest):
        raise ValueError(f"cost {what} contains non-finite entries")
    if biggest * (inst.n + 1) >= BIG_CUTOFF:
        raise ValueError(
            "cost magnitudes too large: every decision's summed |cost| must stay "
            f"below {BIG_CUTOFF:g} (need max|c| * (n+1) < {BIG_CUTOFF:g})")
    return c


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
    one pass from the sink, :meth:`_suffix_pass`, serves every solve; two
    paths' edge lists in walk order compare as their sorted supports do.
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

    def descriptor(self) -> str:
        return f"grid:{self.v}x{self.h}"

    # -- the DP ------------------------------------------------------------

    @cached_property
    def _pass_tables(self):
        """Index arrays for :meth:`_suffix_pass`, built once.  Cells are
        numbered by anti-diagonal from the sink (position 0) to the source
        (``v h - 1``); ``v h`` is a pad whose cost to the sink is INF.  Key
        ``2 p + move`` (0 right, 1 down) gives a move's edge and head
        position; a missing move takes edge 0 to the pad.  Each wave holds
        one anti-diagonal's positions, its moves' heads (right moves first)
        and its slice of ``wave_edges``, the moves' edges in wave order."""
        v, h, pad = self.v, self.h, self.v * self.h
        cells = sorted(range(pad), key=lambda cell: -sum(divmod(cell, h)))
        pos = {cell: p for p, cell in enumerate(cells)}
        edges, heads = [0, 0], [pad, pad]     # the sink makes no move
        for cell in cells[1:]:
            r, c = divmod(cell, h)
            edges += [r * (h - 1) + c if c + 1 < h else 0,
                      self._n_h + cell if r + 1 < v else 0]
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
        return (waves, np.array([edges[key] for key in order]),
                np.array(edges), np.array(heads))

    def _suffix_pass(self, C: np.ndarray):
        """The grid DP over every row of the ``(rows, n)`` batch ``C``:
        ``(dist, down)``, where ``dist[p, row]`` is the cheapest cost from
        position ``p`` to the sink, summed from the sink, and ``down[p,
        row]`` whether that path's first move is down."""
        waves, wave_edges, _, _ = self._pass_tables
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

    def solve_nominal_batch(self, C: np.ndarray) -> np.ndarray:
        """Every row's path, read from the source after one
        :meth:`_suffix_pass`."""
        rows = C.shape[0]
        _, down = self._suffix_pass(C)
        _, _, edges, heads = self._pass_tables
        idx = np.arange(rows)
        p = np.full(rows, self.v * self.h - 1)
        path = np.empty((self.v + self.h - 2, rows), dtype=np.intp)
        for step in path:
            key = 2 * p + down.take(p * rows + idx)
            step[:] = edges.take(key)
            p = heads.take(key)
        X = np.zeros((rows, self.n))
        X[idx, path] = 1.0
        return X

    @staticmethod
    def _best_path(p: int, down: List[bool], edges: List[int], heads: List[int]) -> List[int]:
        """Edges of one row's best path from position ``p`` to the sink; ``down``
        is that row's column of the pass, all three tables as lists."""
        path = []
        while p:
            key = 2 * p + down[p]
            path.append(edges[key])
            p = heads[key]
        return path

    # -- k-best ------------------------------------------------------------

    def top_k(self, costs: np.ndarray, k: int):
        """Lawler partitioning (Lawler 1972) over one :meth:`_suffix_pass`.
        A popped path is one subproblem per position ``j`` from the end of
        its forced prefix on, forcing its first ``j`` edges and excluding
        edge ``j``; its answer is the prefix, the cell's other move and the
        stored best path on.  A path that deviated at the end of its forced
        prefix has both moves out of that cell excluded there, so that
        subproblem is empty.  Each subproblem counts as one nominal solve.
        The heap holds ``(cost summed from the sink, path, forced length,
        deviated)``, so equal costs pop in walk order: the tie rule's."""
        c = costs.tolist()
        dist, down = self._suffix_pass(costs[None])
        dist, down = dist[:, 0].tolist(), down[:, 0].tolist()
        _, _, edges, heads = self._pass_tables
        edges, heads = edges.tolist(), heads.tolist()
        source, pad = self.v * self.h - 1, self.v * self.h
        heap = [(dist[source], self._best_path(source, down, edges, heads), 0, False)]
        solves, results = 1, []
        while heap and len(results) < k:
            _cost, path, forced, deviated = heapq.heappop(heap)
            bits = np.zeros(self.n)
            bits[path] = 1.0
            results.append(bits)
            if len(results) == k:
                break
            solves += len(path) - forced
            p = source
            for j, e in enumerate(path):
                key = 2 * p + (e >= self._n_h)   # vertical edges are the down moves
                other = key ^ 1
                if j >= forced + deviated and heads[other] != pad:
                    total = c[edges[other]] + dist[heads[other]]
                    for f in reversed(path[:j]):
                        total = c[f] + total
                    sub = path[:j] + [edges[other]] + self._best_path(
                        heads[other], down, edges, heads)
                    heapq.heappush(heap, (total, sub, j, True))
                p = heads[key]
        return results, solves

    # -- feasibility -------------------------------------------------------

    def is_feasible(self, x: np.ndarray) -> bool:
        """One used move out of each position from source to sink, no more."""
        support = _binary_support(x)
        if support is None:
            return False
        used = set(support)
        _, _, edges, heads = self._pass_tables
        edges, heads = edges.tolist(), heads.tolist()
        p, pad = self.v * self.h - 1, self.v * self.h
        while p:
            moves = [key for key in (2 * p, 2 * p + 1)
                     if heads[key] != pad and edges[key] in used]
            if len(moves) != 1:
                return False
            p = heads[moves[0]]
        return len(used) == self.v + self.h - 2   # every path has v + h - 2 edges


# ---------------------------------------------------------------------------
# Dense symmetric TSP
# ---------------------------------------------------------------------------

def _cheapest_way(cand: np.ndarray, keys: np.ndarray):
    """``(cost, key)`` of the way to keep over the ways axis, axis 0 of the
    costs ``cand`` and axis 1 of the ``(words, ways, ...)`` support keys:
    the minimum cost and, among the ways at it, the largest key, compared
    word by word from the most significant."""
    if len(cand) == 1:   # one way in: skipping the reduction speeds one-row solves
        return cand[0], keys[:, 0]
    best = cand.min(axis=0)
    eq = cand == best
    top = np.empty(keys.shape[:1] + best.shape, dtype=np.int64)
    for w, word in enumerate(keys):
        # keys are non-negative, so a way off the minimum reads 0; the
        # product costs far less than np.where(eq, word, 0)
        top[w] = (eq * word).max(axis=0)
        if w + 1 < len(keys):
            eq &= word == top[w]
    return best, top


class DenseTSP:
    """Hamiltonian cycle on a complete graph, solved exactly by Held-Karp.

    Decision variables are unordered pairs; a tour's incidence vector is
    direction independent.  ``solve`` accepts up to 16 nodes, ``top_k`` up to
    10 (exhaustive tour enumeration); both caps keep exactness at
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
        self._pair_matrix = np.zeros((self.n_nodes, self.n_nodes), dtype=np.intp)
        for k, (i, j) in enumerate(self._pairs):
            self._pair_matrix[i, j] = self._pair_matrix[j, i] = k
        # solve_batch's per-row DP size: one state per (odd mask, last node)
        self.row_table_entries = (1 << (self.n_nodes - 1)) * self.n_nodes

    def pair_index(self, i: int, j: int) -> int:
        if i == j or not (0 <= i < self.n_nodes and 0 <= j < self.n_nodes):
            raise ValueError(f"no variable joins nodes {i} and {j}")
        return int(self._pair_matrix[i, j])

    def descriptor(self) -> str:
        if self.coords is None:
            return f"tsp:{self.n_nodes}"
        pts = ";".join(f"{x:.6f},{y:.6f}" for x, y in self.coords)
        return f"tsp:{self.n_nodes},coords={pts}"

    # -- nominal solve -----------------------------------------------------

    def solve_nominal_batch(self, C: np.ndarray) -> np.ndarray:
        """Held-Karp over every row of ``C`` at once, one popcount layer of
        states per step.  Each state ``(visited mask, last node)`` keeps, per
        row, the cost of its cheapest path from node 0 and that path's
        support as a key: an integer in which edge ``e`` weighs
        ``2^(W b - 1 - e)``, stored as ``W = ceil(n / b)`` int64 words
        (``b`` = :data:`KEY_WORD_BITS`), most significant first.  A way in
        extends its predecessor's path by one edge that path does not use,
        so its key is the predecessor's key plus that edge's bit.  Among the
        ways that reach a state's minimum cost the largest key wins, which
        for equal-size supports is the lex-smaller sorted support; the tour
        closes back to node 0 the same way.  Every prefix of the tie rule's
        tour is the lex-smallest cheapest path into its state, as the rest
        of the tour shares no edge with any path over the visited set, so
        the winner's key, unpacked into bits, is the rule's decision."""
        if self.n_nodes > self.SOLVE_MAX_NODES:
            raise ValueError(
                f"exact TSP solve capped at {self.SOLVE_MAX_NODES} nodes, "
                f"instance has {self.n_nodes}")
        layers, edge_keys, words, shifts = self._hk_layers
        costs = np.ascontiguousarray(C.T)                 # (n, rows)
        dp = np.zeros((1, C.shape[0]))                    # the one state (mask 1, last 0)
        key = np.zeros((len(edge_keys), 1, C.shape[0]), dtype=np.int64)
        for prev, edges, edge_bits in layers:
            cand = dp.take(prev, axis=0)                  # (ways in, states, rows)
            cand += costs.take(edges, axis=0)
            cand_key = key.take(prev, axis=1)             # (words, ways in, states, rows)
            cand_key += edge_bits
            dp, key = _cheapest_way(cand, cand_key)
        closing = self._pair_matrix[1:, 0]               # the full mask's last nodes 1, 2, ...
        _, tour = _cheapest_way(dp + costs[closing], key + edge_keys[:, closing, None])
        return ((tour.T.take(words, axis=1) >> shifts) & 1).astype(np.float64)

    @cached_property
    def _hk_layers(self):
        """Per popcount ``size`` of the visited mask (2 to ``nodes``), the
        ways into the layer's states ``(mask, nxt)``, which are ordered by
        mask, then by ``nxt``.  They are stored ways first as ``(ways in,
        states)`` tables of the predecessor's position in the layer before
        and the edge from it to ``nxt``, with that edge's key bits as a
        ``(words, ways in, states, 1)`` table.  Also each edge's key as
        ``(words, n)``, and each edge's word and bit shift for unpacking a
        key.  The key layout follows :data:`KEY_WORD_BITS` when the tables
        are built."""
        nn = self.n_nodes
        word_bits = KEY_WORD_BITS
        e = np.arange(self.n)
        words, shifts = e // word_bits, word_bits - 1 - e % word_bits
        edge_keys = np.zeros((-(-self.n // word_bits), self.n), dtype=np.int64)
        edge_keys[words, e] = np.left_shift(1, shifts, dtype=np.int64)
        masks = np.arange(1, 1 << nn, 2)
        bits = (masks[:, None] >> np.arange(1, nn)) & 1    # nodes 1 .. nn-1
        sizes = bits.sum(axis=1) + 1
        layers = []
        # a state's position in its layer; the start state (mask 1, last 0) is 0
        at = np.zeros(self.row_table_entries, dtype=np.intp)

        def ways_first(table):   # (masks, nxt, ways in) -> (ways in, states)
            return np.ascontiguousarray(table.reshape(-1, table.shape[-1]).T,
                                        dtype=np.int32)

        for size in range(2, nn + 1):
            ms = masks[sizes == size]
            nxt = np.nonzero(bits[sizes == size])[1].reshape(len(ms), size - 1) + 1
            if size == 2:
                ways = np.zeros((len(ms), 1, 1), dtype=np.intp)   # from node 0
            else:  # the other visited nodes besides 0 and nxt
                others = [[i for i in range(size - 1) if i != j] for j in range(size - 1)]
                ways = nxt[:, others]
            prev = ms[:, None] ^ (1 << nxt)
            edges = ways_first(self._pair_matrix[ways, nxt[:, :, None]])
            layers.append((ways_first(at[(prev[:, :, None] >> 1) * nn + ways]), edges,
                           edge_keys.take(edges, axis=1)[..., None]))
            at[((ms[:, None] >> 1) * nn + nxt).ravel()] = np.arange(nxt.size)
        return layers, edge_keys, words, shifts

    # -- k-best ------------------------------------------------------------

    def top_k(self, costs: np.ndarray, k: int):
        """Exhaustive tour enumeration keeping a k-best set; the single
        enumeration pass counts as one nominal evaluation.  :attr:`_tours`
        is in the tie rule's order, so one stable sort by cost applies the
        rule; callers get copies."""
        if self.n_nodes > self.TOPK_MAX_NODES:
            raise ValueError(
                f"k-best TSP enumeration capped at {self.TOPK_MAX_NODES} nodes, "
                f"instance has {self.n_nodes}")
        scores = np.matmul(self._tours[:, None, :], costs[:, None])[:, 0, 0]
        # copies keep callers from writing into the cached tour matrix
        return [self._tours[i].copy() for i in np.argsort(scores, kind="stable")[:k]], 1

    @cached_property
    def _tours(self) -> np.ndarray:
        """Every tour (node orders from 0 whose second node is below their
        last, so each undirected tour once), built once per instance as the
        rows of one read-only ``(tours, n)`` matrix in lex order of sorted
        supports.  Two threads racing on the first access build equal ones."""
        supports = sorted(sorted(self._pair_matrix[(0,) + perm, (*perm, 0)].tolist())
                          for perm in itertools.permutations(range(1, self.n_nodes))
                          if perm[0] < perm[-1])
        tours = np.zeros((len(supports), self.n))
        tours[np.arange(len(supports))[:, None], supports] = 1.0
        tours.flags.writeable = False
        return tours

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

    def solve_nominal_batch(self, C: np.ndarray) -> np.ndarray:
        """Row-wise ``argmin``, which keeps the smallest index on ties."""
        X = np.zeros(C.shape)
        X[np.arange(C.shape[0]), np.argmin(C, axis=1)] = 1.0
        return X

    def top_k(self, costs: np.ndarray, k: int):
        """Options ranked by ``(cost, index)`` in one stable sort; one solve."""
        order = np.argsort(costs, kind="stable")[:k]
        X = np.zeros((len(order), self.n))
        X[np.arange(len(order)), order] = 1.0
        return list(X), 1

    def is_feasible(self, x: np.ndarray) -> bool:
        used = _binary_support(x)
        return used is not None and len(used) == 1


# ---------------------------------------------------------------------------
# Public oracle interface
# ---------------------------------------------------------------------------

def solve(inst, costs, audit: Optional[OracleAudit] = None) -> np.ndarray:
    """Minimum-cost feasible decision (ties per the module tie rule): the
    one-row call of :func:`solve_batch`, counting one nominal solve."""
    return solve_batch(inst, _check_costs(inst, costs)[None], audit)[0]


def solve_batch(inst, costs, audit: Optional[OracleAudit] = None) -> np.ndarray:
    """Row ``i`` of the result is ``solve(inst, costs[i])``, for every row of
    the ``(B, n)`` cost batch; counts ``B`` nominal solves.  Rows run in
    blocks of at most :data:`BATCH_TABLE_ENTRIES` DP table entries through
    the instance's one batched DP, which applies the tie rule itself."""
    C = _check_costs(inst, costs, ndim=2)
    X = np.zeros(C.shape)
    block = max(1, BATCH_TABLE_ENTRIES // inst.row_table_entries)
    for lo in range(0, C.shape[0], block):
        X[lo:lo + block] = inst.solve_nominal_batch(C[lo:lo + block])
    if audit is not None:
        audit.add(C.shape[0])
    return X


def top_k_solve(inst, costs, k: int, audit: Optional[OracleAudit] = None) -> List[np.ndarray]:
    """The distinct feasible decisions with the ``k`` smallest costs, sorted
    by non-decreasing cost (ties per the tie rule).  Returns fewer than ``k``
    when the instance has fewer feasible decisions.  The first is
    :func:`solve`'s wherever the float sums are exact (see the module)."""
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
    if not is_feasible(inst, x):
        raise ValueError("decision is not feasible for this instance")
    return _worst_case(c, np.asarray(x, dtype=np.float64), u)


def _worst_case(c: np.ndarray, bits: np.ndarray, u: UncertaintyParams) -> float:
    """:func:`worst_case_cost` of a checked cost vector and feasible decision."""
    used = c[bits != 0.0]
    terms = used.tolist()
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
    budget corner.  The distinct candidates are ranked largest 0/1 row
    first, which is the tie rule's order, and the first of equal worst cases
    wins.  At ``rho = 0`` the one threshold 0 leaves ``c`` as it is:
    :func:`solve`'s result, one solve.
    """
    c = _check_costs(inst, costs)
    devs = u.rho * np.abs(c)
    thresholds = np.array(sorted({0.0, *(float(dv) for dv in devs)}))
    adjusted = c + np.maximum(devs - thresholds[:, None], 0.0)
    X = solve_batch(inst, adjusted, audit)
    candidates = np.array(sorted(set(map(tuple, X.tolist())), reverse=True))
    return min(candidates, key=lambda x: _worst_case(c, x, u))


def is_feasible(inst, x) -> bool:
    """Whether ``x`` is a feasible decision; a wrong shape raises :class:`DimensionError`."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] != inst.n:
        raise DimensionError(
            f"decision has shape {arr.shape}, instance expects length {inst.n}")
    return inst.is_feasible(arr)


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
