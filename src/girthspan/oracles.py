"""Independent brute-force ground truth for tiny instances.

These oracles never approximate: they either enumerate the full search
space or fail loudly with the required size.  Witnesses are canonical
(first in the documented enumeration order) so they can be frozen into
test fixtures.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError, ResourceError
from .graphs import Graph, INFINITY
from .labelcover import LabelCoverInstance, Labeling, MinRepInstance, RepCover
from .spanner import EdgeSubset


@dataclass(frozen=True)
class OracleBudget:
    max_search_space: int = 1 << 24

    def __post_init__(self):
        if self.max_search_space < 1:
            raise InputError("budget must be positive")

    def check_space(self, required: int) -> None:
        if required > self.max_search_space:
            raise ResourceError("oracle search space exceeds budget",
                                required=required, allowed=self.max_search_space)


def lc_value_exact(lc: LabelCoverInstance,
                   budget: OracleBudget | None = None) -> tuple[Fraction, Labeling]:
    """Exact Label Cover optimum with a canonical maximizing witness.

    Enumerates all labelings of one side (the one with the smaller state
    space, preferring A on ties); for each, every vertex of the other side
    is optimized independently.  The witness is the lexicographically first
    maximizer in that enumeration order.
    """
    budget = budget or OracleBudget()
    if lc.edge_count == 0:
        return Fraction(1), Labeling(tuple([0] * lc.a_count), tuple([0] * lc.b_count))
    space_a = lc.sigma_a ** lc.a_count
    space_b = lc.sigma_b ** lc.b_count
    enum_a = space_a <= space_b
    states, other_sigma = (space_a, lc.sigma_b) if enum_a else (space_b, lc.sigma_a)
    enum_count = lc.a_count if enum_a else lc.b_count
    budget.check_space(states)
    # The dense tables, before any is allocated: a states x other-alphabet
    # score table, a 0/1 alphabet matrix per relation in use, and the cached
    # digit column of every enumerated vertex.
    budget.check_space(states * other_sigma)
    budget.check_space(len(set(lc.edge_arrays()[2].tolist())) * lc.sigma_a * lc.sigma_b)
    budget.check_space(enum_count * states)
    if enum_a:
        best, enum_lab, other_lab = _enumerate_side(
            lc, lc.a_count, lc.sigma_a, lc.b_count, lc.sigma_b, a_side=True)
        witness = Labeling(enum_lab, other_lab)
    else:
        best, enum_lab, other_lab = _enumerate_side(
            lc, lc.b_count, lc.sigma_b, lc.a_count, lc.sigma_a, a_side=False)
        witness = Labeling(other_lab, enum_lab)
    return Fraction(best, lc.edge_count), witness


def _enumerate_side(lc, enum_count, enum_sigma, other_count, other_sigma, a_side):
    ea, eb, rel_ids = lc.edge_arrays()
    if a_side:
        enum_end, other_end = ea, eb
    else:
        enum_end, other_end = eb, ea
    states = enum_sigma ** enum_count
    idx = np.arange(states, dtype=np.int64)
    # digit of the enumerated-side vertex v, most significant first (lex order)
    digit_cache: dict[int, np.ndarray] = {}

    def digits(v: int) -> np.ndarray:
        if v not in digit_cache:
            power = enum_sigma ** (enum_count - 1 - v)
            digit_cache[v] = (idx // power) % enum_sigma
        return digit_cache[v]

    rel_matrices: dict[int, np.ndarray] = {}
    for e, rid in enumerate(rel_ids.tolist()):
        if rid not in rel_matrices:
            mat = np.zeros((lc.sigma_a, lc.sigma_b), dtype=np.int32)
            for alpha, beta in lc.relation(e):
                mat[alpha, beta] = 1
            rel_matrices[rid] = mat if a_side else mat.T

    by_other: list[list[tuple[int, int]]] = [[] for _ in range(other_count)]
    for e in range(lc.edge_count):
        by_other[int(other_end[e])].append((int(enum_end[e]), int(rel_ids[e])))

    total = np.zeros(states, dtype=np.int64)
    for incident in by_other:
        if not incident:
            continue
        acc = np.zeros((states, other_sigma), dtype=np.int32)
        for v, rid in incident:
            acc += rel_matrices[rid][digits(v), :]
        total += acc.max(axis=1)
    best_state = int(np.argmax(total))
    best = int(total[best_state])
    enum_lab = tuple(int(digits(v)[best_state]) for v in range(enum_count))
    other_lab = []
    for ov in range(other_count):
        scores = np.zeros(other_sigma, dtype=np.int64)
        for v, rid in by_other[ov]:
            scores += rel_matrices[rid][enum_lab[v], :]
        other_lab.append(int(np.argmax(scores)))
    return best, enum_lab, tuple(other_lab)


def min_repcover_exact(mr: MinRepInstance,
                       budget: OracleBudget | None = None) -> tuple[int, RepCover]:
    """Exact minimum REP-cover size by size-ascending subset enumeration."""
    budget = budget or OracleBudget()
    lc = mr.source
    n = mr.vertex_count
    budget.check_space(2 ** n)
    pair_masks = []
    for e in range(lc.edge_count):
        a, b = lc.edge(e)
        masks = []
        for alpha, beta in lc.relation(e):
            masks.append((1 << mr.a_vertex(a, alpha)) | (1 << mr.b_vertex(b, beta)))
        pair_masks.append(masks)
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            sel = 0
            for v in combo:
                sel |= 1 << v
            if all(any(sel & pm == pm for pm in masks) for masks in pair_masks):
                members = [mr.vertex_label(v) for v in combo]
                return size, RepCover(members)
    raise AssertionError("unreachable: the full vertex set is always a cover "
                         "when relations are nonempty")


class BitsetSpannerChecker:
    """Shared exhaustive-enumeration helper: is an edge mask a k-spanner?

    Works on graphs small enough for int bitsets (vertex neighborhoods as
    Python ints); the per-edge BFS fails fast on the first violated edge.
    """

    def __init__(self, g: Graph, k: int):
        if k < 1:
            raise InputError("stretch k must be >= 1")
        self.g = g
        self.k = k
        self.edge_list = [g.edge(e) for e in range(g.edge_count)]

    def is_spanner(self, mask: int) -> bool:
        adj = [0] * self.g.vertex_count
        rest = mask
        eid = 0
        edges = self.edge_list
        while rest:
            if rest & 1:
                u, v = edges[eid]
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            rest >>= 1
            eid += 1
        for eid, (u, v) in enumerate(edges):
            if (mask >> eid) & 1:
                continue
            if not self._within(adj, u, v):
                return False
        return True

    def _within(self, adj, src, dst) -> bool:
        target = 1 << dst
        visited = frontier = 1 << src
        for _ in range(self.k):
            nxt = 0
            f = frontier
            while f:
                low = f & -f
                nxt |= adj[low.bit_length() - 1]
                f ^= low
            if nxt & target:
                return True
            frontier = nxt & ~visited
            if not frontier:
                return False
            visited |= frontier
        return False


def min_spanner_exact(g: Graph, k: int,
                      budget: OracleBudget | None = None) -> tuple[int, EdgeSubset]:
    """Exact minimum k-spanner size by size-ascending subset enumeration.
    The stretch is checked before the budget, and both before the work."""
    budget = budget or OracleBudget()
    m = g.edge_count
    if k < 1:
        raise InputError("stretch k must be >= 1")
    budget.check_space(2 ** m)
    checker = BitsetSpannerChecker(g, k)
    for size in range(m + 1):
        for combo in itertools.combinations(range(m), size):
            mask = 0
            for e in combo:
                mask |= 1 << e
            if checker.is_spanner(mask):
                return size, EdgeSubset(g, combo)
    raise AssertionError("unreachable: the full edge set spans itself")


def bfs_distances(g: Graph, src: int, cap: int | None = None) -> list:
    """Exact hop counts from ``src``; entries beyond ``cap`` are INFINITY."""
    if not 0 <= src < g.vertex_count:
        raise InputError(f"source vertex {src} out of range")
    dist = [INFINITY] * g.vertex_count
    dist[src] = 0
    queue = deque([src])
    adj = g.adjacency()
    while queue:
        u = queue.popleft()
        du = dist[u]
        if cap is not None and du >= cap:
            continue
        for w in adj[u]:
            if dist[w] == INFINITY:
                dist[w] = du + 1
                queue.append(w)
    return dist


def spans_all_pairs(g: Graph, h: EdgeSubset, k: int) -> bool:
    """Direct all-pairs stretch check: dist_h(u,v) <= k * dist_g(u,v)."""
    eu, ev = g.edge_arrays()
    sub = Graph(g.vertex_count, eu[h.members], ev[h.members])
    for src in range(g.vertex_count):
        dg = bfs_distances(g, src)
        dh = bfs_distances(sub, src)
        for v in range(g.vertex_count):
            if dg[v] != INFINITY and dh[v] > k * dg[v]:
                return False
    return True


def girth_independent(g: Graph):
    """Second girth formulation: BFS from every vertex, shortest cycle via
    non-tree edges (min over roots of d[u] + d[v] + 1).  A graph is simple,
    so the tree edge into u is the one edge to its parent vertex."""
    best = INFINITY
    adj = g.adjacency()
    for root in range(g.vertex_count):
        dist = [-1] * g.vertex_count
        parent = [-1] * g.vertex_count
        dist[root] = 0
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                du = dist[u]
                if best != INFINITY and du >= best / 2:
                    continue
                for w in adj[u]:
                    if dist[w] == -1:
                        dist[w] = du + 1
                        parent[w] = u
                        nxt.append(w)
                    elif w != parent[u]:
                        cand = du + dist[w] + 1
                        if cand < best:
                            best = cand
            frontier = nxt
    return best
