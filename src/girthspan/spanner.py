"""Gadget graph for the Min-Rep to basic k-spanner reduction.

The gadget attaches, for every copy p in [x], a path tower of length k_a to
each A-side supervertex and of length k_b to each B-side supervertex, wires
tower tops with a copy of the supergraph, and keeps the Min-Rep graph in the
middle.  Edge families:

* ``E``    original Min-Rep edges,
* ``EM``   tower path edges (empty exactly when k = 3),
* ``EsA``  tower level 1 to the A-side Min-Rep group,
* ``EtB``  B-side Min-Rep group to tower level 1,
* ``EGt``  tower-top copies of the supergraph.

The anchor set ("hat" edges) consists of one full star at copy 0 per
supervertex plus one hub edge per (copy, supervertex) to a pinned lowest
symbol.  Its bookkeeping size is n + x*n_tilde, counting the star and hub
roles separately; the copy-0 hub edge coincides with a star edge, so the
distinct-edge union has n + (x-1)*n_tilde members.  Both numbers are
recorded and asserted.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .errors import InputError, ResourceError
from .graphs import (Graph, INFINITY, _decimal_text, _head_lines, _hops, _int_rows,
                     _sorted_distinct, girth, graph_sha256)
from .labelcover import MinRepInstance, RepCover, _relation_slots, repcover_valid, supergraph

FAMILIES = ("E", "EM", "EsA", "EtB", "EGt")
FAM_E, FAM_M, FAM_SA, FAM_TB, FAM_GT = range(5)

DEFAULT_MAX_GADGET_EDGES = 50_000_000


class EdgeSubset:
    """Sorted set of edge ids of a host graph (a candidate spanner)."""

    __slots__ = ("host", "members", "_mask")

    def __init__(self, host: Graph, members):
        self.host = host
        arr = _sorted_distinct(members)
        if arr.size and (arr[0] < 0 or arr[-1] >= host.edge_count):
            raise InputError("edge id out of range for host graph")
        self.members = arr
        self._mask = None

    def mask(self) -> np.ndarray:
        if self._mask is None:
            m = np.zeros(self.host.edge_count, dtype=bool)
            m[self.members] = True
            self._mask = m
        return self._mask

    def __len__(self) -> int:
        return int(self.members.size)

    def __eq__(self, other) -> bool:
        return (isinstance(other, EdgeSubset) and self.host == other.host
                and np.array_equal(self.members, other.members))

    def __repr__(self) -> str:
        return f"EdgeSubset({len(self)} of {self.host.edge_count} edges)"


class SpannerInstance:
    """Gadget graph with role-tagged vertices and partitioned edge families."""

    def __init__(self, base, source, k, x, x_is_default, fam_code,
                 ids_by_family, sa_meta, tb_meta, gt_meta,
                 anchor_star, anchor_hub_a, anchor_hub_b):
        lc = source.source
        self.base: Graph = base
        self.source: MinRepInstance = source
        self.k = k
        self.k_a = (k - 1) // 2
        self.k_b = (k - 1) - self.k_a
        self.x = x
        self.x_is_default = x_is_default
        self.n = source.vertex_count
        self.n_tilde = lc.a_count + lc.b_count
        self.fam_code = fam_code
        self.ids_by_family = ids_by_family
        self.sa_p, self.sa_i, self.sa_sym = sa_meta
        self.tb_p, self.tb_j, self.tb_sym = tb_meta
        self.gt_p, self.gt_superedge = gt_meta
        self.anchor_star = anchor_star          # edge id per Min-Rep vertex
        self.anchor_hub_a = anchor_hub_a        # (x, |A|) edge ids
        self.anchor_hub_b = anchor_hub_b        # (x, |B|) edge ids
        hub_flat = np.concatenate([anchor_hub_a.ravel(), anchor_hub_b.ravel()])
        self.anchor_distinct = _sorted_distinct(np.concatenate([anchor_star, hub_flat]))
        self.anchor_roster_size = int(anchor_star.size + hub_flat.size)

    # -- vertex layout ---------------------------------------------------

    @property
    def _s_offset(self) -> int:
        return self.n

    @property
    def _t_offset(self) -> int:
        return self.n + self.x * self.source.source.a_count * self.k_a

    def s_vertex(self, p: int, i: int, level: int) -> int:
        return self._s_offset + (p * self.source.source.a_count + i) * self.k_a + (level - 1)

    def t_vertex(self, p: int, j: int, level: int) -> int:
        return self._t_offset + (p * self.source.source.b_count + j) * self.k_b + (level - 1)

    def vertex_role(self, v: int) -> tuple:
        lc = self.source.source
        if v < self.n:
            return self.source.vertex_label(v)
        if v < self._t_offset:
            q = v - self._s_offset
            tower, level = divmod(q, self.k_a)
            p, i = divmod(tower, lc.a_count)
            return ("S", i, level + 1, p)
        q = v - self._t_offset
        tower, level = divmod(q, self.k_b)
        p, j = divmod(tower, lc.b_count)
        return ("T", j, level + 1, p)

    def anchor_choice_a(self, i: int) -> int:
        return self.source.a_vertex(i, 0)

    def anchor_choice_b(self, j: int) -> int:
        return self.source.b_vertex(j, 0)

    # -- invariant audit ---------------------------------------------------

    def audit(self) -> None:
        """Assert every structural invariant of the construction."""
        lc = self.source.source
        expect_v = self.n + self.x * (self.n_tilde // 2) * (self.k - 1)
        if self.base.vertex_count != expect_v:
            raise AssertionError("vertex count formula violated")
        if self.anchor_roster_size != self.n + self.x * self.n_tilde:
            raise AssertionError("anchor roster size formula violated")
        expected_distinct = self.n + (self.x - 1) * self.n_tilde
        if self.anchor_distinct.size != expected_distinct:
            raise AssertionError("anchor distinct-union size violated")
        if (self.k == 3) != (self.ids_by_family[FAM_M].size == 0):
            raise AssertionError("EM emptiness must coincide with k = 3")
        if self.ids_by_family[FAM_GT].size != self.x * lc.edge_count:
            raise AssertionError("EGt family size violated")
        # Each copy holds every superedge exactly once: every (copy, superedge)
        # pair is in range and occurs once.
        p, se, m = self.gt_p, self.gt_superedge, lc.edge_count
        if (p.size != self.x * m or se.size != p.size or (p < 0).any() or (p >= self.x).any()
                or (se < 0).any() or (se >= m).any()
                or (np.bincount(p * m + se, minlength=self.x * m) != 1).any()):
            raise AssertionError("EGt copies are not supergraph-isomorphic")
        sizes = sum(int(self.ids_by_family[f].size) for f in range(5))
        if sizes != self.base.edge_count:
            raise AssertionError("edge families do not partition the edge set")


def default_copies(n: int, n_tilde: int) -> int:
    """Default copy count: ceil(n^2 / n_tilde)."""
    return -(-n * n // n_tilde)


def build_spanner_instance(mr: MinRepInstance, k: int, x_override: int | None = None,
                           allow_small_supergirth: bool = False,
                           max_edges: int = DEFAULT_MAX_GADGET_EDGES) -> SpannerInstance:
    """Assemble the gadget graph for a Min-Rep instance with stretch k.

    Requires k >= 3, equal side sizes, and source supergirth >= k + 2 (the
    reduction's hypothesis; pass allow_small_supergirth=True to downgrade
    the girth check to a warning recorded on the instance).
    """
    lc = mr.source
    if k < 3:
        raise InputError("stretch k must be >= 3")
    if lc.a_count != lc.b_count:
        raise InputError("gadget construction requires |A| = |B|")
    sg = girth(supergraph(lc))
    if sg != INFINITY and sg < k + 2:
        if not allow_small_supergirth:
            raise InputError(
                f"supergirth {int(sg)} is below the required {k + 2}; a short "
                f"supercycle exists (strip cycles of length <= {k + 1} first)")
    k_a = (k - 1) // 2
    k_b = (k - 1) - k_a
    n = mr.vertex_count
    n_tilde = lc.a_count + lc.b_count
    x = x_override if x_override is not None else default_copies(n, n_tilde)
    if x < 1:
        raise InputError("copy count x must be >= 1")

    a_cnt, b_cnt = lc.a_count, lc.b_count
    sigma_a, sigma_b = lc.sigma_a, lc.sigma_b
    m_E = mr.minrep_graph.edge_count
    m_M = x * (a_cnt * (k_a - 1) + b_cnt * (k_b - 1))
    m_sA = x * a_cnt * sigma_a
    m_tB = x * b_cnt * sigma_b
    m_Gt = x * lc.edge_count
    total_edges = m_E + m_M + m_sA + m_tB + m_Gt
    if total_edges > max_edges:
        raise ResourceError("gadget edge budget exceeded",
                            required=total_edges, allowed=max_edges)

    s_off = n
    t_off = n + x * a_cnt * k_a
    vertex_count = n + x * a_cnt * k_a + x * b_cnt * k_b
    s_bases = s_off + np.arange(x * a_cnt, dtype=np.int64) * k_a
    t_bases = t_off + np.arange(x * b_cnt, dtype=np.int64) * k_b
    b_block = a_cnt * sigma_a

    # One chunk per family, in FAMILIES order.  EsA row (p * a_cnt + i) *
    # sigma_a + alpha joins s-tower (p, i) to Min-Rep vertex (A, i, alpha);
    # EtB row (p * b_cnt + j) * sigma_b + beta joins (B, j, beta) to
    # t-tower (p, j); EGt row p * |superedges| + e is copy p of superedge e.
    em_lo = np.concatenate([(s_bases[:, None] + np.arange(k_a - 1)).ravel(),
                            (t_bases[:, None] + np.arange(k_b - 1)).ravel()])
    ea, eb, _ = lc.edge_arrays()
    copy_of_gt = np.repeat(np.arange(x, dtype=np.int64), lc.edge_count)
    chunks = [
        mr.minrep_graph.edge_arrays(),
        (em_lo, em_lo + 1),
        (np.repeat(s_bases, sigma_a), np.tile(np.arange(b_block, dtype=np.int64), x)),
        (np.tile(np.arange(b_block, n, dtype=np.int64), x), np.repeat(t_bases, sigma_b)),
        (s_off + (copy_of_gt * a_cnt + np.tile(ea, x)) * k_a + (k_a - 1),
         t_off + (copy_of_gt * b_cnt + np.tile(eb, x)) * k_b + (k_b - 1)),
    ]
    sizes = [cu.size for cu, _ in chunks]
    start = np.cumsum([0] + sizes)
    base, order = Graph._from_arrays_with_order(
        vertex_count, np.concatenate([cu for cu, _ in chunks]),
        np.concatenate([cv for _, cv in chunks]))

    # Edge id e is row order[e] of the concatenated chunks, so the family
    # tables follow from that one sort, in edge id order.
    fam_code = np.repeat(np.arange(5, dtype=np.int8), sizes)[order]
    ids = [np.flatnonzero(fam_code == f) for f in range(5)]
    tower, sa_sym = np.divmod(order[ids[FAM_SA]] - start[FAM_SA], sigma_a)
    sa_p, sa_i = np.divmod(tower, a_cnt)
    tower, tb_sym = np.divmod(order[ids[FAM_TB]] - start[FAM_TB], sigma_b)
    tb_p, tb_j = np.divmod(tower, b_cnt)
    gt_p, gt_se = np.divmod(order[ids[FAM_GT]] - start[FAM_GT], lc.edge_count)
    # Copy 0 is the first block of each crossing chunk: Min-Rep vertex u's
    # star edge is its copy-0 row, and the hub of each tower is its symbol-0 row.
    row_id = np.empty_like(order)
    row_id[order] = np.arange(order.size)
    anchor_star = np.concatenate([row_id[start[FAM_SA]:start[FAM_SA] + b_block],
                                  row_id[start[FAM_TB]:start[FAM_TB] + n - b_block]])
    anchor_hub_a = row_id[start[FAM_SA]:start[FAM_TB]:sigma_a].reshape(x, a_cnt)
    anchor_hub_b = row_id[start[FAM_TB]:start[FAM_GT]:sigma_b].reshape(x, b_cnt)

    si = SpannerInstance(
        base, mr, k, x, x_override is None, fam_code, dict(enumerate(ids)),
        (sa_p, sa_i, sa_sym), (tb_p, tb_j, tb_sym), (gt_p, gt_se),
        anchor_star, anchor_hub_a, anchor_hub_b)
    si.supergirth_warning = (sg != INFINITY and sg < k + 2)
    si.audit()
    return si


# --- verification ------------------------------------------------------------


def verify_spanner(g: Graph, h: EdgeSubset, k: int) -> tuple[bool, int | None]:
    """Check dist over h-edges <= k for every host edge (u, v).

    On unweighted graphs this per-edge test is equivalent to the all-pairs
    stretch condition.  Returns (True, None) or (False, first violated edge).
    """
    if h.host != g:
        raise InputError("subset host does not match the verified graph")
    if k < 1:
        raise InputError("stretch k must be >= 1")
    return _first_unspanned(g, h, np.flatnonzero(~h.mask()), k)


def verify_spanner_structured(si: SpannerInstance, h: EdgeSubset) -> tuple[bool, int | None]:
    """Family-aware verify: identical verdict/witness to verify_spanner.

    Edges in h are spanned by themselves.  A missing EsA or EtB edge is
    certified when its anchor 3-path (own-copy hub, copy-0 hub, copy-0
    star edge) lies in h.  A missing EGt edge is certified by
    ``canonical_span_mask``: one closed-form pass over every (copy,
    superedge, relation pair) that marks exactly the edges for which
    ``canonical_span_check``, the scalar reference, returns a path.  Each
    certificate is an explicit path of length <= k, so it never passes an
    edge the exact check would fail.  Every edge left uncertified goes to
    the exact capped BFS in ascending edge id, and the first one that BFS
    cannot span is the witness.  The exact check would scan the same edges
    in the same order and fail first on that same edge, so verdict and
    witness equal ``verify_spanner``'s.
    """
    g = si.base
    if h.host != g:
        raise InputError("subset host does not match the verified graph")
    mask = h.mask()
    certified = mask.copy()
    k = si.k

    ids = si.ids_by_family[FAM_SA]
    pend = ~mask[ids]
    if pend.any() and k >= 3:
        p, i = si.sa_p[pend], si.sa_i[pend]
        u = i * si.source.source.sigma_a + si.sa_sym[pend]
        ok = (mask[si.anchor_hub_a[p, i]] & mask[si.anchor_hub_a[0, i]]
              & mask[si.anchor_star[u]])
        certified[ids[pend]] |= ok

    ids = si.ids_by_family[FAM_TB]
    pend = ~mask[ids]
    if pend.any() and k >= 3:
        p, j = si.tb_p[pend], si.tb_j[pend]
        u = si.source.source.a_count * si.source.source.sigma_a \
            + j * si.source.source.sigma_b + si.tb_sym[pend]
        ok = (mask[si.anchor_hub_b[p, j]] & mask[si.anchor_hub_b[0, j]]
              & mask[si.anchor_star[u]])
        certified[ids[pend]] |= ok

    certified[si.ids_by_family[FAM_GT]] |= canonical_span_mask(si, h)

    return _first_unspanned(g, h, np.flatnonzero(~certified), k)


def _first_unspanned(g: Graph, h: EdgeSubset, eids: np.ndarray, k: int):
    """(False, first edge of ``eids`` whose endpoints are more than k hops
    apart over h), or (True, None) when there is none."""
    if eids.size == 0:
        return True, None
    eu, ev = g.edge_arrays()
    adj = Graph.from_arrays(g.vertex_count, eu[h.members], ev[h.members]).adjacency()
    for eid, u, v in zip(eids.tolist(), eu[eids].tolist(), ev[eids].tolist()):
        if _hops(adj, u, v, k) == INFINITY:
            return False, eid
    return True, None


def canonical_span_mask(si: SpannerInstance, h: EdgeSubset) -> np.ndarray:
    """Which EGt edges have a canonical path inside h, all at once.

    Entry r answers for edge ``si.ids_by_family[FAM_GT][r]`` and is True
    exactly when ``canonical_span_check`` returns a path for it.  Copy p's
    edge over superedge e = (i, j) qualifies when both of its towers are
    intact in h and some relation pair (alpha, beta) of e has its EsA edge
    sa[p, i, alpha], its Min-Rep edge and its EtB edge tb[p, j, beta] in h.
    The pair test runs over an (x, relation slots) table and is OR-reduced
    per superedge.
    """
    mask = h.mask()
    lc = si.source.source
    sa, tb = _crossing_tables(si)
    starts, slot_se, alpha, beta = _relation_slots(lc)
    ea, eb, _ = lc.edge_arrays()
    i, j = ea[slot_se], eb[slot_se]
    minrep = si.base.edge_ids_of(si.source.a_vertex(i, alpha), si.source.b_vertex(j, beta))
    ok = mask[sa][:, i, alpha] & mask[minrep] & mask[tb][:, j, beta]
    ok = np.logical_or.reduceat(ok, starts, axis=1)
    s_ok = _tower_intact(si.base, mask, si._s_offset, si.x * lc.a_count, si.k_a)
    t_ok = _tower_intact(si.base, mask, si._t_offset, si.x * lc.b_count, si.k_b)
    ok &= s_ok.reshape(si.x, lc.a_count)[:, ea] & t_ok.reshape(si.x, lc.b_count)[:, eb]
    return ok[si.gt_p, si.gt_superedge]


def _crossing_tables(si: SpannerInstance) -> tuple[np.ndarray, np.ndarray]:
    """Edge id tables sa[p, i, alpha] (s-tower (p, i) level 1 to Min-Rep
    vertex (A, i, alpha)) and tb[p, j, beta] ((B, j, beta) to t-tower (p, j)
    level 1)."""
    lc = si.source.source
    sa = np.empty((si.x, lc.a_count, lc.sigma_a), dtype=np.int64)
    sa[si.sa_p, si.sa_i, si.sa_sym] = si.ids_by_family[FAM_SA]
    tb = np.empty((si.x, lc.b_count, lc.sigma_b), dtype=np.int64)
    tb[si.tb_p, si.tb_j, si.tb_sym] = si.ids_by_family[FAM_TB]
    return sa, tb


def _tower_intact(g: Graph, mask: np.ndarray, offset: int, towers: int,
                  height: int) -> np.ndarray:
    """For each of ``towers`` consecutive towers of ``height`` vertices from
    ``offset``: are all of its EM edges in mask?"""
    bases = offset + np.arange(towers, dtype=np.int64) * height
    intact = np.ones(towers, dtype=bool)
    for o in range(height - 1):
        intact &= mask[g.edge_ids_of(bases + o, bases + o + 1)]
    return intact


def canonical_span_check(si: SpannerInstance, h: EdgeSubset, eid: int):
    """Canonical path for an EGt edge fully inside h, or None.

    A canonical path descends the s-tower, crosses via one EsA edge, one
    Min-Rep edge, one EtB edge, and ascends the t-tower; its length is
    exactly k.  The (u, w) choice is the lexicographically first relation
    pair whose three crossing edges are all present.  This is the per-edge
    reference for ``canonical_span_mask``, which the verifier uses.
    """
    if si.fam_code[eid] != FAM_GT:
        raise InputError(f"edge {eid} is not an EGt edge")
    mask = h.mask()
    pos = int(np.searchsorted(si.ids_by_family[FAM_GT], eid))
    p = int(si.gt_p[pos])
    se = int(si.gt_superedge[pos])
    lc = si.source.source
    i, j = lc.edge(se)
    g = si.base
    s_path = [si.s_vertex(p, i, lvl) for lvl in range(si.k_a, 0, -1)]
    t_path = [si.t_vertex(p, j, lvl) for lvl in range(1, si.k_b + 1)]
    for a, b in zip(s_path, s_path[1:]):
        if not mask[g.edge_id(a, b)]:
            return None
    for a, b in zip(t_path, t_path[1:]):
        if not mask[g.edge_id(a, b)]:
            return None
    s1, t1 = s_path[-1], t_path[0]
    for alpha, beta in lc.relation(se).pairs:
        u = si.source.a_vertex(i, alpha)
        w = si.source.b_vertex(j, beta)
        if mask[g.edge_id(s1, u)] and mask[g.edge_id(u, w)] and mask[g.edge_id(w, t1)]:
            return s_path + [u, w] + t_path
    return None


# --- reduction directions -----------------------------------------------------


def make_proper(si: SpannerInstance, h: EdgeSubset) -> EdgeSubset:
    """Convert a valid k-spanner into one containing no EGt edges.

    Keeps h minus EGt, adds E, EM, and the anchor set, then repairs each
    dropped EGt edge with the two crossing edges of a pinned canonical path
    (lexicographically first realizing Min-Rep edge).
    """
    ok, witness = verify_spanner_structured(si, h)
    if not ok:
        raise InputError(f"not a {si.k}-spanner: edge {witness} is violated")
    mask = h.mask().copy()
    gt_ids = si.ids_by_family[FAM_GT]
    dropped = mask[gt_ids]
    mask[gt_ids] = False
    keep = [np.nonzero(mask)[0], si.ids_by_family[FAM_E], si.ids_by_family[FAM_M],
            si.anchor_distinct]
    lc = si.source.source
    sa, tb = _crossing_tables(si)
    starts, _, alpha, beta = _relation_slots(lc)
    ea, eb, _ = lc.edge_arrays()
    p, se = si.gt_p[dropped], si.gt_superedge[dropped]
    first = starts[se]
    keep += [sa[p, ea[se], alpha[first]], tb[p, eb[se], beta[first]]]
    return EdgeSubset(si.base, np.concatenate(keep))


def repcover_from_spanner(si: SpannerInstance, h: EdgeSubset) -> RepCover:
    """REP-cover from a valid k-spanner via the best copy's crossing edges.

    After making h proper, copy p induces the candidate cover of all group
    vertices touching its EsA/EtB edges; the smallest copy wins, so the
    result has at most (proper size) / x members.
    """
    proper = make_proper(si, h)
    mask = proper.mask()
    sa_in = mask[si.ids_by_family[FAM_SA]]
    tb_in = mask[si.ids_by_family[FAM_TB]]
    counts = (np.bincount(si.sa_p[sa_in], minlength=si.x)
              + np.bincount(si.tb_p[tb_in], minlength=si.x))
    best_p = int(np.argmin(counts))
    pick_a = sa_in & (si.sa_p == best_p)
    pick_b = tb_in & (si.tb_p == best_p)
    members = [("A", int(i), int(s)) for i, s in zip(si.sa_i[pick_a], si.sa_sym[pick_a])]
    members += [("B", int(j), int(s)) for j, s in zip(si.tb_j[pick_b], si.tb_sym[pick_b])]
    cover = RepCover.of(members)
    ok, witness = repcover_valid(si.source, cover)
    if not ok:
        raise AssertionError(f"extracted cover misses superedge {witness}")
    return cover


def spanner_from_repcover(si: SpannerInstance, cover: RepCover) -> EdgeSubset:
    """k-spanner from a valid REP-cover: cover stars on every copy plus
    E, EM, and the anchor set.

    With the default copy count and a cover of at least n_tilde members, the
    output has at most (k+1) * x * |cover| edges; that bound is asserted.
    Overridden copy counts can break the arithmetic, so it is not enforced
    for them.
    """
    ok, witness = repcover_valid(si.source, cover)
    if not ok:
        raise InputError(f"invalid REP-cover: superedge {witness} uncovered")
    lc = si.source.source
    g = si.base
    ids = [si.ids_by_family[FAM_E], si.ids_by_family[FAM_M], si.anchor_distinct]
    a_members = [(i, s) for side, i, s in cover.members if side == "A"]
    b_members = [(j, s) for side, j, s in cover.members if side == "B"]
    copies = np.arange(si.x, dtype=np.int64)[:, None]
    if a_members:
        i_arr, s_arr = np.array(a_members, dtype=np.int64).T
        us = si._s_offset + (copies * lc.a_count + i_arr) * si.k_a
        ids.append(g.edge_ids_of(us, si.source.a_vertex(i_arr, s_arr)).ravel())
    if b_members:
        j_arr, s_arr = np.array(b_members, dtype=np.int64).T
        vs = si._t_offset + (copies * lc.b_count + j_arr) * si.k_b
        ids.append(g.edge_ids_of(si.source.b_vertex(j_arr, s_arr), vs).ravel())
    out = EdgeSubset(g, np.concatenate(ids))
    if si.x_is_default and len(cover) >= si.n_tilde:
        bound = (si.k + 1) * si.x * len(cover)
        if len(out) > bound:
            raise AssertionError(f"size bound violated: {len(out)} > {bound}")
    return out


# --- greedy baseline ----------------------------------------------------------


def greedy_spanner(g: Graph, k: int) -> EdgeSubset:
    """Classical greedy: keep an edge iff its endpoints are currently more
    than k hops apart.  The output verifies and has girth > k + 1."""
    if k < 1:
        raise InputError("stretch k must be >= 1")
    adj: list[list[int]] = [[] for _ in range(g.vertex_count)]
    chosen = []
    for eid, (u, v) in enumerate(g.edges()):
        if _hops(adj, u, v, k) == INFINITY:
            adj[u].append(v)
            adj[v].append(u)
            chosen.append(eid)
    return EdgeSubset(g, np.array(chosen, dtype=np.int64))


# --- SUBSET v1 text format -----------------------------------------------------


def write_subset_text(h: EdgeSubset) -> str:
    head = f"SUBSET v1\nHOST sha256:{graph_sha256(h.host)}\n"
    return head + _decimal_text([h.members]).decode("ascii")


def parse_subset_text(text: str, host: Graph) -> EdgeSubset:
    lines, _, start = _head_lines(text, 2, skip_blank=True)
    if not lines or lines[0] != "SUBSET v1":
        raise InputError("missing SUBSET v1 header")
    if len(lines) < 2 or not lines[1].startswith("HOST sha256:"):
        raise InputError("missing HOST hash line")
    if lines[1].split("sha256:", 1)[1] != graph_sha256(host):
        raise InputError("subset host hash does not match the given graph")
    ids, _, _, line = _int_rows(text, start, "edge id", width=1)
    unsorted = np.diff(ids) <= 0
    if unsorted.any():
        raise InputError(f"line {line[unsorted.argmax() + 1]}: "
                         "subset edge ids must be sorted and distinct")
    return EdgeSubset(host, ids)


def gadget_metadata(si: SpannerInstance) -> dict:
    """Sidecar document (schema ``gadget_meta_v2``): parameters, sizes, anchors.

    Per-vertex roles and per-edge families are not stored; both follow from
    the fields, as ``SpannerInstance.vertex_role`` and ``fam_code`` compute
    them.  With ``a_block = a_count * sigma_a`` and
    ``t_offset = n + x * a_count * k_a``, vertex v is

    * ``("A", v // sigma_a, v % sigma_a)`` for v < a_block,
    * ``("B", w // sigma_b, w % sigma_b)`` with w = v - a_block, for v < n,
    * ``("S", i, level + 1, p)`` for v < t_offset, where
      ``tower, level = divmod(v - n, k_a)`` and ``p, i = divmod(tower, a_count)``,
    * ``("T", j, level + 1, p)`` otherwise, where
      ``tower, level = divmod(v - t_offset, k_b)`` and ``p, j = divmod(tower, b_count)``.

    An edge's family follows from the kinds of its two endpoints: A/B with
    A/B is ``E``, S with S or T with T is ``EM`` (one tower's path), A with
    S is ``EsA``, B with T is ``EtB``, and S with T is ``EGt``.
    """
    lc = si.source.source
    return {
        "schema": "gadget_meta_v2",
        "k": si.k, "k_a": si.k_a, "k_b": si.k_b,
        "x": si.x, "x_is_default": si.x_is_default,
        "n": si.n, "n_tilde": si.n_tilde,
        "a_count": lc.a_count, "b_count": lc.b_count,
        "sigma_a": lc.sigma_a, "sigma_b": lc.sigma_b,
        "vertex_count": si.base.vertex_count,
        "edge_count": si.base.edge_count,
        "family_sizes": {FAMILIES[f]: int(si.ids_by_family[f].size) for f in range(5)},
        "anchor_roster_size": si.anchor_roster_size,
        "anchor_distinct_size": int(si.anchor_distinct.size),
        "anchor_choices_a": [int(si.anchor_choice_a(i)) for i in range(lc.a_count)],
        "anchor_choices_b": [int(si.anchor_choice_b(j)) for j in range(lc.b_count)],
        "anchor_members": si.anchor_distinct.tolist(),
        "source_hash": hashlib.sha256(
            _lc_bytes(lc)).hexdigest(),
    }


def write_gadget_meta_text(si: SpannerInstance) -> str:
    """The ``gadget_meta_v2`` sidecar as compact JSON text with sorted keys."""
    return json.dumps(gadget_metadata(si), sort_keys=True)


def _lc_bytes(lc) -> bytes:
    from .labelcover import write_lc_text
    return write_lc_text(lc).encode("utf-8")
