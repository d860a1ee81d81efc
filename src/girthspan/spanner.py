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
from .graphs import (Graph, INFINITY, _decimal_blocks, _head_lines, _hops, _int_rows,
                     _line_number, _row_offset, _sorted_distinct, _text_bytes, girth,
                     graph_sha256)
from .labelcover import (MinRepInstance, RepCover, _lc_chunks, _relation_slots, repcover_valid,
                         supergraph)

FAMILIES = ("E", "EM", "EsA", "EtB", "EGt")
FAM_E, FAM_M, FAM_SA, FAM_TB, FAM_GT = range(5)

DEFAULT_MAX_GADGET_EDGES = 50_000_000


class EdgeSubset:
    """Sorted set of edge ids of a host graph (a candidate spanner)."""

    __slots__ = ("host", "members", "_mask")

    def __init__(self, host: Graph, members):
        self._set_members(host, _sorted_distinct(members))

    @classmethod
    def _from_sorted(cls, host: Graph, members: np.ndarray) -> "EdgeSubset":
        """An EdgeSubset of int64 ids already proved sorted and distinct, as
        ``parse_subset_text`` checks them.  Skips the sort."""
        h = cls.__new__(cls)
        h._set_members(host, members)
        return h

    def _set_members(self, host: Graph, arr: np.ndarray) -> None:
        if arr.size and (arr[0] < 0 or arr[-1] >= host.edge_count):
            raise InputError("edge id out of range for host graph")
        self.host = host
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
    """Gadget graph with role-tagged vertices and partitioned edge families.

    Edge ids follow the canonical (lower end, higher end) order that
    numbers the edges of every ``Graph``; ``build_spanner_instance`` lays
    it out in closed form: per Min-Rep vertex its E edges up, then its
    crossing edges; per s-tower its EM edges, then its top's EGt edges; per
    t-tower its EM edges.  The layout is held only as read-only tables of
    edge ids, one per family:

    * ``tower_s[p, i, l]``, (x, |A|, k_a - 1): the EM edge from level l + 1
      to l + 2 of s-tower (p, i); ``tower_t[p, j, l]``, (x, |B|, k_b - 1),
      the same for t-tower (p, j).  Both are empty at k = 3.
    * ``crossing_sa[p, i, alpha]``, (x, |A|, sigma_A): the EsA edge from
      s-tower (p, i) level 1 to Min-Rep vertex (A, i, alpha).
    * ``crossing_tb[p, j, beta]``, (x, |B|, sigma_B): the EtB edge from
      Min-Rep vertex (B, j, beta) to t-tower (p, j) level 1.
    * ``gt_copies[p, e]``, (x, |superedges|): copy p of superedge e = (i, j),
      the EGt edge joining the tops of s-tower (p, i) and t-tower (p, j).
    """

    def __init__(self, base, source, k, x, x_is_default, fam_code, ids_by_family,
                 tower_s, tower_t, crossing_sa, crossing_tb, gt_copies):
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
        self.tower_s = tower_s
        self.tower_t = tower_t
        self.crossing_sa = crossing_sa
        self.crossing_tb = crossing_tb
        self.gt_copies = gt_copies
        # A Min-Rep vertex's star edge is its copy-0 crossing edge, and each
        # tower's hub is its symbol-0 crossing edge.
        roster = [crossing_sa[0], crossing_tb[0], crossing_sa[:, :, 0], crossing_tb[:, :, 0]]
        self.anchor_distinct = _sorted_distinct(np.concatenate([a.ravel() for a in roster]))
        self.anchor_distinct.flags.writeable = False
        self.anchor_roster_size = sum(a.size for a in roster)

    # -- vertex layout ---------------------------------------------------

    @property
    def _t_offset(self) -> int:
        return self.n + self.x * self.source.source.a_count * self.k_a

    def s_vertex(self, p: int, i: int, level: int) -> int:
        return self.n + (p * self.source.source.a_count + i) * self.k_a + (level - 1)

    def t_vertex(self, p: int, j: int, level: int) -> int:
        return self._t_offset + (p * self.source.source.b_count + j) * self.k_b + (level - 1)

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
        sizes = sum(int(self.ids_by_family[f].size) for f in range(5))
        if sizes != self.base.edge_count:
            raise AssertionError("edge families do not partition the edge set")
        # Every table entry is the edge joining the two vertices the layout
        # names, lower-numbered end first.
        eu, ev = self.base.edge_arrays()
        ea, eb, _ = lc.edge_arrays()
        p = np.arange(self.x)[:, None, None]
        i, j = np.arange(lc.a_count)[:, None], np.arange(lc.b_count)[:, None]
        s_lvl = self.s_vertex(p, i, np.arange(1, self.k_a))
        t_lvl = self.t_vertex(p, j, np.arange(1, self.k_b))
        ends = {"tower_s": (s_lvl, s_lvl + 1), "tower_t": (t_lvl, t_lvl + 1),
                "crossing_sa": (self.source.a_vertex(i, np.arange(lc.sigma_a)),
                                self.s_vertex(p, i, 1)),
                "crossing_tb": (self.source.b_vertex(j, np.arange(lc.sigma_b)),
                                self.t_vertex(p, j, 1)),
                "gt_copies": (self.s_vertex(p[:, 0], ea, self.k_a),
                              self.t_vertex(p[:, 0], eb, self.k_b))}
        for name, (lo, hi) in ends.items():
            table = getattr(self, name)
            if (table.shape != np.broadcast_shapes(lo.shape, hi.shape)
                    or ((table < 0) | (table >= eu.size)).any()
                    or (eu[table] != lo).any() or (ev[table] != hi).any()):
                raise AssertionError(f"{name} entries do not join the layout's vertices")


def default_copies(n: int, n_tilde: int) -> int:
    """Default copy count: ceil(n^2 / n_tilde)."""
    return -(-n * n // n_tilde)


def check_gadget_params(k: int, x_override: int | None = None) -> None:
    """Reject a stretch below 3 or a copy count below 1 with InputError."""
    if k < 3:
        raise InputError("stretch k must be >= 3")
    if x_override is not None and x_override < 1:
        raise InputError("copy count x must be >= 1")


def check_gadget_budget(a_count: int, b_count: int, sigma_a: int, sigma_b: int, k: int,
                        x: int, superedges: int = 0, minrep_edges: int = 0,
                        max_edges: int = DEFAULT_MAX_GADGET_EDGES) -> None:
    """Reject with ResourceError a gadget of more than ``max_edges`` edges:
    the Min-Rep edges E, then per copy EM and EsA per A tower, EM and EtB
    per B tower, and EGt.  Left at 0, ``superedges`` and ``minrep_edges``
    make the count a lower bound that the sides and alphabets alone give,
    which holds before sampling and stripping choose the superedges."""
    k_a = (k - 1) // 2
    k_b = (k - 1) - k_a
    total = minrep_edges + x * (a_count * (k_a - 1 + sigma_a) + b_count * (k_b - 1 + sigma_b)
                                + superedges)
    if total > max_edges:
        raise ResourceError("gadget edge budget exceeded", required=total, allowed=max_edges)


def build_spanner_instance(mr: MinRepInstance, k: int, x_override: int | None = None,
                           allow_small_supergirth: bool = False,
                           max_edges: int = DEFAULT_MAX_GADGET_EDGES) -> SpannerInstance:
    """Assemble the gadget graph for a Min-Rep instance with stretch k.

    Requires k >= 3, equal side sizes, and source supergirth >= k + 2 (the
    reduction's hypothesis; pass allow_small_supergirth=True to downgrade
    the girth check to a warning recorded on the instance).

    Edges are made in canonical (lower end, higher end) order, since edge
    ids are positions in it for every ``Graph``: ``edge_ids_of`` binary-
    searches it and GRAPH v1 text lists it.  The vertex layout being fixed
    arithmetic, each edge is made at its position, with no sort.  Vertex
    u's row holds the edges of lower end u, and rows follow vertex order:

    1. Min-Rep row u, from the sum over w < u of up(w) + x (up(w) E edges
       have lower end w): its E edges up, in ``minrep_graph`` order, then
       its x crossing edges, copy 0 first (EsA to s(p, i, 1), EtB to
       t(p, j, 1)).
    2. s-tower rows, from S0 = |E| + x n.  Tower (p, i), from S0 + p (|A|
       (k_a - 1) + |superedges|) + i (k_a - 1) + the A-degrees before i,
       holds its k_a - 1 EM edges, then its top's EGt edges in (a, b) order.
    3. t-tower rows, from T0 = S0 + x (|A| (k_a - 1) + |superedges|):
       tower (p, j) holds its k_b - 1 EM edges.

    The edges are checked canonical as ``parse_graph_text`` checks a GRAPH,
    and each slot written by exactly one family.
    """
    check_gadget_params(k, x_override)
    lc = mr.source
    if lc.a_count != lc.b_count:
        raise InputError("gadget construction requires |A| = |B|")
    sg = girth(supergraph(lc))
    if sg < k + 2 and not allow_small_supergirth:
        raise InputError(
            f"supergirth {int(sg)} is below the required {k + 2}; a short "
            f"supercycle exists (strip cycles of length <= {k + 1} first)")
    k_a = (k - 1) // 2
    k_b = (k - 1) - k_a
    n = mr.vertex_count
    n_tilde = lc.a_count + lc.b_count
    x = x_override if x_override is not None else default_copies(n, n_tilde)

    a_cnt, b_cnt = lc.a_count, lc.b_count
    sigma_a, sigma_b = lc.sigma_a, lc.sigma_b
    check_gadget_budget(a_cnt, b_cnt, sigma_a, sigma_b, k, x, lc.edge_count,
                        mr.minrep_graph.edge_count, max_edges)

    t_off = n + x * a_cnt * k_a
    vertex_count = t_off + x * b_cnt * k_b
    # Vertices: level 1 of s-tower (p, i) and of t-tower (p, j), shape
    # (x, side, 1), with level l at l - 1 above it, and the Min-Rep groups.
    p = np.arange(x, dtype=np.int64)[:, None, None]
    s_one = n + (p * a_cnt + np.arange(a_cnt)[:, None]) * k_a
    t_one = t_off + (p * b_cnt + np.arange(b_cnt)[:, None]) * k_b
    s_lvl, t_lvl = s_one + np.arange(k_a - 1), t_one + np.arange(k_b - 1)
    a_group = np.arange(a_cnt * sigma_a, dtype=np.int64).reshape(a_cnt, sigma_a)
    b_group = np.arange(a_cnt * sigma_a, n, dtype=np.int64).reshape(b_cnt, sigma_b)

    # Edge ids, rows 1-3 above.  Min-Rep row u's copy-p crossing edge is
    # cross0[u] + p; copy p of the s-tower rows starts at s_copy[p].
    e_lo, e_hi = mr.minrep_graph.edge_arrays()
    ea, eb, _ = lc.edge_arrays()
    s_stride = a_cnt * (k_a - 1) + ea.size
    s_copy = e_lo.size + x * n + p[:, :, 0] * s_stride
    t0 = e_lo.size + x * (n + s_stride)
    edge_count = t0 + x * b_cnt * (k_b - 1)
    cross0 = np.searchsorted(e_lo, np.arange(n), side="right") + x * np.arange(n)
    crossing_sa, crossing_tb = cross0[a_group] + p, cross0[b_group] + p
    s_row = s_copy + np.arange(a_cnt) * (k_a - 1) + np.searchsorted(ea, np.arange(a_cnt))
    tower_s = s_row[:, :, None] + np.arange(k_a - 1)
    tower_t = t0 + np.arange(x * b_cnt * (k_b - 1), dtype=np.int64).reshape(x, b_cnt, k_b - 1)
    gt_copies = s_copy + (ea + 1) * (k_a - 1) + np.arange(ea.size)

    fam_code = np.full(edge_count, -1, dtype=np.int8)
    eu, ev = np.empty((2, edge_count), dtype=np.int64)
    for fam, table, lo, hi in [
            (FAM_E, np.arange(e_lo.size) + x * e_lo, e_lo, e_hi),
            (FAM_M, tower_s, s_lvl, s_lvl + 1),
            (FAM_M, tower_t, t_lvl, t_lvl + 1),
            (FAM_SA, crossing_sa, a_group, s_one),
            (FAM_TB, crossing_tb, b_group, t_one),
            (FAM_GT, gt_copies, s_one[:, ea, 0] + (k_a - 1), t_one[:, eb, 0] + (k_b - 1))]:
        fam_code[table] = fam
        eu[table] = lo
        ev[table] = hi
    keys = eu * np.int64(vertex_count)
    keys += ev
    # edge_count writes fill edge_count slots, so a slot left unwritten
    # (code -1) means another slot was written twice.
    if edge_count and ((fam_code < 0).any() or eu.min() < 0 or ev.max() >= vertex_count
                       or not (eu < ev).all() or (keys[1:] <= keys[:-1]).any()):
        raise AssertionError("gadget edges are not canonical, one slot each")
    base = Graph._from_canonical(vertex_count, eu, ev, keys)

    ids = [np.flatnonzero(fam_code == f) for f in range(5)]
    for arr in [fam_code, tower_s, tower_t, crossing_sa, crossing_tb, gt_copies, *ids]:
        arr.flags.writeable = False
    si = SpannerInstance(base, mr, k, x, x_override is None, fam_code, dict(enumerate(ids)),
                         tower_s, tower_t, crossing_sa, crossing_tb, gt_copies)
    si.supergirth_warning = sg < k + 2
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

    Edges in h are spanned by themselves.  A missing EsA or EtB edge, entry
    [p, i, alpha] of its crossing table, is certified when its anchor
    3-path, entries [p, i, 0], [0, i, 0] and [0, i, alpha] (own-copy hub,
    copy-0 hub, copy-0 star edge), lies in h.  A missing EGt edge is
    certified by ``canonical_span_mask``: one closed-form pass over every (copy,
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
    for table in (si.crossing_sa, si.crossing_tb):
        t = mask[table]
        certified[table] |= t[:, :, :1] & t[:1, :, :1] & t[:1]
    certified[si.gt_copies] |= canonical_span_mask(si, h)
    return _first_unspanned(g, h, np.flatnonzero(~certified), si.k)


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

    Entry [p, e] answers for edge ``si.gt_copies[p, e]`` and is True
    exactly when ``canonical_span_check`` returns a path for it.  Copy p's
    edge over superedge e = (i, j) qualifies when both of its towers are
    intact in h and some relation pair (alpha, beta) of e has its EsA edge
    sa[p, i, alpha], its Min-Rep edge and its EtB edge tb[p, j, beta] in h.
    The pair test runs over an (x, relation slots) table and is OR-reduced
    per superedge.
    """
    mask = h.mask()
    lc = si.source.source
    starts, slot_se, alpha, beta = _relation_slots(lc)
    ea, eb, _ = lc.edge_arrays()
    i, j = ea[slot_se], eb[slot_se]
    minrep = si.base.edge_ids_of(si.source.a_vertex(i, alpha), si.source.b_vertex(j, beta))
    ok = mask[si.crossing_sa][:, i, alpha] & mask[minrep] & mask[si.crossing_tb][:, j, beta]
    ok = np.logical_or.reduceat(ok, starts, axis=1)
    ok &= mask[si.tower_s].all(axis=2)[:, ea] & mask[si.tower_t].all(axis=2)[:, eb]
    return ok


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
    p, se = np.argwhere(si.gt_copies == eid)[0].tolist()
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
    for alpha, beta in lc.relation(se):
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
    p, se = np.nonzero(mask[si.gt_copies])
    mask[si.gt_copies] = False
    keep = [np.nonzero(mask)[0], si.ids_by_family[FAM_E], si.ids_by_family[FAM_M],
            si.anchor_distinct]
    lc = si.source.source
    starts, _, alpha, beta = _relation_slots(lc)
    ea, eb, _ = lc.edge_arrays()
    first = starts[se]
    keep += [si.crossing_sa[p, ea[se], alpha[first]], si.crossing_tb[p, eb[se], beta[first]]]
    return EdgeSubset(si.base, np.concatenate(keep))


def repcover_from_spanner(si: SpannerInstance, h: EdgeSubset) -> RepCover:
    """REP-cover from a valid k-spanner via the best copy's crossing edges.

    After making h proper, copy p induces the candidate cover of all group
    vertices touching its EsA/EtB edges; the smallest copy wins, so the
    result has at most (proper size) / x members.
    """
    proper = make_proper(si, h)
    mask = proper.mask()
    sa, tb = mask[si.crossing_sa], mask[si.crossing_tb]
    best_p = int(np.argmin(sa.sum(axis=(1, 2)) + tb.sum(axis=(1, 2))))
    members = [("A", i, s) for i, s in zip(*np.nonzero(sa[best_p]))]
    members += [("B", j, s) for j, s in zip(*np.nonzero(tb[best_p]))]
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
    ids = [si.ids_by_family[FAM_E], si.ids_by_family[FAM_M], si.anchor_distinct]
    for side, table in (("A", si.crossing_sa), ("B", si.crossing_tb)):
        members = [(i, s) for sd, i, s in cover.members if sd == side]
        if members:
            i_arr, s_arr = np.array(members, dtype=np.int64).T
            ids.append(table[:, i_arr, s_arr].ravel())
    out = EdgeSubset(si.base, np.concatenate(ids))
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
    return EdgeSubset._from_sorted(g, np.array(chosen, dtype=np.int64))   # ids ascend


# --- SUBSET v1 text format -----------------------------------------------------


def write_subset_text(h: EdgeSubset) -> str:
    return b"".join(_subset_chunks(h)).decode("ascii")


def _subset_chunks(h: EdgeSubset):
    """SUBSET v1 text of ``h`` as byte chunks: the header, then one chunk
    per ``_WRITE_ROWS`` edge ids."""
    yield f"SUBSET v1\nHOST sha256:{graph_sha256(h.host)}\n".encode("ascii")
    yield from _decimal_blocks([h.members])


def parse_subset_text(text, host: Graph) -> EdgeSubset:
    """Parse SUBSET v1 text, str or ASCII bytes, over the graph ``host``."""
    raw = _text_bytes(text)
    lines, _, start = _head_lines(raw, 2, skip_blank=True)
    if not lines or lines[0] != "SUBSET v1":
        raise InputError("missing SUBSET v1 header")
    if len(lines) < 2 or not lines[1].startswith("HOST sha256:"):
        raise InputError("missing HOST hash line")
    if lines[1].split("sha256:", 1)[1] != graph_sha256(host):
        raise InputError("subset host hash does not match the given graph")
    ids, _, _ = _int_rows(raw, start, "edge id", width=1)
    unsorted = ids[1:] <= ids[:-1]
    if unsorted.any():
        row = int(unsorted.argmax()) + 1
        raise InputError(f"line {_line_number(raw, _row_offset(raw, start, row))}: "
                         "subset edge ids must be sorted and distinct")
    return EdgeSubset._from_sorted(host, ids)


def gadget_metadata(si: SpannerInstance) -> dict:
    """Sidecar document (schema ``gadget_meta_v3``): parameters, sizes, anchors.

    Per-vertex roles and per-edge families are not stored; both follow from
    the fields by the formulas below.  With ``a_block = a_count * sigma_a`` and
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

    The anchor edges are not listed either.  They are the copy-0 crossing
    edge of every Min-Rep vertex, ``{("A", i, alpha), ("S", i, 1, 0)}`` and
    ``{("B", j, beta), ("T", j, 1, 0)}``, and the symbol-0 crossing edge of
    every tower, ``{("A", i, 0), ("S", i, 1, p)}`` and
    ``{("B", j, 0), ("T", j, 1, p)}`` for each copy p; their distinct union
    has ``anchor_distinct_size`` edges.
    """
    lc = si.source.source
    source_hash = hashlib.sha256()
    for chunk in _lc_chunks(lc):
        source_hash.update(chunk)
    return {
        "schema": "gadget_meta_v3",
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
        "anchor_choices_a": [si.source.a_vertex(i, 0) for i in range(lc.a_count)],
        "anchor_choices_b": [si.source.b_vertex(j, 0) for j in range(lc.b_count)],
        "source_hash": source_hash.hexdigest(),
    }


def write_gadget_meta_text(meta: dict) -> str:
    """A ``gadget_metadata`` document as compact JSON text with sorted keys."""
    return json.dumps(meta, sort_keys=True)
