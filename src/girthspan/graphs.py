"""Undirected simple-graph substrate: distances, girth, per-edge cycle queries.

Graphs are immutable after construction.  Vertex ids are dense 0-based
naturals below ``MAX_DECLARED_VERTICES``, held as int32; edge ids are
positions in the canonical edge list sorted by (min endpoint, max endpoint).
Distances are hop counts, with ``math.inf`` as the unreachable / acyclic
sentinel.
"""

from __future__ import annotations

import hashlib
import re
from itertools import chain
from math import inf

import numpy as np

from .errors import InputError

INFINITY = inf

# The most vertices a graph may have, and a header may declare: N in GRAPH
# v1, and A, B and the Min-Rep size A*SA + B*SB in LC v1.  Checked before any
# array is sized from them; one int64 array over this many vertices already
# takes 800 MB.  It is below 2^31, so every vertex id fits in int32.
MAX_DECLARED_VERTICES = 10**8


class Graph:
    """Immutable undirected simple graph backed by sorted numpy edge arrays.

    The edges are two read-only, C-contiguous int32 arrays, the lower ends
    and the higher ends in edge id order, 8 bytes per edge; no other
    per-edge array is kept.  Every constructor rejects a ``vertex_count``
    above ``MAX_DECLARED_VERTICES``, so no vertex id can wrap in int32.
    ``edge_id`` finds the row of lower end u with two binary searches on the
    lower ends and searches the higher ends inside that row; ``edge_ids_of``
    derives the int64 keys u * vertex_count + v for the one call.

    Rejects self-loops and duplicate edges.  The neighbour lists (see
    ``adjacency``) are derived on first use and shared freely afterwards;
    both edge arrays are read-only, so they, the cached GRAPH v1 digest (see
    ``graph_sha256``) and the cached girth (see ``girth``) cannot go stale.
    """

    __slots__ = ("vertex_count", "_eu", "_ev", "_adj", "_sha256", "_girth")

    def __init__(self, vertex_count: int, eu, ev) -> None:
        """The graph on ``vertex_count`` vertices whose edge r joins eu[r]
        and ev[r], in any order and orientation.  Every end is checked in
        int64 before the edges are narrowed."""
        n = _vertex_count(vertex_count)
        eu, ev = np.asarray(eu, dtype=np.int64), np.asarray(ev, dtype=np.int64)
        if eu.ndim != 1 or eu.shape != ev.shape:
            raise InputError("edges must be (u, v) pairs")
        if eu.size:
            lo = np.minimum(eu, ev)
            hi = np.maximum(eu, ev)
            if lo.min() < 0 or hi.max() >= n:
                raise InputError("edge endpoint out of range")
            if (lo == hi).any():
                raise InputError("self-loops are not allowed")
            keys = lo * np.int64(n) + hi
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            if keys.size > 1 and (np.diff(keys) == 0).any():
                raise InputError("duplicate edges are not allowed")
            lo, hi = lo[order].astype(np.int32), hi[order].astype(np.int32)
        else:
            lo = hi = np.zeros(0, dtype=np.int32)
        self._set_edges(n, lo, hi)

    @classmethod
    def _from_canonical(cls, vertex_count: int, eu: np.ndarray, ev: np.ndarray) -> "Graph":
        """The constructor for C-contiguous int32 edges already proved
        canonical by ``_edge_fault``: every 0 <= u < v < vertex_count, and
        the pairs sorted and distinct.  Skips the sort."""
        g = cls.__new__(cls)
        g._set_edges(_vertex_count(vertex_count), eu, ev)
        return g

    def _set_edges(self, n: int, lo: np.ndarray, hi: np.ndarray) -> None:
        self.vertex_count = n
        self._eu = lo
        self._ev = hi
        for arr in (self._eu, self._ev):
            arr.flags.writeable = False
        self._adj = None
        self._sha256 = None
        self._girth = None

    @property
    def edge_count(self) -> int:
        return int(self._eu.size)

    def edge(self, eid: int) -> tuple[int, int]:
        if not 0 <= eid < self.edge_count:
            raise InputError(f"edge id {eid} out of range")
        return int(self._eu[eid]), int(self._ev[eid])

    def edges(self):
        """Iterate (u, v) pairs in canonical (edge id) order."""
        for u, v in zip(self._eu.tolist(), self._ev.tolist()):
            yield u, v

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self._eu, self._ev

    def edge_id(self, u: int, v: int) -> int | None:
        """Edge id of {u, v}, or None if absent."""
        if u > v:
            u, v = v, u
        if not 0 <= u < v < self.vertex_count:
            return None
        lo, hi = np.searchsorted(self._eu, u), np.searchsorted(self._eu, u, side="right")
        pos = int(lo + np.searchsorted(self._ev[lo:hi], v))
        if pos < hi and self._ev[pos] == v:
            return pos
        return None

    def edge_ids_of(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Vectorized edge id lookup; raises if any pair is not an edge."""
        n = np.int64(self.vertex_count)
        lo = np.minimum(us, vs).astype(np.int64)
        hi = np.maximum(us, vs).astype(np.int64)
        if lo.size and (lo.min() < 0 or hi.max() >= n):
            raise InputError("pair is not an edge")
        keys = self._eu * n
        keys += self._ev
        key = lo * n + hi
        pos = np.searchsorted(keys, key)
        if pos.size and (pos >= keys.size).any():
            raise InputError("pair is not an edge")
        if pos.size and (keys[pos] != key).any():
            raise InputError("pair is not an edge")
        return pos.astype(np.int64)

    def adjacency(self) -> list:
        """Neighbour lists of Python ints, built on first use and cached:
        vertex v's list holds the other ends of the edges where v is the
        lower end, then the higher, each in ascending edge id.

        Callers must not modify them; they are shared by every search.
        """
        if self._adj is None:
            bounds, nbr = _neighbours(self)
            nbr, bounds = nbr.tolist(), bounds.tolist()
            self._adj = [nbr[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        return self._adj

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.vertex_count == other.vertex_count
            and np.array_equal(self._eu, other._eu)
            and np.array_equal(self._ev, other._ev)
        )

    def __repr__(self) -> str:
        return f"Graph(n={self.vertex_count}, m={self.edge_count})"


def _neighbours(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """(bounds, nbr): vertex v's neighbours are nbr[bounds[v]:bounds[v + 1]],
    in the order of ``Graph.adjacency``.  Built from a transient stable sort
    of the ends; not cached."""
    ends = np.concatenate([g._eu, g._ev])
    nbr = np.concatenate([g._ev, g._eu])[np.argsort(ends, kind="stable")]
    bounds = np.zeros(g.vertex_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(ends, minlength=g.vertex_count), out=bounds[1:])
    return bounds, nbr


def _vertex_count(vertex_count: int) -> int:
    """``vertex_count`` as an int, checked to be 0 to ``MAX_DECLARED_VERTICES``."""
    if vertex_count < 0:
        raise InputError("vertex_count must be nonnegative")
    if vertex_count > MAX_DECLARED_VERTICES:
        raise InputError(f"vertex_count = {vertex_count} exceeds {MAX_DECLARED_VERTICES}, "
                         "the most vertices a graph may have")
    return int(vertex_count)


# The GRAPH v1 edge rules, in the order they are applied to a row.
_EDGE_RULES = ("edge line not in u < v form", "edge endpoint out of range", "duplicate edge",
               "edge lines not sorted")


def _edge_fault(n: int, eu: np.ndarray, ev: np.ndarray) -> tuple[int, str] | None:
    """The first row r whose edge (eu[r], ev[r]) breaks a rule of
    ``_EDGE_RULES``, and the first rule it breaks: u < v, both ends in 0 to
    n - 1, not equal to the row before, and above it in (u, v) order.  None
    when every row keeps them, the edges then being canonical.  Read in
    blocks of ``_WRITE_ROWS`` rows, each row compared with the row before
    it, so no temporary spans the edges; the rule is told apart only for
    the row at fault."""
    for lo in range(0, eu.size, _WRITE_ROWS):
        hi = min(lo + _WRITE_ROWS, eu.size)
        u, v = eu[lo:hi], ev[lo:hi]
        # Row 0 follows (-1, n), which an edge with v < n is above if and only if u >= 0.
        pu, pv = ((eu[lo - 1:hi - 1], ev[lo - 1:hi - 1]) if lo
                  else (np.append(-1, u[:-1]), np.append(n, v[:-1])))
        ok = (u < v) & (v < n) & ((u > pu) | ((u == pu) & (v > pv)))
        if not ok.all():
            r = lo + int(ok.argmin())
            (a, b), before = (eu[r], ev[r]), ((eu[r - 1], ev[r - 1]) if r else None)
            rule = 0 if a >= b else 1 if a < 0 or b >= n else 2 if (a, b) == before else 3
            return r, _EDGE_RULES[rule]
    return None


def _rising(major: np.ndarray, minor: np.ndarray, restarts: np.ndarray | None = None) -> int | None:
    """The first row r whose pair (major[r], minor[r]) is not above the pair
    before it in (major, minor) order, but for the rows ``restarts``
    (ascending), which are compared to nothing; None if every row rises.
    Each block of ``_WRITE_ROWS`` rows is compared to the rows one before
    it, the last row of the block before included, so the temporaries are
    per block."""
    for lo in range(1, major.size, _WRITE_ROWS):
        hi = min(lo + _WRITE_ROWS, major.size)
        prev, this = major[lo - 1:hi - 1], major[lo:hi]
        up = (this > prev) | ((this == prev) & (minor[lo:hi] > minor[lo - 1:hi - 1]))
        if restarts is not None:
            up[restarts[np.searchsorted(restarts, lo):np.searchsorted(restarts, hi)] - lo] = True
        if not up.all():
            return lo + int(up.argmin())
    return None


def _sorted_distinct(values) -> np.ndarray:
    """Sorted distinct int64 values of an array or iterable, like ``np.unique``.

    Sort-and-mask rather than ``np.unique``, whose hash-based path (numpy
    2.4) is 30-50x slower on 10^5..10^6 ids.
    """
    arr = np.sort(np.asarray(values if isinstance(values, np.ndarray) else list(values),
                             dtype=np.int64), axis=None)
    return arr[np.concatenate(([True], arr[1:] != arr[:-1]))] if arr.size else arr


def _hops(adj, src: int, dst: int, cap: int | None, skip_direct: bool = False):
    """Hop distance from ``src`` to ``dst`` over the neighbour lists ``adj``.

    INFINITY when ``dst`` is unreachable or more than ``cap`` hops away (no
    limit when ``cap`` is None).  ``skip_direct`` ignores the edge {src, dst};
    graphs have no parallel edges, so that is the same as ignoring its id.

    The search meets in the middle: each side keeps the ball it has seen and
    its last level, both as sets, and each step grows one side by one whole
    level, with set operations (see ``_grow``).  While both frontiers hold
    one vertex, the side whose vertex has fewer neighbours grows, so a query
    between a hub and a vertex of low degree reads the short list, not the
    hub's; otherwise the side whose frontier is smaller grows.  The source
    side grows on a tie.  The search is exact whichever side grows.  While
    the sides have gone a levels from ``src`` and b from ``dst`` without
    meeting, the distance D exceeds a + b: otherwise the node at position
    min(a, D) of a shortest path would lie in both balls.  So any neighbour
    found in the other side's ball, while one side grows to a + 1, closes a
    path of a + 1 + b hops, which is D; every meeting in that level gives
    the same sum, so the level is tested as a whole, in no order.  An empty
    frontier means its side's component is exhausted without meeting, so
    ``dst`` is unreachable.  The level that brings a + b to ``cap`` is the
    final one: it only tests for a meeting, since no level after it is
    grown.

    With ``skip_direct`` the search runs on the graph without {src, dst}: the
    step from ``src`` straight to ``dst`` is dropped from the source side's
    root level and the reverse step from the target side's.  Neither root can
    enter the other side's ball without meeting first, whichever side grows
    first, so no other step crosses that edge.
    """
    if src == dst:
        return 0
    seen_s, seen_t = {src}, {dst}
    front_s, front_t = {src}, {dst}
    ds = dt = 0
    while front_s and front_t and (cap is None or ds + dt < cap):
        final = ds + dt + 1 == cap
        if len(front_s) == len(front_t) == 1:
            (only_s,), (only_t,) = front_s, front_t
            grow_s = len(adj[only_s]) <= len(adj[only_t])
        else:
            grow_s = len(front_s) <= len(front_t)
        if grow_s:
            banned = dst if skip_direct and ds == 0 else None
            front_s = _grow(adj, front_s, seen_s, seen_t, banned, final)
            ds += 1
            if front_s is None:
                return ds + dt
        else:
            banned = src if skip_direct and dt == 0 else None
            front_t = _grow(adj, front_t, seen_t, seen_s, banned, final)
            dt += 1
            if front_t is None:
                return ds + dt
    return INFINITY


def _grow(adj, frontier, seen, other, banned, final):
    """One level of one side of ``_hops``: None when a neighbour of
    ``frontier`` lies in the other side's ball ``other``, else the next
    frontier.  The neighbour lists are read whole by set operations: their
    union, less ``banned``, is tested against ``other``, and what is not in
    ``seen`` is the next frontier and is added to ``seen``.  ``adj`` is only
    read, so the shared lists stay as they are.

    ``banned`` is None but at the root level of a ``skip_direct`` search,
    where it names the other root: the skipped direct edge.  On the
    ``final`` level only the meeting test runs, one neighbour list at a
    time; it builds no frontier and leaves ``seen`` as it is, since neither
    is read again, and its empty frontier ends the search.  A final root
    level with a skipped edge takes the full step, over one list.
    """
    if final and banned is None:
        for u in frontier:
            if not other.isdisjoint(adj[u]):
                return None
        return ()
    nxt = set()
    for u in frontier:
        nxt.update(adj[u])
    nxt.discard(banned)
    if not nxt.isdisjoint(other):
        return None
    nxt -= seen
    seen |= nxt
    return nxt


def edge_cycle_length(g: Graph, eid: int, cap: int | None = None):
    """Length of the shortest cycle through edge ``eid``; INFINITY for bridges
    and, when ``cap`` is given, for cycles longer than ``cap``."""
    u, v = g.edge(eid)
    d = _hops(g.adjacency(), u, v, None if cap is None else cap - 1, skip_direct=True)
    return d + 1 if d != INFINITY else INFINITY


def girth(g: Graph):
    """Length of the shortest simple cycle; INFINITY for forests.

    One ``_hops`` query per edge, skipping the edge itself, capped at best - 2
    hops once a cycle of length best is known; the query meets in the middle,
    so after the first cycle it grows two balls of radius about (best - 2) / 2.
    At worst every query exhausts its component: O(m (n + m)) time in all.
    The result is cached on ``g``, so a second call does not search.
    ``oracles.girth_independent`` provides a second formulation for
    cross-checking, and caches no result.
    """
    if g._girth is None:
        best = INFINITY
        adj = g.adjacency()
        for u, v in g.edges():
            d = _hops(adj, u, v, None if best == INFINITY else best - 2, skip_direct=True)
            if d != INFINITY:
                best = d + 1
                if best == 3:
                    break
        g._girth = best
    return g._girth


# --- batched capped distances --------------------------------------------------
#
# ``_hops`` answers one query at a time, 3 to 5 us of Python each on the
# gadgets.  Both kernels grow the cheaper side of a query: ``_within`` the
# side whose last level has fewer neighbour entries, ``_hops`` the smaller
# frontier, or, when both frontiers are one vertex, the vertex with fewer
# neighbours.  The spanner verifiers (one query per missing edge) and
# ``sampling.bad_edges`` (one per superedge) ask many queries that do not
# depend on each other, so ``_within`` answers them together, a pass of
# ``_PASS_PAIRS`` pairs at a time.  ``girth``, ``edge_cycle_length`` and
# ``greedy_spanner`` stay on ``_hops``: each of their queries depends on the
# answers before it (a shrinking cap, or a graph that grows).

_PASS_PAIRS = 1 << 10
_PASS_ENTRIES = 1 << 16


def _within(g: Graph, us, vs, cap: int, skip_direct: bool = False):
    """Whether dist(us[i], vs[i]) <= cap in g, for every i: one bool array
    per pass of ``_PASS_PAIRS`` pairs, yielded in the order given, so that a
    caller may stop after the first pass that answers its question.  With
    ``skip_direct`` the distance is taken in g less the edge {us[i], vs[i]}.

    It is exact.  For u != v, dist(u, v) <= cap exactly when some x in
    B_a(u) and y in B_b(v), the balls of radius a and b, have x = y or
    {x, y} in E, for any a + b = cap - 1: the nodes at positions min(a, D-1)
    and one after it on a shortest path of D <= cap hops are such an x and
    y.  The balls grow one level at a time, as in ``_hops``, and while two
    balls of radius a and b have not met, dist > a + b, so a meeting at the
    next level joins their last levels by an edge.  Where the two last
    levels make fewer pairs than the cheaper side has neighbour entries,
    each pair (x, y) is looked up in the sorted keys u * n + v of g's
    edges, and a pair that meets grows no further.  The other pairs grow
    their cheaper side (the u side on a tie) by one level and hold when a
    neighbour of its last level lies in the other side's ball.  When the
    cap allows two levels, the roots' level grows both roots at once, and a
    pair also holds when a vertex is new to both of its sides (a common
    neighbour).  The levels stop once a + b reaches cap, and a pair is
    dropped as soon as it meets or one of its sides is exhausted, so a
    large cap costs no more than the levels the pairs need.  With
    ``skip_direct`` a root level does not step to the other root, and the
    lookup drops the pair (u, v) itself: neither root can enter the other
    side's ball without meeting first, so no other step crosses that edge.

    Each ball is held as keys ball * n + vertex, where balls 2i and 2i + 1
    grow from us[i] and vs[i], in one sorted array searched by
    ``searchsorted``.  A level whose ball keys and entries exceed
    ``_PASS_ENTRIES`` is split into two halves of its pairs, down to one
    pair, so a pass holds about that many entries at most.
    """
    n = g.vertex_count
    bounds, nbr = _neighbours(g)
    keys = g._eu.astype(np.int64) * n + g._ev
    for lo in range(0, len(us), _PASS_PAIRS):
        u = np.asarray(us[lo:lo + _PASS_PAIRS], dtype=np.int64)
        v = np.asarray(vs[lo:lo + _PASS_PAIRS], dtype=np.int64)
        ok = u == v
        pairs = np.flatnonzero(~ok) if cap > 0 else np.zeros(0, dtype=np.int64)
        roots = np.stack([u, v], axis=1).ravel()
        balls = np.stack([2 * pairs, 2 * pairs + 1], axis=1).ravel()
        seen = balls * n + roots[balls]
        _meet((n, bounds, nbr, keys, cap, skip_direct, roots), np.zeros(roots.size, dtype=np.int64),
              ok, pairs, seen, seen)
        yield ok


def _meet(spec, depth, ok, pairs, seen, front):
    """Grow the balls of the open ``pairs`` of one ``_within`` pass until
    each is answered, setting ``ok`` for those that meet.  ``seen`` holds
    the sorted keys of their balls, ``front`` the keys of each ball's last
    level and ``depth`` each ball's radius; ``spec`` is the pass's graph,
    cap and roots."""
    n, bounds, nbr, keys, cap, skip_direct, roots = spec
    while pairs.size:
        ball = front // n
        vert = front - ball * n
        deg = bounds[vert + 1] - bounds[vert]
        cost = np.bincount(ball, weights=deg, minlength=roots.size)
        size = np.bincount(ball, minlength=roots.size)
        bu, bv = 2 * pairs, 2 * pairs + 1
        live = (cost[bu] > 0) & (cost[bv] > 0)          # else a side is exhausted
        pairs, bu, bv = pairs[live], bu[live], bv[live]
        grown = np.where(cost[bv] < cost[bu], bv, bu)
        radii = depth[bu] + depth[bv]
        both = (radii == 0) & (cap > 1)
        final = radii + 1 + both == cap
        across = size[bu] * size[bv]
        product = (across < cost[grown]) & ~both
        if _split(spec, depth, ok, pairs, seen, front, across[product].sum()):
            return
        met = np.zeros(ok.size, dtype=bool)
        if product.any():
            met[_joined(spec, pairs[product], front, size)] = True
            ok |= met
            done = met[pairs] | final & product
            pairs, grown, final, both = pairs[~done], grown[~done], final[~done], both[~done]
            if not pairs.size:
                return
        rows = np.zeros(roots.size, dtype=bool)
        rows[grown] = True
        rows[(grown ^ 1)[both]] = True
        rows = rows[ball]
        total = int(deg[rows].sum())
        if _split(spec, depth, ok, pairs, seen, front, total):
            return
        x, xb, xdeg = vert[rows], ball[rows], deg[rows]
        pos = np.repeat(bounds[x] - (np.cumsum(xdeg) - xdeg), xdeg) + np.arange(total)
        y, yb = nbr[pos].astype(np.int64), np.repeat(xb, xdeg)
        if skip_direct:
            keep = (depth[yb] > 0) | (y != roots[yb ^ 1])
            y, yb = y[keep], yb[keep]
        key = (yb ^ 1) * n + y
        met[yb[seen[np.minimum(np.searchsorted(seen, key), seen.size - 1)] == key] >> 1] = True
        new = _sorted_distinct(yb[~met[yb >> 1]] * n + y[~met[yb >> 1]])
        if both.any():                      # a common neighbour of the roots
            nb = new // n
            twin = new + ((nb ^ 1) - nb) * n
            met[nb[new[np.minimum(np.searchsorted(new, twin), new.size - 1)] == twin] >> 1] = True
        ok |= met
        still = ~(met[pairs] | final)
        depth[grown[still]] += 1
        depth[(grown ^ 1)[still & both]] += 1
        pairs = pairs[still]
        if not pairs.size:
            return
        open_balls = np.zeros(roots.size, dtype=bool)
        open_balls[2 * pairs] = open_balls[2 * pairs + 1] = True
        new = new[open_balls[new // n]]
        at = np.searchsorted(seen, new)
        fresh = seen[np.minimum(at, seen.size - 1)] != new
        seen = np.sort(np.concatenate([seen[open_balls[seen // n]], new[fresh]]), kind="stable")
        front = np.concatenate([front[~rows & open_balls[ball]], new[fresh]])


def _split(spec, depth, ok, pairs, seen, front, entries) -> bool:
    """Whether a level of ``pairs`` that reads ``entries`` more entries is
    over ``_PASS_ENTRIES``; if so, each half of the pairs has been answered
    on its own by ``_meet``."""
    if pairs.size < 2 or seen.size + entries <= _PASS_ENTRIES:
        return False
    half = pairs.size // 2
    cut = 2 * spec[0] * pairs[half]
    low, at = front < cut, np.searchsorted(seen, cut)
    _meet(spec, depth, ok, pairs[:half], seen[:at], front[low])
    _meet(spec, depth, ok, pairs[half:], seen[at:], front[~low])
    return True


def _joined(spec, pairs, front, size):
    """The ``pairs`` with an edge of g between the last levels of their two
    balls, found by looking up every pair of those levels in g's sorted edge
    keys.  With ``skip_direct`` the roots' own pair is dropped."""
    n, _, _, keys, _, skip_direct, roots = spec
    mine = np.zeros(roots.size, dtype=bool)
    mine[2 * pairs] = mine[2 * pairs + 1] = True
    level = np.sort(front[mine[front // n]])
    cu, cv = size[2 * pairs], size[2 * pairs + 1]
    sv = np.cumsum(cu + cv) - cv
    su = sv - cu
    each = cu * cv
    pe = np.repeat(np.arange(pairs.size), each)
    k = np.arange(each.sum()) - np.repeat(np.cumsum(each) - each, each)
    x = level[su[pe] + k // cv[pe]] - 2 * pairs[pe] * n
    y = level[sv[pe] + k % cv[pe]] - (2 * pairs[pe] + 1) * n
    key = np.minimum(x, y) * n + np.maximum(x, y)
    hit = keys[np.minimum(np.searchsorted(keys, key), keys.size - 1)] == key
    if skip_direct:
        hit &= (x != roots[2 * pairs[pe]]) | (y != roots[2 * pairs[pe] + 1])
    return pairs[pe[hit]]


# --- decimal text, shared by every text format -------------------------------
#
# Token policy: a line ends at \n, \r, \r\n, \v or \f; a \r\n ends one line.
# Header lines (``_head_lines``) hold printable ASCII and tabs only.  A body
# line is an optional tag letter, first on its line and followed by a space,
# then tokens of 1 to 18 ASCII digits (so they fit in int64) separated by
# spaces or tabs; blank lines are skipped.  Any other character (a sign, an
# underscore, another letter, another control character, any non-ASCII
# character) is an InputError that names its line and quotes its token
# (``_check_body``).  So in a body that passed those checks every byte above
# the space is a digit or a lone tag letter, and a token is a run of such
# bytes (``_token_rows``).
#
# Every parser takes its text as the bytes of its file, and every offset
# below is one in those bytes.  A check names the first fault in text order.
#
# The kernels work one block at a time: ``_decimal_blocks`` renders
# ``_WRITE_ROWS`` rows per block, and every body is read in groups of pieces
# (``_groups``).  A GRAPH, SUBSET, COVER or LABEL body is one piece; an LC
# body is cut into its E lines and its distinct relation blocks.  Short
# pieces are copied together, at most ``_GROUP_BYTES`` bytes a group; a
# longer piece is read in place, in slices of about ``_READ_BYTES`` bytes
# that end at line breaks.  ``_read_rows`` tokenizes each group once.  The
# temporaries are bounded by these constants; only the text's bytes, the
# decoded values and per-row or per-piece arrays span the text.

_MAX_DIGITS = 18
_NOT_DECIMAL = f"is not an integer of 1 to {_MAX_DIGITS} decimal digits"
_BODY_BYTES = "0123456789 \t\n\r\v\f"      # and the format's tag letters
_LINE_BREAK = re.compile(rb"\r\n|[\n\r\v\f]")
_BREAK_BYTE = re.compile(rb"[\n\r\v\f]")
_SEPARATOR = re.compile(rb"[ \t\n\r\v\f]")
_HEAD_FORBIDDEN = re.compile(rb"[^\t\x20-\x7e]")
_NON_ASCII = re.compile(rb"[\x80-\xff]")
_WRITE_ROWS = 1 << 15
_READ_BYTES = 1 << 16

def _check_declared(where: str, field: str, size: int) -> None:
    if size > MAX_DECLARED_VERTICES:
        raise InputError(f"{where}: {field} = {size} exceeds {MAX_DECLARED_VERTICES}, "
                         "the most vertices a header may declare")


def _decimal_text(columns, tag: str = "") -> bytes:
    """One line per row of the nonnegative int columns: ``tag`` and a space
    when a tag letter is given, then the row's fields joined by a space.
    Equal to joining ``str(int)`` per row."""
    return b"".join(_decimal_blocks(columns, tag))


def _decimal_blocks(columns, tag: str = ""):
    """``_decimal_text`` as byte chunks of ``_WRITE_ROWS`` rows each."""
    for lo in range(0, columns[0].size, _WRITE_ROWS):
        yield _decimal_block([col[lo:lo + _WRITE_ROWS] for col in columns], tag)


def _decimal_block(columns, tag: str) -> bytes:
    """``_decimal_text`` of one block of rows.

    Fills a right-aligned digit table per column, as wide as the block's
    largest value, then drops each field's leading zeros, so the width
    chosen does not show in the bytes.  The table is column-major, one row
    per character position, so each digit pass stores contiguously; it is
    transposed once, when the keep mask is applied.
    """
    rows = columns[0].size
    widths = [len(str(int(col.max()))) for col in columns]
    end = 2 if tag else 0
    table = np.empty((end + sum(widths) + len(widths), rows), dtype=np.uint8)
    keep = np.ones(table.shape, dtype=bool)
    if tag:
        table[0] = ord(tag)
        table[1] = ord(" ")
    for n, (col, width) in enumerate(zip(columns, widths)):
        if n:
            table[end] = ord(" ")
            end += 1
        rest = col.astype(np.int32 if width <= 9 else np.int64)
        for j in range(end + width - 1, end - 1, -1):
            np.greater(rest, 0, out=keep[j])
            quot = rest // 10
            table[j] = rest - quot * 10 + ord("0")
            rest = quot
        keep[end + width - 1] = True
        end += width
    table[-1] = ord("\n")
    return table.T[keep.T].tobytes()


def _decimals(tokens, where: str) -> list:
    """``tokens`` (strings) as ints, each 1 to 18 ASCII digits by the policy
    above; otherwise an InputError that starts with ``where``.  Header lines,
    the DIMACS formula and ``GIRTHSPAN_BUDGET`` read their integers here."""
    for tok in tokens:
        if not (tok.isascii() and tok.isdigit() and len(tok) <= _MAX_DIGITS):
            raise InputError(f"{where}: {tok!r} {_NOT_DECIMAL}")
    return list(map(int, tokens))


def _line_number(raw: bytes, pos: int) -> int:
    """1-based number of the line holding byte offset ``pos``."""
    return len(_LINE_BREAK.findall(raw, 0, pos)) + 1


def _line_error(raw: bytes, pos: int, message: str) -> InputError:
    """InputError ``line N: message``, N being the line of byte ``pos`` of
    ``raw``: every body fault is named this way."""
    return InputError(f"line {_line_number(raw, pos)}: {message}")


def _token_error(raw: bytes, pos: int, problem: str) -> InputError:
    """``_line_error`` at byte ``pos``, quoting the blank-separated token
    that holds it, decoded as UTF-8 with every other byte escaped."""
    lo = max(raw.rfind(c, 0, pos) for c in b" \t\n\r\v\f") + 1
    sep = _SEPARATOR.search(raw, pos)
    token = raw[lo:sep.start() if sep else len(raw)].decode("utf-8", "backslashreplace")
    return _line_error(raw, pos, f"{token!r} {problem}")


def _head_lines(raw: bytes, count: int | None = None,
                skip_blank: bool = False) -> tuple[list, list, int]:
    """The first ``count`` lines (all of them when None; nonblank ones if
    ``skip_blank``) as str, their 1-based line numbers, and the offset after
    them."""
    lines, numbers, pos, number = [], [], 0, 0
    while (count is None or len(lines) < count) and pos < len(raw):
        brk = _LINE_BREAK.search(raw, pos)
        end, nxt = (brk.start(), brk.end()) if brk else (len(raw), len(raw))
        line = raw[pos:end]
        number += 1
        if _HEAD_FORBIDDEN.search(line):
            raise _line_error(raw, pos, "control or non-ASCII character")
        if not skip_blank or line.strip():
            lines.append(line.decode("ascii"))
            numbers.append(number)
        pos = nxt
    return lines, numbers, pos


def _is_break(b: np.ndarray) -> np.ndarray:
    """Per uint8 byte: is it a line break, one of \n \v \f \r (10 to 13)?"""
    return (b - np.uint8(10)) < 4


# Bytes per group of ``_groups``.  Pieces shorter than ``_GATHER_BELOW``
# bytes on average, such as E lines as written, are gathered through an
# int64 index of 24 bytes per byte; longer ones, such as relation blocks,
# are joined as slices, each of which costs about as much as gathering 80
# bytes.
_GROUP_BYTES = _READ_BYTES // 2
_GATHER_BELOW = 32


def _groups(raw: bytes, lo, hi):
    """The pieces ``raw[lo[k]:hi[k]]`` (ascending and disjoint, each
    beginning a line and each but the text's last ending with a line break)
    in groups, in text order.  Yields (i, j, group, off, shift) per group:
    its bytes as a uint8 array, either pieces i to j - 1 copied together or
    a slice of piece i = j - 1 read in place; where each of its parts (a
    piece, or the slice) starts in it; and per part, its offset in ``raw``
    less ``off``.  So byte p of the group is byte p + shift[k] of ``raw``,
    k = ``searchsorted(off, p, "right") - 1`` being the part that holds it.

    The pieces are taken in runs of at most ``_GROUP_BYTES`` bytes (or one
    longer piece).  A run of several pieces is copied into one group.  A
    piece alone in its run is read in place, in slices: each ends just after
    the last line break among its first ``_READ_BYTES`` bytes, so each
    begins a line; a line longer than that makes its slice end after its
    own break.
    """
    whole = np.frombuffer(raw, dtype=np.uint8)
    lo, hi = np.asarray(lo, dtype=np.int64), np.asarray(hi, dtype=np.int64)
    end = np.cumsum(hi - lo)
    i = 0
    while i < lo.size:
        begin = int(end[i - 1]) if i else 0
        j = max(int(np.searchsorted(end, begin + _GROUP_BYTES, side="right")), i + 1)
        if j > i + 1:
            off = np.append(begin, end[i:j - 1]) - begin
            if end[j - 1] - begin < _GATHER_BELOW * (j - i):
                size = hi[i:j] - lo[i:j]
                group = whole[np.repeat(lo[i:j] - off, size) + np.arange(size.sum())]
            else:
                group = np.frombuffer(b"".join(map(whole.data.__getitem__, map(
                    slice, lo[i:j].tolist(), hi[i:j].tolist()))), dtype=np.uint8)
            yield i, j, group, off, lo[i:j] - off
        else:
            a, b = int(lo[i]), int(hi[i])
            while a < b:
                cut = a + _READ_BYTES
                if cut >= b:
                    cut = b
                else:
                    last = raw.rfind(b"\n", a, cut)
                    for c in b"\r\v\f":      # only a break after the last \n matters
                        last = max(last, raw.rfind(c, max(last, a), cut))
                    if last >= a:
                        cut = last + 1
                    else:
                        brk = _BREAK_BYTE.search(raw, cut, b)
                        cut = brk.end() if brk else b
                yield i, j, whole[a:cut], np.zeros(1, dtype=np.int64), np.array([a])
                a = cut
        i = j


def _check_body(raw: bytes, start: int, tags: str = "") -> np.ndarray:
    """The policy's checks of the body ``raw[start:]``, which begins a line:
    ASCII only, no byte but digits, blanks, line breaks and the tag letters
    ``tags``, and every tag first on its line and followed by a space.  The
    first non-ASCII byte is named before any other fault; each other check
    names the first fault in text order.  Returns the offsets of the body's
    tags."""
    if not raw.isascii():
        raise _token_error(raw, _NON_ASCII.search(raw, start).start(), _NOT_DECIMAL)
    allowed, letters = (_BODY_BYTES + tags).encode("ascii"), tags.encode("ascii")
    found = [np.zeros(0, dtype=np.int64)]
    for _, _, block, _, shift in _groups(raw, [start], [len(raw)]):
        lo = int(shift[0])                  # the one piece is read in slices
        if raw[lo:lo + block.size].translate(None, allowed):
            other = re.compile(f"[^{_BODY_BYTES}{tags}]".encode("ascii")).search(raw, lo)
            raise _token_error(raw, other.start(), _NOT_DECIMAL)
        if letters:
            is_tag = block == letters[0]
            for letter in letters[1:]:
                is_tag |= block == letter
            found.append(np.flatnonzero(is_tag) + lo)
    at = np.concatenate(found)
    if at.size:
        whole = np.frombuffer(raw, dtype=np.uint8)
        placed = (((at == start) | _is_break(whole[at - 1])) & (at + 1 < whole.size)
                  & (whole[np.minimum(at + 1, whole.size - 1)] == ord(" ")))
        if not placed.all():
            raise _token_error(raw, int(at[placed.argmin()]),
                               "is a tag, which must open its line and be followed by a space")
    return at


def _token_rows(block: np.ndarray) -> tuple:
    """Tokens and rows of a block of body bytes that passed ``_check_body``
    and begins a line.  A token is a run of bytes above the space: in such a
    body each is a digit or a tag letter, and a tag stands alone.

    Returns (starts, ends, heads): the span of every token, a tag being one,
    and the index of each row's first token, row r being the r-th nonblank
    line.  Every per-byte temporary is uint8 or bool.
    """
    token = np.zeros(block.size + 2, dtype=bool)      # padded by a non-token byte
    np.greater(block, ord(" "), out=token[1:-1])
    edges = np.flatnonzero(token[1:] != token[:-1])   # token runs alternate start, end
    del token
    starts, ends = edges[0::2], edges[1::2]
    # A token opens a row when the gap before it holds a line break.  Most
    # gaps are one byte, read directly; only longer ones are reduced.
    opens = np.ones(starts.size, dtype=bool)
    gap_lo, gap_hi = ends[:-1], starts[1:]
    opens[1:] = _is_break(block[gap_hi - 1])
    wide = np.flatnonzero(gap_hi - gap_lo > 1)
    if wide.size:
        bounds = np.column_stack([gap_lo[wide], gap_hi[wide]]).ravel()
        opens[1 + wide] = np.logical_or.reduceat(_is_break(block), bounds)[0::2]
    return starts, ends, np.flatnonzero(opens)


# Per token length n (up to 18): the low nibble of each of the last
# min(n, 8) bytes of a little-endian word.  ``&`` with it zeroes the bytes
# before the token's start and takes 0x30 off each digit byte.
_DIGIT_BITS = np.array([(0x0F0F0F0F0F0F0F0F << 8 * (8 - min(n, 8))) & ((1 << 64) - 1)
                        for n in range(_MAX_DIGITS + 1)], dtype=np.uint64)


def _eight_digits(words: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """int64 value of the last ``min(lengths, 8)`` digits of each uint64
    word, the bytes that end at a token's end (``words`` is overwritten).

    After the mask, byte 7 - d holds the digit d places from the token's
    end and the bytes below the token hold 0.  Three multiply-shift steps
    fold the digits pairwise: bytes into 2-digit 16-bit lanes, lanes into
    4-digit 32-bit lanes, and those into one 8-digit value."""
    words &= np.take(_DIGIT_BITS, lengths)
    words *= np.uint64(10 << 8 | 1)
    words >>= np.uint64(8)
    words &= np.uint64(0x00FF00FF00FF00FF)
    words *= np.uint64(100 << 16 | 1)
    words >>= np.uint64(16)
    words &= np.uint64(0x0000FFFF0000FFFF)
    words *= np.uint64(10000 << 32 | 1)
    words >>= np.uint64(32)
    return words.view(np.int64)


def _span_values(block: np.ndarray, ends: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """int64 values of the digit tokens of ``block``, uint8 body bytes that
    passed ``_check_body``: the tokens that end at ``ends`` and hold
    ``lengths`` digits, 1 to 18 each, as ``_token_rows`` spans them.

    The block is copied after 8 zero bytes, so the 8 bytes that end at any
    token's end can be read as one little-endian uint64 (``_eight_digits``),
    even for a token near the block's start.  A token of 9 to 18 digits
    takes a second and a third word, ending 8 and 16 bytes before its end,
    scaled by 10^8 each.
    """
    padded = np.zeros(block.size + 8, dtype=np.uint8)
    padded[8:] = block
    words = np.ndarray(block.size + 1, dtype="<u8", buffer=padded, strides=(1,))
    values = _eight_digits(words[ends], lengths)
    for up in (8, 16):
        more = np.flatnonzero(lengths > up)
        if not more.size:
            break
        values[more] += _eight_digits(words[ends[more] - up], lengths[more] - up) * 10 ** up
    return values


def _read_rows(raw: bytes, lo, hi, width: int, tagged: bool = False, keep=None) -> tuple:
    """The rows of the pieces ``raw[lo[k]:hi[k]]`` of a body that passed
    ``_check_body``, read a group at a time (``_groups``), each group
    tokenized once.  Every row, a nonblank line, should hold ``width``
    integers, after its tag letter if it has one (only when ``tagged``).

    Returns (rows, longest, wrong, tags, kept): the rows of each piece;
    (most digits in a token, text offset of the first such token); the text
    offset of the first row of another width (None if none); each row's tag
    letter as a byte, 0 for none (None unless ``tagged``); and whether
    ``keep`` took every row, no fault being seen.  While none is, ``keep(r, values)``
    takes the integers of each group's rows, the first being row r, as an
    int64 array of ``width`` columns, decoded from their token spans
    (``_span_values``); it returns whether to go on.
    """
    rows = np.zeros(len(lo), dtype=np.int64)
    tag_parts = [np.zeros(0, dtype=np.uint8)]
    longest, wrong, kept, r = (0, None), None, keep is not None, 0
    for i, j, group, off, shift in _groups(raw, lo, hi):
        starts, ends, heads = _token_rows(group)
        lengths = ends - starts
        k = int(lengths.argmax()) if lengths.size else None
        if k is not None and lengths[k] > longest[0]:
            p = starts[k]
            longest = (int(lengths[k]), int(p + shift[np.searchsorted(off, p, "right") - 1]))
        counts = np.diff(heads, append=starts.size)
        if tagged:
            lead = group[starts[heads]]
            is_tag = lead > ord("9")  # a token is digits or a tag, and letters sort after digits
            lead *= is_tag
            tag_parts.append(lead)
            # A tag is the first token of its row; the row's other tokens are integers.
            counts -= is_tag
            digit = np.ones(starts.size, dtype=bool)
            digit[heads[is_tag]] = False
            ends, lengths = ends[digit], lengths[digit]
        bad = counts != width
        if wrong is None and bad.any():
            p = starts[heads[bad.argmax()]]
            wrong = int(p + shift[np.searchsorted(off, p, "right") - 1])
        del counts, bad
        if j > i + 1:
            rows[i:j] = np.bincount(np.searchsorted(off, starts[heads], "right") - 1,
                                    minlength=j - i)
        else:
            rows[i] += heads.size
        if kept:
            kept = wrong is None and longest[0] <= _MAX_DIGITS and (
                not ends.size or keep(r, _span_values(group, ends, lengths).reshape(-1, width)))
        r += heads.size
        del starts, ends, heads, lengths       # not alive while the next group is tokenized
    return rows, longest, wrong, np.concatenate(tag_parts) if tagged else None, kept


def _into(columns: list, below: int | None = None):
    """A ``keep`` for ``_read_rows`` that writes row r's integers at index r
    of ``columns``, one array per integer of a row, while the rows fit: no
    row past the arrays' end and, with ``below``, no value at or above it."""
    def keep(r: int, values: np.ndarray) -> bool:
        if r + len(values) > columns[0].size or (below is not None and values.max() >= below):
            return False
        for column, value in zip(columns, values.T):
            column[r:r + len(values)] = value
        return True
    return keep


def _int_rows(raw: bytes, start: int, what: str, width: int, count: int | None = None,
              tags: str = "", below: int | None = None) -> tuple:
    """Tokenize the body ``raw[start:]``, which begins a line, by the policy
    above.

    Returns (columns, tag).  Row r is the r-th nonblank line: it holds
    ``width`` integers, the j-th in ``columns[j][r]``, and ``tag[r]`` is its
    tag letter as a byte (0 for none; ``tags`` holds the format's letters,
    and tag is None for a format without them).  ``count``, when given, is
    the declared number of rows.  An error about row r names the line of
    ``_row_offset``.

    The body is checked, then read as one piece by ``_read_rows``, which
    decodes its rows while no fault is seen: into int64 columns sized from
    ``count`` when it is given, else into an array per group, joined at the
    end.  The faults are raised after the last group, in a fixed order: the
    body checks, the row count, the first row of the wrong width, then the
    first token of the most digits, if that is over 18.

    With ``below`` (and a ``count``), the columns are int32, and a group's
    int64 values are narrowed only once they are all below ``below``;
    columns is None when one is not, and that fault is the caller's to name.
    """
    _check_body(raw, start, tags)
    fixed = count is not None and count * width <= len(raw)
    if fixed:
        dtype = np.int64 if below is None else np.int32
        columns = [np.empty(count, dtype=dtype) for _ in range(width)]
        keep = _into(columns, below)
    else:
        parts = [np.zeros((0, width), dtype=np.int64)]

        def keep(r: int, values: np.ndarray) -> bool:
            parts.append(values)
            return True
    rows, longest, wrong, tag, kept = _read_rows(raw, [start], [len(raw)], width,
                                                 bool(tags), keep)
    if count is not None and rows[0] != count:
        raise InputError(f"expected {count} {what} lines, found {rows[0]}")
    if wrong is not None:
        raise _line_error(raw, wrong, f"expected {width} integer(s) per {what} line")
    if longest[0] > _MAX_DIGITS:
        raise _token_error(raw, longest[1], _NOT_DECIMAL)
    if not fixed:
        columns = list(np.concatenate(parts).T)
    return columns if kept else None, tag


def _row_offset(raw: bytes, lo, hi, row: int) -> int:
    """Offset in ``raw`` of the first token of row ``row`` of the pieces
    ``raw[lo[k]:hi[k]]`` that ``_read_rows`` read, the rows counted over
    all of them; an error message names its ``_line_number``.  Tokenizes
    the pieces again, a group at a time, up to the row, so only the error
    path pays for row offsets."""
    for _, _, group, off, shift in _groups(raw, lo, hi):
        starts, _, heads = _token_rows(group)
        if row < heads.size:
            p = starts[heads[row]]
            return int(p + shift[np.searchsorted(off, p, "right") - 1])
        row -= heads.size
    raise IndexError("row out of range")


# --- GRAPH v1 text format ---------------------------------------------------

def _graph_chunks(g: Graph):
    """GRAPH v1 text of ``g`` as byte chunks: the header, then one chunk per
    ``_WRITE_ROWS`` edges.  Unless the digest is cached, the chunks are
    hashed as they are made, and the digest is cached after the last."""
    digest = hashlib.sha256() if g._sha256 is None else None
    for chunk in chain([f"GRAPH v1\nN {g.vertex_count} M {g.edge_count}\n".encode("ascii")],
                       _decimal_blocks([g._eu, g._ev])):
        if digest is not None:
            digest.update(chunk)
        yield chunk
    if digest is not None:
        g._sha256 = digest.hexdigest()


def write_graph_text(g: Graph) -> str:
    """GRAPH v1 text of ``g``; also caches its digest for ``graph_sha256``."""
    return b"".join(_graph_chunks(g)).decode("ascii")


def parse_graph_text(raw: bytes) -> Graph:
    """Parse GRAPH v1 text, given as the bytes of its file."""
    lines, _, start = _head_lines(raw, 2)
    if not lines or lines[0].strip() != "GRAPH v1":
        raise InputError("missing GRAPH v1 header")
    if len(lines) < 2:
        raise InputError("missing size line")
    parts = lines[1].split()
    if len(parts) != 4 or parts[0] != "N" or parts[2] != "M":
        raise InputError(f"line 2: bad size line: {lines[1]!r}")
    n, m = _decimals(parts[1::2], "line 2")
    _check_declared("line 2", "N", n)
    ends, _ = _int_rows(raw, start, "edge", width=2, count=m, below=n)
    if ends is None:        # a value at or above N: decoded again in int64, as it is written
        ends, _ = _int_rows(raw, start, "edge", width=2, count=m)
    fault = _edge_fault(n, *ends)
    if fault is not None:
        raise _line_error(raw, _row_offset(raw, [start], [len(raw)], fault[0]), fault[1])
    return Graph._from_canonical(n, *ends)


def graph_sha256(g: Graph) -> str:
    """sha256 of the GRAPH v1 text of ``g``, computed at most once per graph."""
    if g._sha256 is None:
        for _ in _graph_chunks(g):
            pass
    return g._sha256
