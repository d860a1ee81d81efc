"""Undirected simple-graph substrate: distances, girth, per-edge cycle queries.

Graphs are immutable after construction.  Vertex ids are dense 0-based
naturals; edge ids are positions in the canonical edge list sorted by
(min endpoint, max endpoint).  Distances are hop counts, with
``math.inf`` as the unreachable / acyclic sentinel.
"""

from __future__ import annotations

import hashlib
import re
from collections import deque
from collections.abc import Sequence
from itertools import chain, islice
from math import inf

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InputError

INFINITY = inf


class Graph:
    """Immutable undirected simple graph backed by sorted numpy edge arrays.

    Rejects self-loops and duplicate edges.  The adjacency index (CSR) is
    derived once at construction and shared freely afterwards; every array
    is read-only, so the index, the cached neighbour lists (see
    ``adjacency``) and the cached GRAPH v1 digest (see ``graph_sha256``)
    cannot go stale.
    """

    __slots__ = ("vertex_count", "_eu", "_ev", "_indptr", "_nbr", "_nbr_eid", "_keys",
                 "_adj", "_sha256")

    def __init__(self, vertex_count: int, edges) -> None:
        eu, ev = _edge_arrays(edges)
        self._init_from(vertex_count, eu, ev)

    @classmethod
    def from_arrays(cls, vertex_count: int, eu: np.ndarray, ev: np.ndarray) -> "Graph":
        """Construct from endpoint arrays without a Python-level edge loop."""
        g = cls.__new__(cls)
        g._init_from(vertex_count, np.asarray(eu, dtype=np.int64), np.asarray(ev, dtype=np.int64))
        return g

    def _init_from(self, vertex_count: int, eu: np.ndarray, ev: np.ndarray) -> None:
        if vertex_count < 0:
            raise InputError("vertex_count must be nonnegative")
        n = int(vertex_count)
        if eu.size:
            lo = np.minimum(eu, ev)
            hi = np.maximum(eu, ev)
            if lo.min() < 0 or hi.max() >= n:
                raise InputError("edge endpoint out of range")
            if (lo == hi).any():
                raise InputError("self-loops are not allowed")
            keys = lo * np.int64(n) + hi
            order = np.argsort(keys, kind="stable")
            lo, hi, keys = lo[order], hi[order], keys[order]
            if keys.size > 1 and (np.diff(keys) == 0).any():
                raise InputError("duplicate edges are not allowed")
        else:
            lo = np.zeros(0, dtype=np.int64)
            hi = np.zeros(0, dtype=np.int64)
            keys = np.zeros(0, dtype=np.int64)
        self.vertex_count = n
        self._eu = lo
        self._ev = hi
        self._keys = keys
        m = lo.size
        ends = np.concatenate([lo, hi])
        nbrs = np.concatenate([hi, lo])
        eids = np.concatenate([np.arange(m, dtype=np.int64)] * 2) if m else np.zeros(0, np.int64)
        order = np.argsort(ends, kind="stable")
        self._indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(ends, minlength=n), out=self._indptr[1:])
        self._nbr = nbrs[order]
        self._nbr_eid = eids[order]
        for arr in (self._eu, self._ev, self._keys, self._indptr, self._nbr, self._nbr_eid):
            arr.flags.writeable = False
        self._adj = None
        self._sha256 = None

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
        key = u * self.vertex_count + v
        pos = int(np.searchsorted(self._keys, key))
        if pos < self._keys.size and self._keys[pos] == key:
            return pos
        return None

    def edge_ids_of(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Vectorized edge id lookup; raises if any pair is not an edge."""
        lo = np.minimum(us, vs).astype(np.int64)
        hi = np.maximum(us, vs).astype(np.int64)
        key = lo * np.int64(self.vertex_count) + hi
        pos = np.searchsorted(self._keys, key)
        if pos.size and (pos >= self._keys.size).any():
            raise InputError("pair is not an edge")
        if pos.size and (self._keys[pos] != key).any():
            raise InputError("pair is not an edge")
        return pos.astype(np.int64)

    def neighbors(self, v: int) -> np.ndarray:
        return self._nbr[self._indptr[v]:self._indptr[v + 1]]

    def adjacency(self) -> list:
        """Neighbour lists of Python ints, built on first use and cached.

        Callers must not modify them; they are shared by every search.
        """
        if self._adj is None:
            nbr, indptr = self._nbr.tolist(), self._indptr.tolist()
            self._adj = [nbr[lo:hi] for lo, hi in zip(indptr, indptr[1:])]
        return self._adj

    def degree(self, v: int) -> int:
        return int(self._indptr[v + 1] - self._indptr[v])

    def degrees(self) -> np.ndarray:
        return np.diff(self._indptr)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.vertex_count == other.vertex_count
            and np.array_equal(self._eu, other._eu)
            and np.array_equal(self._ev, other._ev)
        )

    def __hash__(self) -> int:
        return hash((self.vertex_count, self._keys.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.vertex_count}, m={self.edge_count})"


def _edge_arrays(edges) -> tuple[np.ndarray, np.ndarray]:
    pairs = list(edges)
    if not pairs:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    arr = np.asarray(pairs, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise InputError("edges must be (u, v) pairs")
    return arr[:, 0].copy(), arr[:, 1].copy()


def _sorted_distinct(values) -> np.ndarray:
    """Sorted distinct int64 values of an array or iterable, like ``np.unique``.

    Sort-and-mask rather than ``np.unique``, whose hash-based path (numpy
    2.4) is 30-50x slower on 10^5..10^6 ids.
    """
    arr = np.sort(np.asarray(values if isinstance(values, np.ndarray) else list(values),
                             dtype=np.int64), axis=None)
    return arr[np.concatenate(([True], arr[1:] != arr[:-1]))] if arr.size else arr


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


def _hops(adj, src: int, dst: int, cap: int | None, skip_direct: bool = False):
    """Hop distance from ``src`` to ``dst`` over the neighbour lists ``adj``.

    INFINITY when ``dst`` is unreachable or more than ``cap`` hops away (no
    limit when ``cap`` is None).  ``skip_direct`` ignores the edge {src, dst};
    graphs have no parallel edges, so that is the same as ignoring its id.
    """
    if src == dst:
        return 0
    seen = {src}
    frontier = [src]
    d = 0
    while frontier and (cap is None or d < cap):
        d += 1
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w == dst:
                    if skip_direct and u == src:
                        continue
                    return d
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return INFINITY


def edge_cycle_length(g: Graph, eid: int, cap: int | None = None):
    """Length of the shortest cycle through edge ``eid``; INFINITY for bridges
    and, when ``cap`` is given, for cycles longer than ``cap``."""
    u, v = g.edge(eid)
    d = _hops(g.adjacency(), u, v, None if cap is None else cap - 1, skip_direct=True)
    return d + 1 if d != INFINITY else INFINITY


def girth(g: Graph):
    """Length of the shortest simple cycle; INFINITY for forests.

    Per-edge removal + BFS, pruned by the best cycle found so far.  This is
    deliberately the simple O(m(n+m)) formulation; ``oracles.girth_independent``
    provides a second formulation for cross-checking.
    """
    best = INFINITY
    adj = g.adjacency()
    for u, v in g.edges():
        d = _hops(adj, u, v, None if best == INFINITY else best - 2, skip_direct=True)
        if d != INFINITY:
            best = d + 1
            if best == 3:
                break
    return best


def is_bipartite(g: Graph) -> tuple[bool, list | None]:
    """Two-color the graph; (True, colors) if no odd cycle else (False, None)."""
    color = [-1] * g.vertex_count
    adj = g.adjacency()
    for start in range(g.vertex_count):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            cu = color[u]
            for w in adj[u]:
                if color[w] == -1:
                    color[w] = 1 - cu
                    queue.append(w)
                elif color[w] == cu:
                    return False, None
    return True, color


# --- decimal text, shared by GRAPH v1 and SUBSET v1 ------------------------
#
# Token policy: a token is a run of 1 to 18 ASCII digits (so it fits in
# int64); tokens on a line are separated by spaces or tabs; a line ends at
# \n, \r, \r\n, \v or \f; blank lines are skipped.  Any other character in
# a body line (a sign, an underscore, a letter), any other control character
# and any non-ASCII character is an InputError that names its line.

_MAX_DIGITS = 18
_DIGIT, _BLANK, _BREAK, _OTHER = range(4)
_BYTE_CLASS = np.full(256, _OTHER, dtype=np.uint8)
_BYTE_CLASS[ord("0"):ord("9") + 1] = _DIGIT
_BYTE_CLASS[[ord(" "), ord("\t")]] = _BLANK
_BYTE_CLASS[[ord("\n"), ord("\r"), ord("\v"), ord("\f")]] = _BREAK
_LINE_BREAK = re.compile(r"\r\n|[\n\r\v\f]")
_HEAD_FORBIDDEN = re.compile(r"[^\t\x20-\x7e]")


def _decimal_text(columns) -> bytes:
    """One line per row of the nonnegative int columns, fields joined by a space.

    Fills a right-aligned digit table per column, then drops each row's
    leading-zero cells; equal to joining ``str(int)`` per row.
    """
    rows = columns[0].size
    widths = [len(str(int(col.max()))) if rows else 1 for col in columns]
    table = np.empty((rows, sum(widths) + len(widths)), dtype=np.uint8)
    keep = np.ones(table.shape, dtype=bool)
    end = 0
    for col, width in zip(columns, widths):
        rest = col.astype(np.int64)
        for j in range(end + width - 1, end - 1, -1):
            if j < end + width - 1:
                np.greater(rest, 0, out=keep[:, j])
            quot = rest // 10
            table[:, j] = rest - quot * 10 + ord("0")
            rest = quot
        end += width
        table[:, end] = ord(" ")
        end += 1
    table[:, -1] = ord("\n")
    return table[keep].tobytes()


def _is_decimal(token: str) -> bool:
    return token.isascii() and token.isdigit()


def _decimals(rows, line_nos) -> list:
    """The tokens of ``rows`` (lists of str, one per line) as one flat int list.

    The LC, COVER, LABEL and CNF parsers split text with ``str.splitlines``
    and ``str.split`` and read every integer through here, so their tokens
    follow the policy above: 1 to 18 ASCII digits.  Otherwise an InputError
    names ``line_nos[r]``, the 1-based line number of the first bad row r.
    """
    flat = list(chain.from_iterable(rows))
    if flat and not (all(flat) and _is_decimal("".join(flat))
                     and max(map(len, flat)) <= _MAX_DIGITS):
        r, bad = next((r, tok) for r, row in enumerate(rows) for tok in row
                      if not (_is_decimal(tok) and len(tok) <= _MAX_DIGITS))
        raise InputError(f"line {line_nos[r]}: {bad!r} is not an integer of 1 to "
                         f"{_MAX_DIGITS} decimal digits")
    return list(map(int, flat))


def _nonblank_lines(text: str) -> tuple[list, Sequence[int]]:
    """The nonblank lines of ``text`` (split by ``str.splitlines``) and their
    1-based line numbers."""
    raw = text.splitlines()
    lines = list(filter(str.strip, raw))
    if len(lines) == len(raw):
        return lines, range(1, len(raw) + 1)
    return lines, [no for no, ln in enumerate(raw, 1) if ln.strip()]


def _line_number(text: str, pos: int) -> int:
    """1-based number of the line holding character offset ``pos``."""
    return len(_LINE_BREAK.findall(text, 0, pos)) + 1


def _head_lines(text: str, count: int, skip_blank: bool = False) -> tuple[list, int]:
    """The first ``count`` lines (nonblank ones if ``skip_blank``) and the offset after them.

    Header lines may hold printable ASCII and tabs only, like the body.
    """
    lines, pos, number = [], 0, 0
    while len(lines) < count and pos < len(text):
        brk = _LINE_BREAK.search(text, pos)
        end, nxt = (brk.start(), brk.end()) if brk else (len(text), len(text))
        line = text[pos:end]
        number += 1
        if _HEAD_FORBIDDEN.search(line):
            raise InputError(f"line {number}: control or non-ASCII character")
        if not skip_blank or line.strip():
            lines.append(line)
        pos = nxt
    return lines, pos


def _row_line(text: str, start: int, row: int) -> int:
    """1-based line number of the ``row``-th nonblank line at or after ``start``."""
    first = _line_number(text, start)
    nonblank = (no for no, line in enumerate(_LINE_BREAK.split(text[start:]), first)
                if line.strip())
    return next(islice(nonblank, row, None))


def _int_rows(text: str, start: int, width: int, count: int | None, what: str) -> np.ndarray:
    """Parse ``text[start:]`` as nonblank lines of ``width`` decimal tokens each.

    Returns an int64 array of shape (lines, width).  ``count``, when given,
    is the declared number of lines; it is checked before the values are
    decoded.  Every per-byte temporary is uint8, int8, bool or int32.
    """
    try:
        body = np.frombuffer(text[start:].encode("ascii"), dtype=np.uint8)
    except UnicodeEncodeError as exc:
        raise InputError(f"line {_line_number(text, start + exc.start)}: "
                         f"non-ASCII character in {what} line") from None
    cls = _BYTE_CLASS[body]
    other = cls == _OTHER
    if other.any():
        raise InputError(f"line {_line_number(text, start + int(other.argmax()))}: "
                         f"{what} line must hold decimal integers only")
    step = np.diff((cls == _DIGIT).view(np.int8), prepend=np.int8(0), append=np.int8(0))
    starts = np.flatnonzero(step == 1)
    ends = np.flatnonzero(step == -1)
    del step
    # A token opens a line when a line break lies between it and the token before.
    line_of = np.cumsum(cls == _BREAK, dtype=np.int32)[starts]
    del cls
    opens = np.ones(starts.size, dtype=bool)
    np.not_equal(line_of[1:], line_of[:-1], out=opens[1:])
    del line_of
    lines = int(np.count_nonzero(opens))
    if count is not None and lines != count:
        raise InputError(f"expected {count} {what} lines, found {lines}")
    if starts.size != lines * width or opens.reshape(lines, width)[:, 1:].any():
        firsts = np.flatnonzero(opens)
        sizes = np.diff(firsts, append=opens.size)
        tok = int(firsts[np.argmax(sizes != width)])
        raise InputError(f"line {_line_number(text, start + int(starts[tok]))}: "
                         f"expected {width} integer(s) per {what} line")
    lengths = ends - starts
    if starts.size == 0:
        return np.zeros((0, width), dtype=np.int64)
    digits = int(lengths.max())
    if digits > _MAX_DIGITS:
        tok = int(lengths.argmax())
        raise InputError(f"line {_line_number(text, start + int(starts[tok]))}: "
                         f"integer longer than {_MAX_DIGITS} digits")
    # Row t of the window holds the ``digits`` bytes that end where token t
    # ends; cells left of the token are zeroed, so Horner's rule over the
    # columns gives the token's value.
    padded = np.concatenate([np.full(digits, ord("0"), dtype=np.uint8), body])
    window = sliding_window_view(padded, digits)[ends]
    window -= ord("0")
    window *= np.arange(digits) >= (digits - lengths)[:, None]
    values = np.zeros(starts.size, dtype=np.int64)
    for column in window.T:
        values *= 10
        values += column
    return values.reshape(lines, width)


# --- GRAPH v1 text format ---------------------------------------------------

def _graph_bytes(g: Graph) -> bytes:
    head = f"GRAPH v1\nN {g.vertex_count} M {g.edge_count}\n".encode("ascii")
    return head + _decimal_text([g._eu, g._ev])


def write_graph_text(g: Graph) -> str:
    """GRAPH v1 text of ``g``; also caches its digest for ``graph_sha256``."""
    data = _graph_bytes(g)
    if g._sha256 is None:
        g._sha256 = hashlib.sha256(data).hexdigest()
    return data.decode("ascii")


def parse_graph_text(text: str) -> Graph:
    lines, start = _head_lines(text, 2)
    if not lines or lines[0].strip() != "GRAPH v1":
        raise InputError("missing GRAPH v1 header")
    if len(lines) < 2:
        raise InputError("missing size line")
    parts = lines[1].split()
    if (len(parts) != 4 or parts[0] != "N" or parts[2] != "M"
            or not (_is_decimal(parts[1]) and _is_decimal(parts[3]))):
        raise InputError(f"line 2: bad size line: {lines[1]!r}")
    n, m = int(parts[1]), int(parts[3])
    rows = _int_rows(text, start, 2, m, "edge")
    eu, ev = rows[:, 0], rows[:, 1]
    du, dv = np.diff(eu), np.diff(ev)
    for bad, message in [
        (eu >= ev, "edge line not in u < v form"),
        (ev >= n, "edge endpoint out of range"),
        (np.concatenate([[False], (du == 0) & (dv == 0)]), "duplicate edge"),
        (np.concatenate([[False], (du < 0) | ((du == 0) & (dv < 0))]), "edge lines not sorted"),
    ]:
        if bad.any():
            raise InputError(f"line {_row_line(text, start, int(bad.argmax()))}: {message}")
    return Graph.from_arrays(n, eu, ev)


def graph_sha256(g: Graph) -> str:
    """sha256 of the GRAPH v1 text of ``g``, computed at most once per graph."""
    if g._sha256 is None:
        g._sha256 = hashlib.sha256(_graph_bytes(g)).hexdigest()
    return g._sha256
