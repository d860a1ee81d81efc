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
from math import inf

import numpy as np

from .errors import InputError

INFINITY = inf


class Graph:
    """Immutable undirected simple graph backed by sorted numpy edge arrays.

    Rejects self-loops and duplicate edges.  The adjacency index (CSR, see
    ``_csr``) is derived on first use and shared freely afterwards; every
    array is read-only, so the index, the cached neighbour lists (see
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
        return cls._from_arrays_with_order(vertex_count, eu, ev)[0]

    @classmethod
    def _from_arrays_with_order(cls, vertex_count: int, eu, ev) -> tuple:
        """``from_arrays`` and the sort it made: edge id e is input pair ``order[e]``."""
        g = cls.__new__(cls)
        order = g._init_from(vertex_count, np.asarray(eu, dtype=np.int64),
                             np.asarray(ev, dtype=np.int64))
        return g, order

    def _init_from(self, vertex_count: int, eu: np.ndarray, ev: np.ndarray) -> np.ndarray:
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
            order = np.zeros(0, dtype=np.int64)
        self.vertex_count = n
        self._eu = lo
        self._ev = hi
        self._keys = keys
        for arr in (self._eu, self._ev, self._keys):
            arr.flags.writeable = False
        self._indptr = self._nbr = self._nbr_eid = None
        self._adj = None
        self._sha256 = None
        return order

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

    def _csr(self) -> tuple:
        """(indptr, nbr, nbr_eid), built on first use and cached: vertex v's
        neighbours are ``nbr[indptr[v]:indptr[v + 1]]``, reached by the edges
        ``nbr_eid`` at the same positions; first the edges where v is the
        lower end, then the higher, each in ascending edge id."""
        if self._indptr is None:
            n, m = self.vertex_count, self._eu.size
            ends = np.concatenate([self._eu, self._ev])
            order = np.argsort(ends, kind="stable")
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(ends, minlength=n), out=indptr[1:])
            nbr = np.concatenate([self._ev, self._eu])[order]
            nbr_eid = order % m if m else order      # entry p of ends is edge p mod m
            for arr in (indptr, nbr, nbr_eid):
                arr.flags.writeable = False
            self._indptr, self._nbr, self._nbr_eid = indptr, nbr, nbr_eid
        return self._indptr, self._nbr, self._nbr_eid

    def adjacency(self) -> list:
        """Neighbour lists of Python ints, built on first use and cached.

        Callers must not modify them; they are shared by every search.
        """
        if self._adj is None:
            indptr, nbr, _ = self._csr()
            nbr, indptr = nbr.tolist(), indptr.tolist()
            self._adj = [nbr[lo:hi] for lo, hi in zip(indptr, indptr[1:])]
        return self._adj

    def degrees(self) -> np.ndarray:
        return np.diff(self._csr()[0])

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


# --- decimal text, shared by every text format -------------------------------
#
# Token policy: a line ends at \n, \r, \r\n, \v or \f; a \r\n ends one line.
# Header lines (``_head_lines``) hold printable ASCII and tabs only.  A body
# line (``_int_rows``) is an optional tag letter, first on its line and
# followed by a space, then tokens of 1 to 18 ASCII digits (so they fit in
# int64) separated by spaces or tabs; blank lines are skipped.  Any other
# character (a sign, an underscore, another letter, another control
# character, any non-ASCII character) is an InputError that names its line
# and quotes its token.

_MAX_DIGITS = 18
_NOT_DECIMAL = f"is not an integer of 1 to {_MAX_DIGITS} decimal digits"
_BODY_BYTES = "0123456789 \t\n\r\v\f"      # and the format's tag letters
_LINE_BREAK = re.compile(r"\r\n|[\n\r\v\f]")
_SEPARATOR = re.compile(r"[ \t\n\r\v\f]")
_HEAD_FORBIDDEN = re.compile(r"[^\t\x20-\x7e]")
_BLANK_TAGS = bytes.maketrans(b"ABCDEFGHIJKLMNOPQRSTUVWXYZ", b" " * 26)

# The most vertices a header may declare: N in GRAPH v1, and A, B and the
# Min-Rep size A*SA + B*SB in LC v1.  Checked before any array is sized from
# them; one int64 array over this many vertices already takes 800 MB.
MAX_DECLARED_VERTICES = 10**8


def _check_declared(where: str, field: str, size: int) -> None:
    if size > MAX_DECLARED_VERTICES:
        raise InputError(f"{where}: {field} = {size} exceeds {MAX_DECLARED_VERTICES}, "
                         "the most vertices a header may declare")


def _decimal_text(columns, tag: str = "") -> bytes:
    """One line per row of the nonnegative int columns: ``tag`` and a space
    when a tag letter is given, then the row's fields joined by a space.

    Fills a right-aligned digit table per column, then drops each field's
    leading zeros; equal to joining ``str(int)`` per row.
    """
    rows = columns[0].size
    widths = [len(str(int(col.max()))) if rows else 1 for col in columns]
    end = 2 if tag else 0
    table = np.empty((rows, end + sum(widths) + len(widths)), dtype=np.uint8)
    keep = np.ones(table.shape, dtype=bool)
    if tag:
        table[:, 0] = ord(tag)
        table[:, 1] = ord(" ")
    for n, (col, width) in enumerate(zip(columns, widths)):
        if n:
            table[:, end] = ord(" ")
            end += 1
        rest = col.astype(np.int32 if width <= 9 else np.int64)
        for j in range(end + width - 1, end - 1, -1):
            np.greater(rest, 0, out=keep[:, j])
            quot = rest // 10
            table[:, j] = rest - quot * 10 + ord("0")
            rest = quot
        keep[:, end + width - 1] = True
        end += width
    table[:, -1] = ord("\n")
    return table[keep].tobytes()


def _decimals(tokens, where: str) -> list:
    """``tokens`` (strings) as ints, each 1 to 18 ASCII digits by the policy
    above; otherwise an InputError that starts with ``where``.  Header lines,
    the DIMACS formula and ``GIRTHSPAN_BUDGET`` read their integers here."""
    for tok in tokens:
        if not (tok.isascii() and tok.isdigit() and len(tok) <= _MAX_DIGITS):
            raise InputError(f"{where}: {tok!r} {_NOT_DECIMAL}")
    return list(map(int, tokens))


def _line_number(text: str, pos: int) -> int:
    """1-based number of the line holding character offset ``pos``."""
    return len(_LINE_BREAK.findall(text, 0, pos)) + 1


def _token_error(text: str, pos: int, problem: str) -> InputError:
    """InputError naming the line of character ``pos`` and quoting the
    blank-separated token that holds it."""
    lo = max(text.rfind(c, 0, pos) for c in " \t\n\r\v\f") + 1
    sep = _SEPARATOR.search(text, pos)
    token = text[lo:sep.start() if sep else len(text)]
    return InputError(f"line {_line_number(text, pos)}: {token!r} {problem}")


def _head_lines(text: str, count: int | None = None,
                skip_blank: bool = False) -> tuple[list, list, int]:
    """The first ``count`` lines (all of them when None; nonblank ones if
    ``skip_blank``), their 1-based line numbers, and the offset after them."""
    lines, numbers, pos, number = [], [], 0, 0
    while (count is None or len(lines) < count) and pos < len(text):
        brk = _LINE_BREAK.search(text, pos)
        end, nxt = (brk.start(), brk.end()) if brk else (len(text), len(text))
        line = text[pos:end]
        number += 1
        if _HEAD_FORBIDDEN.search(line):
            raise InputError(f"line {number}: control or non-ASCII character")
        if not skip_blank or line.strip():
            lines.append(line)
            numbers.append(number)
        pos = nxt
    return lines, numbers, pos


def _is_break(b: np.ndarray) -> np.ndarray:
    """Per uint8 byte: is it a line break, one of \n \v \f \r (10 to 13)?"""
    return (b - np.uint8(10)) < 4


def _body_bytes(text: str, start: int, tags: str = "") -> tuple:
    """``text[start:]``, which begins a line, after the policy's checks of
    the body as a whole: ASCII only, no byte but digits, blanks, line breaks
    and the tag letters ``tags``, and every tag first on its line and
    followed by a space.  Returns (raw, body, at): the body as bytes and as
    a uint8 array, and the positions of its tags."""
    try:
        raw = text[start:].encode("ascii")
    except UnicodeEncodeError as exc:
        raise _token_error(text, start + exc.start, _NOT_DECIMAL) from None
    if raw.translate(None, (_BODY_BYTES + tags).encode("ascii")):
        other = re.compile(f"[^{_BODY_BYTES}{tags}]").search(text, start)
        raise _token_error(text, other.start(), _NOT_DECIMAL)
    body = np.frombuffer(raw, dtype=np.uint8)
    at = np.zeros(0, dtype=np.int64)
    if tags:
        is_tag = np.zeros(body.size, dtype=bool)
        for letter in tags.encode("ascii"):
            is_tag |= body == letter
        at = np.flatnonzero(is_tag)
        placed = (((at == 0) | _is_break(body[at - 1])) & (at + 1 < body.size)
                  & (body[np.minimum(at + 1, body.size - 1)] == ord(" ")))
        if not placed.all():
            raise _token_error(text, start + int(at[placed.argmin()]),
                               "is a tag, which must open its line and be followed by a space")
    return raw, body, at


def _token_rows(body: np.ndarray, at: np.ndarray) -> tuple:
    """Tokens and rows of a body that passed ``_body_bytes``, whose tags are
    at positions ``at``.

    Returns (starts, ends, heads, line): the span of every token, a tag
    being one; the index of each row's first token, row r being the r-th
    nonblank line; and each row's line as the number of line breaks before
    it.  Every per-byte temporary is uint8, int8, bool or int32.
    """
    token = (body - np.uint8(ord("0"))) < 10
    token[at] = True
    step = np.diff(token.view(np.int8), prepend=np.int8(0), append=np.int8(0))
    del token
    starts = np.flatnonzero(step == 1)
    ends = np.flatnonzero(step == -1)
    del step
    breaks = _is_break(body)
    cr = np.flatnonzero(body[:-1] == ord("\r"))
    breaks[cr[body[cr + 1] == ord("\n")] + 1] = False    # a \r\n ends one line
    # A token opens a row when a line break lies between it and the token before.
    line_of = np.cumsum(breaks, dtype=np.int32)[starts]
    del breaks
    opens = np.ones(starts.size, dtype=bool)
    np.not_equal(line_of[1:], line_of[:-1], out=opens[1:])
    heads = np.flatnonzero(opens)
    return starts, ends, heads, line_of[heads]


def _decimal_values(data: bytes, count: int) -> np.ndarray:
    """int64 values of the ``count`` digit tokens of ``data``, a body that
    passed ``_body_bytes`` and whose tokens the caller counted and checked to
    hold at most 18 digits.  Tag letters separate tokens like blanks.

    One C-level parse of the whole text.  numpy reads a text without a token
    as one 0, so such a body skips the parse.
    """
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    values = np.fromstring(data.translate(_BLANK_TAGS), dtype=np.int64, sep=" ")
    if values.size != count:
        raise AssertionError(f"decoded {values.size} values from {count} tokens")
    return values


def _int_rows(text: str, start: int, what: str, width: int | None = None,
              count: int | None = None, tags: str = "") -> tuple:
    """Tokenize ``text[start:]``, which begins a line, by the policy above.

    Returns (values, first, tag, line).  Row r is the r-th nonblank line:
    its integers are ``values[first[r]:first[r + 1]]``, ``tag[r]`` is its tag
    letter as a byte (0 for none; ``tags`` holds the format's letters) and
    ``line[r]`` its line number.  ``count``, when given, is the declared
    number of rows and ``width`` the number of integers every row holds;
    both are checked before the values are decoded.
    """
    raw, body, at = _body_bytes(text, start, tags)
    starts, ends, heads, line = _token_rows(body, at)
    if count is not None and heads.size != count:
        raise InputError(f"expected {count} {what} lines, found {heads.size}")
    lead = body[starts[heads]]
    tagged = lead > ord("9")      # a token is digits or a tag, and letters sort after digits
    tag = np.where(tagged, lead, 0).astype(np.uint8)
    line = line + np.int64(_line_number(text, start))
    # A tag is the first token of its row, so row r's integers follow the
    # tags of rows 0..r.
    first = np.append(heads - np.cumsum(tagged) + tagged,
                      starts.size - np.count_nonzero(tagged))
    if width is not None and (np.diff(first) != width).any():
        row = (np.diff(first) != width).argmax()
        raise InputError(f"line {line[row]}: expected {width} integer(s) per {what} line")
    lengths = ends - starts                # a tag is one letter long
    if lengths.size and lengths.max() > _MAX_DIGITS:
        raise _token_error(text, start + int(starts[lengths.argmax()]), _NOT_DECIMAL)
    return _decimal_values(raw, int(first[-1])), first, tag, line


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
    lines, _, start = _head_lines(text, 2)
    if not lines or lines[0].strip() != "GRAPH v1":
        raise InputError("missing GRAPH v1 header")
    if len(lines) < 2:
        raise InputError("missing size line")
    parts = lines[1].split()
    if len(parts) != 4 or parts[0] != "N" or parts[2] != "M":
        raise InputError(f"line 2: bad size line: {lines[1]!r}")
    n, m = _decimals(parts[1::2], "line 2")
    _check_declared("line 2", "N", n)
    values, _, _, line = _int_rows(text, start, "edge", width=2, count=m)
    eu, ev = values[0::2], values[1::2]
    du, dv = np.diff(eu), np.diff(ev)
    for bad, message in [
        (eu >= ev, "edge line not in u < v form"),
        (ev >= n, "edge endpoint out of range"),
        (np.concatenate([[False], (du == 0) & (dv == 0)]), "duplicate edge"),
        (np.concatenate([[False], (du < 0) | ((du == 0) & (dv < 0))]), "edge lines not sorted"),
    ]:
        if bad.any():
            raise InputError(f"line {line[bad.argmax()]}: {message}")
    return Graph.from_arrays(n, eu, ev)


def graph_sha256(g: Graph) -> str:
    """sha256 of the GRAPH v1 text of ``g``, computed at most once per graph."""
    if g._sha256 is None:
        g._sha256 = hashlib.sha256(_graph_bytes(g)).hexdigest()
    return g._sha256
