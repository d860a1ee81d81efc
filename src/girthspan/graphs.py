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
from itertools import chain
from math import inf

import numpy as np

from .errors import InputError

INFINITY = inf


class Graph:
    """Immutable undirected simple graph backed by sorted numpy edge arrays.

    Rejects self-loops and duplicate edges.  The adjacency index (CSR, see
    ``_csr``) is derived on first use and shared freely afterwards; every
    array is read-only, so the index, the cached neighbour lists (see
    ``adjacency``), the cached GRAPH v1 digest (see ``graph_sha256``) and
    the cached girth (see ``girth``) cannot go stale.
    """

    __slots__ = ("vertex_count", "_eu", "_ev", "_indptr", "_nbr", "_nbr_eid", "_keys",
                 "_adj", "_sha256", "_girth")

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
        self._set_edges(n, lo, hi, keys)

    @classmethod
    def _from_canonical(cls, vertex_count: int, eu: np.ndarray, ev: np.ndarray,
                        keys: np.ndarray) -> "Graph":
        """``from_arrays`` for int64 edges already proved canonical: every
        0 <= u < v < vertex_count, and the pairs sorted and distinct, as
        ``parse_graph_text`` checks them with their ``keys``
        ``u * vertex_count + v``.  Skips the sort."""
        g = cls.__new__(cls)
        g._set_edges(vertex_count, eu, ev, keys)
        return g

    def _set_edges(self, n: int, lo: np.ndarray, hi: np.ndarray, keys: np.ndarray) -> None:
        self.vertex_count = n
        self._eu = lo
        self._ev = hi
        self._keys = keys
        for arr in (self._eu, self._ev, self._keys):
            arr.flags.writeable = False
        self._indptr = self._nbr = self._nbr_eid = None
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

    The search meets in the middle: each side keeps the ball it has seen and
    its last level, and each step grows the side whose frontier is smaller
    (the source side on a tie) by one whole level.  It is exact.  While the
    sides have gone a levels from ``src`` and b from ``dst`` without meeting,
    the distance D exceeds a + b: otherwise the node at position min(a, D)
    of a shortest path would lie in both balls.  So the first neighbour found
    in the other side's ball, while one side grows to a + 1, closes a path
    of a + 1 + b hops, which is D, and every meeting in that level gives the
    same sum.  An empty frontier means its side's component is exhausted
    without meeting, so ``dst`` is unreachable.

    With ``skip_direct`` the search runs on the graph without {src, dst}: the
    step from ``src`` straight to ``dst`` is skipped on the source side and
    the reverse step on the target side.  Neither root can enter the other
    side's ball without meeting first, so no other step crosses that edge.
    """
    if src == dst:
        return 0
    seen_s, seen_t = {src}, {dst}
    front_s, front_t = [src], [dst]
    banned_s, banned_t = (dst, src) if skip_direct else (-1, -1)
    ds = dt = 0
    while front_s and front_t and (cap is None or ds + dt < cap):
        if len(front_s) <= len(front_t):
            front_s = _grow(adj, front_s, seen_s, seen_t, src, banned_s)
            ds += 1
            if front_s is None:
                return ds + dt
        else:
            front_t = _grow(adj, front_t, seen_t, seen_s, dst, banned_t)
            dt += 1
            if front_t is None:
                return ds + dt
    return INFINITY


def _grow(adj, frontier, seen, other, root, banned):
    """One level of one side of ``_hops``: the next frontier, added to
    ``seen``, or None once a neighbour lies in the other side's ball
    ``other``.  The step from ``root`` to ``banned`` is skipped."""
    nxt = []
    for u in frontier:
        for w in adj[u]:
            if w in other:
                if w == banned and u == root:
                    continue
                return None
            if w not in seen:
                seen.add(w)
                nxt.append(w)
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
    cross-checking, and caches nothing.
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
#
# Every parser takes its text as str or as bytes and reads it as bytes
# (``_text_bytes``): a str is encoded once, on entry.  Every offset below is
# one in those bytes.  A check names the first fault in text order, and all
# that precedes a fault is ASCII, so its offset is one in the str too.
#
# The kernels work one block at a time: ``_decimal_blocks`` renders
# ``_WRITE_ROWS`` rows per block, and the body checks and ``_int_rows`` read
# blocks of about ``_READ_BYTES`` bytes that end at line breaks (see
# ``_line_blocks``).  Their temporaries are bounded by these constants; only
# the text's bytes, the decoded values and per-row arrays span the text.

_MAX_DIGITS = 18
_NOT_DECIMAL = f"is not an integer of 1 to {_MAX_DIGITS} decimal digits"
_BODY_BYTES = "0123456789 \t\n\r\v\f"      # and the format's tag letters
_LINE_BREAK = re.compile(rb"\r\n|[\n\r\v\f]")
_BREAK_BYTE = re.compile(rb"[\n\r\v\f]")
_SEPARATOR = re.compile(rb"[ \t\n\r\v\f]")
_HEAD_FORBIDDEN = re.compile(rb"[^\t\x20-\x7e]")
_NON_ASCII = re.compile(rb"[\x80-\xff]")
_BLANK_TAGS = bytes.maketrans(b"ABCDEFGHIJKLMNOPQRSTUVWXYZ", b" " * 26)
_NO_TAGS = np.zeros(0, dtype=np.int64)
_WRITE_ROWS = 1 << 15
_READ_BYTES = 1 << 16

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


def _text_bytes(text) -> bytes:
    """A parser's input as bytes: bytes as they are, a str encoded once.  A
    str that is not ASCII is encoded as UTF-8, lone surrogates included, so
    that a check finds its first non-ASCII character as a non-ASCII byte and
    ``_token_error`` quotes it as the str holds it."""
    return text if isinstance(text, bytes) else text.encode("utf-8", "surrogatepass")


def _line_number(raw: bytes, pos: int) -> int:
    """1-based number of the line holding byte offset ``pos``."""
    return len(_LINE_BREAK.findall(raw, 0, pos)) + 1


def _token_error(raw: bytes, pos: int, problem: str) -> InputError:
    """InputError naming the line of byte ``pos`` and quoting the
    blank-separated token that holds it, decoded."""
    lo = max(raw.rfind(c, 0, pos) for c in b" \t\n\r\v\f") + 1
    sep = _SEPARATOR.search(raw, pos)
    token = raw[lo:sep.start() if sep else len(raw)]
    try:
        quoted = token.decode("utf-8", "surrogatepass")
    except UnicodeDecodeError:          # bytes that no str encodes to
        quoted = token.decode("utf-8", "backslashreplace")
    return InputError(f"line {_line_number(raw, pos)}: {quoted!r} {problem}")


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
            raise InputError(f"line {number}: control or non-ASCII character")
        if not skip_blank or line.strip():
            lines.append(line.decode("ascii"))
            numbers.append(number)
        pos = nxt
    return lines, numbers, pos


def _is_break(b: np.ndarray) -> np.ndarray:
    """Per uint8 byte: is it a line break, one of \n \v \f \r (10 to 13)?"""
    return (b - np.uint8(10)) < 4


def _line_blocks(raw: bytes, start: int, at: np.ndarray = _NO_TAGS):
    """The blocks of the body ``raw[start:]``, which begins a line, in text
    order: (lo, block, tags) with the block's offset in ``raw``, its bytes
    as a uint8 array, and the offsets in it of the tags ``at`` (ascending
    offsets in ``raw``).

    A block ends just after the last line break among its first
    ``_READ_BYTES`` bytes, so every block begins a line; a line longer than
    that makes its block end after its own break.  The last block ends
    where ``raw`` does.
    """
    lo, size = start, len(raw)
    while lo < size:
        hi = lo + _READ_BYTES
        if hi >= size:
            hi = size
        else:
            cut = raw.rfind(b"\n", lo, hi)
            for c in b"\r\v\f":      # only a break after the last \n matters
                cut = max(cut, raw.rfind(c, max(cut, lo), hi))
            if cut >= lo:
                hi = cut + 1
            else:
                brk = _BREAK_BYTE.search(raw, hi)
                hi = brk.end() if brk else size
        tags = at[np.searchsorted(at, lo):np.searchsorted(at, hi)] - lo
        yield lo, np.frombuffer(raw, dtype=np.uint8, count=hi - lo, offset=lo), tags
        lo = hi


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
    found = [_NO_TAGS]
    for lo, block, _ in _line_blocks(raw, start):
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


def _token_rows(block: np.ndarray, at: np.ndarray) -> tuple:
    """Tokens and rows of a block of body bytes that passed ``_check_body``
    and begins a line; its tags are at positions ``at``.

    Returns (starts, ends, heads): the span of every token, a tag being one,
    and the index of each row's first token, row r being the r-th nonblank
    line.  Every per-byte temporary is uint8 or bool.
    """
    token = np.zeros(block.size + 2, dtype=bool)      # padded by a non-token byte
    np.less(block - np.uint8(ord("0")), 10, out=token[1:-1])
    token[at + 1] = True
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


def _decimal_values(data: bytes, count: int, tagged: bool = True) -> np.ndarray:
    """int64 values of the ``count`` digit tokens of ``data``, body bytes
    that passed ``_check_body`` and whose tokens the caller counted and
    checked to hold at most 18 digits.  Tag letters separate tokens like
    blanks; a caller whose bytes hold none passes ``tagged=False`` to skip
    blanking them.

    One C-level parse of the bytes.  numpy reads a text without a token as
    one 0, so such bytes skip the parse.
    """
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    values = np.fromstring(data.translate(_BLANK_TAGS) if tagged else data,
                           dtype=np.int64, sep=" ")
    if values.size != count:
        raise AssertionError(f"decoded {values.size} values from {count} tokens")
    return values


def _int_rows(raw: bytes, start: int, what: str, width: int | None = None,
              count: int | None = None, tags: str = "") -> tuple:
    """Tokenize the body ``raw[start:]``, which begins a line, by the policy
    above.

    Returns (values, first, tag).  Row r is the r-th nonblank line: its
    integers are ``values[first[r]:first[r + 1]]`` and ``tag[r]`` is its tag
    letter as a byte (0 for none; ``tags`` holds the format's letters).
    ``count``, when given, is the declared number of rows and ``width`` the
    number of integers every row holds; with a ``width``, ``first`` is None:
    row r's integers are then ``values[r * width:(r + 1) * width]``.  An
    error about row r names the line of ``_row_offset``.

    The body is checked, then tokenized and decoded one block at a time.  A
    block records its first fault of each kind, and the faults are raised
    after the last block, in a fixed order: the body checks, the row count,
    the first row of the wrong width, then the first token of the most
    digits, if that is over 18.  Values are decoded while no fault is seen,
    into one array sized from ``count`` and ``width`` when both are given.
    """
    at = _check_body(raw, start, tags)
    fixed = width is not None and count is not None and count * width <= len(raw)
    values = np.empty(count * width if fixed else 0, dtype=np.int64)
    parts, tag_parts, count_parts = [], [], []
    rows = done = longest = 0
    wrong_at = longest_at = None
    for lo, block, block_at in _line_blocks(raw, start, at):
        starts, ends, heads = _token_rows(block, block_at)
        if starts.size:
            lengths = ends - starts
            most = int(lengths.max())
            if most > longest:
                longest, longest_at = most, lo + int(starts[lengths.argmax()])
        lead = block[starts[heads]]
        tagged = lead > ord("9")      # a token is digits or a tag, and letters sort after digits
        tag_parts.append(np.where(tagged, lead, 0).astype(np.uint8))
        # A tag is the first token of its row; the row's other tokens are integers.
        counts = np.diff(heads, append=starts.size) - tagged
        if width is None:
            count_parts.append(counts)
        elif wrong_at is None and (counts != width).any():
            wrong_at = lo + int(starts[heads[(counts != width).argmax()]])
        rows += heads.size
        total = int(counts.sum())
        if (total and wrong_at is None and longest <= _MAX_DIGITS
                and (count is None or rows <= count)):
            block_values = _decimal_values(raw[lo:lo + block.size], total, bool(tags))
            if fixed:
                values[done:done + total] = block_values
            else:
                parts.append(block_values)
            done += total
    if count is not None and rows != count:
        raise InputError(f"expected {count} {what} lines, found {rows}")
    if wrong_at is not None:
        raise InputError(f"line {_line_number(raw, wrong_at)}: "
                         f"expected {width} integer(s) per {what} line")
    if longest > _MAX_DIGITS:
        raise _token_error(raw, longest_at, _NOT_DECIMAL)
    if not fixed and parts:
        values = np.concatenate(parts)
    first = None
    if width is None:
        first = np.append(0, np.cumsum(np.concatenate([np.zeros(0, np.int64), *count_parts])))
    return values, first, np.concatenate([np.zeros(0, np.uint8), *tag_parts])


def _row_offset(raw: bytes, start: int, row: int, tags: str = "") -> int:
    """Offset in ``raw`` of the first token of row ``row`` of a body that
    ``_int_rows(raw, start, ..., tags=tags)`` read; an error message names
    its ``_line_number``.  Tokenizes the body again, block by block, up to
    the row, so only the error path pays for row offsets."""
    at = _check_body(raw, start, tags)
    for lo, block, block_at in _line_blocks(raw, start, at):
        starts, _, heads = _token_rows(block, block_at)
        if row < heads.size:
            return lo + int(starts[heads[row]])
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


def parse_graph_text(text) -> Graph:
    """Parse GRAPH v1 text, given as str or as ASCII bytes."""
    raw = _text_bytes(text)
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
    values, _, _ = _int_rows(raw, start, "edge", width=2, count=m)
    # The bytes a str was encoded to are freed before the keys are made; the
    # error path below encodes it again.
    del raw
    eu, ev = values[0::2], values[1::2]
    keys = None
    if ev.max(initial=-1) < n and (eu < ev).all():
        keys = eu * np.int64(n)             # below n * n, so it cannot overflow
        keys += ev
    # With every 0 <= u < v < n, the keys rise strictly exactly when the
    # edges are sorted and distinct; only a fault needs the per-row masks.
    if keys is None or (keys[1:] <= keys[:-1]).any():
        du, dv = np.diff(eu), np.diff(ev)
        for bad, message in [
            (eu >= ev, "edge line not in u < v form"),
            (ev >= n, "edge endpoint out of range"),
            (np.concatenate([[False], (du == 0) & (dv == 0)]), "duplicate edge"),
            (np.concatenate([[False], (du < 0) | ((du == 0) & (dv < 0))]),
             "edge lines not sorted"),
        ]:
            if bad.any():
                row, raw = int(bad.argmax()), _text_bytes(text)
                raise InputError(f"line {_line_number(raw, _row_offset(raw, start, row))}: "
                                 f"{message}")
    return Graph._from_canonical(n, eu, ev, keys)


def graph_sha256(g: Graph) -> str:
    """sha256 of the GRAPH v1 text of ``g``, computed at most once per graph."""
    if g._sha256 is None:
        for _ in _graph_chunks(g):
            pass
    return g._sha256
