"""Label Cover and Min-Rep instance model, labeling/REP-cover evaluation.

A Label Cover instance is a bipartite supergraph over sides A and B with a
nonempty relation on each superedge.  The relations are rows of one flat CSR
table that superedges index (product constructions repeat the same few
relations across many superedges), and every kernel reads those arrays;
each superedge still serializes with its full pair list.

Canonical identities: superedges are sorted by (a, b) and the superedge id
equals the edge id of the corresponding supergraph edge.  Min-Rep vertices
are indexed A-block first, row-major by (supervertex, symbol).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InputError
from .graphs import (_MAX_DIGITS, _NO_TAGS, _NOT_DECIMAL, _READ_BYTES, _WRITE_ROWS, Graph,
                     _check_body, _check_declared, _decimal_block, _decimal_text,
                     _decimal_values, _decimals, _head_lines, _int_rows, _is_break,
                     _line_number, _row_offset, _sorted_distinct, _text_bytes, _token_error,
                     _token_rows)


class LabelCoverInstance:
    """Bipartite supergraph plus per-superedge relations over two alphabets.

    The relations form one CSR table (see ``relation_arrays``): row r holds
    the pairs ``(rel_alpha[s], rel_beta[s])`` for s in
    ``rel_start[r]:rel_start[r + 1]``, sorted by (alpha, beta), distinct and
    nonempty, and superedge e uses row ``rel_ids[e]``.  Rows may repeat each
    other's content, and rows no superedge uses may remain after
    ``restrict_edges``.  The table's arrays are read-only.
    """

    __slots__ = ("a_count", "b_count", "sigma_a", "sigma_b", "_ea", "_eb",
                 "_rel_ids", "_rel_start", "_rel_alpha", "_rel_beta", "_supergraph")

    def __init__(self, a_count, b_count, sigma_a, sigma_b, superedges):
        self.a_count = int(a_count)
        self.b_count = int(b_count)
        self.sigma_a = int(sigma_a)
        self.sigma_b = int(sigma_b)
        table: dict[tuple, int] = {}        # one row per distinct pair set
        rows = []
        for a, b, pairs in superedges:
            pairs = tuple(sorted(set((int(x), int(y)) for x, y in pairs)))
            rows.append((int(a), int(b), table.setdefault(pairs, len(table))))
        rows.sort()
        ea, eb, rel_ids = np.array(rows, dtype=np.int64).reshape(-1, 3).T.copy()
        flat = np.array([p for pairs in table for p in pairs], dtype=np.int64).reshape(-1, 2)
        start = np.append(0, np.cumsum(list(map(len, table)), dtype=np.int64))
        self._finish_init(ea, eb, rel_ids, (start, flat[:, 0], flat[:, 1]))

    @classmethod
    def from_arrays(cls, a_count, b_count, sigma_a, sigma_b, ea, eb, rel_ids, relations):
        """Fast path for internal builders; edges must already be (a, b)-sorted
        and ``relations`` is a CSR table ``(rel_start, rel_alpha, rel_beta)``."""
        inst = cls.__new__(cls)
        inst.a_count = int(a_count)
        inst.b_count = int(b_count)
        inst.sigma_a = int(sigma_a)
        inst.sigma_b = int(sigma_b)
        inst._finish_init(
            np.asarray(ea, dtype=np.int64),
            np.asarray(eb, dtype=np.int64),
            np.asarray(rel_ids, dtype=np.int64),
            relations,
        )
        return inst

    def _finish_init(self, ea, eb, rel_ids, relations):
        if self.sigma_a < 1 or self.sigma_b < 1:
            raise InputError("alphabet sizes must be >= 1")
        start, alpha, beta = map(_read_only, relations)
        if start.size == 0 or start[0] != 0 or start[-1] != alpha.size or beta.size != alpha.size:
            raise InputError("relation table offsets do not match its pairs")
        if (np.diff(start) <= 0).any():
            raise InputError("relations must be nonempty")
        if ea.size:
            if ea.min() < 0 or ea.max() >= self.a_count:
                raise InputError("superedge A endpoint out of range")
            if eb.min() < 0 or eb.max() >= self.b_count:
                raise InputError("superedge B endpoint out of range")
            keys = ea * np.int64(self.b_count) + eb
            if (np.diff(keys) <= 0).any():
                raise InputError("superedges must be distinct and (a, b)-sorted")
            if rel_ids.min() < 0 or rel_ids.max() >= start.size - 1:
                raise InputError("relation row id out of range")
        if alpha.size and (min(alpha.min(), beta.min()) < 0 or alpha.max() >= self.sigma_a
                           or beta.max() >= self.sigma_b):
            raise InputError("relation symbol out of range")
        ascending = (alpha[1:] > alpha[:-1]) | ((alpha[1:] == alpha[:-1]) & (beta[1:] > beta[:-1]))
        ascending[start[1:-1] - 1] = True       # a row's first pair follows no pair of its row
        if not ascending.all():
            raise InputError("relation pairs must be sorted and distinct")
        self._ea = ea
        self._eb = eb
        self._rel_ids = rel_ids
        self._rel_start, self._rel_alpha, self._rel_beta = start, alpha, beta
        self._supergraph = None

    @property
    def edge_count(self) -> int:
        return int(self._ea.size)

    def edge(self, e: int) -> tuple[int, int]:
        if not 0 <= e < self.edge_count:
            raise InputError(f"superedge id {e} out of range")
        return int(self._ea[e]), int(self._eb[e])

    def relation(self, e: int) -> tuple:
        """Superedge e's relation: its (alpha, beta) pairs, sorted."""
        r = int(self._rel_ids[e])
        lo, hi = int(self._rel_start[r]), int(self._rel_start[r + 1])
        return tuple(zip(self._rel_alpha[lo:hi].tolist(), self._rel_beta[lo:hi].tolist()))

    def edge_arrays(self):
        return self._ea, self._eb, self._rel_ids

    def relation_arrays(self):
        """The CSR relation table: (rel_start, rel_alpha, rel_beta)."""
        return self._rel_start, self._rel_alpha, self._rel_beta

    def degrees_a(self) -> np.ndarray:
        return np.bincount(self._ea, minlength=self.a_count)

    def degrees_b(self) -> np.ndarray:
        return np.bincount(self._eb, minlength=self.b_count)

    def restrict_edges(self, keep_ids) -> "LabelCoverInstance":
        """New instance keeping only the given superedge ids (sorted)."""
        keep = _sorted_distinct(keep_ids)
        if keep.size and (keep[0] < 0 or keep[-1] >= self.edge_count):
            raise InputError("superedge id out of range")
        return LabelCoverInstance.from_arrays(
            self.a_count, self.b_count, self.sigma_a, self.sigma_b,
            self._ea[keep], self._eb[keep], self._rel_ids[keep], self.relation_arrays())

    def without_edges(self, drop_ids) -> "LabelCoverInstance":
        """New instance without the given superedge ids."""
        keep = np.ones(self.edge_count, dtype=bool)
        keep[np.asarray(drop_ids, dtype=np.int64)] = False
        return self.restrict_edges(np.nonzero(keep)[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabelCoverInstance):
            return False
        if (self.a_count, self.b_count, self.sigma_a, self.sigma_b) != \
           (other.a_count, other.b_count, other.sigma_a, other.sigma_b):
            return False
        if not (np.array_equal(self._ea, other._ea) and np.array_equal(self._eb, other._eb)):
            return False
        # Compare the rows of each distinct (own row, other's row) pairing once.
        width = max(other._rel_start.size - 1, 1)
        mine, theirs = np.divmod(_sorted_distinct(self._rel_ids * width + other._rel_ids), width)
        slots, sizes = _row_slots(self._rel_start, mine)
        other_slots, other_sizes = _row_slots(other._rel_start, theirs)
        return (np.array_equal(sizes, other_sizes)
                and np.array_equal(self._rel_alpha[slots], other._rel_alpha[other_slots])
                and np.array_equal(self._rel_beta[slots], other._rel_beta[other_slots]))

    def __repr__(self) -> str:
        return (f"LabelCoverInstance(|A|={self.a_count}, |B|={self.b_count}, "
                f"sigma=({self.sigma_a},{self.sigma_b}), m={self.edge_count})")


def _read_only(values) -> np.ndarray:
    """A read-only int64 view of ``values``."""
    arr = np.asarray(values, dtype=np.int64).view()
    arr.flags.writeable = False
    return arr


def _row_slots(start: np.ndarray, rows: np.ndarray) -> tuple:
    """Where ``rows`` of a CSR table lie: their pair indices, row after row,
    and each row's size."""
    sizes = start[rows + 1] - start[rows]
    first = np.cumsum(sizes) - sizes
    return np.repeat(start[rows] - first, sizes) + np.arange(sizes.sum()), sizes


@dataclass(frozen=True)
class Labeling:
    """One symbol per supervertex on each side."""

    gamma_a: tuple
    gamma_b: tuple

    def check_shape(self, lc: LabelCoverInstance) -> None:
        if len(self.gamma_a) != lc.a_count or len(self.gamma_b) != lc.b_count:
            raise InputError("labeling shape does not match instance")
        for s in self.gamma_a:
            if not 0 <= s < lc.sigma_a:
                raise InputError("A-side label out of range")
        for s in self.gamma_b:
            if not 0 <= s < lc.sigma_b:
                raise InputError("B-side label out of range")


@dataclass(frozen=True)
class RepCover:
    """Set of (side, supervertex, symbol) representatives; sides are 'A'/'B'."""

    members: frozenset

    @classmethod
    def of(cls, items) -> "RepCover":
        return cls(frozenset((str(s), int(i), int(y)) for s, i, y in items))

    def sorted_members(self) -> list:
        return sorted(self.members)

    def __len__(self) -> int:
        return len(self.members)


def _relation_slots(lc: LabelCoverInstance):
    """Every (superedge, relation pair), superedge-major with each relation's
    pairs in sorted order: (starts, superedge, alpha, beta), where starts[e]
    is the first slot of superedge e."""
    slots, counts = _row_slots(lc._rel_start, lc._rel_ids)
    slot_se = np.repeat(np.arange(lc.edge_count, dtype=np.int64), counts)
    return np.cumsum(counts) - counts, slot_se, lc._rel_alpha[slots], lc._rel_beta[slots]


def distinct_relations(lc: LabelCoverInstance) -> int:
    """Number of distinct relations among the superedges, the blocks that
    LC v1 writing and parsing render and tokenize: used rows that differ in
    content."""
    start, alpha, beta = lc._rel_start.tolist(), lc._rel_alpha, lc._rel_beta
    return len({(alpha[start[r]:start[r + 1]].tobytes(), beta[start[r]:start[r + 1]].tobytes())
                for r in _sorted_distinct(lc._rel_ids).tolist()})


def _covered_mask(lc: LabelCoverInstance, a_keys: np.ndarray, b_keys: np.ndarray) -> np.ndarray:
    """Per superedge (a, b): does a pair (alpha, beta) of its relation have
    both ends among the members?  Members are sorted distinct keys
    ``a * sigma_a + alpha`` (A side) and ``b * sigma_b + beta`` (B side)."""
    _, slot_se, alpha, beta = _relation_slots(lc)
    hit = np.flatnonzero(_is_member(a_keys, lc._ea[slot_se] * lc.sigma_a + alpha))
    hit = hit[_is_member(b_keys, lc._eb[slot_se[hit]] * lc.sigma_b + beta[hit])]
    covered = np.zeros(lc.edge_count, dtype=bool)
    covered[slot_se[hit]] = True
    return covered


def _is_member(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Which ``queries`` occur in the sorted array ``keys`` (a binary search
    per query; no table spanning the key range)."""
    if keys.size == 0:
        return np.zeros(queries.shape, dtype=bool)
    return keys[np.searchsorted(keys, queries).clip(max=keys.size - 1)] == queries


def _satisfied_mask(lc: LabelCoverInstance, lab: Labeling) -> np.ndarray:
    """Per superedge: does its relation admit the symbol pair ``lab`` assigns?
    A labeling is the cover with one member per supervertex."""
    lab.check_shape(lc)
    return _covered_mask(lc, _member_keys(lab.gamma_a, lc.sigma_a),
                         _member_keys(lab.gamma_b, lc.sigma_b))


def _member_keys(gamma, sigma: int) -> np.ndarray:
    """Sorted keys ``v * sigma + gamma[v]`` of a one-symbol-per-vertex side."""
    return np.arange(len(gamma), dtype=np.int64) * sigma + np.asarray(gamma, dtype=np.int64)


def satisfied_count(lc: LabelCoverInstance, lab: Labeling) -> int:
    """Number of superedges whose relation admits the assigned symbol pair."""
    return int(np.count_nonzero(_satisfied_mask(lc, lab)))


def value(lc: LabelCoverInstance, lab: Labeling) -> Fraction:
    """Fraction of superedges satisfied under the uniform edge measure.

    An instance with no superedges has value 1 (vacuously satisfied); cycle
    stripping can empty the edge set.
    """
    if lc.edge_count == 0:
        return Fraction(1)
    return Fraction(satisfied_count(lc, lab), lc.edge_count)


def supergraph(lc: LabelCoverInstance) -> Graph:
    """Bipartite carrier graph; superedge id i is supergraph edge id i."""
    if lc._supergraph is None:
        lc._supergraph = Graph.from_arrays(lc.a_count + lc.b_count, lc._ea, lc._eb + lc.a_count)
    return lc._supergraph


@dataclass(frozen=True)
class MinRepInstance:
    """Expanded Min-Rep graph over (A x Sigma_A) + (B x Sigma_B)."""

    source: LabelCoverInstance
    minrep_graph: Graph

    @property
    def vertex_count(self) -> int:
        return self.minrep_graph.vertex_count

    def a_vertex(self, i: int, alpha: int) -> int:
        return i * self.source.sigma_a + alpha

    def b_vertex(self, j: int, beta: int) -> int:
        return self.source.a_count * self.source.sigma_a + j * self.source.sigma_b + beta

    def vertex_label(self, v: int) -> tuple:
        """Decode a Min-Rep vertex id to (side, supervertex, symbol)."""
        a_block = self.source.a_count * self.source.sigma_a
        if v < a_block:
            return ("A", v // self.source.sigma_a, v % self.source.sigma_a)
        v -= a_block
        return ("B", v // self.source.sigma_b, v % self.source.sigma_b)


def minrep_expand(lc: LabelCoverInstance) -> MinRepInstance:
    """Expand to the Min-Rep graph: an edge per (superedge, relation pair).

    The full alphabets are materialized as vertices even for symbols that
    appear in no relation; vertex count is |A|*|Sigma_A| + |B|*|Sigma_B|.
    """
    n = lc.a_count * lc.sigma_a + lc.b_count * lc.sigma_b
    _, slot_se, alpha, beta = _relation_slots(lc)
    eu = lc._ea[slot_se] * np.int64(lc.sigma_a) + alpha
    ev = lc.a_count * lc.sigma_a + lc._eb[slot_se] * np.int64(lc.sigma_b) + beta
    return MinRepInstance(lc, Graph.from_arrays(n, eu, ev))


def repcover_valid(mr: MinRepInstance, cover: RepCover) -> tuple[bool, int | None]:
    """Check every superedge has a covering representative pair.

    Returns (True, None) or (False, first failing superedge id).
    """
    lc = mr.source
    keys: tuple[list, list] = ([], [])
    for side, i, sym in cover.members:
        if side not in ("A", "B"):
            raise InputError(f"cover side must be 'A' or 'B': {side!r}")
        count, sigma = (lc.a_count, lc.sigma_a) if side == "A" else (lc.b_count, lc.sigma_b)
        if not (0 <= i < count and 0 <= sym < sigma):
            raise InputError(f"cover member out of range: {(side, i, sym)}")
        keys[side == "B"].append(i * sigma + sym)
    covered = _covered_mask(lc, _sorted_distinct(keys[0]), _sorted_distinct(keys[1]))
    if covered.all():
        return True, None
    return False, int(covered.argmin())


def labeling_to_repcover(lc: LabelCoverInstance, lab: Labeling) -> RepCover:
    """One representative per supervertex; valid iff the labeling has value 1."""
    lab.check_shape(lc)
    members = [("A", i, s) for i, s in enumerate(lab.gamma_a)]
    members += [("B", j, s) for j, s in enumerate(lab.gamma_b)]
    return RepCover.of(members)


# --- LC v1 / COVER v1 / LABEL v1 text formats --------------------------------

def write_lc_text(lc: LabelCoverInstance) -> str:
    """LC v1 text: per superedge its ``E a b t`` line, then the t pair lines
    of its relation."""
    return b"".join(_lc_chunks(lc)).decode("ascii")


def _lc_chunks(lc: LabelCoverInstance):
    """LC v1 text of ``lc`` as byte chunks: the header, then the E lines and
    relation blocks of one run of superedges per chunk.  A run holds at most
    ``_WRITE_ROWS`` lines, or one superedge whose block is longer.

    One call renders the block of each relation in use; a chunk joins, in
    superedge order, each E line of its run with its relation's block."""
    yield (f"LC v1\nA {lc.a_count} B {lc.b_count} SA {lc.sigma_a} SB {lc.sigma_b} "
           f"M {lc.edge_count}\n").encode("ascii")
    used = _sorted_distinct(lc._rel_ids)
    slots, sizes = _row_slots(lc._rel_start, used)
    pair_text = _decimal_text([lc._rel_alpha[slots], lc._rel_beta[slots]])
    block_ends = [0] + _line_ends(pair_text)[np.cumsum(sizes) - 1].tolist()
    # Each block with the line break that ends the E line before it.
    blocks = [b"\n" + pair_text[i:j] for i, j in zip(block_ends, block_ends[1:])]
    del pair_text
    slot = np.searchsorted(used, lc._rel_ids)
    t = sizes[slot]
    line_end = np.cumsum(t + 1)          # lines up to each superedge's last
    lo = 0
    while lo < lc.edge_count:
        hi = max(int(np.searchsorted(line_end, line_end[lo] - t[lo] - 1 + _WRITE_ROWS,
                                     side="right")), lo + 1)
        parts = [b""] * (2 * (hi - lo))
        parts[0::2] = _decimal_block([lc._ea[lo:hi], lc._eb[lo:hi], t[lo:hi]], "E").split(b"\n")[:-1]
        parts[1::2] = map(blocks.__getitem__, slot[lo:hi].tolist())
        yield b"".join(parts)
        lo = hi


def _line_ends(data: bytes) -> np.ndarray:
    """Offset just past each ``\\n`` of ``data``."""
    return np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == ord("\n")) + 1


def parse_lc_text(text) -> LabelCoverInstance:
    """Parse LC v1 text, given as str or as ASCII bytes, at the cost of its
    distinct relation blocks (see ``_lc_body``)."""
    raw = _text_bytes(text)
    lines, numbers, start = _head_lines(raw, 2, skip_blank=True)
    if not lines or lines[0] != "LC v1":
        raise InputError("missing LC v1 header")
    toks = lines[1].split() if len(lines) > 1 else []
    if len(toks) != 10 or toks[0::2] != ["A", "B", "SA", "SB", "M"]:
        raise InputError("bad LC size line")
    where = f"line {numbers[1]}"
    a_count, b_count, sigma_a, sigma_b, m = _decimals(toks[1::2], where)
    for field, size in [("A", a_count), ("B", b_count),
                        ("A*SA + B*SB", a_count * sigma_a + b_count * sigma_b)]:
        _check_declared(where, field, size)
    return LabelCoverInstance.from_arrays(a_count, b_count, sigma_a, sigma_b,
                                          *_lc_body(raw, start, m))


_DIGIT = re.compile(rb"[0-9]")


def _lc_body(raw: bytes, start: int, m: int) -> tuple:
    """The superedges and relations of the LC v1 body ``raw[start:]``, which
    declares ``m`` superedges, as ``from_arrays`` takes them: (ea, eb,
    rel_ids, (rel_start, rel_alpha, rel_beta)).  Every temporary is freed on
    return, before the instance checks its arrays.

    ``_check_body`` checks the body; then it is cut at its E tags.  The text
    before the first tag is a block with no superedge, which must hold no
    token.  Each superedge has its E line, up to and including its first
    line break character, and then its relation block, up to the next tag.
    Identical block texts hold identical tokens, so each distinct block is
    read once, where it first occurs.  The E lines and these first
    occurrences are read in groups of a bounded size (``_piece_groups``):
    the E lines in one pass that checks and decodes them, the blocks in one
    that counts and checks their rows (``_piece_rows``) and, once every
    other check has passed, one that decodes their pairs into the arrays
    sized from those counts (``_pairs``).  Every check still covers every
    line, and an error names the line and quotes the token of the first
    fault in text order: a block's first fault is first where the block
    first occurs, and the blocks are numbered in that order.  The distinct
    blocks are the rows of the CSR relation table, so their decoded pairs
    are its pair arrays as they stand.

    The E line ends are searched from the tags (``_first_breaks``): a short
    window of bytes per tag, widened only for the tags whose line is longer,
    read a bounded number of bytes at a time.  So no array holds an entry
    per line break, per token or per byte of the body, whatever the input.
    The distinct block texts are kept only while the blocks are numbered
    (``_block_ids``).
    """
    at = _check_body(raw, start, "E")
    whole = np.frombuffer(raw, dtype=np.uint8)
    n = whole.size
    # Block piece j is [lo[j], hi[j]): j = 0 lies before the first tag, and
    # j = i + 1 follows superedge i's E line [at[i], e_end[i]).
    hi = np.append(at, n)
    lo = np.append(start, np.minimum(start + _first_breaks(whole[start:], at - start) + 1, n))
    at, e_end = hi[:-1], lo[1:]
    bid = _block_ids(raw, lo, hi)
    first = np.unique(bid, return_index=True)[1]      # piece of each block's first occurrence
    b_lo, b_hi = lo[first], hi[first]
    e_values = np.empty((at.size, 3), dtype=np.int64)
    e_longest, e_wrong = _piece_rows(whole, at, e_end, 4, e_values)[1:]   # E and 3 integers
    rows, b_longest, b_wrong = _piece_rows(whole, b_lo, b_hi, 2)

    longest = max(e_longest[0], b_longest[0])
    if longest > _MAX_DIGITS:
        pos = min(p for d, p in (e_longest, b_longest) if d == longest)
        raise _token_error(raw, pos, _NOT_DECIMAL)
    if at.size != m:
        raise InputError(f"expected {m} superedge lines, found {at.size}")
    if rows[0]:                                         # block 0 is piece 0
        pos = _DIGIT.search(raw, start).start()
        raise InputError(f"line {_line_number(raw, pos)}: "
                         "relation pair line outside a superedge block")
    if e_wrong is not None or b_wrong is not None:
        pos = min(p for p in (e_wrong, b_wrong) if p is not None)
        kind, width = ("superedge", 3) if raw[pos] == ord("E") else ("relation pair", 2)
        raise InputError(f"line {_line_number(raw, pos)}: "
                         f"expected {width} integers on a {kind} line")
    a, b, t = e_values.T
    wrong = rows[bid[1:]] != t
    if wrong.any():
        e = int(wrong.argmax())
        found = rows[bid[e + 1]]
        state = "truncated" if found < t[e] else "too long"
        raise InputError(f"line {_line_number(raw, int(at[e]))}: relation block "
                         f"{state}: {t[e]} pair lines declared, {found} found")
    # The piece before the first tag holds no pair; it is a row only if a
    # superedge's block has its text.
    skip = int(not (bid[1:] == 0).any())
    order = np.lexsort((b, a))
    superedges = (a[order], b[order], (bid[1:] - skip)[order])
    # Only what the instance keeps stays alive while the pairs are decoded.
    del lo, hi, at, e_end, bid, first, e_values, a, b, t, order
    alpha, beta, unsorted = _pairs(whole, b_lo, b_hi, rows)
    if unsorted is not None:
        raise InputError(f"line {_line_number(raw, unsorted)}: "
                         "relation pairs must be sorted and distinct")
    return (*superedges, (np.append(0, np.cumsum(rows[skip:])), alpha, beta))


# Pieces numbered per step of ``_block_ids``: its two offset lists of Python
# ints take about 72 bytes an entry.
_ID_STEP = _READ_BYTES // 16


def _block_ids(raw: bytes, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per piece ``raw[lo[j]:hi[j]]``, the id of its text, the distinct
    texts numbered in order of first occurrence.  Only the distinct texts
    are kept, until the last piece is numbered."""
    index: dict = {}
    bid = np.empty(lo.size, dtype=np.int64)
    for c in range(0, lo.size, _ID_STEP):
        pieces = map(raw.__getitem__, map(slice, lo[c:c + _ID_STEP].tolist(),
                                          hi[c:c + _ID_STEP].tolist()))
        bid[c:c + _ID_STEP] = np.fromiter((index.setdefault(p, len(index)) for p in pieces),
                                          dtype=np.int64, count=min(_ID_STEP, lo.size - c))
    return bid


# Bytes per group of ``_piece_groups``.  Pieces shorter than
# ``_GATHER_BELOW`` bytes on average, such as E lines as written, are
# gathered through an int64 index of 24 bytes per byte; longer ones, such as
# relation blocks, are joined as slices, each of which costs about as much
# as gathering 80 bytes.
_GROUP_BYTES = _READ_BYTES // 2
_GATHER_BELOW = 32


def _piece_groups(whole: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """The pieces ``whole[lo[k]:hi[k]]`` of the text bytes (ascending and
    disjoint, each beginning a line and each but the text's last ending
    with a line break) in groups that together hold at most
    ``_GROUP_BYTES`` bytes (or one longer piece).  Yields (i, j, group, off)
    per group: its pieces i to j - 1 copied together, as a uint8 array, and
    where each starts in ``group``.  A group of one piece is read in
    place."""
    end = np.cumsum(hi - lo)
    i = 0
    while i < lo.size:
        begin = int(end[i - 1]) if i else 0
        j = max(int(np.searchsorted(end, begin + _GROUP_BYTES, side="right")), i + 1)
        off = np.append(begin, end[i:j - 1]) - begin
        if j == i + 1:
            group = whole[lo[i]:hi[i]]
        elif end[j - 1] - begin < _GATHER_BELOW * (j - i):
            size = hi[i:j] - lo[i:j]
            group = whole[np.repeat(lo[i:j] - off, size) + np.arange(size.sum())]
        else:
            group = np.frombuffer(b"".join(map(whole.data.__getitem__, map(
                slice, lo[i:j].tolist(), hi[i:j].tolist()))), dtype=np.uint8)
        yield i, j, group, off
        i = j


def _text_offset(pos: int, lo: np.ndarray, off: np.ndarray) -> int:
    """Text offset of offset ``pos`` of a group of pieces, piece k starting
    at ``off[k]`` in the group and at ``lo[k]`` in the text."""
    k = int(np.searchsorted(off, pos, side="right")) - 1
    return int(lo[k] + pos - off[k])


def _piece_rows(whole: np.ndarray, lo: np.ndarray, hi: np.ndarray, width: int,
                values: np.ndarray | None = None) -> tuple:
    """Tokens of the pieces ``whole[lo[k]:hi[k]]`` of the text bytes, read
    in groups (``_piece_groups``), every nonblank line of which should be a
    row of ``width`` tokens.  Returns (rows, longest, wrong): the rows of
    each piece, (most digits in a token, text offset of the first such
    token), and the text offset of the first row without ``width`` tokens
    (None if none).

    ``values``, when given, has a row per piece: the pieces are then lines
    that open with a tag, the first token of the row, and the integers of
    each group are decoded into it while no fault is seen."""
    tagged = values is not None
    rows = np.zeros(lo.size, dtype=np.int64)
    longest, wrong = (0, None), None
    for i, j, group, off in _piece_groups(whole, lo, hi):
        starts, ends, heads = _token_rows(group, off if tagged else _NO_TAGS)
        rows[i:j] = np.bincount(np.searchsorted(off, starts[heads], side="right") - 1,
                                minlength=j - i)
        lengths = ends - starts
        if lengths.size and lengths.max() > longest[0]:
            k = int(lengths.argmax())
            longest = (int(lengths[k]), _text_offset(starts[k], lo[i:j], off))
        bad = np.diff(heads, append=starts.size) != width
        if wrong is None and bad.any():
            wrong = _text_offset(starts[heads[bad.argmax()]], lo[i:j], off)
        if tagged and wrong is None and longest[0] <= _MAX_DIGITS:
            values[i:j] = _decimal_values(group.tobytes(), values[i:j].size).reshape(j - i, -1)
    return rows, longest, wrong


def _pairs(whole: np.ndarray, lo: np.ndarray, hi: np.ndarray, rows: np.ndarray) -> tuple:
    """The pairs of the relation blocks ``whole[lo[k]:hi[k]]``, which
    ``_piece_rows`` found to hold ``rows[k]`` rows of two integers, with no
    fault, decoded a group at a time.  Returns (alpha, beta, unsorted): the
    pairs' two integers, over all rows in text order, and the text offset of
    the first pair not above the one before it in its block (None if
    none)."""
    alpha, beta = pairs = np.empty((2, int(rows.sum())), dtype=np.int64)
    unsorted = None
    r1 = 0
    for i, j, group, off in _piece_groups(whole, lo, hi):
        cut = np.cumsum(rows[i:j - 1])        # where each block after the first starts
        r0, r1 = r1, r1 + int(rows[i:j].sum())
        pairs[:, r0:r1] = _decimal_values(group.tobytes(), 2 * (r1 - r0),
                                          tagged=False).reshape(-1, 2).T
        x, y = alpha[r0:r1], beta[r0:r1]
        down = ~((x[1:] > x[:-1]) | ((x[1:] == x[:-1]) & (y[1:] > y[:-1])))
        down[cut[(cut > 0) & (cut < r1 - r0)] - 1] = False    # pairs of two blocks
        if unsorted is None and down.any():
            starts, _, heads = _token_rows(group, _NO_TAGS)
            unsorted = _text_offset(starts[heads[1 + down.argmax()]], lo[i:j], off)
    return alpha, beta, unsorted


# Bytes the first pass of ``_first_breaks`` reads per tag: an E line as
# written, with fields of up to 8 digits, fits in it.
_FIRST_WINDOW = 32


def _first_breaks(body: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Per tag offset in ``at`` (ascending, each first on its line): the
    offset of the first line break at or after it, or ``body.size`` if none.

    Each pass reads one window of bytes per unresolved tag and finds its
    first break.  A tag whose window holds none goes on, its next window
    starting where this one ended, as wide as all its line read so far.  The
    first window is at most the mean distance between tags.  So after pass
    one every unresolved tag opens a line free of breaks for at least the
    width of its next window, and the lines of distinct tags are disjoint (a
    break precedes every tag but the first): a pass never reads more bytes
    than the body, for any input.  A window that would run past the end is
    moved back to end there, and what it holds before its tag's resume
    point is masked.  The windows of a pass are copied as (tags, width)
    uint8 matrices of at most ``_READ_BYTES`` bytes (or one window).
    """
    n = body.size
    eol = np.full(at.size, n, dtype=np.int64)
    rows, lo = np.arange(at.size), at
    width = min(_FIRST_WINDOW, n // max(at.size, 1))
    read = 0
    while rows.size:
        s = np.minimum(lo, n - width)
        first = np.empty(rows.size, dtype=np.int64)
        found = np.empty(rows.size, dtype=bool)
        step = max(_READ_BYTES // width, 1)
        for c in range(0, rows.size, step):
            hit = _is_break(sliding_window_view(body, width)[s[c:c + step]])
            hit &= np.arange(width) >= (lo - s)[c:c + step, None]
            first[c:c + step] = hit.argmax(axis=1)
            found[c:c + step] = hit[np.arange(hit.shape[0]), first[c:c + step]]
        eol[rows[found]] = s[found] + first[found]
        more = ~found & (s + width < n)      # a window reaching the end settles its tag
        rows, lo = rows[more], s[more] + width
        read += width
        width = read
    return eol


def write_cover_text(cover: RepCover) -> str:
    out = ["COVER v1"]
    out.extend(f"{s} {i} {y}" for s, i, y in cover.sorted_members())
    return "\n".join(out) + "\n"


def _member_rows(text, header: str, what: str) -> tuple:
    """The ``<A|B> <vertex> <symbol>`` lines of a COVER v1 or LABEL v1 text,
    str or bytes, as arrays: (side is A, vertex, symbol)."""
    raw = _text_bytes(text)
    lines, _, start = _head_lines(raw, 1, skip_blank=True)
    if not lines or lines[0] != header:
        raise InputError(f"missing {header} header")
    values, _, tag = _int_rows(raw, start, what, width=2, tags="AB")
    if not tag.all():
        pos = _row_offset(raw, start, int(tag.argmin()), "AB")
        raise InputError(f"line {_line_number(raw, pos)}: {what} line must start with A or B")
    return tag == ord("A"), values[0::2], values[1::2]


def parse_cover_text(text) -> RepCover:
    """Parse COVER v1 text, given as str or as ASCII bytes."""
    is_a, vertex, symbol = _member_rows(text, "COVER v1", "cover")
    return RepCover.of(zip(np.where(is_a, "A", "B").tolist(), vertex.tolist(),
                           symbol.tolist()))


def write_labeling_text(lab: Labeling) -> str:
    out = ["LABEL v1"]
    out.extend(f"A {i} {s}" for i, s in enumerate(lab.gamma_a))
    out.extend(f"B {j} {s}" for j, s in enumerate(lab.gamma_b))
    return "\n".join(out) + "\n"


def parse_labeling_text(text, lc: LabelCoverInstance) -> Labeling:
    """Parse LABEL v1 text, given as str or as ASCII bytes, for ``lc``."""
    is_a, vertex, symbol = _member_rows(text, "LABEL v1", "labeling")
    gammas = []
    for side, count in ((is_a, lc.a_count), (~is_a, lc.b_count)):
        order = np.argsort(vertex[side])
        if not np.array_equal(vertex[side][order], np.arange(count)):
            raise InputError("labeling must label every vertex exactly once")
        gammas.append(tuple(symbol[side][order].tolist()))
    lab = Labeling(*gammas)
    lab.check_shape(lc)
    return lab
