"""Label Cover and Min-Rep instance model, labeling/REP-cover evaluation.

A Label Cover instance is a bipartite supergraph over sides A and B with a
nonempty relation on each superedge.  Relations are interned in a shared
table (product constructions repeat the same few relations across many
superedges), but each superedge still serializes with its full pair list.

Canonical identities: superedges are sorted by (a, b) and the superedge id
equals the edge id of the corresponding supergraph edge.  Min-Rep vertices
are indexed A-block first, row-major by (supervertex, symbol).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count

import numpy as np

from .errors import InputError
from .graphs import (_MAX_DIGITS, _NOT_DECIMAL, Graph, _body_bytes, _check_declared,
                     _decimal_text, _decimal_values, _decimals, _head_lines, _int_rows, _is_break,
                     _line_number, _sorted_distinct, _token_error, _token_rows, girth)


class Relation:
    """Sorted, deduplicated set of admissible (alpha, beta) symbol pairs."""

    __slots__ = ("pairs", "_set")

    def __init__(self, pairs):
        self._init(tuple(sorted(set((int(a), int(b)) for a, b in pairs))))

    @classmethod
    def _of_sorted(cls, pairs: tuple) -> "Relation":
        """The relation of ``pairs``, (int, int) tuples already sorted and
        distinct."""
        rel = cls.__new__(cls)
        rel._init(pairs)
        return rel

    def _init(self, pairs: tuple) -> None:
        if not pairs:
            raise InputError("relations must be nonempty")
        self.pairs = pairs
        self._set = None        # built by the first ``contains``

    def contains(self, alpha: int, beta: int) -> bool:
        if self._set is None:
            self._set = frozenset(self.pairs)
        return (alpha, beta) in self._set

    def __len__(self) -> int:
        return len(self.pairs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Relation) and self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash(self.pairs)


class LabelCoverInstance:
    """Bipartite supergraph plus per-superedge relations over two alphabets."""

    __slots__ = ("a_count", "b_count", "sigma_a", "sigma_b", "_ea", "_eb",
                 "_rel_ids", "relations", "_supergraph")

    def __init__(self, a_count, b_count, sigma_a, sigma_b, superedges):
        self.a_count = int(a_count)
        self.b_count = int(b_count)
        self.sigma_a = int(sigma_a)
        self.sigma_b = int(sigma_b)
        table: dict[tuple, int] = {}
        relations: list[Relation] = []
        rows = []
        for a, b, pairs in superedges:
            rel = pairs if isinstance(pairs, Relation) else Relation(pairs)
            rid = table.get(rel.pairs)
            if rid is None:
                rid = len(relations)
                table[rel.pairs] = rid
                relations.append(rel)
            rows.append((int(a), int(b), rid))
        rows.sort()
        ea = np.array([r[0] for r in rows], dtype=np.int64)
        eb = np.array([r[1] for r in rows], dtype=np.int64)
        rel_ids = np.array([r[2] for r in rows], dtype=np.int64)
        self._finish_init(ea, eb, rel_ids, tuple(relations))

    @classmethod
    def from_arrays(cls, a_count, b_count, sigma_a, sigma_b, ea, eb, rel_ids, relations):
        """Fast path for internal builders; edges must already be (a, b)-sorted."""
        inst = cls.__new__(cls)
        inst.a_count = int(a_count)
        inst.b_count = int(b_count)
        inst.sigma_a = int(sigma_a)
        inst.sigma_b = int(sigma_b)
        inst._finish_init(
            np.asarray(ea, dtype=np.int64),
            np.asarray(eb, dtype=np.int64),
            np.asarray(rel_ids, dtype=np.int64),
            tuple(relations),
        )
        return inst

    def _finish_init(self, ea, eb, rel_ids, relations):
        if self.sigma_a < 1 or self.sigma_b < 1:
            raise InputError("alphabet sizes must be >= 1")
        if ea.size:
            if ea.min() < 0 or ea.max() >= self.a_count:
                raise InputError("superedge A endpoint out of range")
            if eb.min() < 0 or eb.max() >= self.b_count:
                raise InputError("superedge B endpoint out of range")
            keys = ea * np.int64(self.b_count) + eb
            if (np.diff(keys) <= 0).any():
                raise InputError("superedges must be distinct and (a, b)-sorted")
        symbols = np.fromiter(chain.from_iterable(chain.from_iterable(
            rel.pairs for rel in relations)), dtype=np.int64)
        if symbols.size and (symbols.min() < 0 or symbols[0::2].max() >= self.sigma_a
                             or symbols[1::2].max() >= self.sigma_b):
            raise InputError("relation symbol out of range")
        self._ea = ea
        self._eb = eb
        self._rel_ids = rel_ids
        self.relations = relations
        self._supergraph = None

    @property
    def edge_count(self) -> int:
        return int(self._ea.size)

    def edge(self, e: int) -> tuple[int, int]:
        if not 0 <= e < self.edge_count:
            raise InputError(f"superedge id {e} out of range")
        return int(self._ea[e]), int(self._eb[e])

    def relation(self, e: int) -> Relation:
        return self.relations[int(self._rel_ids[e])]

    def edge_arrays(self):
        return self._ea, self._eb, self._rel_ids

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
            self._ea[keep], self._eb[keep], self._rel_ids[keep], self.relations)

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
        # Compare each distinct (own relation, other's relation) pairing once.
        width = len(other.relations)
        pairings = _sorted_distinct(self._rel_ids * width + other._rel_ids).tolist()
        return all(self.relations[r // width] == other.relations[r % width] for r in pairings)

    def __repr__(self) -> str:
        return (f"LabelCoverInstance(|A|={self.a_count}, |B|={self.b_count}, "
                f"sigma=({self.sigma_a},{self.sigma_b}), m={self.edge_count})")


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
    sizes = np.array([len(rel) for rel in lc.relations], dtype=np.int64)
    first = np.cumsum(sizes) - sizes
    pair_a = np.array([a for rel in lc.relations for a, _ in rel.pairs], dtype=np.int64)
    pair_b = np.array([b for rel in lc.relations for _, b in rel.pairs], dtype=np.int64)
    counts = sizes[lc._rel_ids]
    starts = np.cumsum(counts) - counts
    slot_se = np.repeat(np.arange(lc.edge_count, dtype=np.int64), counts)
    pos = first[lc._rel_ids][slot_se] + np.arange(slot_se.size) - starts[slot_se]
    return starts, slot_se, pair_a[pos], pair_b[pos]


def distinct_relations(lc: LabelCoverInstance) -> int:
    """Number of distinct relation blocks among the superedges, the blocks
    that LC v1 writing and parsing render and tokenize."""
    return len({lc.relations[r] for r in _sorted_distinct(lc._rel_ids).tolist()})


def _satisfied_mask(lc: LabelCoverInstance, lab: Labeling) -> np.ndarray:
    """Per superedge: does its relation admit the symbol pair ``lab`` assigns?"""
    lab.check_shape(lc)
    _, slot_se, alpha, beta = _relation_slots(lc)
    ga = np.asarray(lab.gamma_a, dtype=np.int64)
    gb = np.asarray(lab.gamma_b, dtype=np.int64)
    admitted = (ga[lc._ea[slot_se]] == alpha) & (gb[lc._eb[slot_se]] == beta)
    sat = np.zeros(lc.edge_count, dtype=bool)
    sat[slot_se[admitted]] = True
    return sat


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


def supergirth(lc: LabelCoverInstance):
    return girth(supergraph(lc))


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
    sa: list[set] = [set() for _ in range(lc.a_count)]
    sb: list[set] = [set() for _ in range(lc.b_count)]
    for side, i, sym in cover.members:
        if side == "A":
            if not (0 <= i < lc.a_count and 0 <= sym < lc.sigma_a):
                raise InputError(f"cover member out of range: {(side, i, sym)}")
            sa[i].add(sym)
        elif side == "B":
            if not (0 <= i < lc.b_count and 0 <= sym < lc.sigma_b):
                raise InputError(f"cover member out of range: {(side, i, sym)}")
            sb[i].add(sym)
        else:
            raise InputError(f"cover side must be 'A' or 'B': {side!r}")
    for e in range(lc.edge_count):
        a, b = int(lc._ea[e]), int(lc._eb[e])
        rel = lc.relation(e)
        ok = any(alpha in sa[a] and beta in sb[b] for alpha, beta in rel.pairs)
        if not ok:
            return False, e
    return True, None


def labeling_to_repcover(lc: LabelCoverInstance, lab: Labeling) -> RepCover:
    """One representative per supervertex; valid iff the labeling has value 1."""
    lab.check_shape(lc)
    members = [("A", i, s) for i, s in enumerate(lab.gamma_a)]
    members += [("B", j, s) for j, s in enumerate(lab.gamma_b)]
    return RepCover.of(members)


# --- LC v1 / COVER v1 / LABEL v1 text formats --------------------------------

def write_lc_text(lc: LabelCoverInstance) -> str:
    """LC v1 text: per superedge its ``E a b t`` line, then the t pair lines
    of its relation.  One call renders every E line and a second one the
    block of each relation in use; the text joins, in superedge order, each
    E line with a slice holding its relation's block."""
    head = (f"LC v1\nA {lc.a_count} B {lc.b_count} SA {lc.sigma_a} SB {lc.sigma_b} "
            f"M {lc.edge_count}\n")
    used = _sorted_distinct(lc._rel_ids)
    rels = [lc.relations[r].pairs for r in used.tolist()]
    sizes = np.fromiter(map(len, rels), dtype=np.int64, count=len(rels))
    pairs = np.fromiter(chain.from_iterable(chain.from_iterable(rels)),
                        dtype=np.int64).reshape(-1, 2)
    pair_text = _decimal_text([pairs[:, 0], pairs[:, 1]])
    block_ends = _line_ends(pair_text)[np.cumsum(sizes) - 1].tolist()
    blocks = list(map(pair_text.__getitem__, map(slice, [0] + block_ends[:-1], block_ends)))
    slot = np.searchsorted(used, lc._rel_ids)
    e_text = _decimal_text([lc._ea, lc._eb, sizes[slot]], "E")
    e_ends = _line_ends(e_text).tolist()
    parts = [b""] * (2 * lc.edge_count)
    parts[0::2] = map(e_text.__getitem__, map(slice, [0] + e_ends[:-1], e_ends))
    parts[1::2] = map(blocks.__getitem__, slot.tolist())
    return head + b"".join(parts).decode("ascii")


def _line_ends(data: bytes) -> np.ndarray:
    """Offset just past each ``\\n`` of ``data``."""
    return np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == ord("\n")) + 1


def parse_lc_text(text: str) -> LabelCoverInstance:
    """Parse LC v1 text at the cost of its distinct relation blocks.

    ``_body_bytes`` checks the body as a whole; then it is cut at its E
    tags.  The text before the first tag is a block with no superedge, which
    must hold no token.  Each superedge has its E line, up to and including
    its first line break character, and then its relation block, up to the
    next tag.  Identical block texts hold identical tokens, so the
    E lines are tokenized in one call and each distinct block once, in a
    second call.  Every check still covers every line, and an error names
    the line and quotes the token of the first fault in text order.  One
    ``Relation`` is built per distinct pair block.
    """
    lines, numbers, start = _head_lines(text, 2, skip_blank=True)
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
    raw, body, at = _body_bytes(text, start, "E")
    n = body.size
    breaks = np.append(np.flatnonzero(_is_break(body)), n)
    eol = breaks[np.searchsorted(breaks, at)]
    del breaks
    e_end = np.minimum(eol + 1, n)
    # Block piece j is [lo[j], hi[j]): j = 0 lies before the first tag, and
    # j = i + 1 follows superedge i's E line [at[i], e_end[i]).
    lo, hi = np.append(0, e_end), np.append(at, n)
    pieces = list(map(raw.__getitem__, map(slice, lo.tolist(), hi.tolist())))
    index = dict(zip(dict.fromkeys(pieces), count()))      # distinct block texts
    bid = np.fromiter(map(index.__getitem__, pieces), dtype=np.int64, count=len(pieces))
    distinct = list(index)
    del pieces, index

    e_size = e_end - at
    e_off = np.cumsum(e_size) - e_size            # where each E line starts in e_body
    e_body = body[np.repeat(at - e_off, e_size) + np.arange(e_size.sum())]
    no_tags = np.zeros(0, dtype=np.int64)
    e_starts, e_ends, _, _ = _token_rows(e_body, no_tags)    # so an E separates like a blank
    e_width = np.diff(np.searchsorted(e_starts, np.append(e_off, e_body.size)))
    b_size = np.fromiter(map(len, distinct), dtype=np.int64, count=len(distinct)) + 1
    b_off = np.cumsum(b_size) - b_size            # where each distinct block starts in b_body
    b_raw = b"\n".join(distinct) + b"\n"
    b_body = np.frombuffer(b_raw, dtype=np.uint8)
    b_starts, b_ends, b_heads, _ = _token_rows(b_body, no_tags)
    tok_block = np.searchsorted(b_off, b_starts, side="right") - 1
    row_block = tok_block[b_heads]
    b_width = np.diff(b_heads, append=b_starts.size)
    rows = np.bincount(row_block, minlength=len(distinct))

    def first_fault(b_pos, e_pos=()):
        """Text offset of the first fault: ``b_pos`` are sorted offsets in
        b_body and ``e_pos`` sorted offsets in e_body."""
        found = []
        if len(e_pos):
            i = np.searchsorted(e_off, e_pos[0], side="right") - 1
            found.append(at[i] + e_pos[0] - e_off[i])
        if b_pos.size:
            k = np.searchsorted(b_off, b_pos, side="right") - 1
            k, first = np.unique(k, return_index=True)
            offset = np.full(len(distinct), -1, dtype=np.int64)
            offset[k] = b_pos[first] - b_off[k]
            j = int((offset[bid] >= 0).argmax())
            found.append(lo[j] + offset[bid[j]])
        return start + int(min(found))

    e_len, b_len = e_ends - e_starts, b_ends - b_starts
    longest = max(e_len.max(initial=0), b_len.max(initial=0))
    if longest > _MAX_DIGITS:
        pos = first_fault(b_starts[b_len == longest], e_starts[e_len == longest])
        raise _token_error(text, pos, _NOT_DECIMAL)
    if at.size != m:
        raise InputError(f"expected {m} superedge lines, found {at.size}")
    if rows[bid[0]]:
        pos = first_fault(b_starts[tok_block == bid[0]])
        raise InputError(f"line {_line_number(text, pos)}: "
                         "relation pair line outside a superedge block")
    bad_e, bad_b = e_width != 3, b_width != 2
    if bad_e.any() or bad_b.any():
        pos = first_fault(b_starts[b_heads[bad_b]], e_off[bad_e])
        kind, width = ("superedge", 3) if text[pos] == "E" else ("relation pair", 2)
        raise InputError(f"line {_line_number(text, pos)}: "
                         f"expected {width} integers on a {kind} line")
    a, b, t = _decimal_values(e_body.tobytes(), e_starts.size).reshape(-1, 3).T
    found = rows[bid[1:]]
    wrong = found != t
    if wrong.any():
        e = int(wrong.argmax())
        state = "truncated" if found[e] < t[e] else "too long"
        raise InputError(f"line {_line_number(text, start + int(at[e]))}: relation block "
                         f"{state}: {t[e]} pair lines declared, {found[e]} found")
    pairs = _decimal_values(b_raw, b_starts.size).reshape(-1, 2)
    alpha, beta = pairs[:, 0], pairs[:, 1]
    ascending = (alpha[1:] > alpha[:-1]) | ((alpha[1:] == alpha[:-1]) & (beta[1:] > beta[:-1]))
    bad = ~ascending & (row_block[1:] == row_block[:-1])
    if bad.any():
        pos = first_fault(b_starts[b_heads[1:][bad]])
        raise InputError(f"line {_line_number(text, pos)}: "
                         "relation pairs must be sorted and distinct")
    used = _sorted_distinct(bid[1:])            # in order of first use
    pair_list = list(zip(alpha.tolist(), beta.tolist()))
    first_row = (np.cumsum(rows) - rows)[used].tolist()
    blocks = [tuple(pair_list[r:r + size]) for r, size in zip(first_row, rows[used].tolist())]
    table = dict(zip(dict.fromkeys(blocks), count()))
    relations = list(map(Relation._of_sorted, table))
    rel_of = np.zeros(len(distinct), dtype=np.int64)
    rel_of[used] = list(map(table.__getitem__, blocks))
    order = np.lexsort((b, a))
    return LabelCoverInstance.from_arrays(a_count, b_count, sigma_a, sigma_b, a[order],
                                          b[order], rel_of[bid[1:]][order], relations)


def write_cover_text(cover: RepCover) -> str:
    out = ["COVER v1"]
    out.extend(f"{s} {i} {y}" for s, i, y in cover.sorted_members())
    return "\n".join(out) + "\n"


def _member_rows(text: str, header: str, what: str) -> tuple:
    """The ``<A|B> <vertex> <symbol>`` lines of a COVER v1 or LABEL v1 text
    as arrays: (side is A, vertex, symbol)."""
    lines, _, start = _head_lines(text, 1, skip_blank=True)
    if not lines or lines[0] != header:
        raise InputError(f"missing {header} header")
    values, _, tag, line = _int_rows(text, start, what, width=2, tags="AB")
    if not tag.all():
        raise InputError(f"line {line[tag.argmin()]}: {what} line must start with A or B")
    return tag == ord("A"), values[0::2], values[1::2]


def parse_cover_text(text: str) -> RepCover:
    is_a, vertex, symbol = _member_rows(text, "COVER v1", "cover")
    return RepCover.of(zip(np.where(is_a, "A", "B").tolist(), vertex.tolist(),
                           symbol.tolist()))


def write_labeling_text(lab: Labeling) -> str:
    out = ["LABEL v1"]
    out.extend(f"A {i} {s}" for i, s in enumerate(lab.gamma_a))
    out.extend(f"B {j} {s}" for j, s in enumerate(lab.gamma_b))
    return "\n".join(out) + "\n"


def parse_labeling_text(text: str, lc: LabelCoverInstance) -> Labeling:
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
