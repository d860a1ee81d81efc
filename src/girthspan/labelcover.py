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

import numpy as np

from .errors import InputError
from .graphs import (Graph, _decimal_text, _decimals, _head_lines, _int_rows, _sorted_distinct,
                     girth)


class Relation:
    """Sorted, deduplicated set of admissible (alpha, beta) symbol pairs."""

    __slots__ = ("pairs", "_set")

    def __init__(self, pairs):
        pairs = sorted(set((int(a), int(b)) for a, b in pairs))
        if not pairs:
            raise InputError("relations must be nonempty")
        self.pairs = tuple(pairs)
        self._set = frozenset(self.pairs)

    def contains(self, alpha: int, beta: int) -> bool:
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
        for rel in relations:
            for alpha, beta in rel.pairs:
                if not (0 <= alpha < self.sigma_a and 0 <= beta < self.sigma_b):
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
        return all(self.relation(e) == other.relation(e) for e in range(self.edge_count))

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
    head = (f"LC v1\nA {lc.a_count} B {lc.b_count} SA {lc.sigma_a} SB {lc.sigma_b} "
            f"M {lc.edge_count}\n")
    starts, slot_se, alpha, beta = _relation_slots(lc)
    # Superedge e's line "E a b t" is followed by its t relation pair lines.
    heads = starts + np.arange(lc.edge_count)
    pair_rows = slot_se + 1 + np.arange(slot_se.size)
    a, b, t = (np.full(heads.size + slot_se.size, -1, dtype=np.int64) for _ in range(3))
    a[heads], b[heads], t[heads] = lc._ea, lc._eb, np.diff(starts, append=slot_se.size)
    a[pair_rows], b[pair_rows] = alpha, beta
    tags = np.zeros(a.size, dtype=np.uint8)
    tags[heads] = ord("E")
    return head + _decimal_text([a, b, t], tags).decode("ascii")


def parse_lc_text(text: str) -> LabelCoverInstance:
    """Parse LC v1 text, building one ``Relation`` per distinct pair block."""
    lines, numbers, start = _head_lines(text, 2, skip_blank=True)
    if not lines or lines[0] != "LC v1":
        raise InputError("missing LC v1 header")
    toks = lines[1].split() if len(lines) > 1 else []
    if len(toks) != 10 or toks[0::2] != ["A", "B", "SA", "SB", "M"]:
        raise InputError("bad LC size line")
    a_count, b_count, sigma_a, sigma_b, m = _decimals(toks[1::2], f"line {numbers[1]}")
    values, first, tag, line = _int_rows(text, start, "LC body", tags="E")
    heads = np.flatnonzero(tag)
    if heads.size != m:
        raise InputError(f"expected {m} superedge lines, found {heads.size}")
    is_pair = tag == 0
    if is_pair[:1].any():
        raise InputError(f"line {line[0]}: relation pair line outside a superedge block")
    widths = np.diff(first)
    wrong = widths != np.where(is_pair, 2, 3)
    if wrong.any():
        r = int(wrong.argmax())
        kind, width = ("relation pair", 2) if is_pair[r] else ("superedge", 3)
        raise InputError(f"line {line[r]}: expected {width} integers on a {kind} line")
    a, b, t = values[first[heads, None] + np.arange(3)].T
    found = np.diff(heads, append=is_pair.size) - 1
    wrong = found != t
    if wrong.any():
        e = int(wrong.argmax())
        state = "truncated" if found[e] < t[e] else "too long"
        raise InputError(f"line {line[heads[e]]}: relation block {state}: "
                         f"{t[e]} pair lines declared, {found[e]} found")
    pairs = values[np.repeat(is_pair, widths)].reshape(-1, 2)
    alpha, beta = pairs[:, 0], pairs[:, 1]
    ascending = (alpha[1:] > alpha[:-1]) | ((alpha[1:] == alpha[:-1]) & (beta[1:] > beta[:-1]))
    ends = np.cumsum(t)
    ascending[ends[:-1] - 1] = True     # a block's last pair and the next block's first
    if not ascending.all():
        raise InputError(f"line {line[np.flatnonzero(is_pair)[ascending.argmin() + 1]]}: "
                         "relation pairs must be sorted and distinct")
    index: dict[bytes, int] = {}
    relations, rel_ids = [], []
    for lo, hi in zip((ends - t).tolist(), ends.tolist()):
        rid = index.setdefault(pairs[lo:hi].tobytes(), len(index))
        if rid == len(relations):
            relations.append(Relation(pairs[lo:hi].tolist()))
        rel_ids.append(rid)
    order = np.lexsort((b, a))
    return LabelCoverInstance.from_arrays(a_count, b_count, sigma_a, sigma_b, a[order],
                                          b[order], np.array(rel_ids)[order], relations)


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
