from collections import deque

import numpy as np
import pytest
from hypothesis import strategies as st

from girthspan.errors import InputError
from girthspan.graphs import Graph
from girthspan.labelcover import LabelCoverInstance
from girthspan.rng import Stream
from girthspan.spanner import EdgeSubset


def make_lc(a_count, b_count, sigma_a, sigma_b, edges):
    """edges: list of (a, b, pairs)."""
    return LabelCoverInstance(a_count, b_count, sigma_a, sigma_b, edges)


def xor_odd_4cycle():
    """C4 supergraph, binary alphabets, three equality relations and one
    inequality relation; optimum 3/4, minimum REP-cover 5."""
    eq = [(0, 0), (1, 1)]
    neq = [(0, 1), (1, 0)]
    return make_lc(2, 2, 2, 2, [
        (0, 0, eq), (0, 1, eq), (1, 0, eq), (1, 1, neq)])


def path_lc_tiny():
    """Supergraph a0-b0-a1-b1 (a path, so supergirth is infinite); five
    Min-Rep edges total.  Small enough for exhaustive spanner enumeration."""
    return make_lc(2, 2, 2, 2, [
        (0, 0, [(0, 0), (1, 1)]),
        (1, 0, [(0, 1)]),
        (1, 1, [(0, 0), (1, 0)]),
    ])


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def petersen_graph():
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, edges)


def full_subset(si):
    """Every edge of a gadget, as a candidate spanner."""
    return EdgeSubset(si.base, range(si.base.edge_count))


def random_graph(n, edge_prob, stream: Stream):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if stream.random() < edge_prob]
    return Graph(n, edges)


def hub_graph(n, hubs, edge_prob, stream: Stream):
    """Each hub joined to about 60% of the vertices, plus sparse random edges:
    the two ends of a query see frontiers of very different sizes."""
    edges = {(min(h, v), max(h, v)) for h in hubs for v in range(n)
             if v != h and stream.random() < 0.6}
    edges |= {(i, j) for i in range(n) for j in range(i + 1, n) if stream.random() < edge_prob}
    return Graph(n, sorted(edges))


def random_tiny_lc(stream: Stream, a_count, b_count, sigma_a, sigma_b,
                   edge_prob=0.6, pair_prob=0.5):
    """Random instance with at least one superedge and nonempty relations."""
    while True:
        edges = []
        for a in range(a_count):
            for b in range(b_count):
                if stream.random() < edge_prob:
                    pairs = [(x, y) for x in range(sigma_a) for y in range(sigma_b)
                             if stream.random() < pair_prob]
                    if not pairs:
                        pairs = [(stream.randbelow(sigma_a), stream.randbelow(sigma_b))]
                    edges.append((a, b, pairs))
        if edges:
            return make_lc(a_count, b_count, sigma_a, sigma_b, edges)


@st.composite
def sparse_graphs(draw):
    """Up to 30 edges over 2..10^7 vertices, so ids have 1 to 7 digits."""
    digits = draw(st.integers(1, 7))
    n = draw(st.integers(max(2, 10 ** (digits - 1)), 10 ** digits))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1]),
                          max_size=30, unique_by=lambda p: (min(p), max(p))))
    return Graph(n, pairs)


@st.composite
def lc_instances(draw):
    """Up to 12 superedges over symbols of 1 to 3 digits; the relations are
    all distinct, or drawn from a pool of one to three so that they repeat."""
    a_count, b_count = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    sigma_a, sigma_b = draw(st.integers(2, 300)), draw(st.integers(2, 300))
    pair = st.tuples(st.integers(0, sigma_a - 1), st.integers(0, sigma_b - 1))
    relation = st.frozensets(pair, min_size=1, max_size=6)
    ends = draw(st.lists(st.tuples(st.integers(0, a_count - 1), st.integers(0, b_count - 1)),
                         unique=True, max_size=12))
    if draw(st.booleans()):
        rels = draw(st.lists(relation, min_size=len(ends), max_size=len(ends), unique=True))
    else:
        pool = draw(st.lists(relation, min_size=1, max_size=3))
        rels = [draw(st.sampled_from(pool)) for _ in ends]
    return make_lc(a_count, b_count, sigma_a, sigma_b,
                   [(a, b, sorted(rel)) for (a, b), rel in zip(ends, rels)])


@pytest.fixture
def xor_lc():
    return xor_odd_4cycle()


@pytest.fixture
def tiny_lc():
    return path_lc_tiny()


# --- mutation corpus for the GRAPH v1 / SUBSET v1 parsers ------------------------

# Spellings the reference parsers (str.splitlines, str.split, int) accepted and
# the token policy rejects on purpose: signs and underscores inside integers,
# the controls \x1c-\x1f that str treats as whitespace or line breaks, and
# non-ASCII characters.
NARROWED = frozenset("+-_\x1c\x1d\x1e\x1f")
MUTANT_CHARS = [chr(c) for c in range(128)] + ["\u00a0", "\u0663", "\u2028", "\x85"]


def narrowed_spelling(text: str) -> bool:
    return any(c in NARROWED or not c.isascii() for c in text)


def text_mutants(text: str, stream: Stream, count: int) -> list:
    """``count`` mutants of ``text``: one character changed, a line dropped or
    duplicated, two lines swapped, a token added, or a header token edited."""
    out = []
    while len(out) < count:
        lines = text.split("\n")
        kind = stream.randbelow(6)
        i, j = stream.randbelow(len(lines)), stream.randbelow(len(lines))
        if kind == 0:
            pos = stream.randbelow(len(text))
            out.append(text[:pos] + MUTANT_CHARS[stream.randbelow(len(MUTANT_CHARS))]
                       + text[pos + 1:])
            continue
        if kind == 1:
            del lines[i]
        elif kind == 2:
            lines.insert(i, lines[i])
        elif kind == 3:
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == 4:
            lines[i] += f" {stream.randbelow(20)}"
        else:
            head = stream.randbelow(2)
            tokens = lines[head].split(" ")
            t = stream.randbelow(len(tokens))
            tok = tokens[t]
            edits = [str(int(tok) + 1) if tok.isdigit() else tok + "1", tok.lower(),
                     tok + tok[-1:], "", "v2", "x"]
            tokens[t] = edits[stream.randbelow(len(edits))]
            lines[head] = " ".join(tokens)
        out.append("\n".join(lines))
    return out


def as_bytes(text: str) -> bytes:
    """``text`` as the bytes a file holding it would: UTF-8, lone surrogates
    included."""
    return text.encode("utf-8", "surrogatepass")


def parse_both(parse, text: str):
    """``parse`` of ``text`` and of its bytes: the parse, asserted equal for
    both, or None if both raise an InputError, with one message."""
    outcomes = []
    for given in (text, as_bytes(text)):
        try:
            outcomes.append(("parsed", parse(given)))
        except InputError as exc:
            outcomes.append(("rejected", str(exc)))
    assert outcomes[0] == outcomes[1], f"str and bytes parse differently: {text!r}"
    return outcomes[0][1] if outcomes[0][0] == "parsed" else None


def rejection(parse, text: str) -> str:
    """The message of the InputError ``parse`` raises on ``text``, asserted
    the same for its bytes."""
    messages = []
    for given in (text, as_bytes(text)):
        with pytest.raises(InputError) as exc:
            parse(given)
        messages.append(str(exc.value))
    assert messages[0] == messages[1], f"str and bytes errors differ: {text!r}"
    return messages[0]


def parse_outcome(parse, text):
    """The parse result, or None if ``parse`` raised anything."""
    try:
        return parse(text)
    except Exception:   # the reference parsers leak ValueError and OverflowError too
        return None


def check_mutant(parse, reference, text, narrowed=narrowed_spelling) -> str:
    """Assert ``parse`` agrees with ``reference`` on ``text``, given as str
    and as bytes (``parse_both``); returns the case seen.  ``parse`` may reject a text the reference accepts only where
    ``narrowed(text)`` holds."""
    expected = parse_outcome(reference, text)
    got = parse_both(parse, text)
    if expected is not None and got is None:
        assert narrowed(text), f"rejected a text the reference accepts: {text!r}"
        return "narrowed"
    assert got == expected, f"verdicts differ on {text!r}"
    return "accepted" if got is not None else "rejected"


def is_bipartite(g) -> tuple[bool, list | None]:
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


def degrees(g) -> np.ndarray:
    """Per-vertex degrees of a graph, read off its CSR index."""
    return np.diff(g._csr()[0])


def gadget_by_sort(mr, k: int, x: int) -> dict:
    """The gadget's layout by the sort-based derivation, the reference for
    ``build_spanner_instance``'s closed-form one: each family's edges made
    in family order, one stable sort of their keys ``lo * N + hi``, and the
    tables read back through the inverse permutation.  Returns the sorted
    keys, ``fam_code``, the per-family id lists (``ids``), the five tables
    and ``anchor_distinct``."""
    lc = mr.source
    k_a, k_b = (k - 1) // 2, (k - 1) - (k - 1) // 2
    n, a_cnt, b_cnt = mr.vertex_count, lc.a_count, lc.b_count
    sigma_a, sigma_b = lc.sigma_a, lc.sigma_b
    t_off = n + x * a_cnt * k_a
    vertex_count = t_off + x * b_cnt * k_b
    s_bases = n + np.arange(x * a_cnt, dtype=np.int64) * k_a
    t_bases = t_off + np.arange(x * b_cnt, dtype=np.int64) * k_b
    b_block = a_cnt * sigma_a
    # EM holds the s-towers' rows then the t-towers'; EsA row (p * a_cnt +
    # i) * sigma_a + alpha joins s-tower (p, i) to (A, i, alpha), EtB rows
    # likewise, and EGt row p * |superedges| + e is copy p of superedge e.
    em_lo = np.concatenate([(s_bases[:, None] + np.arange(k_a - 1)).ravel(),
                            (t_bases[:, None] + np.arange(k_b - 1)).ravel()])
    ea, eb, _ = lc.edge_arrays()
    copy_of_gt = np.repeat(np.arange(x, dtype=np.int64), lc.edge_count)
    chunks = [
        mr.minrep_graph.edge_arrays(),
        (em_lo, em_lo + 1),
        (np.repeat(s_bases, sigma_a), np.tile(np.arange(b_block, dtype=np.int64), x)),
        (np.tile(np.arange(b_block, n, dtype=np.int64), x), np.repeat(t_bases, sigma_b)),
        (n + (copy_of_gt * a_cnt + np.tile(ea, x)) * k_a + (k_a - 1),
         t_off + (copy_of_gt * b_cnt + np.tile(eb, x)) * k_b + (k_b - 1)),
    ]
    sizes = [cu.size for cu, _ in chunks]
    start = np.cumsum([0] + sizes)
    eu = np.concatenate([cu for cu, _ in chunks])
    ev = np.concatenate([cv for _, cv in chunks])
    keys = np.minimum(eu, ev) * np.int64(vertex_count) + np.maximum(eu, ev)
    order = np.argsort(keys, kind="stable")
    fam_code = np.repeat(np.arange(5, dtype=np.int8), sizes)[order]
    row_id = np.empty_like(order)
    row_id[order] = np.arange(order.size)
    s_end = start[1] + x * a_cnt * (k_a - 1)
    out = {"keys": keys[order], "fam_code": fam_code,
           "ids": [np.flatnonzero(fam_code == f) for f in range(5)],
           "tower_s": row_id[start[1]:s_end].reshape(x, a_cnt, k_a - 1),
           "tower_t": row_id[s_end:start[2]].reshape(x, b_cnt, k_b - 1),
           "crossing_sa": row_id[start[2]:start[3]].reshape(x, a_cnt, sigma_a),
           "crossing_tb": row_id[start[3]:start[4]].reshape(x, b_cnt, sigma_b),
           "gt_copies": row_id[start[4]:].reshape(x, lc.edge_count)}
    sa, tb = out["crossing_sa"], out["crossing_tb"]
    out["anchor_distinct"] = np.unique(np.concatenate(
        [sa[0].ravel(), tb[0].ravel(), sa[:, :, 0].ravel(), tb[:, :, 0].ravel()]))
    return out


def vertex_role(si, v: int) -> tuple:
    """Role of gadget vertex v: its Min-Rep label ``("A"|"B", vertex, symbol)``,
    or ``("S", i, level, p)`` / ``("T", j, level, p)`` for tower vertices."""
    lc = si.source.source
    if v < si.n:
        return si.source.vertex_label(v)
    if v < si._t_offset:
        tower, level = divmod(v - si.n, si.k_a)
        p, i = divmod(tower, lc.a_count)
        return ("S", i, level + 1, p)
    tower, level = divmod(v - si._t_offset, si.k_b)
    p, j = divmod(tower, lc.b_count)
    return ("T", j, level + 1, p)
