import hashlib
import math
import re
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from girthspan import graphs
from girthspan.errors import InputError
from girthspan.graphs import (Graph, INFINITY, _decimal_text, _decimal_values, _graph_chunks,
                              _hops, _int_rows,
                              _line_number, _row_offset, bfs_distances, edge_cycle_length,
                              girth, graph_sha256, parse_graph_text,
                              write_graph_text)
from girthspan.labelcover import parse_cover_text
from girthspan.rng import Stream
from girthspan.spanner import parse_subset_text

from conftest import (check_mutant, complete_graph, cycle_graph, degrees, hub_graph,
                      is_bipartite, random_graph, rejection, sparse_graphs, text_mutants)


def test_bfs_on_path():
    g = Graph(3, [(0, 1), (1, 2)])
    assert bfs_distances(g, 0) == [0, 1, 2]


def test_bfs_disconnected_vertex_is_infinite():
    g = Graph(3, [(0, 1)])
    d = bfs_distances(g, 0)
    assert d[2] == INFINITY


def test_bfs_cap_on_c6():
    g = cycle_graph(6)
    d = bfs_distances(g, 0, cap=2)
    finite = sorted(v for v in d if v != INFINITY)
    assert finite == [0, 1, 1, 2, 2]
    assert sum(1 for v in d if v == INFINITY) == 1


def test_bfs_source_out_of_range():
    with pytest.raises(InputError):
        bfs_distances(Graph(2, [(0, 1)]), 5)


def test_girth_examples():
    assert girth(cycle_graph(4)) == 4
    assert girth(Graph(4, [(0, 1), (1, 2), (1, 3)])) == INFINITY
    assert girth(complete_graph(4)) == 3
    assert girth(Graph(0, [])) == INFINITY


def test_girth_is_cached_on_the_graph(monkeypatch):
    """A second call returns the first call's girth without searching; a
    new graph, even an equal one, searches."""
    g = cycle_graph(5)
    assert girth(g) == 5

    def no_search(*args, **kwargs):
        raise AssertionError("searched again")

    monkeypatch.setattr(graphs, "_hops", no_search)
    assert girth(g) == 5
    with pytest.raises(AssertionError, match="searched again"):
        girth(cycle_graph(5))


def test_edge_cycle_length_examples():
    c6 = cycle_graph(6)
    assert all(edge_cycle_length(c6, e) == 6 for e in range(6))
    tree = Graph(3, [(0, 1), (1, 2)])
    assert edge_cycle_length(tree, 0) == INFINITY
    k4 = complete_graph(4)
    assert all(edge_cycle_length(k4, e) == 3 for e in range(6))
    with pytest.raises(InputError):
        edge_cycle_length(c6, 99)


def test_is_bipartite_examples():
    assert is_bipartite(cycle_graph(4))[0]
    assert not is_bipartite(cycle_graph(5))[0]
    ok, colors = is_bipartite(Graph(3, []))
    assert ok and set(colors) == {0}


def test_bipartite_coloring_is_proper():
    g = random_graph(10, 0.3, Stream(5))
    ok, colors = is_bipartite(g)
    if ok:
        assert all(colors[u] != colors[v] for u, v in g.edges())


def test_constructor_rejections():
    with pytest.raises(InputError):
        Graph(3, [(0, 0)])
    with pytest.raises(InputError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(InputError):
        Graph(2, [(0, 5)])


def test_edge_ids_are_canonical():
    g = Graph(4, [(2, 3), (1, 0), (0, 2)])
    assert list(g.edges()) == [(0, 1), (0, 2), (2, 3)]
    assert g.edge_id(3, 2) == 2
    assert g.edge_id(1, 2) is None


def test_girth_equals_min_edge_cycle_length_on_random_graphs():
    stream = Stream(2024)
    for _ in range(60):
        n = 3 + stream.randbelow(10)
        g = random_graph(n, 0.35, stream)
        per_edge = [edge_cycle_length(g, e) for e in range(g.edge_count)]
        expected = min(per_edge) if per_edge else INFINITY
        assert girth(g) == expected


def test_bipartite_girth_is_even_or_infinite():
    stream = Stream(77)
    for _ in range(40):
        g = random_graph(3 + stream.randbelow(10), 0.3, stream)
        if is_bipartite(g)[0]:
            got = girth(g)
            assert got == INFINITY or (got % 2 == 0 and got >= 4)


@given(st.integers(2, 9), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_bfs_distance_symmetry(n, seed):
    g = random_graph(n, 0.4, Stream(seed))
    for u in range(n):
        du = bfs_distances(g, u)
        for v in range(n):
            assert du[v] == bfs_distances(g, v)[u]


@given(st.integers(2, 12), st.integers(0, 2**32), st.data())
@settings(max_examples=150, deadline=None)
def test_hops_equals_capped_bfs(n, seed, data):
    """The kernel against bfs_distances on the graph itself, or on the graph
    rebuilt without {u, v} when skipping the direct edge."""
    g = random_graph(n, data.draw(st.floats(0.1, 0.9)), Stream(seed))
    u, v = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    cap = data.draw(st.none() | st.integers(0, n))
    skip = data.draw(st.booleans())
    rest = Graph(n, [e for e in g.edges() if not (skip and set(e) == {u, v})])
    assert _hops(g.adjacency(), u, v, cap, skip_direct=skip) == bfs_distances(rest, u, cap)[v]
    for eid in range(g.edge_count):
        full = edge_cycle_length(g, eid)
        expected = full if cap is None or full <= cap else INFINITY
        assert edge_cycle_length(g, eid, cap) == expected


@given(st.integers(20, 60), st.integers(0, 2**32), st.data())
@settings(max_examples=120, deadline=None)
def test_hops_equals_capped_bfs_with_hubs(n, seed, data):
    """The kernel against bfs_distances where the smaller frontier switches
    sides: one or two hubs, ends drawn from the hubs or from all vertices."""
    hubs = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True))
    g = hub_graph(n, hubs, data.draw(st.floats(0.0, 0.08)), Stream(seed))
    end = st.sampled_from(hubs) | st.integers(0, n - 1)
    u, v = data.draw(end), data.draw(end)
    cap = data.draw(st.none() | st.integers(0, n))
    skip = data.draw(st.booleans())
    rest = Graph(n, [e for e in g.edges() if not (skip and set(e) == {u, v})])
    assert _hops(g.adjacency(), u, v, cap, skip_direct=skip) == bfs_distances(rest, u, cap)[v]


def test_hops_unit_cases():
    g = Graph(7, [(0, 1), (1, 2), (3, 4), (4, 5)])      # vertex 6 is isolated
    adj = g.adjacency()
    for cap in (None, 0, 3, 7):
        assert _hops(adj, 0, 6, cap) == INFINITY        # isolated dst
        assert _hops(adj, 6, 0, cap) == INFINITY
        assert _hops(adj, 0, 5, cap) == INFINITY        # src in another component
        assert _hops(adj, 5, 0, cap, skip_direct=True) == INFINITY
    assert _hops(adj, 0, 1, 0) == INFINITY              # cap 0: only src itself
    assert _hops(adj, 2, 2, 0) == 0
    assert _hops(adj, 0, 2, 1) == INFINITY
    assert _hops(adj, 0, 2, 2) == 2
    tri = complete_graph(3).adjacency()
    for u, v in ((0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)):
        assert _hops(tri, u, v, None) == 1
        assert _hops(tri, u, v, None, skip_direct=True) == 2
        assert _hops(tri, u, v, 1, skip_direct=True) == INFINITY
    path = Graph(4, [(0, 1), (1, 2), (2, 3)]).adjacency()
    for u, v in ((0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)):
        assert _hops(path, u, v, None) == 1
        assert _hops(path, u, v, None, skip_direct=True) == INFINITY


def test_adjacency_is_cached_neighbour_lists():
    g = Graph(4, [(2, 3), (1, 0), (0, 2)])
    adj = g.adjacency()
    assert adj is g.adjacency()
    assert [sorted(ws) for ws in adj] == [[1, 2], [0], [0, 3], [2]]
    # each list: the edges where v is the lower end, then the higher, by edge id
    assert adj == [[b for a, b in g.edges() if a == v] + [a for a, b in g.edges() if b == v]
                   for v in range(4)]


def test_graph_text_round_trip():
    g = Graph(5, [(0, 1), (0, 4), (2, 3)])
    text = write_graph_text(g)
    assert text.splitlines()[0] == "GRAPH v1"
    assert parse_graph_text(text) == g
    assert graph_sha256(g) == graph_sha256(parse_graph_text(text))


def test_graph_text_round_trip_empty():
    g = Graph(3, [])
    assert parse_graph_text(write_graph_text(g)) == g


@pytest.mark.parametrize("bad", [
    "GRAPH v2\nN 1 M 0\n",
    "GRAPH v1\nN 2 M 1\n1 0\n",          # not u < v
    "GRAPH v1\nN 2 M 1\n0 5\n",          # out of range
    "GRAPH v1\nN 3 M 2\n0 1\n0 1\n",     # duplicate
    "GRAPH v1\nN 3 M 2\n0 2\n0 1\n",     # unsorted
    "GRAPH v1\nN 3 M 2\n0 1\n",          # wrong count
    "GRAPH v1\nN 2 M 1\n0 0\n",          # self loop (fails u < v)
    "GRAPH v1\nN 4 M 2\n0 1 2\n3\n",     # right token count, wrong lines
])
def test_graph_text_rejections(bad):
    rejection(parse_graph_text, bad)


@pytest.mark.parametrize("bad", [
    "GRAPH v1\nN 2 M 1\n0 x\n",
    "GRAPH v1\nN 2 M 1\n+0 1\n",
    "GRAPH v1\nN 20 M 1\n1_0 11\n",
    "GRAPH v1\nN 2 M 1\n\u0660 1\n",         # non-ASCII digit
    "GRAPH v1\nN 2 M 1\n0\x1f1\n",           # str.split() whitespace, not ASCII
    "GRAPH v1\nN +2 M 1\n0 1\n",
    "GRAPH v1\nN 2 M 1\n0 0000000000000000001\n",   # 19 digits
])
def test_graph_text_rejects_non_decimal_tokens_with_line(bad):
    assert "line" in rejection(parse_graph_text, bad)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("body, message", [
    ("0 1\n0 2\n0 2\n", "line 5: duplicate edge"),
    ("0 1\n\n0 3\n0 2\n", "line 6: edge lines not sorted"),
    ("0 1\n2 1\n0 3\n", "line 4: edge line not in u < v form"),
    ("0 1\n0 2\n\n1 9\n", "line 6: edge endpoint out of range"),
    ("0 1\n0 2 3\n1 2\n", "line 4: expected 2 integer(s) per edge line"),
    pytest.param("0 1\n" + "\n" * 300 + "0 1\n0 2\n", "line 304: duplicate edge",
                 id="300-blank-lines"),
    ("0 \t \t 1\n0\t \t 2\n0 \t\t  2\n", "line 5: duplicate edge"),
    ("0 1\v\v0 2\f\f1 0\n", "line 7: edge line not in u < v form"),
])
def test_graph_parser_names_the_bad_line(body, message, newline):
    """A \\r\\n ends one line, as do \\n and \\r.  Line numbers do not
    wrap (300 blank lines), a run of blanks and tabs does not end a row, and
    \\v and \\f end lines."""
    text = "GRAPH v1\nN 4 M 3\n" + body
    assert message in rejection(parse_graph_text, text.replace("\n", newline))


@pytest.mark.parametrize("body, message", [
    ("0 1\n0 2\n1 4\n", "line 5: edge endpoint out of range"),
    ("0 1\n0 2 3\n1 0000000000000000002\n", "line 4: expected 2 integer(s) per edge line"),
    ("0 0000000000000000001\n0 2 3\n1 2\n", "line 4: expected 2 integer(s) per edge line"),
])
def test_graph_parser_bounds_endpoints_at_n_and_checks_rows_before_tokens(body, message):
    """An endpoint equal to N is out of range, even on sorted distinct rows,
    and a row of the wrong width is named before a token of 19 digits,
    before or after it."""
    assert message in rejection(parse_graph_text, "GRAPH v1\nN 4 M 3\n" + body)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("fmt, body, message", [
    pytest.param("SUBSET", "0\n" + "\n" * 300 + "0\n",
                 "line 304: subset edge ids must be sorted and distinct",
                 id="SUBSET-300-blank-lines"),
    ("SUBSET", "1\n2 \t \t 3\n", "line 4: expected 1 integer(s) per edge id line"),
    ("SUBSET", "1\v\v2\f\f2\n", "line 7: subset edge ids must be sorted and distinct"),
    pytest.param("COVER", "A 0 1\n" + "\n" * 300 + "A 0\n",
                 "line 303: expected 2 integer(s) per cover line", id="COVER-300-blank-lines"),
    ("COVER", "A 0 \t \t 1\nB \t 1  \t\t 0 1\n", "line 3: expected 2 integer(s) per cover line"),
    ("COVER", "A 0 1\v\vB 0 1\f\f0 1\n", "line 6: cover line must start with A or B"),
])
def test_subset_and_cover_parsers_name_the_bad_line(fmt, body, message, newline):
    """The shapes above, through the SUBSET and COVER parsers of the same
    tokenizer."""
    host = cycle_graph(5)
    if fmt == "SUBSET":
        text, parse = f"SUBSET v1\nHOST sha256:{graph_sha256(host)}\n", partial(
            parse_subset_text, host=host)
    else:
        text, parse = "COVER v1\n", parse_cover_text
    assert message in rejection(parse, (text + body).replace("\n", newline))


def test_graph_text_whitespace_and_blank_lines():
    text = "GRAPH v1 \r\nN 6\tM 2\r\n\n  0\t 5  \f\n\n3 4\v"
    assert parse_graph_text(text) == Graph(6, [(0, 5), (3, 4)])


def circulant(n=100_000):
    """A circulant on n vertices, six edges per vertex: 6.7 MB of GRAPH text
    at n = 10^5."""
    u = np.tile(np.arange(n), 6)
    return Graph.from_arrays(n, u, (u + np.repeat(np.arange(1, 7), n)) % n)


def traced_peak(fn, *args):
    """(result, peak traced bytes) of ``fn(*args)``."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_graph_parse_peak_memory_is_bounded():
    """The parse of the circulant's text peaks below 3 times the text's
    size: the text's bytes and the values, one block's temporaries, then the
    values and the keys.  It took 5.7 times with whole-body token arrays and
    8.7 times before they were freed ahead of the decode."""
    text = write_graph_text(circulant())
    assert len(text) > 6 * 10**6
    _, peak = traced_peak(parse_graph_text, text)
    assert peak < 3 * len(text)


def test_graph_write_peak_memory_is_bounded():
    """Writing the circulant's text peaks below 2.5 times the text's size:
    its blocks and their join, then the bytes and the str.  A digit table
    and keep mask over every row at once took 4.4 times."""
    g = circulant()
    text, peak = traced_peak(write_graph_text, g)
    assert len(text) > 6 * 10**6
    assert peak < 2.5 * len(text)


def test_graph_stream_peak_memory_is_bounded(tmp_path):
    """Streaming a circulant's GRAPH chunks to a file, as the pipeline
    writes its graphs, peaks below 0.3 times the output: a block of rows at
    a time, hashed as it is written.  ``write_graph_text`` holds the joined
    bytes and the str (2 times).  A block's digit table and mask take about
    2 MB whatever the graph, so the text is as large as the reference
    gadget's (9.0 MB)."""
    g = circulant(130_000)
    path = tmp_path / "circulant.graph"

    def stream():
        with open(path, "wb") as out:
            out.writelines(_graph_chunks(g))

    _, peak = traced_peak(stream)
    size = path.stat().st_size
    assert size > 9 * 10**6
    assert peak < 0.3 * size
    assert graph_sha256(g) == hashlib.sha256(path.read_bytes()).hexdigest()


def test_graph_arrays_are_read_only():
    g = cycle_graph(5)
    with pytest.raises(ValueError):
        g.edge_arrays()[0][0] = 3
    for arr in g._csr():
        with pytest.raises(ValueError):
            arr[0] = 3


@pytest.mark.parametrize("first_use", ["adjacency", "degrees"])
def test_csr_is_built_on_first_use(first_use):
    """Neither construction nor GRAPH text builds the CSR index; the first
    ``adjacency()`` or ``_csr()`` call (as ``degrees`` makes) does, and it
    matches the edge list."""
    built = Graph(5, [(3, 4), (0, 1), (1, 2), (0, 4)])
    parsed = parse_graph_text(write_graph_text(built))
    for g in (built, parsed):
        graph_sha256(g)
        assert g._indptr is None and g._nbr is None and g._nbr_eid is None
        {"adjacency": Graph.adjacency, "degrees": degrees}[first_use](g)
        indptr, nbr, nbr_eid = g._csr()
        assert degrees(g).tolist() == [2, 2, 1, 1, 2]
        eu, ev = g.edge_arrays()
        for v in range(5):
            eids = nbr_eid[indptr[v]:indptr[v + 1]].tolist()
            assert eids == ([e for e in range(g.edge_count) if eu[e] == v]
                            + [e for e in range(g.edge_count) if ev[e] == v])
            assert nbr[indptr[v]:indptr[v + 1]].tolist() == \
                [int(eu[e] + ev[e] - v) for e in eids]


def test_graph_sha256_matches_text_digest():
    stream = Stream(31)
    for _ in range(5):
        g = random_graph(12, 0.3, stream)
        expected = hashlib.sha256(write_graph_text_per_line(g).encode()).hexdigest()
        fresh = Graph.from_arrays(g.vertex_count, *g.edge_arrays())
        assert graph_sha256(fresh) == expected          # computed
        assert graph_sha256(fresh) == expected          # cached
        written = Graph.from_arrays(g.vertex_count, *g.edge_arrays())
        assert hashlib.sha256(write_graph_text(written).encode()).hexdigest() == expected
        assert graph_sha256(written) == expected        # cached by the writer


# --- the per-line GRAPH v1 writer and parser, kept as the reference ---------------

def write_graph_text_per_line(g):
    lines = ["GRAPH v1", f"N {g.vertex_count} M {g.edge_count}"]
    eu, ev = g.edge_arrays()
    lines.extend(f"{u} {v}" for u, v in zip(eu.tolist(), ev.tolist()))
    return "\n".join(lines) + "\n"


def parse_graph_text_per_line(text):
    lines = text.splitlines()
    if not lines or lines[0].strip() != "GRAPH v1":
        raise InputError("missing GRAPH v1 header")
    if len(lines) < 2:
        raise InputError("missing size line")
    parts = lines[1].split()
    if len(parts) != 4 or parts[0] != "N" or parts[2] != "M":
        raise InputError(f"bad size line: {lines[1]!r}")
    try:
        n, m = int(parts[1]), int(parts[3])
    except ValueError as exc:
        raise InputError(f"bad size line: {lines[1]!r}") from exc
    body = [ln for ln in lines[2:] if ln.strip()]
    if len(body) != m:
        raise InputError(f"expected {m} edge lines, found {len(body)}")
    prev_key = -1
    eu = np.empty(m, dtype=np.int64)
    ev = np.empty(m, dtype=np.int64)
    for i, ln in enumerate(body):
        toks = ln.split()
        if len(toks) != 2:
            raise InputError(f"bad edge line: {ln!r}")
        u, v = int(toks[0]), int(toks[1])
        if u >= v:
            raise InputError(f"edge line not in u < v form: {ln!r}")
        if not (0 <= u and v < n):
            raise InputError(f"edge endpoint out of range: {ln!r}")
        key = u * n + v
        if key == prev_key:
            raise InputError(f"duplicate edge: {ln!r}")
        if key < prev_key:
            raise InputError(f"edge lines not sorted: {ln!r}")
        prev_key = key
        eu[i], ev[i] = u, v
    return Graph.from_arrays(n, eu, ev)


@given(sparse_graphs())
@settings(max_examples=40, deadline=None)
def test_graph_text_equals_per_line_reference(g):
    text = write_graph_text(g)
    assert text == write_graph_text_per_line(g)
    assert parse_graph_text(text) == g == parse_graph_text_per_line(text)


def test_graph_parser_agrees_with_reference_on_mutants():
    stream = Stream(1203)
    bases = [write_graph_text(random_graph(n, 0.35, stream)) for n in (2, 5, 9, 14)]
    bases += [write_graph_text(Graph(3, [])),
              write_graph_text(Graph(120000, [(7, 99), (7, 119999), (4000, 5000)])),
              "GRAPH v1\r\nN 12 M 3\r\n\r\n 0\t11 \n  3 4\n\n5  10\n\n"]
    seen = {}
    for base in bases:
        for text in text_mutants(base, stream, 400):
            case = check_mutant(parse_graph_text, parse_graph_text_per_line, text)
            seen[case] = seen.get(case, 0) + 1
    assert seen.keys() == {"accepted", "rejected", "narrowed"}, seen


def test_decimal_text_equals_str_join_at_every_width():
    """Columns of at most 9 digits are written in int32, wider ones in int64."""
    col = np.array([0, 7, 10**9 - 1, 10**9, 2**31 - 1, 2**31, 10**18 - 1], dtype=np.int64)
    ten = np.array([5, 10**9, 2**31, 10**10 - 1], dtype=np.int64)
    for cols in ([col, col[::-1]], [col[:3], col[:3] + 1], [ten, ten[::-1]]):
        rows = list(zip(*[c.tolist() for c in cols]))
        for tag in ("", "E"):
            expected = "".join(f"{tag} " * bool(tag) + " ".join(map(str, row)) + "\n"
                               for row in rows)
            assert _decimal_text(cols, tag).decode("ascii") == expected


@st.composite
def decimal_bodies(draw):
    """(text, tokens): lines of up to four tokens of 1 to 18 digits (leading
    zeros and 18-digit values included), some opened by an LC ``E`` tag,
    blank lines among them, joined by every blank and line break."""
    digits = st.one_of(st.text("0123456789", min_size=1, max_size=18),
                       st.sampled_from(["0", "000", "007", "9" * 18, "0" * 17 + "1"]))
    text, tokens = "", []
    for _ in range(draw(st.integers(0, 6))):
        line = draw(st.lists(digits, max_size=4))
        tag = "E " if line and draw(st.booleans()) else ""
        blanks = [draw(st.sampled_from([" ", "\t", " \t ", "  "])) for _ in line]
        text += tag + "".join(b + tok for b, tok in zip(blanks, line))
        text += draw(st.sampled_from(["\n", "\r\n", "\r", "\v", "\f", "\t\n", "\n\n"]))
        tokens += line
    return text, tokens


def rows_per_line(text):
    """(offset, line number) of the first token of every nonblank line of
    ``text``, split one line at a time by the token policy's line breaks."""
    rows, lo = [], 0
    breaks = list(re.finditer(r"\r\n|[\n\r\v\f]", text)) + [None]
    for number, brk in enumerate(breaks, 1):
        line = text[lo:brk.start() if brk else len(text)]
        if line.strip(" \t"):
            rows.append((lo + len(line) - len(line.lstrip(" \t")), number))
        lo = brk.end() if brk else lo
    return rows


@given(decimal_bodies())
@settings(max_examples=200, deadline=None)
def test_row_offsets_and_line_numbers_equal_per_line_reference(body):
    text, _ = body
    raw = text.encode("ascii")
    _, _, tag = _int_rows(raw, 0, "row", tags="E")
    pos = [_row_offset(raw, 0, row, "E") for row in range(tag.size)]
    assert [(p, _line_number(raw, p)) for p in pos] == rows_per_line(text)


@given(decimal_bodies())
@settings(max_examples=200, deadline=None)
def test_decimal_values_equals_per_token_int(body):
    text, tokens = body
    expected = [int(tok) for tok in tokens]
    assert _decimal_values(text.encode("ascii"), len(tokens)).tolist() == expected
    values, first, _ = _int_rows(text.encode("ascii"), 0, "row", tags="E")
    assert values.tolist() == expected and first[-1] == len(tokens)


def test_decimal_values_of_a_body_without_tokens():
    for text in [b"", b"\n", b" \t\r\n\v\f"]:
        assert _decimal_values(text, 0).tolist() == []
    with pytest.raises(AssertionError, match="decoded 2 values from 3 tokens"):
        _decimal_values(b"1 2\n", 3)


def test_infinity_ordering():
    assert INFINITY > 10**9
    assert math.isinf(INFINITY)
