import contextlib
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
from girthspan.graphs import (Graph, INFINITY, _check_body, _decimal_text, _graph_chunks, _hops,
                              _line_number, _row_offset, _span_values, _token_rows, _within,
                              edge_cycle_length, girth, graph_sha256, parse_graph_text,
                              write_graph_text)
from girthspan.labelcover import parse_cover_text
from girthspan.oracles import bfs_distances
from girthspan.rng import Stream
from girthspan.spanner import parse_subset_text

from conftest import (check_mutant, complete_graph, cycle_graph, degrees, hub_graph, is_bipartite,
                      make_graph, random_graph, rejection, sparse_graphs, text_mutants, tiny_passes)


def test_bfs_on_path():
    g = make_graph(3, [(0, 1), (1, 2)])
    assert bfs_distances(g, 0) == [0, 1, 2]


def test_bfs_disconnected_vertex_is_infinite():
    g = make_graph(3, [(0, 1)])
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
        bfs_distances(make_graph(2, [(0, 1)]), 5)


def test_girth_examples():
    assert girth(cycle_graph(4)) == 4
    assert girth(make_graph(4, [(0, 1), (1, 2), (1, 3)])) == INFINITY
    assert girth(complete_graph(4)) == 3
    assert girth(make_graph(0, [])) == INFINITY


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
    tree = make_graph(3, [(0, 1), (1, 2)])
    assert edge_cycle_length(tree, 0) == INFINITY
    k4 = complete_graph(4)
    assert all(edge_cycle_length(k4, e) == 3 for e in range(6))
    with pytest.raises(InputError):
        edge_cycle_length(c6, 99)


def test_is_bipartite_examples():
    assert is_bipartite(cycle_graph(4))[0]
    assert not is_bipartite(cycle_graph(5))[0]
    ok, colors = is_bipartite(make_graph(3, []))
    assert ok and set(colors) == {0}


def test_bipartite_coloring_is_proper():
    g = random_graph(10, 0.3, Stream(5))
    ok, colors = is_bipartite(g)
    if ok:
        assert all(colors[u] != colors[v] for u, v in g.edges())


def test_constructor_rejections():
    with pytest.raises(InputError):
        make_graph(3, [(0, 0)])
    with pytest.raises(InputError):
        make_graph(3, [(0, 1), (1, 0)])
    with pytest.raises(InputError):
        make_graph(2, [(0, 5)])
    with pytest.raises(InputError, match=r"\(u, v\) pairs"):
        Graph(3, [0, 1], [1])


def test_edge_ids_are_canonical():
    g = make_graph(4, [(2, 3), (1, 0), (0, 2)])
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
    rest = make_graph(n, [e for e in g.edges() if not (skip and set(e) == {u, v})])
    assert _hops(g.adjacency(), u, v, cap, skip_direct=skip) == bfs_distances(rest, u, cap)[v]
    for eid in range(g.edge_count):
        full = edge_cycle_length(g, eid)
        expected = full if cap is None or full <= cap else INFINITY
        assert edge_cycle_length(g, eid, cap) == expected


@given(st.integers(20, 60), st.integers(0, 2**32), st.data())
@settings(max_examples=120, deadline=None)
def test_hops_equals_capped_bfs_with_hubs(n, seed, data):
    """The kernel against bfs_distances where the grown side switches: one or
    two hubs, ends drawn from the hubs or from all vertices, so that single
    roots of very different degrees meet (the one with fewer neighbours
    grows) as well as frontiers of different sizes."""
    hubs = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True))
    g = hub_graph(n, hubs, data.draw(st.floats(0.0, 0.08)), Stream(seed))
    end = st.sampled_from(hubs) | st.integers(0, n - 1)
    u, v = data.draw(end), data.draw(end)
    cap = data.draw(st.none() | st.integers(0, n))
    skip = data.draw(st.booleans())
    rest = make_graph(n, [e for e in g.edges() if not (skip and set(e) == {u, v})])
    assert _hops(g.adjacency(), u, v, cap, skip_direct=skip) == bfs_distances(rest, u, cap)[v]


@given(st.integers(20, 60), st.integers(0, 2**32), st.data())
@settings(max_examples=120, deadline=None)
def test_hops_at_the_cap_and_one_below(n, seed, data):
    """A query at cap = d, the true distance, ends on the final level, where
    only the meeting test runs: it must return d, and INFINITY at cap d - 1.
    No query may change the neighbour lists, which are shared."""
    hubs = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True))
    g = hub_graph(n, hubs, data.draw(st.floats(0.0, 0.08)), Stream(seed))
    end = st.sampled_from(hubs) | st.integers(0, n - 1)
    u, v = data.draw(end), data.draw(end)
    skip = data.draw(st.booleans())
    rest = make_graph(n, [e for e in g.edges() if not (skip and set(e) == {u, v})])
    d = bfs_distances(rest, u)[v]
    adj = g.adjacency()
    before = [list(ws) for ws in adj]
    if d == INFINITY:
        assert _hops(adj, u, v, None, skip_direct=skip) == INFINITY
        assert _hops(adj, u, v, n, skip_direct=skip) == INFINITY
    elif d > 0:
        assert _hops(adj, u, v, d, skip_direct=skip) == d
        assert _hops(adj, u, v, d - 1, skip_direct=skip) == INFINITY
    assert adj == before


def test_hops_unit_cases():
    g = make_graph(7, [(0, 1), (1, 2), (3, 4), (4, 5)])      # vertex 6 is isolated
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
    path = make_graph(4, [(0, 1), (1, 2), (2, 3)]).adjacency()
    for u, v in ((0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)):
        assert _hops(path, u, v, None) == 1
        assert _hops(path, u, v, None, skip_direct=True) == INFINITY


def test_hops_grows_the_root_with_fewer_neighbours(monkeypatch):
    """A star of 1,000 leaves and a pendant on one leaf: from the hub to the
    pendant and back, the search grows the pendant's side, and reads fewer
    than 10 neighbour entries where growing the hub would read 1,000."""
    hub, pendant = 0, 1001
    g = make_graph(1002, [(hub, leaf) for leaf in range(1, 1001)] + [(1, pendant)])
    adj = g.adjacency()
    entries = []
    grow = graphs._grow
    monkeypatch.setattr(graphs, "_grow", lambda adj, frontier, *args: entries.append(
        sum(len(adj[u]) for u in frontier)) or grow(adj, frontier, *args))
    for u, v in ((hub, pendant), (pendant, hub)):
        entries.clear()
        assert _hops(adj, u, v, 3) == 2
        assert sum(entries) < 10


# --- the batched kernel -----------------------------------------------------------

def within_all(g, pairs, cap, skip):
    """``_within`` over every pass, as one bool array."""
    us = np.array([u for u, _ in pairs], dtype=np.int64)
    vs = np.array([v for _, v in pairs], dtype=np.int64)
    return np.concatenate([np.zeros(0, dtype=bool), *_within(g, us, vs, cap, skip)]).tolist()


def within_by_bfs(g, pairs, cap, skip):
    """Per pair, bfs_distances on the graph itself, or on the graph rebuilt
    without {u, v} when skipping the direct edge."""
    out = []
    for u, v in pairs:
        rest = make_graph(g.vertex_count, [e for e in g.edges() if not (skip and set(e) == {u, v})])
        out.append(bfs_distances(rest, u)[v] <= cap)
    return out


def pair_lists(n, ends=None):
    """Lists of pairs of vertices below n, some with u = v."""
    end = ends if ends is not None else st.integers(0, n - 1)
    return st.lists(st.tuples(end, end) | end.map(lambda w: (w, w)), max_size=12)


@pytest.mark.parametrize("passes", [contextlib.nullcontext, tiny_passes])
@given(st.integers(1, 12), st.integers(0, 2**32), st.data())
@settings(max_examples=60, deadline=None)
def test_within_equals_capped_bfs(passes, n, seed, data):
    """The batched kernel against bfs_distances at every cap 0..n+1, with
    and without the direct edge; tiny passes give the same answers."""
    g = random_graph(n, data.draw(st.floats(0.1, 0.9)), Stream(seed))
    pairs = data.draw(pair_lists(n))
    with passes():
        for skip in (False, True):
            for cap in range(n + 2):
                assert within_all(g, pairs, cap, skip) == within_by_bfs(g, pairs, cap, skip)


@pytest.mark.parametrize("passes", [contextlib.nullcontext, tiny_passes])
@given(st.integers(20, 40), st.integers(0, 2**32), st.data())
@settings(max_examples=40, deadline=None)
def test_within_equals_capped_bfs_with_hubs(passes, n, seed, data):
    """The batched kernel against bfs_distances where one side is a hub:
    one or two hubs, ends drawn from the hubs or from all vertices."""
    hubs = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True))
    g = hub_graph(n, hubs, data.draw(st.floats(0.0, 0.08)), Stream(seed))
    pairs = data.draw(pair_lists(n, st.sampled_from(hubs) | st.integers(0, n - 1)))
    cap = data.draw(st.integers(0, n + 1))
    with passes():
        for skip in (False, True):
            assert within_all(g, pairs, cap, skip) == within_by_bfs(g, pairs, cap, skip)


def test_within_unit_cases():
    g = make_graph(7, [(0, 1), (1, 2), (3, 4), (4, 5)])      # vertex 6 is isolated
    pairs = [(0, 6), (6, 0), (0, 5), (2, 2), (6, 6), (0, 2), (0, 1)]
    assert within_all(g, pairs, 2, False) == [False, False, False, True, True, True, True]
    assert within_all(g, pairs, 1, False) == [False, False, False, True, True, False, True]
    assert within_all(g, pairs, 1, True) == [False, False, False, True, True, False, False]
    assert within_all(g, pairs, 0, False) == [False, False, False, True, True, False, False]
    assert within_all(g, [], 3, False) == []
    tri = complete_graph(3)
    assert within_all(tri, [(0, 1), (2, 1)], 1, True) == [False, False]
    assert within_all(tri, [(0, 1), (2, 1)], 2, True) == [True, True]


def two_hubs(d):
    """Hubs 0 and 1, joined by edge 0, each with d leaves of its own."""
    return Graph(2 + 2 * d, np.repeat([0, 0, 1], [1, d, d]), np.arange(1, 2 + 2 * d))


def test_within_peak_is_linear_in_hub_degree():
    """Two adjacent hubs of degree d: without their edge no path joins them,
    and each side's first level holds d leaves.  The final level reads the
    leaves' neighbours instead of the d^2 pairs of leaves, so the peak grows
    about 4 times when d does; and a pass of many such pairs is split to
    the entry budget, so its peak barely grows at all."""
    def peak(g, count):
        tracemalloc.start()
        try:
            assert within_all(g, [(0, 1)] * count, 3, True) == [False] * count
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = two_hubs(2000), two_hubs(8000)
    assert peak(large, 1) < 6 * peak(small, 1)
    assert peak(large, 300) < 2 * peak(small, 300)


def test_adjacency_is_cached_neighbour_lists():
    g = make_graph(4, [(2, 3), (1, 0), (0, 2)])
    adj = g.adjacency()
    assert adj is g.adjacency()
    assert [sorted(ws) for ws in adj] == [[1, 2], [0], [0, 3], [2]]
    # each list: the edges where v is the lower end, then the higher, by edge id
    assert adj == [[b for a, b in g.edges() if a == v] + [a for a, b in g.edges() if b == v]
                   for v in range(4)]


def test_graph_text_round_trip():
    g = make_graph(5, [(0, 1), (0, 4), (2, 3)])
    text = write_graph_text(g)
    assert text.splitlines()[0] == "GRAPH v1"
    assert parse_graph_text(text.encode("ascii")) == g
    assert graph_sha256(g) == graph_sha256(parse_graph_text(text.encode("ascii")))


def test_graph_text_round_trip_empty():
    g = make_graph(3, [])
    assert parse_graph_text(write_graph_text(g).encode("ascii")) == g


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
    ("0 4\n2 1\n0 1\n", "line 3: edge endpoint out of range"),     # before a later u >= v
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
    raw = b"GRAPH v1 \r\nN 6\tM 2\r\n\n  0\t 5  \f\n\n3 4\v"
    assert parse_graph_text(raw) == make_graph(6, [(0, 5), (3, 4)])


def circulant(n=100_000):
    """A circulant on n vertices, six edges per vertex: 6.7 MB of GRAPH text
    at n = 10^5."""
    u = np.tile(np.arange(n), 6)
    return Graph(n, u, (u + np.repeat(np.arange(1, 7), n)) % n)


def traced_peak(fn, *args):
    """(result, peak traced bytes) of ``fn(*args)``."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_graph_parse_of_bytes_peak_memory_is_bounded():
    """From its bytes, as the pipeline's audit reads it, the circulant's
    text parses below 1.2 times its size: the int32 edges take 8 bytes an
    edge, each block's values are narrowed as they are decoded, and the
    canonical check runs a block at a time (0.9 times).  With int64 edges
    and a whole key array it took 2.2 times."""
    raw = write_graph_text(circulant()).encode("ascii")
    g, peak = traced_peak(parse_graph_text, raw)
    assert g == circulant()
    assert peak < 1.2 * len(raw)


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


def test_graph_endpoints_are_int32_c_contiguous_and_read_only(tmp_path):
    """Every way to make a graph stores its ends as int32 arrays, 8 bytes
    per edge, and keeps no other per-edge array."""
    g = make_graph(6, [(4, 1), (0, 5), (2, 3)])
    raw = write_graph_text(g).encode("ascii")
    for made in [g, Graph(6, np.array([4, 0, 2]), np.array([1, 5, 3])),
                 parse_graph_text(raw), make_graph(3, [])]:
        for ends in made.edge_arrays():
            assert ends.dtype == np.int32 and ends.flags.c_contiguous
            assert not ends.flags.writeable
    assert "_keys" not in Graph.__slots__


def test_graph_vertex_count_is_bounded():
    """No graph has more than MAX_DECLARED_VERTICES vertices, so no vertex
    id can wrap in int32; a graph of exactly that many is made."""
    bound = graphs.MAX_DECLARED_VERTICES
    assert bound < 2**31
    for make in [lambda n: make_graph(n, []), lambda n: Graph(n, [], [])]:
        with pytest.raises(InputError, match="exceeds"):
            make(bound + 1)
        assert make(bound).vertex_count == bound
    with pytest.raises(InputError, match="exceeds"):
        make_graph(10**18, [(0, 10**12)])


@pytest.mark.parametrize("body, message", [
    ("0 2147483648\n", "line 3: edge endpoint out of range"),
    ("0 4294967297\n", "line 3: edge endpoint out of range"),            # 1 in int32
    ("4294967296 4294967297\n", "line 3: edge endpoint out of range"),   # (0, 1) in int32
    ("0 1\n1 4294967298\n", "line 4: edge endpoint out of range"),       # (1, 2) in int32
    # the first faulty line is named, whatever rule a later line breaks
    ("0 4294967297\n3 2\n", "line 3: edge endpoint out of range"),
    ("3 2\n0 4294967297\n", "line 3: edge line not in u < v form"),
])
def test_graph_endpoints_beyond_int32_are_out_of_range(body, message):
    """An endpoint of 2^31 or more is out of range at N = 5 with the
    message and line of an int64 parse, and is never wrapped into range."""
    text = f"GRAPH v1\nN 5 M {body.count(chr(10))}\n" + body
    assert rejection(parse_graph_text, text) == message


def test_graph_endpoint_beyond_int32_in_a_later_block():
    """An endpoint that int32 would wrap to a valid, sorted edge, on the
    last of 20,000 lines, three read blocks into the body."""
    n = 20_000
    lines = [f"{i} {i + 1}" for i in range(n - 1)] + [f"{n - 1} {2**32 + n}"]
    text = f"GRAPH v1\nN {n + 1} M {n}\n" + "\n".join(lines) + "\n"
    assert len(text) > 3 * graphs._READ_BYTES
    assert rejection(parse_graph_text, text) == f"line {n + 2}: edge endpoint out of range"


W = graphs._WRITE_ROWS


@pytest.mark.parametrize("at", [1, 2, W - 1, W, W + 1, 2 * W, 3 * W - 1])
def test_rising_checks_each_row_against_the_row_before_across_blocks(at):
    """``_rising`` reads W rows a block; a row equal to the one before, or
    below it, is found and named wherever it lies, a block's first row
    included, unless it is a restart."""
    major, minor = np.divmod(np.arange(3 * W + 5), 3)
    assert graphs._rising(major, minor) is None
    for drop in (0, 1):         # equal to the row before, then below it
        bad_major, bad_minor = major.copy(), minor.copy()
        bad_major[at], bad_minor[at] = major[at - 1], minor[at - 1] - drop
        assert graphs._rising(bad_major, bad_minor) == at
        assert graphs._rising(bad_major, bad_minor, np.array([0, at, 3 * W])) is None
        assert graphs._rising(bad_major, bad_minor, np.array([at - 1, at + 1])) == at


@pytest.mark.parametrize("row", [W - 1, W, W + 1])
def test_graph_duplicate_at_a_block_boundary(row):
    """A duplicate edge as the first row of the second check block, or next
    to it, is named at its line."""
    ends = [(i, i + 1) for i in range(W + 3)]
    ends.insert(row, ends[row - 1])
    body = "".join(f"{u} {v}\n" for u, v in ends)
    text = f"GRAPH v1\nN {W + 5} M {len(ends)}\n" + body
    assert rejection(parse_graph_text, text) == f"line {row + 3}: duplicate edge"


def assert_lookups_agree(g, edges, probes):
    """``edge_id`` and ``edge_ids_of`` of ``g``, made from the distinct
    (lower end, higher end) pairs ``edges``, against a dict reference on
    every probe (u, v), either way round; an absent pair is None for
    ``edge_id`` and an InputError for ``edge_ids_of``."""
    ref = {pair: eid for eid, pair in enumerate(sorted(edges))}
    for u, v in probes:
        want = ref.get((min(u, v), max(u, v)))
        assert g.edge_id(u, v) == g.edge_id(v, u) == want
        if want is None:
            with pytest.raises(InputError, match="not an edge"):
                g.edge_ids_of(np.array([u]), np.array([v]))
    present = [(u, v) for u, v in probes if (min(u, v), max(u, v)) in ref]
    if present:
        us, vs = np.array(present, dtype=np.int64).T
        want = [ref[min(u, v), max(u, v)] for u, v in present]
        assert g.edge_ids_of(us, vs).tolist() == g.edge_ids_of(vs, us).tolist() == want


def test_edge_lookup_at_the_vertex_bound():
    """At N = 10^8 a key u * N + v reaches 10^16, far beyond 2^31."""
    n = graphs.MAX_DECLARED_VERTICES
    edges = [(0, n - 1), (5, 7), (5, 99_999_998), (12_345_678, n - 1),
             (n - 3, n - 2), (n - 2, n - 1)]
    g = make_graph(n, edges)
    absent = [(0, 1), (0, n - 2), (5, 6), (5, 8), (7, 99_999_998), (12_345_678, n - 2),
              (n - 3, n - 1), (n - 1, n - 1), (6, 6)]
    assert_lookups_agree(g, edges, edges + absent)


def test_edge_lookup_of_pairs_out_of_range():
    """A pair with an end outside [0, N) is absent, though its key u * N + v
    may equal an edge's: -1 * 5 + 8 is the key of (0, 3)."""
    g = make_graph(5, [(0, 3)])
    for u, v in [(-1, 8), (8, -1), (0, 5), (-5, 3), (3, 3)]:
        assert g.edge_id(u, v) is None
        with pytest.raises(InputError, match="not an edge"):
            g.edge_ids_of(np.array([u]), np.array([v]))


@st.composite
def lookup_cases(draw):
    """A graph on up to 10^8 vertices (or on a few, so that probes hit),
    its edges, and probes: every edge and random pairs, most of them absent."""
    n = draw(st.one_of(st.integers(2, 12), st.integers(2, graphs.MAX_DECLARED_VERTICES)))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=40))
    edges = {(min(u, v), max(u, v)) for u, v in pairs if u != v}
    probes = draw(st.lists(st.tuples(vertex, vertex), max_size=40))
    return n, sorted(edges), sorted(edges) + probes


@settings(max_examples=200, deadline=None)
@given(lookup_cases())
def test_edge_lookup_agrees_with_a_dict(case):
    n, edges, probes = case
    assert_lookups_agree(make_graph(n, edges), edges, probes)


def test_graph_arrays_are_read_only():
    g = cycle_graph(5)
    for arr in g.edge_arrays():
        with pytest.raises(ValueError):
            arr[0] = 3


def test_neighbour_lists_are_built_on_first_use():
    """Neither construction, GRAPH text nor the digest builds the neighbour
    lists; the first ``adjacency()`` call does and caches them.  Vertex v's
    list holds the other ends of the edges where v is the lower end, then
    the higher, each in ascending edge id."""
    built = make_graph(5, [(3, 4), (0, 1), (1, 2), (0, 4)])
    parsed = parse_graph_text(write_graph_text(built).encode("ascii"))
    for g in (built, parsed):
        assert g._adj is None
        graph_sha256(g)
        assert g._adj is None
        adj = g.adjacency()
        assert g._adj is adj and g.adjacency() is adj
        assert degrees(g).tolist() == [len(nbrs) for nbrs in adj] == [2, 2, 1, 1, 2]
        eu, ev = g.edge_arrays()
        for v in range(5):
            eids = ([e for e in range(g.edge_count) if eu[e] == v]
                    + [e for e in range(g.edge_count) if ev[e] == v])
            assert adj[v] == [int(eu[e] + ev[e] - v) for e in eids]
    assert make_graph(3, []).adjacency() == [[], [], []]


def test_graph_sha256_matches_text_digest():
    stream = Stream(31)
    for _ in range(5):
        g = random_graph(12, 0.3, stream)
        expected = hashlib.sha256(write_graph_text_per_line(g).encode()).hexdigest()
        fresh = Graph(g.vertex_count, *g.edge_arrays())
        assert graph_sha256(fresh) == expected          # computed
        assert graph_sha256(fresh) == expected          # cached
        written = Graph(g.vertex_count, *g.edge_arrays())
        assert hashlib.sha256(write_graph_text(written).encode()).hexdigest() == expected
        assert graph_sha256(written) == expected        # cached by the writer


# --- the per-line GRAPH v1 writer and parser, kept as the reference ---------------

def write_graph_text_per_line(g):
    lines = ["GRAPH v1", f"N {g.vertex_count} M {g.edge_count}"]
    eu, ev = g.edge_arrays()
    lines.extend(f"{u} {v}" for u, v in zip(eu.tolist(), ev.tolist()))
    return "\n".join(lines) + "\n"


def parse_graph_text_per_line(text):
    """The reference parse: an edge line that breaks a rule is named by its
    line number and the first rule it breaks."""
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
    body = [(no, ln) for no, ln in enumerate(lines[2:], start=3) if ln.strip()]
    if len(body) != m:
        raise InputError(f"expected {m} edge lines, found {len(body)}")
    prev_key = -1
    eu = np.empty(m, dtype=np.int64)
    ev = np.empty(m, dtype=np.int64)
    for i, (no, ln) in enumerate(body):
        toks = ln.split()
        if len(toks) != 2:
            raise InputError(f"bad edge line: {ln!r}")
        u, v = int(toks[0]), int(toks[1])
        if u >= v:
            raise InputError(f"line {no}: edge line not in u < v form")
        if not (0 <= u and v < n):
            raise InputError(f"line {no}: edge endpoint out of range")
        key = u * n + v
        if key == prev_key:
            raise InputError(f"line {no}: duplicate edge")
        if key < prev_key:
            raise InputError(f"line {no}: edge lines not sorted")
        prev_key = key
        eu[i], ev[i] = u, v
    return Graph(n, eu, ev)


@st.composite
def edited_graph_texts(draw):
    """GRAPH v1 texts whose edge lines all hold two decimal integers: a
    canonical edge list after one to three edits, each of which can break
    an edge rule (ends swapped, an end at N or above 2^32, which int32 would
    wrap into range, a line repeated or moved), with blank lines between
    some lines."""
    n = draw(st.integers(2, 9))
    ends = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12))
    rows = [list(pair) for pair in sorted({(min(p), max(p)) for p in ends if p[0] != p[1]})]
    for _ in range(draw(st.integers(1, 3))):
        if not rows:
            break
        r, side = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 1))
        edit = draw(st.sampled_from(["swap", "at n", "wraps", "repeat", "move"]))
        if edit == "swap":
            rows[r].reverse()
        elif edit == "at n":
            rows[r][side] = n
        elif edit == "wraps":
            rows[r][side] += 2**32
        elif edit == "repeat":
            rows.insert(r, list(rows[r]))
        else:
            rows.insert(draw(st.integers(0, len(rows) - 1)), rows.pop(r))
    lines = [f"{u} {v}" for u, v in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    return f"GRAPH v1\nN {n} M {len(rows)}\n" + "\n".join(lines) + "\n"


@given(edited_graph_texts())
@settings(max_examples=300, deadline=None)
def test_graph_parser_names_the_line_and_rule_of_the_reference(text):
    """Where the per-line reference rejects an edge line, the parser's
    message is the reference's: the same line and the same rule."""
    try:
        expected = parse_graph_text_per_line(text)
    except InputError as exc:
        assert rejection(parse_graph_text, text) == str(exc)
    else:
        assert parse_graph_text(text.encode("ascii")) == expected


@given(sparse_graphs())
@settings(max_examples=40, deadline=None)
def test_graph_text_equals_per_line_reference(g):
    text = write_graph_text(g)
    assert text == write_graph_text_per_line(g)
    assert parse_graph_text(text.encode("ascii")) == g == parse_graph_text_per_line(text)


def test_graph_parser_agrees_with_reference_on_mutants():
    stream = Stream(1203)
    bases = [write_graph_text(random_graph(n, 0.35, stream)) for n in (2, 5, 9, 14)]
    bases += [write_graph_text(make_graph(3, [])),
              write_graph_text(make_graph(120000, [(7, 99), (7, 119999), (4000, 5000)])),
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
    zeros, 18-digit values and the lengths around 8 and 16 digits
    included), some opened by an LC ``E`` tag, blank lines among them,
    joined by every blank and line break."""
    digits = st.one_of(st.text("0123456789", min_size=1, max_size=18),
                       st.sampled_from(["0", "000", "007", "9" * 8, "1" + "0" * 8, "9" * 16,
                                        "1" + "0" * 16, "9" * 17, "9" * 18, "0" * 17 + "1"]))
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
    rows = rows_per_line(text)
    pos = [_row_offset(raw, [0], [len(raw)], row) for row in range(len(rows))]
    assert [(p, _line_number(raw, p)) for p in pos] == rows
    with pytest.raises(IndexError):
        _row_offset(raw, [0], [len(raw)], len(rows))


def digit_token_values(raw, tags="E"):
    """``_span_values`` of the digit tokens of the body ``raw``, from the
    spans ``_token_rows`` gives them (tags left out)."""
    block = np.frombuffer(raw, dtype=np.uint8)
    _check_body(raw, 0, tags)
    starts, ends, _ = _token_rows(block)
    digit = block[starts] <= ord("9")
    return _span_values(block, ends[digit], (ends - starts)[digit])


@given(decimal_bodies())
@settings(max_examples=200, deadline=None)
def test_decimal_values_equals_per_token_int(body):
    text, tokens = body
    expected = [int(tok) for tok in tokens]
    assert digit_token_values(text.encode("ascii")).tolist() == expected


def test_decimal_values_of_a_body_without_tokens():
    for raw in [b"", b"\n", b" \t\r\n\v\f", b"E \n"]:
        assert digit_token_values(raw).tolist() == []


def test_infinity_ordering():
    assert INFINITY > 10**9
    assert math.isinf(INFINITY)
