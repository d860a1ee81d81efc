"""The block-wise text kernels at block sizes of a few rows or bytes.

``_WRITE_ROWS`` (rows per rendered block or LC chunk), ``_READ_BYTES``
(bytes per tokenized block) and ``labelcover._GROUP_BYTES`` (bytes per
group of E lines or distinct relation blocks) are patched down so that
every text below spans many blocks, and a block can be a single line, a
single line break or the second half of a ``\\r\\n``.  The texts must
equal those written with the real constants, parse back to the objects
they were written from, and report a fault in a later block with the
message and line the real constants give.  The byte chunks that the
pipeline streams must join to the texts, and a text must parse from its
bytes as from the str.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from girthspan import graphs, labelcover
from girthspan.graphs import Graph, _graph_chunks, parse_graph_text, write_graph_text
from girthspan.labelcover import (Labeling, _lc_chunks, labeling_to_repcover, parse_cover_text,
                                  parse_labeling_text, parse_lc_text, write_cover_text,
                                  write_labeling_text, write_lc_text)
from girthspan.rng import Stream
from girthspan.spanner import EdgeSubset, _subset_chunks, parse_subset_text, write_subset_text

from conftest import lc_instances, random_graph, random_tiny_lc, rejection, sparse_graphs

BLOCK_SIZES = [(1, 1), (2, 3), (3, 7), (5, 16)]     # (rows written, bytes read) per block


def small_blocks(monkeypatch, rows, size):
    for module in (graphs, labelcover):
        monkeypatch.setattr(module, "_WRITE_ROWS", rows)
        monkeypatch.setattr(module, "_READ_BYTES", size)
    monkeypatch.setattr(labelcover, "_GROUP_BYTES", size)


def artifacts():
    """(text writer, parser, object) for random graphs, subsets, covers,
    labelings and LC instances, with ids of one to six digits."""
    stream = Stream(1515)
    cases = []
    for n, p in [(9, 0.4), (30, 0.2)]:
        g = random_graph(n, p, stream)
        keep = np.array([e for e in range(g.edge_count) if stream.random() < 0.5], dtype=np.int64)
        cases += [(write_graph_text, parse_graph_text, g),
                  (write_subset_text, lambda t, g=g: parse_subset_text(t, g),
                   EdgeSubset(g, keep))]
    wide = Graph(400_000, [(7, 99), (7, 399_999), (4000, 5000), (123_456, 200_000)])
    cases.append((write_graph_text, parse_graph_text, wide))
    for sides in [(2, 3, 3, 2), (4, 4, 12, 5)]:
        lc = random_tiny_lc(stream, *sides)
        lab = Labeling(tuple(stream.randbelow(lc.sigma_a) for _ in range(lc.a_count)),
                       tuple(stream.randbelow(lc.sigma_b) for _ in range(lc.b_count)))
        cases += [(write_lc_text, parse_lc_text, lc),
                  (write_cover_text, parse_cover_text, labeling_to_repcover(lc, lab)),
                  (write_labeling_text, lambda t, lc=lc: parse_labeling_text(t, lc), lab)]
    return cases


@pytest.mark.parametrize("rows, size", BLOCK_SIZES)
def test_texts_round_trip_at_small_block_sizes(monkeypatch, rows, size):
    cases = [(writer, parse, obj, writer(obj)) for writer, parse, obj in artifacts()]
    small_blocks(monkeypatch, rows, size)
    for writer, parse, obj, text in cases:
        assert writer(obj) == text
        for brk in ["\n", "\r\n", "\r", "\f"]:
            assert parse(text.replace("\n", brk)) == obj


def graph_text(rows):
    """A GRAPH v1 text of ``rows`` sorted edges over 10^6 vertices."""
    return write_graph_text(Graph(10**6, [(i, 500_000 + i) for i in range(rows)]))


def fault_cases():
    """(parser, text, message) with a fault on a line near the end.  Where
    a text has two faults of one kind, the first row of the wrong width and
    the first token of the most digits are named."""
    text = graph_text(40)
    lines = text.split("\n")               # the edge on line r + 3 is row r
    wide, too_long, unsorted, both = list(lines), list(lines), list(lines), list(lines)
    wide[38] += " 7"
    wide[40] += " 7"
    too_long[5] = "4" * 19 + " 500003"
    too_long[40] = "5" * 19 + " 500038"
    longer = list(too_long)
    longer[39] = "6" * 20 + " 500037"
    both[3] = "5" * 19 + " 500001"
    both[40] += " 7"
    unsorted[39], unsorted[40] = unsorted[40], unsorted[39]
    g = Graph(10**6, [(i, 500_000 + i) for i in range(40)])
    subset = write_subset_text(EdgeSubset(g, np.arange(0, 40, 2))).split("\n")
    subset[-3], subset[-2] = subset[-2], subset[-3]
    cover = write_cover_text(labeling_to_repcover(
        random_tiny_lc(Stream(3), 3, 3, 2, 2), Labeling((0, 1, 0), (1, 1, 0)))).split("\n")
    cover[-2] = cover[-2][2:]
    return [
        (parse_graph_text, "\n".join(wide), "line 39: expected 2 integer(s) per edge line"),
        (parse_graph_text, "\n".join(too_long), "line 6: '4444444444444444444' is not"),
        (parse_graph_text, "\n".join(longer), "line 40: '66666666666666666666' is not"),
        (parse_graph_text, "\n".join(unsorted), "line 41: edge lines not sorted"),
        (parse_graph_text, text.replace("M 40", "M 41"), "expected 41 edge lines, found 40"),
        (parse_graph_text, text.replace("M 40", "M 39"), "expected 39 edge lines, found 40"),
        (parse_graph_text, "\n".join(lines[:-2]), "expected 40 edge lines, found 39"),
        (parse_graph_text, "\n".join(both), "line 41: expected 2 integer(s) per edge line"),
        (lambda t: parse_subset_text(t, g), "\n".join(subset),
         f"line {len(subset) - 1}: subset edge ids must be sorted and distinct"),
        (parse_cover_text, "\n".join(cover),
         f"line {len(cover) - 1}: cover line must start with A or B"),
    ]


@pytest.mark.parametrize("rows, size", BLOCK_SIZES)
def test_a_fault_in_a_later_block_keeps_its_message(monkeypatch, rows, size):
    """Each fault sits many blocks in.  One graph case has a token of 19
    digits many blocks before a row of the wrong width; the width fault is
    the one named, as the precedence says."""
    cases = []
    for parse, text, message in fault_cases():
        expected = rejection(parse, text)
        assert message in expected
        cases.append((parse, text, expected))
    small_blocks(monkeypatch, rows, size)
    for parse, text, message in cases:
        for brk in ["\n", "\r\n"]:
            assert rejection(parse, text.replace("\n", brk)) == message


def test_lc_e_line_fault_in_a_later_group_keeps_its_message(monkeypatch):
    """A superedge line of the wrong width, or with a 19-digit token, many
    E line groups in, and the same 19 digits on a later superedge line too:
    the same message and line."""
    lc = random_tiny_lc(Stream(77), 4, 4, 3, 3)
    text = write_lc_text(lc)
    lines = text.split("\n")
    e_lines = [i for i, line in enumerate(lines) if line.startswith("E ")]
    wide, too_long = list(lines), list(lines)
    wide[e_lines[-2]] += " 1"
    for i in e_lines[-2:]:
        too_long[i] = "E " + "9" * 19 + lines[i][lines[i].index(" ", 2):]
    cases = []
    for bad in (wide, too_long):
        expected = rejection(parse_lc_text, "\n".join(bad))
        assert expected.startswith(f"line {e_lines[-2] + 1}:")
        cases.append(("\n".join(bad), expected))
    small_blocks(monkeypatch, 1, 5)
    for bad, message in cases:
        assert rejection(parse_lc_text, bad) == message


@given(sparse_graphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_graph_and_subset_chunks_join_to_their_texts(g, data):
    """GRAPH and SUBSET chunks, rendered a few rows per block: after the
    header, each holds at most that many rows, and together they are the
    text.  The texts parse from their bytes as from the str."""
    members = data.draw(st.sets(st.integers(0, max(g.edge_count - 1, 0)),
                                max_size=g.edge_count))
    h = EdgeSubset(g, sorted(members))
    rows = data.draw(st.integers(1, 4))
    texts = [write_graph_text(g), write_subset_text(h)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_WRITE_ROWS", rows)
        chunks = [list(_graph_chunks(g)), list(_subset_chunks(h))]
    for text, (head, *body) in zip(texts, chunks):
        assert b"".join([head, *body]) == text.encode("ascii")
        assert head.count(b"\n") == 2
        assert all(0 < chunk.count(b"\n") <= rows for chunk in body)
    assert parse_graph_text(texts[0].encode("ascii")) == parse_graph_text(texts[0]) == g
    assert parse_subset_text(texts[1].encode("ascii"), g) == parse_subset_text(texts[1], g) == h


@given(lc_instances(), st.integers(1, 8))
@settings(max_examples=80, deadline=None)
def test_lc_chunks_join_to_the_text(lc, rows):
    """LC chunks with a few lines per run of superedges, for instances with
    no superedge, with repeated relations and with all relations distinct:
    after the header, each holds at most that many lines, or one superedge
    with a longer block, and together they are the text.  The text parses
    from its bytes as from the str, also with small groups of E lines and
    relation blocks, joined or gathered."""
    text = write_lc_text(lc)
    with pytest.MonkeyPatch.context() as mp:
        for module in (graphs, labelcover):
            mp.setattr(module, "_WRITE_ROWS", rows)
        head, *body = _lc_chunks(lc)
        assert b"".join([head, *body]) == text.encode("ascii")
        assert head.count(b"\n") == 2
        assert all(chunk.count(b"\n") <= rows or chunk.count(b"E") == 1 for chunk in body)
        mp.setattr(labelcover, "_GROUP_BYTES", rows)
        for gather_below in (0, 10**9):       # every group joined, then every one gathered
            mp.setattr(labelcover, "_GATHER_BELOW", gather_below)
            assert parse_lc_text(text.encode("ascii")) == parse_lc_text(text) == lc
