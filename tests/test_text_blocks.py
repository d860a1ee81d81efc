"""The block-wise text kernels at block sizes of a few rows or bytes.

``graphs._WRITE_ROWS`` (rows per rendered block) and ``_READ_BYTES`` (bytes
per tokenized block; ``labelcover`` groups E lines by it too) are patched
down so that every text below spans many blocks, and a block can be a
single line, a single line break or the second half of a ``\\r\\n``.  The
texts must equal those written with the real constants, parse back to the
objects they were written from, and report a fault in a later block with
the message and line the real constants give.
"""

import re

import numpy as np
import pytest

from girthspan import graphs, labelcover
from girthspan.errors import InputError
from girthspan.graphs import Graph, parse_graph_text, write_graph_text
from girthspan.labelcover import (Labeling, labeling_to_repcover, parse_cover_text,
                                  parse_labeling_text, parse_lc_text, write_cover_text,
                                  write_labeling_text, write_lc_text)
from girthspan.rng import Stream
from girthspan.spanner import EdgeSubset, parse_subset_text, write_subset_text

from conftest import random_graph, random_tiny_lc

BLOCK_SIZES = [(1, 1), (2, 3), (3, 7), (5, 16)]     # (rows written, bytes read) per block


def small_blocks(monkeypatch, rows, size):
    monkeypatch.setattr(graphs, "_WRITE_ROWS", rows)
    monkeypatch.setattr(graphs, "_READ_BYTES", size)
    monkeypatch.setattr(labelcover, "_READ_BYTES", size)


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
        with pytest.raises(InputError, match=re.escape(message)) as expected:
            parse(text)
        cases.append((parse, text, str(expected.value)))
    small_blocks(monkeypatch, rows, size)
    for parse, text, message in cases:
        for brk in ["\n", "\r\n"]:
            with pytest.raises(InputError) as got:
                parse(text.replace("\n", brk))
            assert str(got.value) == message


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
        with pytest.raises(InputError) as expected:
            parse_lc_text("\n".join(bad))
        assert str(expected.value).startswith(f"line {e_lines[-2] + 1}:")
        cases.append(("\n".join(bad), str(expected.value)))
    small_blocks(monkeypatch, 1, 5)
    for bad, message in cases:
        with pytest.raises(InputError) as got:
            parse_lc_text(bad)
        assert str(got.value) == message
