"""The block-wise text kernels at block sizes of a few rows or bytes.

``_WRITE_ROWS`` (rows per rendered block or LC chunk), ``_READ_BYTES``
(bytes per slice of a piece read in place) and ``graphs._GROUP_BYTES``
(bytes per group of pieces, such as E lines or distinct relation blocks,
copied together) are patched down so that every text below spans many
groups, and a group can be a single line, a single line break or the
second half of a ``\\r\\n``.  The texts must equal those written with the
real constants, parse back to the objects they were written from, and
report a fault in a later group with the message and line the real
constants give.  Tokens of 1 to 18 digits must decode to their values
through every parser.  The one row reader must read a body cut into
pieces as it reads the whole body.  The byte chunks that the pipeline
streams must join to the texts, and the texts must parse from their
bytes.
"""

import re
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from girthspan import graphs, labelcover
from girthspan.graphs import _graph_chunks, _int_rows, parse_graph_text, write_graph_text
from girthspan.labelcover import (Labeling, RepCover, _lc_body, _lc_chunks, labeling_to_repcover,
                                  parse_cover_text, parse_labeling_text, parse_lc_text,
                                  write_cover_text, write_labeling_text, write_lc_text)
from girthspan.rng import Stream
from girthspan.spanner import EdgeSubset, _subset_chunks, parse_subset_text, write_subset_text

from conftest import (lc_instances, make_graph, random_graph, random_tiny_lc, rejection,
                      sparse_graphs)

BLOCK_SIZES = [(1, 1), (2, 3), (3, 7), (5, 16)]     # (rows written, bytes read) per block


def small_blocks(monkeypatch, rows, size):
    for module in (graphs, labelcover):
        monkeypatch.setattr(module, "_WRITE_ROWS", rows)
        monkeypatch.setattr(module, "_READ_BYTES", size)
    monkeypatch.setattr(graphs, "_GROUP_BYTES", size)


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
    wide = make_graph(400_000, [(7, 99), (7, 399_999), (4000, 5000), (123_456, 200_000)])
    cases.append((write_graph_text, parse_graph_text, wide))
    for sides in [(2, 3, 3, 2), (4, 4, 12, 5)]:
        lc = random_tiny_lc(stream, *sides)
        lab = Labeling(tuple(stream.randbelow(lc.sigma_a) for _ in range(lc.a_count)),
                       tuple(stream.randbelow(lc.sigma_b) for _ in range(lc.b_count)))
        cases += [(write_lc_text, parse_lc_text, lc),
                  (write_cover_text, parse_cover_text, labeling_to_repcover(lc, lab)),
                  (write_labeling_text, lambda t, lc=lc: parse_labeling_text(t, lc), lab)]
    return cases


@cache
def written_artifacts():
    """(parser, object, text) for each of ``artifacts``."""
    return [(parse, obj, writer(obj)) for writer, parse, obj in artifacts()]


# Token lengths at which a token fills a word, spills into a second or a
# third, or has the most digits the policy allows.
WORD_EDGES = (1, 8, 9, 16, 17, 18)
token_lengths = st.one_of(st.sampled_from(WORD_EDGES), st.integers(1, 18))


@st.composite
def digit_tokens(draw):
    """A token of 1 to 18 digits, leading zeros included."""
    length = draw(token_lengths)
    return draw(st.text("0123456789", min_size=length, max_size=length))


HEAD_LINES = {"GRAPH v1": 2, "SUBSET v1": 2, "LC v1": 2, "COVER v1": 1, "LABEL v1": 1}


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_every_parser_reads_tokens_of_1_to_18_digits(data):
    """Every text of ``artifacts``, each body token written with leading
    zeros to 1 to 18 digits (8, 9, 16, 17 and 18 drawn often), parses to
    its object at small block sizes.  A block begins a line, so its first
    token starts within its first 8 bytes, and a tag (E, A, B) is a
    space away from the digits after it."""
    parse, obj, text = data.draw(st.sampled_from(written_artifacts()))
    lines = text.split("\n")
    head = HEAD_LINES[lines[0]]
    body = "\n".join(lines[head:])
    count = len(re.findall("[0-9]+", body))
    widths = iter(data.draw(st.lists(token_lengths, min_size=count, max_size=count)))
    body = re.sub("[0-9]+", lambda tok: tok.group().zfill(next(widths)), body)
    padded = "\n".join(lines[:head] + [body]).encode("ascii")
    with pytest.MonkeyPatch.context() as mp:
        small_blocks(mp, *data.draw(st.sampled_from(BLOCK_SIZES)))
        assert parse(padded) == obj


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_body_decoders_read_values_of_1_to_18_digits(data):
    """Values of up to 18 significant digits, where no artifact's bounds
    apply, at small block sizes: rows of two integers (the GRAPH and
    SUBSET body), COVER lines tagged A or B, and LC superedges with E
    lines and relation pairs, the body starting with an E line at offset
    0."""
    rows = data.draw(st.lists(st.tuples(st.sampled_from("AB"), digit_tokens(), digit_tokens()),
                              max_size=8))
    pairs = st.lists(st.tuples(digit_tokens(), digit_tokens()),
                     unique_by=lambda p: (int(p[0]), int(p[1])), max_size=4)
    superedges = data.draw(st.lists(st.tuples(digit_tokens(), digit_tokens(), pairs),
                                    min_size=1, max_size=6))
    untagged = "".join(f"{u} {v}\n" for _, u, v in rows).encode("ascii")
    cover = ("COVER v1\n" + "".join(f"{s} {u} {v}\n" for s, u, v in rows)).encode("ascii")
    lc = "".join(f"E {a} {b} {len(block)}\n" + "".join(
        f"{x} {y}\n" for x, y in sorted(block, key=lambda p: (int(p[0]), int(p[1]))))
        for a, b, block in superedges).encode("ascii")
    with pytest.MonkeyPatch.context() as mp:
        small_blocks(mp, *data.draw(st.sampled_from(BLOCK_SIZES)))
        (us, vs), tag = _int_rows(untagged, 0, "row", width=2)
        assert list(zip(us.tolist(), vs.tolist())) == [(int(u), int(v)) for _, u, v in rows]
        assert tag is None
        assert parse_cover_text(cover) == RepCover((s, int(u), int(v)) for s, u, v in rows)
        ea, eb, rel_ids, (start, alpha, beta) = _lc_body(lc, 0, len(superedges))
    read = [(a, b, list(zip(alpha[start[r]:start[r + 1]].tolist(),
                            beta[start[r]:start[r + 1]].tolist())))
            for a, b, r in zip(ea.tolist(), eb.tolist(), rel_ids.tolist())]
    assert read == sorted(((int(a), int(b), sorted((int(x), int(y)) for x, y in block))
                           for a, b, block in superedges), key=lambda e: e[:2])


@pytest.mark.parametrize("rows, size", BLOCK_SIZES)
def test_texts_round_trip_at_small_block_sizes(monkeypatch, rows, size):
    cases = [(writer, parse, obj, writer(obj)) for writer, parse, obj in artifacts()]
    small_blocks(monkeypatch, rows, size)
    for writer, parse, obj, text in cases:
        assert writer(obj) == text
        for brk in ["\n", "\r\n", "\r", "\f"]:
            assert parse(text.replace("\n", brk).encode("ascii")) == obj


def graph_text(rows):
    """A GRAPH v1 text of ``rows`` sorted edges over 10^6 vertices."""
    return write_graph_text(make_graph(10**6, [(i, 500_000 + i) for i in range(rows)]))


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
    g = make_graph(10**6, [(i, 500_000 + i) for i in range(40)])
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
    text, which parses from its bytes."""
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
    assert parse_graph_text(texts[0].encode("ascii")) == g
    assert parse_subset_text(texts[1].encode("ascii"), g) == h


@given(lc_instances(), st.integers(1, 8))
@settings(max_examples=80, deadline=None)
def test_lc_chunks_join_to_the_text(lc, rows):
    """LC chunks with a few lines per run of superedges, for instances with
    no superedge, with repeated relations and with all relations distinct:
    after the header, each holds at most that many lines, or one superedge
    with a longer block, and together they are the text.  The text parses
    from its bytes, also with small groups of E lines and relation blocks,
    joined or gathered."""
    text = write_lc_text(lc)
    with pytest.MonkeyPatch.context() as mp:
        for module in (graphs, labelcover):
            mp.setattr(module, "_WRITE_ROWS", rows)
        head, *body = _lc_chunks(lc)
        assert b"".join([head, *body]) == text.encode("ascii")
        assert head.count(b"\n") == 2
        assert all(chunk.count(b"\n") <= rows or chunk.count(b"E") == 1 for chunk in body)
        mp.setattr(graphs, "_GROUP_BYTES", rows)
        for gather_below in (0, 10**9):       # every group joined, then every one gathered
            mp.setattr(graphs, "_GATHER_BELOW", gather_below)
            assert parse_lc_text(text.encode("ascii")) == lc


@st.composite
def row_bodies(draw):
    """(body, tagged): lines of 0 to 3 tokens of 1 to 20 digits, which may
    open with the tag E when ``tagged``, with mixed blanks and line breaks.
    Rows of other than two integers and tokens over 18 digits are faults;
    half the bodies have none, their lines holding 0 or 2 tokens of up to
    18 digits."""
    tagged, clean = draw(st.booleans()), draw(st.booleans())
    counts = st.sampled_from([0, 2]) if clean else st.integers(0, 3)
    digits = st.text("0123456789", min_size=1, max_size=18 if clean else 20)
    body = ""
    for _ in range(draw(st.integers(0, 10))):
        count = draw(counts)
        tokens = draw(st.lists(digits, min_size=count, max_size=count))
        blanks = [draw(st.sampled_from([" ", "\t", "  "])) for _ in tokens]
        body += "E " if tagged and tokens and draw(st.booleans()) else ""
        body += "".join(b + tok for b, tok in zip(blanks, tokens))
        body += draw(st.sampled_from(["\n", "\r\n", "\r", "\v", "\f", "\n\n"]))
    return body.encode("ascii"), tagged


def read_rows(raw, pieces, tagged):
    """What ``_read_rows`` finds in the ``pieces`` of ``raw``, (lo, hi)
    pairs, for rows of two integers: the rows of each piece, the longest
    token, the first row of another width, the tags, the rows its ``keep``
    took (None after a fault), and each row's ``_row_offset``."""
    lo, hi = [a for a, _ in pieces], [b for _, b in pieces]
    taken = []

    def keep(r, values):
        assert r == len(taken)
        taken.extend(map(tuple, values.tolist()))
        return True
    rows, longest, wrong, tags, kept = graphs._read_rows(raw, lo, hi, 2, tagged, keep)
    assert kept == (wrong is None and longest[0] <= 18)
    offsets = [graphs._row_offset(raw, lo, hi, r) for r in range(int(rows.sum()))]
    return (rows.tolist(), longest, wrong, None if tags is None else tags.tolist(),
            taken if kept else None, offsets)


def joined(readings, tagged):
    """``read_rows`` of several pieces, from its readings of each alone."""
    most = max((reading[1][0] for reading in readings), default=0)
    longest = next((reading[1] for reading in readings if reading[1][0] == most), (0, None))
    wrong = next((reading[2] for reading in readings if reading[2] is not None), None)
    kept = wrong is None and most <= 18
    return (sum((reading[0] for reading in readings), []), longest, wrong,
            sum((reading[3] for reading in readings), []) if tagged else None,
            sum((reading[4] for reading in readings), []) if kept else None,
            sum((reading[5] for reading in readings), []))


@given(row_bodies(), st.data())
@settings(max_examples=200, deadline=None)
def test_row_reader_reads_line_aligned_pieces_as_the_whole_body(body, data):
    """The body cut into random pieces, each just after a line break byte,
    and read a few bytes a group, gathered or joined, gives the rows of
    each piece, and the longest token, the first row of another width, the
    tags, the decoded rows and the row offsets that the body read as one
    piece gives.  Any subset of the pieces, read together, gives what each
    piece read alone gives."""
    raw, tagged = body
    graphs._check_body(raw, 0, "E" if tagged else "")
    breaks = [brk.end() for brk in re.finditer(rb"[\n\r\v\f]", raw)]
    cuts = sorted(data.draw(st.sets(st.sampled_from(breaks)))) if breaks else []
    pieces = list(zip([0] + cuts, cuts + [len(raw)]))
    chosen = [piece for piece in pieces if data.draw(st.booleans())]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_READ_BYTES", data.draw(st.integers(1, 16)))
        mp.setattr(graphs, "_GROUP_BYTES", data.draw(st.integers(1, 40)))
        mp.setattr(graphs, "_GATHER_BELOW", data.draw(st.sampled_from([0, 10**9])))
        rows, *found = read_rows(raw, pieces, tagged)
        whole_rows, *whole = read_rows(raw, [(0, len(raw))], tagged)
        alone = [read_rows(raw, [piece], tagged) for piece in pieces]
        some = read_rows(raw, chosen, tagged)
    assert sum(rows) == whole_rows[0] and found == whole
    assert rows == [reading[0][0] for reading in alone]
    assert some == joined([reading for piece, reading in zip(pieces, alone) if piece in chosen],
                          tagged)
