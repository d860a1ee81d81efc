import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from girthspan.errors import InputError
from girthspan.graphs import INFINITY, is_bipartite
from girthspan.labelcover import (LabelCoverInstance, Labeling, RepCover, labeling_to_repcover,
                                  minrep_expand, parse_cover_text,
                                  parse_labeling_text, parse_lc_text,
                                  repcover_valid, satisfied_count, supergirth,
                                  supergraph, value, write_cover_text,
                                  write_labeling_text, write_lc_text)
from girthspan import constructions as cons
from girthspan.rng import Stream

from conftest import (check_mutant, make_lc, narrowed_spelling, random_tiny_lc, text_mutants,
                      xor_odd_4cycle)


def test_value_single_superedge_all_pairs():
    lc = make_lc(1, 1, 2, 2, [(0, 0, [(0, 0), (0, 1), (1, 0), (1, 1)])])
    assert value(lc, Labeling((1,), (0,))) == 1


def test_value_xor_odd_cycle_hand_count(xor_lc):
    assert value(xor_lc, Labeling((0, 0), (0, 0))) == Fraction(3, 4)


def test_value_planted_instance():
    f = cons.gen_3sat5(6, seed=3, planted=(True,) * 6)
    lc = cons.lc_from_3sat5(f)
    lab = cons.labeling_from_assignment(f, (True,) * 6)
    assert value(lc, lab) == 1


def test_value_empty_instance_is_one():
    lc = make_lc(2, 2, 2, 2, [(0, 0, [(0, 0)])]).restrict_edges([])
    assert value(lc, Labeling((0, 0), (0, 0))) == 1


def test_value_shape_mismatch():
    lc = xor_odd_4cycle()
    with pytest.raises(InputError):
        value(lc, Labeling((0,), (0, 0)))
    with pytest.raises(InputError):
        value(lc, Labeling((0, 5), (0, 0)))


def test_value_invariant_under_edge_input_order(xor_lc):
    eq = [(0, 0), (1, 1)]
    neq = [(0, 1), (1, 0)]
    shuffled = make_lc(2, 2, 2, 2, [
        (1, 1, neq), (0, 1, eq), (1, 0, eq), (0, 0, eq)])
    lab = Labeling((0, 1), (0, 0))
    assert value(shuffled, lab) == value(xor_lc, lab)
    assert shuffled == xor_lc


def test_supergraph_single_edge():
    lc = make_lc(1, 1, 1, 1, [(0, 0, [(0, 0)])])
    g = supergraph(lc)
    assert g.vertex_count == 2 and g.edge_count == 1


def test_supergraph_of_3sat5_shape():
    lc = cons.lc_from_3sat5(cons.gen_3sat5(3, seed=1))
    g = supergraph(lc)
    ok, _ = is_bipartite(g)
    assert ok
    degs = g.degrees()
    assert set(degs[:lc.a_count].tolist()) == {3}
    assert set(degs[lc.a_count:].tolist()) == {5}
    # superedge id i corresponds to supergraph edge id i
    for e in range(lc.edge_count):
        a, b = lc.edge(e)
        assert g.edge(e) == (a, lc.a_count + b)


def test_supergraph_of_regularized_instance_is_15_regular():
    lc = cons.regularize(cons.lc_from_3sat5(cons.gen_3sat5(3, seed=1)))
    degs = supergraph(lc).degrees()
    assert set(degs.tolist()) == {15}


def test_supergirth_examples(xor_lc):
    single = make_lc(1, 1, 1, 1, [(0, 0, [(0, 0)])])
    assert supergirth(single) == INFINITY
    complete22 = make_lc(2, 2, 1, 1, [(a, b, [(0, 0)]) for a in (0, 1) for b in (0, 1)])
    assert supergirth(complete22) == 4
    assert supergirth(xor_lc) == 4


def test_minrep_expand_vertex_count_formula():
    lc = make_lc(2, 2, 3, 2, [(0, 0, [(0, 0)]), (1, 1, [(2, 1)])])
    mr = minrep_expand(lc)
    assert mr.vertex_count == 2 * 3 + 2 * 2 == 10


def test_minrep_expand_edge_counts():
    pairs = [(0, 0), (0, 1), (1, 1)]
    lc = make_lc(1, 1, 2, 2, [(0, 0, pairs)])
    assert minrep_expand(lc).minrep_graph.edge_count == len(pairs)
    sat_lc = cons.lc_from_3sat5(cons.gen_3sat5(3, seed=5))
    mr = minrep_expand(sat_lc)
    assert mr.minrep_graph.edge_count == 7 * sat_lc.edge_count


def test_minrep_edge_count_equals_total_relation_size():
    lc = random_tiny_lc(Stream(11), 3, 3, 3, 2)
    total = sum(len(lc.relation(e)) for e in range(lc.edge_count))
    assert minrep_expand(lc).minrep_graph.edge_count == total


def test_minrep_vertex_round_trip():
    lc = make_lc(2, 3, 3, 2, [(0, 0, [(0, 0)])])
    mr = minrep_expand(lc)
    for i in range(2):
        for a in range(3):
            assert mr.vertex_label(mr.a_vertex(i, a)) == ("A", i, a)
    for j in range(3):
        for b in range(2):
            assert mr.vertex_label(mr.b_vertex(j, b)) == ("B", j, b)


def test_repcover_empty_invalid(xor_lc):
    mr = minrep_expand(xor_lc)
    ok, witness = repcover_valid(mr, RepCover.of([]))
    assert not ok and witness == 0


def test_repcover_from_value_one_labeling():
    f = cons.gen_3sat5(3, seed=2, planted=(False, True, False))
    lc = cons.lc_from_3sat5(f)
    lab = cons.labeling_from_assignment(f, (False, True, False))
    cover = labeling_to_repcover(lc, lab)
    assert len(cover) == lc.a_count + lc.b_count
    ok, _ = repcover_valid(minrep_expand(lc), cover)
    assert ok


def test_repcover_five_member_cover_on_xor_cycle(xor_lc):
    mr = minrep_expand(xor_lc)
    cover = RepCover.of([("A", 0, 0), ("A", 1, 0), ("A", 1, 1),
                         ("B", 0, 0), ("B", 1, 0)])
    ok, _ = repcover_valid(mr, cover)
    assert ok


def test_labeling_to_repcover_matches_value(xor_lc):
    mr = minrep_expand(xor_lc)
    stream = Stream(8)
    for _ in range(20):
        lab = Labeling(tuple(stream.randbelow(2) for _ in range(2)),
                       tuple(stream.randbelow(2) for _ in range(2)))
        cover = labeling_to_repcover(xor_lc, lab)
        ok, witness = repcover_valid(mr, cover)
        assert ok == (value(xor_lc, lab) == 1)
        if not ok:
            a, b = xor_lc.edge(witness)
            rel = xor_lc.relation(witness)
            assert not rel.contains(lab.gamma_a[a], lab.gamma_b[b])


def test_valid_cover_has_member_per_nonisolated_supervertex():
    lc = random_tiny_lc(Stream(21), 3, 3, 2, 2)
    mr = minrep_expand(lc)
    deg_a, deg_b = lc.degrees_a(), lc.degrees_b()
    cover = RepCover.of(
        [("A", i, 0) for i in range(3)] + [("A", i, 1) for i in range(3)]
        + [("B", j, 0) for j in range(3)] + [("B", j, 1) for j in range(3)])
    ok, _ = repcover_valid(mr, cover)
    assert ok
    nonisolated = int((deg_a > 0).sum() + (deg_b > 0).sum())
    assert len(cover) >= nonisolated


def test_relations_must_be_nonempty():
    with pytest.raises(InputError):
        make_lc(1, 1, 2, 2, [(0, 0, [])])


def test_duplicate_superedges_rejected():
    with pytest.raises(InputError):
        make_lc(2, 2, 2, 2, [(0, 0, [(0, 0)]), (0, 0, [(1, 1)])])


def test_lc_text_round_trip(xor_lc):
    text = write_lc_text(xor_lc)
    assert text.startswith("LC v1\nA 2 B 2 SA 2 SB 2 M 4\n")
    assert parse_lc_text(text) == xor_lc


def test_lc_text_rejections():
    with pytest.raises(InputError):
        parse_lc_text("LC v2\n")
    with pytest.raises(InputError):
        parse_lc_text("LC v1\nA 1 B 1 SA 2 SB 2 M 1\nE 0 0 2\n1 1\n0 0\n")  # unsorted pairs
    with pytest.raises(InputError):
        parse_lc_text("LC v1\nA 1 B 1 SA 2 SB 2 M 1\nE 0 0 1\n0 0\nextra\n")
    for body in ["E 0 0 1\n0 0\n1 1\n",     # a block longer than declared
                 "E 0 0 0\n",                # an empty block
                 "0 0\nE 0 0 1\n0 0\n"]:     # a pair line before the first superedge line
        with pytest.raises(InputError):
            parse_lc_text("LC v1\nA 1 B 1 SA 2 SB 2 M 1\n" + body)
    for text in ["LC v1\nA 1 B 1 SA 2 SB 2 M 0\n0 0\n",    # pair lines and no superedge
                 "LC v1\nA 1 B 1 SA 0 SB 2 M 0\n"]:          # an empty alphabet
        with pytest.raises(InputError):
            parse_lc_text(text)
    for text in ["LC v1\nA 1 B 2 SA 2 SB 2 M 2\nE 0 0 0\nE 0 1 0\n",   # only empty blocks
                 "LC v1\nA 1 B 2 SA 2 SB 2 M 2\nE 0 0 0\nE 0 1 1\n0 0\n"]:
        with pytest.raises(InputError, match="relations must be nonempty"):
            parse_lc_text(text)


def test_cover_text_round_trip():
    cover = RepCover.of([("B", 1, 0), ("A", 0, 1)])
    parsed = parse_cover_text(write_cover_text(cover))
    assert parsed == cover
    with pytest.raises(InputError):
        parse_cover_text("COVER v1\nC 0 0\n")


def test_labeling_text_round_trip(xor_lc):
    lab = Labeling((1, 0), (0, 1))
    parsed = parse_labeling_text(write_labeling_text(lab), xor_lc)
    assert parsed == lab
    with pytest.raises(InputError):
        parse_labeling_text("LABEL v1\nA 0 0\nA 0 1\n", xor_lc)   # labeled twice
    with pytest.raises(InputError):
        parse_labeling_text("LABEL v1\nA 0 0\nA 1 0\nB 0 0\n", xor_lc)  # missing b1


# --- the per-line writer and per-token int() parsers, kept as references ---

LC_HEAD_1x1 = "LC v1\nA 1 B 1 SA 4 SB 4 M 1\n"


def write_lc_text_per_line(lc):
    out = ["LC v1",
           f"A {lc.a_count} B {lc.b_count} SA {lc.sigma_a} SB {lc.sigma_b} M {lc.edge_count}"]
    for e in range(lc.edge_count):
        a, b = lc.edge(e)
        rel = lc.relation(e)
        out.append(f"E {a} {b} {len(rel)}")
        out.extend(f"{alpha} {beta}" for alpha, beta in rel.pairs)
    return "\n".join(out) + "\n"


def parse_lc_text_per_line(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "LC v1":
        raise InputError("missing LC v1 header")
    toks = lines[1].split() if len(lines) > 1 else []
    if len(toks) != 10 or toks[0::2] != ["A", "B", "SA", "SB", "M"]:
        raise InputError("bad LC size line")
    a_count, b_count, sigma_a, sigma_b, m = (int(t) for t in toks[1::2])
    superedges = []
    pos = 2
    for _ in range(m):
        if pos >= len(lines) or not lines[pos].startswith("E "):
            raise InputError("expected superedge line")
        parts = lines[pos].split()
        if len(parts) != 4:
            raise InputError(f"bad superedge line: {lines[pos]!r}")
        a, b, t = int(parts[1]), int(parts[2]), int(parts[3])
        pos += 1
        pairs = []
        prev = None
        for _ in range(t):
            if pos >= len(lines):
                raise InputError("truncated relation block")
            ab = lines[pos].split()
            if len(ab) != 2:
                raise InputError(f"bad relation pair line: {lines[pos]!r}")
            pair = (int(ab[0]), int(ab[1]))
            if prev is not None and pair <= prev:
                raise InputError("relation pairs must be sorted and distinct")
            prev = pair
            pairs.append(pair)
            pos += 1
        superedges.append((a, b, pairs))
    if pos != len(lines):
        raise InputError("trailing content after superedges")
    return LabelCoverInstance(a_count, b_count, sigma_a, sigma_b, superedges)


def parse_cover_text_per_line(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "COVER v1":
        raise InputError("missing COVER v1 header")
    members = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != 3 or toks[0] not in ("A", "B"):
            raise InputError(f"bad cover line: {ln!r}")
        members.append((toks[0], int(toks[1]), int(toks[2])))
    return RepCover.of(members)


def parse_labeling_text_per_line(text, lc):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "LABEL v1":
        raise InputError("missing LABEL v1 header")
    ga, gb = {}, {}
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != 3 or toks[0] not in ("A", "B"):
            raise InputError(f"bad labeling line: {ln!r}")
        side, i, s = toks[0], int(toks[1]), int(toks[2])
        target = ga if side == "A" else gb
        if i in target:
            raise InputError(f"vertex labeled twice: {ln!r}")
        target[i] = s
    if sorted(ga) != list(range(lc.a_count)) or sorted(gb) != list(range(lc.b_count)):
        raise InputError("labeling must cover every vertex exactly once")
    lab = Labeling(tuple(ga[i] for i in range(lc.a_count)),
                   tuple(gb[j] for j in range(lc.b_count)))
    lab.check_shape(lc)
    return lab


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


@given(lc_instances())
@settings(max_examples=60, deadline=None)
def test_lc_text_equals_per_line_reference(lc):
    text = write_lc_text(lc)
    assert text == write_lc_text_per_line(lc)
    parsed = parse_lc_text(text)
    assert parsed == lc == parse_lc_text_per_line(text)
    # one Relation per distinct pair block
    assert len(parsed.relations) == len({lc.relation(e) for e in range(lc.edge_count)})


def tag_narrowed(text):
    """The token policy's narrowings, or a COVER/LABEL line whose tag has a
    blank before it or a tab after it."""
    return narrowed_spelling(text) or any(re.match(r"[ \t]+[AB]|[AB]\t", ln)
                                          for ln in text.splitlines())


def test_lc_cover_label_parsers_match_per_line_reference_on_mutants():
    """The parsers accept exactly what the per-token int() parsers accepted,
    with equal results, except the spellings the token policy narrows."""
    stream = Stream(404)
    seen = {}
    lcs = [xor_odd_4cycle()] + [random_tiny_lc(stream, 2, 3, 3, 2) for _ in range(3)]
    for lc in lcs:
        lab = Labeling(tuple(stream.randbelow(lc.sigma_a) for _ in range(lc.a_count)),
                       tuple(stream.randbelow(lc.sigma_b) for _ in range(lc.b_count)))
        cover = labeling_to_repcover(lc, lab)
        cases = [(parse_lc_text, parse_lc_text_per_line, write_lc_text(lc)),
                 (parse_cover_text, parse_cover_text_per_line, write_cover_text(cover)),
                 (lambda t, lc=lc: parse_labeling_text(t, lc),
                  lambda t, lc=lc: parse_labeling_text_per_line(t, lc),
                  write_labeling_text(lab))]
        for parse, reference, base in cases:
            assert parse(base) == reference(base)
            for text in text_mutants(base, stream, 250):
                case = check_mutant(parse, reference, text, narrowed=tag_narrowed)
                seen[case] = seen.get(case, 0) + 1
    assert {"accepted", "rejected"} <= seen.keys(), seen
    narrowed = LC_HEAD_1x1 + "E 0 0 1\n0 \u0663\n"    # an Arabic-Indic digit
    assert parse_lc_text_per_line(narrowed).edge_count == 1
    with pytest.raises(InputError, match="line 4"):
        parse_lc_text(narrowed)


@pytest.mark.parametrize("kind, text, line", [
    ("cover", "COVER v1\nA\t0 1\n", 2),                     # a tab after a line tag
    ("cover", "COVER v1\nA 0 1\n  B 1 0\n", 3),             # a blank before a line tag
    ("cover", "COVER v1\x1cA 0 1\n", 1),                    # \x1c-\x1e end a str line
    ("lc", LC_HEAD_1x1 + "E 0 0 1\n0\x1f1\n", 4),           # \x1f is str whitespace
    ("lc", LC_HEAD_1x1 + "E 0 0 1\x850 1\n", 3),            # \x85 ends a str line
    ("label", "LABEL v1\nA 0 0\u2028A 1 1\nB 0 0\nB 1 1\n", 2),   # so does U+2028
])
def test_narrowed_spellings_name_their_line(kind, text, line):
    """Spellings the per-token parsers accepted and the token policy rejects."""
    lc = xor_odd_4cycle()
    parse, reference = {
        "lc": (parse_lc_text, parse_lc_text_per_line),
        "cover": (parse_cover_text, parse_cover_text_per_line),
        "label": (lambda t: parse_labeling_text(t, lc),
                  lambda t: parse_labeling_text_per_line(t, lc))}[kind]
    assert reference(text) is not None
    with pytest.raises(InputError, match=f"line {line}:"):
        parse(text)


LC_HEAD_1x3 = "LC v1\nA 1 B 3 SA 3 SB 2 M 3\n"

BAD_LINE_CASES = [
    ("LC v1\nA 1 B 1 SA 2 SB 2 M 2\nE 0 0 1\n0 0\nE 0 1 1\n0 x\n", "line 6: 'x'"),
    ("LC v1\nA 1 B 2 SA 2 SB 2 M 2\nE 0 0 2\n\n0 0\n1 1\nE 0 1 2\n0 0\n1 1x\n",
     "line 9: '1x'"),                                      # after a blank line
    ("LC v1\nA 1 B 2 SA 2 SB 2 M 2\nE 0 0 1\n0 0\nE 0 1 2\n0 0\n",
     "line 5: relation block truncated"),
    # a block repeated three times, with a fault in each occurrence: the
    # first occurrence is named
    (LC_HEAD_1x3 + "E 0 0 2\n0 0\n1 1 1\nE 0 1 2\n0 0\n1 1 1\nE 0 2 2\n0 0\n1 1 1\n",
     "line 5: expected 2 integers on a relation pair line"),
    (LC_HEAD_1x3 + "E 0 0 2\n1 1\n0 0\nE 0 1 2\n1 1\n0 0\nE 0 2 2\n1 1\n0 0\n",
     "line 5: relation pairs must be sorted and distinct"),
    (LC_HEAD_1x3 + "E 0 0 1\n0 0\nE 0 1 1\n0 0\nE 0 2 1\n0 1234567890123456789\n",
     "line 8: '1234567890123456789'"),
    # a block one byte away from two earlier, valid ones
    (LC_HEAD_1x3 + "E 0 0 2\n0 0\n1 1\nE 0 1 2\n0 0\n1 1\nE 0 2 2\n2 0\n1 1\n",
     "line 11: relation pairs must be sorted and distinct"),
    (LC_HEAD_1x3 + "E 0 0 2\n0 0\n1 1\nE 0 1 2\n0 0\n111\nE 0 2 2\n0 0\n1 1\n",
     "line 8: expected 2 integers on a relation pair line"),
    (LC_HEAD_1x3 + "E 0 0 2\n0 0\n1 1\nE 0 1 2 2\n0 0\n1 1\nE 0 2 2\n0 0\n1 1\n",
     "line 6: expected 3 integers on a superedge line"),
    # a tag that does not open its line, and tokens before the first E line
    (LC_HEAD_1x3 + "E 0 0 1\n0 0E 0 1 1\n1 1\n", "line 4: '0E' is a tag"),
    (LC_HEAD_1x3.replace("M 3", "M 1") + "\n0 0\nE 0 0 1\n0 0\n",
     "line 4: relation pair line outside"),
    # the last line has no line break
    (LC_HEAD_1x3.replace("M 3", "M 2") + "E 0 0 1\n0 0\nE 0 1 2\n1 1\n0 1",
     "line 7: relation pairs must be"),
    (LC_HEAD_1x3 + "E 0 0 1\n0 0\nE 0 1 1\n1 1\nE 0 2", "line 7: expected 3 integers"),
]


def test_lc_parser_names_the_bad_line():
    """Every case with each of \\n, \\r\\n and \\r as its line breaks; a \\r\\n
    ends one line."""
    for newline in ["\n", "\r\n", "\r"]:
        for text, message in BAD_LINE_CASES:
            with pytest.raises(InputError, match=re.escape(message)):
                parse_lc_text(text.replace("\n", newline))
        with pytest.raises(InputError, match="line 3"):
            parse_labeling_text("LABEL v1\nA 0 0\nA 1 _1\n".replace("\n", newline),
                                xor_odd_4cycle())


@pytest.mark.parametrize("brk", ["\r\n", "\r", "\v", "\f"])
def test_lc_e_lines_may_end_in_any_line_break(brk):
    lc = make_lc(2, 2, 3, 2, [(0, 0, [(0, 0), (1, 1)]), (0, 1, [(2, 0)]),
                              (1, 0, [(0, 0), (1, 1)]), (1, 1, [(0, 0), (1, 1)])])
    text = write_lc_text(lc)
    head, body = text[:text.index("E")], text[text.index("E"):]
    body = re.sub(r"(E [^\n]*)\n", lambda e: e.group(1) + brk, body)
    assert parse_lc_text(head + body) == lc
    assert parse_lc_text(text.rstrip("\n")) == lc                  # no final line break
    bad = head + body.replace("E 1 1 2" + brk + "0 0", "E 1 1 2" + brk + "1 1 1")
    with pytest.raises(InputError, match="line 12: expected 2 integers"):
        parse_lc_text(bad)


def test_lc_tokens_may_have_leading_zeros_and_any_blank():
    lc = make_lc(2, 2, 3, 2, [(0, 0, [(0, 0), (1, 1)]), (0, 1, [(2, 0)]),
                              (1, 0, [(0, 0), (1, 1)]), (1, 1, [(0, 0), (1, 1)])])
    text = write_lc_text(lc)
    head, body = text[:text.index("E")], text[text.index("E"):]
    body = re.sub(r"\d+", lambda t: "0" * 16 + t.group(0), body)
    body = re.sub(r"(?<=\d) ", "\t \t", body).replace("\n", "\n\v\n")
    assert parse_lc_text(head + body) == lc


@pytest.mark.parametrize("field, header", [
    ("A", "A 100000000000000000 B 1 SA 1 SB 1"),
    ("B", "A 1 B 100000000000000000 SA 1 SB 1"),
    ("A*SA + B*SB", "A 1 B 1 SA 100000000000000000 SB 1"),
])
def test_lc_header_sizes_are_checked_before_use(field, header):
    with pytest.raises(InputError, match=re.escape(f"line 2: {field} = 1000000000000000")):
        parse_lc_text(f"LC v1\n{header} M 0\n")


@given(lc_instances(), st.data())
@settings(max_examples=80, deadline=None)
def test_lc_equality_equals_per_superedge_comparison(lc, data):
    """Equality compares each distinct pairing of relation ids once; it
    agrees with comparing superedge by superedge, whatever the tables."""
    edges = [(*lc.edge(e), lc.relation(e).pairs) for e in range(lc.edge_count)]
    if edges and data.draw(st.booleans()):
        e = data.draw(st.integers(0, len(edges) - 1))
        donor = edges[data.draw(st.integers(0, len(edges) - 1))][2]
        pairs = data.draw(st.sampled_from([donor, edges[e][2][:1], ((0, 0),)]))
        edges[e] = (edges[e][0], edges[e][1], pairs)
    other = make_lc(lc.a_count, lc.b_count, lc.sigma_a, lc.sigma_b,
                    data.draw(st.permutations(edges)))
    expected = all(lc.relation(e) == other.relation(e) for e in range(lc.edge_count))
    assert (lc == other) == expected == (other == lc)
    ea, eb, rel_ids = lc.edge_arrays()
    twin = LabelCoverInstance.from_arrays(       # every relation twice in its table
        lc.a_count, lc.b_count, lc.sigma_a, lc.sigma_b, ea, eb,
        rel_ids + len(lc.relations) * (np.arange(ea.size) % 2), lc.relations * 2)
    assert twin == lc == twin


def test_satisfied_count_matches_value(xor_lc):
    lab = Labeling((0, 1), (0, 1))
    assert value(xor_lc, lab) == Fraction(satisfied_count(xor_lc, lab), 4)
