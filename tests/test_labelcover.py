import re
import tracemalloc
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from girthspan.errors import InputError
from girthspan.graphs import INFINITY, girth
from girthspan.labelcover import (LabelCoverInstance, Labeling, RepCover, _satisfied_mask,
                                  labeling_to_repcover,
                                  distinct_relations, minrep_expand, parse_cover_text,
                                  parse_labeling_text, parse_lc_text,
                                  repcover_valid, satisfied_count,
                                  supergraph, value, write_cover_text,
                                  write_labeling_text, write_lc_text)
from girthspan import constructions as cons
from girthspan import labelcover, pipeline
from girthspan.graphs import _is_break
from girthspan.labelcover import _first_breaks, _lc_chunks, _relation_slots
from girthspan.rng import Stream

from conftest import (check_mutant, degrees, is_bipartite, lc_instances, make_lc,
                      narrowed_spelling, parse_outcome, rejection, random_tiny_lc, text_mutants,
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
    degs = degrees(g)
    assert set(degs[:lc.a_count].tolist()) == {3}
    assert set(degs[lc.a_count:].tolist()) == {5}
    # superedge id i corresponds to supergraph edge id i
    for e in range(lc.edge_count):
        a, b = lc.edge(e)
        assert g.edge(e) == (a, lc.a_count + b)


def test_supergraph_of_regularized_instance_is_15_regular():
    lc = cons.regularize(cons.lc_from_3sat5(cons.gen_3sat5(3, seed=1)))
    degs = degrees(supergraph(lc))
    assert set(degs.tolist()) == {15}


def test_supergirth_examples(xor_lc):
    single = make_lc(1, 1, 1, 1, [(0, 0, [(0, 0)])])
    assert girth(supergraph(single)) == INFINITY
    complete22 = make_lc(2, 2, 1, 1, [(a, b, [(0, 0)]) for a in (0, 1) for b in (0, 1)])
    assert girth(supergraph(complete22)) == 4
    assert girth(supergraph(xor_lc)) == 4


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
    ok, witness = repcover_valid(mr, RepCover([]))
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
    cover = RepCover([("A", 0, 0), ("A", 1, 0), ("A", 1, 1),
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
            assert (lab.gamma_a[a], lab.gamma_b[b]) not in rel


def test_valid_cover_has_member_per_nonisolated_supervertex():
    lc = random_tiny_lc(Stream(21), 3, 3, 2, 2)
    mr = minrep_expand(lc)
    deg_a, deg_b = lc.degrees_a(), lc.degrees_b()
    cover = RepCover(
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
    assert parse_lc_text(text.encode("ascii")) == xor_lc


def test_lc_text_rejections():
    rejection(parse_lc_text, "LC v2\n")
    rejection(parse_lc_text, "LC v1\nA 1 B 1 SA 2 SB 2 M 1\nE 0 0 2\n1 1\n0 0\n")  # unsorted
    rejection(parse_lc_text, "LC v1\nA 1 B 1 SA 2 SB 2 M 1\nE 0 0 1\n0 0\nextra\n")
    for body in ["E 0 0 1\n0 0\n1 1\n",     # a block longer than declared
                 "E 0 0 0\n",                # an empty block
                 "0 0\nE 0 0 1\n0 0\n"]:     # a pair line before the first superedge line
        rejection(parse_lc_text, "LC v1\nA 1 B 1 SA 2 SB 2 M 1\n" + body)
    for text in ["LC v1\nA 1 B 1 SA 2 SB 2 M 0\n0 0\n",    # pair lines and no superedge
                 "LC v1\nA 1 B 1 SA 0 SB 2 M 0\n"]:          # an empty alphabet
        rejection(parse_lc_text, text)
    for text in ["LC v1\nA 1 B 2 SA 2 SB 2 M 2\nE 0 0 0\nE 0 1 0\n",   # only empty blocks
                 "LC v1\nA 1 B 2 SA 2 SB 2 M 2\nE 0 0 0\nE 0 1 1\n0 0\n"]:
        assert "relations must be nonempty" in rejection(parse_lc_text, text)


def test_cover_text_round_trip():
    cover = RepCover([("B", 1, 0), ("A", 0, 1)])
    assert cover == RepCover(iter([("A", np.int64(0), np.int32(1)), ("B", 1, 0)]))
    parsed = parse_cover_text(write_cover_text(cover).encode("ascii"))
    assert parsed == cover
    rejection(parse_cover_text, "COVER v1\nC 0 0\n")


member_ints = st.integers(0, 2**40)


@given(st.lists(st.tuples(st.sampled_from("AB"), member_ints, member_ints), max_size=40),
       st.lists(member_ints, max_size=20), st.lists(member_ints, max_size=20))
@settings(max_examples=200, deadline=None)
def test_cover_and_label_writers_match_the_per_line_spelling(members, gamma_a, gamma_b):
    """The tagged decimal rows spell COVER v1 and LABEL v1 as one f-string a
    line did, empty bodies included."""
    cover = RepCover(members)
    lines = ["COVER v1"] + [f"{s} {i} {y}" for s, i, y in cover.sorted_members()]
    assert write_cover_text(cover) == "\n".join(lines) + "\n"
    lines = (["LABEL v1"] + [f"A {i} {s}" for i, s in enumerate(gamma_a)]
             + [f"B {j} {s}" for j, s in enumerate(gamma_b)])
    assert write_labeling_text(Labeling(tuple(gamma_a), tuple(gamma_b))) == "\n".join(lines) + "\n"


def test_labeling_text_round_trip(xor_lc):
    lab = Labeling((1, 0), (0, 1))
    parsed = parse_labeling_text(write_labeling_text(lab).encode("ascii"), xor_lc)
    assert parsed == lab
    parse = partial(parse_labeling_text, lc=xor_lc)
    rejection(parse, "LABEL v1\nA 0 0\nA 0 1\n")             # labeled twice
    rejection(parse, "LABEL v1\nA 0 0\nA 1 0\nB 0 0\n")     # missing b1


# --- the per-line writer and per-token int() parsers, kept as references ---

LC_HEAD_1x1 = "LC v1\nA 1 B 1 SA 4 SB 4 M 1\n"


def write_lc_text_per_line(lc):
    out = ["LC v1",
           f"A {lc.a_count} B {lc.b_count} SA {lc.sigma_a} SB {lc.sigma_b} M {lc.edge_count}"]
    for e in range(lc.edge_count):
        a, b = lc.edge(e)
        rel = lc.relation(e)
        out.append(f"E {a} {b} {len(rel)}")
        out.extend(f"{alpha} {beta}" for alpha, beta in rel)
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
    return make_lc(a_count, b_count, sigma_a, sigma_b, superedges)


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
    return RepCover(members)


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


@given(lc_instances())
@settings(max_examples=60, deadline=None)
def test_lc_text_equals_per_line_reference(lc):
    text = write_lc_text(lc)
    assert text == write_lc_text_per_line(lc)
    parsed = parse_lc_text(text.encode("ascii"))
    assert parsed == lc == parse_lc_text_per_line(text)
    # one CSR row per distinct pair block
    distinct = len({lc.relation(e) for e in range(lc.edge_count)})
    assert parsed.relation_arrays()[0].size - 1 == distinct == distinct_relations(parsed)


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
            assert parse(base.encode("ascii")) == reference(base)
            for text in text_mutants(base, stream, 250):
                case = check_mutant(parse, reference, text, narrowed=tag_narrowed)
                seen[case] = seen.get(case, 0) + 1
    assert {"accepted", "rejected"} <= seen.keys(), seen
    narrowed = LC_HEAD_1x1 + "E 0 0 1\n0 \u0663\n"    # an Arabic-Indic digit
    assert parse_lc_text_per_line(narrowed).edge_count == 1
    assert "line 4" in rejection(parse_lc_text, narrowed)


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
    assert f"line {line}:" in rejection(parse, text)


LC_HEAD_1x3 = "LC v1\nA 1 B 3 SA 3 SB 2 M 3\n"
HUGE_COUNT = 10**18 - 1          # 18 digits, the most a token may hold

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
    # declared counts that no text of this size holds, one and in a sum
    # past the int64 range: nothing is sized from them
    (LC_HEAD_1x3.replace("M 3", "M 1") + f"E 0 0 {HUGE_COUNT}\n0 0\n",
     f"line 3: relation block truncated: {HUGE_COUNT} pair lines declared, 1 found"),
    ("LC v1\nA 1 B 10 SA 2 SB 10 M 10\n" + "".join(f"E 0 {b} {HUGE_COUNT}\n0 {b}\n"
                                                  for b in range(10)),
     f"line 3: relation block truncated: {HUGE_COUNT} pair lines declared, 1 found"),
]


def test_lc_parser_names_the_bad_line():
    """Every case with each of \\n, \\r\\n and \\r as its line breaks; a \\r\\n
    ends one line."""
    for newline in ["\n", "\r\n", "\r"]:
        for text, message in BAD_LINE_CASES:
            assert message in rejection(parse_lc_text, text.replace("\n", newline))
        assert "line 3" in rejection(partial(parse_labeling_text, lc=xor_odd_4cycle()),
                                     "LABEL v1\nA 0 0\nA 1 _1\n".replace("\n", newline))


@pytest.mark.parametrize("brk", ["\r\n", "\r", "\v", "\f"])
def test_lc_e_lines_may_end_in_any_line_break(brk):
    lc = make_lc(2, 2, 3, 2, [(0, 0, [(0, 0), (1, 1)]), (0, 1, [(2, 0)]),
                              (1, 0, [(0, 0), (1, 1)]), (1, 1, [(0, 0), (1, 1)])])
    text = write_lc_text(lc)
    head, body = text[:text.index("E")], text[text.index("E"):]
    body = re.sub(r"(E [^\n]*)\n", lambda e: e.group(1) + brk, body)
    assert parse_lc_text((head + body).encode("ascii")) == lc
    assert parse_lc_text(text.rstrip("\n").encode("ascii")) == lc  # no final line break
    bad = head + body.replace("E 1 1 2" + brk + "0 0", "E 1 1 2" + brk + "1 1 1")
    assert "line 12: expected 2 integers" in rejection(parse_lc_text, bad)


def test_lc_tokens_may_have_leading_zeros_and_any_blank():
    lc = make_lc(2, 2, 3, 2, [(0, 0, [(0, 0), (1, 1)]), (0, 1, [(2, 0)]),
                              (1, 0, [(0, 0), (1, 1)]), (1, 1, [(0, 0), (1, 1)])])
    text = write_lc_text(lc)
    head, body = text[:text.index("E")], text[text.index("E"):]
    body = re.sub(r"\d+", lambda t: "0" * 16 + t.group(0), body)
    body = re.sub(r"(?<=\d) ", "\t \t", body).replace("\n", "\n\v\n")
    assert parse_lc_text((head + body).encode("ascii")) == lc


LINE_BREAKS = ["\n", "\r\n", "\r", "\v", "\f"]
LONG_BLANKS = [" " * 100, "\t" * 120, " \t" * 70]


def widen_e_lines(text, blanks):
    """``text`` (``\\n`` line breaks) with every space of its E lines
    followed by ``blanks``, so that each E line is longer than the first
    window of the line end search."""
    return re.sub(r"(?m)^E .*$", lambda e: e.group(0).replace(" ", " " + blanks), text)


def test_lc_e_lines_longer_than_the_first_window_equal_per_line_reference(monkeypatch):
    """E lines of 100 or more blanks or tabs between fields, and of 18-digit
    tokens with leading zeros, under every line break: the parse equals the
    per-line reference's, with and without a final line break."""
    lc = make_lc(2, 3, 3, 2, [(0, 0, [(0, 0), (1, 1)]), (0, 2, [(2, 0)]),
                              (1, 0, [(0, 0), (1, 1)]), (1, 1, [(0, 0), (1, 1)])])
    text = write_lc_text(lc)
    head, body = text[:text.index("E")], text[text.index("E"):]
    padded = re.sub(r"(?m)^E .*$", lambda e: re.sub(r"\d+", lambda t: t.group(0).zfill(18),
                                                      e.group(0)), body)
    bodies = [widen_e_lines(body, blanks) for blanks in LONG_BLANKS] + [padded]
    windows = []
    monkeypatch.setattr(labelcover, "sliding_window_view",
                        lambda *args: windows.append(args[1]) or sliding_window_view(*args))
    for brk in LINE_BREAKS:
        for long_body in bodies:
            for tail in ["", "drop the final line break"]:
                t = (head + long_body).replace("\n", brk)
                t = t[:-len(brk)] if tail else t
                windows.clear()
                assert parse_lc_text(t.encode("ascii")) == parse_lc_text_per_line(t) == lc
                assert len(windows) > 1      # no E line ends in the first window


@pytest.mark.parametrize("brk", LINE_BREAKS)
def test_lc_e_line_followed_by_an_e_line_equals_per_line_reference(brk):
    """A superedge line straight after another, the first with an empty
    block or a block declared but missing, long or short: both parsers
    reject it."""
    for blanks in [""] + LONG_BLANKS:
        for body in ["E 0 0 0\nE 0 1 1\n0 0\n", "E 0 0 1\nE 0 1 1\n0 0\n",
                     "E 0 0 1\n0 0\nE 0 1 0\nE 0 2 1\n1 1"]:
            text = (LC_HEAD_1x3.replace("M 3", f"M {body.count('E')}")
                    + widen_e_lines(body, blanks)).replace("\n", brk)
            assert parse_outcome(parse_lc_text_per_line, text) is None
            rejection(parse_lc_text, text)


def test_lc_parser_names_the_bad_line_on_long_e_lines():
    """The cases of ``test_lc_parser_names_the_bad_line`` with E lines longer
    than the first window, under every line break: the same messages."""
    for brk in LINE_BREAKS:
        for blanks in LONG_BLANKS:
            for text, message in BAD_LINE_CASES:
                text = widen_e_lines(text, blanks).replace("\n", brk)
                assert message in rejection(parse_lc_text, text)


@st.composite
def tagged_bodies(draw):
    """Lines of digits and blanks, some opened by an E tag, of up to about
    500 bytes, each ended by any line break; the last one may have none.
    Short lines make the tags dense, and lengths near a power of two put
    the break at a window's edge."""
    text = ""
    for _ in range(draw(st.integers(1, 10))):
        length = st.one_of(st.integers(0, 3), st.integers(0, 250),
                           st.sampled_from([29, 30, 31, 32, 61, 62, 63, 64, 125, 126, 127, 128]))
        run = draw(st.sampled_from([" ", "\t", "7", "00"])) * draw(length)
        line = run + draw(st.text(" \t0123456789", max_size=12))
        text += ("E " if draw(st.booleans()) else "") + line
        text += draw(st.sampled_from(["\n", "\r\n", "\r", "\v", "\f", "\n\n"]))
    return text.rstrip("\n\r\v\f") if draw(st.booleans()) else text


@given(tagged_bodies())
@settings(max_examples=200, deadline=None)
def test_first_breaks_equal_per_tag_search_in_bounded_windows(text):
    """Each tag's first line break at or after it, as a per-tag search finds
    it, and no window matrix holds more bytes than the body."""
    raw = text.encode("ascii")
    body = np.frombuffer(raw, dtype=np.uint8)
    at = np.flatnonzero(body == ord("E"))
    found = [re.compile(rb"[\n\r\v\f]").search(raw, a) for a in at.tolist()]
    expected = [brk.start() if brk else len(raw) for brk in found]
    sizes = []

    def spy(windows):
        sizes.append(windows.size)
        return _is_break(windows)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(labelcover, "_is_break", spy)
        assert _first_breaks(body, at).tolist() == expected
    assert max(sizes, default=0) <= body.size


@pytest.mark.parametrize("brk", LINE_BREAKS)
def test_first_breaks_at_every_offset_of_the_first_windows(brk):
    """One tag whose line break lies at each offset up to 300, with text
    after it or none; and the same tag closing the body with no break."""
    for length in range(300):
        line = "E " + "0" * length
        for text in [line + brk + "1 1" * 20, "1 1" * 20 + brk + line]:
            raw = text.encode("ascii")
            body = np.frombuffer(raw, dtype=np.uint8)
            at = np.flatnonzero(body == ord("E"))
            brk_at = re.compile(rb"[\n\r\v\f]").search(raw, int(at[0]))
            assert _first_breaks(body, at).tolist() == [brk_at.start() if brk_at else len(raw)]


def repeated_lc():
    """The repeated instance of the ell=2 pipeline at seed 7: about 12 MB of
    LC text, with 64 distinct relation blocks."""
    formula = cons.gen_3sat5(3, 7)
    return cons.parallel_repetition(cons.regularize(cons.lc_from_3sat5(formula)), 2)


def traced_peak(fn, *args):
    """(result, peak traced bytes) of ``fn(*args)``."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lc_parse_of_bytes_peak_memory_is_bounded():
    """From its bytes, as the pipeline's audit reads it, the repeated
    instance parses below 0.7 times the text.  From a str, encoded on entry,
    it took 1.4 times; before the line end search started from the tags,
    4.27 times."""
    raw = write_lc_text(repeated_lc()).encode("ascii")
    lc, peak = traced_peak(parse_lc_text, raw)
    assert lc == repeated_lc()
    assert peak < 0.7 * len(raw)


def test_lc_stream_peak_memory_is_bounded(tmp_path):
    """Streaming the repeated instance's LC chunks to a file, as the
    pipeline writes its instances, peaks below 0.3 times the output: a run
    of superedges at a time.  ``write_lc_text`` took 2.5 times when it
    joined the pieces and decoded the whole text."""
    lc = repeated_lc()
    path = tmp_path / "repeated.lc"

    def stream():
        with open(path, "wb") as out:
            out.writelines(_lc_chunks(lc))

    _, peak = traced_peak(stream)
    assert path.stat().st_size > 12 * 10**6
    assert peak < 0.3 * path.stat().st_size
    assert parse_lc_text(path.read_bytes()) == lc


def distinct_blocks_lc():
    """An instance of 16,000 superedges whose relations are all distinct,
    8 random pairs each: about 0.9 MB of LC text."""
    rng = np.random.default_rng(7)
    lc = make_lc(160, 100, 100, 100, [(a, b, rng.integers(0, 100, size=(8, 2)).tolist())
                                      for a in range(160) for b in range(100)])
    assert distinct_relations(lc) == lc.edge_count == 16_000
    return lc


def test_lc_parse_of_distinct_blocks_peak_memory_is_bounded():
    """The all-distinct instance parses from its bytes below 3.99 times its
    size (3.92): the distinct blocks are tokenized a window at a time and
    their texts dropped once numbered.  The instance itself takes 2.8
    times, and the peak is set while the pairs are decoded into it, a
    group's token spans beside them (3.63 when a group was decoded from a
    copy of its bytes, without spans).
    Tokenized as one text, the blocks took 21.5 times."""
    lc = distinct_blocks_lc()
    raw = write_lc_text(lc).encode("ascii")
    parsed, peak = traced_peak(parse_lc_text, raw)
    assert parsed == lc
    assert peak < 3.99 * len(raw)


def test_lc_instance_checks_peak_memory_is_bounded():
    """The constructor's checks on the all-distinct instance's arrays,
    as the parse hands them over, rise below 0.2 times its text (0.18):
    the superedge and pair orders are checked a block of rows at a time.
    Whole-table temporaries took 0.71 times."""
    lc = distinct_blocks_lc()
    size = len(write_lc_text(lc))
    args = (lc.a_count, lc.b_count, lc.sigma_a, lc.sigma_b, *lc.edge_arrays(),
            lc.relation_arrays())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        made = LabelCoverInstance(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert made == lc
    assert peak - before < 0.2 * size


def test_lc_parse_of_padded_e_lines_peak_memory_is_bounded():
    """A regularized instance (vars=90) with 200 blanks after every E line
    space, over 4 MB of text, parses below 3 times the text's size: the
    line end search reads a bounded number of bytes at a time and the E
    lines are gathered in bounded groups.  With an int64 gather index per
    E line byte it took 16.4 times."""
    lc = cons.regularize(cons.lc_from_3sat5(cons.gen_3sat5(90, 7)))
    raw = widen_e_lines(write_lc_text(lc), " " * 200).encode("ascii")
    assert len(raw) > 4 * 10**6
    tracemalloc.start()
    try:
        parsed = parse_lc_text(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed == lc
    assert peak < 3 * len(raw)


@pytest.mark.parametrize("field, header", [
    ("A", "A 100000000000000000 B 1 SA 1 SB 1"),
    ("B", "A 1 B 100000000000000000 SA 1 SB 1"),
    ("A*SA + B*SB", "A 1 B 1 SA 100000000000000000 SB 1"),
])
def test_lc_header_sizes_are_checked_before_use(field, header):
    message = rejection(parse_lc_text, f"LC v1\n{header} M 0\n")
    assert f"line 2: {field} = 1000000000000000" in message


@given(lc_instances(), st.data())
@settings(max_examples=80, deadline=None)
def test_lc_equality_equals_per_superedge_comparison(lc, data):
    """Equality compares each distinct pairing of relation ids once; it
    agrees with comparing superedge by superedge, whatever the tables."""
    edges = [(*lc.edge(e), lc.relation(e)) for e in range(lc.edge_count)]
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
    start, alpha, beta = lc.relation_arrays()
    twin = LabelCoverInstance(       # every relation twice in its table
        lc.a_count, lc.b_count, lc.sigma_a, lc.sigma_b, ea, eb,
        rel_ids + (start.size - 1) * (np.arange(ea.size) % 2),
        (np.append(start, start[1:] + start[-1]), np.tile(alpha, 2), np.tile(beta, 2)))
    assert twin == lc == twin
    distinct = len({lc.relation(e) for e in range(lc.edge_count)})
    assert distinct_relations(twin) == distinct_relations(lc) == distinct


@given(lc_instances(), st.data())
@settings(max_examples=60, deadline=None)
def test_relation_pair_count_equals_the_slot_count(lc, data):
    """``instance_stats`` counts the relation pairs from the table offsets:
    as many as ``_relation_slots`` lists, on tables whose rows repeat (the
    pool draws) and on tables with rows no superedge uses (after
    ``restrict_edges``)."""
    keep = data.draw(st.lists(st.integers(0, lc.edge_count - 1), unique=True)
                     if lc.edge_count else st.just([]))
    for inst in (lc, lc.restrict_edges(keep)):
        count = pipeline.instance_stats(inst)["relation_pairs_total"]
        assert count == _relation_slots(inst)[1].size


def test_satisfied_count_matches_value(xor_lc):
    lab = Labeling((0, 1), (0, 1))
    assert value(xor_lc, lab) == Fraction(satisfied_count(xor_lc, lab), 4)


def repcover_valid_per_superedge(lc, cover):
    """The per-superedge loop over member sets that the admitted-pair kernel
    replaced: (True, None) or (False, first uncovered superedge id)."""
    sa = [set() for _ in range(lc.a_count)]
    sb = [set() for _ in range(lc.b_count)]
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
        a, b = lc.edge(e)
        if not any(alpha in sa[a] and beta in sb[b] for alpha, beta in lc.relation(e)):
            return False, e
    return True, None


def outcome(fn, *args):
    try:
        return fn(*args)
    except InputError as exc:
        return str(exc)


@given(lc_instances(), st.data())
@settings(max_examples=100, deadline=None)
def test_repcover_valid_equals_per_superedge_loop(lc, data):
    """Members come from the relation pairs of some superedges (so covers
    are often valid), plus a few drawn at random, some out of range or on
    no side."""
    members = []
    for e in range(lc.edge_count):
        if data.draw(st.integers(0, 4)):
            a, b = lc.edge(e)
            alpha, beta = data.draw(st.sampled_from(lc.relation(e)))
            members += [("A", a, alpha), ("B", b, beta)][:data.draw(st.integers(1, 2))]
    noise = st.tuples(st.sampled_from("AB" if data.draw(st.integers(0, 3)) else "ABC"),
                      st.integers(-1, 4), st.integers(-1, max(lc.sigma_a, lc.sigma_b)))
    members += data.draw(st.lists(noise, max_size=3))
    cover = RepCover(members)
    expected = outcome(repcover_valid_per_superedge, lc, cover)
    assert outcome(repcover_valid, minrep_expand(lc), cover) == expected


@given(lc_instances(), st.data())
@settings(max_examples=60, deadline=None)
def test_satisfied_mask_equals_per_superedge_membership(lc, data):
    lab = Labeling(tuple(data.draw(st.integers(0, lc.sigma_a - 1)) for _ in range(lc.a_count)),
                   tuple(data.draw(st.integers(0, lc.sigma_b - 1)) for _ in range(lc.b_count)))
    expected = [(lab.gamma_a[lc.edge(e)[0]], lab.gamma_b[lc.edge(e)[1]]) in lc.relation(e)
                for e in range(lc.edge_count)]
    assert _satisfied_mask(lc, lab).tolist() == expected


ONE_ROW = (np.array([0, 2]), np.array([0, 1]), np.array([1, 0]))


@pytest.mark.parametrize("table, rel_ids, message", [
    ((np.array([0, 2, 2]), np.array([0, 1]), np.array([1, 0])), [0], "nonempty"),
    ((np.array([0, 2]), np.array([1, 0]), np.array([0, 1])), [0], "sorted and distinct"),
    ((np.array([0, 2]), np.array([0, 0]), np.array([1, 0])), [0], "sorted and distinct"),
    ((np.array([0, 2]), np.array([0, 0]), np.array([1, 1])), [0], "sorted and distinct"),
    ((np.array([0, 2]), np.array([0, 2]), np.array([1, 0])), [0], "symbol out of range"),
    ((np.array([0, 2]), np.array([0, 1]), np.array([-1, 0])), [0], "symbol out of range"),
    (ONE_ROW, [1], "row id out of range"),
    (ONE_ROW, [-1], "row id out of range"),
    ((np.array([0, 3]), np.array([0, 1]), np.array([1, 0])), [0], "offsets"),
], ids=["empty row", "unsorted alpha", "unsorted beta", "duplicate pair", "alpha too large",
        "negative beta", "row id too large", "negative row id", "offsets past the pairs"])
def test_constructor_rejects_bad_relation_rows(table, rel_ids, message):
    """The row checks, against the table they start from: ONE_ROW is a
    valid row with pairs (0, 1) and (1, 0) over alphabets of 2."""
    good = LabelCoverInstance(1, 1, 2, 2, [0], [0], [0], ONE_ROW)
    assert good.relation(0) == ((0, 1), (1, 0))
    with pytest.raises(InputError, match=message):
        LabelCoverInstance(1, 1, 2, 2, [0], [0], rel_ids, table)


@pytest.mark.parametrize("sizes, message", [
    ((10**8 + 1, 1, 1, 1), "A = 100000001 exceeds 100000000"),
    ((1, 10**8 + 1, 1, 1), "B = 100000001 exceeds 100000000"),
    ((1, 1, 10**8, 1), "A\\*SA \\+ B\\*SB = 100000001 exceeds 100000000"),
    ((0, 0, 10**18, 1), f"SA = {10**18} is not an integer of 1 to 18 decimal digits"),
    ((0, 0, 1, 10**18), f"SB = {10**18} is not an integer of 1 to 18 decimal digits"),
])
def test_constructor_holds_every_instance_to_the_lc_v1_header_bounds(sizes, message):
    """An instance the program builds can be written as LC v1 and read
    back: the constructor rejects the sizes the parser would reject."""
    empty = (np.zeros(1, dtype=np.int64), [], [])
    with pytest.raises(InputError, match=f"LC v1 header: {message}"):
        LabelCoverInstance(*sizes, [], [], [], empty)


def test_regularize_of_a_wide_side_is_rejected_by_the_constructor():
    wide = make_lc(4 * 10**7, 1, 1, 1, [(0, 0, [(0, 0)])])
    with pytest.raises(InputError, match="LC v1 header: A = 120000000 exceeds"):
        cons.regularize(wide, require_sat5_shape=False)


def test_relation_arrays_are_read_only():
    lc = make_lc(2, 1, 2, 2, [(0, 0, [(1, 1), (0, 1)]), (1, 0, [(0, 0)])])
    start, alpha, beta = lc.relation_arrays()
    assert (start.tolist(), alpha.tolist(), beta.tolist()) == ([0, 2, 3], [0, 1, 0], [1, 1, 0])
    for arr in lc.relation_arrays():
        with pytest.raises(ValueError):
            arr[0] = 1
