import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from girthspan import constructions as cons
from girthspan.errors import InputError, ResourceError
from girthspan.labelcover import Labeling, distinct_relations, value
from girthspan.oracles import lc_value_exact
from girthspan.rng import Stream

from conftest import (check_mutant, make_lc, narrowed_spelling, random_tiny_lc, text_mutants,
                      xor_odd_4cycle)


# --- gen_3sat5 -----------------------------------------------------------------

def test_gen_3sat5_smallest_instance_is_forced():
    f = cons.gen_3sat5(3, seed=11)
    assert f.clause_count == 5
    for clause in f.clauses:
        assert [v for v, _ in clause] == [0, 1, 2]


def test_gen_3sat5_planted_all_true():
    planted = (True,) * 6
    f = cons.gen_3sat5(6, seed=4, planted=planted)
    for c in range(f.clause_count):
        assert any(planted[v] == positive for v, positive in f.clauses[c])
        assert any(positive for _, positive in f.clauses[c])


def test_gen_3sat5_deterministic():
    assert cons.gen_3sat5(6, seed=1) == cons.gen_3sat5(6, seed=1)
    assert cons.gen_3sat5(6, seed=1) != cons.gen_3sat5(6, seed=2)


def test_gen_3sat5_input_errors():
    with pytest.raises(InputError):
        cons.gen_3sat5(4, seed=0)
    with pytest.raises(InputError):
        cons.gen_3sat5(0, seed=0)
    with pytest.raises(InputError):
        cons.gen_3sat5(6, seed=0, planted=(True,) * 5)


def test_gen_3sat5_converges_across_sizes_and_seeds():
    for n in (3, 6, 9, 12, 30):
        for seed in range(3):
            f = cons.gen_3sat5(n, seed=seed)
            assert f.var_count == n   # constructor enforces 5-regularity


def test_clause_satisfying_bits():
    clause = ((0, True), (1, True), (2, True))
    rows = cons.clause_satisfying_bits(clause)
    assert len(rows) == 7
    assert (0, 0, 0) not in rows
    clause2 = ((0, False), (1, True), (2, False))
    rows2 = cons.clause_satisfying_bits(clause2)
    assert (1, 0, 1) not in rows2 and len(rows2) == 7


# --- lc_from_3sat5 -------------------------------------------------------------

def test_lc_from_3sat5_shape():
    f = cons.gen_3sat5(3, seed=7)
    lc = cons.lc_from_3sat5(f)
    assert (lc.a_count, lc.b_count) == (5, 3)
    assert (lc.sigma_a, lc.sigma_b) == (7, 2)
    assert lc.edge_count == 15
    assert all(len(lc.relation(e)) == 7 for e in range(lc.edge_count))
    assert set(lc.degrees_a().tolist()) == {3}
    assert set(lc.degrees_b().tolist()) == {5}


@st.composite
def formulas(draw):
    """A 3SAT(5) formula of 3 to 12 variables whose polarities are drawn
    clause by clause, so that any of the 8 falsifying triples can occur."""
    n = draw(st.sampled_from([3, 6, 9, 12]))
    shape = cons.gen_3sat5(n, draw(st.integers(0, 2**32)))
    return cons.Formula3Sat5(n, tuple(tuple((v, draw(st.booleans())) for v, _ in clause)
                                      for clause in shape.clauses))


def lc_from_3sat5_by_tuples(formula):
    """The clause-variable instance from Python tuples: superedge (c, v)
    pairs each clause symbol alpha with the bit at v of the alpha-th
    satisfying assignment of clause c."""
    superedges = []
    for c, clause in enumerate(formula.clauses):
        bit_rows = cons.clause_satisfying_bits(clause)
        for pos, (v, _) in enumerate(clause):
            superedges.append((c, v, [(alpha, bits[pos]) for alpha, bits in enumerate(bit_rows)]))
    return make_lc(formula.clause_count, formula.var_count, cons.CLAUSE_ALPHABET,
                   cons.VAR_ALPHABET, superedges)


@given(formulas())
@settings(max_examples=60, deadline=None)
def test_lc_from_3sat5_equals_the_tuple_built_instance(formula):
    """The arrays ``lc_from_3sat5`` builds are the tuple-built instance's,
    row for row, and its table has one row per distinct relation: at most
    2 + 4 + 8 = 14, for clause positions 0, 1 and 2."""
    lc = cons.lc_from_3sat5(formula)
    reference = lc_from_3sat5_by_tuples(formula)
    assert lc == reference
    for mine, theirs in zip(lc.edge_arrays() + lc.relation_arrays(),
                            reference.edge_arrays() + reference.relation_arrays()):
        assert np.array_equal(mine, theirs)
    assert distinct_relations(lc) == lc.relation_arrays()[0].size - 1 <= 14


def test_lc_from_3sat5_satisfying_assignment_lifts_to_value_one():
    planted = (False, True, True, False, True, False)
    f = cons.gen_3sat5(6, seed=9, planted=planted)
    lc = cons.lc_from_3sat5(f)
    lab = cons.labeling_from_assignment(f, planted)
    assert value(lc, lab) == 1


def test_labeling_from_assignment_rejects_falsifying():
    f = cons.gen_3sat5(6, seed=9, planted=(True,) * 6)
    clause = f.clauses[0]
    bad = [not positive for _, positive in clause]
    assignment = [True] * 6
    for (v, _), b in zip(clause, bad):
        assignment[v] = b
    with pytest.raises(InputError):
        cons.labeling_from_assignment(f, assignment)


# --- regularize ----------------------------------------------------------------

def test_regularize_sizes_and_regularity():
    lc = cons.lc_from_3sat5(cons.gen_3sat5(3, seed=1))
    reg = cons.regularize(lc)
    assert reg.a_count == reg.b_count == 15
    assert reg.edge_count == 225
    assert set(reg.degrees_a().tolist()) == {15}
    assert set(reg.degrees_b().tolist()) == {15}


def test_regularize_preserves_value_one():
    planted = (True, False, True)
    f = cons.gen_3sat5(3, seed=2, planted=planted)
    lc = cons.lc_from_3sat5(f)
    lab = cons.labeling_from_assignment(f, planted)
    reg = cons.regularize(lc)
    lifted = cons.lift_regularize(lc, lab)
    assert value(reg, lifted) == 1


def test_regularize_preserves_optimum_on_tiny_instances():
    stream = Stream(31)
    for _ in range(6):
        lc = random_tiny_lc(stream, 2 + stream.randbelow(2), 2, 2, 2)
        opt, _ = lc_value_exact(lc)
        reg = cons.regularize(lc, require_sat5_shape=False)
        opt_reg, _ = lc_value_exact(reg)
        assert opt_reg == opt


def test_regularize_shape_precondition():
    lc = xor_odd_4cycle()
    with pytest.raises(InputError):
        cons.regularize(lc)
    reg = cons.regularize(lc, require_sat5_shape=False)
    assert reg.a_count == 6 and reg.b_count == 10
    assert reg.edge_count == 15 * lc.edge_count


# --- parallel repetition ---------------------------------------------------------

def test_parrep_sizes_on_regularized_instance():
    reg = cons.regularize(cons.lc_from_3sat5(cons.gen_3sat5(3, seed=1)))
    rep = cons.parallel_repetition(reg, 2)
    assert rep.a_count == rep.b_count == 225
    assert (rep.sigma_a, rep.sigma_b) == (49, 4)
    assert rep.edge_count == 225 ** 2
    assert set(rep.degrees_a().tolist()) == {225}
    assert set(rep.degrees_b().tolist()) == {225}


def test_parrep_ell_one_is_identity(xor_lc):
    assert cons.parallel_repetition(xor_lc, 1) == xor_lc


def test_parrep_budget_error():
    reg = cons.regularize(cons.lc_from_3sat5(cons.gen_3sat5(3, seed=1)))
    with pytest.raises(ResourceError):
        cons.parallel_repetition(reg, 4, max_superedges=10 ** 6)


def test_parrep_checks_lc_sizes_before_the_product(monkeypatch):
    """A product whose sizes no LC v1 header may declare is rejected before
    any product array is built: 3 superedges with A = 20000 give a product
    with A = 4 * 10^8."""
    lc = make_lc(20000, 20000, 2, 2, [(i, i, [(0, 0)]) for i in range(3)])
    monkeypatch.setattr(cons, "_combine_relations", lambda *args: pytest.fail("product built"))
    with pytest.raises(InputError, match="A = 400000000 exceeds 100000000"):
        cons.parallel_repetition(lc, 2)


def test_parrep_relation_is_coordinatewise(xor_lc):
    rep = cons.parallel_repetition(xor_lc, 2)
    # edge ((0,0),(0,0)) pairs with tuple symbols: both coordinates must satisfy
    ea, eb, _ = rep.edge_arrays()
    e = next(i for i in range(rep.edge_count)
             if ea[i] == 0 and eb[i] == 0)  # a-tuple (0,0), b-tuple (0,0): eq x eq
    rel = rep.relation(e)
    expected = {(a1 * 2 + a2, b1 * 2 + b2)
                for a1, b1 in [(0, 0), (1, 1)] for a2, b2 in [(0, 0), (1, 1)]}
    assert set(rel) == expected


def test_parrep_sandwich_on_tiny_instance(xor_lc):
    base_opt, _ = lc_value_exact(xor_lc)
    rep = cons.parallel_repetition(xor_lc, 2)
    rep_opt, _ = lc_value_exact(rep)
    assert base_opt ** 2 <= rep_opt <= base_opt
    assert base_opt == Fraction(3, 4)


# --- labeling lifts ---------------------------------------------------------------

def test_lift_value_one_through_repetition():
    planted = (True,) * 3
    f = cons.gen_3sat5(3, seed=5, planted=planted)
    lc = cons.lc_from_3sat5(f)
    lab = cons.labeling_from_assignment(f, planted)
    rep = cons.parallel_repetition(lc, 2, max_superedges=10 ** 6)
    lifted = cons.lift_repetition(lc, lab, 2)
    assert value(rep, lifted) == 1


def test_lift_value_is_squared_for_fixed_labeling(xor_lc):
    lab = Labeling((0, 0), (0, 0))
    assert value(xor_lc, lab) == Fraction(3, 4)
    rep = cons.parallel_repetition(xor_lc, 2)
    lifted = cons.lift_repetition(xor_lc, lab, 2)
    assert value(rep, lifted) == Fraction(9, 16)


def test_lift_shape_and_ell_errors(xor_lc):
    lab = Labeling((0, 0), (0, 0))
    with pytest.raises(InputError):
        cons.lift_regularize(xor_lc, Labeling((0,), (0, 0)))
    with pytest.raises(InputError):
        cons.lift_repetition(xor_lc, Labeling((0,), (0, 0)), 2)
    with pytest.raises(InputError, match="ell must be >= 1"):
        cons.lift_repetition(xor_lc, lab, 0)


# --- formula text format ----------------------------------------------------------

def test_formula_round_trip():
    f = cons.gen_3sat5(6, seed=1, planted=(True, False) * 3)
    text = cons.write_formula_text(f, seed=1, planted=(True, False) * 3)
    assert text.startswith("c 3sat5 seed=1 planted=101010\n")
    assert cons.parse_formula_text(text.encode("ascii")) == f


def test_formula_parse_rejections():
    with pytest.raises(InputError):
        cons.parse_formula_text(b"p cnf 3 1\n1 2 0\n")
    with pytest.raises(InputError):
        cons.parse_formula_text(b"1 2 3 0\n")


def parse_formula_text_per_line(text):
    """The per-token int() parser, kept as the reference for the mutation corpus."""
    var_count = None
    clause_count = None
    clauses = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("c"):
            continue
        if ln.startswith("p"):
            toks = ln.split()
            if len(toks) != 4 or toks[1] != "cnf":
                raise InputError(f"bad problem line: {ln!r}")
            var_count, clause_count = int(toks[2]), int(toks[3])
            continue
        toks = ln.split()
        if toks[-1] != "0" or len(toks) != 4:
            raise InputError(f"expected 3 literals and terminating 0: {ln!r}")
        lits = [int(t) for t in toks[:3]]
        if any(l == 0 for l in lits):
            raise InputError(f"literal 0 inside clause: {ln!r}")
        clause = tuple(sorted((abs(l) - 1, l > 0) for l in lits))
        clauses.append(clause)
    if var_count is None:
        raise InputError("missing problem line")
    if clause_count != len(clauses):
        raise InputError(f"expected {clause_count} clauses, found {len(clauses)}")
    return cons.Formula3Sat5(var_count, tuple(clauses))


def cnf_narrowed(text):
    """Literals keep their minus sign; the problem line's counts do not; a
    comment holds printable ASCII and tabs only."""
    lines = text.splitlines()
    problem = [ln for ln in lines if ln.strip().startswith("p")]
    comments = [ln for ln in lines if ln.strip().startswith("c")]
    return (narrowed_spelling(text.replace("-", "")) or any("-" in ln for ln in problem)
            or any(re.search(r"[^\t\x20-\x7e]", ln) for ln in comments))


@pytest.mark.parametrize("comment", ["c caf\u00e9", "c bell\x07", "c unit\x1fsep"])
def test_formula_comment_is_printable_ascii(comment):
    """The per-token parser took any comment; the token policy takes printable ASCII."""
    text = comment + "\n" + cons.write_formula_text(cons.gen_3sat5(3, seed=1))
    assert parse_formula_text_per_line(text) is not None
    with pytest.raises(InputError, match="line 1:"):
        cons.parse_formula_text(text.encode("utf-8"))


def test_formula_parser_matches_per_line_reference_on_mutants():
    stream = Stream(505)
    seen = {}
    for n_vars in (3, 6):
        bits = (True, False, True) * (n_vars // 3)
        base = cons.write_formula_text(cons.gen_3sat5(n_vars, seed=n_vars, planted=bits))
        assert "-" in base
        for text in text_mutants(base, stream, 600):
            case = check_mutant(cons.parse_formula_text, parse_formula_text_per_line, text,
                                narrowed=cnf_narrowed)
            seen[case] = seen.get(case, 0) + 1
    assert {"accepted", "rejected"} <= seen.keys(), seen


@st.composite
def tiny_product_inputs(draw):
    """An instance of at most 5 superedges over alphabets of 1 to 3 symbols,
    whose relations may repeat, and a power ell of 2 or 3."""
    a_count, b_count = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    sigma_a, sigma_b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    pair = st.tuples(st.integers(0, sigma_a - 1), st.integers(0, sigma_b - 1))
    pool = draw(st.lists(st.frozensets(pair, min_size=1), min_size=1, max_size=3))
    ends = draw(st.lists(st.tuples(st.integers(0, a_count - 1), st.integers(0, b_count - 1)),
                         unique=True, min_size=1, max_size=5))
    edges = [(a, b, draw(st.sampled_from(pool))) for a, b in ends]
    return make_lc(a_count, b_count, sigma_a, sigma_b, edges), draw(st.sampled_from([2, 3]))


def parallel_repetition_per_pair(lc, ell):
    """(a, b, relation) per superedge of the ell-fold product, (a, b)-sorted,
    by the per-pair loop over coordinate relations that the CSR product
    replaced."""
    base = [(*lc.edge(e), lc.relation(e)) for e in range(lc.edge_count)]
    prod = base
    for _ in range(ell - 1):
        prod = [(pa * lc.a_count + a, pb * lc.b_count + b,
                 tuple(sorted((la * lc.sigma_a + ra, lb * lc.sigma_b + rb)
                              for la, lb in left for ra, rb in right)))
                for pa, pb, left in prod for a, b, right in base]
    return sorted(prod)


@given(tiny_product_inputs())
@settings(max_examples=80, deadline=None)
def test_parrep_equals_per_pair_product(inputs):
    lc, ell = inputs
    rep = cons.parallel_repetition(lc, ell)
    assert (rep.sigma_a, rep.sigma_b) == (lc.sigma_a ** ell, lc.sigma_b ** ell)
    got = [(*rep.edge(e), rep.relation(e)) for e in range(rep.edge_count)]
    assert got == parallel_repetition_per_pair(lc, ell)
