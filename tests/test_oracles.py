from fractions import Fraction

import pytest

from girthspan import oracles
from girthspan.errors import ResourceError
from girthspan import constructions as cons
from girthspan.graphs import INFINITY, girth
from girthspan.labelcover import labeling_to_repcover, minrep_expand, repcover_valid, value
from girthspan.rng import Stream
from girthspan.spanner import EdgeSubset, verify_spanner

from conftest import (complete_graph, cycle_graph, make_graph, make_lc, petersen_graph,
                      random_graph, xor_odd_4cycle)


def test_lc_value_exact_planted_is_one():
    planted = (True, False, False)
    f = cons.gen_3sat5(3, seed=6, planted=planted)
    lc = cons.lc_from_3sat5(f)
    opt, witness = oracles.lc_value_exact(lc)
    assert opt == 1
    assert value(lc, witness) == 1


def test_lc_value_exact_single_superedge():
    lc = make_lc(1, 1, 3, 2, [(0, 0, [(2, 1)])])
    opt, witness = oracles.lc_value_exact(lc)
    assert opt == 1
    assert witness.gamma_a == (2,) and witness.gamma_b == (1,)


def test_lc_value_exact_xor_cycle(xor_lc):
    opt, witness = oracles.lc_value_exact(xor_lc)
    assert opt == Fraction(3, 4)
    assert value(xor_lc, witness) == Fraction(3, 4)


def test_lc_value_exact_agrees_with_full_enumeration():
    import itertools
    stream = Stream(123)
    for _ in range(10):
        from conftest import random_tiny_lc
        lc = random_tiny_lc(stream, 2, 2, 2, 3)
        best = Fraction(0)
        for ga in itertools.product(range(lc.sigma_a), repeat=lc.a_count):
            for gb in itertools.product(range(lc.sigma_b), repeat=lc.b_count):
                from girthspan.labelcover import Labeling
                best = max(best, value(lc, Labeling(ga, gb)))
        opt, _ = oracles.lc_value_exact(lc)
        assert opt == best


def test_lc_value_exact_budget():
    lc = xor_odd_4cycle()
    with pytest.raises(ResourceError):
        oracles.lc_value_exact(lc, oracles.OracleBudget(max_search_space=2))


def test_min_repcover_single_pair():
    lc = make_lc(1, 1, 2, 2, [(0, 0, [(0, 0)])])
    size, cover = oracles.min_repcover_exact(minrep_expand(lc))
    assert size == 2
    assert repcover_valid(minrep_expand(lc), cover)[0]


def test_min_repcover_value_one_instance():
    planted = (False, True, True)
    f = cons.gen_3sat5(3, seed=8, planted=planted)
    lc = cons.lc_from_3sat5(f)
    # too big for subset enumeration over all 45 vertices; shrink to 2 clauses
    small = make_lc(2, 3, 7, 2, [(a, b, lc.relation(e))
                                 for e in range(lc.edge_count)
                                 for a, b in [lc.edge(e)] if a < 2])
    mr = minrep_expand(small)
    size, cover = oracles.min_repcover_exact(mr)
    nonisolated = int((small.degrees_a() > 0).sum() + (small.degrees_b() > 0).sum())
    assert size == nonisolated
    assert repcover_valid(mr, cover)[0]


def test_min_repcover_xor_cycle(xor_lc):
    mr = minrep_expand(xor_lc)
    size, cover = oracles.min_repcover_exact(mr)
    assert size == 5
    assert repcover_valid(mr, cover)[0]


def test_min_repcover_at_least_nonisolated_supervertices():
    from conftest import random_tiny_lc
    stream = Stream(55)
    for _ in range(8):
        lc = random_tiny_lc(stream, 2, 2, 2, 2)
        mr = minrep_expand(lc)
        size, cover = oracles.min_repcover_exact(mr)
        nonisolated = int((lc.degrees_a() > 0).sum() + (lc.degrees_b() > 0).sum())
        assert size >= nonisolated
        # every valid cover touches each non-isolated supervertex
        touched = {(s, i) for s, i, _ in cover.members}
        for i in range(lc.a_count):
            if lc.degrees_a()[i] > 0:
                assert ("A", i) in touched
        for j in range(lc.b_count):
            if lc.degrees_b()[j] > 0:
                assert ("B", j) in touched


def test_min_repcover_budget():
    mr = minrep_expand(xor_odd_4cycle())
    with pytest.raises(ResourceError):
        oracles.min_repcover_exact(mr, oracles.OracleBudget(max_search_space=4))


def test_min_spanner_tree():
    g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    size, h = oracles.min_spanner_exact(g, 3)
    assert size == 3


def test_min_spanner_c4_k3():
    size, h = oracles.min_spanner_exact(cycle_graph(4), 3)
    assert size == 3
    assert verify_spanner(cycle_graph(4), h, 3)[0]


def test_min_spanner_k4_k2():
    size, h = oracles.min_spanner_exact(complete_graph(4), 2)
    assert size == 3
    assert verify_spanner(complete_graph(4), h, 2)[0]


def test_min_spanner_witness_is_minimum():
    g = cycle_graph(5)
    size, h = oracles.min_spanner_exact(g, 4)
    assert size == 4
    # no strict subset can span: enumeration is size-ascending
    checker = oracles.BitsetSpannerChecker(g, 4)
    mask = 0
    for e in h.members.tolist():
        mask |= 1 << e
    for e in h.members.tolist():
        assert not checker.is_spanner(mask & ~(1 << e))


def test_min_spanner_budget():
    g = complete_graph(5)
    with pytest.raises(ResourceError):
        oracles.min_spanner_exact(g, 2, oracles.OracleBudget(max_search_space=16))


def test_iter_spanners_count_on_c4():
    # 3-spanners of C4: the full set, and all four 3-edge subsets
    g = cycle_graph(4)
    subsets = [tuple(e for e in range(4) if (mask >> e) & 1) for mask in range(16)]
    found = [s for s in subsets if oracles.spans_all_pairs(g, EdgeSubset(g, s), 3)]
    assert len(found) == 5
    assert tuple(range(4)) in found


def test_girth_independent_examples():
    assert oracles.girth_independent(cycle_graph(4)) == 4
    assert oracles.girth_independent(petersen_graph()) == 5
    assert oracles.girth_independent(make_graph(4, [(0, 1), (1, 2)])) == INFINITY
    assert oracles.girth_independent(complete_graph(4)) == 3


def test_girth_formulations_agree_on_random_graphs():
    stream = Stream(404)
    for _ in range(60):
        g = random_graph(3 + stream.randbelow(10), 0.35, stream)
        assert oracles.girth_independent(g) == girth(g)


def test_lc_value_witness_converts_to_valid_cover_iff_value_one():
    stream = Stream(71)
    from conftest import random_tiny_lc
    for _ in range(10):
        lc = random_tiny_lc(stream, 2, 3, 2, 2)
        opt, witness = oracles.lc_value_exact(lc)
        cover = labeling_to_repcover(lc, witness)
        ok, _ = repcover_valid(minrep_expand(lc), cover)
        assert ok == (opt == 1)
