import math

import pytest

from girthspan import constructions as cons
from girthspan import sampling
from girthspan.errors import InputError
from girthspan.graphs import INFINITY, edge_cycle_length, girth
from girthspan.labelcover import Labeling, satisfied_count, supergraph, value
from girthspan.oracles import bfs_distances
from girthspan.rng import Stream

from conftest import (make_graph, make_lc, montecarlo_kept_edges, montecarlo_satisfied,
                      random_tiny_lc, tiny_passes)


def c6_lc():
    """Supergraph is a 6-cycle."""
    r = [(0, 0), (1, 1)]
    return make_lc(3, 3, 2, 2, [
        (0, 0, r), (0, 2, r), (1, 0, r), (1, 1, r), (2, 1, r), (2, 2, r)])


def k23_lc():
    """Supergraph is K_{2,3}; every edge lies on a 4-cycle."""
    r = [(0, 0)]
    return make_lc(2, 3, 2, 2, [(a, b, r) for a in range(2) for b in range(3)])


def regular15_lc(seed=1):
    return cons.regularize(cons.lc_from_3sat5(cons.gen_3sat5(3, seed=seed)))


def one_edge_lc(sigma_a):
    return make_lc(1, 1, sigma_a, 2, [(0, 0, [(0, 0)])])


def keep_p(sigma_a, alpha, d, clamp_p=True):
    params = sampling.SampleParams(alpha=alpha, clamp_p=clamp_p, d_override=d)
    return sampling.keep_probability(one_edge_lc(sigma_a), params)


def test_keep_probability_values():
    assert keep_p(2, 2, 8) == 0.25
    assert keep_p(4, 8, 16) == 1.0
    assert keep_p(16, 32, 64) == 1.0   # clamps
    assert math.isclose(keep_p(7, 1, 15), math.log2(7) / 15)


def test_keep_probability_degree_defaults_to_max_degree():
    params = sampling.SampleParams(alpha=1.0)
    assert sampling.keep_probability(k23_lc(), params) == 1 / 3     # A-degree 3
    assert sampling.keep_probability(c6_lc(), params) == 1 / 2
    assert sampling.keep_probability(k23_lc().restrict_edges([]), params) == 1.0


def test_keep_probability_errors():
    with pytest.raises(InputError):
        keep_p(1, 2, 8)
    with pytest.raises(InputError):
        keep_p(16, 32, 64, clamp_p=False)
    with pytest.raises(InputError, match="degree override must be >= 1"):
        sampling.SampleParams(alpha=1.0, d_override=0)


def test_subsample_p_one_is_identity():
    lc = regular15_lc()
    params = sampling.SampleParams(alpha=100.0, k=3, seed=5)
    assert sampling.subsample(lc, params) == lc


def test_subsample_deterministic():
    lc = regular15_lc()
    params = sampling.SampleParams(alpha=1.0, k=3, seed=42)
    assert sampling.subsample(lc, params) == sampling.subsample(lc, params)
    other = sampling.SampleParams(alpha=1.0, k=3, seed=43)
    assert sampling.subsample(lc, params) != sampling.subsample(lc, other)


def test_subsample_keeps_relations():
    lc = regular15_lc()
    params = sampling.SampleParams(alpha=1.0, k=3, seed=7)
    sub = sampling.subsample(lc, params)
    kept = sampling.kept_edge_ids(lc, params)
    for out_e, in_e in enumerate(kept.tolist()):
        assert sub.edge(out_e) == lc.edge(in_e)
        assert sub.relation(out_e) == lc.relation(in_e)


def test_subsample_completeness_preserved():
    planted = (True, False, True)
    f = cons.gen_3sat5(3, seed=2, planted=planted)
    lc = cons.lc_from_3sat5(f)
    reg = cons.regularize(lc)
    lab = cons.lift_regularize(lc, cons.labeling_from_assignment(f, planted))
    assert value(reg, lab) == 1
    for seed in range(5):
        sub = sampling.subsample(reg, sampling.SampleParams(alpha=1.0, k=3, seed=seed))
        assert value(sub, lab) == 1


def test_kept_edge_mean_matches_binomial():
    lc = regular15_lc()
    params = sampling.SampleParams(alpha=2.0, k=3, seed=11)
    res = montecarlo_kept_edges(lc, params, trials=2000)
    expect = res.probability * lc.edge_count
    assert abs(res.mean - expect) <= 3 * max(res.std_error, 1e-9)


def test_bad_edges_c6_thresholds():
    lc = c6_lc()
    assert sampling.bad_edges(lc, 6) == list(range(6))
    assert sampling.bad_edges(lc, 5) == []


def test_bad_edges_k23():
    lc = k23_lc()
    assert sampling.bad_edges(lc, 4) == list(range(6))
    assert sampling.bad_edges(lc, 3) == []


def bad_edges_per_edge(lc, k):
    """Reference: superedge e is bad when bfs_distances on the supergraph
    without e joins its ends in at most k - 1 hops."""
    g = supergraph(lc)
    bad = []
    for eid, (u, v) in enumerate(g.edges()):
        rest = make_graph(g.vertex_count, [e for e in g.edges() if e != (u, v)])
        if bfs_distances(rest, u, k - 1)[v] != INFINITY:
            bad.append(eid)
    return bad


def test_bad_edges_equal_per_edge_reference():
    """Dense random supergraphs, so most superedges lie on short cycles."""
    stream = Stream(4242)
    on_4_cycles = tested = 0
    for _ in range(40):
        lc = random_tiny_lc(stream, 2 + stream.randbelow(6), 2 + stream.randbelow(6), 1, 1,
                            edge_prob=0.3 + 0.6 * stream.random())
        for k in (3, 4, 5, 6, 8):
            assert sampling.bad_edges(lc, k) == bad_edges_per_edge(lc, k)
        on_4_cycles += len(sampling.bad_edges(lc, 4))
        tested += lc.edge_count
    assert on_4_cycles >= tested // 2


def bad_edges_by_cycle_length(lc, k):
    """The per-edge bad-edge search, one ``edge_cycle_length`` query per
    superedge: the reference for the batched ``bad_edges``."""
    g = supergraph(lc)
    return [eid for eid in range(g.edge_count) if edge_cycle_length(g, eid, k) != INFINITY]


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7])
def test_bad_edges_equal_per_edge_cycle_lengths(k):
    """Random dense supergraphs and sampled regular instances, in the
    default passes and in passes split down to single superedges."""
    stream = Stream(5150 + k)
    instances = [random_tiny_lc(stream, 2 + stream.randbelow(6), 2 + stream.randbelow(6), 1, 1,
                                edge_prob=0.2 + 0.7 * stream.random()) for _ in range(20)]
    instances += [sampling.subsample(regular15_lc(), sampling.SampleParams(alpha=2.0, seed=seed))
                  for seed in range(3)]
    for lc in instances:
        expected = bad_edges_by_cycle_length(lc, k)
        assert sampling.bad_edges(lc, k) == expected
        with tiny_passes():
            assert sampling.bad_edges(lc, k) == expected


def test_strip_k23_empties_and_girth_infinite():
    stripped = sampling.strip_bad_edges(k23_lc(), 4)
    assert stripped.edge_count == 0
    assert girth(supergraph(stripped)) == INFINITY


def test_strip_forest_unchanged():
    lc = make_lc(2, 2, 2, 2, [(0, 0, [(0, 0)]), (1, 0, [(0, 0)]), (1, 1, [(0, 0)])])
    for k in (3, 4, 6):
        assert sampling.strip_bad_edges(lc, k) == lc


def test_strip_output_has_no_short_cycles_through_survivors():
    lc = regular15_lc()
    for seed in range(4):
        sub = sampling.subsample(lc, sampling.SampleParams(alpha=2.0, k=4, seed=seed))
        stripped = sampling.strip_bad_edges(sub, 4)
        g = supergraph(stripped)
        for e in range(g.edge_count):
            length = edge_cycle_length(g, e)
            assert length == INFINITY or length > 4
        sg = girth(supergraph(stripped))
        assert sg == INFINITY or sg > 4


def test_degree_stats():
    lc = regular15_lc()
    da, db = sampling.degree_stats(lc)
    assert (da["minimum"], da["maximum"]) == (15, 15)
    assert db["mean"] == 15.0
    empty = lc.restrict_edges([])
    da, db = sampling.degree_stats(empty)
    assert da == db == {"minimum": 0, "mean": 0.0, "maximum": 0}


def test_montecarlo_satisfied_zero_and_full():
    lc = c6_lc()
    zero_lab = Labeling((0, 0, 0), (1, 1, 1))   # (0,1) not in any relation
    assert satisfied_count(lc, zero_lab) == 0
    params = sampling.SampleParams(alpha=1.0, k=3, seed=3)
    res = montecarlo_satisfied(lc, zero_lab, params, trials=50)
    assert res.mean == 0.0
    full = sampling.SampleParams(alpha=100.0, k=3, seed=3)
    ident = Labeling((0, 0, 0), (0, 0, 0))
    res = montecarlo_satisfied(lc, ident, full, trials=10)
    assert res.mean == satisfied_count(lc, ident) == 6


def test_montecarlo_satisfied_quarter_probability():
    # 100 satisfied edges, p forced to 0.25 via a degree override
    sat_rel = [(0, 0)]
    unsat_rel = [(1, 1)]
    lc = make_lc(128, 1, 4, 2, [(i, 0, sat_rel if i < 100 else unsat_rel)
                                for i in range(128)])
    lab = Labeling((0,) * 128, (0,))
    assert satisfied_count(lc, lab) == 100
    params = sampling.SampleParams(alpha=4.0, k=3, seed=13, d_override=32)
    assert sampling.keep_probability(lc, params) == 0.25
    res = montecarlo_satisfied(lc, lab, params, trials=10_000)
    assert res.probability == 0.25
    assert abs(res.mean - 25.0) <= 3 * res.std_error


def test_montecarlo_satisfied_binomial_mean():
    lc = regular15_lc()
    lab = Labeling((0,) * 15, (0,) * 15)
    sat = satisfied_count(lc, lab)
    assert sat > 0
    params = sampling.SampleParams(alpha=2.0, k=3, seed=9)
    res = montecarlo_satisfied(lc, lab, params, trials=2000)
    assert abs(res.mean - res.probability * sat) <= 3 * max(res.std_error, 1e-9)


def test_trials_are_schedule_independent():
    import numpy as np
    from girthspan.rng import child_seed, draws_array, keep_threshold

    lc = regular15_lc()
    params = sampling.SampleParams(alpha=1.0, k=3, seed=17)
    res = montecarlo_kept_edges(lc, params, trials=20)
    thr = keep_threshold(res.probability)
    singles = []
    for t in reversed(range(20)):
        draws = draws_array(child_seed(params.seed, "trial", t), lc.edge_count)
        singles.append(int((draws < np.uint64(thr)).sum()))
    assert tuple(reversed(singles)) == res.per_trial


def test_sample_and_strip_stats():
    lc = regular15_lc()
    params = sampling.SampleParams(alpha=2.0, k=4, seed=1)
    sampled = sampling.subsample(lc, params)
    stripped = sampling.strip_bad_edges(sampled, params.k)
    assert lc.edge_count == 225
    assert stripped.edge_count <= sampled.edge_count <= lc.edge_count
    assert sampled.edge_count - stripped.edge_count == len(sampling.bad_edges(sampled, 4))
    sg = girth(supergraph(stripped))
    assert sg == INFINITY or sg > 4
    deg_a, deg_b = sampling.degree_stats(sampled)
    assert deg_a["mean"] * sampled.a_count == sampled.edge_count
    assert deg_b["mean"] * sampled.b_count == sampled.edge_count


def test_params_validation():
    with pytest.raises(InputError):
        sampling.SampleParams(alpha=0.0, k=3, seed=1)
    with pytest.raises(InputError):
        sampling.SampleParams(alpha=1.0, k=2, seed=1)
