"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete.  Every tolerance is pinned here; nothing is deferred.
"""

import json
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from girthspan import constructions as cons
from girthspan import oracles, pipeline, sampling
from girthspan import spanner as sp
from girthspan.graphs import Graph, INFINITY, girth
from girthspan.labelcover import (LabelCoverInstance, Labeling,
                                  labeling_to_repcover, minrep_expand,
                                  repcover_valid, satisfied_count,
                                  supergraph, value)
from girthspan.rng import Stream, child_seed, draws_array, keep_threshold

from conftest import (complete_graph, cycle_graph, family_ids, full_subset, make_lc,
                      montecarlo_kept_edges, montecarlo_satisfied, path_lc_tiny, random_graph,
                      random_tiny_lc, xor_odd_4cycle)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


# A CSR relation table with one row holding the single pair (0, 0).
ONE_PAIR_TABLE = (np.array([0, 1]), np.array([0]), np.array([0]))


def regular15(seed):
    return cons.regularize(cons.lc_from_3sat5(cons.gen_3sat5(3, seed=seed)))


def test_criterion_1_girth_guarantee():
    with criterion(1, "girth guarantee"):
        base = regular15(0)
        for k in (3, 4, 6):
            for seed in range(50):
                params = sampling.SampleParams(alpha=2.0, k=k,
                                               seed=child_seed(seed, "c1", k))
                sampled = sampling.subsample(base, params)
                stripped = sampling.strip_bad_edges(sampled, k)
                g = supergraph(stripped)
                main = girth(g)
                cross = oracles.girth_independent(g)
                assert main == cross
                assert main == INFINITY or main > k


def test_criterion_2_end_to_end_completeness():
    with criterion(2, "end-to-end completeness"):
        k = 3
        for n_vars, ell, alpha in [(3, 1, 1.0), (3, 2, 0.5), (6, 1, 1.0), (6, 2, 0.25)]:
            planted = tuple(bool((i * 7 + 3) % 2) for i in range(n_vars))
            f = cons.gen_3sat5(n_vars, seed=child_seed(9, "c2", n_vars, ell),
                               planted=planted)
            lc = cons.lc_from_3sat5(f)
            lab = cons.labeling_from_assignment(f, planted)
            assert value(lc, lab) == 1
            reg = cons.regularize(lc)
            lab = cons.lift_regularize(lc, lab)
            assert value(reg, lab) == 1
            rep = cons.parallel_repetition(reg, ell)
            lab = cons.lift_repetition(reg, lab, ell)
            assert value(rep, lab) == 1
            params = sampling.SampleParams(alpha=alpha, k=k + 1,
                                           seed=child_seed(5, "c2s", n_vars, ell))
            sampled = sampling.subsample(rep, params)
            assert value(sampled, lab) == 1
            stripped = sampling.strip_bad_edges(sampled, k + 1)
            assert value(stripped, lab) == 1
            sg = girth(supergraph(stripped))
            assert sg == INFINITY or sg >= k + 2
            mr = minrep_expand(stripped)
            cover = labeling_to_repcover(stripped, lab)
            ok, _ = repcover_valid(mr, cover)
            assert ok
            n_tilde = stripped.a_count + stripped.b_count
            assert len(cover) == n_tilde
            if ell == 1:
                x_override = None       # defaults to ceil(n^2 / n_tilde)
            else:
                need = mr.vertex_count + mr.minrep_graph.edge_count
                x_override = -(-need // (2 * n_tilde)) + 2
            si = sp.build_spanner_instance(mr, k, x_override=x_override)
            h = sp.spanner_from_repcover(si, cover)
            ok, witness = sp.verify_spanner_structured(si, h)
            assert ok, f"spanner violated at edge {witness}"
            assert len(h) <= (k + 1) * si.x * n_tilde


def test_criterion_3_parallel_repetition_sandwich():
    with criterion(3, "parallel repetition sandwich + regularize preservation"):
        shapes = [(2, 2, 2, 2), (2, 3, 2, 2), (3, 2, 2, 2), (3, 3, 2, 2),
                  (4, 2, 2, 2), (4, 3, 2, 2), (3, 2, 3, 2)]
        stream = Stream(2718)
        instances = [xor_odd_4cycle()]
        for rounds in range(3):
            for a_cnt, sig_a, b_cnt, sig_b in shapes:
                instances.append(random_tiny_lc(stream, a_cnt, b_cnt, sig_a, sig_b,
                                                edge_prob=0.7, pair_prob=0.4))
        assert len(instances) >= 20
        strict_gap_seen = False
        for lc in instances:
            base, _ = oracles.lc_value_exact(lc)
            rep = cons.parallel_repetition(lc, 2)
            squared, _ = oracles.lc_value_exact(rep)
            assert base ** 2 <= squared <= base
            reg = cons.regularize(lc, require_sat5_shape=False)
            reg_opt, _ = oracles.lc_value_exact(reg)
            assert reg_opt == base
            if base < 1:
                strict_gap_seen = True
        assert strict_gap_seen


def test_criterion_4_size_formulas():
    with criterion(4, "size formulas"):
        for n_vars in (3, 6):
            lc = cons.lc_from_3sat5(cons.gen_3sat5(n_vars, seed=n_vars))
            reg = cons.regularize(lc)
            assert reg.a_count == reg.b_count == 5 * n_vars
            assert set(reg.degrees_a().tolist()) == {15}
            assert set(reg.degrees_b().tolist()) == {15}
            for ell in (1, 2):
                if n_vars == 6 and ell == 2:
                    continue   # 202500 superedges exercised in criterion 2
                rep = cons.parallel_repetition(reg, ell)
                assert rep.a_count == rep.b_count == (5 * n_vars) ** ell
                assert set(rep.degrees_a().tolist()) == {15 ** ell}
                assert set(rep.degrees_b().tolist()) == {15 ** ell}
                assert rep.sigma_a == 7 ** ell and rep.sigma_b == 2 ** ell
        built = []
        for k in (3, 4, 5, 6):
            for x in (1, 2):
                built.append(sp.build_spanner_instance(
                    minrep_expand(path_lc_tiny()), k, x_override=x))
        ten = make_lc(2, 2, 3, 2, [
            (0, 0, [(0, 0), (1, 1), (2, 0)]),
            (1, 0, [(0, 1), (2, 0)]),
            (1, 1, [(1, 0), (2, 1)])])
        built.append(sp.build_spanner_instance(minrep_expand(ten), 3))
        for si in built:
            assert si.base.vertex_count == si.n + si.x * (si.n_tilde // 2) * (si.k - 1)
            assert si.anchor_roster_size == si.n + si.x * si.n_tilde
            assert (si.k == 3) == (family_ids(si, sp.FAM_M).size == 0)
            si.audit()


def test_criterion_5_exhaustive_canonical_span():
    with criterion(5, "exhaustive canonical-path property"):
        lc = path_lc_tiny()
        mr = minrep_expand(lc)
        si = sp.build_spanner_instance(mr, 3, x_override=1)
        g = si.base
        assert g.edge_count <= 18
        assert girth(supergraph(lc)) == INFINITY   # >= k + 2
        gt_ids = family_ids(si, sp.FAM_GT).tolist()
        # per EGt edge: bitmasks of the three crossing edges of each candidate
        # canonical path (k = 3: towers are single vertices, no EM edges)
        canonical_masks = []
        for eid in gt_ids:
            p, se = np.argwhere(si.gt_copies == eid)[0].tolist()
            i, j = lc.edge(se)
            triples = []
            for alpha, beta in lc.relation(se):
                u = mr.a_vertex(i, alpha)
                w = mr.b_vertex(j, beta)
                trip = (1 << g.edge_id(si.s_vertex(p, i, 1), u)
                        | 1 << g.edge_id(u, w)
                        | 1 << g.edge_id(w, si.t_vertex(p, j, 1)))
                triples.append(trip)
            canonical_masks.append((eid, triples))
        checker = oracles.BitsetSpannerChecker(g, si.k)
        spanner_count = 0
        sampled_cross_checks = 0
        for mask in range(2 ** g.edge_count):
            if not checker.is_spanner(mask):
                continue
            spanner_count += 1
            for eid, triples in canonical_masks:
                present = bool((mask >> eid) & 1)
                spanned = any((mask & t) == t for t in triples)
                assert present or spanned
                if spanner_count % 97 == 0:
                    h = sp.EdgeSubset(g, [e for e in range(g.edge_count)
                                          if (mask >> e) & 1])
                    path = sp.canonical_span_check(si, h, eid)
                    assert (path is not None) == spanned
                    sampled_cross_checks += 1
        assert spanner_count > 0
        assert sampled_cross_checks > 0


def test_criterion_6_reduction_bounds():
    with criterion(6, "reduction bounds"):
        ten = make_lc(2, 2, 3, 2, [
            (0, 0, [(0, 0), (1, 1), (2, 0)]),
            (1, 0, [(0, 1), (2, 0)]),
            (1, 1, [(1, 0), (2, 1)])])
        tiny_si = sp.build_spanner_instance(minrep_expand(path_lc_tiny()), 3, x_override=1)
        default_si = sp.build_spanner_instance(minrep_expand(ten), 3)

        def check_spanner(si, h):
            proper = sp.make_proper(si, h)
            assert not set(proper.members.tolist()) \
                & set(family_ids(si, sp.FAM_GT).tolist())
            assert sp.verify_spanner_structured(si, proper)[0]
            assert len(proper) <= 6 * len(h)
            cover = sp.repcover_from_spanner(si, h)
            assert repcover_valid(si.source, cover)[0]
            assert len(cover) <= 6 * len(h) / si.x

        for si in (tiny_si, default_si):
            check_spanner(si, full_subset(si))
            check_spanner(si, sp.greedy_spanner(si.base, si.k))
            opt, lab = oracles.lc_value_exact(si.source.source)
            assert opt == 1
            c0 = labeling_to_repcover(si.source.source, lab)
            h0 = sp.spanner_from_repcover(si, c0)
            check_spanner(si, h0)
            back = sp.repcover_from_spanner(si, h0)
            assert len(back) <= 6 * (si.k + 1) * len(c0)

        # brute-force minimal spanner: tiny instance only (2^16 subsets)
        size, h_min = oracles.min_spanner_exact(tiny_si.base, 3)
        assert sp.verify_spanner(tiny_si.base, h_min, 3)[0]
        check_spanner(tiny_si, h_min)


def test_criterion_7_sampling_statistics():
    with criterion(7, "sampling statistics"):
        # (a) kept-edge mean over 10,000 trials on the 15-regular instance
        lc15 = regular15(1)
        params = sampling.SampleParams(alpha=2.0, k=3, seed=child_seed(1, "c7a"))
        res = montecarlo_kept_edges(lc15, params, trials=10_000)
        assert abs(res.mean - res.probability * lc15.edge_count) <= 3 * res.std_error

        # (b) satisfied-count mean for a fixed labeling, 10,000 trials
        lab = Labeling((0,) * 15, (0,) * 15)
        sat = satisfied_count(lc15, lab)
        assert 0 < sat < lc15.edge_count
        params_b = sampling.SampleParams(alpha=2.0, k=3, seed=child_seed(2, "c7b"))
        res_b = montecarlo_satisfied(lc15, lab, params_b, trials=10_000)
        assert abs(res_b.mean - res_b.probability * sat) <= 3 * res_b.std_error

        # (c) degree concentration: 512-regular bipartite, alpha*log2(sigma) = 64
        n_side = 512
        ea = np.repeat(np.arange(n_side, dtype=np.int64), n_side)
        eb = np.tile(np.arange(n_side, dtype=np.int64), n_side)
        k512 = LabelCoverInstance(
            n_side, n_side, 4, 4, ea, eb,
            np.zeros(n_side * n_side, dtype=np.int64), ONE_PAIR_TABLE)
        p = sampling.keep_probability(k512, sampling.SampleParams(alpha=32.0))
        assert p == 64 / 512
        thr = keep_threshold(p)
        seed_c = child_seed(3, "c7c")
        outside = 0
        total = 0
        for t in range(1000):
            draws = draws_array(child_seed(seed_c, "trial", t), k512.edge_count)
            kept = draws < np.uint64(thr)
            degs = np.concatenate([np.bincount(ea[kept], minlength=n_side),
                                   np.bincount(eb[kept], minlength=n_side)])
            outside += int(((degs < 32) | (degs > 128)).sum())
            total += degs.size
        assert outside / total < 0.01

        # (d) per-edge short-cycle frequency vs the 2*(alpha*log2 sigma)^(k-1)/d bound
        d = 128
        alpha_log = 3.0   # alpha = 1, sigma_a = 8
        k_cycle = 4
        bound = 2 * alpha_log ** (k_cycle - 1) / d
        assert bound < 1
        ea = np.repeat(np.arange(d, dtype=np.int64), d)
        eb = np.tile(np.arange(d, dtype=np.int64), d)
        kd = LabelCoverInstance(
            d, d, 8, 8, ea, eb, np.zeros(d * d, dtype=np.int64), ONE_PAIR_TABLE)
        params_d = sampling.SampleParams(alpha=1.0, k=k_cycle, seed=child_seed(4, "c7d"))
        on_short_cycle = 0
        kept_total = 0
        for t in range(60):
            trial = sampling.SampleParams(alpha=1.0, k=k_cycle,
                                          seed=child_seed(params_d.seed, "trial", t))
            sub = sampling.subsample(kd, trial)
            kept_total += sub.edge_count
            on_short_cycle += len(sampling.bad_edges(sub, k_cycle))
        assert kept_total > 10_000
        assert on_short_cycle / kept_total <= bound


def test_criterion_8_oracle_self_consistency():
    with criterion(8, "oracle self-consistency"):
        stream = Stream(8888)
        for _ in range(200):
            g = random_graph(3 + stream.randbelow(10), 0.35, stream)
            assert girth(g) == oracles.girth_independent(g)
        assert oracles.min_spanner_exact(cycle_graph(4), 3)[0] == 3
        assert oracles.min_spanner_exact(complete_graph(4), 2)[0] == 3
        xor = xor_odd_4cycle()
        assert oracles.min_repcover_exact(minrep_expand(xor))[0] == 5
        assert oracles.lc_value_exact(xor)[0] == Fraction(3, 4)
        for trial in range(25):
            g = random_graph(4 + stream.randbelow(8), 0.5, stream)
            k = 2 + stream.randbelow(3)
            h = sp.greedy_spanner(g, k)
            assert sp.verify_spanner(g, h, k)[0]
            if len(h):
                sub = Graph(g.vertex_count,
                                        g.edge_arrays()[0][h.members],
                                        g.edge_arrays()[1][h.members])
                assert girth(sub) == INFINITY or girth(sub) > k + 1


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "determinism"):
        reports = []
        for run in ("r1", "r2"):
            reports.append(pipeline.run_pipeline(
                tmp_path / run, n_vars=3, ell=1, alpha=3.0, k=3, seed=123,
                planted=True, x_override=25))
        names = sorted(p.name for p in (tmp_path / "r1").iterdir())
        assert {"formula.cnf", "base.lc", "stripped.lc", "gadget.graph",
                "spanner.subset", "cover.cover", "stats.json"} <= set(names)
        for name in names:
            b1 = (tmp_path / "r1" / name).read_bytes()
            b2 = (tmp_path / "r2" / name).read_bytes()
            if name == "stats.json":
                d1, d2 = json.loads(b1), json.loads(b2)
                for key in ("wall_clock_s", "peak_rss_mb"):
                    d1.pop(key), d2.pop(key)
                assert d1 == d2
            else:
                assert b1 == b2, f"artifact {name} differs between identical runs"
        # Monte Carlo trials are schedule independent: recomputing any trial
        # in isolation (here: reversed order) reproduces the same counts.
        lc15 = regular15(4)
        params = sampling.SampleParams(alpha=1.0, k=3, seed=child_seed(7, "c9"))
        res = montecarlo_kept_edges(lc15, params, trials=30)
        thr = keep_threshold(res.probability)
        recomputed = []
        for t in reversed(range(30)):
            draws = draws_array(child_seed(params.seed, "trial", t), lc15.edge_count)
            recomputed.append(int((draws < np.uint64(thr)).sum()))
        assert tuple(reversed(recomputed)) == res.per_trial
        assert all(reports[0]["verdicts"].values())
