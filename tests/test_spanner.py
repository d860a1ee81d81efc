import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from girthspan import spanner as sp
from girthspan.errors import InputError, ResourceError
from girthspan.graphs import Graph, INFINITY, girth, graph_sha256
from girthspan.labelcover import (RepCover, labeling_to_repcover,
                                  minrep_expand, repcover_valid)
from girthspan.oracles import spans_all_pairs
from girthspan.rng import Stream

from conftest import (check_mutant, complete_graph, cycle_graph, full_subset, make_lc,
                      path_lc_tiny, random_graph, text_mutants, xor_odd_4cycle)


def ten_vertex_lc():
    """|A|=|B|=2, sigma=(3,2): Min-Rep size 10 over a 3-edge path supergraph."""
    return make_lc(2, 2, 3, 2, [
        (0, 0, [(0, 0), (1, 1), (2, 0)]),
        (1, 0, [(0, 1), (2, 0)]),
        (1, 1, [(1, 0), (2, 1)]),
    ])


def tiny_instance(k=3, x=1):
    mr = minrep_expand(path_lc_tiny())
    return sp.build_spanner_instance(mr, k, x_override=x)


# --- construction -----------------------------------------------------------

def test_build_default_x_formulas():
    mr = minrep_expand(ten_vertex_lc())
    si = sp.build_spanner_instance(mr, 3)
    assert si.x == 25 and si.x_is_default
    assert si.base.vertex_count == 10 + 25 * 2 * 2 == 110
    assert si.anchor_roster_size == 10 + 25 * 4 == 110
    assert si.anchor_distinct.size == 10 + 24 * 4
    assert si.ids_by_family[sp.FAM_M].size == 0
    assert si.ids_by_family[sp.FAM_GT].size == 25 * 3


def test_build_k5_towers():
    si = tiny_instance(k=5)
    assert (si.k_a, si.k_b) == (2, 2)
    # towers are 2-paths: one EM edge per tower
    assert si.ids_by_family[sp.FAM_M].size == 1 * (2 * 1 + 2 * 1)
    assert si.base.vertex_count == 8 + 1 * 2 * 4


def test_build_k4_asymmetric_towers():
    si = tiny_instance(k=4)
    assert (si.k_a, si.k_b) == (1, 2)
    assert si.ids_by_family[sp.FAM_M].size == 2   # only t-side towers have edges
    assert si.base.vertex_count == 8 + 1 * 2 * 3


def test_em_empty_iff_k3():
    assert tiny_instance(k=3).ids_by_family[sp.FAM_M].size == 0
    assert tiny_instance(k=4).ids_by_family[sp.FAM_M].size > 0


def test_vertex_roles_round_trip():
    si = tiny_instance(k=4, x=2)
    seen = set()
    for v in range(si.base.vertex_count):
        role = si.vertex_role(v)
        seen.add(role[0])
        if role[0] == "S":
            _, i, level, p = role
            assert si.s_vertex(p, i, level) == v
        elif role[0] == "T":
            _, j, level, p = role
            assert si.t_vertex(p, j, level) == v
    assert seen == {"A", "B", "S", "T"}


def test_families_partition_edges():
    si = tiny_instance(k=4, x=2)
    counts = np.bincount(si.fam_code, minlength=5)
    assert counts.sum() == si.base.edge_count
    for fam in range(5):
        assert counts[fam] == si.ids_by_family[fam].size


def test_egt_copies_are_supergraph_isomorphic():
    si = tiny_instance(k=3, x=3)
    lc = si.source.source
    for p in range(3):
        per_copy = sorted(si.gt_superedge[si.gt_p == p].tolist())
        assert per_copy == list(range(lc.edge_count))


def gadget_tables_by_lookup(si):
    """The gadget's family tables by the original derivation: one
    ``edge_ids_of`` search per family plus a sort by edge id.  The
    reference for the tables ``build_spanner_instance`` takes from its one
    construction sort."""
    g, mr, lc = si.base, si.source, si.source.source
    x, k_a, k_b = si.x, si.k_a, si.k_b
    a_cnt, b_cnt, sigma_a, sigma_b = lc.a_count, lc.b_count, lc.sigma_a, lc.sigma_b
    s_bases = si._s_offset + np.arange(x * a_cnt, dtype=np.int64) * k_a
    t_bases = si._t_offset + np.arange(x * b_cnt, dtype=np.int64) * k_b
    eu, ev = mr.minrep_graph.edge_arrays()
    ids_E = np.sort(g.edge_ids_of(eu, ev))
    em_u = [s_bases + o for o in range(k_a - 1)] + [t_bases + o for o in range(k_b - 1)]
    ids_M = (np.sort(g.edge_ids_of(np.concatenate(em_u), np.concatenate(em_u) + 1))
             if em_u else np.zeros(0, np.int64))

    tower_i = np.tile(np.arange(a_cnt, dtype=np.int64), x)
    tower_p = np.repeat(np.arange(x, dtype=np.int64), a_cnt)
    syms_a = np.arange(sigma_a, dtype=np.int64)
    ids_sA = g.edge_ids_of(np.repeat(s_bases, sigma_a),
                           (tower_i[:, None] * sigma_a + syms_a[None, :]).ravel())
    order = np.argsort(ids_sA)
    sa = [np.repeat(tower_p, sigma_a)[order], np.repeat(tower_i, sigma_a)[order],
          np.tile(syms_a, x * a_cnt)[order]]

    tower_j = np.tile(np.arange(b_cnt, dtype=np.int64), x)
    tower_pb = np.repeat(np.arange(x, dtype=np.int64), b_cnt)
    syms_b = np.arange(sigma_b, dtype=np.int64)
    b_block = a_cnt * sigma_a
    ids_tB = g.edge_ids_of((b_block + tower_j[:, None] * sigma_b + syms_b[None, :]).ravel(),
                           np.repeat(t_bases, sigma_b))
    order = np.argsort(ids_tB)
    tb = [np.repeat(tower_pb, sigma_b)[order], np.repeat(tower_j, sigma_b)[order],
          np.tile(syms_b, x * b_cnt)[order]]

    ea, eb, _ = lc.edge_arrays()
    copies = np.repeat(np.arange(x, dtype=np.int64), lc.edge_count)
    ids_Gt = g.edge_ids_of(si._s_offset + (copies * a_cnt + np.tile(ea, x)) * k_a + (k_a - 1),
                           si._t_offset + (copies * b_cnt + np.tile(eb, x)) * k_b + (k_b - 1))
    order = np.argsort(ids_Gt)
    gt = [copies[order], np.tile(np.arange(lc.edge_count, dtype=np.int64), x)[order]]

    ids = [ids_E, ids_M, np.sort(ids_sA), np.sort(ids_tB), np.sort(ids_Gt)]
    fam_code = np.empty(g.edge_count, dtype=np.int8)
    for code, fam_ids in enumerate(ids):
        fam_code[fam_ids] = code
    anchor_star = g.edge_ids_of(
        np.concatenate([np.repeat(s_bases[:a_cnt], sigma_a),
                        (b_block + tower_j[:b_cnt, None] * sigma_b + syms_b).ravel()]),
        np.concatenate([(np.arange(a_cnt)[:, None] * sigma_a + syms_a).ravel(),
                        np.repeat(t_bases[:b_cnt], sigma_b)]))
    hub_a = g.edge_ids_of(s_bases, np.tile(np.arange(a_cnt) * sigma_a, x)).reshape(x, a_cnt)
    hub_b = g.edge_ids_of(np.tile(b_block + np.arange(b_cnt) * sigma_b, x),
                          t_bases).reshape(x, b_cnt)
    return {"fam_code": fam_code, "ids": ids, "sa": sa, "tb": tb, "gt": gt,
            "anchor_star": anchor_star, "anchor_hub_a": hub_a, "anchor_hub_b": hub_b,
            "anchor_distinct": np.unique(np.concatenate([anchor_star, hub_a.ravel(),
                                                         hub_b.ravel()]))}


@pytest.mark.parametrize("k", [3, 4, 5, 6])
@pytest.mark.parametrize("x", [1, 2, 3])
def test_gadget_tables_from_construction_sort_equal_lookup(k, x):
    """k = 3 has no EM chunk; ten_vertex_lc has unequal alphabets (3, 2)."""
    for lc in (path_lc_tiny(), ten_vertex_lc()):
        si = sp.build_spanner_instance(minrep_expand(lc), k, x_override=x)
        ref = gadget_tables_by_lookup(si)
        assert si.fam_code.dtype == np.int8
        assert np.array_equal(si.fam_code, ref["fam_code"])
        for fam in range(5):
            assert np.array_equal(si.ids_by_family[fam], ref["ids"][fam])
        for got, want in zip([si.sa_p, si.sa_i, si.sa_sym, si.tb_p, si.tb_j, si.tb_sym,
                              si.gt_p, si.gt_superedge], ref["sa"] + ref["tb"] + ref["gt"]):
            assert np.array_equal(got, want)
        for name in ("anchor_star", "anchor_hub_a", "anchor_hub_b", "anchor_distinct"):
            assert np.array_equal(getattr(si, name), ref[name]), name
        assert (k == 3) == (si.ids_by_family[sp.FAM_M].size == 0)


@pytest.mark.parametrize("corruptions", [
    [("gt_superedge", (0, 0), 1)],      # copy 0 holds superedge 1 twice, misses 0
    [("gt_superedge", (1, 2), 3)],      # out of range (3 superedges)
    [("gt_superedge", (2, 1), -1)],
    [("gt_p", (0, 0), 1)],              # copy 1 holds superedge 0 twice
    [("gt_p", (2, 0), 3)],              # no copy 3 at x = 3
    [("gt_p", (0, 2), -1)],
    # every (copy, superedge) slot p * 3 + se still occurs once, but copy 0
    # holds superedge 3, which does not exist
    [("gt_superedge", (0, 2), 3), ("gt_superedge", (1, 0), 2), ("gt_p", (1, 0), 0)],
])
def test_audit_rejects_corrupt_egt_copies(corruptions):
    si = tiny_instance(k=3, x=3)
    si.audit()
    assert si.source.source.edge_count == 3
    pos = {(p, se): r for r, (p, se) in enumerate(zip(si.gt_p.tolist(),
                                                       si.gt_superedge.tolist()))}
    fields = {"gt_p": si.gt_p.copy(), "gt_superedge": si.gt_superedge.copy()}
    for field, pair, value in corruptions:
        fields[field][pos[pair]] = value
    si.gt_p, si.gt_superedge = fields["gt_p"], fields["gt_superedge"]
    with pytest.raises(AssertionError, match="EGt copies"):
        si.audit()


def test_interior_tower_vertices_have_degree_two_outside_e():
    si = tiny_instance(k=7, x=2)   # k_a = k_b = 3: towers have interior vertices
    non_e = np.concatenate([si.ids_by_family[f] for f in
                            (sp.FAM_M, sp.FAM_SA, sp.FAM_TB, sp.FAM_GT)])
    eu, ev = si.base.edge_arrays()
    deg = np.bincount(np.concatenate([eu[non_e], ev[non_e]]),
                      minlength=si.base.vertex_count)
    interior = [v for v in range(si.base.vertex_count)
                if si.vertex_role(v)[0] in ("S", "T")
                and 1 < si.vertex_role(v)[2] < (si.k_a if si.vertex_role(v)[0] == "S"
                                                else si.k_b)]
    assert interior
    assert all(deg[v] == 2 for v in interior)


def test_supergirth_precondition():
    mr = minrep_expand(xor_odd_4cycle())   # supergirth 4
    with pytest.raises(InputError):
        sp.build_spanner_instance(mr, 3, x_override=1)
    si = sp.build_spanner_instance(mr, 3, x_override=1, allow_small_supergirth=True)
    assert si.supergirth_warning


def test_build_requires_equal_sides():
    lc = make_lc(1, 2, 2, 2, [(0, 0, [(0, 0)]), (0, 1, [(0, 0)])])
    with pytest.raises(InputError):
        sp.build_spanner_instance(minrep_expand(lc), 3, x_override=1)


def test_build_budget_error():
    mr = minrep_expand(ten_vertex_lc())
    with pytest.raises(ResourceError):
        sp.build_spanner_instance(mr, 3, max_edges=100)


def test_build_rejects_small_k_and_x():
    mr = minrep_expand(path_lc_tiny())
    with pytest.raises(InputError):
        sp.build_spanner_instance(mr, 2)
    with pytest.raises(InputError):
        sp.build_spanner_instance(mr, 3, x_override=0)


# --- verification -------------------------------------------------------------

def test_verify_c4_examples():
    g = cycle_graph(4)
    missing = g.edge_id(2, 3)
    h = sp.EdgeSubset(g, [e for e in range(4) if e != missing])
    ok, witness = sp.verify_spanner(g, h, 3)
    assert ok and witness is None
    ok, witness = sp.verify_spanner(g, h, 2)
    assert not ok and witness == missing


def test_verify_k4_star():
    g = complete_graph(4)
    star = [g.edge_id(0, v) for v in (1, 2, 3)]
    ok, _ = sp.verify_spanner(g, sp.EdgeSubset(g, star), 2)
    assert ok


def test_verify_host_mismatch():
    g = cycle_graph(4)
    h = sp.EdgeSubset(cycle_graph(5), [0])
    with pytest.raises(InputError):
        sp.verify_spanner(g, h, 3)


def test_verify_structured_matches_generic():
    si = tiny_instance(k=3, x=2)
    m = si.base.edge_count
    stream = Stream(99)
    subsets = [sp.EdgeSubset(si.base, range(m)), sp.EdgeSubset(si.base, [])]
    for _ in range(40):
        keep = [e for e in range(m) if stream.random() < 0.75]
        subsets.append(sp.EdgeSubset(si.base, keep))
    for h in subsets:
        assert sp.verify_spanner_structured(si, h) == sp.verify_spanner(si.base, h, si.k)


def assert_fast_paths_match(si, h):
    """Structured verdict and witness equal the generic verifier's, and the
    vectorised canonical check agrees with the scalar one on every EGt edge;
    returns the verdict."""
    result = sp.verify_spanner_structured(si, h)
    assert result == sp.verify_spanner(si.base, h, si.k)
    scalar = [sp.canonical_span_check(si, h, eid) is not None
              for eid in si.ids_by_family[sp.FAM_GT].tolist()]
    assert sp.canonical_span_mask(si, h).tolist() == scalar
    return result[0]


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_structured_fast_path_equals_exact_path(k):
    stream = Stream(7000 + k)
    verdicts = set()
    for x in (1, 2, 3):
        si = tiny_instance(k=k, x=x)
        m = si.base.edge_count
        for _ in range(30):
            keep_p = 0.5 + 0.5 * stream.random()
            h = sp.EdgeSubset(si.base, [e for e in range(m) if stream.random() < keep_p])
            verdicts.add(assert_fast_paths_match(si, h))
        assert assert_fast_paths_match(si, full_subset(si))
    assert verdicts == {True, False}


def test_structured_fast_path_on_default_x_gadget(monkeypatch):
    """Cover spanner at the default x = 25 with one or two crossing edges
    dropped: some drops are repaired by the BFS fallback, some fail."""
    lc = ten_vertex_lc()
    si = sp.build_spanner_instance(minrep_expand(lc), 3)
    cover_h = sp.spanner_from_repcover(si, value_one_cover(lc))
    crossing = np.concatenate([si.ids_by_family[sp.FAM_SA], si.ids_by_family[sp.FAM_TB]])
    crossing = crossing[cover_h.mask()[crossing]].tolist()
    bfs_calls = []
    hops = sp._hops
    monkeypatch.setattr(sp, "_hops", lambda *args: bfs_calls.append(args) or hops(*args))
    stream = Stream(11)
    outcomes = set()
    for _ in range(20):
        drop = {crossing[stream.randbelow(len(crossing))] for _ in range(1 + stream.randbelow(2))}
        h = sp.EdgeSubset(si.base, [e for e in cover_h.members.tolist() if e not in drop])
        bfs_calls.clear()
        ok, _ = sp.verify_spanner_structured(si, h)
        outcomes.add((ok, bool(bfs_calls)))
        assert_fast_paths_match(si, h)
    assert {(True, True), (False, True)} <= outcomes


def test_per_edge_criterion_equals_all_pairs():
    stream = Stream(314)
    for _ in range(25):
        g = random_graph(4 + stream.randbelow(7), 0.45, stream)
        if g.edge_count == 0:
            continue
        keep = [e for e in range(g.edge_count) if stream.random() < 0.7]
        h = sp.EdgeSubset(g, keep)
        k = 2 + stream.randbelow(3)
        assert sp.verify_spanner(g, h, k)[0] == spans_all_pairs(g, h, k)


# --- canonical paths ------------------------------------------------------------

def test_canonical_path_in_full_edge_set():
    for k in (3, 4, 5):
        si = tiny_instance(k=k)
        h = full_subset(si)
        members = set(h.members.tolist())
        for eid in si.ids_by_family[sp.FAM_GT].tolist():
            path = sp.canonical_span_check(si, h, eid)
            assert path is not None
            assert len(path) - 1 == k
            for a, b in zip(path, path[1:]):
                assert si.base.edge_id(a, b) in members
            u, v = si.base.edge(eid)
            assert {path[0], path[-1]} == {u, v}


def test_canonical_path_absent_without_crossing_edges():
    si = tiny_instance(k=3)
    h = sp.EdgeSubset(si.base, np.concatenate([
        si.ids_by_family[sp.FAM_M], si.ids_by_family[sp.FAM_GT]]))
    for eid in si.ids_by_family[sp.FAM_GT].tolist():
        assert sp.canonical_span_check(si, h, eid) is None


def test_canonical_check_rejects_non_gt_edge():
    si = tiny_instance(k=3)
    with pytest.raises(InputError):
        sp.canonical_span_check(si, full_subset(si), int(si.ids_by_family[sp.FAM_E][0]))


# --- reduction directions ---------------------------------------------------------

def value_one_cover(lc):
    from girthspan.oracles import lc_value_exact
    opt, lab = lc_value_exact(lc)
    assert opt == 1
    return labeling_to_repcover(lc, lab)


def test_spanner_from_repcover_verifies_and_bounds():
    lc = ten_vertex_lc()
    si = sp.build_spanner_instance(minrep_expand(lc), 3)   # default x = 25
    cover = value_one_cover(lc)
    h = sp.spanner_from_repcover(si, cover)
    ok, _ = sp.verify_spanner_structured(si, h)
    assert ok
    assert len(h) <= (si.k + 1) * si.x * len(cover)
    for eid in si.ids_by_family[sp.FAM_GT].tolist():
        assert sp.canonical_span_check(si, h, eid) is not None


def test_spanner_from_repcover_rejects_invalid_cover():
    si = tiny_instance(k=3)
    with pytest.raises(InputError):
        sp.spanner_from_repcover(si, RepCover.of([("A", 0, 0)]))


def make_proper_per_edge(si, h):
    """make_proper's repair rule applied one dropped EGt edge at a time, with
    scalar edge lookups: the reference for its table-driven repairs."""
    mask = h.mask().copy()
    gt_ids = si.ids_by_family[sp.FAM_GT]
    dropped = gt_ids[mask[gt_ids]]
    mask[gt_ids] = False
    keep = [np.nonzero(mask)[0], si.ids_by_family[sp.FAM_E], si.ids_by_family[sp.FAM_M],
            si.anchor_distinct]
    lc = si.source.source
    for eid in dropped.tolist():
        pos = int(np.searchsorted(gt_ids, eid))
        p, se = int(si.gt_p[pos]), int(si.gt_superedge[pos])
        i, j = lc.edge(se)
        alpha, beta = lc.relation(se).pairs[0]
        keep.append([si.base.edge_id(si.s_vertex(p, i, 1), si.source.a_vertex(i, alpha)),
                     si.base.edge_id(si.source.b_vertex(j, beta), si.t_vertex(p, j, 1))])
    return sp.EdgeSubset(si.base, np.concatenate(keep))


def test_make_proper_full_edge_set():
    for k in (3, 4, 5):
        for x in (1, 2):
            si = tiny_instance(k=k, x=x)
            full = full_subset(si)
            proper = sp.make_proper(si, full)
            assert proper == make_proper_per_edge(si, full)
            assert not set(proper.members.tolist()) & set(si.ids_by_family[sp.FAM_GT].tolist())
            ok, _ = sp.verify_spanner(si.base, proper, k)
            assert ok
            assert len(proper) <= 6 * len(full)
        # Cover stars plus every EGt edge, on a copy other than 0 and with a
        # first relation pair off the hub and cover symbols: repairs add
        # edges that are not in h.
        si = sp.build_spanner_instance(minrep_expand(ten_vertex_lc()), k, x_override=2)
        with_gt = sp.EdgeSubset(si.base, np.concatenate([
            sp.spanner_from_repcover(si, value_one_cover(si.source.source)).members,
            si.ids_by_family[sp.FAM_GT]]))
        proper = sp.make_proper(si, with_gt)
        assert len(proper) > len(with_gt) - si.ids_by_family[sp.FAM_GT].size
        assert proper == make_proper_per_edge(si, with_gt)


def test_make_proper_fixed_point():
    si = tiny_instance(k=3)
    cover = value_one_cover(si.source.source)
    h = sp.spanner_from_repcover(si, cover)
    assert sp.make_proper(si, h) == h


def test_make_proper_rejects_non_spanner():
    si = tiny_instance(k=3)
    bad = sp.EdgeSubset(si.base, si.ids_by_family[sp.FAM_E])
    with pytest.raises(InputError):
        sp.make_proper(si, bad)


def test_repcover_from_spanner_full_set():
    si = tiny_instance(k=3, x=2)
    full = full_subset(si)
    cover = sp.repcover_from_spanner(si, full)
    ok, _ = repcover_valid(si.source, cover)
    assert ok
    assert len(cover) <= 6 * len(full) / si.x


def test_round_trip_bound():
    lc = ten_vertex_lc()
    si = sp.build_spanner_instance(minrep_expand(lc), 3)
    cover = value_one_cover(lc)
    h = sp.spanner_from_repcover(si, cover)
    back = sp.repcover_from_spanner(si, h)
    ok, _ = repcover_valid(si.source, back)
    assert ok
    assert len(back) <= 6 * (si.k + 1) * len(cover)


# --- greedy baseline ---------------------------------------------------------------

def test_greedy_on_tree_returns_tree():
    g = Graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    h = sp.greedy_spanner(g, 3)
    assert len(h) == 4


def test_greedy_c4_k3():
    h = sp.greedy_spanner(cycle_graph(4), 3)
    assert len(h) == 3


def test_greedy_always_verifies_with_high_girth():
    stream = Stream(555)
    for _ in range(20):
        g = random_graph(4 + stream.randbelow(8), 0.5, stream)
        k = 2 + stream.randbelow(3)
        h = sp.greedy_spanner(g, k)
        assert sp.verify_spanner(g, h, k)[0]
        sub = Graph.from_arrays(g.vertex_count, g.edge_arrays()[0][h.members],
                                g.edge_arrays()[1][h.members])
        assert girth(sub) == INFINITY or girth(sub) > k + 1


# --- subset format -------------------------------------------------------------------

def test_subset_round_trip():
    g = cycle_graph(5)
    h = sp.EdgeSubset(g, [0, 3])
    text = sp.write_subset_text(h)
    assert text.startswith("SUBSET v1\nHOST sha256:")
    assert sp.parse_subset_text(text, g) == h


def test_subset_host_hash_mismatch():
    g = cycle_graph(5)
    text = sp.write_subset_text(sp.EdgeSubset(g, [0]))
    with pytest.raises(InputError):
        sp.parse_subset_text(text, cycle_graph(6))


def test_subset_validation():
    g = cycle_graph(4)
    with pytest.raises(InputError):
        sp.EdgeSubset(g, [99])
    with pytest.raises(InputError):
        sp.parse_subset_text("SUBSET v1\nHOST sha256:wrong\n0\n", g)


@pytest.mark.parametrize("bad", ["zero", "+1", "1_0", "-0", "1 2", "\u0661"])
def test_subset_rejects_non_decimal_ids_with_line(bad):
    g = cycle_graph(12)
    text = sp.write_subset_text(sp.EdgeSubset(g, [0])) + "\n" + bad + "\n"
    with pytest.raises(InputError, match="line 5"):
        sp.parse_subset_text(text, g)


# --- the per-line SUBSET v1 writer and parser, kept as the reference --------------

def write_subset_text_per_line(h):
    lines = ["SUBSET v1", f"HOST sha256:{graph_sha256(h.host)}"]
    lines.extend(str(int(e)) for e in h.members.tolist())
    return "\n".join(lines) + "\n"


def parse_subset_text_per_line(text, host):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "SUBSET v1":
        raise InputError("missing SUBSET v1 header")
    if len(lines) < 2 or not lines[1].startswith("HOST sha256:"):
        raise InputError("missing HOST hash line")
    expected = lines[1].split("sha256:", 1)[1]
    actual = graph_sha256(host)
    if expected != actual:
        raise InputError("subset host hash does not match the given graph")
    prev = -1
    members = []
    for ln in lines[2:]:
        e = int(ln)
        if e <= prev:
            raise InputError("subset edge ids must be sorted and distinct")
        prev = e
        members.append(e)
    return sp.EdgeSubset(host, members)


@pytest.fixture(scope="module")
def million_edge_host():
    """K_1415: 1,000,405 edges, so edge ids have 1 to 7 digits."""
    return Graph.from_arrays(1415, *np.triu_indices(1415, 1))


@given(st.integers(1, 7).flatmap(
    lambda d: st.lists(st.integers(0 if d == 1 else 10 ** (d - 1), min(10 ** d, 1_000_405) - 1),
                       max_size=40)))
@settings(max_examples=40, deadline=None)
def test_subset_text_equals_per_line_reference(million_edge_host, ids):
    h = sp.EdgeSubset(million_edge_host, ids)
    text = sp.write_subset_text(h)
    assert text == write_subset_text_per_line(h)
    assert sp.parse_subset_text(text, h.host) == h == parse_subset_text_per_line(text, h.host)


def test_subset_parser_agrees_with_reference_on_mutants():
    stream = Stream(2012)
    host = random_graph(30, 0.4, stream)
    bases = [sp.write_subset_text(sp.EdgeSubset(host, [e for e in range(host.edge_count)
                                                       if stream.random() < keep]))
             for keep in (0.0, 0.1, 0.5)]
    bases.append(f"\n \nSUBSET v1\r\n\nHOST sha256:{graph_sha256(host)}\n\t3 \n\n  12\n")
    seen = {}
    for base in bases:
        for text in text_mutants(base, stream, 500):
            case = check_mutant(lambda t: sp.parse_subset_text(t, host),
                                lambda t: parse_subset_text_per_line(t, host), text)
            seen[case] = seen.get(case, 0) + 1
    assert seen.keys() == {"accepted", "rejected", "narrowed"}, seen


def derived_role(meta, v):
    """Vertex role from gadget_meta_v2 fields, as the gadget_metadata docstring says."""
    a_block = meta["a_count"] * meta["sigma_a"]
    t_offset = meta["n"] + meta["x"] * meta["a_count"] * meta["k_a"]
    if v < a_block:
        return ["A", v // meta["sigma_a"], v % meta["sigma_a"]]
    if v < meta["n"]:
        w = v - a_block
        return ["B", w // meta["sigma_b"], w % meta["sigma_b"]]
    if v < t_offset:
        tower, level = divmod(v - meta["n"], meta["k_a"])
        p, i = divmod(tower, meta["a_count"])
        return ["S", i, level + 1, p]
    tower, level = divmod(v - t_offset, meta["k_b"])
    p, j = divmod(tower, meta["b_count"])
    return ["T", j, level + 1, p]


def derived_family(meta, u, v):
    kinds = {derived_role(meta, u)[0], derived_role(meta, v)[0]}
    if kinds <= {"A", "B"}:
        return "E"
    if len(kinds) == 1:
        return "EM"
    return {frozenset("AS"): "EsA", frozenset("BT"): "EtB",
            frozenset("ST"): "EGt"}[frozenset(kinds)]


def test_gadget_metadata_contents():
    for k, x in [(3, 2), (4, 2), (5, 3)]:
        si = tiny_instance(k=k, x=x)
        meta = json.loads(sp.write_gadget_meta_text(si))
        assert meta == sp.gadget_metadata(si)
        assert meta["schema"] == "gadget_meta_v2"
        assert "roles" not in meta and "families" not in meta
        assert meta["anchor_roster_size"] == si.n + si.x * si.n_tilde
        assert meta["family_sizes"]["EGt"] == x * 3
        # the lists gadget_meta_v1 stored follow from the v2 fields
        v1_roles = [list(si.vertex_role(v)) for v in range(si.base.vertex_count)]
        v1_families = [sp.FAMILIES[int(c)] for c in si.fam_code.tolist()]
        assert [derived_role(meta, v) for v in range(meta["vertex_count"])] == v1_roles
        assert [derived_family(meta, u, v) for u, v in si.base.edges()] == v1_families
