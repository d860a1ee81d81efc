import json
import tracemalloc
from time import perf_counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from girthspan import constructions as cons, sampling, spanner as sp
from girthspan.errors import InputError, ResourceError
from girthspan.graphs import (Graph, INFINITY, _edge_fault, girth, graph_sha256,
                              write_graph_text)
from girthspan.labelcover import (RepCover, labeling_to_repcover,
                                  minrep_expand, repcover_valid, supergraph)
from girthspan.oracles import bfs_distances, spans_all_pairs
from girthspan.rng import Stream, child_seed

from conftest import (anchor_roster_size, check_mutant, complete_graph, cycle_graph,
                      family_code, family_ids, full_subset, gadget_by_sort, hub_graph, make_graph,
                      make_lc, path_lc_tiny,
                      random_graph, text_mutants, tiny_passes, vertex_role, xor_odd_4cycle)


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
    assert anchor_roster_size(si) == 10 + 25 * 4 == 110
    assert si.anchor_distinct.size == 10 + 24 * 4
    assert family_ids(si, sp.FAM_M).size == 0
    assert family_ids(si, sp.FAM_GT).size == 25 * 3


def test_build_k5_towers():
    si = tiny_instance(k=5)
    assert (si.k_a, si.k_b) == (2, 2)
    # towers are 2-paths: one EM edge per tower
    assert family_ids(si, sp.FAM_M).size == 1 * (2 * 1 + 2 * 1)
    assert si.base.vertex_count == 8 + 1 * 2 * 4


def test_build_k4_asymmetric_towers():
    si = tiny_instance(k=4)
    assert (si.k_a, si.k_b) == (1, 2)
    assert family_ids(si, sp.FAM_M).size == 2   # only t-side towers have edges
    assert si.base.vertex_count == 8 + 1 * 2 * 3


def test_em_empty_iff_k3():
    assert family_ids(tiny_instance(k=3), sp.FAM_M).size == 0
    assert family_ids(tiny_instance(k=4), sp.FAM_M).size > 0


def test_vertex_roles_round_trip():
    si = tiny_instance(k=4, x=2)
    seen = set()
    for v in range(si.base.vertex_count):
        role = vertex_role(si, v)
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
    counts = np.bincount(family_code(si), minlength=5)
    assert counts.sum() == si.base.edge_count
    for fam in range(5):
        assert counts[fam] == si.family_sizes()[fam]
    assert sp.gadget_metadata(si)["family_sizes"] == dict(zip(sp.FAMILIES, counts.tolist()))


def test_egt_copies_are_supergraph_isomorphic():
    si = tiny_instance(k=3, x=3)
    lc = si.source.source
    assert sorted(si.gt_copies.ravel().tolist()) == family_ids(si, sp.FAM_GT).tolist()
    for p in range(3):
        per_copy = []
        for eid in si.gt_copies[p].tolist():
            (_, i, _, p_s), (_, j, _, p_t) = (vertex_role(si, v) for v in si.base.edge(eid))
            assert p_s == p_t == p
            per_copy.append((i, j))
        assert per_copy == [lc.edge(e) for e in range(lc.edge_count)]


def gadget_tables_by_lookup(si):
    """The gadget's family tables by the original derivation: one
    ``edge_ids_of`` search per family plus a sort by edge id.  The
    reference for the tables ``build_spanner_instance`` lays out in closed
    form."""
    g, mr, lc = si.base, si.source, si.source.source
    x, k_a, k_b = si.x, si.k_a, si.k_b
    a_cnt, b_cnt, sigma_a, sigma_b = lc.a_count, lc.b_count, lc.sigma_a, lc.sigma_b
    s_bases = si.n + np.arange(x * a_cnt, dtype=np.int64) * k_a
    t_bases = si._t_offset + np.arange(x * b_cnt, dtype=np.int64) * k_b
    eu, ev = mr.minrep_graph.edge_arrays()
    minrep_edges = g.edge_ids_of(eu, ev)
    ids_E = np.sort(minrep_edges)
    s_lo = (s_bases[:, None] + np.arange(k_a - 1)).ravel()
    t_lo = (t_bases[:, None] + np.arange(k_b - 1)).ravel()
    tower_s = g.edge_ids_of(s_lo, s_lo + 1)
    tower_t = g.edge_ids_of(t_lo, t_lo + 1)
    ids_M = np.sort(np.concatenate([tower_s, tower_t]))

    tower_i = np.tile(np.arange(a_cnt, dtype=np.int64), x)
    syms_a = np.arange(sigma_a, dtype=np.int64)
    ids_sA = g.edge_ids_of(np.repeat(s_bases, sigma_a),
                           (tower_i[:, None] * sigma_a + syms_a[None, :]).ravel())

    tower_j = np.tile(np.arange(b_cnt, dtype=np.int64), x)
    syms_b = np.arange(sigma_b, dtype=np.int64)
    b_block = a_cnt * sigma_a
    ids_tB = g.edge_ids_of((b_block + tower_j[:, None] * sigma_b + syms_b[None, :]).ravel(),
                           np.repeat(t_bases, sigma_b))

    ea, eb, _ = lc.edge_arrays()
    copies = np.repeat(np.arange(x, dtype=np.int64), lc.edge_count)
    ids_Gt = g.edge_ids_of(si.n + (copies * a_cnt + np.tile(ea, x)) * k_a + (k_a - 1),
                           si._t_offset + (copies * b_cnt + np.tile(eb, x)) * k_b + (k_b - 1))

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
    return {"fam_code": fam_code, "ids": ids, "minrep_edges": minrep_edges,
            "tower_s": tower_s.reshape(x, a_cnt, k_a - 1),
            "tower_t": tower_t.reshape(x, b_cnt, k_b - 1),
            "crossing_sa": ids_sA.reshape(x, a_cnt, sigma_a),
            "crossing_tb": ids_tB.reshape(x, b_cnt, sigma_b),
            "gt_copies": ids_Gt.reshape(x, lc.edge_count),
            "anchor_distinct": np.unique(np.concatenate([anchor_star, hub_a.ravel(),
                                                         hub_b.ravel()]))}


@pytest.mark.parametrize("k", [3, 4, 5, 6])
@pytest.mark.parametrize("x", [1, 2, 3])
def test_gadget_tables_equal_lookup(k, x):
    """k = 3 has no EM chunk; ten_vertex_lc has unequal alphabets (3, 2)."""
    for lc in (path_lc_tiny(), ten_vertex_lc()):
        si = sp.build_spanner_instance(minrep_expand(lc), k, x_override=x)
        ref = gadget_tables_by_lookup(si)
        assert np.array_equal(family_code(si), ref["fam_code"])
        for fam in range(5):
            assert np.array_equal(family_ids(si, fam), ref["ids"][fam])
        assert np.array_equal(si.minrep_edges, ref["ids"][sp.FAM_E])     # E ids ascend
        for name in ("minrep_edges", "tower_s", "tower_t", "crossing_sa", "crossing_tb",
                     "gt_copies", "anchor_distinct"):
            assert getattr(si, name).dtype == np.int64, name
            assert getattr(si, name).shape == ref[name].shape, name
            assert np.array_equal(getattr(si, name), ref[name]), name
        assert (k == 3) == (si.family_sizes()[sp.FAM_M] == 0)


@st.composite
def gadget_inputs(draw):
    """A random LC with |A| = |B| <= 5, alphabets <= 4 and a superedge set
    that may be empty, plus a stretch k in 3..7 and a copy count x in 1..4."""
    side = draw(st.integers(1, 5))
    sigma_a, sigma_b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    pairs = st.sets(st.tuples(st.integers(0, sigma_a - 1), st.integers(0, sigma_b - 1)),
                    min_size=1)
    edges = [(a, b, draw(pairs)) for a in range(side) for b in range(side)
             if draw(st.booleans())]
    lc = make_lc(side, side, sigma_a, sigma_b, edges)
    return lc, draw(st.integers(3, 7)), draw(st.integers(1, 4))


@settings(max_examples=150, deadline=None)
@given(gadget_inputs())
def test_closed_form_layout_equals_sort(case):
    """The closed-form layout against the sort-based derivation: the same
    vertex count and canonical edges (int32, C-contiguous, read-only),
    family codes read off the tables, family id lists, tables and anchor
    union."""
    lc, k, x = case
    mr = minrep_expand(lc)
    si = sp.build_spanner_instance(mr, k, x_override=x, allow_small_supergirth=True)
    ref = gadget_by_sort(mr, k, x)
    assert si.base.vertex_count == ref["vertex_count"]
    for ends, ref_ends in zip(si.base.edge_arrays(), (ref["lo"], ref["hi"])):
        assert ends.dtype == np.int32 and ends.flags.c_contiguous and not ends.flags.writeable
        assert np.array_equal(ends, ref_ends)
    assert np.array_equal(family_code(si), ref["fam_code"])
    for fam in range(5):
        assert np.array_equal(family_ids(si, fam), ref["ids"][fam])
    for name in ("minrep_edges", "tower_s", "tower_t", "crossing_sa", "crossing_tb",
                 "gt_copies", "anchor_distinct"):
        table = getattr(si, name)
        assert table.shape == ref[name].shape and np.array_equal(table, ref[name]), name
        assert table.flags.c_contiguous and not table.flags.writeable, name


def corrupt_and_audit(k, corruptions):
    """Set each (table, index) entry to another entry of the same table (an
    index), of a named table, to an id, or past the last edge ("m"); audit
    must name the first corrupted table."""
    si = tiny_instance(k=k, x=3)
    si.audit()
    assert si.source.source.edge_count == 3
    tables = {name: getattr(si, name).copy() for name, _, _ in corruptions}
    for name, at, value in corruptions:
        if value == "m":
            value = si.base.edge_count
        elif isinstance(value, tuple):
            source, pos = value if isinstance(value[0], str) else (name, value)
            value = getattr(si, source)[pos]
        tables[name][at] = value
    for name, table in tables.items():
        setattr(si, name, table)
    with pytest.raises(AssertionError, match=f"{corruptions[0][0]} entries do not join"):
        si.audit()
    with pytest.MonkeyPatch.context() as mp:       # one copy per block
        mp.setattr(sp, "_WRITE_ROWS", 1)
        with pytest.raises(AssertionError, match=f"{corruptions[0][0]} entries do not join"):
            si.audit()


@pytest.mark.parametrize("corruptions", [
    [("gt_copies", (0, 0), (0, 1))],            # copy 0 holds superedge 1 twice, misses 0
    [("gt_copies", (1, 2), (0, 2))],            # copy 0's edge in copy 1
    [("gt_copies", (2, 1), -1)],
    [("gt_copies", (0, 1), "m")],
    # every EGt id still occurs once, but copies 0 and 1 swap superedge 0
    [("gt_copies", (0, 0), (1, 0)), ("gt_copies", (1, 0), (0, 0))],
    [("gt_copies", (2, 0), ("crossing_sa", (2, 0, 0)))],         # an EsA edge
    [("gt_copies", (2, 2), ("crossing_tb", (2, 1, 0)))],         # an EtB edge
])
def test_audit_rejects_corrupt_egt_copies(corruptions):
    corrupt_and_audit(3, corruptions)


@pytest.mark.parametrize("k, corruptions", [
    (3, [("crossing_sa", (1, 1, 0), (1, 1, 1))]),                # another symbol
    (3, [("crossing_sa", (0, 0, 1), (2, 0, 1))]),                # another copy
    (3, [("crossing_tb", (2, 1, 1), (2, 0, 1))]),                # another tower
    (3, [("crossing_tb", (0, 0, 0), (0, 1, 1)), ("crossing_tb", (0, 1, 1), (0, 0, 0))]),
    (4, [("tower_t", (1, 0, 0), (1, 1, 0))]),                    # another t-tower's EM edge
    (5, [("tower_s", (2, 1, 0), ("tower_t", (2, 1, 0)))]),       # a t-tower's EM edge
    (5, [("tower_s", (0, 0, 0), (1, 0, 0)), ("tower_s", (1, 0, 0), (0, 0, 0))]),
    (5, [("tower_t", (0, 1, 0), ("crossing_tb", (0, 1, 0)))]),
])
def test_audit_rejects_corrupt_crossing_and_tower_tables(k, corruptions):
    corrupt_and_audit(k, corruptions)


@pytest.mark.parametrize("k, corruptions", [
    (3, [("minrep_edges", (0,), (4,)), ("minrep_edges", (4,), (0,))]),    # two E edges swapped
    (4, [("minrep_edges", (1,), (2,)), ("minrep_edges", (2,), (1,))]),
    (4, [("minrep_edges", (3,), ("crossing_sa", (0, 1, 0)))]),           # an EsA edge
    (3, [("minrep_edges", (2,), -1)]),
    (3, [("minrep_edges", (4,), "m")]),
])
def test_audit_rejects_corrupt_minrep_edges(k, corruptions):
    corrupt_and_audit(k, corruptions)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
@pytest.mark.parametrize("x", [1, 2, 3])
def test_gadget_tables_fill_each_slot_once(k, x):
    """The build's one-slot-each check: the tables hold ``edge_count``
    entries in all, so a slot written twice leaves another at its initial
    (0, 0), and ends with a (0, 0) slot anywhere are not canonical."""
    for lc in (path_lc_tiny(), ten_vertex_lc()):
        si = sp.build_spanner_instance(minrep_expand(lc), k, x_override=x)
        tables = [si.minrep_edges, si.tower_s, si.tower_t, si.crossing_sa, si.crossing_tb,
                  si.gt_copies]
        assert sum(t.size for t in tables) == sum(si.family_sizes()) == si.base.edge_count
        eu, ev = si.base.edge_arrays()
        assert _edge_fault(si.base.vertex_count, eu, ev) is None
        for slot in sorted({0, 1, eu.size // 2, eu.size - 1}):
            zu, zv = eu.copy(), ev.copy()
            zu[slot] = zv[slot] = 0
            assert _edge_fault(si.base.vertex_count, zu, zv) is not None, slot


def test_supergirth_is_stored_by_the_constructor():
    si = tiny_instance(k=3)
    assert si.supergirth == girth(supergraph(si.source.source)) == INFINITY
    fields = (si.base, si.source, si.k, si.x, si.x_is_default, si.minrep_edges, si.tower_s,
              si.tower_t, si.crossing_sa, si.crossing_tb, si.gt_copies)
    assert sp.SpannerInstance(*fields, 4).supergirth == 4


def test_audit_rejects_a_missing_copy():
    si = tiny_instance(k=3, x=3)
    si.gt_copies = si.gt_copies[:2]
    with pytest.raises(AssertionError, match="gt_copies entries"):
        si.audit()


def test_gadget_tables_are_read_only():
    si = tiny_instance(k=5, x=2)
    arrays = [getattr(si, name) for name in ("anchor_distinct", "minrep_edges", "tower_s",
                                             "tower_t", "crossing_sa", "crossing_tb",
                                             "gt_copies")]
    for arr in arrays:
        assert arr.size
        with pytest.raises(ValueError):
            arr.reshape(-1)[0] = 0


def vars3_minrep(planted=False):
    """The Min-Rep instance of the seed-7 chain at vars=3, ell=1, alpha=1,
    stripped at k + 1 = 4, from the formula ``pipeline --planted`` draws
    when ``planted``."""
    bits = cons.planted_assignment(3, 7) if planted else None
    formula = cons.gen_3sat5(3, child_seed(7, "gen"), bits)
    lc = cons.parallel_repetition(cons.regularize(cons.lc_from_3sat5(formula)), 1)
    params = sampling.SampleParams(alpha=1.0, k=4, seed=child_seed(7, "subsample"))
    return minrep_expand(sampling.strip_bad_edges(sampling.subsample(lc, params), 4))


@pytest.fixture(scope="module")
def traced_vars3_build():
    """The vars=3 default-x gadget of the seed-7 chain (96,225 edges, x =
    608, k = 3), built under tracemalloc: (instance, bytes left allocated,
    peak bytes above the start) of build_spanner_instance."""
    mr = vars3_minrep()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        si = sp.build_spanner_instance(mr, 3)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (si.base.edge_count, si.x) == (96_225, 608)
    return si, current - before, peak - before


def test_gadget_retains_under_24_bytes_per_edge(traced_vars3_build):
    """The memory build_spanner_instance leaves allocated, its graph and
    layout tables included, stays below 24 bytes per edge (17.6): int32
    ends, 8 bytes, and the int64 layout tables, about 8.  With int64 ends,
    a key array and id lists of all five families it was 42.6, and with a
    family code per edge and E and EM id lists 18.6."""
    si, retained, _ = traced_vars3_build
    assert retained / si.base.edge_count < 24


def test_gadget_build_peaks_under_44_bytes_per_edge(traced_vars3_build):
    """The traced peak of build_spanner_instance stays below 44 bytes per
    edge (26.9): each edge is written once, at its canonical position, and
    checked canonical a block at a time, beside the tables and arrays the
    instance keeps (under 24 bytes per edge).  It was 57.9 with int64 ends
    and a whole key array, and 32.0 with the audit comparing whole
    tables."""
    si, _, peak = traced_vars3_build
    assert peak / si.base.edge_count < 44


def test_gadget_audit_rises_under_6_bytes_per_edge(traced_vars3_build):
    """The audit compares each layout table in blocks of whole copies, so
    its traced allocations rise below 6 bytes per edge of the vars=3
    gadget (4.6).  Building every table's expected ends at once took
    8.6."""
    si = traced_vars3_build[0]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        si.audit()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - before) / si.base.edge_count < 6


def test_interior_tower_vertices_have_degree_two_outside_e():
    si = tiny_instance(k=7, x=2)   # k_a = k_b = 3: towers have interior vertices
    non_e = np.concatenate([family_ids(si, f) for f in
                            (sp.FAM_M, sp.FAM_SA, sp.FAM_TB, sp.FAM_GT)])
    eu, ev = si.base.edge_arrays()
    deg = np.bincount(np.concatenate([eu[non_e], ev[non_e]]),
                      minlength=si.base.vertex_count)
    interior = [v for v in range(si.base.vertex_count)
                if vertex_role(si, v)[0] in ("S", "T")
                and 1 < vertex_role(si, v)[2] < (si.k_a if vertex_role(si, v)[0] == "S"
                                                 else si.k_b)]
    assert interior
    assert all(deg[v] == 2 for v in interior)


def test_supergirth_precondition():
    mr = minrep_expand(xor_odd_4cycle())   # supergirth 4
    with pytest.raises(InputError):
        sp.build_spanner_instance(mr, 3, x_override=1)
    si = sp.build_spanner_instance(mr, 3, x_override=1, allow_small_supergirth=True)
    assert si.supergirth == 4


def test_build_requires_equal_sides():
    lc = make_lc(1, 2, 2, 2, [(0, 0, [(0, 0)]), (0, 1, [(0, 0)])])
    with pytest.raises(InputError):
        sp.build_spanner_instance(minrep_expand(lc), 3, x_override=1)


def test_build_budget_error(monkeypatch):
    mr = minrep_expand(ten_vertex_lc())
    monkeypatch.setattr(sp, "DEFAULT_MAX_GADGET_EDGES", 100)
    with pytest.raises(ResourceError):
        sp.build_spanner_instance(mr, 3)


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
    table = sp.canonical_span_mask(si, h)
    assert table.shape == si.gt_copies.shape
    for (p, e), got in np.ndenumerate(table):
        assert got == (sp.canonical_span_check(si, h, int(si.gt_copies[p, e])) is not None)
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
    dropped: some drops are repaired by the exact check, some fail."""
    lc = ten_vertex_lc()
    si = sp.build_spanner_instance(minrep_expand(lc), 3)
    cover_h = sp.spanner_from_repcover(si, value_one_cover(lc))
    crossing = np.concatenate([family_ids(si, sp.FAM_SA), family_ids(si, sp.FAM_TB)])
    crossing = crossing[cover_h.mask()[crossing]].tolist()
    bfs_calls = []
    within = sp._within
    monkeypatch.setattr(sp, "_within", lambda g, us, *args: bfs_calls.extend(us.tolist())
                        or within(g, us, *args))
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


def verify_per_edge(g, h, k):
    """Reference verifier: each missing edge in ascending id, decided by
    bfs_distances over h."""
    sub = make_graph(g.vertex_count, [g.edge(e) for e in h.members.tolist()])
    for eid in np.flatnonzero(~h.mask()).tolist():
        u, v = g.edge(eid)
        if bfs_distances(sub, u, k)[v] == INFINITY:
            return False, eid
    return True, None


def test_verify_spanner_witness_equals_per_edge_reference():
    stream = Stream(2718)
    failing = 0
    for trial in range(60):
        n = 8 + stream.randbelow(25)
        g = (hub_graph(n, [stream.randbelow(n)], 0.1, stream) if trial % 2
             else random_graph(n, 0.3, stream))
        keep = [e for e in range(g.edge_count) if stream.random() < 0.3 + 0.5 * stream.random()]
        h = sp.EdgeSubset(g, keep)
        for k in (1, 2, 3, 5):
            expected = verify_per_edge(g, h, k)
            assert sp.verify_spanner(g, h, k) == expected
            failing += not expected[0]
    assert failing >= 100


def test_verify_spanner_witness_with_tiny_passes():
    """With every pass split down to single pairs, the generic verifier
    still returns the per-edge reference's verdict and witness, and the
    structured verifier the generic one's."""
    stream = Stream(2719)
    failing = 0
    with tiny_passes():
        for trial in range(30):
            n = 8 + stream.randbelow(25)
            g = (hub_graph(n, [stream.randbelow(n)], 0.1, stream) if trial % 2
                 else random_graph(n, 0.3, stream))
            keep = [e for e in range(g.edge_count) if stream.random() < 0.3 + 0.5 * stream.random()]
            h = sp.EdgeSubset(g, keep)
            for k in (1, 2, 3, 5):
                expected = verify_per_edge(g, h, k)
                assert sp.verify_spanner(g, h, k) == expected
                failing += not expected[0]
        for k in (3, 4):
            si = tiny_instance(k=k, x=2)
            for _ in range(10):
                keep_p = 0.6 + 0.4 * stream.random()
                members = [e for e in range(si.base.edge_count) if stream.random() < keep_p]
                assert_fast_paths_match(si, sp.EdgeSubset(si.base, members))
    assert failing >= 40


def test_verify_at_a_large_stretch_costs_what_the_levels_need():
    """A cover 3-spanner verified at k = 50: every missing edge meets within
    three levels, so the check takes about the time and the memory it takes
    at k = 3.  Balls of fixed radii 24 and 25 would each hold a whole
    component."""
    lc = ten_vertex_lc()
    si = sp.build_spanner_instance(minrep_expand(lc), 3, x_override=60)
    h = sp.spanner_from_repcover(si, value_one_cover(lc))

    def cost(k):
        best = float("inf")
        for _ in range(5):
            start = perf_counter()
            assert sp.verify_spanner(si.base, h, k) == (True, None)
            best = min(best, perf_counter() - start)
        tracemalloc.start()
        try:
            sp.verify_spanner(si.base, h, k)
            return best, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    (time_3, peak_3), (time_50, peak_50) = cost(3), cost(50)
    assert peak_50 < 1.5 * peak_3
    assert time_50 < 3 * time_3


def test_first_unspanned_searches_the_sorted_subset_graph(monkeypatch):
    """The verifiers' subset graph skips the constructor's sort, since
    the members are sorted and distinct; it and its neighbour lists are the
    same."""
    searched = []
    within = sp._within
    monkeypatch.setattr(sp, "_within", lambda g, *args: searched.append(g) or within(g, *args))
    stream = Stream(4242)
    for trial in range(20):
        n = 8 + stream.randbelow(25)
        g = (hub_graph(n, [stream.randbelow(n)], 0.1, stream) if trial % 2
             else random_graph(n, 0.3, stream))
        h = sp.EdgeSubset(g, [e for e in range(g.edge_count) if stream.random() < 0.5])
        searched.clear()
        sp.verify_spanner(g, h, 2)
        eu, ev = g.edge_arrays()
        expected = Graph(n, eu[h.members], ev[h.members])
        assert all(sub == expected and sub.adjacency() == expected.adjacency()
                   for sub in searched)
        assert searched or len(h) == g.edge_count


# --- canonical paths ------------------------------------------------------------

def test_canonical_path_in_full_edge_set():
    for k in (3, 4, 5):
        si = tiny_instance(k=k)
        h = full_subset(si)
        members = set(h.members.tolist())
        for eid in family_ids(si, sp.FAM_GT).tolist():
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
        family_ids(si, sp.FAM_M), family_ids(si, sp.FAM_GT)]))
    for eid in family_ids(si, sp.FAM_GT).tolist():
        assert sp.canonical_span_check(si, h, eid) is None


def test_canonical_check_rejects_non_gt_edge():
    si = tiny_instance(k=4)
    for fam in (sp.FAM_E, sp.FAM_M, sp.FAM_SA, sp.FAM_TB):
        with pytest.raises(InputError, match="not an EGt edge"):
            sp.canonical_span_check(si, full_subset(si), int(family_ids(si, fam)[0]))


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
    for eid in family_ids(si, sp.FAM_GT).tolist():
        assert sp.canonical_span_check(si, h, eid) is not None


@pytest.mark.parametrize("k", [3, 4, 5])
def test_cover_spanner_needs_no_bfs(monkeypatch, k):
    """Anchor and canonical certificates cover every edge a cover spanner
    leaves out, so the structured verifier runs no hop search on it."""
    lc = ten_vertex_lc()
    si = sp.build_spanner_instance(minrep_expand(lc), k)
    h = sp.spanner_from_repcover(si, value_one_cover(lc))
    assert len(h) < si.base.edge_count
    monkeypatch.setattr(sp, "_within", lambda *args: pytest.fail("hop search ran"))
    assert sp.verify_spanner_structured(si, h) == (True, None)


def test_spanner_from_repcover_rejects_invalid_cover():
    si = tiny_instance(k=3)
    with pytest.raises(InputError):
        sp.spanner_from_repcover(si, RepCover([("A", 0, 0)]))


def make_proper_per_edge(si, h):
    """make_proper's repair rule applied one dropped EGt edge at a time, with
    scalar edge lookups: the reference for its table-driven repairs."""
    mask = h.mask().copy()
    gt_ids = family_ids(si, sp.FAM_GT)
    dropped = gt_ids[mask[gt_ids]]
    mask[gt_ids] = False
    keep = [np.nonzero(mask)[0], family_ids(si, sp.FAM_E), family_ids(si, sp.FAM_M),
            si.anchor_distinct]
    lc = si.source.source
    superedges = [lc.edge(e) for e in range(lc.edge_count)]
    for eid in dropped.tolist():
        (_, i, _, p), (_, j, _, _) = (vertex_role(si, v) for v in si.base.edge(eid))
        alpha, beta = lc.relation(superedges.index((i, j)))[0]
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
            assert not set(proper.members.tolist()) & set(family_ids(si, sp.FAM_GT).tolist())
            ok, _ = sp.verify_spanner(si.base, proper, k)
            assert ok
            assert len(proper) <= 6 * len(full)
        # Cover stars plus every EGt edge, on a copy other than 0 and with a
        # first relation pair off the hub and cover symbols: repairs add
        # edges that are not in h.
        si = sp.build_spanner_instance(minrep_expand(ten_vertex_lc()), k, x_override=2)
        with_gt = sp.EdgeSubset(si.base, np.concatenate([
            sp.spanner_from_repcover(si, value_one_cover(si.source.source)).members,
            family_ids(si, sp.FAM_GT)]))
        proper = sp.make_proper(si, with_gt)
        assert len(proper) > len(with_gt) - family_ids(si, sp.FAM_GT).size
        assert proper == make_proper_per_edge(si, with_gt)


def test_make_proper_fixed_point():
    si = tiny_instance(k=3)
    cover = value_one_cover(si.source.source)
    h = sp.spanner_from_repcover(si, cover)
    assert sp.make_proper(si, h) == h


def test_make_proper_rejects_non_spanner():
    si = tiny_instance(k=3)
    bad = sp.EdgeSubset(si.base, family_ids(si, sp.FAM_E))
    with pytest.raises(InputError):
        sp.make_proper(si, bad)


def test_repcover_from_spanner_full_set():
    si = tiny_instance(k=3, x=2)
    full = full_subset(si)
    cover = sp.repcover_from_spanner(si, full)
    ok, _ = repcover_valid(si.source, cover)
    assert ok
    assert len(cover) <= 6 * len(full) / si.x


def repcover_per_copy(si, h):
    """Reference for repcover_from_spanner: each copy's members from the
    endpoint roles of the proper spanner's crossing edges, one edge at a
    time; the first copy with the fewest members wins."""
    per_copy = [set() for _ in range(si.x)]
    code = family_code(si)
    for eid in sp.make_proper(si, h).members.tolist():
        if code[eid] in (sp.FAM_SA, sp.FAM_TB):
            member, tower = (vertex_role(si, v) for v in si.base.edge(eid))
            per_copy[tower[3]].add(member)
    return RepCover(min(per_copy, key=len))


def test_repcover_from_spanner_picks_the_smallest_copy():
    lc = ten_vertex_lc()
    si = sp.build_spanner_instance(minrep_expand(lc), 3, x_override=3)
    cover = value_one_cover(lc)
    h = sp.spanner_from_repcover(si, cover)
    # crossing edges to symbols that are neither hubs (symbol 0) nor in the cover
    spare = {"A": [(i, a) for i in range(2) for a in (1, 2) if ("A", i, a) not in cover.members],
             "B": [(j, 1) for j in range(2) if ("B", j, 1) not in cover.members]}
    tables = {"A": si.crossing_sa, "B": si.crossing_tb}
    assert spare["A"] and spare["B"]
    # (side, copy) of each added crossing edge; ties go to the lower copy
    for extra in ([], [("A", 1)], [("A", 2)], [("A", 1), ("A", 2)], [("A", 2), ("A", 2)],
                  [("B", 1)], [("A", 1), ("B", 2)]):
        ids = [tables[side][p][spare[side][n % len(spare[side])]]
               for n, (side, p) in enumerate(extra)]
        h_extra = sp.EdgeSubset(si.base, np.concatenate([h.members, np.array(ids, np.int64)]))
        assert sp.repcover_from_spanner(si, h_extra) == repcover_per_copy(si, h_extra)


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
    g = make_graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
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
        sub = Graph(g.vertex_count, g.edge_arrays()[0][h.members],
                                g.edge_arrays()[1][h.members])
        assert girth(sub) == INFINITY or girth(sub) > k + 1


def greedy_per_edge(g, k):
    """Reference greedy: each edge in id order, kept when bfs_distances over
    the edges kept so far puts its ends more than k hops apart."""
    chosen = []
    for eid, (u, v) in enumerate(g.edges()):
        sub = make_graph(g.vertex_count, [g.edge(e) for e in chosen])
        if bfs_distances(sub, u, k)[v] == INFINITY:
            chosen.append(eid)
    return np.array(chosen, dtype=np.int64)


def test_greedy_members_equal_per_edge_reference():
    stream = Stream(1618)
    for trial in range(30):
        n = 6 + stream.randbelow(30)
        g = (hub_graph(n, [stream.randbelow(n) for _ in range(1 + trial % 2)], 0.08, stream)
             if trial % 3 else random_graph(n, 0.35, stream))
        for k in range(1, 6):
            h = sp.greedy_spanner(g, k)
            assert np.array_equal(h.members, greedy_per_edge(g, k))
            assert h == sp.EdgeSubset(g, h.members.tolist())


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("x", [1, 2])
def test_greedy_members_equal_per_edge_reference_on_gadgets(monkeypatch, x, k):
    """Real gadgets hold what both shortcuts act on: Min-Rep hubs beside
    tower tops of one neighbour, whose queries grow the cheaper root, and
    edges with an end that has no kept edge yet, kept without a query."""
    si = sp.build_spanner_instance(vars3_minrep(), k, x_override=x)
    queries = []
    hops = sp._hops
    monkeypatch.setattr(sp, "_hops", lambda adj, u, v, cap: queries.append(u) or
                        hops(adj, u, v, cap))
    h = sp.greedy_spanner(si.base, k)
    assert np.array_equal(h.members, greedy_per_edge(si.base, k))
    assert 0 < len(queries) < si.base.edge_count


def test_greedy_round_trip_on_the_vars3_gadget():
    """Soundness on a spanner that is not proper: greedy at vars=3, default
    x, seed 7, as ``pipeline --planted`` builds it.  make_proper(H) verifies,
    the cover read from H is valid and has at most |make_proper(H)| / x
    members, and every k-spanner has |make_proper(H)| >= x * N', N' the
    non-isolated supervertices."""
    si = sp.build_spanner_instance(vars3_minrep(planted=True), 3)
    h = sp.greedy_spanner(si.base, si.k)
    proper = sp.make_proper(si, h)
    assert sp.verify_spanner_structured(si, proper)[0]
    cover = sp.repcover_from_spanner(si, h)
    assert repcover_valid(si.source, cover)[0]
    lc = si.source.source
    n_prime = int((lc.degrees_a() > 0).sum() + (lc.degrees_b() > 0).sum())
    assert si.x * n_prime <= len(proper)
    assert si.x * len(cover) <= len(proper)
    assert (si.x * n_prime, len(h), len(proper), len(cover)) == (14_592, 20_247, 19_741, 32)


# --- subset format -------------------------------------------------------------------

def test_subset_round_trip():
    g = cycle_graph(5)
    h = sp.EdgeSubset(g, [0, 3])
    text = sp.write_subset_text(h)
    assert text.startswith("SUBSET v1\nHOST sha256:")
    assert sp.parse_subset_text(text.encode("ascii"), g) == h


def test_subset_host_hash_mismatch():
    g = cycle_graph(5)
    text = sp.write_subset_text(sp.EdgeSubset(g, [0]))
    with pytest.raises(InputError):
        sp.parse_subset_text(text.encode("ascii"), cycle_graph(6))


def test_subset_validation():
    g = cycle_graph(4)
    with pytest.raises(InputError):
        sp.EdgeSubset(g, [99])
    with pytest.raises(InputError):
        sp.parse_subset_text(b"SUBSET v1\nHOST sha256:wrong\n0\n", g)


@pytest.mark.parametrize("bad", ["zero", "+1", "1_0", "-0", "1 2", "\u0661"])
def test_subset_rejects_non_decimal_ids_with_line(bad):
    g = cycle_graph(12)
    text = sp.write_subset_text(sp.EdgeSubset(g, [0])) + "\n" + bad + "\n"
    with pytest.raises(InputError, match="line 5"):
        sp.parse_subset_text(text.encode("utf-8"), g)


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
    return Graph(1415, *np.triu_indices(1415, 1))


@given(st.integers(1, 7).flatmap(
    lambda d: st.lists(st.integers(0 if d == 1 else 10 ** (d - 1), min(10 ** d, 1_000_405) - 1),
                       max_size=40)))
@settings(max_examples=40, deadline=None)
def test_subset_text_equals_per_line_reference(million_edge_host, ids):
    h = sp.EdgeSubset(million_edge_host, ids)
    text = sp.write_subset_text(h)
    assert text == write_subset_text_per_line(h)
    assert (sp.parse_subset_text(text.encode("ascii"), h.host) == h
            == parse_subset_text_per_line(text, h.host))


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


def derived_sizes(meta):
    """(k_a, k_b, a_block, n, t_offset) from gadget_meta_v5 fields, as the
    gadget_metadata docstring defines them."""
    k_a, k_b = sp._tower_heights(meta["k"])
    a_block = meta["a_count"] * meta["sigma_a"]
    n = a_block + meta["b_count"] * meta["sigma_b"]
    return k_a, k_b, a_block, n, n + meta["x"] * meta["a_count"] * k_a


def derived_counts(meta):
    """(vertex count, edge count) of the gadget from gadget_meta_v5 fields."""
    _, k_b, _, _, t_offset = derived_sizes(meta)
    return t_offset + meta["x"] * meta["b_count"] * k_b, sum(meta["family_sizes"].values())


def derived_role(meta, v):
    """Vertex role from gadget_meta_v5 fields, as the gadget_metadata docstring says."""
    k_a, k_b, a_block, n, t_offset = derived_sizes(meta)
    if v < a_block:
        return ["A", v // meta["sigma_a"], v % meta["sigma_a"]]
    if v < n:
        w = v - a_block
        return ["B", w // meta["sigma_b"], w % meta["sigma_b"]]
    if v < t_offset:
        tower, level = divmod(v - n, k_a)
        p, i = divmod(tower, meta["a_count"])
        return ["S", i, level + 1, p]
    tower, level = divmod(v - t_offset, k_b)
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


def derived_anchors(meta, g):
    """Anchor edge ids from gadget_meta_v5 fields and the gadget graph, as the
    gadget_metadata docstring says: every Min-Rep vertex's copy-0 crossing
    edge and every tower's symbol-0 crossing edge."""
    k_a, k_b, a_block, n, t_offset = derived_sizes(meta)
    us, vs = [], []
    for i in range(meta["a_count"]):
        towers = [n + (p * meta["a_count"] + i) * k_a for p in range(meta["x"])]
        symbols = [i * meta["sigma_a"] + alpha for alpha in range(meta["sigma_a"])]
        us += symbols + [symbols[0]] * meta["x"]
        vs += [towers[0]] * meta["sigma_a"] + towers
    for j in range(meta["b_count"]):
        towers = [t_offset + (p * meta["b_count"] + j) * k_b for p in range(meta["x"])]
        symbols = [a_block + j * meta["sigma_b"] + beta for beta in range(meta["sigma_b"])]
        us += symbols + [symbols[0]] * meta["x"]
        vs += [towers[0]] * meta["sigma_b"] + towers
    return sorted(set(g.edge_ids_of(np.array(us), np.array(vs)).tolist()))


GADGET_META_V5 = {"schema", "k", "x", "x_is_default", "a_count", "b_count", "sigma_a",
                  "sigma_b", "family_sizes", "source_hash"}


def test_gadget_metadata_contents():
    for k, x in [(3, 2), (4, 2), (5, 3)]:
        si = tiny_instance(k=k, x=x)
        meta = json.loads(sp.write_gadget_meta_text(sp.gadget_metadata(si)))
        assert meta == sp.gadget_metadata(si)
        assert meta["schema"] == "gadget_meta_v5"
        assert set(meta) == GADGET_META_V5
        assert set(meta["family_sizes"]) == set(sp.FAMILIES)
        assert derived_anchors(meta, si.base) == si.anchor_distinct.tolist()
        assert meta["family_sizes"]["EGt"] == x * 3
        # vertex_count and edge_count, which gadget_meta_v4 stored, follow from
        # the v5 fields and are the N and M of the gadget's GRAPH v1 header
        vertex_count, edge_count = derived_counts(meta)
        assert (vertex_count, edge_count) == (si.base.vertex_count, si.base.edge_count)
        header = write_graph_text(si.base).splitlines()[1]
        assert header == f"N {vertex_count} M {edge_count}"
        # the fields gadget_meta_v3 stored besides follow from the v5 fields
        k_a, k_b, _, n, _ = derived_sizes(meta)
        n_tilde = meta["a_count"] + meta["b_count"]
        assert (k_a, k_b, n, n_tilde) == (si.k_a, si.k_b, si.n, si.n_tilde)
        assert n + meta["x"] * n_tilde == anchor_roster_size(si)         # anchor_roster_size
        assert n + (meta["x"] - 1) * n_tilde == si.anchor_distinct.size    # anchor_distinct_size
        # anchor_choices_a and anchor_choices_b: each supervertex's symbol 0
        choices = [si.source.a_vertex(i, 0) for i in range(meta["a_count"])]
        choices += [si.source.b_vertex(j, 0) for j in range(meta["b_count"])]
        assert [derived_role(meta, v) for v in choices] == (
            [["A", i, 0] for i in range(meta["a_count"])]
            + [["B", j, 0] for j in range(meta["b_count"])])
        # the lists gadget_meta_v1 stored follow from the v5 fields
        v1_roles = [list(vertex_role(si, v)) for v in range(si.base.vertex_count)]
        v1_families = [sp.FAMILIES[int(c)] for c in family_code(si).tolist()]
        assert [derived_role(meta, v) for v in range(vertex_count)] == v1_roles
        assert [derived_family(meta, u, v) for u, v in si.base.edges()] == v1_families
