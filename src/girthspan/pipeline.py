"""End-to-end chain: generate -> construct -> repeat -> sample -> strip ->
expand -> reduce -> verify, with per-stage artifacts and a stats report.

All stage randomness is derived from the single master seed by mixing with
the stage name, so a (config, seed) pair fully determines every artifact
byte.  The report self-audits: every size it states is recomputed from the
emitted files before the report is written.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

from . import constructions as cons
from . import labelcover as lcm
from . import sampling
from . import spanner as sp
from .graphs import INFINITY, girth, parse_graph_text, write_graph_text
from .labelcover import (parse_cover_text, parse_labeling_text, parse_lc_text,
                         supergraph, value, write_cover_text, write_labeling_text,
                         write_lc_text)
from .oracles import girth_independent
from .rng import child_seed

STATS_SCHEMA = "stats_v1"


def _dist_json(d):
    return "infinity" if d == INFINITY else int(d)


def run_pipeline(outdir, n_vars=3, ell=1, alpha=2.0, k=3, seed=0,
                 planted=False, x_override=None, clamp_p=True,
                 max_superedges=cons.DEFAULT_MAX_SUPEREDGES,
                 max_gadget_edges=sp.DEFAULT_MAX_GADGET_EDGES) -> dict:
    """Run the full chain, writing artifacts into ``outdir``.

    Returns the stats report (also written as stats.json).  The spanner
    stage strips cycles at threshold k+1 first, so the reduction's
    supergirth >= k+2 hypothesis holds by construction.

    ``wall_clock_s`` accounts for the whole run: one entry per compute
    stage, ``write_artifacts`` for every artifact's text, sidecar and hash
    and its write, ``self_audit``, and ``total``, the run's wall time up to
    the writing of stats.json itself.  ``peak_rss_mb`` is the peak resident
    set size of the process so far, in MiB.
    """
    t_start = time.perf_counter()
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    trace = cons.PipelineTrace(seed=seed)
    timings = {}
    report = {"schema": STATS_SCHEMA,
              "params": {"n_vars": n_vars, "ell": ell, "alpha": alpha, "k": k,
                         "seed": seed, "planted": bool(planted),
                         "x_override": x_override, "clamp_p": bool(clamp_p)}}

    def timed(name, fn):
        t0 = time.perf_counter()
        result = fn()
        timings[name] = timings.get(name, 0.0) + time.perf_counter() - t0
        return result

    def write(filename, make_text):
        timed("write_artifacts", lambda: (outdir / filename).write_text(make_text()))

    planted_bits = cons.planted_assignment(n_vars, seed) if planted else None
    formula = timed("gen_3sat5", lambda: cons.gen_3sat5(
        n_vars, child_seed(seed, "gen"), planted_bits))
    write("formula.cnf", lambda: cons.write_formula_text(formula, seed=seed,
                                                         planted=planted_bits))
    trace.record("gen_3sat5", {"n_vars": n_vars, "planted": planted_bits is not None},
                 {"clauses": formula.clause_count})

    base = timed("lc_from_3sat5", lambda: cons.lc_from_3sat5(formula))
    write("base.lc", lambda: write_lc_text(base))
    trace.record("lc_from_3sat5", {}, {"a": base.a_count, "b": base.b_count,
                                       "superedges": base.edge_count,
                                       "relations": lcm.distinct_relations(base)})

    regular = timed("regularize", lambda: cons.regularize(base))
    write("regular.lc", lambda: write_lc_text(regular))
    trace.record("regularize", {}, {"a": regular.a_count, "b": regular.b_count,
                                    "superedges": regular.edge_count,
                                    "relations": lcm.distinct_relations(regular)})

    repeated = timed("parallel_repetition", lambda: cons.parallel_repetition(
        regular, ell, max_superedges=max_superedges))
    write("repeated.lc", lambda: write_lc_text(repeated))
    trace.record("parallel_repetition", {"ell": ell},
                 {"a": repeated.a_count, "b": repeated.b_count,
                  "sigma_a": repeated.sigma_a, "sigma_b": repeated.sigma_b,
                  "superedges": repeated.edge_count,
                  "relations": lcm.distinct_relations(repeated)})

    params = sampling.SampleParams(alpha=alpha, k=k + 1,
                                   seed=child_seed(seed, "subsample"),
                                   clamp_p=clamp_p)
    sampled = timed("subsample", lambda: sampling.subsample(repeated, params))
    write("sampled.lc", lambda: write_lc_text(sampled))
    p = timed("subsample", lambda: sampling.sample_probability(
        alpha, repeated.sigma_a, sampling.effective_degree(repeated, params), clamp_p))
    deg_a, deg_b = timed("subsample", lambda: sampling.degree_stats(sampled))
    trace.record("subsample", {"alpha": alpha, "p": p, "strip_threshold": k + 1},
                 {"superedges": sampled.edge_count,
                  "relations": lcm.distinct_relations(sampled)})

    stripped = timed("strip_cycles", lambda: sampling.strip_bad_edges(sampled, k + 1))
    bad_count = sampled.edge_count - stripped.edge_count
    write("stripped.lc", lambda: write_lc_text(stripped))
    girth_main = timed("girth_check", lambda: girth(supergraph(stripped)))
    girth_cross = timed("girth_check", lambda: girth_independent(supergraph(stripped)))
    if girth_main != girth_cross:
        raise AssertionError("girth formulations disagree on the stripped instance")
    if girth_main != INFINITY and girth_main <= k + 1:
        raise AssertionError("stripping left a short supercycle")
    report["sample_stats"] = sampling.SampleStats(
        edges_before=repeated.edge_count,
        edges_after_sample=sampled.edge_count,
        edges_after_strip=stripped.edge_count,
        bad_edge_count=bad_count,
        degrees_a=deg_a, degrees_b=deg_b,
        achieved_girth=girth_main, probability=p,
        clamped=(p == 1.0)).as_dict()
    trace.record("strip_cycles", {"threshold": k + 1},
                 {"superedges": stripped.edge_count,
                  "relations": lcm.distinct_relations(stripped), "bad_edges": bad_count,
                  "supergirth": _dist_json(girth_main)})

    minrep = timed("minrep_expand", lambda: lcm.minrep_expand(stripped))
    write("minrep.graph", lambda: write_graph_text(minrep.minrep_graph))
    trace.record("minrep_expand", {}, {"vertices": minrep.vertex_count,
                                       "edges": minrep.minrep_graph.edge_count})

    si = timed("spanner_reduce", lambda: sp.build_spanner_instance(
        minrep, k, x_override=x_override, max_edges=max_gadget_edges))
    write("gadget.graph", lambda: write_graph_text(si.base))
    write("gadget.meta.json", lambda: sp.write_gadget_meta_text(si))
    trace.record("spanner_reduce", {"k": k, "x": si.x, "x_is_default": si.x_is_default},
                 {"vertices": si.base.vertex_count, "edges": si.base.edge_count,
                  "anchor_roster": si.anchor_roster_size})

    verdicts = {"girth_cross_check": True, "supergirth_exceeds_k_plus_1": True}
    if planted:
        def planted_labeling():
            lab = cons.labeling_from_assignment(formula, planted_bits)
            lab = cons.lift_labeling(base, lab, "regularize")
            lab = cons.lift_labeling(regular, lab, "repetition", ell=ell)
            verdicts["lifted_value_one_after_sample"] = value(sampled, lab) == 1
            verdicts["lifted_value_one_after_strip"] = value(stripped, lab) == 1
            cover = lcm.labeling_to_repcover(stripped, lab)
            verdicts["labeling_cover_valid"] = lcm.repcover_valid(minrep, cover)[0]
            return lab, cover

        lab, cover = timed("planted_labeling", planted_labeling)
        write("labeling.label", lambda: write_labeling_text(lab))
        write("cover.cover", lambda: write_cover_text(cover))
        h = timed("spanner_from_cover", lambda: sp.spanner_from_repcover(si, cover))
        write("spanner.subset", lambda: sp.write_subset_text(h))
        ok, bad_edge = timed("spanner_verify",
                             lambda: sp.verify_spanner_structured(si, h))
        verdicts["spanner_verifies"] = ok
        bound = (k + 1) * si.x * si.n_tilde
        verdicts["spanner_size_within_bound"] = len(h) <= bound
        trace.record("spanner_from_cover", {"cover_size": len(cover)},
                     {"spanner_edges": len(h), "bound": bound})
        if not ok:
            report["witness_edge"] = int(bad_edge)

    report["trace"] = trace.as_dict()
    report["verdicts"] = verdicts
    report["self_audit"] = timed("self_audit", lambda: _self_audit(
        outdir, base, regular, repeated, sampled, stripped, minrep, si, planted))
    timings["total"] = time.perf_counter() - t_start
    report["wall_clock_s"] = {k_: round(v, 6) for k_, v in timings.items()}
    report["peak_rss_mb"] = _peak_rss_mb()
    (outdir / "stats.json").write_text(json.dumps(report, sort_keys=True, indent=1))
    if not all(report["self_audit"].values()):
        raise AssertionError(f"self audit failed: {report['self_audit']}")
    return report


def _peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB; ``ru_maxrss``
    is in KiB on Linux and in bytes on macOS."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return round(peak / (2**20 if sys.platform == "darwin" else 2**10), 1)


def _self_audit(outdir, base, regular, repeated, sampled, stripped, minrep, si, planted):
    """Re-parse every artifact and confirm it equals the in-memory value."""
    audit = {}
    audit["formula"] = cons.parse_formula_text(
        (outdir / "formula.cnf").read_text()).clause_count == base.a_count
    for name, obj in [("base", base), ("regular", regular), ("repeated", repeated),
                      ("sampled", sampled), ("stripped", stripped)]:
        audit[name] = parse_lc_text((outdir / f"{name}.lc").read_text()) == obj
    audit["minrep"] = parse_graph_text(
        (outdir / "minrep.graph").read_text()) == minrep.minrep_graph
    audit["gadget"] = parse_graph_text(
        (outdir / "gadget.graph").read_text()) == si.base
    meta = json.loads((outdir / "gadget.meta.json").read_text())
    audit["gadget_meta_sizes"] = (
        meta["vertex_count"] == si.base.vertex_count
        and meta["edge_count"] == si.base.edge_count
        and meta["anchor_roster_size"] == si.n + si.x * si.n_tilde)
    if planted:
        parsed_cover = parse_cover_text((outdir / "cover.cover").read_text())
        audit["cover"] = lcm.repcover_valid(minrep, parsed_cover)[0]
        parsed_lab = parse_labeling_text((outdir / "labeling.label").read_text(), stripped)
        audit["labeling"] = value(stripped, parsed_lab) == 1
        parsed_subset = sp.parse_subset_text((outdir / "spanner.subset").read_text(), si.base)
        audit["subset"] = sp.verify_spanner_structured(si, parsed_subset)[0]
    return audit


def rebuild_gadget(lc_path, k, x_override=None, allow_small_supergirth=False,
                   max_edges=sp.DEFAULT_MAX_GADGET_EDGES):
    """Deterministically rebuild the gadget from a stripped LC artifact."""
    lc = parse_lc_text(Path(lc_path).read_text())
    minrep = lcm.minrep_expand(lc)
    return sp.build_spanner_instance(minrep, k, x_override=x_override,
                                     allow_small_supergirth=allow_small_supergirth,
                                     max_edges=max_edges)


def instance_stats(lc) -> dict:
    """stats_v1 fragment for one Label Cover instance."""
    deg_a, deg_b = sampling.degree_stats(lc)
    return {
        "schema": STATS_SCHEMA,
        "a_count": lc.a_count, "b_count": lc.b_count,
        "sigma_a": lc.sigma_a, "sigma_b": lc.sigma_b,
        "superedges": lc.edge_count,
        "relation_pairs_total": int(lcm._relation_slots(lc)[1].size),
        "degrees_a": vars(deg_a), "degrees_b": vars(deg_b),
        "supergirth": _dist_json(girth(supergraph(lc))),
    }
