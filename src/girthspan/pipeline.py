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
from contextlib import contextmanager
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
                 planted=False, x_override=None, clamp_p=True) -> dict:
    """Run the full chain, writing artifacts into ``outdir``.

    Returns the stats report (also written as stats.json).  A stretch
    below 3, a copy count below 1, a variable count that is not a positive
    multiple of 3, an ell below 1 or an alpha that is not positive and
    finite raises InputError before ``outdir`` is made.  The spanner
    stage strips cycles at threshold k+1 first, so the reduction's
    supergirth >= k+2 hypothesis holds by construction.  ``degenerate``
    flags a run whose strip removed every sampled superedge: its verdicts
    then hold of an empty instance and prove nothing.

    ``wall_clock_s`` accounts for the whole run: one entry per compute
    stage, its trace record included, ``write_artifacts`` for every
    artifact's text, sidecar and hash and its write, ``self_audit``, and
    ``total``, the run's wall time up to the writing of stats.json itself.  ``peak_rss_mb`` is the peak resident
    set size of the process so far, in MiB.
    """
    t_start = time.perf_counter()
    sp.check_gadget_params(k, x_override)
    cons.check_var_count(n_vars)
    cons.check_ell(ell)
    params = sampling.SampleParams(alpha=alpha, k=k + 1, seed=child_seed(seed, "subsample"),
                                   clamp_p=clamp_p)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    stages = []
    timings = {}
    report = {"schema": STATS_SCHEMA,
              "params": {"n_vars": n_vars, "ell": ell, "alpha": alpha, "k": k,
                         "seed": seed, "planted": bool(planted),
                         "x_override": x_override, "clamp_p": bool(clamp_p)}}

    def record(name, stage_params, sizes):
        stages.append({"name": name, "params": stage_params, "sizes": sizes})

    @contextmanager
    def timed(name):
        t0 = time.perf_counter()
        yield
        timings[name] = timings.get(name, 0.0) + time.perf_counter() - t0

    def write(filename, make_text):
        with timed("write_artifacts"):
            (outdir / filename).write_text(make_text())

    planted_bits = cons.planted_assignment(n_vars, seed) if planted else None
    with timed("gen_3sat5"):
        formula = cons.gen_3sat5(n_vars, child_seed(seed, "gen"), planted_bits)
        record("gen_3sat5", {"n_vars": n_vars, "planted": planted_bits is not None},
               {"clauses": formula.clause_count})
    write("formula.cnf", lambda: cons.write_formula_text(formula, seed=seed,
                                                         planted=planted_bits))

    with timed("lc_from_3sat5"):
        base = cons.lc_from_3sat5(formula)
        record("lc_from_3sat5", {}, {"a": base.a_count, "b": base.b_count,
                                     "superedges": base.edge_count,
                                     "relations": lcm.distinct_relations(base)})
    write("base.lc", lambda: write_lc_text(base))

    with timed("regularize"):
        regular = cons.regularize(base)
        record("regularize", {}, {"a": regular.a_count, "b": regular.b_count,
                                  "superedges": regular.edge_count,
                                  "relations": lcm.distinct_relations(regular)})
    write("regular.lc", lambda: write_lc_text(regular))

    with timed("parallel_repetition"):
        repeated = cons.parallel_repetition(regular, ell)
        record("parallel_repetition", {"ell": ell},
               {"a": repeated.a_count, "b": repeated.b_count,
                "sigma_a": repeated.sigma_a, "sigma_b": repeated.sigma_b,
                "superedges": repeated.edge_count,
                "relations": lcm.distinct_relations(repeated)})
    write("repeated.lc", lambda: write_lc_text(repeated))

    with timed("subsample"):
        sampled = sampling.subsample(repeated, params)
        p = sampling.keep_probability(repeated, params)
        deg_a, deg_b = sampling.degree_stats(sampled)
        record("subsample", {"alpha": alpha, "p": p, "strip_threshold": params.k},
               {"superedges": sampled.edge_count,
                "relations": lcm.distinct_relations(sampled)})
    write("sampled.lc", lambda: write_lc_text(sampled))

    with timed("strip_cycles"):
        stripped = sampling.strip_bad_edges(sampled, params.k)
        bad_count = sampled.edge_count - stripped.edge_count
    write("stripped.lc", lambda: write_lc_text(stripped))
    with timed("girth_check"):
        girth_main = girth(supergraph(stripped))
        girth_cross = girth_independent(supergraph(stripped))
        if girth_main != girth_cross:
            raise AssertionError("girth formulations disagree on the stripped instance")
        if girth_main != INFINITY and girth_main <= params.k:
            raise AssertionError("stripping left a short supercycle")
    with timed("strip_cycles"):
        report["sample_stats"] = {
            "edges_before": repeated.edge_count,
            "edges_after_sample": sampled.edge_count,
            "edges_after_strip": stripped.edge_count,
            "bad_edge_count": bad_count,
            "degrees_a": deg_a, "degrees_b": deg_b,
            "achieved_girth": _dist_json(girth_main), "probability": p,
            "clamped": p == 1.0}
        report["degenerate"] = {
            "flag": stripped.edge_count == 0 < sampled.edge_count,
            "edges_after_sample": sampled.edge_count,
            "edges_after_strip": stripped.edge_count}
        record("strip_cycles", {"threshold": params.k},
               {"superedges": stripped.edge_count,
                "relations": lcm.distinct_relations(stripped), "bad_edges": bad_count,
                "supergirth": _dist_json(girth_main)})

    with timed("minrep_expand"):
        minrep = lcm.minrep_expand(stripped)
        record("minrep_expand", {}, {"vertices": minrep.vertex_count,
                                     "edges": minrep.minrep_graph.edge_count})
    write("minrep.graph", lambda: write_graph_text(minrep.minrep_graph))

    with timed("spanner_reduce"):
        si = sp.build_spanner_instance(minrep, k, x_override=x_override)
        record("spanner_reduce", {"k": k, "x": si.x, "x_is_default": si.x_is_default},
               {"vertices": si.base.vertex_count, "edges": si.base.edge_count,
                "anchor_roster": si.anchor_roster_size})
    write("gadget.graph", lambda: write_graph_text(si.base))
    write("gadget.meta.json", lambda: sp.write_gadget_meta_text(si))

    verdicts = {"girth_cross_check": True, "supergirth_exceeds_k_plus_1": True}
    if planted:
        with timed("planted_labeling"):
            lab = cons.labeling_from_assignment(formula, planted_bits)
            lab = cons.lift_regularize(base, lab)
            lab = cons.lift_repetition(regular, lab, ell)
            verdicts["lifted_value_one_after_sample"] = value(sampled, lab) == 1
            verdicts["lifted_value_one_after_strip"] = value(stripped, lab) == 1
            cover = lcm.labeling_to_repcover(stripped, lab)
            verdicts["labeling_cover_valid"] = lcm.repcover_valid(minrep, cover)[0]
        write("labeling.label", lambda: write_labeling_text(lab))
        write("cover.cover", lambda: write_cover_text(cover))
        with timed("spanner_from_cover"):
            h = sp.spanner_from_repcover(si, cover)
            bound = (k + 1) * si.x * si.n_tilde
            record("spanner_from_cover", {"cover_size": len(cover)},
                   {"spanner_edges": len(h), "bound": bound})
        write("spanner.subset", lambda: sp.write_subset_text(h))
        with timed("spanner_verify"):
            ok, bad_edge = sp.verify_spanner_structured(si, h)
        verdicts["spanner_verifies"] = ok
        verdicts["spanner_size_within_bound"] = len(h) <= bound
        if not ok:
            report["witness_edge"] = int(bad_edge)

    report["trace"] = {"seed": seed, "stages": stages}
    report["verdicts"] = verdicts
    with timed("self_audit"):
        report["self_audit"] = _self_audit(
            outdir, base, regular, repeated, sampled, stripped, minrep, si, planted)
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
    """Re-parse every artifact and confirm it equals the in-memory value.

    Files are read as bytes and decoded whole, with no newline translation.
    This run wrote them with ``write_text``, so on POSIX the text is the one
    written; elsewhere its line ends read as ``\\r\\n``, which every text
    format takes as one line end.
    """
    def read(name):
        return (outdir / name).read_bytes().decode()

    audit = {}
    audit["formula"] = cons.parse_formula_text(read("formula.cnf")).clause_count == base.a_count
    for name, obj in [("base", base), ("regular", regular), ("repeated", repeated),
                      ("sampled", sampled), ("stripped", stripped)]:
        audit[name] = parse_lc_text(read(f"{name}.lc")) == obj
    audit["minrep"] = parse_graph_text(read("minrep.graph")) == minrep.minrep_graph
    audit["gadget"] = parse_graph_text(read("gadget.graph")) == si.base
    meta = json.loads(read("gadget.meta.json"))
    audit["gadget_meta_sizes"] = (
        meta["vertex_count"] == si.base.vertex_count
        and meta["edge_count"] == si.base.edge_count
        and meta["anchor_roster_size"] == si.n + si.x * si.n_tilde)
    if planted:
        parsed_cover = parse_cover_text(read("cover.cover"))
        audit["cover"] = lcm.repcover_valid(minrep, parsed_cover)[0]
        parsed_lab = parse_labeling_text(read("labeling.label"), stripped)
        audit["labeling"] = value(stripped, parsed_lab) == 1
        parsed_subset = sp.parse_subset_text(read("spanner.subset"), si.base)
        audit["subset"] = sp.verify_spanner_structured(si, parsed_subset)[0]
    return audit


def rebuild_gadget(lc_path, k, x_override=None, allow_small_supergirth=False):
    """Deterministically rebuild the gadget from a stripped LC artifact."""
    lc = parse_lc_text(Path(lc_path).read_text())
    minrep = lcm.minrep_expand(lc)
    return sp.build_spanner_instance(minrep, k, x_override=x_override,
                                     allow_small_supergirth=allow_small_supergirth)


def instance_stats(lc) -> dict:
    """stats_v1 fragment for one Label Cover instance."""
    deg_a, deg_b = sampling.degree_stats(lc)
    return {
        "schema": STATS_SCHEMA,
        "a_count": lc.a_count, "b_count": lc.b_count,
        "sigma_a": lc.sigma_a, "sigma_b": lc.sigma_b,
        "superedges": lc.edge_count,
        "relation_pairs_total": int(lcm._relation_slots(lc)[1].size),
        "degrees_a": deg_a, "degrees_b": deg_b,
        "supergirth": _dist_json(girth(supergraph(lc))),
    }
