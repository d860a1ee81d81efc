"""End-to-end chain: generate -> construct -> repeat -> sample -> strip ->
expand -> reduce -> verify, with per-stage artifacts and a stats report.

All stage randomness is derived from the single master seed by mixing with
the stage name, so a (config, seed) pair fully determines every artifact
byte.  The run computes every stage before it writes any file, so a run
that fails leaves no output directory; the report then self-audits: each
artifact's parse must equal the object it was written from.
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
from .graphs import INFINITY, _graph_chunks, girth, parse_graph_text
from .labelcover import (_lc_chunks, parse_cover_text, parse_labeling_text, parse_lc_text,
                         supergraph, value, write_cover_text, write_labeling_text)
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

    The run computes every stage first, then makes ``outdir`` and writes
    every artifact, then audits: a stage that raises leaves no output
    directory behind.  The superedge budget of parallel repetition and a
    lower bound on the gadget's edges are checked before that stage, from
    the regularized instance's sizes, and raise ResourceError.
    ``self_audit`` holds, per artifact, whether its file parses back to the
    object it was written from; a false entry raises AssertionError after
    stats.json is written.

    Every artifact moves as ASCII bytes: its text is streamed to its file
    in bounded chunks (``_graph_chunks``, ``_lc_chunks``,
    ``spanner._subset_chunks``; a small format as one chunk), and the
    self-audit parses the bytes read back, so no artifact is held whole as
    a str or as a joined copy.  Writing the gadget's GRAPH chunks hashes
    them and caches the digest that the subset's header names.

    ``wall_clock_s`` accounts for the whole run: one entry per compute
    stage, its trace record included, ``write_artifacts`` for every
    artifact's text, sidecar and hash and its write, ``self_audit``, and
    ``total``, the run's wall time up to the writing of stats.json itself.
    ``peak_rss_mb`` is the peak resident set size of the process so far,
    in MiB.
    """
    t_start = time.perf_counter()
    sp.check_gadget_params(k, x_override)
    cons.check_var_count(n_vars)
    cons.check_ell(ell)
    params = sampling.SampleParams(alpha=alpha, k=k + 1, seed=child_seed(seed, "subsample"),
                                   clamp_p=clamp_p)
    outdir = Path(outdir)
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

    planted_bits = cons.planted_assignment(n_vars, seed) if planted else None
    with timed("gen_3sat5"):
        formula = cons.gen_3sat5(n_vars, child_seed(seed, "gen"), planted_bits)
        record("gen_3sat5", {"n_vars": n_vars, "planted": planted_bits is not None},
               {"clauses": formula.clause_count})

    with timed("lc_from_3sat5"):
        base = cons.lc_from_3sat5(formula)
        record("lc_from_3sat5", {}, {"a": base.a_count, "b": base.b_count,
                                     "superedges": base.edge_count,
                                     "relations": lcm.distinct_relations(base)})

    with timed("regularize"):
        regular = cons.regularize(base)
        record("regularize", {}, {"a": regular.a_count, "b": regular.b_count,
                                  "superedges": regular.edge_count,
                                  "relations": lcm.distinct_relations(regular)})

    with timed("parallel_repetition"):
        # Both budgets follow from the regularized sizes, so they are checked
        # before the product is built: sampling and stripping keep the sides
        # and alphabets, and so the gadget's towers.
        cons.check_repetition_budget(regular.edge_count, ell)
        a, b = regular.a_count ** ell, regular.b_count ** ell
        sigma_a, sigma_b = regular.sigma_a ** ell, regular.sigma_b ** ell
        x = x_override if x_override is not None else sp.default_copies(
            a * sigma_a + b * sigma_b, a + b)
        sp.check_gadget_budget(a, b, sigma_a, sigma_b, k, x)
        repeated = cons.parallel_repetition(regular, ell)
        record("parallel_repetition", {"ell": ell},
               {"a": repeated.a_count, "b": repeated.b_count,
                "sigma_a": repeated.sigma_a, "sigma_b": repeated.sigma_b,
                "superedges": repeated.edge_count,
                "relations": lcm.distinct_relations(repeated)})

    with timed("subsample"):
        sampled = sampling.subsample(repeated, params)
        p = sampling.keep_probability(repeated, params)
        deg_a, deg_b = sampling.degree_stats(sampled)
        record("subsample", {"alpha": alpha, "p": p, "strip_threshold": params.k},
               {"superedges": sampled.edge_count,
                "relations": lcm.distinct_relations(sampled)})

    with timed("strip_cycles"):
        stripped = sampling.strip_bad_edges(sampled, params.k)
        bad_count = sampled.edge_count - stripped.edge_count
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

    with timed("spanner_reduce"):
        si = sp.build_spanner_instance(minrep, k, x_override=x_override)
        record("spanner_reduce", {"k": k, "x": si.x, "x_is_default": si.x_is_default},
               {"vertices": si.base.vertex_count, "edges": si.base.edge_count,
                "anchor_roster": si.anchor_roster_size})

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
        with timed("spanner_from_cover"):
            h = sp.spanner_from_repcover(si, cover)
            bound = (k + 1) * si.x * si.n_tilde
            record("spanner_from_cover", {"cover_size": len(cover)},
                   {"spanner_edges": len(h), "bound": bound})
        with timed("spanner_verify"):
            ok, bad_edge = sp.verify_spanner_structured(si, h)
        verdicts["spanner_verifies"] = ok
        verdicts["spanner_size_within_bound"] = len(h) <= bound
        if not ok:
            report["witness_edge"] = int(bad_edge)

    report["trace"] = {"seed": seed, "stages": stages}
    report["verdicts"] = verdicts

    # (audit key, file name, object, chunk writer, parser), in write order.
    with timed("write_artifacts"):
        artifacts = [
            ("formula", "formula.cnf", formula,
             _one_chunk(lambda f: cons.write_formula_text(f, seed=seed, planted=planted_bits)),
             cons.parse_formula_text),
            *[(name, f"{name}.lc", lc, _lc_chunks, parse_lc_text)
              for name, lc in [("base", base), ("regular", regular), ("repeated", repeated),
                               ("sampled", sampled), ("stripped", stripped)]],
            ("minrep", "minrep.graph", minrep.minrep_graph, _graph_chunks, parse_graph_text),
            # Writing the gadget caches its digest, which the subset's header names.
            ("gadget", "gadget.graph", si.base, _graph_chunks, parse_graph_text),
            ("gadget_meta_sizes", "gadget.meta.json", sp.gadget_metadata(si),
             _one_chunk(sp.write_gadget_meta_text), json.loads)]
        if planted:
            artifacts += [
                ("labeling", "labeling.label", lab, _one_chunk(write_labeling_text),
                 lambda text: parse_labeling_text(text, stripped)),
                ("cover", "cover.cover", cover, _one_chunk(write_cover_text), parse_cover_text),
                ("subset", "spanner.subset", h, sp._subset_chunks,
                 lambda text: sp.parse_subset_text(text, h.host))]
        # The artifacts hold all that the writes and the audit read.  The
        # gadget's layout tables, about as large as its graph, are freed
        # here, before the audit's re-parse of that graph sets the peak.
        del si
        outdir.mkdir(parents=True, exist_ok=True)
        for _, filename, obj, chunks, _ in artifacts:
            with open(outdir / filename, "wb") as out:
                out.writelines(chunks(obj))
    # Files are written and read as bytes, so no artifact is held whole as a
    # str, and its bytes are the same on every platform.
    with timed("self_audit"):
        report["self_audit"] = {key: parser((outdir / filename).read_bytes()) == obj
                                for key, filename, obj, _, parser in artifacts}
    timings["total"] = time.perf_counter() - t_start
    report["wall_clock_s"] = {k_: round(v, 6) for k_, v in timings.items()}
    report["peak_rss_mb"] = _peak_rss_mb()
    (outdir / "stats.json").write_text(json.dumps(report, sort_keys=True, indent=1))
    if not all(report["self_audit"].values()):
        raise AssertionError(f"self audit failed: {report['self_audit']}")
    return report


def _one_chunk(writer):
    """The chunk writer of a small text format: its whole text, encoded."""
    return lambda obj: [writer(obj).encode("ascii")]


def _peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB; ``ru_maxrss``
    is in KiB on Linux and in bytes on macOS."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return round(peak / (2**20 if sys.platform == "darwin" else 2**10), 1)


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
