"""Command-line surface.

Exit codes: 0 success/verified, 1 verification failed (witness printed),
2 input or I/O error, 3 resource/budget error.  The default oracle budget can be
overridden with the GIRTHSPAN_BUDGET environment variable.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import constructions as cons
from . import oracles, pipeline, sampling
from . import spanner as sp
from .errors import InputError, ResourceError
from .graphs import _decimals, _graph_chunks, girth, parse_graph_text
from .labelcover import (_lc_chunks, minrep_expand, parse_cover_text, parse_lc_text,
                         write_cover_text, write_labeling_text)
from .pipeline import _write_chunks
from .rng import child_seed


def _budget_from_env(args) -> oracles.OracleBudget:
    if args.budget is not None:
        return oracles.OracleBudget(max_search_space=args.budget)
    env = os.environ.get("GIRTHSPAN_BUDGET")
    if env:
        return oracles.OracleBudget(max_search_space=_decimals([env], "GIRTHSPAN_BUDGET")[0])
    return oracles.OracleBudget()


def _read_lc(path):
    return parse_lc_text(Path(path).read_bytes())


def cmd_gen_3sat5(args) -> int:
    planted_bits = cons.planted_assignment(args.vars, args.seed) if args.planted else None
    formula = cons.gen_3sat5(args.vars, child_seed(args.seed, "gen"), planted_bits)
    text = cons.write_formula_text(formula, seed=args.seed, planted=planted_bits)
    _write_chunks(args.output, [text.encode("ascii")])
    print(f"wrote {args.output}: {formula.var_count} vars, "
          f"{formula.clause_count} clauses")
    return 0


def cmd_lc_from_3sat(args) -> int:
    formula = cons.parse_formula_text(Path(args.input).read_bytes())
    lc = cons.lc_from_3sat5(formula)
    _write_chunks(args.output, _lc_chunks(lc))
    print(f"wrote {args.output}: |A|={lc.a_count} |B|={lc.b_count} m={lc.edge_count}")
    return 0


def cmd_regularize(args) -> int:
    lc = _read_lc(args.input)
    out = cons.regularize(lc, require_sat5_shape=not args.any_shape)
    _write_chunks(args.output, _lc_chunks(out))
    print(f"wrote {args.output}: |A'|={out.a_count} |B'|={out.b_count} m={out.edge_count}")
    return 0


def cmd_parrep(args) -> int:
    lc = _read_lc(args.input)
    out = cons.parallel_repetition(lc, args.ell, max_superedges=args.max_superedges)
    _write_chunks(args.output, _lc_chunks(out))
    print(f"wrote {args.output}: sides {out.a_count}/{out.b_count}, "
          f"alphabets {out.sigma_a}/{out.sigma_b}, m={out.edge_count}")
    return 0


def cmd_subsample(args) -> int:
    lc = _read_lc(args.input)
    params = sampling.SampleParams(alpha=args.alpha, seed=args.seed,
                                   clamp_p=not args.no_clamp_p, d_override=args.degree)
    out = sampling.subsample(lc, params)
    _write_chunks(args.output, _lc_chunks(out))
    p = sampling.keep_probability(lc, params)
    print(f"wrote {args.output}: kept {out.edge_count}/{lc.edge_count} superedges (p={p:.6g})")
    return 0


def cmd_strip_cycles(args) -> int:
    lc = _read_lc(args.input)
    out = sampling.strip_bad_edges(lc, args.k)
    _write_chunks(args.output, _lc_chunks(out))
    print(f"wrote {args.output}: removed {lc.edge_count - out.edge_count} bad edges, "
          f"kept {out.edge_count}")
    return 0


def cmd_girth(args) -> int:
    g = parse_graph_text(Path(args.input).read_bytes())
    print(pipeline._dist_json(girth(g)))
    return 0


def cmd_minrep_expand(args) -> int:
    lc = _read_lc(args.input)
    mr = minrep_expand(lc)
    _write_chunks(args.output, _graph_chunks(mr.minrep_graph))
    print(f"wrote {args.output}: {mr.vertex_count} vertices, "
          f"{mr.minrep_graph.edge_count} edges")
    return 0


def _build_gadget(args):
    si = pipeline.rebuild_gadget(args.lc, args.k, x_override=args.x,
                                 allow_small_supergirth=args.unsafe_supergirth)
    if si.supergirth < args.k + 2:
        print(f"warning: supergirth {int(si.supergirth)} is below the required {args.k + 2}",
              file=sys.stderr)
    return si


def cmd_spanner_reduce(args) -> int:
    si = _build_gadget(args)
    _write_chunks(args.output, _graph_chunks(si.base))
    meta_path = args.meta or (str(args.output) + ".meta.json")
    meta = sp.write_gadget_meta_text(sp.gadget_metadata(si))
    _write_chunks(meta_path, [meta.encode("ascii")])
    print(f"wrote {args.output} (+ {meta_path}): {si.base.vertex_count} vertices, "
          f"{si.base.edge_count} edges, x={si.x}")
    return 0


def cmd_spanner_verify(args) -> int:
    g = parse_graph_text(Path(args.graph).read_bytes())
    h = sp.parse_subset_text(Path(args.subset).read_bytes(), g)
    ok, witness = sp.verify_spanner(g, h, args.k)
    if ok:
        print(f"valid {args.k}-spanner ({len(h)} of {g.edge_count} edges)")
        return 0
    u, v = g.edge(witness)
    print(f"NOT a {args.k}-spanner: edge {witness} = ({u}, {v}) is violated")
    return 1


def cmd_spanner_greedy(args) -> int:
    g = parse_graph_text(Path(args.graph).read_bytes())
    h = sp.greedy_spanner(g, args.k)
    _write_chunks(args.output, sp._subset_chunks(h))
    print(f"wrote {args.output}: {len(h)} of {g.edge_count} edges")
    return 0


def cmd_spanner_from_cover(args) -> int:
    si = _build_gadget(args)
    cover = parse_cover_text(Path(args.cover).read_bytes())
    h = sp.spanner_from_repcover(si, cover)
    _write_chunks(args.output, sp._subset_chunks(h))
    bound = (args.k + 1) * si.x * si.n_tilde
    print(f"wrote {args.output}: {len(h)} edges (cover size {len(cover)}, "
          f"(k+1)*x*n_tilde = {bound})")
    return 0


def cmd_cover_from_spanner(args) -> int:
    si = _build_gadget(args)
    h = sp.parse_subset_text(Path(args.subset).read_bytes(), si.base)
    cover = sp.repcover_from_spanner(si, h)
    _write_chunks(args.output, [write_cover_text(cover).encode("ascii")])
    print(f"wrote {args.output}: {len(cover)} representatives "
          f"(6|H|/x = {6 * len(h) / si.x:.2f})")
    return 0


def cmd_make_proper(args) -> int:
    si = _build_gadget(args)
    h = sp.parse_subset_text(Path(args.subset).read_bytes(), si.base)
    proper = sp.make_proper(si, h)
    _write_chunks(args.output, sp._subset_chunks(proper))
    print(f"wrote {args.output}: {len(proper)} edges (input {len(h)}, bound {6 * len(h)})")
    return 0


def cmd_solve_lc_exact(args) -> int:
    lc = _read_lc(args.input)
    opt, witness = oracles.lc_value_exact(lc, _budget_from_env(args))
    print(f"optimum {opt} ({opt.numerator}/{opt.denominator})")
    if args.output:
        _write_chunks(args.output, [write_labeling_text(witness).encode("ascii")])
        print(f"wrote witness {args.output}")
    return 0


def cmd_solve_cover_exact(args) -> int:
    lc = _read_lc(args.input)
    mr = minrep_expand(lc)
    size, cover = oracles.min_repcover_exact(mr, _budget_from_env(args))
    print(f"minimum REP-cover size {size}")
    if args.output:
        _write_chunks(args.output, [write_cover_text(cover).encode("ascii")])
        print(f"wrote witness {args.output}")
    return 0


def cmd_solve_spanner_exact(args) -> int:
    g = parse_graph_text(Path(args.graph).read_bytes())
    size, h = oracles.min_spanner_exact(g, args.k, _budget_from_env(args))
    print(f"minimum {args.k}-spanner size {size}")
    if args.output:
        _write_chunks(args.output, sp._subset_chunks(h))
        print(f"wrote witness {args.output}")
    return 0


def cmd_pipeline(args) -> int:
    report = pipeline.run_pipeline(
        args.output, n_vars=args.vars, ell=args.ell, alpha=args.alpha,
        k=args.k, seed=args.seed, planted=args.planted, x_override=args.x,
        clamp_p=not args.no_clamp_p)
    verdicts = report["verdicts"]
    for name, ok in sorted(verdicts.items()):
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    if report["flags"]["degenerate"]:
        sampled = next(stage["sizes"]["superedges"] for stage in report["trace"]["stages"]
                       if stage["name"] == "subsample")
        print(f"DEGENERATE: all {sampled} sampled superedges stripped" if sampled
              else "DEGENERATE: the sample kept no superedge")
    print(f"artifacts in {args.output}")
    return 0 if all(verdicts.values()) else 1


def cmd_stats(args) -> int:
    lc = _read_lc(args.input)
    doc = pipeline.instance_stats(lc)
    text = json.dumps(doc, sort_keys=True, indent=1)
    if args.output:
        _write_chunks(args.output, [text.encode("ascii")])
    print(text)
    return 0


def _opt(*flags, **kwargs):
    """One argument spec: ``add_argument``'s flags and keywords."""
    return flags, kwargs


# Argument specs that several commands share.
_IN = _opt("-i", "--input", required=True, help="input file")
_OUT = _opt("-o", "--output", required=True, help="output file")
_LC_IN = _opt("-i", "--input", required=True, help="LC v1 file")
_SUBSET_OUT = _opt("-o", "--output", required=True, help="SUBSET v1 output")
_HOST = _opt("--graph", required=True, help="GRAPH v1 host")
_SPANNER = _opt("--subset", required=True, help="SUBSET v1 spanner")
_STRETCH = _opt("--k", type=int, required=True, help="stretch")
_SEED = _opt("--seed", type=int, default=0, help="master seed")
_NO_CLAMP_P = _opt("--no-clamp-p", action="store_true",
                   help="error instead of clamping when p > 1")
_BUDGET = _opt("--budget", type=int, default=None, help="search-space cap (or GIRTHSPAN_BUDGET)")
_GADGET = (_opt("--lc", required=True, help="stripped LC v1 instance"),
           _opt("--k", type=int, required=True, help="stretch (>= 3)"),
           _opt("--x", type=int, default=None,
                help="copy-count override (default ceil(n^2/n_tilde))"),
           _opt("--unsafe-supergirth", action="store_true",
                help="warn instead of erroring when supergirth < k + 2"))

# (name, handler, help, argument specs), in ``--help`` order.  The parser
# holds each handler by name; ``main`` looks it up at call time.
COMMANDS = [
    ("gen-3sat5", cmd_gen_3sat5, "generate a random 3SAT(5) formula (DIMACS)", (
        _opt("--vars", type=int, required=True, help="variable count (divisible by 3)"),
        _SEED, _opt("--planted", action="store_true",
                    help="plant a satisfying assignment (seed-derived)"), _OUT)),
    ("lc-from-3sat", cmd_lc_from_3sat, "clause-variable Label Cover from a 3SAT(5) formula",
     (_IN, _OUT)),
    ("regularize", cmd_regularize, "3 copies of A, 5 copies of B: 15-regular instance", (
        _IN, _OUT, _opt("--any-shape", action="store_true",
                        help="skip the A-degree-3 / B-degree-5 check"))),
    ("parrep", cmd_parrep, "apply parallel repetition ell times", (
        _IN, _OUT, _opt("--ell", type=int, required=True, help="repetitions"),
        _opt("--max-superedges", type=int, default=cons.DEFAULT_MAX_SUPEREDGES,
             help="superedge budget"))),
    ("subsample", cmd_subsample, "keep each superedge with probability alpha*log2(sigma_A)/d", (
        _IN, _OUT, _opt("--alpha", type=float, required=True, help="sampling strength"),
        _SEED, _NO_CLAMP_P,
        _opt("--degree", type=int, default=None, help="degree override for the p formula"))),
    ("strip-cycles", cmd_strip_cycles, "remove every superedge lying on a cycle of length <= k",
     (_IN, _OUT, _opt("--k", type=int, required=True, help="cycle threshold"))),
    ("girth", cmd_girth, "print the girth of a GRAPH v1 file",
     (_opt("-i", "--input", required=True, help="GRAPH v1 file"),)),
    ("minrep-expand", cmd_minrep_expand, "expand a Label Cover instance to its Min-Rep graph",
     (_IN, _OUT)),
    ("spanner-reduce", cmd_spanner_reduce,
     "build the k-spanner gadget graph from a stripped instance", (
         *_GADGET, _opt("-o", "--output", required=True, help="GRAPH v1 output"),
         _opt("--meta", default=None, help="sidecar path (default: <output>.meta.json)"))),
    ("spanner-verify", cmd_spanner_verify,
     "check a SUBSET v1 edge set is a k-spanner (exit 1 on violation)",
     (_HOST, _opt("--subset", required=True, help="SUBSET v1 candidate"), _STRETCH)),
    ("spanner-greedy", cmd_spanner_greedy, "classical greedy k-spanner baseline",
     (_HOST, _STRETCH, _SUBSET_OUT)),
    ("spanner-from-cover", cmd_spanner_from_cover, "spanner of the gadget induced by a REP-cover",
     (*_GADGET, _opt("--cover", required=True, help="COVER v1 file"), _SUBSET_OUT)),
    ("cover-from-spanner", cmd_cover_from_spanner, "extract a REP-cover from a gadget k-spanner",
     (*_GADGET, _SPANNER, _opt("-o", "--output", required=True, help="COVER v1 output"))),
    ("make-proper", cmd_make_proper, "convert a gadget k-spanner into one without tower-top edges",
     (*_GADGET, _SPANNER, _SUBSET_OUT)),
    ("solve-lc-exact", cmd_solve_lc_exact, "exact Label Cover optimum by enumeration",
     (_LC_IN, _opt("-o", "--output", default=None, help="LABEL v1 witness"), _BUDGET)),
    ("solve-cover-exact", cmd_solve_cover_exact, "exact minimum REP-cover by subset enumeration",
     (_LC_IN, _opt("-o", "--output", default=None, help="COVER v1 witness"), _BUDGET)),
    ("solve-spanner-exact", cmd_solve_spanner_exact,
     "exact minimum k-spanner by subset enumeration", (
         _opt("--graph", required=True, help="GRAPH v1 file"), _STRETCH,
         _opt("-o", "--output", default=None, help="SUBSET v1 witness"), _BUDGET)),
    ("pipeline", cmd_pipeline,
     "full chain: generate, construct, repeat, sample, strip, reduce, verify", (
         _opt("--vars", type=int, default=3, help="3SAT(5) variables"),
         _opt("--ell", type=int, default=1, help="repetition count"),
         _opt("--alpha", type=float, default=2.0, help="sampling strength"),
         _opt("--k", type=int, default=3, help="stretch; cycles stripped at k + 1"), _SEED,
         _opt("--planted", action="store_true",
              help="plant an assignment and run the verified chain"),
         _opt("--x", type=int, default=None, help="copy-count override"), _NO_CLAMP_P,
         _opt("-o", "--output", required=True, help="artifact directory"))),
    ("stats", cmd_stats, f"{pipeline.STATS_SCHEMA} summary of an LC v1 instance",
     (_LC_IN, _opt("-o", "--output", default=None, help="JSON output path"))),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="girthspan",
        description="Label Cover / Min-Rep pipeline with girth control and "
                    "basic k-spanner gadget reductions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, blurb, options in COMMANDS:
        p = sub.add_parser(name, help=blurb, description=blurb)
        for flags, kwargs in options:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(handler=handler.__name__)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # The parser is built once per process, so it holds each command's
    # handler by name, looked up here: a patched or wrapped ``cmd_*`` runs.
    try:
        return globals()[args.handler](args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
