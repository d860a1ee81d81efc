"""Paired benchmark runs: a parent revision against the working tree.

    python3 tools/bench_pairs.py --parent REV --workload W --pairs N [--seconds S] [--seed SEED]
                                 [--trace] [--metric NAME ...]

Exports REV with ``git archive``, and the working tree's files that git
tracks or would track, into sibling temporary directories, then runs the
command of BENCHMARK.json (``python3 bench/run.py``) N times in each, one
run at a time: untraced, or traced (``--trace 1``) with ``--trace``.  Both
sides run from an export, so neither reads its files, caches or bytecode
from the repository.  The sides alternate, and so does which side opens a
pair: the parent opens pair 0, the change pair 1, and so on, so host drift
falls on both sides alike.  Each run keeps its final JSON line.

Prints, for each end-to-end metric of BENCHMARK.json (each per-layer one
with ``--trace``; only those named by ``--metric`` when any are), the median
and quartiles of each side's runs, the number of pairs the change wins (a tie
counts for neither side), and two verdicts.  ``bound`` says whether the
change's median is worse than the parent's by no more than the metric's
relative ``bound`` ("ok"), or by more ("WORSE"; "-" for a metric without a
bound, as every per-layer metric is).  ``gain`` says whether a gain would
count: the change wins at least nine tenths of the pairs, and its median is
better than the parent's by more than the A/A floor, the distance between
the quartiles of the parent's own runs, which ``floor`` prints.  Exits 1
when a run exits nonzero or reports a failed or incorrect op.  The exports
are removed in every case.  The seed defaults to the benchmark's reference
seed and the run length to its ``run_seconds``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_snapshot import ROOT, SPEC_PATH, final_json_line, reference_seed

SIDES = ("parent", "change")


def quartiles(values) -> tuple:
    """(first quartile, median, third quartile) of ``values``."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def metric_spec(spec: dict, trace: bool, names=()) -> list:
    """The metrics to compare: the per-layer ones of BENCHMARK.json ``spec``
    for traced runs, else the end-to-end ones; only those in ``names``, in
    that order, when it names any.  A name that is not among them raises
    ValueError."""
    metrics = spec["per_layer" if trace else "end_to_end"]
    if not names:
        return metrics
    by_name = {m["name"]: m for m in metrics}
    unknown = [name for name in names if name not in by_name]
    if unknown:
        kind = "per-layer" if trace else "end-to-end"
        raise ValueError(f"not a {kind} metric of BENCHMARK.json: {', '.join(unknown)}")
    return [by_name[name] for name in names]


def summarize(metrics_spec: list, pairs: list) -> list:
    """One row per metric of ``metrics_spec`` over ``pairs``, each a (parent,
    change) pair of final JSON lines: name, unit, each side's quartiles, the
    pairs the change wins, the pairs compared and the two verdicts
    (``verdicts``).  A metric missing from a run is left out of that pair."""
    rows = []
    for metric in metrics_spec:
        name, lower = metric["name"], metric["better"] == "lower"
        runs = [tuple(side["metrics"][name]["value"] for side in pair) for pair in pairs
                if all(name in side["metrics"] for side in pair)]
        if not runs:
            continue
        wins = sum((c < p) if lower else (c > p) for p, c in runs)
        row = {"name": name, "unit": metric["unit"],
               "parent": quartiles([p for p, _ in runs]),
               "change": quartiles([c for _, c in runs]),
               "wins": wins, "pairs": len(runs)}
        rows.append({**row, **verdicts(row, lower, metric.get("bound"))})
    return rows


def verdicts(row: dict, lower: bool, bound) -> dict:
    """The verdicts on a summary row of a metric for which lower (or higher)
    is better.  ``within_bound``: the change's median is worse than the
    parent's by at most ``bound`` times the parent's median (None without a
    bound).  ``gain``: the change wins at least nine tenths of the pairs and
    its median is better than the parent's by more than ``floor``, the
    distance between the parent's quartiles."""
    (p_lo, parent, p_hi), change = row["parent"], row["change"][1]
    better_by = parent - change if lower else change - parent
    floor = p_hi - p_lo
    return {"within_bound": None if bound is None else -better_by <= bound * abs(parent),
            "gain": 10 * row["wins"] >= 9 * row["pairs"] and better_by > floor,
            "floor": floor}


def failures(pairs: list) -> list:
    """What went wrong in the runs: failed or incorrect ops, per side and pair."""
    problems = []
    for i, pair in enumerate(pairs):
        for side, final in zip(SIDES, pair):
            if final["failed"] or not final["correct"]:
                problems.append(f"pair {i} {side}: {final['failed']} of "
                                f"{final['attempted']} ops failed, correct={final['correct']}")
    return problems


def format_rows(rows: list) -> str:
    """The summary table, one metric a line: median [q1, q3] per side, the
    pairs won with the median's relative change, and the verdicts."""
    def side(q) -> str:
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
    name = max([13] + [len(r["name"]) for r in rows])    # per-layer names run longer
    width = name + 86
    head = (f"{'metric':<{name}} unit   parent median [q1, q3]         change median [q1, q3]"
            "         wins")
    lines = [f"{head:<{width}} bound  gain  floor"]
    for r in rows:
        change = (r["change"][1] - r["parent"][1]) / r["parent"][1] if r["parent"][1] else 0.0
        cells = (f"{r['name']:<{name}} {r['unit']:<6} {side(r['parent']):<30} "
                 f"{side(r['change']):<30} {r['wins']}/{r['pairs']}  ({change:+.1%})")
        bound = {None: "-", True: "ok", False: "WORSE"}[r["within_bound"]]
        lines.append(f"{cells:<{width}} {bound:<6} {'yes' if r['gain'] else 'no':<5} "
                     f"{r['floor']:.4g}")
    return "\n".join(lines)


def export(rev: str, dest: Path) -> None:
    """The files of ``rev`` written under ``dest``, without a git checkout."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def export_worktree(root: Path, dest: Path) -> None:
    """The working tree's files under ``dest``: those git tracks and the
    untracked ones it does not ignore, as ``git ls-files`` lists them.  A
    tracked file deleted from the tree is left out."""
    listing = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                              "--exclude-standard"], cwd=root, capture_output=True,
                             check=True).stdout
    for name in filter(None, listing.decode().split("\0")):
        if (root / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, dest / name)


def run_once(command: list, tree: Path, args) -> tuple:
    """(final JSON line or None, problem or None) of one run in ``tree``,
    traced when ``args.trace`` is set."""
    proc = subprocess.run([*command, "--workload", args.workload, "--seed", str(args.seed),
                           "--seconds", str(args.seconds), "--trace", str(int(args.trace))],
                          cwd=tree, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        return None, f"exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
    return final_json_line(proc.stdout), None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trace", action="store_true",
                        help="trace the runs and compare per-layer metrics")
    parser.add_argument("--metric", action="append", default=[],
                        help="a metric to compare (repeatable; default: all)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads(SPEC_PATH.read_text())
    try:
        metrics = metric_spec(spec, args.trace, args.metric)
    except ValueError as exc:
        parser.error(str(exc))
    lead = metrics[0]["name"]
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.seed is None:
        args.seed = reference_seed()
    command = [sys.executable if word in ("python", "python3") else word
               for word in spec["command"]]
    pairs, problems = [], []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        # Equal-length sibling paths, so the sides differ only in their files.
        trees = {side: Path(tmp) / side for side in SIDES}
        for tree in trees.values():
            tree.mkdir()
        try:
            export(args.parent, trees["parent"])
            export_worktree(ROOT, trees["change"])
        except subprocess.CalledProcessError as exc:
            print(f"cannot export: {exc.stderr.decode(errors='replace').strip()}",
                  file=sys.stderr)
            return 2
        for i in range(args.pairs):
            finals = {}
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                final, problem = run_once(command, trees[side], args)
                if problem:
                    problems.append(f"pair {i} {side} {problem}")
                    break
                finals[side] = final
                print(f"# pair {i} {side}: {lead} {final['metrics'][lead]['value']:.4f}",
                      flush=True)
            if problems:
                break
            pairs.append((finals["parent"], finals["change"]))
    problems += failures(pairs)
    print(f"# {args.workload} seed {args.seed}, {args.seconds:g} s "
          f"{'traced ' if args.trace else ''}runs, parent {args.parent}")
    if pairs:
        print(format_rows(summarize(metrics, pairs)))
    for problem in problems:
        print(f"# {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
