"""Paired benchmark runs: a parent revision against the working tree.

    python3 tools/bench_pairs.py --parent REV --workload W --pairs N [--seconds S] [--seed SEED]

Exports REV with ``git archive``, and the working tree's files that git
tracks or would track, into sibling temporary directories, then runs the
command of BENCHMARK.json (``python3 bench/run.py``) untraced, N times in each,
one run at a time.  Both sides run from an export, so neither reads its
files, caches or bytecode from the repository.  The sides alternate, and so
does which side opens a pair: the parent opens pair 0, the change pair 1,
and so on, so host drift falls on both sides alike.  Each run keeps its
final JSON line.

Prints, for each end-to-end metric of BENCHMARK.json, the median and
quartiles of each side's runs and the number of pairs the change wins (a tie
counts for neither side).  Exits 1 when a run exits nonzero or reports a
failed or incorrect op.  The exports are removed in every case.  The seed
defaults to the benchmark's reference seed and the run length to its
``run_seconds``.
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


def summarize(metrics_spec: list, pairs: list) -> list:
    """One row per end-to-end metric over ``pairs``, each a (parent, change)
    pair of final JSON lines: name, unit, each side's quartiles, the pairs the
    change wins and the pairs compared.  A metric missing from a run is left
    out of that pair."""
    rows = []
    for metric in metrics_spec:
        name, lower = metric["name"], metric["better"] == "lower"
        runs = [tuple(side["metrics"][name]["value"] for side in pair) for pair in pairs
                if all(name in side["metrics"] for side in pair)]
        if not runs:
            continue
        wins = sum((c < p) if lower else (c > p) for p, c in runs)
        rows.append({"name": name, "unit": metric["unit"],
                     "parent": quartiles([p for p, _ in runs]),
                     "change": quartiles([c for _, c in runs]),
                     "wins": wins, "pairs": len(runs)})
    return rows


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
    """The summary table, one metric a line: median [q1, q3] per side."""
    def side(q) -> str:
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
    lines = ["metric        unit   parent median [q1, q3]       change median [q1, q3]       wins"]
    for r in rows:
        change = (r["change"][1] - r["parent"][1]) / r["parent"][1] if r["parent"][1] else 0.0
        lines.append(f"{r['name']:<13} {r['unit']:<6} {side(r['parent']):<28} "
                     f"{side(r['change']):<28} {r['wins']}/{r['pairs']}  ({change:+.1%})")
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
    """(final JSON line or None, problem or None) of one untraced run in ``tree``."""
    proc = subprocess.run([*command, "--workload", args.workload, "--seed", str(args.seed),
                           "--seconds", str(args.seconds), "--trace", "0"],
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
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads(SPEC_PATH.read_text())
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
                print(f"# pair {i} {side}: run_s {final['metrics']['run_s']['value']:.4f}",
                      flush=True)
            if problems:
                break
            pairs.append((finals["parent"], finals["change"]))
    problems += failures(pairs)
    print(f"# {args.workload} seed {args.seed}, {args.seconds:g} s runs, parent {args.parent}")
    if pairs:
        print(format_rows(summarize(spec["end_to_end"], pairs)))
    for problem in problems:
        print(f"# {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
