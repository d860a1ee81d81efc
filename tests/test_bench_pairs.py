import json
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))
import bench_pairs  # noqa: E402
from bench_snapshot import final_json_line  # noqa: E402

SPEC = [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.2},
        {"name": "ratio", "unit": "ratio", "better": "higher"}]


def run_output(run_s, rss, ratio=None, failed=0) -> str:
    """Canned stdout of one untraced bench/run.py run."""
    metrics = {"run_s": {"value": run_s, "unit": "s"},
               "peak_rss_mb": {"value": rss, "unit": "MiB"}}
    if ratio is not None:
        metrics["ratio"] = {"value": ratio, "unit": "ratio"}
    final = {"correct": failed == 0, "attempted": 50, "failed": failed, "metrics": metrics}
    return ("# check-cmds seed 7: 50 ops, 0 failed, fail_ratio 0.0000\n"
            "# reference loop: 0.5 s before, 0.5 s after\n" + json.dumps(final) + "\n")


def pairs_of(rows):
    return [(final_json_line(run_output(*p)), final_json_line(run_output(*c))) for p, c in rows]


def test_summarize_gives_quartiles_and_wins_per_metric():
    pairs = pairs_of([((0.14, 40.0, 0.5), (0.10, 40.0, 0.6)),
                      ((0.13, 41.0, 0.5), (0.09, 40.0, 0.5)),
                      ((0.12, 39.0, 0.5), (0.13, 40.0, 0.4)),
                      ((0.15, 40.0, 0.5), (0.10, 40.0, 0.7)),
                      ((0.11, 40.0, 0.5), (0.08, 40.0, 0.5))])
    rows = {r["name"]: r for r in bench_pairs.summarize(SPEC, pairs)}
    run_s = rows["run_s"]
    assert run_s["unit"] == "s" and run_s["pairs"] == 5
    assert run_s["parent"] == (0.12, 0.13, 0.14)
    assert run_s["change"] == (0.09, 0.10, 0.10)
    assert run_s["wins"] == 4                  # one pair lost
    assert rows["peak_rss_mb"]["wins"] == 1    # ties count for neither side
    assert rows["ratio"]["wins"] == 2          # higher is better
    table = bench_pairs.format_rows(list(rows.values()))
    assert "0.13 [0.12, 0.14]" in table and "4/5" in table and "-23.1%" in table
    assert bench_pairs.failures(pairs) == []


def test_metrics_missing_from_a_run_leave_that_pair_out():
    pairs = pairs_of([((0.2, 40.0), (0.1, 40.0, 0.5)),
                      ((0.2, 40.0, 0.5), (0.1, 40.0, 0.6))])
    rows = {r["name"]: r for r in bench_pairs.summarize(SPEC, pairs)}
    assert rows["run_s"]["pairs"] == 2
    assert rows["ratio"]["pairs"] == 1 and rows["ratio"]["parent"] == (0.5, 0.5, 0.5)
    assert "ratio" not in {r["name"] for r in bench_pairs.summarize(SPEC, pairs[:1])}


def test_failed_ops_are_reported_per_pair_and_side():
    pairs = pairs_of([((0.2, 40.0), (0.1, 40.0)),
                      ((0.2, 40.0), (0.1, 40.0, None, 3))])
    assert bench_pairs.failures(pairs) == [
        "pair 1 change: 3 of 50 ops failed, correct=False"]


def test_export_worktree_copies_the_files_git_would_track(tmp_path):
    """The change side runs from a copy of the tracked and unignored files:
    edits and new files come along, ignored files and deleted ones do not."""
    root, dest = tmp_path / "tree", tmp_path / "export"
    (root / "src" / "pkg").mkdir(parents=True)
    dest.mkdir()
    files = {".gitignore": "/bench/_work/\n__pycache__/\n", "src/pkg/a.py": "A = 1\n",
             "gone.py": "", "bench/_work/out.json": "{}", "src/pkg/__pycache__/a.pyc": "x"}
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    subprocess.run(["git", "init", "-q", str(root)], check=True)
    subprocess.run(["git", "add", ".gitignore", "src/pkg/a.py", "gone.py"], cwd=root, check=True)
    (root / "src" / "pkg" / "a.py").write_text("A = 2\n")     # edited, not staged
    (root / "new.py").write_text("B = 1\n")                  # untracked
    (root / "gone.py").unlink()                              # tracked, deleted
    bench_pairs.export_worktree(root, dest)
    copied = sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file())
    assert copied == [".gitignore", "new.py", "src/pkg/a.py"]
    assert (dest / "src" / "pkg" / "a.py").read_text() == "A = 2\n"
