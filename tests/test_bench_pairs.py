import json
import subprocess
import sys
from pathlib import Path

import pytest

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


def ten_pairs(parent, change):
    """Ten pairs of run_s values (peak_rss_mb fixed at 40), side by side."""
    return pairs_of([((p, 40.0), (c, 40.0)) for p, c in zip(parent, change)])


PARENT = [0.100, 0.101, 0.102, 0.103, 0.104, 0.105, 0.106, 0.107, 0.108, 0.109]


@pytest.mark.parametrize("change, within_bound, gain", [
    # nine of ten pairs won by 0.006, above the parent's quartile gap of 0.0045
    ([p - 0.006 for p in PARENT[:9]] + [0.2], True, True),
    # ten of ten won, but by 0.001 only: inside the A/A floor
    ([p - 0.001 for p in PARENT], True, False),
    # won by far in eight pairs only
    ([p - 0.05 for p in PARENT[:8]] + [0.2, 0.2], True, False),
    # 20% slower, within the 0.25 bound, and 30% slower, past it
    ([p * 1.2 for p in PARENT], True, False),
    ([p * 1.3 for p in PARENT], False, False),
])
def test_verdicts_on_fixed_pairs(change, within_bound, gain):
    row = {r["name"]: r for r in bench_pairs.summarize(SPEC, ten_pairs(PARENT, change))}["run_s"]
    assert row["floor"] == pytest.approx(0.0045)
    assert (row["within_bound"], row["gain"]) == (within_bound, gain)
    line = bench_pairs.format_rows([row]).splitlines()[1]
    assert line.split()[-3:] == ["ok" if within_bound else "WORSE", "yes" if gain else "no",
                                 "0.0045"]


def test_verdicts_for_a_higher_is_better_metric_without_a_bound():
    pairs = pairs_of([((0.2, 40.0, 0.50 + i / 100), (0.2, 40.0, 0.60 + i / 100))
                      for i in range(10)])
    row = {r["name"]: r for r in bench_pairs.summarize(SPEC, pairs)}["ratio"]
    assert row["within_bound"] is None and row["gain"]
    assert bench_pairs.format_rows([row]).splitlines()[1].split()[-3:-1] == ["-", "yes"]
    worse = bench_pairs.summarize(SPEC, [(c, p) for p, c in pairs])
    assert not {r["name"]: r for r in worse}["ratio"]["gain"]


def traced_output(greedy_s, greedy_self_s, graphs_self_s) -> str:
    """Canned stdout of one traced bench/run.py run: per-layer metrics only."""
    metrics = {"spanner_greedy_s": {"value": greedy_s, "unit": "s"},
               "spanner.greedy_spanner.self_s": {"value": greedy_self_s, "unit": "s"},
               "graphs.self_s": {"value": graphs_self_s, "unit": "s"},
               "cli.self_s": {"value": 0.01, "unit": "s"}}
    final = {"correct": True, "attempted": 40, "failed": 0, "metrics": metrics}
    return "# check-cmds seed 7: 40 ops, 0 failed, fail_ratio 0.0000\n" + json.dumps(final) + "\n"


TRACED_SPEC = {
    "end_to_end": SPEC,
    "per_layer": [{"name": name, "unit": "s", "better": "lower"}
                  for name in ("cli.self_s", "graphs.self_s", "spanner.greedy_spanner.self_s",
                               "spanner_greedy_s")]}


def test_metric_spec_selects_the_named_metrics_of_the_mode():
    assert bench_pairs.metric_spec(TRACED_SPEC, False) == SPEC
    assert bench_pairs.metric_spec(TRACED_SPEC, False, ["peak_rss_mb"]) == [SPEC[1]]
    assert bench_pairs.metric_spec(TRACED_SPEC, True) == TRACED_SPEC["per_layer"]
    named = ["spanner_greedy_s", "spanner.greedy_spanner.self_s", "graphs.self_s"]
    assert [m["name"] for m in bench_pairs.metric_spec(TRACED_SPEC, True, named)] == named
    with pytest.raises(ValueError, match="per-layer metric of BENCHMARK.json: run_s"):
        bench_pairs.metric_spec(TRACED_SPEC, True, ["graphs.self_s", "run_s"])
    with pytest.raises(ValueError, match="end-to-end metric"):
        bench_pairs.metric_spec(TRACED_SPEC, False, ["graphs.self_s"])


def test_traced_pairs_compare_the_named_per_layer_metrics():
    """Each named metric gets its quartiles and wins, and no bound verdict."""
    named = ["spanner_greedy_s", "spanner.greedy_spanner.self_s", "graphs.self_s"]
    pairs = [(final_json_line(traced_output(0.050 + i / 1000, 0.030, 0.020 + i / 1000)),
              final_json_line(traced_output(0.040 + i / 1000, 0.024, 0.020 + i / 1000)))
             for i in range(6)]
    rows = bench_pairs.summarize(bench_pairs.metric_spec(TRACED_SPEC, True, named), pairs)
    assert [r["name"] for r in rows] == named
    greedy, greedy_self, graphs_self = rows
    assert greedy["parent"] == pytest.approx((0.05125, 0.0525, 0.05375))
    assert (greedy["wins"], greedy["pairs"], greedy["gain"]) == (6, 6, True)
    assert (greedy_self["wins"], greedy_self["floor"]) == (6, 0.0)
    assert (graphs_self["wins"], graphs_self["gain"]) == (0, False)    # ties only
    assert all(r["within_bound"] is None for r in rows)
    lines = bench_pairs.format_rows(rows).splitlines()
    assert lines[2].startswith("spanner.greedy_spanner.self_s s ")
    assert [line.split()[-3:-1] for line in lines[1:]] == [["-", "yes"], ["-", "yes"], ["-", "no"]]
    assert len({line.index(" -  ") for line in lines[1:]}) == 1        # one column
