import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_snapshot.py"
spec = importlib.util.spec_from_file_location("bench_snapshot", TOOL)
bench_snapshot = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_snapshot)

UNTRACED = {"correct": True, "attempted": 52, "failed": 0,
            "metrics": {"run_s": {"value": 0.19, "unit": "s"}}}
TRACED = {"correct": True, "attempted": 20, "failed": 0,
          "metrics": {"spanner.verify_spanner.self_s": {"value": 0.05, "unit": "s"}}}


def run_output(final: dict) -> str:
    """Canned stdout of one bench/run.py run: comment lines, then the JSON line."""
    return ("# check-cmds seed 7: 52 ops, 0 failed, fail_ratio 0.0000\n"
            "# run_s_hi is p81 of 52 samples\n" + json.dumps(final) + "\n")


def test_assemble_keys_final_lines_by_workload_and_mode():
    outputs = {("check-cmds", "untraced"): run_output(UNTRACED),
               ("check-cmds", "traced"): run_output(TRACED),
               ("build-ell2", "untraced"): run_output({**UNTRACED, "attempted": 9})}
    doc = bench_snapshot.assemble(42, 7, 30.0, outputs)
    assert doc["pr"] == 42 and doc["seed"] == 7 and doc["seconds"] == 30.0
    assert doc["workloads"] == {
        "check-cmds": {"untraced": UNTRACED, "traced": TRACED},
        "build-ell2": {"untraced": {**UNTRACED, "attempted": 9}}}
    assert json.loads(json.dumps(doc)) == doc


def test_final_json_line_takes_the_last_object():
    stdout = run_output(UNTRACED) + run_output(TRACED) + "\n  \n"
    assert bench_snapshot.final_json_line(stdout) == TRACED
    with pytest.raises(ValueError):
        bench_snapshot.final_json_line("# no result\n")
