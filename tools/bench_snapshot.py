"""Write BENCH_<pr>.json: every benchmark workload, untraced and traced.

    python3 tools/bench_snapshot.py --pr N

Runs the command of BENCHMARK.json (``python3 bench/run.py``) once per
workload with ``--trace 0`` and once with ``--trace 1``, one run at a time,
at the benchmark's reference seed and its ``run_seconds``, and keeps each
run's final JSON line: the end-to-end metrics untraced and the per-layer
metrics traced.  The file goes to the repository root.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
MODES = (("untraced", 0), ("traced", 1))


def reference_seed() -> int:
    """``REFERENCE_SEED`` of bench/workloads.py, the seed its digests were
    recorded at and the default of bench/run.py."""
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.REFERENCE_SEED


def final_json_line(stdout: str) -> dict:
    """The last stdout line that is a JSON object, as bench/run.py prints it."""
    for line in reversed(stdout.splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("no JSON line in the benchmark output")


def assemble(pr: int, seed: int, seconds: float, outputs: dict) -> dict:
    """The BENCH document from ``outputs[(workload, mode)]``, each the stdout
    of one run, in the order the runs were made."""
    workloads: dict = {}
    for (name, mode), stdout in outputs.items():
        workloads.setdefault(name, {})[mode] = final_json_line(stdout)
    return {"pr": pr, "seed": seed, "seconds": seconds,
            "python": platform.python_version(), "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    args = parser.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text())
    seed, seconds = reference_seed(), spec["run_seconds"]
    command = [sys.executable if word in ("python", "python3") else word
               for word in spec["command"]]
    outputs = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for mode, trace in MODES:
            proc = subprocess.run(
                [*command, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(f"{workload} {mode} exited {proc.returncode}:\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            outputs[(workload, mode)] = proc.stdout
            print(f"{workload} {mode}: correct={final_json_line(proc.stdout)['correct']}")
    doc = assemble(args.pr, seed, seconds, outputs)
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
