"""The benchmark's three workloads: set-up, one op, and the op's checks.

``build-gadget``  one ``run_pipeline`` at vars=9, ell=1 with the default copy
                  count: the reference config, a 914k-edge gadget at seed 7.
                  Spanner build, structured verify, GRAPH/SUBSET text, sha256
                  and the metadata JSON do the work.
``build-ell2``    one ``run_pipeline`` at vars=3, ell=2, x=1: parallel
                  repetition, LC write/parse, both girth formulations and the
                  bad-edge BFS do real work; the gadget stays small.
``check-cmds``    one pass of ``cli.main`` over five read-side commands on
                  inputs written at set-up: cycle stripping, the generic
                  verifier, cover extraction, make-proper and greedy.

Each workload object has ``variants`` input variants; ``prepare_op(v)``
selects one and clears the op's output directory, ``run_op`` runs the op, and
``check`` lists what differs from the recorded (seed 7) or first-seen results.

Run as a script, this module performs one set-up in a fresh interpreter and
prints its timing as JSON; ``run.py`` starts it several times per run:

    python3 bench/workloads.py <workload> <seed> <workdir>
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
EXPECTED_PATH = BENCH_DIR / "expected.json"
# Digests in expected.json were recorded at this workload seed.
REFERENCE_SEED = 7

BUILD_CONFIGS = {
    "build-gadget": dict(n_vars=9, ell=1, alpha=1, k=3, planted=True),
    # The default x needs ~4e9 gadget edges at ell=2, so x=1 keeps it at 46k.
    "build-ell2": dict(n_vars=3, ell=2, alpha=1, k=3, planted=True, x_override=1),
}
_ALL_TRUE = ("girth_cross_check", "supergirth_exceeds_k_plus_1",
             "lifted_value_one_after_sample", "lifted_value_one_after_strip",
             "labeling_cover_valid", "spanner_verifies", "spanner_size_within_bound")
EXPECTED_VERDICTS = {
    "build-gadget": dict.fromkeys(_ALL_TRUE, True),
    # The (k+1)*x*n_tilde size bound holds only for the default x, so at x=1
    # it is false by design.
    "build-ell2": {**dict.fromkeys(_ALL_TRUE, True), "spanner_size_within_bound": False},
}
# Data artifacts whose bytes must not change.  gadget.meta.json and stats.json
# are left out: their schema and timing sections are meant to change.
DIGESTED = ("formula.cnf", "base.lc", "regular.lc", "repeated.lc", "sampled.lc",
            "stripped.lc", "minrep.graph", "gadget.graph", "labeling.label",
            "cover.cover", "spanner.subset")

CHECK_X = 100
CHECK_SETS = 3
CHECK_INPUTS = ("sampled6.lc", "gadget3/gadget.graph", "gadget3/spanner.subset",
                "gadget3/stripped.lc")


def import_program() -> dict:
    """Import every girthspan layer; returns layer name -> module."""
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    from girthspan import (cli, constructions, graphs, labelcover, oracles,
                           pipeline, rng, sampling, spanner)
    return {"rng": rng, "graphs": graphs, "labelcover": labelcover,
            "constructions": constructions, "sampling": sampling,
            "spanner": spanner, "oracles": oracles, "pipeline": pipeline, "cli": cli}


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def make_check_inputs(mods: dict, seed: int, workdir: Path) -> None:
    """Write the check-cmds inputs: a vars=6, ell=2, alpha=0.5 sampled LC and
    the artifacts of a vars=3, ell=1, x=100 pipeline run (16k-edge gadget)."""
    cons, sampling, rng = mods["constructions"], mods["sampling"], mods["rng"]
    workdir.mkdir(parents=True, exist_ok=True)
    formula = cons.gen_3sat5(6, rng.child_seed(seed, "gen"), None)
    repeated = cons.parallel_repetition(cons.regularize(cons.lc_from_3sat5(formula)), 2)
    params = sampling.SampleParams(alpha=0.5, k=4, seed=rng.child_seed(seed, "subsample"))
    sampled = sampling.subsample(repeated, params)
    (workdir / "sampled6.lc").write_text(mods["labelcover"].write_lc_text(sampled))
    mods["pipeline"].run_pipeline(workdir / "gadget3", n_vars=3, ell=1, alpha=1, k=3,
                                  seed=seed, planted=True, x_override=CHECK_X)


def check_set_seed(seed: int, j: int) -> int:
    """Seed of check-cmds input set j; set 0 uses the workload seed itself."""
    return seed + 1000 * j


def setup_once(workload: str, seed: int, workdir: Path) -> float:
    """One set-up from a fresh interpreter: imports, then input generation."""
    t0 = perf_counter()
    mods = import_program()
    if workload == "check-cmds":
        for j in range(CHECK_SETS):
            make_check_inputs(mods, check_set_seed(seed, j), workdir / "inputs" / f"set{j}")
    return perf_counter() - t0


class BuildWorkload:
    """One op is one ``run_pipeline`` call with a fixed config."""

    def __init__(self, name, mods, seed, workdir, expected):
        self.name = name
        self.pipeline = mods["pipeline"]
        self.seed = seed
        self.outdir = workdir / "out"
        # Other seeds have no recorded digests; the first op's serve instead,
        # so every later op must reproduce them.
        self.digests = expected.get(name) if seed == REFERENCE_SEED else None
        self.report = None
        self.variants = 1

    def input_problems(self) -> list:
        return []

    def prepare_op(self, variant):
        shutil.rmtree(self.outdir, ignore_errors=True)
        self.outdir.mkdir(parents=True)

    def run_op(self) -> dict:
        self.report = self.pipeline.run_pipeline(self.outdir, seed=self.seed,
                                                 **BUILD_CONFIGS[self.name])
        return {}

    def observed(self) -> dict:
        return {name: sha256_file(self.outdir / name) for name in DIGESTED}

    def check(self) -> list:
        problems = []
        verdicts = self.report["verdicts"]
        if verdicts != EXPECTED_VERDICTS[self.name]:
            problems.append(f"verdicts {verdicts}")
        failed = [k for k, ok in self.report["self_audit"].items() if not ok]
        if failed:
            problems.append(f"self-audit failed: {failed}")
        observed = self.observed()
        if self.digests is None:
            self.digests = observed
        problems += [f"{name} digest differs" for name in DIGESTED
                     if observed[name] != self.digests.get(name)]
        return problems

    def artifact_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.outdir.iterdir())


class CheckCmdsWorkload:
    """One op is one pass of ``cli.main`` over five commands.

    Set-up writes CHECK_SETS input sets; op i runs on set i mod CHECK_SETS, so
    that a run's median spans several inputs, not the luck of one seed.
    """

    def __init__(self, mods, seed, workdir, expected):
        self.cli = mods["cli"]
        self.work = workdir
        self.outdir = workdir / "out"
        self.variants = CHECK_SETS
        self.commands = [self._commands(workdir / "inputs" / f"set{j}")
                         for j in range(CHECK_SETS)]
        ref = expected.get("check-cmds", {}) if seed == REFERENCE_SEED else {}
        self.input_digests = ref.get("inputs")
        # Per set: the recorded command results, or else the first op's.
        self.reference = dict(ref.get("commands", {}))
        self.variant = 0
        self.results = None

    def _commands(self, inp):
        """(command name, argv, output file or None) for one input set."""
        out = self.outdir
        gadget = ["--lc", str(inp / "gadget3/stripped.lc"), "--k", "3", "--x", str(CHECK_X),
                  "--subset", str(inp / "gadget3/spanner.subset")]
        host = ["--graph", str(inp / "gadget3/gadget.graph")]
        return [
            ("strip-cycles", ["strip-cycles", "-i", str(inp / "sampled6.lc"), "--k", "4",
                              "-o", str(out / "stripped6.lc")], "stripped6.lc"),
            ("spanner-verify", ["spanner-verify", *host, "--subset",
                                str(inp / "gadget3/spanner.subset"), "--k", "3"], None),
            ("cover-from-spanner", ["cover-from-spanner", *gadget,
                                    "-o", str(out / "cover.cover")], "cover.cover"),
            ("make-proper", ["make-proper", *gadget, "-o", str(out / "proper.subset")],
             "proper.subset"),
            ("spanner-greedy", ["spanner-greedy", *host, "--k", "3",
                                "-o", str(out / "greedy.subset")], "greedy.subset"),
        ]

    def input_problems(self) -> list:
        if self.input_digests is None:
            return []
        return [f"input set{j}/{name} digest differs"
                for j in range(CHECK_SETS) for name in CHECK_INPUTS
                if sha256_file(self.work / "inputs" / f"set{j}" / name)
                != self.input_digests.get(f"set{j}", {}).get(name)]

    def prepare_op(self, variant):
        self.variant = variant
        shutil.rmtree(self.outdir, ignore_errors=True)
        self.outdir.mkdir(parents=True)

    def run_op(self) -> dict:
        """Runs the pass; returns seconds per command."""
        self.results, times = {}, {}
        for name, argv, _ in self.commands[self.variant]:
            buf = io.StringIO()
            t0 = perf_counter()
            with contextlib.redirect_stdout(buf):
                rc = self.cli.main(argv)
            times[name] = perf_counter() - t0
            self.results[name] = (rc, buf.getvalue())
        return times

    def observed(self) -> dict:
        out = {}
        for name, _, output in self.commands[self.variant]:
            rc, stdout = self.results[name]
            out[name] = {"rc": rc,
                         "stdout": stdout.replace(str(self.work), "<work>").strip(),
                         "sha256": sha256_file(self.outdir / output) if output else None}
        return out

    def check(self) -> list:
        observed = self.observed()
        problems = [f"{name} exited {obs['rc']}" for name, obs in observed.items()
                    if obs["rc"] != 0]
        reference = self.reference.setdefault(f"set{self.variant}", observed)
        problems += [f"set{self.variant} {name} differs: {observed[name]}"
                     for name in observed if observed[name] != reference.get(name)]
        return problems

    def artifact_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.outdir.iterdir())


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}


def make_workload(name, mods, seed, workdir, expected):
    if name == "check-cmds":
        return CheckCmdsWorkload(mods, seed, workdir, expected)
    return BuildWorkload(name, mods, seed, workdir, expected)


WORKLOADS = ("build-gadget", "build-ell2", "check-cmds")


if __name__ == "__main__":
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    print(json.dumps({"setup_s": setup_once(name, seed, workdir)}))
