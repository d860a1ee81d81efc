import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from girthspan import cli, constructions as cons, pipeline, spanner as sp
from girthspan.cli import main
from girthspan.graphs import write_graph_text
from girthspan.labelcover import write_lc_text
from girthspan.spanner import EdgeSubset, write_subset_text

from conftest import anchor_roster_size, cycle_graph, make_graph, path_lc_tiny, xor_odd_4cycle


def run(args):
    return main([str(a) for a in args])


def test_girth_command(tmp_path, capsys):
    path = tmp_path / "c4.graph"
    path.write_text(write_graph_text(cycle_graph(4)))
    assert run(["girth", "-i", path]) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_girth_command_infinite(tmp_path, capsys):
    path = tmp_path / "tree.graph"
    path.write_text(write_graph_text(make_graph(3, [(0, 1), (1, 2)])))
    assert run(["girth", "-i", path]) == 0
    assert capsys.readouterr().out.strip() == "infinity"


def test_bad_graph_file_gives_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.graph"
    path.write_text("GRAPH v1\nN 2 M 1\n1 0\n")
    assert run(["girth", "-i", path]) == 2


def test_non_integer_tokens_give_exit_2_with_line(tmp_path, capsys):
    gpath = tmp_path / "bad.graph"
    gpath.write_text("GRAPH v1\nN 2 M 1\n0 x\n")
    spath = tmp_path / "h.subset"
    spath.write_text(write_subset_text(EdgeSubset(cycle_graph(4), [0])))
    assert run(["spanner-verify", "--graph", gpath, "--subset", spath, "--k", 3]) == 2
    assert "line 3" in capsys.readouterr().err
    gpath.write_text(write_graph_text(cycle_graph(4)))
    spath.write_text(spath.read_text() + "zero\n")
    assert run(["spanner-verify", "--graph", gpath, "--subset", spath, "--k", 3]) == 2
    err = capsys.readouterr().err
    assert "line 4" in err and "Traceback" not in err


def test_missing_file_gives_exit_2(tmp_path):
    assert run(["girth", "-i", tmp_path / "nope.graph"]) == 2


LC_HEAD = "LC v1\nA 1 B 1 SA 2 SB 2 M 1\n"
GRAPH_CMD = ["girth", "-i", "{bad}"]
SUBSET_CMD = ["spanner-verify", "--graph", "{graph}", "--subset", "{bad}", "--k", 3]
LC_CMD = ["strip-cycles", "-i", "{bad}", "--k", 4, "-o", "{out}"]
COVER_CMD = ["spanner-from-cover", "--lc", "{lc}", "--k", 3, "--x", 2, "--cover", "{bad}",
             "-o", "{out}"]
CNF_CMD = ["lc-from-3sat", "-i", "{bad}", "-o", "{out}"]


@pytest.mark.parametrize("command, bad, line", [
    pytest.param(GRAPH_CMD, "GRAPH v1\nN 2 M 1\n0 x\n", 3, id="graph-token"),
    pytest.param(SUBSET_CMD, write_subset_text(EdgeSubset(cycle_graph(4), [0])) + "zero\n", 4,
                 id="subset-token"),
    pytest.param(LC_CMD, "LC v1\nA 1 B 1 SA 2 SB two M 1\n", 2, id="lc-size-token"),
    pytest.param(LC_CMD, LC_HEAD + "E 0 0 x\n0 0\n", 3, id="lc-superedge-token"),
    pytest.param(LC_CMD, LC_HEAD + "E 0 0 2\n0 0\n1 +1\n", 5, id="lc-pair-token"),
    pytest.param(LC_CMD, LC_HEAD + "\nE 0 0 1\n \n0 O\n", 6, id="lc-token-after-blank-lines"),
    pytest.param(LC_CMD, LC_HEAD + "E 0 0 1234567890123456789\n", 3, id="lc-19-digits"),
    pytest.param(COVER_CMD, "COVER v1\nA 0 0\nB 1 1x\n", 3, id="cover-token"),
    pytest.param(CNF_CMD, "p cnf three 1\n1 2 3 0\n", 1, id="cnf-problem-token"),
    pytest.param(CNF_CMD, "c note\np cnf 3 1\n1 -2 3.0 0\n", 3, id="cnf-literal-token"),
    pytest.param(CNF_CMD, "p cnf 3 1\n1 - 3 0\n", 2, id="cnf-bare-sign"),
    pytest.param(GRAPH_CMD, b"GRAPH v1\nN 2 M 1\n0 \xff\n", 3, id="not-utf8"),
    # header sizes numpy refuses at once; checked before any array is sized
    pytest.param(GRAPH_CMD, "GRAPH v1\nN 100000000000000000 M 0\n", 2, id="graph-huge-n"),
    pytest.param(["stats", "-i", "{bad}"], "LC v1\nA 100000000000000000 B 1 SA 1 SB 1 M 0\n", 2,
                 id="lc-huge-a"),
    pytest.param(GRAPH_CMD, None, None, id="graph-directory"),
    pytest.param(LC_CMD, None, None, id="lc-directory"),
])
def test_malformed_input_exits_2(tmp_path, capsys, command, bad, line):
    """Every malformed input, or a directory (bad=None), exits 2 with a
    message, never a traceback; a bad token's message names its line."""
    paths = {"lc": tmp_path / "ok.lc", "graph": tmp_path / "ok.graph",
             "out": tmp_path / "out", "bad": tmp_path / "bad"}
    paths["lc"].write_text(write_lc_text(path_lc_tiny()))
    paths["graph"].write_text(write_graph_text(cycle_graph(4)))
    if bad is None:
        paths["bad"].mkdir()
    else:
        paths["bad"].write_bytes(bad if isinstance(bad, bytes) else bad.encode())
    args = [str(a).format(**paths) for a in command]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("I/O error: " if bad is None else "input error: ")
    if line is not None:
        assert f"line {line}:" in err


def test_crlf_inputs_read_as_lf_inputs(tmp_path, capsys):
    """strip-cycles and spanner-verify, passing and failing, on inputs whose
    lines end in \\r\\n: the same exit codes, stdout and output bytes as on
    the same inputs ended in \\n."""
    g = cycle_graph(4)
    texts = {"in.lc": write_lc_text(cons.regularize(cons.lc_from_3sat5(cons.gen_3sat5(3, 1)))),
             "c4.graph": write_graph_text(g),
             "h.subset": write_subset_text(EdgeSubset(g, [0, 1, 2]))}
    results = []
    for name, newline in [("lf", "\n"), ("crlf", "\r\n")]:
        d = tmp_path / name
        d.mkdir()
        for filename, text in texts.items():
            (d / filename).write_bytes(text.replace("\n", newline).encode("ascii"))
        outcome = []
        for argv in [["strip-cycles", "-i", d / "in.lc", "--k", 4, "-o", d / "out.lc"],
                     *[["spanner-verify", "--graph", d / "c4.graph", "--subset", d / "h.subset",
                        "--k", k] for k in (3, 2)]]:
            rc = run(argv)
            outcome.append((rc, capsys.readouterr().out.replace(str(d), "<dir>")))
        results.append((outcome, (d / "out.lc").read_bytes()))
    assert b"\r" in (tmp_path / "crlf" / "in.lc").read_bytes()
    assert results[0] == results[1]
    assert [rc for rc, _ in results[0][0]] == [0, 0, 1]
    assert "removed 0 " not in results[0][0][0][1]


def test_unwritable_output_is_an_io_error(tmp_path, capsys):
    src = tmp_path / "c4.graph"
    src.write_text(write_graph_text(cycle_graph(4)))
    out = tmp_path / "missing-dir" / "greedy.subset"
    assert run(["spanner-greedy", "--graph", src, "--k", 3, "-o", out]) == 2
    assert capsys.readouterr().err.startswith("I/O error: ")


def test_spanner_verify_pass_and_fail(tmp_path, capsys):
    g = cycle_graph(4)
    gpath = tmp_path / "c4.graph"
    gpath.write_text(write_graph_text(g))
    h = EdgeSubset(g, [0, 1, 2])
    spath = tmp_path / "h.subset"
    spath.write_text(write_subset_text(h))
    assert run(["spanner-verify", "--graph", gpath, "--subset", spath, "--k", 3]) == 0
    assert run(["spanner-verify", "--graph", gpath, "--subset", spath, "--k", 2]) == 1
    out = capsys.readouterr().out
    assert "violated" in out


def test_gen_and_stage_commands(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    assert run(["gen-3sat5", "--vars", 3, "--seed", 7, "--planted", "-o", cnf]) == 0
    lc = tmp_path / "base.lc"
    assert run(["lc-from-3sat", "-i", cnf, "-o", lc]) == 0
    reg = tmp_path / "reg.lc"
    assert run(["regularize", "-i", lc, "-o", reg]) == 0
    rep = tmp_path / "rep.lc"
    assert run(["parrep", "-i", reg, "--ell", 1, "-o", rep]) == 0
    sam = tmp_path / "sam.lc"
    assert run(["subsample", "-i", rep, "--alpha", 2.0, "--seed", 3, "-o", sam]) == 0
    stripped = tmp_path / "stripped.lc"
    assert run(["strip-cycles", "-i", sam, "--k", 4, "-o", stripped]) == 0
    mrg = tmp_path / "minrep.graph"
    assert run(["minrep-expand", "-i", stripped, "-o", mrg]) == 0
    gadget = tmp_path / "gadget.graph"
    assert run(["spanner-reduce", "--lc", stripped, "--k", 3, "--x", 4,
                "-o", gadget]) == 0
    assert gadget.exists() and Path(str(gadget) + ".meta.json").exists()
    capsys.readouterr()
    assert run(["stats", "-i", stripped]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "stats_v3"


def test_unsafe_supergirth_warns(tmp_path, capsys):
    """``--unsafe-supergirth`` builds a gadget below the reduction's
    hypothesis, and says so on stderr; a stripped instance builds silently."""
    lc = tmp_path / "c4.lc"
    lc.write_text(write_lc_text(xor_odd_4cycle()))     # supergirth 4
    gadget = tmp_path / "gadget.graph"
    args = ["spanner-reduce", "--lc", lc, "--k", 3, "--x", 1, "-o", gadget]
    assert run(args) == 2
    assert "supergirth 4 is below the required 5" in capsys.readouterr().err
    assert run(args + ["--unsafe-supergirth"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "warning: supergirth 4 is below the required 5\n"
    assert captured.out.startswith(f"wrote {gadget}")
    tree = tmp_path / "tree.lc"
    tree.write_text(write_lc_text(path_lc_tiny()))     # supergirth infinite
    assert run(["spanner-reduce", "--lc", tree, "--k", 3, "--x", 1, "--unsafe-supergirth",
                "-o", gadget]) == 0
    assert capsys.readouterr().err == ""


def test_parrep_budget_exit_3(tmp_path):
    cnf = tmp_path / "f.cnf"
    run(["gen-3sat5", "--vars", 3, "--seed", 1, "-o", cnf])
    lc = tmp_path / "base.lc"
    run(["lc-from-3sat", "-i", cnf, "-o", lc])
    reg = tmp_path / "reg.lc"
    run(["regularize", "-i", lc, "-o", reg])
    out = tmp_path / "rep.lc"
    assert run(["parrep", "-i", reg, "--ell", 5, "-o", out,
                "--max-superedges", 1000]) == 3


def test_parrep_budget_below_1_is_an_input_error(tmp_path, capsys):
    """A superedge budget below 1 is a bad option (exit 2), not a budget
    that the product exceeds (exit 3)."""
    cnf, lc = tmp_path / "f.cnf", tmp_path / "base.lc"
    run(["gen-3sat5", "--vars", 3, "--seed", 1, "-o", cnf])
    run(["lc-from-3sat", "-i", cnf, "-o", lc])
    capsys.readouterr()
    for budget in (0, -5):
        assert run(["parrep", "-i", lc, "--ell", 1, "-o", tmp_path / "rep.lc",
                    "--max-superedges", budget]) == 2
        assert capsys.readouterr().err == "input error: superedge budget must be >= 1\n"


@pytest.mark.parametrize("ell, instance, message", [
    (2, "A 20000 B 20000 SA 2 SB 2 M 1\nE 0 0 1\n0 0\n", "A = 400000000 exceeds 100000000"),
    (3, "A 0 B 0 SA 1000000000 SB 2 M 0\n",
     f"SA = {10**27} is not an integer of 1 to 18 decimal digits"),
], ids=["A above the vertex bound", "SA of 28 digits"])
def test_parrep_rejects_a_product_lc_v1_cannot_declare(tmp_path, capsys, ell, instance, message):
    """A product whose sizes no LC v1 header may declare is an input error
    (exit 2) and writes no file, so every LC the program writes reads back."""
    src, out = tmp_path / "in.lc", tmp_path / "rep.lc"
    src.write_text("LC v1\n" + instance)
    assert run(["parrep", "-i", src, "--ell", ell, "-o", out]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, extra", [
    ("spanner-reduce", []),
    ("spanner-from-cover", ["--cover", "empty.cover"]),
    ("cover-from-spanner", ["--subset", "empty.subset"]),
    ("make-proper", ["--subset", "empty.subset"]),
])
def test_default_copy_count_needs_a_supervertex(tmp_path, monkeypatch, capsys, command, extra):
    """On an instance with no supervertex, the default copy count
    ceil(n^2 / (|A| + |B|)) is an input error (exit 2) that names the
    cause; with ``--x 1`` the same input builds the empty gadget."""
    monkeypatch.chdir(tmp_path)
    Path("none.lc").write_text("LC v1\nA 0 B 0 SA 2 SB 2 M 0\n")
    Path("empty.cover").write_text("COVER v1\n")
    Path("empty.subset").write_text(write_subset_text(EdgeSubset(make_graph(0, []), [])))
    args = [command, "--lc", "none.lc", "--k", 3, "-o", "out", *extra]
    assert run(args + ["--x", 1]) == 0
    Path("out").unlink()
    capsys.readouterr()
    assert run(args) == 2
    err = capsys.readouterr().err
    assert "needs a supervertex" in err and "Traceback" not in err
    assert not Path("out").exists()


def test_solve_spanner_exact_checks_k_before_the_budget(tmp_path, capsys):
    """A stretch below 1 is named (exit 2) even where the search space
    exceeds the budget (exit 3 for a valid stretch)."""
    g = tmp_path / "k4.graph"
    g.write_text(write_graph_text(make_graph(4, [(i, j) for i in range(4)
                                            for j in range(i + 1, 4)])))
    assert run(["solve-spanner-exact", "--graph", g, "--k", 0, "--budget", 10]) == 2
    assert capsys.readouterr().err == "input error: stretch k must be >= 1\n"
    assert run(["solve-spanner-exact", "--graph", g, "--k", 1, "--budget", 10]) == 3
    assert capsys.readouterr().err.startswith("resource error: oracle search space")


def test_solve_commands(tmp_path, capsys):
    lc_text = ("LC v1\nA 2 B 2 SA 2 SB 2 M 4\n"
               "E 0 0 2\n0 0\n1 1\nE 0 1 2\n0 0\n1 1\n"
               "E 1 0 2\n0 0\n1 1\nE 1 1 2\n0 1\n1 0\n")
    lc = tmp_path / "xor.lc"
    lc.write_text(lc_text)
    assert run(["solve-lc-exact", "-i", lc]) == 0
    assert "3/4" in capsys.readouterr().out
    cover_out = tmp_path / "c.cover"
    assert run(["solve-cover-exact", "-i", lc, "-o", cover_out]) == 0
    assert "size 5" in capsys.readouterr().out
    g = tmp_path / "k4.graph"
    g.write_text(write_graph_text(make_graph(4, [(i, j) for i in range(4)
                                            for j in range(i + 1, 4)])))
    assert run(["solve-spanner-exact", "--graph", g, "--k", 2]) == 0
    assert "size 3" in capsys.readouterr().out


def test_solve_budget_env(tmp_path, monkeypatch, capsys):
    lc = tmp_path / "xor.lc"
    lc.write_text("LC v1\nA 2 B 2 SA 2 SB 2 M 4\n"
                  "E 0 0 2\n0 0\n1 1\nE 0 1 2\n0 0\n1 1\n"
                  "E 1 0 2\n0 0\n1 1\nE 1 1 2\n0 1\n1 0\n")
    monkeypatch.setenv("GIRTHSPAN_BUDGET", "2")
    assert run(["solve-lc-exact", "-i", lc]) == 3


@pytest.mark.parametrize("sizes, budget", [
    ((1, 5, 50_000_000, 2), None),      # score table 32 x 5e7, two 5e7 x 2 matrices
    ((1, 20, 2_000_000, 2), None),      # score table 2^20 x 2e6; the matrices fit
    ((1, 2, 2, 2), "5"),                # 2 states x 2 fit; two 2 x 2 matrices do not
    ((4, 4, 2, 2), "40"),               # 16 states x 2 and two 2 x 2 matrices fit;
                                        # the 4 digit columns of 16 states do not
])
def test_solve_lc_exact_checks_table_sizes_before_allocating(tmp_path, monkeypatch, capsys,
                                                             sizes, budget):
    """Each header passes the header bound (A*SA + B*SB <= 10^8) and its
    enumerated states fit the budget, but one of the oracle's dense tables
    does not: the command exits 3 before numpy allocates it."""
    a_count, b_count, sigma_a, sigma_b = sizes
    lc = tmp_path / "wide.lc"
    lc.write_text(f"LC v1\nA {a_count} B {b_count} SA {sigma_a} SB {sigma_b} M {b_count}\n"
                  + "".join(f"E 0 {j} 1\n0 {j % 2}\n" for j in range(b_count)))
    if budget:
        monkeypatch.setenv("GIRTHSPAN_BUDGET", budget)
    tracemalloc.start()
    try:
        assert run(["solve-lc-exact", "-i", lc]) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 24
    assert capsys.readouterr().err.startswith("resource error: oracle search space")


@pytest.mark.parametrize("budget", ["ten", "-2", " 2", "2.0", "1234567890123456789"])
def test_solve_budget_env_must_be_decimal(tmp_path, monkeypatch, capsys, budget):
    lc = tmp_path / "tiny.lc"
    lc.write_text(write_lc_text(path_lc_tiny()))
    monkeypatch.setenv("GIRTHSPAN_BUDGET", budget)
    assert run(["solve-lc-exact", "-i", lc]) == 2
    assert capsys.readouterr().err.startswith(f"input error: GIRTHSPAN_BUDGET: {budget!r}")


def test_pipeline_command_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    args = ["pipeline", "--vars", 3, "--ell", 1, "--alpha", 1.0, "--k", 3,
            "--seed", 7, "--planted", "--x", 40]
    assert run(args + ["-o", out1]) == 0
    stdout = capsys.readouterr().out
    assert "PASS  spanner_verifies" in stdout
    assert run(args + ["-o", out2]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert "stats.json" in names and "spanner.subset" in names
    for name in names:
        if name == "stats.json":   # contains wall-clock timings and peak memory
            r1 = json.loads((out1 / name).read_text())
            r2 = json.loads((out2 / name).read_text())
            for key in ("wall_clock_s", "peak_rss_mb"):
                r1.pop(key), r2.pop(key)
            assert r1 == r2
        else:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    report = json.loads((out1 / "stats.json").read_text())
    assert report["flags"]["degenerate"] is False    # the verdicts speak of superedges
    assert all(report["verdicts"].values())
    assert all(report["self_audit"].values())
    # wall_clock_s accounts for the whole run
    clock = report["wall_clock_s"]
    assert "write_artifacts" in clock and "total" in clock
    stages = sum(t for name, t in clock.items() if name != "total")
    assert abs(stages - clock["total"]) <= 0.05 * clock["total"]
    assert report["peak_rss_mb"] > 0


def test_pipeline_source_hash_is_the_digest_of_the_stripped_lc_file(tmp_path):
    """gadget.meta.json names its source by the sha256 of stripped.lc's
    bytes as the run wrote them, chunk by chunk."""
    pipeline.run_pipeline(tmp_path, n_vars=3, ell=1, alpha=1.0, seed=7, planted=True,
                          x_override=2)
    meta = json.loads((tmp_path / "gadget.meta.json").read_bytes())
    assert meta["source_hash"] == hashlib.sha256((tmp_path / "stripped.lc").read_bytes()).hexdigest()


@pytest.mark.parametrize("alpha, sampled, kept", [(4.0, 168, 0), (1.0, 44, 23),
                                                   (0.0001, 0, 0)])
def test_pipeline_reports_degenerate_run(tmp_path, capsys, alpha, sampled, kept):
    """A run left with no superedge after the strip, because the strip
    removed every sampled superedge or because the sample kept none, is
    flagged in the report and on stdout; its verdicts and exit code stay as
    they were."""
    out = tmp_path / "run"
    rc = run(["pipeline", "--vars", 3, "--ell", 1, "--alpha", alpha, "--k", 3,
              "--seed", 7, "--planted", "--x", 2, "-o", out])
    stdout = capsys.readouterr().out
    report = json.loads((out / "stats.json").read_text())
    stage = {s["name"]: s for s in report["trace"]["stages"]}
    assert report["flags"]["degenerate"] == (kept == 0)
    assert stage["subsample"]["sizes"]["superedges"] == sampled
    assert stage["strip_cycles"]["sizes"]["superedges"] == kept
    assert rc == (0 if all(report["verdicts"].values()) else 1)
    line = (f"DEGENERATE: all {sampled} sampled superedges stripped" if sampled
            else "DEGENERATE: the sample kept no superedge")
    assert (line in stdout.splitlines()) == (kept == 0)
    assert ("DEGENERATE" in stdout) == (kept == 0)


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_subsample_and_pipeline_reject_non_finite_alpha(tmp_path, capsys, alpha):
    lc = tmp_path / "tiny.lc"
    lc.write_text(write_lc_text(path_lc_tiny()))
    sam = tmp_path / "sam.lc"
    out = tmp_path / "run"
    for args in (["subsample", "-i", lc, "--alpha", alpha, "-o", sam],
                 ["pipeline", "--alpha", alpha, "-o", out]):
        assert run(args) == 2
        err = capsys.readouterr().err
        assert f"input error: alpha must be a positive finite number, not {alpha}" in err
        assert "Traceback" not in err
    assert not sam.exists() and not out.exists()


@pytest.mark.parametrize("bad, message", [
    (["--k", 2], "stretch k must be >= 3"),
    (["--x", 0], "copy count x must be >= 1"),
    (["--alpha", 0], "alpha must be a positive finite number, not 0.0"),
    (["--vars", 0], "variable count must be >= 3 and divisible by 3"),
    (["--vars", 4], "variable count must be >= 3 and divisible by 3"),
    (["--ell", 0], "ell must be >= 1"),
])
def test_pipeline_checks_parameters_before_any_work(tmp_path, capsys, bad, message):
    out = tmp_path / "run"
    assert run(["pipeline", "--planted", "-o", out] + bad) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["--vars", 9, "--ell", 3], "parallel repetition would exceed the superedge budget"),
    (["--vars", 3, "--ell", 2, "--planted"], "gadget edge budget exceeded"),
])
def test_pipeline_budget_error_writes_nothing(tmp_path, capsys, args, message):
    """The run writes no file before every stage has run, so a budget error
    leaves no output directory."""
    out = tmp_path / "run"
    assert run(["pipeline", "-o", out] + args) == 3
    assert capsys.readouterr().err.startswith(f"resource error: {message} (required ")
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["--vars", 9, "--ell", 3], "parallel repetition would exceed the superedge budget"),
    (["--vars", 3, "--ell", 2, "--planted"], "gadget edge budget exceeded"),
])
def test_pipeline_budgets_are_checked_before_parallel_repetition(tmp_path, capsys,
                                                                 monkeypatch, args, message):
    """Both budgets follow from the regularized sizes, so the run exits 3
    without building the product."""
    def refuse(*_):
        raise AssertionError("parallel_repetition was called")

    monkeypatch.setattr(cons, "parallel_repetition", refuse)
    assert run(["pipeline", "-o", tmp_path / "run"] + args) == 3
    assert capsys.readouterr().err.startswith(f"resource error: {message} (required ")


def test_pipeline_failed_verdict_exits_1(tmp_path, capsys, monkeypatch):
    """A spanner that fails verification is a FAIL verdict and exit 1; the
    self-audit checks only that each file holds the object written to it."""
    monkeypatch.setattr(sp, "spanner_from_repcover",
                        lambda si, cover: EdgeSubset(si.base, si.minrep_edges))
    out = tmp_path / "run"
    assert run(["pipeline", "--vars", 3, "--ell", 1, "--alpha", 1.0, "--k", 3,
                "--seed", 7, "--planted", "--x", 40, "-o", out]) == 1
    captured = capsys.readouterr()
    assert "FAIL  spanner_verifies" in captured.out.splitlines()
    assert captured.err == ""
    report = json.loads((out / "stats.json").read_text())
    assert report["verdicts"]["spanner_verifies"] is False
    assert "witness_edge" in report
    assert len(report["self_audit"]) == 12 and all(report["self_audit"].values())


def test_self_audit_catches_a_corrupted_artifact(tmp_path, monkeypatch):
    """A formula.cnf with one literal flipped still parses as a 3SAT(5)
    formula, but not as the one generated: the audit names it."""
    write_formula_text = cons.write_formula_text

    def flip_first_literal(formula, **kwargs):
        lines = write_formula_text(formula, **kwargs).split("\n")
        first, *rest = lines[2].split(" ")
        lines[2] = " ".join([str(-int(first)), *rest])
        return "\n".join(lines)

    monkeypatch.setattr(cons, "write_formula_text", flip_first_literal)
    out = tmp_path / "run"
    with pytest.raises(AssertionError, match=r"self audit failed: .*'formula': False"):
        pipeline.run_pipeline(out, n_vars=3, alpha=1.0, seed=7, planted=True, x_override=2)
    audit = json.loads((out / "stats.json").read_text())["self_audit"]
    assert [key for key, ok in audit.items() if not ok] == ["formula"]


def test_subsample_rejects_degree_override_below_one(tmp_path, capsys):
    lc = tmp_path / "tiny.lc"
    lc.write_text(write_lc_text(path_lc_tiny()))
    sam = tmp_path / "sam.lc"
    assert run(["subsample", "-i", lc, "--alpha", 1, "--degree", 0, "-o", sam]) == 2
    assert capsys.readouterr().err == "input error: degree override must be >= 1\n"
    assert not sam.exists()


STAGES_V3 = [   # (name, params keys, sizes keys) of a planted run, in order
    ("gen_3sat5", {"n_vars", "planted"}, {"clauses"}),
    ("lc_from_3sat5", set(), {"a", "b", "superedges", "relations"}),
    ("regularize", set(), {"a", "b", "superedges", "relations"}),
    ("parallel_repetition", {"ell"},
     {"a", "b", "sigma_a", "sigma_b", "superedges", "relations"}),
    ("subsample", {"alpha", "p"}, {"superedges", "relations", "degrees_a", "degrees_b"}),
    ("strip_cycles", {"threshold"}, {"superedges", "relations", "bad_edges", "supergirth"}),
    ("minrep_expand", set(), {"vertices", "edges"}),
    ("spanner_reduce", {"k", "x", "x_is_default"}, {"vertices", "edges"}),
    ("spanner_from_cover", {"cover_size"}, {"spanner_edges", "bound"}),
]
DEGREES = {"minimum", "mean", "maximum"}
REPORT_V3 = {"schema", "params", "flags", "trace", "verdicts", "self_audit", "wall_clock_s",
             "peak_rss_mb"}


def test_stats_v3_shape(tmp_path, capsys):
    """The stats_v3 keys of a planted pipeline report and of the stats command."""
    out = tmp_path / "run"
    assert run(["pipeline", "--vars", 3, "--ell", 1, "--alpha", 1.0, "--k", 3,
                "--seed", 7, "--planted", "-o", out]) == 0
    report = json.loads((out / "stats.json").read_text())
    assert set(report) == REPORT_V3
    assert report["schema"] == "stats_v3"
    assert set(report["params"]) == {"n_vars", "ell", "alpha", "k", "seed", "planted",
                                     "x_override", "clamp_p"}
    assert set(report["flags"]) == {"degenerate", "clamped"}
    assert set(report["trace"]) == {"stages"}
    stages = report["trace"]["stages"]
    assert [s["name"] for s in stages] == [name for name, _, _ in STAGES_V3]
    for stage, (name, params, sizes) in zip(stages, STAGES_V3):
        assert set(stage) == {"name", "params", "sizes"}
        assert (set(stage["params"]), set(stage["sizes"])) == (params, sizes), name
    sizes = stages[4]["sizes"]
    assert set(sizes["degrees_a"]) == set(sizes["degrees_b"]) == DEGREES
    capsys.readouterr()
    assert run(["stats", "-i", out / "stripped.lc"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"schema", "a_count", "b_count", "sigma_a", "sigma_b", "superedges",
                        "relation_pairs_total", "degrees_a", "degrees_b", "supergirth"}
    assert doc["schema"] == "stats_v3"
    assert set(doc["degrees_a"]) == set(doc["degrees_b"]) == DEGREES


# plain, all stripped, clamped, none sampled
@pytest.mark.parametrize("alpha", [1.0, 4.0, 50.0, 0.0001])
def test_stats_v3_holds_every_earlier_value(tmp_path, alpha):
    """Each value stats_v1 stated besides its stage records, and the
    ``spanner_reduce.sizes.anchor_roster`` of stats_v2, recomputed from the
    stats_v3 fields, equals what the run's artifacts give."""
    from girthspan.graphs import girth
    from girthspan.labelcover import parse_lc_text, supergraph
    from girthspan.rng import child_seed
    from girthspan.sampling import (SampleParams, bad_edges, degree_stats,
                                    keep_probability)
    out = tmp_path / "run"
    pipeline.run_pipeline(out, n_vars=3, ell=1, alpha=alpha, k=3, seed=7, planted=True,
                          x_override=2)
    report = json.loads((out / "stats.json").read_text())
    stage = {s["name"]: s for s in report["trace"]["stages"]}
    repeated, sampled, stripped = (parse_lc_text((out / f"{name}.lc").read_bytes())
                                   for name in ("repeated", "sampled", "stripped"))
    k = report["params"]["k"]
    p = keep_probability(repeated, SampleParams(alpha=alpha, k=k + 1,
                                                seed=child_seed(7, "subsample")))
    sample_stats = {
        "edges_before": stage["parallel_repetition"]["sizes"]["superedges"],
        "edges_after_sample": stage["subsample"]["sizes"]["superedges"],
        "edges_after_strip": stage["strip_cycles"]["sizes"]["superedges"],
        "bad_edge_count": stage["strip_cycles"]["sizes"]["bad_edges"],
        "degrees": (stage["subsample"]["sizes"]["degrees_a"],
                    stage["subsample"]["sizes"]["degrees_b"]),
        "achieved_girth": stage["strip_cycles"]["sizes"]["supergirth"],
        "probability": stage["subsample"]["params"]["p"],
        "clamped": report["flags"]["clamped"]}
    assert sample_stats == {
        "edges_before": repeated.edge_count,
        "edges_after_sample": sampled.edge_count,
        "edges_after_strip": stripped.edge_count,
        "bad_edge_count": len(bad_edges(sampled, k + 1)),
        "degrees": degree_stats(sampled),
        "achieved_girth": pipeline._dist_json(girth(supergraph(stripped))),
        "probability": p, "clamped": p == 1.0}
    # the degenerate block, trace.seed and subsample.params.strip_threshold;
    # the flag now also marks a sample that kept no superedge
    assert report["flags"]["degenerate"] == (stripped.edge_count == 0)
    assert report["params"]["seed"] == 7
    assert stage["strip_cycles"]["params"]["threshold"] == k + 1
    # anchor_roster: the Min-Rep vertices plus x per supervertex
    x = stage["spanner_reduce"]["params"]["x"]
    sides = stage["parallel_repetition"]["sizes"]
    si = pipeline.rebuild_gadget(out / "stripped.lc", k, x_override=x)
    assert (stage["minrep_expand"]["sizes"]["vertices"] + x * (sides["a"] + sides["b"])
            == anchor_roster_size(si))


def test_plain_run_removes_the_planted_artifacts_of_an_earlier_run(tmp_path):
    """A plain run into the directory of a planted run leaves none of the
    planted run's labeling, cover and spanner, whose host hash its own
    gadget does not match, and leaves files it does not own alone."""
    out = tmp_path / "o1"
    args = ["pipeline", "--vars", 3, "--seed", 7, "--alpha", 1, "-o", out]
    assert run([*args, "--planted"]) == 0
    (out / "notes.txt").write_text("kept\n")
    before = {p.name for p in out.iterdir()}
    assert run(args) == 0
    after = {p.name for p in out.iterdir()}
    assert before - after == {"labeling.label", "cover.cover", "spanner.subset"}
    assert after - before == set()
    assert (out / "notes.txt").read_text() == "kept\n"
    fresh = tmp_path / "fresh"
    assert run([*args[:-1], fresh]) == 0
    assert {p.name for p in fresh.iterdir()} == after - {"notes.txt"}


def test_pipeline_artifacts_round_trip(tmp_path):
    out = tmp_path / "run"
    assert run(["pipeline", "--vars", 3, "--ell", 1, "--alpha", 3.0, "--k", 3,
                "--seed", 1, "--planted", "--x", 30, "-o", out]) == 0
    report = json.loads((out / "stats.json").read_text())
    assert all(report["self_audit"].values())
    # reported sizes match artifact recomputation
    from girthspan.labelcover import parse_lc_text
    from girthspan.sampling import bad_edges
    stripped = parse_lc_text((out / "stripped.lc").read_bytes())
    trace = {s["name"]: s for s in report["trace"]["stages"]}
    assert trace["strip_cycles"]["sizes"]["superedges"] == stripped.edge_count
    girth_rec = trace["strip_cycles"]["sizes"]["supergirth"]
    assert girth_rec == "infinity" or girth_rec > 4
    sampled = parse_lc_text((out / "sampled.lc").read_bytes())
    assert trace["strip_cycles"]["sizes"]["bad_edges"] == len(bad_edges(sampled, 4))
    # the distinct relation blocks of each LC artifact, one CSR row apiece
    for stage, name in [("lc_from_3sat5", "base"), ("regularize", "regular"),
                        ("parallel_repetition", "repeated"), ("subsample", "sampled"),
                        ("strip_cycles", "stripped")]:
        parsed = parse_lc_text((out / f"{name}.lc").read_bytes())
        assert trace[stage]["sizes"]["relations"] == parsed.relation_arrays()[0].size - 1


def test_cover_and_proper_commands(tmp_path, capsys):
    out = tmp_path / "run"
    run(["pipeline", "--vars", 3, "--ell", 1, "--alpha", 3.0, "--k", 3,
         "--seed", 2, "--planted", "--x", 30, "-o", out])
    capsys.readouterr()
    stripped = out / "stripped.lc"
    subset = out / "spanner.subset"
    proper_out = tmp_path / "proper.subset"
    assert run(["make-proper", "--lc", stripped, "--k", 3, "--x", 30,
                "--subset", subset, "-o", proper_out]) == 0
    cover_out = tmp_path / "back.cover"
    assert run(["cover-from-spanner", "--lc", stripped, "--k", 3, "--x", 30,
                "--subset", subset, "-o", cover_out]) == 0
    h_out = tmp_path / "h.subset"
    assert run(["spanner-from-cover", "--lc", stripped, "--k", 3, "--x", 30,
                "--cover", out / "cover.cover", "-o", h_out]) == 0
    assert (h_out.read_bytes() == subset.read_bytes())


def test_greedy_command(tmp_path, capsys):
    g = cycle_graph(4)
    gpath = tmp_path / "c4.graph"
    gpath.write_text(write_graph_text(g))
    hpath = tmp_path / "h.subset"
    assert run(["spanner-greedy", "--graph", gpath, "--k", 3, "-o", hpath]) == 0
    assert run(["spanner-verify", "--graph", gpath, "--subset", hpath, "--k", 3]) == 0


def test_one_parser_per_process_matches_fresh_processes(tmp_path, capsys):
    """``main`` builds its parser once per process.  Commands run one after
    another in one process print and exit as each does in a fresh process:
    a success, a failed verification (exit 1) and an input error (exit 2),
    each twice."""
    gpath = tmp_path / "c4.graph"
    gpath.write_text(write_graph_text(cycle_graph(4)))
    hpath = tmp_path / "h.subset"
    hpath.write_text(write_subset_text(EdgeSubset(cycle_graph(4), [0, 1, 2])))
    commands = [["girth", "-i", gpath],
                ["spanner-verify", "--graph", gpath, "--subset", hpath, "--k", 2],
                ["girth", "-i", tmp_path / "missing.graph"]]
    in_process = []
    for args in commands + commands:
        rc = run(args)
        captured = capsys.readouterr()
        in_process.append((rc, captured.out, captured.err))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")]))}
    fresh = []
    for args in commands:
        done = subprocess.run([sys.executable, "-m", "girthspan.cli", *map(str, args)],
                              capture_output=True, text=True, env=env, check=False)
        fresh.append((done.returncode, done.stdout, done.stderr))
    assert [rc for rc, _, _ in fresh] == [0, 1, 2]
    assert in_process == fresh + fresh


def test_patched_handler_runs_after_the_parser_is_built(tmp_path, monkeypatch):
    """The parser holds each command's handler by name, so a handler
    patched after the parser was built is the one that runs."""
    gpath = tmp_path / "c4.graph"
    gpath.write_text(write_graph_text(cycle_graph(4)))
    assert run(["girth", "-i", gpath]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_girth", lambda args: seen.append(args.input) or 7)
    assert run(["girth", "-i", gpath]) == 7
    assert seen == [str(gpath)]


def test_every_command_handler_is_in_the_table_once():
    """Each ``cmd_*`` function of the module is the handler of exactly one
    row of the command table, and each row names a distinct command."""
    handlers = sorted(name for name in vars(cli) if name.startswith("cmd_"))
    rows = sorted(handler.__name__ for _, handler, _, _ in cli.COMMANDS)
    assert rows == handlers
    assert len({name for name, _, _, _ in cli.COMMANDS}) == len(cli.COMMANDS) == 19
