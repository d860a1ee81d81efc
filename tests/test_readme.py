import json
import re
import shlex
from pathlib import Path

from girthspan.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_pipeline_example_is_not_degenerate(tmp_path, capsys):
    """The README's end-to-end command runs, passes, and keeps superedges
    after the strip, so its PASS lines prove something."""
    command = re.search(r"^girthspan pipeline .*$", README.read_text(), re.M).group()
    args = shlex.split(command)[1:]
    args[args.index("-o") + 1] = str(tmp_path)
    assert main(args) == 0
    assert "FAIL" not in capsys.readouterr().out
    report = json.loads((tmp_path / "stats.json").read_text())
    stripped = next(s for s in report["trace"]["stages"] if s["name"] == "strip_cycles")
    assert stripped["sizes"]["superedges"] > 0
    assert all(report["verdicts"].values())
