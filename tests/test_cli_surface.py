"""The command-line surface, pinned: every parser's help text and arguments.

``cli_surface.json`` records the top-level parser and each subcommand's
parser: its ``format_help()`` text at 80 columns, its ``set_defaults``
values, and for each argument its option strings, dest, action kind, type,
default, required flag, nargs, const, choices, metavar and help.  A change
to how the parser is stated must leave all of it equal.

argparse's help layout differs between Python minor versions, so the help
text is compared under the version the fixture names; the argument records
are compared under every version.  To rewrite the fixture, on purpose:

    PYTHONPATH=src python tests/test_cli_surface.py
"""

import json
import os
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from girthspan import cli

FIXTURE = Path(__file__).resolve().parent / "cli_surface.json"
COLUMNS = "80"


def _argument(action) -> dict:
    return {"option_strings": action.option_strings, "dest": action.dest,
            "kind": type(action).__name__,
            "type": getattr(action.type, "__name__", action.type),
            "default": action.default, "required": action.required,
            "nargs": action.nargs, "const": action.const,
            "choices": None if action.choices is None else list(action.choices),
            "metavar": action.metavar, "help": action.help}


def _parser_record(parser) -> dict:
    return {"help": parser.format_help(), "defaults": parser._defaults,
            "arguments": [_argument(action) for action in parser._actions]}


def surface() -> dict:
    """The record of a freshly built parser, keyed by command ('' for the top)."""
    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = COLUMNS
    try:
        top = cli.build_parser()
        (sub,) = [a for a in top._actions if a.choices and not a.option_strings]
        parsers = {"": top, **sub.choices}
        return {"python": "%d.%d" % sys.version_info[:2],
                "parsers": {name: _parser_record(p) for name, p in parsers.items()}}
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved


def _without_help(parsers: dict) -> dict:
    return {name: {**rec, "help": None} for name, rec in parsers.items()}


def test_cli_surface_matches_the_fixture():
    want = json.loads(FIXTURE.read_text())
    got = json.loads(json.dumps(surface()))
    assert list(got["parsers"]) == list(want["parsers"])
    assert len(got["parsers"]) == 20
    assert _without_help(got["parsers"]) == _without_help(want["parsers"])
    if got["python"] == want["python"]:
        for name, rec in want["parsers"].items():
            assert got["parsers"][name]["help"] == rec["help"], name


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(surface(), indent=1) + "\n")
    print(f"wrote {FIXTURE}")
