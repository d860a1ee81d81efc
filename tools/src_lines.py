"""Line counts of the package source: total lines and code lines.

    python3 tools/src_lines.py [DIR]

Prints, for each ``*.py`` file of DIR (default ``src/girthspan``) and in sum,
its total lines and its code lines.  A code line holds part of a token other
than a comment and is not part of a docstring: blank lines, comment lines and
docstring lines do not count.  Tokens come from ``tokenize`` and docstrings
from ``ast``, so a string that is not a docstring counts as code on every
line it spans.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def line_counts(source: str) -> tuple[int, int]:
    """(total lines, code lines) of the Python source ``source``."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir", nargs="?", type=Path, default=ROOT / "src" / "girthspan")
    args = parser.parse_args(argv)
    rows = [(path.name, *line_counts(path.read_text(encoding="utf-8")))
            for path in sorted(args.dir.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, total, code in rows:
        print(f"{name:<{width}}  {total:>6}  {code:>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
