import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))
import src_lines  # noqa: E402

SOURCE = '''"""Module docstring,
on two lines."""

# a comment line
import os


def f(x):
    """One-line docstring."""
    y = """a string that is
not a docstring"""
    return x  # a trailing comment


class C:
    """Class docstring."""

    def g(self):
        pass
'''


def test_line_counts_skip_blank_comment_and_docstring_lines():
    # code: import, def f, y = (2 lines), return, class C, def g, pass
    assert src_lines.line_counts(SOURCE) == (19, 8)


def test_main_prints_each_module_and_the_sum(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    assert src_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "lines", "code"], ["a.py", "19", "8"], ["b.py", "2", "1"],
                    ["total", "21", "9"]]
