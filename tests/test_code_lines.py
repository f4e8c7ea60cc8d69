"""`tools/code_lines.py`, the counter behind every code-size figure."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _TOOL)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

# ten code lines: the docstrings, comments and blank lines do not count,
# and each line of a statement over several lines that holds a token does,
# the second line of a string that is not a docstring among them
SOURCE = '''"""A module docstring
over two lines."""

import os  # a comment

# a comment line


class Thing:
    """A class docstring."""

    def method(self):
        """A method docstring
        over two lines."""
        return (1,
                2,

                3)


async def run():
    """An async function's docstring."""
    text = """not a docstring
    but a string"""
    return text
'''


def test_docstrings_comments_and_blank_lines_do_not_count():
    assert code_lines.code_lines(SOURCE) == 10
    assert code_lines.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0
    assert code_lines.code_lines("") == 0


def test_each_line_of_a_statement_over_several_lines_counts():
    assert code_lines.code_lines("total = (1 +\n         2 +\n\n         3)\n") == 3
    assert code_lines.code_lines("call(\n    # a comment\n    x,\n)\n") == 3


def test_the_total_is_the_sum_of_the_module_counts(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n\ny = [\n    2,\n]\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    code_lines.main(str(tmp_path))
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["10", str(tmp_path / "a.py")],
        ["4", str(tmp_path / "b.py")],
        ["14", "total"],
    ]
