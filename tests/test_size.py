"""Tests for tools/size.py: blank lines, comments and docstrings count in a
module's total only, and every other line that holds a token counts as code."""

import ast
import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "size.py"
_SPEC = importlib.util.spec_from_file_location("size", _PATH)
size = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(size)

# 17 lines. Code: line 5 (with a trailing comment), the class and def lines
# and the three lines of the method body, a non-docstring string among them.
# Not code: the module, class and function docstrings (lines 1-2, 9, 12-14,
# a blank line inside one), the comment of line 4 and the blank lines.
SOURCE = '''"""A module docstring,
over two lines."""

# a comment on its own line
import os  # a trailing comment: code


class Thing:
    """A class docstring."""

    def method(self):
        """A function docstring,

        with a blank line inside."""
        text = """a string that is
not a docstring"""
        return text
'''
CODE = {5, 8, 11, 15, 16, 17}


def test_blank_lines_comments_and_docstrings_count_in_the_total_only(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(SOURCE, encoding="utf-8")
    assert size.size(path) == (17, len(CODE))
    assert size.docstring_lines(ast.parse(SOURCE)) == {1, 2, 9, 12, 13, 14}


def test_every_other_line_with_a_token_is_code(tmp_path):
    path = tmp_path / "plain.py"
    path.write_text("x = (1 +\n     2)\ny = 'not a docstring'\n", encoding="utf-8")
    assert size.size(path) == (3, 3)


def test_main_prints_each_module_and_the_sums(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n", encoding="utf-8")
    size.main([str(tmp_path)])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["module", "lines", "code"],
        ["a.py", "17", str(len(CODE))],
        ["b.py", "3", "1"],
        ["total", "20", str(len(CODE) + 1)],
    ]
