"""The code-only line count (tools/code_lines.py) on a synthetic source."""

import sys
from pathlib import Path

TOOLS = str(Path(__file__).resolve().parents[1] / "tools")
if TOOLS not in sys.path:
    sys.path.insert(0, TOOLS)

import code_lines  # noqa: E402

SOURCE = '''"""A module docstring,
over two lines."""

import os  # a comment after code

# a comment line


class A:
    """A class docstring."""

    def f(self, x,
          y):
        """A function docstring,
        over two lines."""
        text = """a string that is
not a docstring"""
        total = x + \\
            y
        return text, total
'''


def test_a_line_counts_when_it_holds_code_outside_a_docstring():
    assert code_lines.docstring_lines(SOURCE) == {1, 2, 10, 14, 15}
    # import, class, the def and its continuation, the two lines of the
    # assigned string, the backslash-continued sum and the return
    assert code_lines.code_lines(SOURCE) == 9


def test_the_table_counts_a_module_missing_on_one_side_as_zero(tmp_path):
    package = tmp_path / code_lines.PACKAGE
    package.mkdir(parents=True)
    (package / "a.py").write_text(SOURCE)
    (package / "b.py").write_text('"""Only a docstring."""\n')
    assert code_lines.counts(tmp_path) == {"a": 9, "b": 0}
    assert code_lines.table("REV", {"a": 9, "c": 4}, {"a": 7, "b": 0}).splitlines() == [
        "module         REV    tree  change",
        "a                9       7      -2",
        "b                0       0      +0",
        "c                4       0      -4",
        "total           13       7      -6",
    ]
