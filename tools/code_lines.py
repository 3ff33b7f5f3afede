"""Count the code-only lines of every ``src/cfrs`` module at a revision and
in the working tree.

    python tools/code_lines.py [REVISION]

The revision (default ``HEAD``) is extracted as ``tools/parent_diff.py``
does.  A line is code when it holds a token other than a comment, a line
end (NL or NEWLINE), an INDENT or DEDENT or the ENDMARKER, outside
docstrings: a docstring is the string that opens a module, class or
function body, and none of its lines count.  A token that spans lines (a
string) puts each of them on the count; a continuation line counts when it
holds a token.  One row per module, in name order, then the total: the
revision's count, the working tree's and the change.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tempfile
import tokenize
from pathlib import Path

from parent_diff import ROOT, checkout

PACKAGE = Path("src") / "cfrs"
_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set[int]:
    """The line numbers (from 1) of every docstring of ``source``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code-only lines of ``source``."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def counts(tree: Path) -> dict[str, int]:
    """Code-only lines per module of ``tree``'s package, by module name."""
    return {path.stem: code_lines(path.read_text())
            for path in sorted((tree / PACKAGE).glob("*.py"))}


def table(revision: str, before: dict[str, int], after: dict[str, int]) -> str:
    """One row per module of either side, then the total; a module missing
    on one side counts 0 there."""
    rows = [(name, before.get(name, 0), after.get(name, 0))
            for name in sorted(before.keys() | after.keys())]
    rows.append(("total", sum(before.values()), sum(after.values())))
    width = max(len(name) for name in ["module", *(row[0] for row in rows)])
    lines = [f"{'module':<{width}}  {revision:>10}  {'tree':>6}  {'change':>6}"]
    lines += [f"{name:<{width}}  {a:>10}  {b:>6}  {b - a:>+6}" for name, a, b in rows]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("revision", nargs="?", default="HEAD",
                        help="the revision to compare the working tree with (default HEAD)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="code_lines-") as scratch:
        with checkout(args.revision, Path(scratch)) as tree:
            before = counts(tree)
    print(table(args.revision, before, counts(ROOT)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
