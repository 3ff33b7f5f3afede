"""Compare every golden-corpus output of a revision with the working tree's,
byte for byte.

    python tools/parent_diff.py [REVISION] [--scratch DIR]

The revision's committed files (default ``HEAD``) are extracted with ``git
archive`` under the scratch directory (default: a temporary one, removed at
the end), and removed when the comparison ends; unlike a ``git worktree``,
this registers nothing in the repository, so a killed run leaves nothing
behind there.  Every entry of ``tests/test_golden.py``'s ``ENTRIES`` runs
through its ``run_entry`` once per tree, each tree in one subprocess with
that tree's ``src`` on ``PYTHONPATH``; both trees run the working tree's
corpus, so they run the same entries.  An entry leaves in its directory
every file it writes and, written by ``run_entry`` itself, what its
commands print (``stdout``, the entry's directory written as ``{d}``) or,
for a benchmark entry, each op's output rows (``op-<i>.csv``).

One line per entry says "identical", or names each file that differs, with
the rows (line numbers, from 1) that differ and the largest relative
difference between the numbers of those rows.  The exit status is 1 if any
entry differs, else 0.  The corpus digests CSV numbers at 9 significant
digits; this comparison sees their last bits.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "test_golden.py"

# Run in a subprocess: python -c RUNNER <corpus file> <tree> <out dir> <entry>...
RUNNER = r"""
import importlib.util, sys
from pathlib import Path

corpus, tree, out, entries = sys.argv[1], Path(sys.argv[2]), Path(sys.argv[3]), sys.argv[4:]
spec = importlib.util.spec_from_file_location("test_golden", corpus)
golden = importlib.util.module_from_spec(spec)
spec.loader.exec_module(golden)
if not Path(golden.cli.__file__).resolve().is_relative_to(tree.resolve() / "src"):
    sys.exit(f"cfrs was imported from {golden.cli.__file__}, not from {tree}/src")
for name in entries:
    (out / name).mkdir(parents=True)
    golden.run_entry(name, out / name)
"""

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


@contextlib.contextmanager
def checkout(revision: str, scratch: Path):
    """``revision``'s committed files, extracted into ``scratch/tree`` for
    the duration of the block."""
    tree, tar = scratch / "tree", scratch / "tree.tar"
    tree.mkdir(parents=True)
    try:
        subprocess.run(["git", "archive", "--output", str(tar), revision], cwd=ROOT, check=True)
        subprocess.run(["tar", "-xf", str(tar), "-C", str(tree)], check=True)
        yield tree
    finally:
        tar.unlink(missing_ok=True)
        shutil.rmtree(tree)


def entries() -> list[str]:
    """The corpus entries, from ``ENTRIES`` in tests/test_golden.py."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        spec = importlib.util.spec_from_file_location("test_golden", GOLDEN)
        golden = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(golden)
    finally:
        sys.path.pop(0)
    return list(golden.ENTRIES)


def run_tree(tree: Path, names: list[str], out: Path) -> None:
    """Run the corpus entries ``names`` on ``tree``'s ``src``, each into
    ``out/<entry>``, in one subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tree / "src"), *filter(None, [env.get("PYTHONPATH")])])
    out.mkdir(parents=True)
    subprocess.run([sys.executable, "-c", RUNNER, str(GOLDEN), str(tree), str(out), *names],
                   cwd=out, env=env, check=True)


def relative_difference(a: str, b: str) -> float:
    """The largest |x - y| / max(|x|, |y|) over the numbers of two rows, in
    order; inf where the rows differ in anything but their numbers, or
    where a number differs from a nan or an infinity."""
    if _NUMBER.sub("#", a) != _NUMBER.sub("#", b):
        return math.inf
    worst = 0.0
    for x, y in zip(map(float, _NUMBER.findall(a)), map(float, _NUMBER.findall(b))):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        if not (math.isfinite(x) and math.isfinite(y)):
            return math.inf
        worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return worst


def _rows(numbers: list[int], shown: int = 5) -> str:
    text = ", ".join(map(str, numbers[:shown]))
    return text + (f" and {len(numbers) - shown} more" if len(numbers) > shown else "")


def compare_entry(base: Path, head: Path) -> str:
    """'identical' if the two entry directories hold the same files with the
    same bytes, else the files and rows that differ and the largest relative
    difference."""
    files = sorted({p.relative_to(d).as_posix() for d in (base, head)
                    for p in d.rglob("*") if p.is_file()})
    diffs, worst = [], 0.0
    for f in files:
        if not (base / f).is_file() or not (head / f).is_file():
            diffs.append(f"{f} only in {'base' if (base / f).is_file() else 'head'}")
            continue
        a, b = ((d / f).read_bytes() for d in (base, head))
        if a == b:
            continue
        a, b = a.decode().splitlines(), b.decode().splitlines()
        rows = [i + 1 for i in range(max(len(a), len(b)))
                if i >= len(a) or i >= len(b) or a[i] != b[i]]
        for i in rows:
            worst = max(worst, relative_difference(a[i - 1], b[i - 1])
                        if i <= min(len(a), len(b)) else math.inf)
        diffs.append(f"{f} rows {_rows(rows)}")
    if not diffs:
        return "identical"
    return f"{'; '.join(diffs)}; largest relative difference {worst:.3g}"


def compare_trees(base: Path, head: Path, names: list[str], scratch: Path) -> list[str]:
    """One line per entry of ``names``, comparing its outputs on ``base``'s
    ``src`` with those on ``head``'s, both run under ``scratch``."""
    run_tree(base, names, scratch / "base")
    run_tree(head, names, scratch / "head")
    return [f"{name}: {compare_entry(scratch / 'base' / name, scratch / 'head' / name)}"
            for name in names]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("revision", nargs="?", default="HEAD",
                        help="the revision to compare the working tree with (default HEAD)")
    parser.add_argument("--scratch", help="an empty or missing directory for the revision's "
                        "files and the outputs, kept at the end (default: a temporary one, "
                        "removed)")
    args = parser.parse_args(argv)
    names = entries()
    with tempfile.TemporaryDirectory(prefix="parent_diff-") as tmp:
        scratch = Path(args.scratch or tmp)
        if scratch.exists() and any(scratch.iterdir()):
            parser.error(f"--scratch: {scratch} is not empty")
        scratch.mkdir(parents=True, exist_ok=True)
        with checkout(args.revision, scratch) as tree:
            lines = compare_trees(tree, ROOT, names, scratch)
    print("\n".join(lines))
    return 0 if all(line.endswith(": identical") for line in lines) else 1


if __name__ == "__main__":
    sys.exit(main())
