"""The parent byte-diff tool (tools/parent_diff.py) on the working tree."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("parent_diff", ROOT / "tools" / "parent_diff.py")
parent_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parent_diff)


def test_two_copies_of_the_working_tree_are_identical(tmp_path):
    # a copy of src stands in for the revision's worktree, so no git is needed
    copy = tmp_path / "copy"
    shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
    names = ["se-dump-network", "rho-opt-grid"]
    assert parent_diff.compare_trees(copy, ROOT, names, tmp_path / "runs") == [
        f"{name}: identical" for name in names]
    runs = tmp_path / "runs" / "head"
    assert {p.name for p in (runs / "se-dump-network").iterdir()} == {
        "se.csv", "network.csv", "stdout"}
    assert "rho* = " in (runs / "rho-opt-grid" / "stdout").read_text()


def test_a_last_digit_change_is_named_with_its_rows(tmp_path):
    base, head = tmp_path / "base", tmp_path / "head"
    for d, last in ((base, "0.30000000000000004"), (head, "0.3")):
        (d / "sub").mkdir(parents=True)
        (d / "sub" / "a.csv").write_text(f"# schema=x\nk,v\n0,1.5\n1,{last}\n")
        (d / "same.txt").write_text("wrote 2 rows\n")
    (base / "gone.csv").write_text("")
    line = parent_diff.compare_entry(base, head)
    assert line.startswith("gone.csv only in base; sub/a.csv rows 4; largest relative "
                           "difference ")
    assert line.endswith("1.85e-16")
    assert parent_diff.compare_entry(base / "sub", base / "sub") == "identical"


def test_rows_that_differ_in_text_are_infinitely_apart():
    assert parent_diff.relative_difference("a,1.0", "b,1.0") == float("inf")
    assert parent_diff.relative_difference("1.0,nan", "1.0,nan") == 0.0
    assert parent_diff.relative_difference("nan", "1.0") == float("inf")
    assert parent_diff.relative_difference("x=2.0, y=-4", "x=2.0, y=-5") == 0.2
