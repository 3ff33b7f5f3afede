"""The verdicts of the benchmark pairs runner (tools/bench_pairs.py), on
synthetic paired samples."""

import sys
from pathlib import Path

import pytest

TOOLS = str(Path(__file__).resolve().parents[1] / "tools")
if TOOLS not in sys.path:
    sys.path.insert(0, TOOLS)

import bench_pairs  # noqa: E402

PARENT = [10.0, 10.4, 9.8, 10.1, 9.9, 10.3, 9.7, 10.2, 10.0, 9.6]  # IQR 0.35, median 10.0


def test_summary_is_the_median_and_the_inclusive_quartiles():
    assert bench_pairs.summary([5.0, 1.0, 4.0, 2.0, 3.0]) == {
        "runs": [5.0, 1.0, 4.0, 2.0, 3.0], "median": 3.0, "q1": 2.0, "q3": 4.0}


@pytest.mark.parametrize("better, sign", [("lower", 1.0), ("higher", -1.0)])
def test_a_gain_needs_nine_tenths_of_the_pairs_and_more_than_the_parents_spread(better, sign):
    parent = PARENT
    faster = [p - sign * 1.0 for p in parent]
    result = bench_pairs.verdict(parent, faster, better, 0.24)
    assert (result["verdict"], result["change_better_pairs"], result["pairs"]) == ("gain", 10, 10)
    assert result["parent"]["median"] == pytest.approx(10.0)
    # one pair lost still counts as nine tenths, two do not
    one_lost = faster[:9] + [parent[9] + sign * 1.0]
    assert bench_pairs.verdict(parent, one_lost, better, 0.24)["verdict"] == "gain"
    two_lost = one_lost[:8] + [parent[8] + sign * 1.0] + one_lost[9:]
    assert bench_pairs.verdict(parent, two_lost, better, 0.24)["verdict"] == "same"
    # every pair won, by less than the parent's interquartile range of 0.35
    assert bench_pairs.verdict(parent, [p - sign * 0.1 for p in parent], better,
                               0.24)["verdict"] == "same"


def test_ties_count_for_neither_side():
    result = bench_pairs.verdict(PARENT, list(PARENT), "lower", 0.24)
    assert (result["verdict"], result["change_better_pairs"]) == ("same", 0)


@pytest.mark.parametrize("better, factor", [("lower", 1.3), ("higher", 0.7)])
def test_a_median_worse_by_more_than_the_bound_is_worse(better, factor):
    assert bench_pairs.verdict(PARENT, [p * factor for p in PARENT], better,
                               0.24)["verdict"] == "worse"
    # within the bound it is the same
    assert bench_pairs.verdict(PARENT, [p * (1 + (factor - 1) / 2) for p in PARENT], better,
                               0.24)["verdict"] == "same"


def test_a_parent_spread_wider_than_the_bound_leaves_the_metric_unresolved():
    wide = [10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 20.0, 20.0, 20.0, 20.0]  # IQR 10 > 2.4
    assert bench_pairs.verdict(wide, list(wide), "lower", 0.24)["verdict"] == "unresolved"
    # a median worse by more than the bound is worse, however wide the spread
    assert bench_pairs.verdict(wide, [w * 1.3 for w in wide], "lower", 0.24)["verdict"] == "worse"
    # unless every change run reads better than every parent run, which is
    # no gain here: the medians differ by 0.5, less than the spread
    result = bench_pairs.verdict(wide, [9.5] * 10, "lower", 0.24)
    assert (result["verdict"], result["change_better_pairs"]) == ("same", 10)
