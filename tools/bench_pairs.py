"""Run the benchmark in alternating pairs of a revision and the working tree,
and write the comparison to ``BENCH_<short-sha>.json``.

    python tools/bench_pairs.py [REVISION] [--pairs N]

The revision (default ``HEAD``) is extracted as ``tools/parent_diff.py``
does.  Both trees must hold the same benchmark: the tool refuses to run
when ``BENCHMARK.json`` or a directory it lists under ``paths`` differs
between the revision and the working tree.  For each workload of
``BENCHMARK.json`` and each of the N pairs (default 10), both trees run
``perfbench/run.py --workload W --seed <pair + 1> --seconds <run_seconds>
--trace 0`` with the same seed, the revision first in even pairs and the
working tree first in odd ones; each run starts with its tree's
``src/cfrs/__pycache__`` deleted, so both pay the same compile cost.

The file is named after the working tree's ``HEAD`` and written at the root
of the working tree.  Per workload it holds every run (attempted, failed,
correct, digest and metrics) with whether the pair's digests agree, and per
end-to-end metric each side's runs, median and quartiles, the number of
pairs in which the working tree reads better, the bound and the verdict
(``verdict``).  The exit status is 1 if any run was incorrect or any metric
reads worse, else 0.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from parent_diff import ROOT, checkout

BENCHMARK = ROOT / "BENCHMARK.json"


def git(*args: str) -> str:
    """What a git command run in the working tree prints, stripped."""
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def benchmark_edits(revision: str, paths: list[str]) -> list[str]:
    """The files under ``paths`` in which the working tree differs from
    ``revision``: changed, added, deleted or untracked."""
    return sorted(set(git("diff", "--name-only", revision, "--", *paths).split())
                  | set(git("ls-files", "--others", "--exclude-standard", "--", *paths).split()))


def run_once(tree: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree`` after deleting its compiled cfrs: its
    attempted, failed, correct, digest and metric values."""
    shutil.rmtree(tree / "src" / "cfrs" / "__pycache__", ignore_errors=True)
    proc = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"attempted": 0, "failed": 0, "correct": False, "digest": None, "metrics": {},
                "error": (proc.stderr or proc.stdout).strip()[-500:]}
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"attempted": result["attempted"], "failed": result["failed"],
            "correct": result["correct"], "digest": info["digest"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def summary(runs: list[float]) -> dict:
    """The runs with their median and quartiles."""
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"runs": runs, "median": median, "q1": q1, "q3": q3}


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The comparison of one metric over paired runs (``parent[i]`` and
    ``change[i]`` ran as pair i), where ``better`` is "lower" or "higher"
    and ``bound`` the relative worsening the benchmark allows.

    The verdict is "gain" when the change reads better in at least nine
    tenths of the pairs (ties count for neither) and its median beats the
    parent's by more than the parent's interquartile range; "worse" when its
    median is worse than the parent's by more than ``bound`` of it;
    "unresolved" when the parent's interquartile range is wider than
    ``bound`` of its median, unless every change run reads better than every
    parent run; else "same"."""
    sign = 1.0 if better == "lower" else -1.0
    base, new = summary(parent), summary(change)
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    spread = base["q3"] - base["q1"]
    gain = sign * (base["median"] - new["median"])
    if 10 * wins >= 9 * len(parent) and gain > spread:
        name = "gain"
    elif -gain > bound * abs(base["median"]):
        name = "worse"
    elif spread > bound * abs(base["median"]) and not all(
            sign * (c - p) < 0 for c in change for p in parent):
        name = "unresolved"
    else:
        name = "same"
    return {"parent": base, "change": new, "change_better_pairs": wins, "pairs": len(parent),
            "bound": bound, "verdict": name}


def compare(benchmark: dict, tree: Path, pairs: int) -> dict:
    """Every workload's runs and metric verdicts, ``tree`` as the parent and
    the working tree as the change."""
    report, sides = {}, {"parent": tree, "change": ROOT}
    for workload in (w["name"] for w in benchmark["workloads"]):
        runs = []
        for pair in range(pairs):
            order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
            done = {side: run_once(sides[side], benchmark["command"], workload, pair + 1,
                                   benchmark["run_seconds"]) for side in order}
            runs.append({"pair": pair, "seed": pair + 1, "first": order[0], **done,
                         "digests_agree": done["parent"]["digest"] == done["change"]["digest"]})
            print(f"{workload} pair {pair + 1}/{pairs} done", file=sys.stderr)
        metrics = {}
        if all(run[side]["metrics"] for run in runs for side in sides):
            metrics = {m["name"]: verdict([run["parent"]["metrics"][m["name"]] for run in runs],
                                          [run["change"]["metrics"][m["name"]] for run in runs],
                                          m["better"], m["bound"])
                       for m in benchmark["end_to_end"]}
        report[workload] = {"runs": runs, "metrics": metrics}
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("revision", nargs="?", default="HEAD",
                        help="the revision to compare the working tree with (default HEAD)")
    parser.add_argument("--pairs", type=int, default=10,
                        help="alternating pairs per workload (default 10, at least 2)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    benchmark = json.loads(BENCHMARK.read_text())
    edits = benchmark_edits(args.revision, [BENCHMARK.name, *benchmark["paths"]])
    if edits:
        parser.error(f"the benchmark differs from {args.revision}'s: {', '.join(edits)}")
    head = git("rev-parse", "--short", "HEAD")
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as scratch:
        with checkout(args.revision, Path(scratch)) as tree:
            workloads = compare(benchmark, tree, args.pairs)
    result = {
        "parent": git("rev-parse", args.revision),
        "change": git("rev-parse", "HEAD"),
        "change_uncommitted": git("status", "--porcelain").splitlines(),
        "pairs": args.pairs,
        "run_seconds": benchmark["run_seconds"],
        "workloads": workloads,
    }
    out = ROOT / f"BENCH_{head}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    bad = [f"{name} pair {run['pair']} {side}: incorrect run"
           for name, w in workloads.items() for run in w["runs"]
           for side in ("parent", "change") if not run[side]["correct"]]
    bad += [f"{name} {metric}: worse" for name, w in workloads.items()
            for metric, v in w["metrics"].items() if v["verdict"] == "worse"]
    for name, w in workloads.items():
        print(f"{name}: " + ", ".join(f"{metric} {v['verdict']} ({v['parent']['median']:.4g} -> "
                                      f"{v['change']['median']:.4g})"
                                      for metric, v in w["metrics"].items()))
    print(f"wrote {out.name}" + "".join(f"\n{line}" for line in bad))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
