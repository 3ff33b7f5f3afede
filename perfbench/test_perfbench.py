"""Smoke tests of the cfrs benchmark at tiny sizes, and of its output checks."""

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import pytest

import run
import workloads

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# Shapes small enough for a smoke test; realization counts and gates are unchanged.
TINY = {
    "sweep-default": {"system": {**workloads.README_SYSTEM, "L": 8, "K": 4, "N": 1,
                                 "tau_p": 2, "tau_c": 40}},
    "sweep-large": {"system": {**workloads.WORKLOADS["sweep-large"].system, "L": 10, "K": 4,
                               "N": 2, "tau_p": 2, "tau_c": 40}},
    "validate-desk": {"system": {"L": 2, "K": 1, "N": 1, "tau_p": 1, "tau_c": 20}},
}


def tiny(name):
    """The named workload at a tiny shape, two ops per run."""
    return dataclasses.replace(workloads.WORKLOADS[name], nominal_op_s=math.inf, min_ops=2,
                               **TINY[name])


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("perfbench")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_reports_every_metric(name, trace, out_dir, capsys):
    result = run.run(tiny(name), seed=3, seconds=1,
                     trace=bool(trace), setup_probes=1, out_dir=out_dir)
    assert result["correct"], capsys.readouterr().out
    assert result["failed"] == 0 and result["attempted"] == 2 * (1 + trace)
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if trace and name == "sweep-default":
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["optimize.optimal_rho.evals_per_call"] == 22
        assert metrics["cli.estimations_per_input"] == 2.0
    if trace and name == "validate-desk":
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["montecarlo.mc_sinr.calls"] == 2 * 8
        assert metrics["montecarlo.samples_per_s"] > 0


def _op_rows(name, tmp_path):
    workload = tiny(name)
    op = workloads.make_ops(workload, seed=5, count=1)[0]
    rows = workloads.output_rows(workload, workloads.call(workload, op, tmp_path))
    assert workloads.check(workload, op, rows) == []
    return workload, op, rows


def test_sweep_gate_and_digest_reject_perturbed_output(tmp_path):
    workload, op, rows = _op_rows("sweep-default", tmp_path)
    base = workloads.digest([workloads.digest_lines(workload, rows)])
    rs = next(r for r in rows if r["rs"] == "1")
    bad = [dict(r) for r in rows]
    for r in bad:
        if workloads._job_key(r) == workloads._job_key(rs):
            r["sum_se"] = repr(float(r["sum_se"]) * 0.5)
    assert any("below non-RS" in p for p in workloads.check(workload, op, bad))
    assert workloads.digest([workloads.digest_lines(workload, bad)]) != base

    nudged = [dict(r) for r in rows]
    nudged[0]["sum_se"] = repr(float(nudged[0]["sum_se"]) * (1 + 1e-6))
    assert workloads.digest([workloads.digest_lines(workload, nudged)]) != base

    errored = [dict(r) for r in rows]
    errored[0]["status"] = "error:ValueError"
    assert workloads.failed_rows(errored) == 1
    assert workloads.check(workload, op, errored)


def test_validate_gate_and_digest_reject_perturbed_output(tmp_path):
    workload, op, rows = _op_rows("validate-desk", tmp_path)
    base = workloads.digest([workloads.digest_lines(workload, rows)])
    bad = [dict(r) for r in rows]
    r = bad[0]
    r["closed_sinr"] = repr(0.9 * float(r["closed_sinr"]))
    r["rel_err"] = repr(abs(float(r["mc_sinr"]) - float(r["closed_sinr"]))
                        / float(r["closed_sinr"]))
    assert any("Monte Carlo" in p for p in workloads.check(workload, op, bad))
    assert workloads.digest([workloads.digest_lines(workload, bad)]) != base
    assert workloads.check(workload, op, rows[:-1])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
