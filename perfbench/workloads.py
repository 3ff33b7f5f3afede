"""Workloads of the cfrs benchmark: their inputs, one op, and the output checks.

An op is one user-level call into ``cfrs.cli``: ``run_experiment`` (the
``cfrs sweep`` path) or ``validate_families`` (the ``cfrs validate`` path).
Every op's inputs derive from the workload seed, so one seed fixes a run.

Why these three workloads:

* ``sweep-default`` -- the README default spec, many small jobs.  Estimation
  statistics and plan evaluation dominate; Monte Carlo is idle.  Shows
  estimation vectorisation and per-topology memoisation, and predicts no
  change from Monte Carlo work.
* ``sweep-large`` -- few, huge calls into the same modules.  The K^3 L
  ``tr_QcR`` contraction and the dense ``Q_cross`` dominate time and memory.
  Correlated R and the DF / non-coherent family keep a shortcut for
  scaled-identity R, or for DU only, from hiding a regression.
* ``validate-desk`` -- the Monte Carlo oracle does ~90% of the work while the
  rho search and the sweep orchestration are bypassed.  Shows a streaming
  Monte Carlo rewrite; the sweeps predict no change from it.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# System section of the README's default experiment spec.
README_SYSTEM = {
    "L": 40, "K": 8, "N": 2, "tau_p": 4, "tau_c": 200,
    "pilot_power": "20 dBm", "downlink_power": "23 dBm",
    "noise_ul": "-96 dBm", "noise_dl": "-96 dBm",
    "symbol_duration_s": 1e-05, "carrier_hz": 2e9,
    "osc_constant_ap": 1e-18, "osc_constant_ue": 1e-18,
    "area_side_m": 100.0, "seed": 1,
    "correlation": "uncorrelated", "corr_r": 0.0,
}
README_SWEEP = {"parameter": "oscillator_variance",
                "values": ["-50 dB", "-40 dB", "-30 dB", "-20 dB"]}
DU_RS = {"private": "du_mr", "transmission": "coherent", "rs": True, "weights": "simple"}
DU_NORS = {"private": "du_mr", "transmission": "coherent", "rs": False}
DF_NC_RS = {"private": "df_mr", "transmission": "noncoherent", "rs": True, "weights": "simple"}

# Sum-SE values and closed-form SINRs enter the digest rounded to this many
# significant digits, so a change that only reorders floating-point sums
# keeps the digest.
DIGEST_DIGITS = 9
# Acceptance criterion 1: closed form vs Monte Carlo within 3% at 1e5
# realizations for all eight SINR families.  The Monte Carlo estimate has
# sampling error, so a row fails only when its error exceeds the bound by more
# than MC_Z of its standard errors (one-sided, about 0.1% per row): a true
# deviation above 3% still fails, sampling noise around a 2.5% deviation
# does not.
MC_REL_ERR_BOUND = 0.03
MC_Z = 3.0
# The rho search keeps rho = 0 as a candidate, so an RS job's sum SE is never
# below its non-RS pair; the slack only absorbs last-digit rounding.
RS_PAIR_RTOL = 1e-12


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: the op kind, its inputs and its nominal cost.

    ``system`` is the spec's system section for sweeps and the
    ``SystemConfig`` keyword arguments for validation.  ``nominal_op_s`` is
    a fixed constant, not a measurement: with the run length it fixes the
    op count, so every commit does the same work for the same arguments.
    """

    name: str
    kind: str  # "sweep" or "validate"
    system: dict
    sweep: dict | None = None
    schemes: tuple = ()
    realizations: int = 0
    rho: float = 0.5
    nominal_op_s: float = 1.0
    min_ops: int = 3

    def op_count(self, seconds: float) -> int:
        return max(self.min_ops, round(seconds / self.nominal_op_s))

    @property
    def jobs_per_op(self) -> int:
        if self.kind != "sweep":
            return 1
        return (len(self.sweep["values"]) if self.sweep else 1) * len(self.schemes)

    @property
    def op_name(self) -> str:
        return "cli.run_experiment" if self.kind == "sweep" else "cli.validate_families"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-default", kind="sweep", system=README_SYSTEM,
            sweep=README_SWEEP, schemes=(DU_RS, DU_NORS), nominal_op_s=0.16,
        ),
        Workload(
            name="sweep-large", kind="sweep",
            system={**README_SYSTEM, "L": 200, "K": 32, "N": 4, "tau_p": 8,
                    "correlation": "exponential", "corr_r": 0.7},
            schemes=(DU_RS, DF_NC_RS), nominal_op_s=4.0,
        ),
        Workload(
            name="validate-desk", kind="validate",
            system={"L": 4, "K": 2, "N": 2, "tau_p": 2, "tau_c": 20},
            realizations=100_000, nominal_op_s=4.0,
        ),
    )
}

def op_seed(seed: int, index: int) -> int:
    """Seed of op ``index`` in a run with workload seed ``seed``."""
    ss = np.random.SeedSequence([int(seed), int(index)])
    return int(ss.generate_state(1, dtype=np.uint32)[0])


def make_ops(workload: Workload, seed: int, count: int) -> list:
    """Parse the inputs of ``count`` ops: experiment specs or (config, phases)."""
    import cfrs
    from cfrs import cli

    ops = []
    for i in range(count):
        s = op_seed(seed, i)
        if workload.kind == "sweep":
            spec = {
                "system": {**workload.system, "seed": s},
                "sweep": workload.sweep or {"parameter": "none", "values": []},
                "schemes": [dict(x) for x in workload.schemes],
                "mc_realizations": 0,
                "repetitions": 1,
            }
            ops.append(cli.spec_from_dict(spec, where=f"{workload.name}[{i}]"))
        else:
            cfg = cfrs.SystemConfig(**workload.system, seed=s)
            ops.append((cfg, cfrs.PhaseStatistics.from_config(cfg)))
    return ops


def call(workload: Workload, op, out_dir: Path):
    """Run one op; this call is all that the op latency measures."""
    from cfrs import cli

    if workload.kind == "sweep":
        return cli.run_experiment(op, out_dir=out_dir)
    cfg, phases = op
    return cli.validate_families(cfg, phases, workload.realizations, rho=workload.rho)


def output_rows(workload: Workload, result) -> list[dict]:
    """The op's output rows: results.csv for a sweep, the returned rows otherwise."""
    if workload.kind != "sweep":
        return list(result)
    with open(Path(result) / "results.csv", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def failed_rows(rows: list[dict]) -> int:
    """Rows whose ``status`` column records an error (sweeps only)."""
    return sum(1 for r in rows if r.get("status", "ok") != "ok")


def _job_key(row: dict) -> tuple:
    return (row["sweep_value"], row["private_scheme"], row["transmission"],
            row["rs"], row["weights_mode"], row["repetition"])


def check(workload: Workload, op, rows: list[dict]) -> list[str]:
    """Problems in one op's output; an empty list means the output is correct.

    Needs no stored reference: shapes, finiteness, the sum-SE identity, the
    power-split range and the RS-vs-non-RS pairing on sweeps, and the
    closed-form-vs-Monte-Carlo bound on validation.
    """
    if workload.kind == "sweep":
        return _check_sweep(workload, op, rows)
    return _check_validate(workload, op, rows)


def _finite_positive(text: str) -> bool:
    try:
        x = float(text)
    except (TypeError, ValueError):
        return False
    return math.isfinite(x) and x > 0


def _check_sweep(workload: Workload, spec, rows: list[dict]) -> list[str]:
    problems = []
    K = spec.base.K
    if failed_rows(rows):
        problems.append(f"{failed_rows(rows)} rows with an error status")
    jobs: dict[tuple, list[dict]] = {}
    for row in rows:
        jobs.setdefault(_job_key(row), []).append(row)
    if len(jobs) != workload.jobs_per_op:
        problems.append(f"{len(jobs)} jobs in results.csv, expected {workload.jobs_per_op}")
    sum_se = {}
    for key, job in jobs.items():
        if len(job) != K:
            problems.append(f"job {key}: {len(job)} rows, expected {K}")
        if not all(_finite_positive(r["sum_se"]) for r in job):
            problems.append(f"job {key}: sum_se not finite and positive")
            continue
        sum_se[key] = float(job[0]["sum_se"])
        parts = float(job[0]["se_common"]) + sum(float(r["se_private"]) for r in job)
        if abs(parts - sum_se[key]) > 1e-9 * sum_se[key]:
            problems.append(f"job {key}: sum_se {sum_se[key]!r} is not se_common plus "
                            f"the private SEs ({parts!r})")
        rho = float(job[0]["rho"])
        if not (0.0 <= rho <= 1.0 and (key[3] == "1" or rho == 0.0)):
            problems.append(f"job {key}: power split rho={rho!r} out of range")
    for key, value in sum_se.items():
        if key[3] != "1":
            continue
        pair = (key[0], key[1], key[2], "0", "", key[5])
        if pair in sum_se and value < sum_se[pair] * (1 - RS_PAIR_RTOL):
            problems.append(f"RS job {key} sum_se {value!r} below non-RS {sum_se[pair]!r}")
    return problems


def _check_validate(workload: Workload, op, rows: list[dict]) -> list[str]:
    problems = []
    cfg, _ = op
    expected = 8 * 3 * cfg.K  # families x default instants x UEs
    if len(rows) != expected:
        problems.append(f"{len(rows)} validation rows, expected {expected}")
    if not all(_finite_positive(r["closed_sinr"]) for r in rows):
        problems.append("closed-form SINR not finite and positive")
    for r in rows:
        rel, closed = float(r["rel_err"]), float(r["closed_sinr"])
        noise = MC_Z * float(r["mc_stderr"]) / closed if closed > 0 else math.inf
        if not rel <= MC_REL_ERR_BOUND + noise:
            problems.append(
                f"{r['stream']} {r['transmission']} {r['scheme']} n={r['n']} k={r['k']}: "
                f"closed form vs Monte Carlo error {rel:.4%} above "
                f"{MC_REL_ERR_BOUND:.0%} + {MC_Z:g} standard errors ({noise:.4%})")
    return problems


def _sig(text) -> str:
    return f"{float(text):.{DIGEST_DIGITS - 1}e}"


def digest_lines(workload: Workload, rows: list[dict]) -> list[str]:
    """Canonical text of an op's sum-SE values or closed-form SINRs."""
    if workload.kind == "sweep":
        return sorted(
            "|".join(_job_key(r)) + f"|{r['k']}|{_sig(r['sum_se'])}"
            for r in rows if r.get("status") == "ok"
        )
    return [
        f"{r['stream']}|{r['transmission']}|{r['scheme']}|{r['n']}|{r['k']}|"
        f"{_sig(r['closed_sinr'])}"
        for r in rows
    ]


def digest(lines_per_op: list[list[str]]) -> str:
    h = hashlib.sha256()
    for i, lines in enumerate(lines_per_op):
        h.update(f"op {i}\n".encode())
        for line in lines:
            h.update(line.encode() + b"\n")
    return h.hexdigest()[:16]


def sizes(workload: Workload, ops: int) -> dict:
    """Problem sizes and the dense tensor sizes they imply (computed, MiB)."""
    s = workload.system
    L, K, N, tau_p = s["L"], s["K"], s["N"], s["tau_p"]
    mib = 2.0 ** 20
    out = {
        "L": L, "K": K, "N": N, "tau_p": tau_p,
        "realizations": workload.realizations,
        "jobs_per_op": workload.jobs_per_op,
        "ops": ops,
        "computed_q_cross_mib": 16 * K * K * L * N * N / mib,
        "computed_tr_qcr_mib": 16 * K ** 3 * L / mib,
    }
    if workload.kind == "validate":
        groups = min(K, tau_p)
        lam = tau_p + 1
        tau_c = s["tau_c"]
        # pilot instants, then the instants validate_families evaluates
        m = len(set(range(1, groups + 1)) | {lam, min(lam + 5, tau_c), tau_c})
        per = 2 * 16 * K * L * N + 8 * (K + L) * m + 16 * groups * L * N
        out["computed_batch_mib"] = workload.realizations * per / mib
        out["instants"] = 3
    return out
