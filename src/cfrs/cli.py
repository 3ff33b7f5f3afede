"""Command-line interface: config parsing, experiment sweeps, CSV reports.

Subcommands
-----------
nmse      estimation quality (MMSE and LS NMSE) per link, optionally swept
          over oscillator increment variances
se        closed-form SE tables for the configured schemes
validate  closed-form SINRs against the Monte Carlo oracle, all families
rho-opt   binary search for the optimal common/private power split
robust    max-min robust common precoding weights
sweep     full experiment from an experiment spec, with replayable manifest

Each section of an experiment spec (system, schemes, sweep, top level) is
one table of JSON key -> (field, parser); the same tables parse a spec and
write it back for the manifest.  Parsers reject the wrong JSON type and name
the field: numeric keys take JSON numbers, not strings or booleans.

Units at the boundary: powers accept watts (plain numbers) or "<x> dBm";
variances accept rad^2 (plain numbers) or "<x> dB".  Everything is linear
SI internally (dBm -> 10^(x/10) mW; dB -> 10^(x/10)).  CSV files start
with a "# schema=..." comment line that versions the column layout.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import logging
import numbers
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import closed_form, estimation, model, montecarlo, optimize
from .closed_form import TraceTerms, make_plan
from .estimation import assign_pilots, estimation_statistics
from .model import PhaseStatistics, SystemConfig, build_network

log = logging.getLogger("cfrs")

RESULTS_SCHEMA = "cfrs.results.v1"
AGGREGATE_SCHEMA = "cfrs.aggregate.v1"
NMSE_SCHEMA = "cfrs.nmse.v1"
VALIDATE_SCHEMA = "cfrs.validate.v1"
NETWORK_SCHEMA = "cfrs.network.v1"
TERMS_SCHEMA = "cfrs.mcterms.v1"
WEIGHTS_SCHEMA = "cfrs.weights.v1"
MANIFEST_SCHEMA = "cfrs.manifest.v1"

WEIGHTS_MODES = ("simple", "robust")


class ConfigError(ValueError):
    """Raised for malformed experiment configuration files."""


# ---------------------------------------------------------------------------
# value parsers: each takes (value, where) and rejects the wrong JSON type
# ---------------------------------------------------------------------------

def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def parse_float(value, key: str = "number") -> float:
    """A JSON number; bools and numeric strings are rejected."""
    if _is_number(value):
        return float(value)
    raise ConfigError(f"{key}: expected a number, got {value!r}")


def parse_int(value, key: str = "integer") -> int:
    """An integral number; bools, fractions and strings are rejected."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, float) and value.is_integer())
    if integral and not isinstance(value, bool):
        return int(value)
    raise ConfigError(f"{key}: expected an integer, got {value!r}")


def parse_bool(value, key: str = "flag") -> bool:
    if isinstance(value, bool):
        return value
    raise ConfigError(f"{key}: expected true or false, got {value!r}")


def parse_str(value, key: str = "string") -> str:
    if isinstance(value, str):
        return value
    raise ConfigError(f"{key}: expected a string, got {value!r}")


def _choice(options: tuple[str, ...]):
    """Parser of one of ``options``."""
    def parse(value, key: str) -> str:
        if isinstance(value, str) and value in options:
            return value
        raise ConfigError(f"{key}: must be one of {options}, got {value!r}")
    return parse


def _list_of(parse):
    """Parser of a JSON list whose items ``parse`` reads; returns a tuple."""
    def parse_list(value, key: str) -> tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{key}: expected a list, got {value!r}")
        return tuple(parse(v, f"{key}[{i}]") for i, v in enumerate(value))
    return parse_list


def _with_unit(value, key: str, units, what: str, hint: str) -> float:
    """A number, or a string ending in the first matching suffix of
    ``units`` (suffix, conversion to linear); the empty suffix comes last."""
    if _is_number(value):
        return float(value)
    if isinstance(value, str):
        text = value.strip()
        for suffix, linear in units:
            if text.lower().endswith(suffix):
                try:
                    return linear(float(text[:len(text) - len(suffix)]))
                except ValueError:
                    break
    raise ConfigError(f"{key}: cannot parse {what} value {value!r} ({hint})")


_POWER_UNITS = (("dbm", model.dbm_to_watt), ("w", float), ("", float))
_VARIANCE_UNITS = (("db", lambda x: 10.0 ** (x / 10.0)), ("", float))


def parse_power(value, key: str = "power") -> float:
    """Power in watts from a number (W) or a string like '23 dBm' / '0.1 W'."""
    return _with_unit(value, key, _POWER_UNITS, "power", "use watts or 'x dBm'")


def parse_variance(value, key: str = "variance") -> float:
    """Variance in rad^2 from a number or a string like '-20 dB'."""
    return _with_unit(value, key, _VARIANCE_UNITS, "variance", "use rad^2 or 'x dB'")


def _parse_pilot_power(value, key: str):
    """One pilot power for every UE, or a per-UE list."""
    return _list_of(parse_power)(value, key) if isinstance(value, list) else parse_power(value, key)


# per sweep: value parser, admissible range (an "inside" test, so that nan
# fails it) and that range as the error message states it
_SWEEP_VALUES = {
    "oscillator_variance": (parse_variance, lambda v: 0 <= v < np.inf, "[0, inf)"),
    "transmit_power": (parse_power, lambda v: 0 < v < np.inf, "(0, inf)"),
    "antenna_count": (lambda v, key: float(parse_int(v, key)), lambda v: v >= 1, "[1, inf)"),
    "rho": (parse_float, lambda v: 0 <= v <= 1, "[0, 1]"),
}
SWEEP_PARAMETERS = ("none", *_SWEEP_VALUES)


_OSC_KEYS = "system.osc_constant_ap/osc_constant_ue"


def _check_decay(config: SystemConfig, phases: PhaseStatistics, where: str) -> PhaseStatistics:
    """``phases`` if every pilot of ``config`` survives its drift to the
    estimation instant (``estimation.decay_factors``), else ConfigError
    naming ``where``, the input that set the variances."""
    try:
        estimation.decay_factors(assign_pilots(config.K, config.tau_p), phases)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return phases


def _sweep_value(parameter: str, value, key: str) -> float:
    """One value of an active sweep, parsed and range-checked."""
    parse, inside, interval = _SWEEP_VALUES[parameter]
    v = parse(value, key)
    if not inside(v):
        raise ConfigError(f"{key}: {parameter} {v!r} is outside {interval}")
    return v


# ---------------------------------------------------------------------------
# experiment specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchemeSpec:
    private_scheme: str
    transmission: str
    rs_enabled: bool
    weights_mode: str = "simple"

    def label(self) -> str:
        tag = f"{self.private_scheme}.{self.transmission}"
        if self.rs_enabled:
            tag += f".rs-{self.weights_mode}"
        else:
            tag += ".nors"
        return tag


@dataclass(frozen=True)
class ExperimentSpec:
    base: SystemConfig
    schemes: tuple[SchemeSpec, ...]
    sweep_parameter: str = "none"
    sweep_values: tuple[float, ...] = ()
    mc_realizations: int = 0
    repetitions: int = 1
    output_path: str = "results"

    def __post_init__(self):
        if self.sweep_parameter not in SWEEP_PARAMETERS:
            raise ConfigError(f"sweep.parameter must be one of {SWEEP_PARAMETERS}")
        if self.sweep_parameter != "none" and not self.sweep_values:
            raise ConfigError("sweep.values must be non-empty for an active sweep")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if not (self.mc_realizations == 0
                or self.mc_realizations >= montecarlo.MIN_REALIZATIONS):
            raise ConfigError(
                f"mc_realizations must be 0 (no Monte Carlo check) or "
                f">= {montecarlo.MIN_REALIZATIONS}, got {self.mc_realizations}")
        if not self.schemes:
            raise ConfigError("at least one scheme is required")
        # every job's pilots must survive its drift to the estimation
        # instant.  An oscillator sweep replaces the base's variances, and
        # its largest value decays the most.
        if self.sweep_parameter == "oscillator_variance":
            i = int(np.argmax(self.sweep_values))
            var = self.sweep_values[i]
            _check_decay(self.base, PhaseStatistics(var, var), f"sweep.values[{i}]")
        else:
            _check_decay(self.base, PhaseStatistics.from_config(self.base), _OSC_KEYS)


# Each section of the spec is a table of JSON key -> (field, parser(value,
# where)); _parse_section reads a section through its tables and
# _section_dict writes it back.
_SYSTEM_REQUIRED = {
    "L": ("L", parse_int),
    "K": ("K", parse_int),
    "N": ("N", parse_int),
    "tau_p": ("tau_p", parse_int),
    "tau_c": ("tau_c", parse_int),
    "pilot_power": ("p_pilot", _parse_pilot_power),
    "downlink_power": ("p_d", parse_power),
    "noise_ul": ("sigma2_ul", parse_power),
    "noise_dl": ("sigma2_dl", parse_power),
    "symbol_duration_s": ("T_s", parse_float),
    "carrier_hz": ("f_c", parse_float),
    "osc_constant_ap": ("c_ap", parse_float),
    "osc_constant_ue": ("c_ue", parse_float),
    "area_side_m": ("area_side", parse_float),
    "seed": ("seed", parse_int),
}
_SYSTEM_OPTIONAL = {
    "correlation": ("correlation", _choice(model.CORRELATION_MODELS)),
    "corr_r": ("corr_r", parse_float),
    "pl_fixed_db": ("pl_fixed_db", parse_float),
    "pl_break1_m": ("pl_break1_m", parse_float),
    "pl_break2_m": ("pl_break2_m", parse_float),
    "min_dist_m": ("min_dist_m", parse_float),
    "shadow_std_db": ("shadow_std_db", parse_float),
}
_SCHEME_REQUIRED = {
    "private": ("private_scheme", _choice(closed_form.PRIVATE_SCHEMES)),
    "transmission": ("transmission", _choice(closed_form.TRANSMISSIONS)),
    "rs": ("rs_enabled", parse_bool),
}
_SCHEME_OPTIONAL = {"weights": ("weights_mode", _choice(WEIGHTS_MODES))}
# the sweep's values are read as they stand here; _parse_sweep parses them
# once the parameter is known
_SWEEP_OPTIONAL = {
    "parameter": ("sweep_parameter", _choice(SWEEP_PARAMETERS)),
    "values": ("sweep_values", _list_of(lambda value, key: value)),
}
_TOP_SCALARS = {
    "mc_realizations": ("mc_realizations", parse_int),
    "repetitions": ("repetitions", parse_int),
    "output": ("output_path", parse_str),
}


def _parse_section(section, where: str, required: dict, optional: dict) -> dict:
    """The fields of one JSON object, each key run through its parser."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: must be an object")
    unknown = set(section) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")
    fields = {}
    for key, (field_name, parse) in (required | optional).items():
        if key in section:
            fields[field_name] = parse(section[key], f"{where}.{key}")
        elif key in required:
            raise ConfigError(f"{where}: missing required key {key!r}")
    return fields


def _section_dict(obj, table: dict) -> dict:
    """One section's JSON object from its table; tuples become lists."""
    values = {key: getattr(obj, field_name) for key, (field_name, _) in table.items()}
    return {key: list(v) if isinstance(v, tuple) else v for key, v in values.items()}


def _parse_system(section, where: str) -> SystemConfig:
    fields = _parse_section(section, where, _SYSTEM_REQUIRED, _SYSTEM_OPTIONAL)
    try:
        return SystemConfig(**fields)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_scheme(entry, where: str) -> SchemeSpec:
    scheme = SchemeSpec(**_parse_section(entry, where, _SCHEME_REQUIRED, _SCHEME_OPTIONAL))
    pair = (scheme.private_scheme, scheme.transmission)
    if scheme.rs_enabled and scheme.weights_mode == "robust" and pair != optimize.MAXMIN_SCHEME:
        raise ConfigError(
            f"{where}.weights: robust weights are optimized for the "
            f"{' '.join(optimize.MAXMIN_SCHEME)} common SINR only, not {' '.join(pair)}")
    return scheme


def _parse_schemes(value, where: str) -> tuple[SchemeSpec, ...]:
    """The scheme list; two entries with one label would run the same job twice."""
    schemes = _list_of(_parse_scheme)(value, where)
    first = {}
    for i, scheme in enumerate(schemes):
        j = first.setdefault(scheme.label(), i)
        if j != i:
            raise ConfigError(f"{where}[{i}]: scheme {scheme.label()!r} repeats {where}[{j}]")
    return schemes


def _parse_sweep(section, where: str) -> dict:
    fields = _parse_section(section, where, {}, _SWEEP_OPTIONAL)
    parameter = fields.get("sweep_parameter", "none")
    values = fields.get("sweep_values", ())
    if parameter == "none" and values:
        raise ConfigError(f"{where}.values: {len(values)} value(s) given, but no "
                          f"sweep.parameter selects what they sweep")
    fields["sweep_values"] = tuple(
        _sweep_value(parameter, v, f"{where}.values[{i}]") for i, v in enumerate(values))
    return fields


_TOP_REQUIRED = {
    "system": ("base", _parse_system),
    "schemes": ("schemes", _parse_schemes),
}
_TOP_OPTIONAL = {"sweep": ("sweep", _parse_sweep), **_TOP_SCALARS}


def spec_from_dict(data: dict, where: str = "config") -> ExperimentSpec:
    fields = _parse_section(data, where, _TOP_REQUIRED, _TOP_OPTIONAL)
    try:
        return ExperimentSpec(**fields.pop("sweep", {}), **fields)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def spec_to_dict(spec: ExperimentSpec) -> dict:
    """Canonical (linear-unit) dict representation; parse round-trips it."""
    return {
        "system": _section_dict(spec.base, _SYSTEM_REQUIRED | _SYSTEM_OPTIONAL),
        "sweep": _section_dict(spec, _SWEEP_OPTIONAL),
        "schemes": [_section_dict(s, _SCHEME_REQUIRED | _SCHEME_OPTIONAL)
                    for s in spec.schemes],
        **_section_dict(spec, _TOP_SCALARS),
    }


def _read_json(path: Path):
    """The JSON value in ``path``; a directory, a missing file or bad JSON
    is a ConfigError."""
    if path.is_dir():
        raise ConfigError(f"{path}: is a directory, not a JSON file")
    if not path.is_file():
        raise ConfigError(f"{path}: file not found")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def parse_config(path: str | Path) -> ExperimentSpec:
    """Strictly parse an experiment spec from a JSON file."""
    return spec_from_dict(_read_json(Path(path)), where=str(path))


# ---------------------------------------------------------------------------
# experiment execution
# ---------------------------------------------------------------------------

def config_hash(config: SystemConfig) -> str:
    """Stable short hash of a system configuration for the manifest."""
    payload = json.dumps(
        {k: (list(v) if isinstance(v, tuple) else v) for k, v in vars(config).items()},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _job_seed(master: int, repetition: int) -> int:
    # one topology per repetition, shared across sweep points and schemes,
    # so scheme/sweep comparisons are paired
    ss = np.random.SeedSequence([int(master), repetition])
    return int(ss.generate_state(1, dtype=np.uint32)[0])


def _job_inputs(spec: ExperimentSpec, sweep_value: float | None, cfg: SystemConfig,
                ) -> tuple[SystemConfig, PhaseStatistics, float | None]:
    """A job's system config, phase statistics and fixed power split (None
    lets RS schemes optimize it) at one sweep point, from its repetition's
    config ``cfg``, which is returned as it is where the sweep leaves it."""
    if spec.sweep_parameter == "transmit_power":
        cfg = dataclasses.replace(cfg, p_d=sweep_value)
    elif spec.sweep_parameter == "antenna_count":
        cfg = dataclasses.replace(cfg, N=int(sweep_value))
    if spec.sweep_parameter == "oscillator_variance":
        phases = PhaseStatistics(var_ap=sweep_value, var_ue=sweep_value)
    else:
        phases = PhaseStatistics.from_config(cfg)
    return cfg, phases, sweep_value if spec.sweep_parameter == "rho" else None


class Topology(NamedTuple):
    """One network draw with the statistics every scheme is evaluated on."""

    net: model.NetworkModel
    pilots: estimation.PilotAssignment
    stats: estimation.EstimationStatistics
    terms: TraceTerms


def build_topology(
    cfg: SystemConfig,
    phases: PhaseStatistics,
    network: tuple[model.NetworkModel, estimation.PilotAssignment] | None = None,
) -> Topology:
    """Compute the estimation statistics and traces of ``network``, the
    network and pilots drawn for ``cfg``, drawing them first if None."""
    net, pilots = network or (build_network(cfg), assign_pilots(cfg.K, cfg.tau_p))
    stats = estimation_statistics(net, pilots, phases, cfg)
    return Topology(net, pilots, stats, TraceTerms.compute(net, stats, pilots))


class Job(NamedTuple):
    """One scheme on one topology, with the inputs of its sweep point."""

    cfg: SystemConfig
    phases: PhaseStatistics
    scheme: SchemeSpec
    topology: Topology
    fixed_rho: float | None = None


def _in_stack(fn, ids: list[int], failed: dict) -> list:
    """[(ids of a call, its result)] of ``fn(ids)``, which returns one result
    per id from one stacked call.  If that call raises, each id is run
    alone, so that a failure lands on its own id, in ``failed``."""
    try:
        return [(ids, fn(ids))] if ids else []
    except Exception as exc:  # redone one by one below
        if len(ids) == 1:
            failed[ids[0]] = exc
            return []
    return [call for i in ids for call in _in_stack(fn, [i], failed)]


def run_jobs(jobs: list[Job | Exception], mc_realizations: int = 0) -> list:
    """Each job's (report, extras), or the exception that failed it; extras
    carries the optional Monte Carlo cross-check errors.

    ``jobs`` holds Jobs, which share K, tau_p and tau_c, and, in place of
    a job whose build failed, the exception that failed it, which is
    returned in its place.  One ``make_plan`` and one
    ``closed_form.plan_parts`` call per (private scheme, transmission)
    build the plans and the rho-independent coefficients as stacks with a
    leading job axis, and these stacks are joined once into one stack
    with a row per job.  One lockstep ``optimize.optimal_rho`` searches the
    rows of the jobs that optimize rho.  Each robust job's max-min weights
    are solved at its searched rho, one solve per job; one more
    ``plan_parts`` call builds the coefficients of all robust jobs as a
    stack, whose rows are appended to the repetition stack in place of
    their simple-weight rows.  One ``se_report`` reports every job's row.
    Each job's Monte Carlo check runs on the plan cut from its stack's
    plan.  If a stacked call raises, its jobs are redone one by one
    (``_in_stack``), so each failure lands on its own job and the others
    keep their numbers, which a stack computes bitwise as their own calls
    do.
    """
    failed = {i: job for i, job in enumerate(jobs) if isinstance(job, Exception)}
    built = [i for i in range(len(jobs)) if i not in failed]
    if len({(jobs[i].cfg.K, jobs[i].cfg.tau_p, jobs[i].cfg.tau_c) for i in built}) > 1:
        raise ValueError("jobs evaluated together must share K, tau_p and tau_c")

    def parts_of(ids, **kwargs):
        first = jobs[ids[0]]
        terms = TraceTerms.stack([jobs[i].topology.terms for i in ids])
        plan = make_plan(terms, first.scheme.private_scheme, first.scheme.transmission, **kwargs)
        return plan, closed_form.plan_parts(terms, plan, [jobs[i].phases for i in ids],
                                            [jobs[i].cfg for i in ids],
                                            first.cfg.data_instants())

    pairs = {}  # (private scheme, transmission) -> its jobs
    for i in built:
        pairs.setdefault((jobs[i].scheme.private_scheme, jobs[i].scheme.transmission),
                         []).append(i)
    calls = [call for ids in pairs.values() for call in _in_stack(parts_of, ids, failed)]
    order = [i for ids, _ in calls for i in ids]  # the jobs by row of the repetition stack
    row = {i: r for r, i in enumerate(order)}
    stack = closed_form.PlanParts.stack([parts for _, (_, parts) in calls]) if calls else None
    plans = {i: (plan, b) for ids, (plan, _) in calls for b, i in enumerate(ids)}

    def rows_of(ids):
        rows = [row[i] for i in ids]
        return stack if rows == list(range(stack.jobs)) else stack.take(rows)

    rho, searched = {}, []
    for i in order:
        scheme = jobs[i].scheme
        if not scheme.rs_enabled:
            rho[i] = 0.0
        elif jobs[i].fixed_rho is not None:
            rho[i] = jobs[i].fixed_rho
        else:
            searched.append(i)

    def search(ids):
        curve = closed_form.sum_se_curve(rows_of(ids), jobs[ids[0]].cfg.tau_c)
        return optimize.optimal_rho(curve)[0].tolist()

    for ids, found in _in_stack(search, searched, failed):
        rho.update(zip(ids, found))

    weights = {}  # robust job -> its max-min weights, solved at its searched rho
    for i in order:
        job = jobs[i]
        if job.scheme.rs_enabled and job.scheme.weights_mode == "robust" and rho.get(i, 0) > 0:
            try:
                problem = optimize.build_maxmin_problem(job.topology.terms, job.phases,
                                                        job.cfg, rho[i])
                weights[i] = optimize.robust_common_precoding(problem).weights
            except Exception as exc:  # recorded, the other jobs continue
                failed[i] = exc

    def robust_parts(ids):
        return parts_of(ids, weights=np.stack([weights[i] for i in ids]), unit_eta=True)

    # a robust job's row, appended to the stack, replaces the simple-weight
    # row its rho was searched on
    robust = _in_stack(robust_parts, list(weights), failed)
    row.update((i, stack.jobs + r) for r, i in enumerate(i for ids, _ in robust for i in ids))
    plans.update((i, (plan, b)) for ids, (plan, _) in robust for b, i in enumerate(ids))
    stack = closed_form.PlanParts.stack([stack, *(parts for _, (_, parts) in robust)])

    def report(ids):
        result = closed_form.se_report(rows_of(ids), np.array([rho[i] for i in ids]),
                                       jobs[ids[0]].cfg.tau_c)
        return [result.job(b) for b in range(len(ids))]

    reports = {}
    for ids, found in _in_stack(report, [i for i in order if i in rho and i not in failed],
                                failed):
        reports.update(zip(ids, found))

    extras = {}
    for i in reports if mc_realizations > 0 else ():
        plan, b = plans[i]
        try:
            extras[i] = _mc_errors(jobs[i], plan.job(b).replace_rho(rho[i]), reports[i],
                                   mc_realizations)
        except Exception as exc:  # recorded, the other jobs continue
            failed[i] = exc
    return [failed[i] if i in failed else (reports[i], extras.get(i, {}))
            for i in range(len(jobs))]


def _mc_errors(job: Job, plan, report, mc_realizations: int) -> dict:
    """The Monte Carlo check of a job's report at the mid instant: the
    largest relative error per stream (``MCSinr.compare``), left out where
    every UE is.  A UE is left out where its closed-form SINR is at or
    below the larger of the 1e-30 floor and the stream's Monte Carlo
    standard error: the check cannot resolve a SINR below its own noise.
    At rho = 0 every closed-form common SINR is 0, so the common column
    stays blank."""
    cfg = job.cfg
    net, pilots, stats, _ = job.topology
    mid = cfg.mid_instant
    batch = montecarlo.sample_batch(
        net, pilots, stats, job.phases, cfg, mc_realizations, cfg.seed, instants=[mid],
        plans=[plan],
    )
    mc = montecarlo.mc_sinr(batch, plan, mid)
    i = mid - cfg.estimation_instant  # the report's columns start at lambda
    errors = {}
    for stream, closed in (("private", report.sinr_private), ("common", report.sinr_common)):
        rel = mc.compare(stream, closed[:, i], above_noise=True).rel_err
        if not np.isnan(rel).all():
            errors[f"mc_rel_err_{stream}"] = float(np.nanmax(rel))
    return errors


LABEL_COLUMNS = [
    "sweep_parameter", "sweep_value", "private_scheme", "transmission", "rs",
    "weights_mode",
]
RESULT_COLUMNS = LABEL_COLUMNS + [
    "repetition", "k", "rho", "se_private", "se_common_per_ue", "se_common",
    "sum_se", "seed", "mc_rel_err_private", "mc_rel_err_common", "status",
]
AGGREGATE_COLUMNS = LABEL_COLUMNS + [
    "repetitions_ok", "mean_sum_se", "min_sum_se", "max_sum_se",
]


def _job_label(spec: ExperimentSpec, sweep_value: float | None, scheme: SchemeSpec) -> list:
    """The values of the columns that name a job's sweep point and scheme
    in both CSVs (``LABEL_COLUMNS``)."""
    return [
        spec.sweep_parameter,
        "" if sweep_value is None else repr(float(sweep_value)),
        scheme.private_scheme,
        scheme.transmission,
        int(scheme.rs_enabled),
        scheme.weights_mode if scheme.rs_enabled else "",
    ]


def run_experiment(spec: ExperimentSpec, out_dir: str | Path | None = None) -> Path:
    """Execute every (sweep point, scheme, repetition) job and write results.

    A repetition derives its seed and system config once and draws its
    network and pilots once, sharing them across its jobs for as long as
    their system config, the downlink power set aside, is the same
    (oscillator, rho and transmit-power sweeps; an antenna sweep point has
    its own network); a failed draw is recorded on every job that needed
    it.  Each job computes its own estimation statistics and traces, and
    then all jobs of the repetition, a failed build's exception in its
    job's place, go to one ``run_jobs`` call, so one repetition's
    topologies, one per sweep point and scheme, are alive at once.  Writes
    results.csv (one row per job and UE), aggregate.csv, and a
    manifest.json from which the run can be replayed byte-identically.
    Per-job failures are recorded in the rows' status column and do not
    abort the run.
    """
    out = Path(out_dir) if out_dir is not None else Path(spec.output_path)
    out.mkdir(parents=True, exist_ok=True)

    sweep_points = spec.sweep_values or (None,)
    seeds = [_job_seed(spec.base.seed, rep) for rep in range(spec.repetitions)]
    labels = {(sweep_idx, scheme_idx): _job_label(spec, sweep_value, scheme)
              for sweep_idx, sweep_value in enumerate(sweep_points)
              for scheme_idx, scheme in enumerate(spec.schemes)}
    rows = {}  # (sweep_idx, scheme_idx, rep) -> the job's rows, one per UE
    agg: dict[tuple, list[float]] = {}
    for rep, seed in enumerate(seeds):
        rep_cfg = dataclasses.replace(spec.base, seed=seed)
        drawn_for = None
        keys, jobs = [], []  # a Job, or the exception that failed its build
        for sweep_idx, sweep_value in enumerate(sweep_points):
            cfg, phases, fixed_rho = _job_inputs(spec, sweep_value, rep_cfg)
            # build_network does not read the downlink power p_d
            draw_cfg = cfg if cfg.p_d == rep_cfg.p_d else dataclasses.replace(
                cfg, p_d=rep_cfg.p_d)
            if draw_cfg != drawn_for:
                drawn_for = draw_cfg
                try:
                    network = (build_network(cfg), assign_pilots(cfg.K, cfg.tau_p))
                except Exception as exc:  # recorded on each job below
                    network = exc
            for scheme_idx, scheme in enumerate(spec.schemes):
                keys.append((sweep_idx, scheme_idx))
                try:
                    if isinstance(network, Exception):
                        raise network
                    jobs.append(Job(cfg, phases, scheme, build_topology(cfg, phases, network),
                                    fixed_rho))
                except Exception as exc:  # recorded, run continues
                    jobs.append(exc)
        results = run_jobs(jobs, spec.mc_realizations)
        for (sweep_idx, scheme_idx), result in zip(keys, results):
            label = labels[sweep_idx, scheme_idx] + [rep]
            if isinstance(result, Exception):
                log.warning("job failed (%s, rep %d): %s",
                            spec.schemes[scheme_idx].label(), rep, result)
                # the value columns of these rows stay blank
                status = f"error:{type(result).__name__}"
                job_rows = [label + [k, "", "", "", "", "", seed, "", "", status]
                            for k in range(spec.base.K)]
            else:
                report, extras = result
                agg.setdefault((sweep_idx, scheme_idx), []).append(report.sum_se)
                # floats go in as their repr, which the csv writer would
                # make more slowly; a job's own are made once for its rows
                rho, se_common, sse = map(repr, (report.rho, report.se_common, report.sum_se))
                tail = [seed, extras.get("mc_rel_err_private", ""),
                        extras.get("mc_rel_err_common", ""), "ok"]
                job_rows = [label + [k, rho, se_p, se_c, se_common, sse] + tail
                            for k, (se_p, se_c) in enumerate(zip(
                                map(repr, report.se_private.tolist()),
                                map(repr, report.se_common_per_ue.tolist())))]
            rows[sweep_idx, scheme_idx, rep] = job_rows

    # both CSVs list jobs in spec order: sweep point, scheme, then repetition
    _write_csv(out / "results.csv", RESULTS_SCHEMA, RESULT_COLUMNS,
               [row for job in sorted(rows) for row in rows[job]])
    agg_rows = [labels[job] + [len(values), float(np.mean(values)), float(np.min(values)),
                               float(np.max(values))]
                for job, values in sorted(agg.items())]
    _write_csv(out / "aggregate.csv", AGGREGATE_SCHEMA, AGGREGATE_COLUMNS, agg_rows)

    manifest = {
        "schema": MANIFEST_SCHEMA,
        "spec": spec_to_dict(spec),
        "config_hash": config_hash(spec.base),
        "jobs": [
            {"sweep_idx": si, "scheme_idx": ci, "repetition": rep, "seed": seed}
            for si in range(len(sweep_points))
            for ci in range(len(spec.schemes))
            for rep, seed in enumerate(seeds)
        ],
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return out


def _write_csv(path: Path, schema: str, columns: list[str], rows: list):
    """Schema line, header and rows, each a list of values in column order
    or a dict by column; a column missing from a dict is blank, and a dict
    key that names no column, or a list of another length, raises
    ValueError."""
    known = set(columns)
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema={schema}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            if isinstance(row, dict):
                if not known.issuperset(row):
                    raise ValueError(f"{path.name}: row keys {sorted(set(row) - known)} "
                                     "name no column")
                row = [row.get(column, "") for column in columns]
            elif len(row) != len(columns):
                raise ValueError(f"{path.name}: a row of {len(row)} values for "
                                 f"{len(columns)} columns")
            writer.writerow(row)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _desk_config(seed: int = 1) -> SystemConfig:
    return SystemConfig(L=4, K=2, N=2, tau_p=2, tau_c=20, seed=seed)


def _load_system(args, default: SystemConfig | None = None) -> tuple[SystemConfig, ExperimentSpec | None]:
    if args.config:
        spec = parse_config(args.config)
        cfg = spec.base
    else:
        spec = None
        cfg = default if default is not None else SystemConfig()
    if args.seed is not None:
        try:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        except ValueError as exc:
            raise ConfigError(f"--seed: {exc}") from exc
    return cfg, spec


def _system_phases(cfg: SystemConfig, args) -> PhaseStatistics:
    """The phase statistics of the system's oscillator constants, checked
    (``_check_decay``) and named as keys of the spec that set them."""
    where = f"{args.config}: {_OSC_KEYS}" if args.config else _OSC_KEYS
    return _check_decay(cfg, PhaseStatistics.from_config(cfg), where)


def _output_file(value: str | None, flag: str, default: str | None = None,
                 other: tuple[str, Path] | None = None) -> Path | None:
    """The file ``flag`` names, or ``default`` when it names none (None if
    neither), checked before any work: a directory, a missing parent
    directory or the file of the ``other`` (flag, path) output, which the
    later write would overwrite, raises ConfigError naming the flag(s)."""
    if not (value or default):
        return None
    path = Path(value or default)
    if path.is_dir():
        raise ConfigError(f"{flag}: {path} is a directory")
    if not path.parent.is_dir():
        raise ConfigError(f"{flag}: directory {path.parent} does not exist")
    if other is not None and path.resolve() == other[1].resolve():
        raise ConfigError(f"{flag}: {path} is also the {other[0]} file")
    return path


def cmd_nmse(args) -> int:
    out = _output_file(args.out, "--out", "nmse.csv")
    cfg, _ = _load_system(args)
    if args.variances:
        all_phases = [
            _check_decay(cfg, PhaseStatistics(var_ap=var, var_ue=var), "--variances")
            for var in (_sweep_value("oscillator_variance", v, "--variances")
                        for v in args.variances.split(","))]
    else:
        all_phases = [_system_phases(cfg, args)]
    net = build_network(cfg)
    pilots = assign_pilots(cfg.K, cfg.tau_p)
    rows = []
    for phases in all_phases:
        nmse_mmse, nmse_ls = estimation.nmse(net, pilots, phases, cfg)
        for k in range(cfg.K):
            for l in range(cfg.L):
                rows.append(
                    {
                        "variance": repr(float(phases.var_ap)),
                        "k": k,
                        "l": l,
                        "nmse_mmse": repr(float(nmse_mmse[k, l])),
                        "nmse_ls": repr(float(nmse_ls[k, l])),
                    }
                )
    _write_csv(out, NMSE_SCHEMA, ["variance", "k", "l", "nmse_mmse", "nmse_ls"], rows)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def cmd_se(args) -> int:
    out = _output_file(args.out, "--out", "se.csv")
    net_path = _output_file(args.dump_network, "--dump-network", other=("--out", out))
    cfg, spec = _load_system(args)
    phases = _system_phases(cfg, args)
    schemes = (
        spec.schemes
        if spec is not None
        else (
            SchemeSpec("du_mr", "coherent", False),
            SchemeSpec("du_mr", "coherent", True, "simple"),
        )
    )
    topology = build_topology(cfg, phases)
    if net_path is not None:
        net = topology.net
        rows = []
        for l in range(cfg.L):
            rows.append({"kind": "ap", "k": "", "l": l,
                         "x": repr(float(net.ap_positions[l, 0])),
                         "y": repr(float(net.ap_positions[l, 1])),
                         "beta": "", "theta_re": "", "theta_im": ""})
        for k in range(cfg.K):
            rows.append({"kind": "ue", "k": k, "l": "",
                         "x": repr(float(net.ue_positions[k, 0])),
                         "y": repr(float(net.ue_positions[k, 1])),
                         "beta": "", "theta_re": "", "theta_im": ""})
        for k in range(cfg.K):
            for l in range(cfg.L):
                rows.append({"kind": "link", "k": k, "l": l, "x": "", "y": "",
                             "beta": repr(float(net.beta[k, l])),
                             "theta_re": repr(float(net.theta[k, l].real)),
                             "theta_im": repr(float(net.theta[k, l].imag))})
        _write_csv(net_path, NETWORK_SCHEMA,
                   ["kind", "k", "l", "x", "y", "beta", "theta_re", "theta_im"], rows)
        print(f"wrote network to {net_path}")

    rows = []
    results = run_jobs([Job(cfg, phases, scheme, topology) for scheme in schemes])
    for scheme, result in zip(schemes, results):
        if isinstance(result, Exception):
            raise result
        report, _ = result
        for k in range(cfg.K):
            rows.append({"scheme": scheme.label(), "transmission": scheme.transmission,
                         "rho": report.rho, "k": k,
                         "se_private": float(report.se_private[k]),
                         "se_common_per_ue": float(report.se_common_per_ue[k]),
                         "sum_se": report.sum_se, "seed": cfg.seed})
        print(
            f"{scheme.label()}: sum SE = {report.sum_se:.4f} bit/s/Hz"
            + (f" (rho* = {report.rho:.4f})" if scheme.rs_enabled else "")
        )
    _write_csv(out, "cfrs.se.v1",
               ["scheme", "transmission", "rho", "k", "se_private",
                "se_common_per_ue", "sum_se", "seed"], rows)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


FAMILIES = [(stream, transmission, scheme) for stream in ("private", "common")
            for transmission in closed_form.TRANSMISSIONS
            for scheme in closed_form.PRIVATE_SCHEMES]


def validate_families(
    cfg: SystemConfig,
    phases: PhaseStatistics,
    count: int,
    rho: float = 0.5,
    terms_out: Path | None = None,
):
    """Closed form vs Monte Carlo for all eight SINR families, one row per
    (family, instant, UE) from the comparison ``MCSinr.compare``; a row's
    rel_err is blank where its closed-form SINR is at or below the 1e-30
    floor."""
    net, pilots, stats, terms = build_topology(cfg, phases)
    lam = cfg.estimation_instant
    instants = sorted({lam, min(lam + 5, cfg.tau_c), cfg.tau_c})
    # one plan and one set of coefficients per (transmission, scheme), shared
    # by its private and common rows
    plans = {}
    for transmission in closed_form.TRANSMISSIONS:
        for scheme in closed_form.PRIVATE_SCHEMES:
            plan = make_plan(terms, scheme, transmission, rho)
            sinrs = closed_form.assemble(
                closed_form.plan_parts(terms, plan, phases, cfg, instants), plan.rho)
            plans[transmission, scheme] = plan, dict(zip(("private", "common"), sinrs))
    # every plan is declared, so one streamed pass accumulates them all
    batch = montecarlo.sample_batch(
        net, pilots, stats, phases, cfg, count, cfg.seed, instants=instants,
        plans=[plan for plan, _ in plans.values()],
    )
    rows = []
    term_rows = []
    for stream, transmission, scheme in FAMILIES:
        plan, closed_sinrs = plans[transmission, scheme]
        mc_list = montecarlo.mc_sinr(batch, plan, instants)
        for n, mc, closed in zip(instants, mc_list, closed_sinrs[stream].T):
            c = mc.compare(stream, closed)
            rows += [{"stream": stream, "transmission": transmission, "scheme": scheme,
                      "n": int(n), "k": k, "closed_sinr": repr(float(closed[k])),
                      "mc_sinr": repr(float(c.estimate[k])),
                      "mc_stderr": repr(float(c.stderr[k])),
                      "rel_err": "" if np.isnan(c.rel_err[k]) else repr(float(c.rel_err[k])),
                      "ci_lo": repr(float(c.ci_lo[k])), "ci_hi": repr(float(c.ci_hi[k])),
                      "covered": int(c.covered[k])}
                     for k in range(cfg.K)]
        if terms_out is not None:
            family = {"stream": stream, "transmission": transmission, "scheme": scheme,
                      "n": instants[0]}
            term_rows += [{**family, **row} for row in _term_rows(mc_list[0].terms)]
    if terms_out is not None:
        _write_csv(terms_out, TERMS_SCHEMA,
                   ["stream", "transmission", "scheme", "n", "term", "k", "l_or_i",
                    "estimate", "estimate_imag", "stderr"], term_rows)
    return rows


def _term_rows(t: montecarlo.UatFTerms) -> list[dict]:
    """One terms-CSV row per entry of each term; l_or_i is blank for the
    per-UE ``int_common``, and the common terms are left out at rho = 0."""
    terms = [("ds_private", t.ds, t.ds_stderr), ("int_private", t.int_, t.int_stderr)]
    if np.any(t.ds_common != 0):
        terms += [("ds_common", t.ds_common, t.ds_common_stderr),
                  ("int_common", t.int_common, t.int_common_stderr)]
    rows = []
    for term, values, stderr in terms:
        for (k, *j), v in np.ndenumerate(values):
            rows.append({"term": term, "k": k, "l_or_i": j[0] if j else "",
                         "estimate": complex(v).real, "estimate_imag": complex(v).imag,
                         "stderr": float(stderr[(k, *j)])})
    return rows


def cmd_validate(args) -> int:
    if args.mc < montecarlo.MIN_REALIZATIONS:
        raise ConfigError(
            f"--mc: need at least {montecarlo.MIN_REALIZATIONS} realizations, got {args.mc}")
    out = _output_file(args.out, "--out", "validate.csv")
    terms_out = _output_file(args.terms_out, "--terms-out", other=("--out", out))
    cfg, _ = _load_system(args, default=_desk_config())
    phases = _system_phases(cfg, args)
    rows = validate_families(cfg, phases, args.mc, terms_out=terms_out)
    _write_csv(out, VALIDATE_SCHEMA,
               ["stream", "transmission", "scheme", "n", "k", "closed_sinr",
                "mc_sinr", "mc_stderr", "rel_err", "ci_lo", "ci_hi", "covered"],
               rows)
    rel = [float(r["rel_err"]) for r in rows if r["rel_err"]]
    worst = f"{max(rel):.4%}" if rel else "blank: no closed-form SINR above 1e-30"
    print(f"wrote {len(rows)} rows to {out}; worst relative error {worst}")
    return 0


def cmd_rho_opt(args) -> int:
    if not 0 < args.tol < 1:
        raise ConfigError(f"--tol: must lie in (0, 1), got {args.tol}")
    if args.grid < 0 or args.grid == 1:
        raise ConfigError(f"--grid: must be 0 (no grid check) or >= 2, got {args.grid}")
    cfg, _ = _load_system(args)
    phases = _system_phases(cfg, args)
    terms = build_topology(cfg, phases).terms
    plan0 = make_plan(terms, args.scheme, args.transmission, 0.0)
    sse_of = closed_form.sum_se_curve(
        closed_form.plan_parts(terms, plan0, phases, cfg, cfg.data_instants()), cfg.tau_c)
    rho, sse = optimize.optimal_rho(sse_of, tol=args.tol)
    print(f"rho* = {rho:.6f}, sum SE = {sse:.6f} bit/s/Hz "
          f"(non-RS {sse_of(0.0):.6f}, all-common {sse_of(1.0):.6f})")
    if args.grid:
        grid = np.linspace(0.0, 1.0, args.grid)
        values = [sse_of(r) for r in grid]
        best = int(np.argmax(values))
        print(f"grid check: rho = {grid[best]:.6f}, sum SE = {values[best]:.6f}")
    return 0


def cmd_robust(args) -> int:
    out = _output_file(args.out, "--out", "weights.csv")
    cfg, _ = _load_system(args)
    if not 0 < args.rho <= 1:
        raise ConfigError(f"--rho: {args.rho} is outside (0, 1]")
    if not args.eps > 0:
        raise ConfigError(f"--eps: must be > 0, got {args.eps}")
    lam = cfg.estimation_instant
    if args.instant is not None and not lam <= args.instant <= cfg.tau_c:
        raise ConfigError(f"--instant: {args.instant} is outside [{lam}, {cfg.tau_c}]")
    phases = _system_phases(cfg, args)
    terms = build_topology(cfg, phases).terms
    problem = optimize.build_maxmin_problem(terms, phases, cfg, args.rho,
                                            n=args.instant)
    result = optimize.robust_common_precoding(problem, eps=args.eps)
    rows = [
        {"k": k, "l": l, "weight": repr(float(result.weights[k, l]))}
        for k in range(cfg.K)
        for l in range(cfg.L)
    ]
    _write_csv(out, WEIGHTS_SCHEMA, ["k", "l", "weight"], rows)
    print(
        f"achieved min common SINR t = {result.achieved_t:.6g} "
        f"(bracket [{result.bracket[0]:.6g}, {result.bracket[1]:.6g}], "
        f"{result.iterations} Newton steps); wrote weights to {out}"
    )
    return 0


def cmd_sweep(args) -> int:
    if args.replay and args.config:
        raise ConfigError("--replay and --config: give one, the manifest holds its spec")
    if args.replay:
        manifest = _read_json(Path(args.replay))
        if not (isinstance(manifest, dict) and manifest.get("schema") == MANIFEST_SCHEMA
                and "spec" in manifest):
            raise ConfigError(f"{args.replay}: not a {MANIFEST_SCHEMA} manifest")
        spec = spec_from_dict(manifest["spec"], where=str(args.replay))
    else:
        if not args.config:
            raise ConfigError("sweep requires --config or --replay")
        spec = parse_config(args.config)
    if args.mc is not None:
        try:
            spec = dataclasses.replace(spec, mc_realizations=args.mc)
        except ConfigError as exc:
            raise ConfigError(f"--mc: {exc}") from exc
    # checked before any job: mkdir fails on a path that is, or lies under, a file
    out = Path(args.out or spec.output_path)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        flag = "--out" if args.out else f"{args.replay or args.config}.output"
        raise ConfigError(f"{flag}: {existing} is not a directory")
    run_experiment(spec, out_dir=out)
    print(f"experiment written to {out}")
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfrs",
        description="Asynchronous cell-free massive MIMO downlink with rate-splitting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed=True, out="output file"):
        p.add_argument("--config", help="experiment spec (JSON)")
        if seed:
            p.add_argument("--seed", type=int, help="override the config seed")
        if out:
            p.add_argument("--out", help=out)
        p.add_argument("--verbose", action="store_true")

    p = sub.add_parser("nmse", help="MMSE/LS estimation quality per link")
    add_common(p)
    p.add_argument("--variances", help="comma-separated oscillator variances ('-30 dB' or rad^2)")
    p.set_defaults(func=cmd_nmse)

    p = sub.add_parser("se", help="closed-form SE tables")
    add_common(p)
    p.add_argument("--dump-network", help="also write positions/beta/theta to this CSV")
    p.set_defaults(func=cmd_se)

    p = sub.add_parser("validate", help="closed form vs Monte Carlo, all SINR families")
    add_common(p)
    p.add_argument("--mc", type=int, default=20000, help="Monte Carlo realizations")
    p.add_argument("--terms-out", help="write term-level diagnostics to this CSV")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("rho-opt", help="binary search for the optimal power split")
    add_common(p, out=None)
    p.add_argument("--scheme", default="du_mr", choices=closed_form.PRIVATE_SCHEMES)
    p.add_argument("--transmission", default="coherent", choices=closed_form.TRANSMISSIONS)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--grid", type=int, default=0,
                   help="cross-check with an N-point grid, N >= 2 (0: no check)")
    p.set_defaults(func=cmd_rho_opt)

    p = sub.add_parser("robust", help="max-min robust common precoding weights")
    add_common(p)
    p.add_argument("--rho", type=float, default=0.5, help="power split for the problem")
    p.add_argument("--eps", type=float, default=1e-4, help="bisection tolerance")
    p.add_argument("--instant", type=int, default=None,
                   help="block instant the weights are optimized for (default mid-block)")
    p.set_defaults(func=cmd_robust)

    p = sub.add_parser("sweep", help="full experiment with replayable manifest")
    add_common(p, seed=False, out="output directory (default: the spec's output)")
    p.add_argument("--mc", type=int, help="override mc_realizations")
    p.add_argument("--replay", help="re-run byte-identically from a manifest.json")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.verbose:
        logging.basicConfig(level=logging.DEBUG, format="%(message)s", stream=sys.stderr)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
