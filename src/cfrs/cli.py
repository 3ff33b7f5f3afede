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
from .closed_form import TraceTerms, evaluate_plan, make_plan
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


_POWER_UNITS = (("dbm", lambda x: 10.0 ** (x / 10.0) / 1000.0), ("w", float), ("", float))
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
    return SchemeSpec(**_parse_section(entry, where, _SCHEME_REQUIRED, _SCHEME_OPTIONAL))


def _parse_sweep(section, where: str) -> dict:
    fields = _parse_section(section, where, {}, _SWEEP_OPTIONAL)
    parameter = fields.get("sweep_parameter", "none")
    values = fields.get("sweep_values", ())
    fields["sweep_values"] = () if parameter == "none" else tuple(
        _sweep_value(parameter, v, f"{where}.values[{i}]") for i, v in enumerate(values))
    return fields


_TOP_REQUIRED = {
    "system": ("base", _parse_system),
    "schemes": ("schemes", _list_of(_parse_scheme)),
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
    """The JSON value in ``path``; a missing file or bad JSON is a ConfigError."""
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


def _job_inputs(spec: ExperimentSpec, sweep_value: float | None, seed: int,
                ) -> tuple[SystemConfig, PhaseStatistics, float | None]:
    """A job's system config, phase statistics and fixed power split (None
    lets RS schemes optimize it) at one sweep point."""
    cfg = dataclasses.replace(spec.base, seed=seed)
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


def build_topology(cfg: SystemConfig, phases: PhaseStatistics) -> Topology:
    """Draw the network of ``cfg``; compute its estimation statistics and traces."""
    net = build_network(cfg)
    pilots = assign_pilots(cfg.K, cfg.tau_p)
    stats = estimation_statistics(net, pilots, phases, cfg)
    return Topology(net, pilots, stats, TraceTerms.compute(net, stats, pilots))


def run_scheme(
    cfg: SystemConfig,
    phases: PhaseStatistics,
    scheme: SchemeSpec,
    topology: Topology,
    fixed_rho: float | None = None,
    mc_realizations: int = 0,
):
    """Optimize the plan for one scheme on one topology, evaluate SE.

    Returns (report, extras) where extras carries the optimized rho and
    optional Monte Carlo cross-check errors.
    """
    net, pilots, stats, terms = topology
    extras: dict = {}

    if not scheme.rs_enabled:
        rho = 0.0
    elif fixed_rho is not None:
        rho = fixed_rho
    else:
        base_plan = make_plan(terms, scheme.private_scheme, scheme.transmission, 0.0)
        rho, _ = optimize.optimal_rho(
            closed_form.sum_se_curve(terms, base_plan, phases, cfg)
        )
        extras["optimized_rho"] = rho

    if scheme.rs_enabled and scheme.weights_mode == "robust" and rho > 0:
        problem = optimize.build_maxmin_problem(terms, phases, cfg, rho)
        result = optimize.robust_common_precoding(problem)
        plan = make_plan(
            terms, scheme.private_scheme, scheme.transmission, rho,
            weights=result.weights, unit_eta=True,
        )
        extras["robust_t"] = result.achieved_t
    else:
        plan = make_plan(terms, scheme.private_scheme, scheme.transmission, rho)

    report = evaluate_plan(terms, plan, phases, cfg)

    if mc_realizations > 0:
        lam = cfg.estimation_instant
        mid = (lam + cfg.tau_c) // 2
        batch = montecarlo.sample_batch(
            net, pilots, stats, phases, cfg, mc_realizations, cfg.seed, instants=[mid]
        )
        mc = montecarlo.mc_sinr(batch, plan, net, cfg, mid, stats)
        closed_p, closed_c = closed_form.assemble(
            closed_form.plan_parts(terms, plan, phases, cfg, mid), plan.rho)
        extras["mc_rel_err_private"] = float(
            np.max(np.abs(mc.private - closed_p) / np.maximum(closed_p, 1e-30))
        )
        if plan.rho > 0:
            extras["mc_rel_err_common"] = float(
                np.max(np.abs(mc.common - closed_c) / np.maximum(closed_c, 1e-30))
            )
    return report, extras


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


def _job_label(spec: ExperimentSpec, sweep_value: float | None, scheme: SchemeSpec) -> dict:
    """The columns that name a job's sweep point and scheme in both CSVs."""
    return {
        "sweep_parameter": spec.sweep_parameter,
        "sweep_value": "" if sweep_value is None else repr(float(sweep_value)),
        "private_scheme": scheme.private_scheme,
        "transmission": scheme.transmission,
        "rs": int(scheme.rs_enabled),
        "weights_mode": scheme.weights_mode if scheme.rs_enabled else "",
    }


def run_experiment(spec: ExperimentSpec, out_dir: str | Path | None = None) -> Path:
    """Execute every (sweep point, scheme, repetition) job and write results.

    Each job builds its own topology; the previous job's is dropped before
    the next one is built.  Writes results.csv
    (one row per job and UE), aggregate.csv, and a manifest.json from which
    the run can be replayed byte-identically.  Per-job failures are
    recorded in the rows' status column and do not abort the run.
    """
    out = Path(out_dir) if out_dir is not None else Path(spec.output_path)
    out.mkdir(parents=True, exist_ok=True)

    sweep_points = spec.sweep_values or (None,)
    rows = []
    agg: dict[tuple, list[float]] = {}
    for sweep_idx, sweep_value in enumerate(sweep_points):
        for rep in range(spec.repetitions):
            seed = _job_seed(spec.base.seed, rep)
            cfg, phases, fixed_rho = _job_inputs(spec, sweep_value, seed)
            for scheme_idx, scheme in enumerate(spec.schemes):
                topology = None  # frees the previous job's arrays first
                try:
                    topology = build_topology(cfg, phases)
                    report, extras = run_scheme(
                        cfg, phases, scheme, topology, fixed_rho, spec.mc_realizations
                    )
                except Exception as exc:  # recorded, run continues
                    log.warning("job failed (%s, rep %d): %s", scheme.label(), rep, exc)
                    # _write_csv leaves the value columns of these rows blank
                    values = [{"status": f"error:{type(exc).__name__}"}] * cfg.K
                else:
                    agg.setdefault((sweep_idx, scheme_idx), []).append(report.sum_se)
                    values = [
                        {
                            "rho": repr(float(report.rho)),
                            "se_private": repr(float(report.se_private[k])),
                            "se_common_per_ue": repr(float(report.se_common_per_ue[k])),
                            "se_common": repr(float(report.se_common)),
                            "sum_se": repr(float(report.sum_se)),
                            "mc_rel_err_private": extras.get("mc_rel_err_private", ""),
                            "mc_rel_err_common": extras.get("mc_rel_err_common", ""),
                            "status": "ok",
                        }
                        for k in range(cfg.K)
                    ]
                label = _job_label(spec, sweep_value, scheme)
                rows += [{**label, "repetition": rep, "k": k, "seed": seed, **v}
                         for k, v in enumerate(values)]

    order = LABEL_COLUMNS + ["repetition", "k"]
    rows.sort(key=lambda r: [r[c] for c in order])
    _write_csv(out / "results.csv", RESULTS_SCHEMA, RESULT_COLUMNS, rows)

    agg_rows = [
        {
            **_job_label(spec, sweep_points[sweep_idx], spec.schemes[scheme_idx]),
            "repetitions_ok": len(values),
            "mean_sum_se": repr(float(np.mean(values))),
            "min_sum_se": repr(float(np.min(values))),
            "max_sum_se": repr(float(np.max(values))),
        }
        for (sweep_idx, scheme_idx), values in sorted(agg.items())
    ]
    _write_csv(out / "aggregate.csv", AGGREGATE_SCHEMA, AGGREGATE_COLUMNS, agg_rows)

    manifest = {
        "schema": MANIFEST_SCHEMA,
        "spec": spec_to_dict(spec),
        "config_hash": config_hash(spec.base),
        "jobs": [
            {
                "sweep_idx": si, "scheme_idx": ci, "repetition": rep,
                "seed": _job_seed(spec.base.seed, rep),
            }
            for si in range(len(sweep_points))
            for ci in range(len(spec.schemes))
            for rep in range(spec.repetitions)
        ],
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return out


def _write_csv(path: Path, schema: str, columns: list[str], rows: list[dict]):
    """Schema line, header and rows; a column missing from a row is blank."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema={schema}\n")
        writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        for row in rows:
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


def cmd_nmse(args) -> int:
    cfg, _ = _load_system(args)
    variances = (
        [_sweep_value("oscillator_variance", v, "--variances")
         for v in args.variances.split(",")]
        if args.variances
        else [None]
    )
    net = build_network(cfg)
    pilots = assign_pilots(cfg.K, cfg.tau_p)
    rows = []
    for var in variances:
        phases = (
            PhaseStatistics.from_config(cfg)
            if var is None
            else PhaseStatistics(var_ap=var, var_ue=var)
        )
        stats = estimation_statistics(net, pilots, phases, cfg)
        for k in range(cfg.K):
            for l in range(cfg.L):
                rows.append(
                    {
                        "variance": repr(float(phases.var_ap)),
                        "k": k,
                        "l": l,
                        "nmse_mmse": repr(float(stats.nmse_mmse[k, l])),
                        "nmse_ls": repr(float(stats.nmse_ls[k, l])),
                    }
                )
    out = Path(args.out or "nmse.csv")
    _write_csv(out, NMSE_SCHEMA, ["variance", "k", "l", "nmse_mmse", "nmse_ls"], rows)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def cmd_se(args) -> int:
    cfg, spec = _load_system(args)
    phases = PhaseStatistics.from_config(cfg)
    schemes = (
        spec.schemes
        if spec is not None
        else (
            SchemeSpec("du_mr", "coherent", False),
            SchemeSpec("du_mr", "coherent", True, "simple"),
        )
    )
    topology = build_topology(cfg, phases)
    if args.dump_network:
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
        net_path = Path(args.dump_network)
        _write_csv(net_path, NETWORK_SCHEMA,
                   ["kind", "k", "l", "x", "y", "beta", "theta_re", "theta_im"], rows)
        print(f"wrote network to {net_path}")

    rows = []
    for scheme in schemes:
        report, extras = run_scheme(cfg, phases, scheme, topology)
        for k in range(cfg.K):
            rows.append({"scheme": scheme.label(), "transmission": scheme.transmission,
                         "rho": report.rho, "k": k,
                         "se_private": float(report.se_private[k]),
                         "se_common_per_ue": float(report.se_common_per_ue[k]),
                         "sum_se": report.sum_se, "seed": cfg.seed})
        print(
            f"{scheme.label()}: sum SE = {report.sum_se:.4f} bit/s/Hz"
            + (f" (rho* = {extras['optimized_rho']:.4f})" if "optimized_rho" in extras else "")
        )
    out = Path(args.out or "se.csv")
    _write_csv(out, "cfrs.se.v1",
               ["scheme", "transmission", "rho", "k", "se_private",
                "se_common_per_ue", "sum_se", "seed"], rows)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


FAMILIES = [
    ("private", "coherent", "du_mr"),
    ("private", "coherent", "df_mr"),
    ("private", "noncoherent", "du_mr"),
    ("private", "noncoherent", "df_mr"),
    ("common", "coherent", "du_mr"),
    ("common", "coherent", "df_mr"),
    ("common", "noncoherent", "du_mr"),
    ("common", "noncoherent", "df_mr"),
]


def validate_families(
    cfg: SystemConfig,
    phases: PhaseStatistics,
    count: int,
    rho: float = 0.5,
    terms_out: Path | None = None,
):
    """Closed form vs Monte Carlo for all eight SINR families."""
    net, pilots, stats, terms = build_topology(cfg, phases)
    lam = cfg.estimation_instant
    instants = [lam, min(lam + 5, cfg.tau_c), cfg.tau_c]
    batch = montecarlo.sample_batch(
        net, pilots, stats, phases, cfg, count, cfg.seed, instants=instants
    )
    rows = []
    term_rows = []
    for stream, transmission, scheme in FAMILIES:
        plan = make_plan(terms, scheme, transmission, rho)
        mc_list = montecarlo.mc_sinr(batch, plan, net, cfg, instants, stats)
        closed_p, closed_c = closed_form.assemble(
            closed_form.plan_parts(terms, plan, phases, cfg, instants), plan.rho)
        closed_all = closed_p if stream == "private" else closed_c  # (K, M)
        for n, mc, closed in zip(instants, mc_list, closed_all.T):
            est = mc.private if stream == "private" else mc.common
            stderr = mc.private_stderr if stream == "private" else mc.common_stderr
            ci = mc.private_ci if stream == "private" else mc.common_ci
            for k in range(cfg.K):
                rel = abs(est[k] - closed[k]) / max(closed[k], 1e-30)
                rows.append(
                    {
                        "stream": stream,
                        "transmission": transmission,
                        "scheme": scheme,
                        "n": int(n),
                        "k": k,
                        "closed_sinr": repr(float(closed[k])),
                        "mc_sinr": repr(float(est[k])),
                        "mc_stderr": repr(float(stderr[k])),
                        "rel_err": repr(float(rel)),
                        "ci_lo": repr(float(ci[k, 0])),
                        "ci_hi": repr(float(ci[k, 1])),
                        "covered": int(ci[k, 0] <= closed[k] <= ci[k, 1]),
                    }
                )
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
    cfg, _ = _load_system(args, default=_desk_config())
    phases = PhaseStatistics.from_config(cfg)
    rows = validate_families(
        cfg, phases, args.mc,
        terms_out=Path(args.terms_out) if args.terms_out else None,
    )
    out = Path(args.out or "validate.csv")
    _write_csv(out, VALIDATE_SCHEMA,
               ["stream", "transmission", "scheme", "n", "k", "closed_sinr",
                "mc_sinr", "mc_stderr", "rel_err", "ci_lo", "ci_hi", "covered"],
               rows)
    worst = max(float(r["rel_err"]) for r in rows)
    print(f"wrote {len(rows)} rows to {out}; worst relative error {worst:.4%}")
    return 0


def cmd_rho_opt(args) -> int:
    if not args.tol > 0:
        raise ConfigError(f"--tol: must be > 0, got {args.tol}")
    if args.grid < 0:
        raise ConfigError(f"--grid: must be >= 0 (0 skips the grid check), got {args.grid}")
    cfg, _ = _load_system(args)
    phases = PhaseStatistics.from_config(cfg)
    terms = build_topology(cfg, phases).terms
    plan0 = make_plan(terms, args.scheme, args.transmission, 0.0)
    sse_of = closed_form.sum_se_curve(terms, plan0, phases, cfg)
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
    cfg, _ = _load_system(args)
    if not 0 < args.rho <= 1:
        raise ConfigError(f"--rho: {args.rho} is outside (0, 1]")
    if not args.eps > 0:
        raise ConfigError(f"--eps: must be > 0, got {args.eps}")
    lam = cfg.estimation_instant
    if args.instant is not None and not lam <= args.instant <= cfg.tau_c:
        raise ConfigError(f"--instant: {args.instant} is outside [{lam}, {cfg.tau_c}]")
    phases = PhaseStatistics.from_config(cfg)
    terms = build_topology(cfg, phases).terms
    problem = optimize.build_maxmin_problem(terms, phases, cfg, args.rho,
                                            n=args.instant)
    result = optimize.robust_common_precoding(problem, eps=args.eps)
    rows = [
        {"k": k, "l": l, "weight": repr(float(result.weights[k, l]))}
        for k in range(cfg.K)
        for l in range(cfg.L)
    ]
    out = Path(args.out or "weights.csv")
    _write_csv(out, WEIGHTS_SCHEMA, ["k", "l", "weight"], rows)
    print(
        f"achieved min common SINR t = {result.achieved_t:.6g} "
        f"(bracket [{result.bracket[0]:.6g}, {result.bracket[1]:.6g}], "
        f"{result.iterations} LP solves); wrote weights to {out}"
    )
    return 0


def cmd_sweep(args) -> int:
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
        spec = dataclasses.replace(spec, mc_realizations=args.mc)
    out = run_experiment(spec, out_dir=args.out)
    print(f"experiment written to {out}")
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfrs",
        description="Asynchronous cell-free massive MIMO downlink with rate-splitting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="experiment spec (JSON)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="output file or directory")
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
    add_common(p)
    p.add_argument("--scheme", default="du_mr", choices=closed_form.PRIVATE_SCHEMES)
    p.add_argument("--transmission", default="coherent", choices=closed_form.TRANSMISSIONS)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--grid", type=int, default=0, help="cross-check with an N-point grid")
    p.set_defaults(func=cmd_rho_opt)

    p = sub.add_parser("robust", help="max-min robust common precoding weights")
    add_common(p)
    p.add_argument("--rho", type=float, default=0.5, help="power split for the problem")
    p.add_argument("--eps", type=float, default=1e-4, help="bisection tolerance")
    p.add_argument("--instant", type=int, default=None,
                   help="block instant the weights are optimized for (default mid-block)")
    p.set_defaults(func=cmd_robust)

    p = sub.add_parser("sweep", help="full experiment with replayable manifest")
    add_common(p)
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
