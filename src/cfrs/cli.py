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

Units at the boundary: powers accept watts (plain numbers) or "<x> dBm";
variances accept rad^2 (plain numbers) or "<x> dB".  Everything is linear
SI internally (dBm -> 10^(x/10) mW; dB -> 10^(x/10)).  CSV files start
with a "# schema=..." comment line that versions the column layout.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import numbers
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import closed_form, estimation, model, montecarlo, optimize
from .closed_form import TraceTerms, config_hash, evaluate_plan, make_plan
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

SWEEP_PARAMETERS = ("none", "oscillator_variance", "transmit_power", "antenna_count", "rho")
WEIGHTS_MODES = ("simple", "robust")


class ConfigError(ValueError):
    """Raised for malformed experiment configuration files."""


# ---------------------------------------------------------------------------
# unit parsing
# ---------------------------------------------------------------------------

def parse_power(value, key: str = "power") -> float:
    """Power in watts from a number (W) or a string like '23 dBm' / '0.1 W'."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, str):
        text = value.strip()
        lowered = text.lower()
        try:
            if lowered.endswith("dbm"):
                return 10.0 ** (float(text[:-3]) / 10.0) / 1000.0
            if lowered.endswith("w"):
                return float(text[:-1])
            return float(text)
        except ValueError:
            pass
    raise ConfigError(f"{key}: cannot parse power value {value!r} (use watts or 'x dBm')")


def parse_int(value, key: str = "integer") -> int:
    """An integral number; bools, fractions and strings are rejected."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, float) and value.is_integer())
    if integral and not isinstance(value, bool):
        return int(value)
    raise ConfigError(f"{key}: expected an integer, got {value!r}")


def parse_variance(value, key: str = "variance") -> float:
    """Variance in rad^2 from a number or a string like '-20 dB'."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, str):
        text = value.strip()
        lowered = text.lower()
        try:
            if lowered.endswith("db"):
                return 10.0 ** (float(text[:-2]) / 10.0)
            return float(text)
        except ValueError:
            pass
    raise ConfigError(f"{key}: cannot parse variance value {value!r} (use rad^2 or 'x dB')")


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
    sweep_parameter: str
    sweep_values: tuple[float, ...]
    schemes: tuple[SchemeSpec, ...]
    mc_realizations: int
    repetitions: int
    output_path: str

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


_SYSTEM_REQUIRED = {
    "L": ("L", parse_int),
    "K": ("K", parse_int),
    "N": ("N", parse_int),
    "tau_p": ("tau_p", parse_int),
    "tau_c": ("tau_c", parse_int),
    "pilot_power": ("p_pilot", parse_power),
    "downlink_power": ("p_d", parse_power),
    "noise_ul": ("sigma2_ul", parse_power),
    "noise_dl": ("sigma2_dl", parse_power),
    "symbol_duration_s": ("T_s", float),
    "carrier_hz": ("f_c", float),
    "osc_constant_ap": ("c_ap", float),
    "osc_constant_ue": ("c_ue", float),
    "area_side_m": ("area_side", float),
    "seed": ("seed", parse_int),
}
_SYSTEM_OPTIONAL = {
    "correlation": ("correlation", str),
    "corr_r": ("corr_r", float),
    "pl_fixed_db": ("pl_fixed_db", float),
    "pl_break1_m": ("pl_break1_m", float),
    "pl_break2_m": ("pl_break2_m", float),
    "min_dist_m": ("min_dist_m", float),
    "shadow_std_db": ("shadow_std_db", float),
}
# per sweep: value parser, admissible range (an "inside" test, so that nan
# fails it) and that range as the error message states it
_SWEEP_VALUES = {
    "oscillator_variance": (parse_variance, lambda v: 0 <= v < np.inf, "[0, inf)"),
    "transmit_power": (parse_power, lambda v: 0 < v < np.inf, "(0, inf)"),
    "antenna_count": (lambda v, key: float(parse_int(v, key)), lambda v: v >= 1, "[1, inf)"),
    "rho": (lambda v, key: _convert(float, v, key), lambda v: 0 <= v <= 1, "[0, 1]"),
}
_SCHEME_KEYS = {"private", "transmission", "rs", "weights"}
_TOP_KEYS = {"system", "sweep", "schemes", "mc_realizations", "repetitions", "output"}


def _convert(conv, value, where: str):
    if conv is parse_power and isinstance(value, list):  # per-UE pilot powers
        return tuple(parse_power(v, where) for v in value)
    if conv in (parse_power, parse_int):
        return conv(value, where)
    try:
        return conv(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: bad value {value!r} ({exc})") from exc


def _system_from_dict(section: dict, where: str) -> SystemConfig:
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: must be an object")
    unknown = set(section) - set(_SYSTEM_REQUIRED) - set(_SYSTEM_OPTIONAL)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")
    kwargs = {}
    for key, (field_name, conv) in _SYSTEM_REQUIRED.items():
        if key not in section:
            raise ConfigError(f"{where}: missing required key {key!r}")
        kwargs[field_name] = _convert(conv, section[key], f"{where}.{key}")
    for key, (field_name, conv) in _SYSTEM_OPTIONAL.items():
        if key in section:
            kwargs[field_name] = _convert(conv, section[key], f"{where}.{key}")
    try:
        return SystemConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _scheme_from_dict(entry: dict, where: str) -> SchemeSpec:
    if not isinstance(entry, dict):
        raise ConfigError(f"{where}: each scheme must be an object")
    unknown = set(entry) - _SCHEME_KEYS
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")
    for key in ("private", "transmission", "rs"):
        if key not in entry:
            raise ConfigError(f"{where}: missing required key {key!r}")
    if not isinstance(entry["rs"], bool):
        raise ConfigError(f"{where}.rs: expected true or false, got {entry['rs']!r}")
    spec = SchemeSpec(
        private_scheme=str(entry["private"]),
        transmission=str(entry["transmission"]),
        rs_enabled=entry["rs"],
        weights_mode=str(entry.get("weights", "simple")),
    )
    if spec.private_scheme not in closed_form.PRIVATE_SCHEMES:
        raise ConfigError(f"{where}.private: must be one of {closed_form.PRIVATE_SCHEMES}")
    if spec.transmission not in closed_form.TRANSMISSIONS:
        raise ConfigError(f"{where}.transmission: must be one of {closed_form.TRANSMISSIONS}")
    if spec.weights_mode not in WEIGHTS_MODES:
        raise ConfigError(f"{where}.weights: must be one of {WEIGHTS_MODES}")
    return spec


def spec_from_dict(data: dict, where: str = "config") -> ExperimentSpec:
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: top level must be an object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"{where}: unknown top-level key(s) {sorted(unknown)}")
    if "system" not in data:
        raise ConfigError(f"{where}: missing required key 'system'")
    base = _system_from_dict(data["system"], f"{where}.system")

    sweep = data.get("sweep", {"parameter": "none", "values": []})
    if not isinstance(sweep, dict) or set(sweep) - {"parameter", "values"}:
        raise ConfigError(f"{where}.sweep: expects keys 'parameter' and 'values'")
    parameter = sweep.get("parameter", "none")
    if parameter == "none":
        values = ()
    elif parameter in _SWEEP_VALUES:
        parse, inside, interval = _SWEEP_VALUES[parameter]
        values = tuple(parse(v, f"{where}.sweep.values") for v in sweep.get("values", []))
        for v in values:
            if not inside(v):
                raise ConfigError(
                    f"{where}.sweep.values: {parameter} {v!r} is outside {interval}")
    else:
        raise ConfigError(f"{where}.sweep.parameter: unknown sweep {parameter!r}")

    schemes_raw = data.get("schemes")
    if not schemes_raw:
        raise ConfigError(f"{where}: missing required key 'schemes'")
    schemes = tuple(
        _scheme_from_dict(entry, f"{where}.schemes[{i}]")
        for i, entry in enumerate(schemes_raw)
    )
    return ExperimentSpec(
        base=base,
        sweep_parameter=parameter,
        sweep_values=values,
        schemes=schemes,
        mc_realizations=parse_int(data.get("mc_realizations", 0), f"{where}.mc_realizations"),
        repetitions=parse_int(data.get("repetitions", 1), f"{where}.repetitions"),
        output_path=str(data.get("output", "results")),
    )


def spec_to_dict(spec: ExperimentSpec) -> dict:
    """Canonical (linear-unit) dict representation; parse round-trips it."""
    system = {}
    for key, (field_name, _) in (_SYSTEM_REQUIRED | _SYSTEM_OPTIONAL).items():
        value = getattr(spec.base, field_name)
        system[key] = list(value) if isinstance(value, tuple) else value  # per-UE powers
    return {
        "system": system,
        "sweep": {"parameter": spec.sweep_parameter, "values": list(spec.sweep_values)},
        "schemes": [
            {
                "private": s.private_scheme,
                "transmission": s.transmission,
                "rs": s.rs_enabled,
                "weights": s.weights_mode,
            }
            for s in spec.schemes
        ],
        "mc_realizations": spec.mc_realizations,
        "repetitions": spec.repetitions,
        "output": spec.output_path,
    }


def parse_config(path: str | Path) -> ExperimentSpec:
    """Strictly parse an experiment spec from a JSON file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    text = path.read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return spec_from_dict(data, where=str(path))


# ---------------------------------------------------------------------------
# experiment execution
# ---------------------------------------------------------------------------

def _job_seed(master: int, repetition: int) -> int:
    # one topology per repetition, shared across sweep points and schemes,
    # so scheme/sweep comparisons are paired
    ss = np.random.SeedSequence([int(master), repetition])
    return int(ss.generate_state(1, dtype=np.uint32)[0])


def _job_config(spec: ExperimentSpec, sweep_idx: int, seed: int) -> SystemConfig:
    cfg = dataclasses.replace(spec.base, seed=seed)
    if spec.sweep_parameter == "transmit_power":
        cfg = dataclasses.replace(cfg, p_d=spec.sweep_values[sweep_idx])
    elif spec.sweep_parameter == "antenna_count":
        cfg = dataclasses.replace(cfg, N=int(spec.sweep_values[sweep_idx]))
    return cfg


def _job_phases(spec: ExperimentSpec, sweep_idx: int, cfg: SystemConfig) -> PhaseStatistics:
    if spec.sweep_parameter == "oscillator_variance":
        v = spec.sweep_values[sweep_idx]
        return PhaseStatistics(var_ap=v, var_ue=v)
    return PhaseStatistics.from_config(cfg)


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
        result = optimize.robust_common_precoding(
            problem, start_point=optimize.scaled_simple_weights(problem)
        )
        plan = make_plan(
            terms, scheme.private_scheme, scheme.transmission, rho,
            weights=result.weights, unit_eta=True,
        )
        extras["robust_t"] = result.achieved_t
    else:
        plan = make_plan(terms, scheme.private_scheme, scheme.transmission, rho)

    report = evaluate_plan(terms, plan, phases, cfg, metadata={"scheme": scheme.label()})

    if mc_realizations > 0:
        lam = cfg.estimation_instant
        mid = (lam + cfg.tau_c) // 2
        batch = montecarlo.sample_batch(
            net, pilots, phases, cfg, mc_realizations, cfg.seed, instants=[mid]
        )
        mc = montecarlo.mc_sinr(batch, plan, net, cfg, mid, stats)
        closed_p = closed_form.private_sinr(terms, plan, phases, cfg, mid)
        extras["mc_rel_err_private"] = float(
            np.max(np.abs(mc.private - closed_p) / np.maximum(closed_p, 1e-30))
        )
        if plan.rho > 0:
            closed_c = closed_form.common_sinr(terms, plan, phases, cfg, mid)
            extras["mc_rel_err_common"] = float(
                np.max(np.abs(mc.common - closed_c) / np.maximum(closed_c, 1e-30))
            )
    return report, extras


RESULT_COLUMNS = [
    "sweep_parameter", "sweep_value", "private_scheme", "transmission", "rs",
    "weights_mode", "repetition", "k", "rho", "se_private", "se_common_per_ue",
    "se_common", "sum_se", "seed", "mc_rel_err_private", "mc_rel_err_common",
    "status",
]


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

    sweep_points = list(enumerate(spec.sweep_values)) or [(0, None)]
    rows = []
    agg: dict[tuple, list[float]] = {}
    for sweep_idx, sweep_value in sweep_points:
        for rep in range(spec.repetitions):
            seed = _job_seed(spec.base.seed, rep)
            cfg = _job_config(spec, sweep_idx, seed)
            phases = _job_phases(spec, sweep_idx, cfg)
            for scheme_idx, scheme in enumerate(spec.schemes):
                fixed_rho = (
                    spec.sweep_values[sweep_idx]
                    if spec.sweep_parameter == "rho" and scheme.rs_enabled
                    else None
                )
                base_row = {
                    "sweep_parameter": spec.sweep_parameter,
                    "sweep_value": "" if sweep_value is None else repr(float(sweep_value)),
                    "private_scheme": scheme.private_scheme,
                    "transmission": scheme.transmission,
                    "rs": int(scheme.rs_enabled),
                    "weights_mode": scheme.weights_mode if scheme.rs_enabled else "",
                    "repetition": rep,
                    "seed": seed,
                }
                topology = None  # frees the previous job's arrays first
                try:
                    topology = build_topology(cfg, phases)
                    report, extras = run_scheme(
                        cfg, phases, scheme, topology, fixed_rho, spec.mc_realizations
                    )
                except Exception as exc:  # recorded, run continues
                    log.warning("job failed (%s, rep %d): %s", scheme.label(), rep, exc)
                    for k in range(cfg.K):
                        rows.append(
                            {**base_row, "k": k, "rho": "", "se_private": "",
                             "se_common_per_ue": "", "se_common": "", "sum_se": "",
                             "mc_rel_err_private": "", "mc_rel_err_common": "",
                             "status": f"error:{type(exc).__name__}"}
                        )
                    continue
                key = (sweep_idx, scheme_idx)
                agg.setdefault(key, []).append(report.sum_se)
                for k in range(cfg.K):
                    rows.append(
                        {
                            **base_row,
                            "k": k,
                            "rho": repr(float(report.metadata["rho"])),
                            "se_private": repr(float(report.se_private[k])),
                            "se_common_per_ue": repr(float(report.se_common_per_ue[k])),
                            "se_common": repr(float(report.se_common)),
                            "sum_se": repr(float(report.sum_se)),
                            "mc_rel_err_private": extras.get("mc_rel_err_private", ""),
                            "mc_rel_err_common": extras.get("mc_rel_err_common", ""),
                            "status": "ok",
                        }
                    )

    rows.sort(key=lambda r: (r["sweep_parameter"], r["sweep_value"],
                             r["private_scheme"], r["transmission"], r["rs"],
                             r["weights_mode"], r["repetition"], r["k"]))
    _write_csv(out / "results.csv", RESULTS_SCHEMA, RESULT_COLUMNS, rows)

    agg_rows = []
    for (sweep_idx, scheme_idx), values in sorted(agg.items()):
        scheme = spec.schemes[scheme_idx]
        sweep_value = spec.sweep_values[sweep_idx] if spec.sweep_values else None
        agg_rows.append(
            {
                "sweep_parameter": spec.sweep_parameter,
                "sweep_value": "" if sweep_value is None else repr(float(sweep_value)),
                "private_scheme": scheme.private_scheme,
                "transmission": scheme.transmission,
                "rs": int(scheme.rs_enabled),
                "weights_mode": scheme.weights_mode if scheme.rs_enabled else "",
                "repetitions_ok": len(values),
                "mean_sum_se": repr(float(np.mean(values))),
                "min_sum_se": repr(float(np.min(values))),
                "max_sum_se": repr(float(np.max(values))),
            }
        )
    _write_csv(
        out / "aggregate.csv", AGGREGATE_SCHEMA,
        ["sweep_parameter", "sweep_value", "private_scheme", "transmission", "rs",
         "weights_mode", "repetitions_ok", "mean_sum_se", "min_sum_se", "max_sum_se"],
        agg_rows,
    )

    manifest = {
        "schema": MANIFEST_SCHEMA,
        "spec": spec_to_dict(spec),
        "config_hash": config_hash(spec.base),
        "jobs": [
            {
                "sweep_idx": si, "scheme_idx": ci, "repetition": rep,
                "seed": _job_seed(spec.base.seed, rep),
            }
            for si, _ in sweep_points
            for ci in range(len(spec.schemes))
            for rep in range(spec.repetitions)
        ],
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return out


def _write_csv(path: Path, schema: str, columns: list[str], rows: list[dict]):
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
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg, spec


def cmd_nmse(args) -> int:
    cfg, _ = _load_system(args)
    variances = (
        [parse_variance(v, "--variances") for v in args.variances.split(",")]
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
        for row in report.to_csv_rows():
            row["scheme"] = scheme.label()
            rows.append(row)
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
    instants=None,
    terms_out: Path | None = None,
):
    """Closed form vs Monte Carlo for all eight SINR families."""
    net, pilots, stats, terms = build_topology(cfg, phases)
    lam = cfg.estimation_instant
    if instants is None:
        instants = [lam, min(lam + 5, cfg.tau_c), cfg.tau_c]
    batch = montecarlo.sample_batch(
        net, pilots, phases, cfg, count, cfg.seed, instants=instants
    )
    rows = []
    term_rows = []
    for stream, transmission, scheme in FAMILIES:
        plan = make_plan(terms, scheme, transmission, rho)
        mc_list = montecarlo.mc_sinr(batch, plan, net, cfg, instants, stats)
        for n, mc in zip(instants, mc_list):
            closed = (
                closed_form.private_sinr(terms, plan, phases, cfg, int(n))
                if stream == "private"
                else closed_form.common_sinr(terms, plan, phases, cfg, int(n))
            )
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
            t = montecarlo.estimate_uatf_terms(batch, plan, net, cfg, instants[0], stats)
            for row in t.to_csv_rows():
                row.update({"stream": stream, "transmission": transmission,
                            "scheme": scheme, "n": instants[0]})
                term_rows.append(row)
    if terms_out is not None:
        _write_csv(terms_out, TERMS_SCHEMA,
                   ["stream", "transmission", "scheme", "n", "term", "k", "l_or_i",
                    "estimate", "estimate_imag", "stderr"], term_rows)
    return rows


def cmd_validate(args) -> int:
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
    if args.verbose:
        logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    phases = PhaseStatistics.from_config(cfg)
    terms = build_topology(cfg, phases).terms
    problem = optimize.build_maxmin_problem(terms, phases, cfg, args.rho,
                                            n=args.instant)
    result = optimize.robust_common_precoding(
        problem,
        eps=args.eps,
        start_point=optimize.scaled_simple_weights(problem),
        verbose=args.verbose,
    )
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
        manifest = json.loads(Path(args.replay).read_text())
        if manifest.get("schema") != MANIFEST_SCHEMA:
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


def main(argv=None) -> int:
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

    args = parser.parse_args(argv)
    if getattr(args, "verbose", False):
        logging.basicConfig(level=logging.DEBUG, stream=sys.stderr)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
