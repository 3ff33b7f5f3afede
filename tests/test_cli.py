import ast
import csv
import dataclasses
import json
import logging
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import cfrs
import cfrs.cli as cli


def desk_system(seed=3):
    return {
        "L": 4, "K": 2, "N": 2, "tau_p": 2, "tau_c": 20,
        "pilot_power": "20 dBm", "downlink_power": "23 dBm",
        "noise_ul": "-96 dBm", "noise_dl": "-96 dBm",
        "symbol_duration_s": 1e-05, "carrier_hz": 2e9,
        "osc_constant_ap": 1e-18, "osc_constant_ue": 1e-18,
        "area_side_m": 100.0, "seed": seed,
    }


def write_spec(tmp_path, data, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def read_csv(path):
    with open(path) as fh:
        schema = fh.readline()
        assert schema.startswith("# schema=")
        return list(csv.DictReader(fh)), schema.strip()


# ---------------------------------------------------------------------------
# unit parsing
# ---------------------------------------------------------------------------

def test_dbm_to_watts():
    assert cli.parse_power("20 dBm") == pytest.approx(0.1)
    assert cli.parse_power("23dBm") == pytest.approx(10 ** 2.3 / 1000)
    assert cli.parse_power("-96 dBm") == pytest.approx(10 ** -9.6 / 1000)
    assert cli.parse_power(0.25) == 0.25
    assert cli.parse_power("0.5 W") == 0.5


def test_db_to_linear_variance():
    assert cli.parse_variance("-20 dB") == pytest.approx(0.01)
    assert cli.parse_variance("0 dB") == 1.0
    assert cli.parse_variance(3e-4) == 3e-4


def test_bad_units_rejected():
    with pytest.raises(cli.ConfigError):
        cli.parse_power("ten dBm")
    with pytest.raises(cli.ConfigError):
        cli.parse_variance("loud")


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_missing_required_key_named(tmp_path):
    system = desk_system()
    del system["L"]
    path = write_spec(tmp_path, {"system": system, "schemes": [
        {"private": "du_mr", "transmission": "coherent", "rs": False}]})
    with pytest.raises(cli.ConfigError, match="'L'"):
        cli.parse_config(path)


def test_unknown_key_rejected(tmp_path):
    system = desk_system()
    system["bandwidth"] = 20e6
    path = write_spec(tmp_path, {"system": system, "schemes": [
        {"private": "du_mr", "transmission": "coherent", "rs": False}]})
    with pytest.raises(cli.ConfigError, match="bandwidth"):
        cli.parse_config(path)


def test_json_error_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "system": [,]\n}')
    with pytest.raises(cli.ConfigError, match="line 2"):
        cli.parse_config(path)


def test_unknown_scheme_fields_rejected(tmp_path):
    path = write_spec(tmp_path, {
        "system": desk_system(),
        "schemes": [{"private": "du_mr", "transmission": "coherent",
                     "rs": False, "beams": 7}],
    })
    with pytest.raises(cli.ConfigError, match="beams"):
        cli.parse_config(path)


def one_scheme_spec(**overrides):
    data = {"system": desk_system(), "schemes": [
        {"private": "du_mr", "transmission": "coherent", "rs": True}]}
    data.update(overrides)
    return data


def test_an_experiment_spec_built_directly_names_an_unknown_sweep_parameter():
    # spec_from_dict rejects it while parsing; a library caller that builds
    # the spec itself meets the same message
    spec = cli.spec_from_dict(one_scheme_spec())
    with pytest.raises(cli.ConfigError, match=r"sweep\.parameter must be one of \('none', "):
        dataclasses.replace(spec, sweep_parameter="bandwidth", sweep_values=(1.0,))


def test_rs_must_be_a_boolean():
    data = one_scheme_spec()
    data["schemes"][0]["rs"] = "false"  # bool("false") would turn RS on
    with pytest.raises(cli.ConfigError, match=r"schemes\[0\]\.rs"):
        cli.spec_from_dict(data)
    data["schemes"][0]["rs"] = 0
    with pytest.raises(cli.ConfigError, match=r"schemes\[0\]\.rs"):
        cli.spec_from_dict(data)


@pytest.mark.parametrize("key", ["L", "K", "N", "tau_p", "tau_c", "seed"])
@pytest.mark.parametrize("value", [4.9, True, "4", float("nan")])
def test_integer_system_fields_reject_non_integers(key, value):
    data = one_scheme_spec()
    data["system"][key] = value
    with pytest.raises(cli.ConfigError, match=rf"system\.{key}\b"):
        cli.spec_from_dict(data)


def test_integral_floats_are_accepted():
    data = one_scheme_spec(repetitions=2.0)
    data["system"]["L"] = 4.0
    spec = cli.spec_from_dict(data)
    assert spec.base.L == 4 and isinstance(spec.base.L, int)
    assert spec.repetitions == 2


@pytest.mark.parametrize("key, value", [
    ("repetitions", 2.7), ("repetitions", True),
    ("mc_realizations", True), ("mc_realizations", 10.5),
])
def test_integer_top_level_fields_reject_non_integers(key, value):
    with pytest.raises(cli.ConfigError, match=rf"config\.{key}"):
        cli.spec_from_dict(one_scheme_spec(**{key: value}))


def test_antenna_sweep_values_must_be_integers():
    data = one_scheme_spec(sweep={"parameter": "antenna_count", "values": [2, 2.9]})
    with pytest.raises(cli.ConfigError, match=r"sweep\.values"):
        cli.spec_from_dict(data)


# a valid value per sweep parameter, and the range its values must lie in
SWEEP_RANGES = {
    "rho": (0.5, "[0, 1]"),
    "oscillator_variance": (1e-4, "[0, inf)"),
    "transmit_power": ("23 dBm", "(0, inf)"),
    "antenna_count": (2, "[1, inf)"),
}


@pytest.mark.parametrize("parameter, bad", [
    ("rho", 1.5), ("rho", -0.1),
    ("oscillator_variance", -1e-3), ("oscillator_variance", float("nan")),
    ("transmit_power", 0), ("transmit_power", "-inf dBm"),
    ("antenna_count", 0),
])
def test_sweep_values_checked_at_parse_time(parameter, bad):
    good, interval = SWEEP_RANGES[parameter]
    data = one_scheme_spec(sweep={"parameter": parameter, "values": [good, bad]})
    with pytest.raises(cli.ConfigError, match=rf"sweep\.values.*outside {re.escape(interval)}"):
        cli.spec_from_dict(data)


def test_oscillators_that_leave_no_estimate_rejected(tmp_path, capsys):
    # 1.6e3 rad^2 per symbol on each side: no pilot survives the drift to
    # the estimation instant (estimation.decay_factors)
    data = one_scheme_spec()
    data["system"].update(L=3, K=3, tau_p=2, osc_constant_ap=1e-12, osc_constant_ue=1e-12)
    with pytest.raises(cli.ConfigError, match=r"^config: system\.osc_constant_ap/osc_constant_ue: "
                                              r".*no channel estimate$"):
        cli.spec_from_dict(data)
    path = write_spec(tmp_path, data)
    assert cli.main(["se", "--config", str(path), "--out", str(tmp_path / "se.csv")]) == 2
    assert "osc_constant_ap/osc_constant_ue" in capsys.readouterr().err
    # an oscillator sweep replaces the base's variances: its values are checked instead
    data["sweep"] = {"parameter": "oscillator_variance", "values": [1e-4, 1.6e3]}
    with pytest.raises(cli.ConfigError, match=r"^config: sweep\.values\[1\]: "):
        cli.spec_from_dict(data)
    data["sweep"]["values"] = [1e-4, 100.0]
    assert cli.spec_from_dict(data).sweep_values == (1e-4, 100.0)


def test_a_decorrelation_error_names_only_the_input_that_set_the_variances(tmp_path, capsys):
    # the library states the fact, and the prefix names the flag or the
    # spec key that set the variances, with no hint at any other input
    assert cli.main(["nmse", "--variances", "1e3", "--out", str(tmp_path / "nmse.csv")]) == 2
    err = capsys.readouterr().err
    assert "error: --variances: " in err and "no channel estimate" in err
    data = one_scheme_spec()
    data["system"].update(osc_constant_ap=1e-9, osc_constant_ue=1e-9)
    with pytest.raises(cli.ConfigError, match=r"^config: system\.osc_constant_ap/osc_constant_ue: "
                                              r".*no channel estimate$") as base:
        cli.spec_from_dict(data)
    data["sweep"] = {"parameter": "oscillator_variance", "values": [1e-4, 1e3]}
    with pytest.raises(cli.ConfigError, match=r"^config: sweep\.values\[1\]: "
                                              r".*no channel estimate$") as swept:
        cli.spec_from_dict(data)
    for message in (err, str(base.value), str(swept.value)):
        assert "c_ap/c_ue" not in message and "sweep value" not in message


@pytest.mark.parametrize("argv", [
    ["se"], ["nmse"], ["validate", "--mc", "100"], ["rho-opt"], ["robust"],
], ids=lambda argv: argv[0])
def test_commands_check_the_oscillators_of_the_base_they_use(argv, tmp_path, capsys):
    # an oscillator sweep replaces the base's variances, so a spec whose base
    # decorrelates every pilot parses, and its sweep runs; a command that
    # runs the base itself refuses it, naming the keys
    data = one_scheme_spec(sweep={"parameter": "oscillator_variance", "values": [1e-4]})
    data["system"].update(osc_constant_ap=1e-9, osc_constant_ue=1e-9)
    path = write_spec(tmp_path, data)
    out = ["--out", str(tmp_path / "out.csv")] if argv[0] != "rho-opt" else []
    assert cli.main(argv + ["--config", str(path)] + out) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: system.osc_constant_ap/osc_constant_ue: " in err
    assert not (tmp_path / "out.csv").exists()
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "run")]) == 0
    rows, _ = read_csv(tmp_path / "run" / "results.csv")
    assert {row["status"] for row in rows} == {"ok"}


@pytest.mark.parametrize("key, value", [("pl_fixed_db", float("nan")), ("seed", -1)])
def test_bad_system_values_in_a_config_file_rejected(key, value, tmp_path):
    # Python's json reads NaN, so the parser must reject it by value
    data = one_scheme_spec()
    data["system"][key] = value
    with pytest.raises(cli.ConfigError, match=rf"system: {key}"):
        cli.parse_config(write_spec(tmp_path, data))


@pytest.mark.parametrize("count", [1, 99])
def test_mc_realizations_below_the_floor_rejected(count):
    with pytest.raises(cli.ConfigError, match="mc_realizations"):
        cli.spec_from_dict(one_scheme_spec(mc_realizations=count))


@pytest.mark.parametrize("section, key, value", [
    ("system", "symbol_duration_s", True),
    ("system", "min_dist_m", False),
    ("system", "corr_r", True),
    ("system", "carrier_hz", "2e9"),
    ("system", "downlink_power", [1, 2]),
    ("system", "noise_ul", [1e-12]),
    ("system", "noise_dl", [1e-12, 1e-12]),
    ("system", "correlation", 5),
    ("sweep", "values", 0.5),
    ("sweep", "parameter", ["rho"]),
    (None, "output", 5),
])
def test_values_of_the_wrong_json_type_rejected(section, key, value):
    # each is coerced or crashes with a TypeError unless its parser checks the type
    data = one_scheme_spec(sweep={"parameter": "rho", "values": [0.5]})
    (data[section] if section else data)[key] = value
    field = f"config.{section}.{key}" if section else f"config.{key}"
    with pytest.raises(cli.ConfigError, match=rf"^{re.escape(field)}: ") as info:
        cli.spec_from_dict(data)
    assert str(info.value).count("config") == 1



@pytest.mark.parametrize("section", ["system", "sweep"])
def test_a_section_that_is_not_an_object_rejected(section):
    data = one_scheme_spec(sweep={"parameter": "none"})
    data[section] = [data[section]]
    with pytest.raises(cli.ConfigError, match=rf"config\.{section}: must be an object"):
        cli.spec_from_dict(data)
    data = one_scheme_spec(schemes=["du_mr"])
    with pytest.raises(cli.ConfigError, match=r"config\.schemes\[0\]: must be an object"):
        cli.spec_from_dict(data)

def test_malformed_config_file_exits_2_naming_the_field(tmp_path, capsys):
    data = one_scheme_spec()
    data["system"]["downlink_power"] = [1, 2]
    path = write_spec(tmp_path, data)
    assert cli.main(["se", "--config", str(path), "--out", str(tmp_path / "se.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}.system.downlink_power: ")
    assert err.count(str(path)) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("overrides", [
    {"repetitions": 0},
    {"mc_realizations": 50},
    {"schemes": []},
    {"sweep": {"parameter": "rho", "values": []}},
], ids=["repetitions", "mc_realizations", "schemes", "sweep-values"])
def test_bad_spec_values_exit_2_naming_the_file(overrides, tmp_path, capsys):
    path = write_spec(tmp_path, one_scheme_spec(**overrides))
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert err.count(str(path)) == 1


@pytest.mark.parametrize("sweep", [
    {"parameter": "none", "values": [1, 2]},
    {"values": ["-30 dB"]},
], ids=["parameter-none", "parameter-missing"])
def test_sweep_values_that_nothing_sweeps_exit_2(sweep, tmp_path, capsys):
    path = write_spec(tmp_path, one_scheme_spec(sweep=sweep))
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}.sweep.values: ")
    assert not (tmp_path / "out").exists()


def test_empty_sweep_values_without_a_sweep_are_valid():
    # the form spec_to_dict writes for a spec that sweeps nothing
    spec = cli.spec_from_dict(one_scheme_spec(sweep={"parameter": "none", "values": []}))
    assert spec.sweep_values == ()
    assert cli.spec_to_dict(spec)["sweep"] == {"parameter": "none", "values": []}
    assert cli.spec_from_dict(cli.spec_to_dict(spec)) == spec


def test_schemes_that_repeat_a_label_rejected(tmp_path, capsys):
    # without RS the weights mode is not part of the job, so both run the same job
    schemes = [{"private": "du_mr", "transmission": "coherent", "rs": False},
               {"private": "df_mr", "transmission": "coherent", "rs": False},
               {"private": "du_mr", "transmission": "coherent", "rs": False,
                "weights": "robust"}]
    with pytest.raises(cli.ConfigError,
                       match=r"^config\.schemes\[2\]: .*du_mr\.coherent\.nors.*"
                             r"config\.schemes\[0\]$"):
        cli.spec_from_dict(one_scheme_spec(schemes=schemes))
    path = write_spec(tmp_path, one_scheme_spec(schemes=schemes))
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}.schemes[2]: ")
    # the same private scheme with RS on is a different job
    schemes[2]["rs"] = True
    assert len(cli.spec_from_dict(one_scheme_spec(schemes=schemes)).schemes) == 3


def test_robust_weights_only_where_they_are_certified(tmp_path, capsys):
    # the max-min program optimizes the du_mr coherent common SINR, so any other
    # RS scheme would run weights optimized for another SINR
    certified = {"private": "du_mr", "transmission": "coherent", "rs": True,
                 "weights": "robust"}
    spec = cli.spec_from_dict(one_scheme_spec(schemes=[certified]))
    assert spec.schemes[0].weights_mode == "robust"
    for private, transmission in (("du_mr", "noncoherent"), ("df_mr", "coherent"),
                                  ("df_mr", "noncoherent")):
        schemes = [certified, {**certified, "private": private, "transmission": transmission}]
        with pytest.raises(cli.ConfigError, match=rf"^config\.schemes\[1\]\.weights: "
                                                  rf".*not {private} {transmission}$"):
            cli.spec_from_dict(one_scheme_spec(schemes=schemes))
        path = write_spec(tmp_path, one_scheme_spec(schemes=schemes))
        assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}.schemes[1].weights: ")
        # without RS the weights mode is never used
        schemes[1]["rs"] = False
        assert len(cli.spec_from_dict(one_scheme_spec(schemes=schemes)).schemes) == 2
    assert not (tmp_path / "out").exists()


def test_each_job_estimates_on_its_sweep_point(tmp_path, monkeypatch):
    calls = []
    original = cli.estimation_statistics

    def counted(*args, **kwargs):
        calls.append(args[2])  # phases
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "estimation_statistics", counted)
    spec = cli.spec_from_dict({
        "system": desk_system(),
        "sweep": {"parameter": "oscillator_variance", "values": [1e-5, 1e-3]},
        "schemes": [
            {"private": "du_mr", "transmission": "coherent", "rs": True},
            {"private": "df_mr", "transmission": "noncoherent", "rs": False},
        ],
    })
    out = cli.run_experiment(spec, out_dir=tmp_path / "out")
    assert [c.var_ap for c in calls] == [1e-5, 1e-5, 1e-3, 1e-3]
    rows, _ = read_csv(out / "results.csv")
    assert len(rows) == 2 * 2 * spec.base.K
    assert {r["status"] for r in rows} == {"ok"}


def _network_spy(monkeypatch, fail=False):
    """Record the seed of every ``cli.build_network`` call; raise if ``fail``."""
    seeds = []
    original = cli.build_network

    def spy(cfg):
        seeds.append(cfg.seed)
        if fail:
            raise RuntimeError("no network")
        return original(cfg)

    monkeypatch.setattr(cli, "build_network", spy)
    return seeds


def _two_by_two_spec(sweep):
    return cli.spec_from_dict({
        "system": desk_system(),
        "sweep": sweep,
        "schemes": [
            {"private": "du_mr", "transmission": "coherent", "rs": True},
            {"private": "df_mr", "transmission": "noncoherent", "rs": False},
        ],
        "repetitions": 2,
    })


def _assert_every_job_matches_its_own_draw(spec, rows, monkeypatch):
    """Each job of ``spec`` reports the sum SE of a job on its own network draw."""
    monkeypatch.setattr(cli, "build_network", cfrs.build_network)
    for rep in range(spec.repetitions):
        for sweep_value in spec.sweep_values:
            rep_cfg = dataclasses.replace(spec.base, seed=cli._job_seed(spec.base.seed, rep))
            cfg, phases, _ = cli._job_inputs(spec, sweep_value, rep_cfg)
            for scheme in spec.schemes:
                [(report, _)] = cli.run_jobs(
                    [cli.Job(cfg, phases, scheme, cli.build_topology(cfg, phases))])
                sse = {r["sum_se"] for r in rows
                       if r["repetition"] == str(rep)
                       and r["sweep_value"] == repr(sweep_value)
                       and r["private_scheme"] == scheme.private_scheme}
                assert sse == {repr(report.sum_se)}


def test_each_repetition_draws_its_network_once(tmp_path, monkeypatch):
    # an oscillator sweep leaves the system config unchanged, so a
    # repetition's jobs (2 sweep points x 2 schemes) share one network draw
    seeds = _network_spy(monkeypatch)
    spec = _two_by_two_spec({"parameter": "oscillator_variance", "values": [1e-5, 1e-3]})
    out = cli.run_experiment(spec, out_dir=tmp_path / "shared")
    assert seeds == [cli._job_seed(spec.base.seed, rep) for rep in range(2)]
    rows, _ = read_csv(out / "results.csv")
    assert len(rows) == 2 * 2 * 2 * spec.base.K
    assert {r["status"] for r in rows} == {"ok"}
    _assert_every_job_matches_its_own_draw(spec, rows, monkeypatch)
    # an antenna sweep changes the network, so each sweep point draws its own
    seeds = _network_spy(monkeypatch)
    cli.run_experiment(_two_by_two_spec({"parameter": "antenna_count", "values": [1, 2]}),
                       out_dir=tmp_path / "antennas")
    assert seeds == [cli._job_seed(spec.base.seed, rep) for rep in (0, 0, 1, 1)]


def test_a_power_sweep_draws_each_repetitions_network_once(tmp_path, monkeypatch):
    # build_network does not read the downlink power, so the points of a
    # transmit-power sweep share their repetition's network draw
    seeds = _network_spy(monkeypatch)
    spec = _two_by_two_spec({"parameter": "transmit_power", "values": [0.1, 0.2, 0.4]})
    out = cli.run_experiment(spec, out_dir=tmp_path / "power")
    assert seeds == [cli._job_seed(spec.base.seed, rep) for rep in range(2)]
    rows, _ = read_csv(out / "results.csv")
    assert len(rows) == 3 * 2 * 2 * spec.base.K
    assert {r["status"] for r in rows} == {"ok"}
    _assert_every_job_matches_its_own_draw(spec, rows, monkeypatch)


def test_a_failed_network_draw_fails_every_job_that_needed_it(tmp_path, monkeypatch):
    seeds = _network_spy(monkeypatch, fail=True)
    spec = _two_by_two_spec({"parameter": "oscillator_variance", "values": [1e-5, 1e-3]})
    out = cli.run_experiment(spec, out_dir=tmp_path / "out")
    assert len(seeds) == 2  # one failed draw per repetition, not retried per job
    rows, _ = read_csv(out / "results.csv")
    assert len(rows) == 2 * 2 * 2 * spec.base.K
    assert {r["status"] for r in rows} == {"error:RuntimeError"}
    agg, _ = read_csv(out / "aggregate.csv")
    assert agg == []


def test_both_csvs_list_jobs_in_spec_order(tmp_path):
    # as text "10.0" sorts before "2.0", and df_mr before du_mr
    spec = _two_by_two_spec({"parameter": "transmit_power", "values": [2.0, 10.0]})
    out = cli.run_experiment(spec, out_dir=tmp_path / "out")
    jobs = [(repr(value), scheme.private_scheme)
            for value in spec.sweep_values for scheme in spec.schemes]
    agg, _ = read_csv(out / "aggregate.csv")
    assert [(r["sweep_value"], r["private_scheme"]) for r in agg] == jobs
    rows, _ = read_csv(out / "results.csv")
    assert [(r["sweep_value"], r["private_scheme"], r["repetition"], r["k"])
            for r in rows] == [(*job, str(rep), str(k)) for job in jobs
                               for rep in range(2) for k in range(spec.base.K)]


def test_spec_roundtrip(tmp_path):
    system = {
        **desk_system(),
        "pilot_power": ["20 dBm", 0.05],  # per UE
        "correlation": "exponential", "corr_r": 0.5, "pl_fixed_db": 140.0,
        "pl_break1_m": 12.0, "pl_break2_m": 60.0, "min_dist_m": 2.0,
        "shadow_std_db": 4.0,
    }
    assert set(system) == set(cli._SYSTEM_REQUIRED) | set(cli._SYSTEM_OPTIONAL)
    data = {
        "system": system,
        "sweep": {"parameter": "oscillator_variance", "values": ["-30 dB", 1e-4]},
        "schemes": [
            {"private": "du_mr", "transmission": "coherent", "rs": True,
             "weights": "robust"},
            {"private": "df_mr", "transmission": "noncoherent", "rs": False},
        ],
        "mc_realizations": 100,
        "repetitions": 2,
        "output": "somewhere",
    }
    first = cli.parse_config(write_spec(tmp_path, data))
    canonical = cli.spec_to_dict(first)
    second = cli.parse_config(write_spec(tmp_path, canonical, name="canon.json"))
    assert first == second
    assert first.base.p_pilot == (0.1, 0.05)
    assert cli.spec_from_dict(canonical) == first


LIST_SCIPY = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


def test_import_loads_no_scipy():
    # cfrs needs numpy alone, and scipy would cost start-up time; the Monte
    # Carlo thread pool's concurrent.futures is imported on first use, so no
    # command that draws nothing pays for it either
    code = ("import sys, cfrs, cfrs.cli; " + LIST_SCIPY
            + "; print(sorted(m for m in sys.modules if m.split('.')[0] == 'concurrent'))")
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert out.stdout.strip().splitlines() == ["[]", "[]"]


def test_robust_path_loads_no_scipy(tmp_path):
    # the max-min feasibility solver is numpy alone
    path = write_spec(tmp_path, one_scheme_spec())
    code = (f"import sys, cfrs.cli; cfrs.cli.main(['robust', '--config', {str(path)!r}, "
            f"'--out', {str(tmp_path / 'w.csv')!r}]); " + LIST_SCIPY)
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert out.stdout.strip().splitlines()[-1] == "[]"


# ---------------------------------------------------------------------------
# experiment runs
# ---------------------------------------------------------------------------

def test_minimal_run_has_k_rows(tmp_path):
    spec = cli.spec_from_dict({
        "system": desk_system(),
        "schemes": [{"private": "du_mr", "transmission": "coherent", "rs": False}],
        "output": str(tmp_path / "out"),
    })
    out = cli.run_experiment(spec)
    rows, schema = read_csv(out / "results.csv")
    assert schema == f"# schema={cli.RESULTS_SCHEMA}"
    assert len(rows) == spec.base.K
    assert all(r["status"] == "ok" for r in rows)
    assert all(r["se_common_per_ue"] == "0.0" for r in rows)


def test_rho_sweep_consistency(tmp_path):
    spec = cli.spec_from_dict({
        "system": desk_system(seed=11),
        "sweep": {"parameter": "rho", "values": [0.0, 0.3, 0.6, 0.9]},
        "schemes": [
            {"private": "du_mr", "transmission": "coherent", "rs": True},
            {"private": "du_mr", "transmission": "coherent", "rs": False},
        ],
        "output": str(tmp_path / "out"),
    })
    out = cli.run_experiment(spec)
    rows, _ = read_csv(out / "results.csv")
    by_rho_rs = {}
    nors_sse = None
    for r in rows:
        if r["rs"] == "1":
            by_rho_rs[float(r["sweep_value"])] = float(r["sum_se"])
        else:
            nors_sse = float(r["sum_se"])
    # rho = 0 with splitting enabled equals the plain non-split sum SE
    assert by_rho_rs[0.0] == nors_sse
    # splitting helps at some interior point on this instance
    assert max(by_rho_rs.values()) > by_rho_rs[0.0]
    assert max(by_rho_rs, key=by_rho_rs.get) > 0.0


def test_oscillator_sweep_sum_se_monotone(tmp_path):
    # growing phase-drift variance must only hurt coherent transmission
    spec = cli.spec_from_dict({
        "system": desk_system(seed=21),
        "sweep": {"parameter": "oscillator_variance",
                  "values": ["-50 dB", "-40 dB", "-30 dB", "-20 dB"]},
        "schemes": [{"private": "du_mr", "transmission": "coherent", "rs": False}],
        "repetitions": 3,
        "output": str(tmp_path / "out"),
    })
    out = cli.run_experiment(spec)
    rows, _ = read_csv(out / "aggregate.csv")
    by_var = sorted((float(r["sweep_value"]), float(r["mean_sum_se"])) for r in rows)
    values = [sse for _, sse in by_var]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_row_count_identity(tmp_path):
    spec = cli.spec_from_dict({
        "system": desk_system(),
        "sweep": {"parameter": "oscillator_variance", "values": [1e-4, 1e-3]},
        "schemes": [
            {"private": "du_mr", "transmission": "coherent", "rs": False},
            {"private": "df_mr", "transmission": "noncoherent", "rs": False},
        ],
        "repetitions": 3,
        "output": str(tmp_path / "out"),
    })
    out = cli.run_experiment(spec)
    rows, _ = read_csv(out / "results.csv")
    assert len(rows) == 2 * 2 * 3 * spec.base.K


def test_replay_reproduces_csv_bytes(tmp_path):
    spec_path = write_spec(tmp_path, {
        "system": desk_system(seed=5),
        "sweep": {"parameter": "rho", "values": [0.0, 0.5]},
        "schemes": [{"private": "du_mr", "transmission": "coherent", "rs": True}],
        "repetitions": 2,
        "output": str(tmp_path / "one"),
    })
    assert cli.main(["sweep", "--config", str(spec_path)]) == 0
    assert cli.main(["sweep", "--replay", str(tmp_path / "one" / "manifest.json"),
                     "--out", str(tmp_path / "two")]) == 0
    one = (tmp_path / "one" / "results.csv").read_bytes()
    two = (tmp_path / "two" / "results.csv").read_bytes()
    assert one == two
    agg1 = (tmp_path / "one" / "aggregate.csv").read_bytes()
    agg2 = (tmp_path / "two" / "aggregate.csv").read_bytes()
    assert agg1 == agg2


@pytest.mark.parametrize("content", [
    None,  # no such file
    '{"schema": ',
    "[1, 2]",
    json.dumps({"schema": cli.MANIFEST_SCHEMA}),
], ids=["missing", "bad-json", "not-an-object", "no-spec"])
def test_bad_replay_manifest_exits_2_naming_the_file(content, tmp_path, capsys):
    path = tmp_path / "manifest.json"
    if content is not None:
        path.write_text(content)
    assert cli.main(["sweep", "--replay", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_manifest_contents(tmp_path):
    spec = cli.spec_from_dict({
        "system": desk_system(),
        "schemes": [{"private": "du_mr", "transmission": "coherent", "rs": False}],
        "repetitions": 2,
        "output": str(tmp_path / "out"),
    })
    out = cli.run_experiment(spec)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["schema"] == cli.MANIFEST_SCHEMA
    assert len(manifest["jobs"]) == 2
    assert cli.spec_from_dict(manifest["spec"]) == spec


def test_nmse_subcommand(tmp_path):
    out = tmp_path / "nmse.csv"
    code = cli.main([
        "nmse", "--config", str(write_spec(tmp_path, {
            "system": desk_system(),
            "schemes": [{"private": "du_mr", "transmission": "coherent", "rs": False}],
        })),
        "--variances", "-50 dB,-30 dB", "--out", str(out),
    ])
    assert code == 0
    rows, schema = read_csv(out)
    assert schema == f"# schema={cli.NMSE_SCHEMA}"
    assert len(rows) == 2 * 4 * 2  # variances * L * K
    low = [float(r["nmse_mmse"]) for r in rows if float(r["variance"]) < 1e-4]
    high = [float(r["nmse_mmse"]) for r in rows if float(r["variance"]) > 1e-4]
    assert np.mean(high) > np.mean(low)


def test_nmse_without_variances_writes_the_configs_own(tmp_path, capsys):
    # one row per link, all at the oscillator variance the config implies
    path = write_spec(tmp_path, one_scheme_spec())
    out = tmp_path / "nmse.csv"
    assert cli.main(["nmse", "--config", str(path), "--out", str(out)]) == 0
    cfg = cli.parse_config(str(path)).base
    rows, _ = read_csv(out)
    assert [(int(r["k"]), int(r["l"])) for r in rows] == [
        (k, l) for k in range(cfg.K) for l in range(cfg.L)]
    assert {r["variance"] for r in rows} == {
        repr(float(cli.PhaseStatistics.from_config(cfg).var_ap))}
    assert capsys.readouterr().out == f"wrote {cfg.K * cfg.L} rows to {out}\n"


def test_se_raises_the_exception_that_failed_a_job(tmp_path, monkeypatch):
    # a robust scheme whose max-min solve fails: the sweep would record it
    # as the job's status, but `cfrs se` has no row to put it in
    def indeterminate(problem, eps=1e-4):
        raise cli.optimize.SolverIndeterminate("barrier method did not settle t=1.0")

    monkeypatch.setattr(cli.optimize, "robust_common_precoding", indeterminate)
    path = write_spec(tmp_path, one_scheme_spec(schemes=[
        {"private": "du_mr", "transmission": "coherent", "rs": False},
        {"private": "du_mr", "transmission": "coherent", "rs": True, "weights": "robust"}]))
    out = tmp_path / "se.csv"
    with pytest.raises(cli.optimize.SolverIndeterminate, match="did not settle t=1.0"):
        cli.main(["se", "--config", str(path), "--out", str(out)])
    assert not out.exists()


def test_network_dump(tmp_path):
    spec_path = write_spec(tmp_path, {
        "system": desk_system(),
        "schemes": [{"private": "du_mr", "transmission": "coherent", "rs": False},
                    {"private": "df_mr", "transmission": "noncoherent", "rs": True}],
    })
    net_out = tmp_path / "network.csv"
    code = cli.main(["se", "--config", str(spec_path),
                     "--out", str(tmp_path / "se.csv"),
                     "--dump-network", str(net_out)])
    assert code == 0
    se_rows, schema = read_csv(tmp_path / "se.csv")
    assert schema == "# schema=cfrs.se.v1"
    assert list(se_rows[0]) == ["scheme", "transmission", "rho", "k", "se_private",
                                "se_common_per_ue", "sum_se", "seed"]
    assert [(r["scheme"], r["transmission"], r["k"]) for r in se_rows] == [
        ("du_mr.coherent.nors", "coherent", "0"), ("du_mr.coherent.nors", "coherent", "1"),
        ("df_mr.noncoherent.rs-simple", "noncoherent", "0"),
        ("df_mr.noncoherent.rs-simple", "noncoherent", "1"),
    ]
    assert {r["seed"] for r in se_rows} == {"3"}
    for label in ("du_mr.coherent.nors", "df_mr.noncoherent.rs-simple"):
        rows = [r for r in se_rows if r["scheme"] == label]
        rho = float(rows[0]["rho"])
        assert (rho == 0.0) if label.endswith("nors") else (0.0 < rho <= 1.0)
        assert len({r["sum_se"] for r in rows}) == 1
        recomposed = (sum(float(r["se_private"]) for r in rows)
                      + min(float(r["se_common_per_ue"]) for r in rows))
        assert float(rows[0]["sum_se"]) == pytest.approx(recomposed, rel=1e-12)
    rows, _ = read_csv(net_out)
    kinds = {r["kind"] for r in rows}
    assert kinds == {"ap", "ue", "link"}
    links = [r for r in rows if r["kind"] == "link"]
    assert len(links) == 4 * 2
    mags = [float(r["theta_re"]) ** 2 + float(r["theta_im"]) ** 2 for r in links]
    assert np.allclose(mags, 1.0)


def test_validate_subcommand(tmp_path):
    out = tmp_path / "val.csv"
    terms_out = tmp_path / "terms.csv"
    code = cli.main(["validate", "--mc", "2000", "--out", str(out),
                     "--terms-out", str(terms_out), "--seed", "2"])
    assert code == 0
    rows, _ = read_csv(out)
    assert len(rows) == 8 * 3 * 2  # families * instants * UEs
    assert all(float(r["rel_err"]) < 0.5 for r in rows)
    term_rows, _ = read_csv(terms_out)
    assert list(term_rows[0]) == ["stream", "transmission", "scheme", "n", "term", "k",
                                  "l_or_i", "estimate", "estimate_imag", "stderr"]
    assert {r["term"] for r in term_rows} == {
        "ds_private", "int_private", "ds_common", "int_common"
    }
    # int_common is per UE; every other term is per (UE, AP) or (UE, UE)
    assert all((r["l_or_i"] == "") == (r["term"] == "int_common") for r in term_rows)


def test_validate_evaluates_each_instant_once():
    # tau_c < lambda + 5 clips the middle instant onto the last one
    cfg = cfrs.SystemConfig(L=4, K=2, N=2, tau_p=2, tau_c=6, seed=1)
    assert cfg.tau_c < cfg.estimation_instant + 5
    rows = cli.validate_families(cfg, cfrs.PhaseStatistics.from_config(cfg), 200)
    keys = [(r["stream"], r["transmission"], r["scheme"], r["n"], r["k"]) for r in rows]
    assert len(keys) == len(set(keys))
    assert sorted({r["n"] for r in rows}) == [cfg.estimation_instant, cfg.tau_c]
    assert len(rows) == len(cli.FAMILIES) * 2 * cfg.K


def test_failed_jobs_are_tagged_and_run_continues(tmp_path):
    # rho = 1.5 is an invalid power split: those rows carry an error tag,
    # the valid sweep point still completes.  The parser rejects it, so the
    # value is put into an already parsed spec.
    spec = cli.spec_from_dict({
        "system": desk_system(),
        "sweep": {"parameter": "rho", "values": [0.5, 1.0]},
        "schemes": [{"private": "du_mr", "transmission": "coherent", "rs": True}],
        "output": str(tmp_path / "out"),
    })
    spec = dataclasses.replace(spec, sweep_values=(0.5, 1.5))
    out = cli.run_experiment(spec)
    rows, _ = read_csv(out / "results.csv")
    assert len(rows) == 2 * spec.base.K
    by_value = {}
    for r in rows:
        by_value.setdefault(r["sweep_value"], set()).add(r["status"])
    assert by_value["0.5"] == {"ok"}
    assert by_value["1.5"] == {"error:ValueError"}


THREE_SCHEMES = [
    {"private": "du_mr", "transmission": "coherent", "rs": True, "weights": "simple"},
    {"private": "du_mr", "transmission": "coherent", "rs": False},
    {"private": "df_mr", "transmission": "noncoherent", "rs": True, "weights": "simple"},
]
DU_RS, DU_NORS, DF_NC_RS = THREE_SCHEMES


@pytest.mark.parametrize("scheme_idx", [0, 1, 2])
def test_a_job_failing_inside_a_stack_fails_alone(scheme_idx, tmp_path, monkeypatch):
    # a nan gain on one job's topology makes its SINRs nan, so the stacked
    # rho search (an RS job, whose stack mixes coherent and non-coherent
    # jobs) or the stacked report (the non-RS job) raises: only that job is
    # tagged, and every other row keeps the bytes of the clean run
    spec = cli.spec_from_dict({
        "system": desk_system(),
        "sweep": {"parameter": "oscillator_variance", "values": ["-50 dB", "-40 dB", "-30 dB"]},
        "schemes": THREE_SCHEMES,
        "repetitions": 2,
    })
    clean, _ = read_csv(cli.run_experiment(spec, out_dir=tmp_path / "clean") / "results.csv")
    jobs_per_rep = len(spec.sweep_values) * len(spec.schemes)
    poisoned = jobs_per_rep + 1 * len(spec.schemes) + scheme_idx  # rep 1, sweep point 1
    calls = []
    original = cli.build_topology

    def build(cfg, phases, network=None):
        topology = original(cfg, phases, network)
        calls.append(len(calls))
        if calls[-1] == poisoned:
            terms = dataclasses.replace(topology.terms,
                                        beta=np.full_like(topology.terms.beta, np.nan))
            topology = topology._replace(terms=terms)
        return topology

    monkeypatch.setattr(cli, "build_topology", build)
    rows, _ = read_csv(cli.run_experiment(spec, out_dir=tmp_path / "out") / "results.csv")
    assert len(calls) == spec.repetitions * jobs_per_rep
    scheme = spec.schemes[scheme_idx]
    failed = [r for r in rows if r["status"] != "ok"]
    assert {(r["repetition"], r["sweep_value"], r["private_scheme"], r["rs"])
            for r in failed} == {("1", repr(spec.sweep_values[1]), scheme.private_scheme,
                                  str(int(scheme.rs_enabled)))}
    assert {r["status"] for r in failed} == {"error:ValueError"}
    assert len(failed) == spec.base.K and all(r["sum_se"] == "" for r in failed)
    assert [r for r in rows if r["status"] == "ok"] == [
        r for r, f in zip(clean, rows) if f["status"] == "ok"]


def _rows_after_one_failure(spec, tmp_path, fail) -> tuple[list, list]:
    """results.csv lines of ``spec`` run clean, then after ``fail()`` has
    installed a failure: (the clean lines, the failing run's lines)."""
    def lines(name):
        return (cli.run_experiment(spec, out_dir=tmp_path / name) / "results.csv"
                ).read_text().splitlines()

    clean = lines("clean")
    fail()
    return clean, lines("failing")


def _assert_only_job_failed(clean, rows, job: tuple, status: str, K: int):
    """The rows of ``job`` (private scheme, transmission, rs, weights mode,
    repetition) read ``status`` with every value column blank; every other
    row keeps the bytes of the clean run."""
    header = rows[1].split(",")
    named = [dict(zip(header, line.split(","))) for line in rows[2:]]
    failed = [i for i, r in enumerate(named, 2)
              if (r["private_scheme"], r["transmission"], r["rs"], r["weights_mode"],
                  r["repetition"]) == job]
    assert len(failed) == K
    for i in failed:
        r = named[i - 2]
        assert r["status"] == status
        assert {r[c] for c in ("rho", "se_private", "se_common_per_ue", "se_common", "sum_se",
                               "mc_rel_err_private", "mc_rel_err_common")} == {""}
    assert [line for i, line in enumerate(rows) if i not in failed] == [
        line for i, line in enumerate(clean) if i not in failed]
    assert len(rows) == len(clean)


@pytest.mark.parametrize("poisoned, field", [(0, "beta"), (1, "beta"), (0, "tr_Q"),
                                             (1, "tr_Q")])
def test_a_job_failing_alone_in_its_pair_fails_alone(poisoned, field, tmp_path, monkeypatch):
    # two (private scheme, transmission) pairs with one job each: a nan gain
    # fails the two jobs' joint rho search, which is redone job by job; a
    # nan trace fails the plan of the poisoned job's one-job stack
    spec = cli.spec_from_dict(one_scheme_spec(schemes=[DU_RS, DF_NC_RS]))
    original = cli.build_topology
    calls = []

    def fail():
        def build(cfg, phases, network=None):
            topology = original(cfg, phases, network)
            calls.append(len(calls))
            if calls[-1] == poisoned:
                array = getattr(topology.terms, field)
                topology = topology._replace(terms=dataclasses.replace(
                    topology.terms, **{field: np.full_like(array, np.nan)}))
            return topology

        monkeypatch.setattr(cli, "build_topology", build)

    clean, rows = _rows_after_one_failure(spec, tmp_path, fail)
    scheme = spec.schemes[poisoned]
    _assert_only_job_failed(clean, rows, (scheme.private_scheme, scheme.transmission, "1",
                                          "simple", "0"), "error:ValueError", spec.base.K)


def test_a_failed_robust_solve_fails_its_job_alone(tmp_path, monkeypatch):
    spec = cli.spec_from_dict(one_scheme_spec(
        schemes=[DU_RS, {**DU_RS, "weights": "robust"}, DU_NORS, DF_NC_RS],
        repetitions=2))
    solve = cli.optimize.robust_common_precoding
    calls = []

    def fail():
        def failing(problem, *args, **kwargs):
            calls.append(problem)
            if len(calls) == 2:  # repetition 1's robust job
                raise cli.optimize.SolverIndeterminate("no verdict")
            return solve(problem, *args, **kwargs)

        monkeypatch.setattr(cli.optimize, "robust_common_precoding", failing)

    clean, rows = _rows_after_one_failure(spec, tmp_path, fail)
    assert len(calls) == spec.repetitions
    _assert_only_job_failed(clean, rows, ("du_mr", "coherent", "1", "robust", "1"),
                            "error:SolverIndeterminate", spec.base.K)


def test_a_robust_job_failing_inside_the_robust_stack_fails_alone(tmp_path, monkeypatch):
    # the robust jobs' plans and coefficients are one stack; when its plan
    # raises, each robust job is redone alone, and only the job whose own
    # plan raises too is tagged
    spec = cli.spec_from_dict(one_scheme_spec(
        schemes=[DU_RS, {**DU_RS, "weights": "robust"}],
        sweep={"parameter": "transmit_power", "values": ["20 dBm", "23 dBm"]}))
    make_plan = cli.make_plan
    calls = []

    def fail():
        def failing(terms, *args, unit_eta=False, **kwargs):
            if unit_eta:  # robust weights
                calls.append(terms.tr_Q.shape[0])
                if len(calls) in (1, 3):  # the stack, then the second job alone
                    raise ValueError("no plan")
            return make_plan(terms, *args, unit_eta=unit_eta, **kwargs)

        monkeypatch.setattr(cli, "make_plan", failing)

    clean, rows = _rows_after_one_failure(spec, tmp_path, fail)
    assert calls == [2, 1, 1]
    header = rows[1].split(",")
    status = [dict(zip(header, line.split(","))) for line in rows[2:]]
    assert {(r["weights_mode"], r["sweep_value"], r["status"]) for r in status
            if r["status"] != "ok"} == {("robust", repr(spec.sweep_values[1]),
                                         "error:ValueError")}
    assert sum(r["status"] != "ok" for r in status) == spec.base.K
    assert [line for line, r in zip(rows[2:], status) if r["status"] == "ok"] == [
        line for line, r in zip(clean[2:], status) if r["status"] == "ok"]


def test_a_failed_monte_carlo_check_fails_its_job_alone(tmp_path, monkeypatch):
    spec = cli.spec_from_dict(one_scheme_spec(schemes=THREE_SCHEMES, mc_realizations=200))
    sample = cli.montecarlo.sample_batch
    calls = []

    def fail():
        def failing(*args, **kwargs):
            calls.append(len(calls))
            if calls[-1] == 1:  # the job of the second scheme
                raise MemoryError("no room")
            return sample(*args, **kwargs)

        monkeypatch.setattr(cli.montecarlo, "sample_batch", failing)

    clean, rows = _rows_after_one_failure(spec, tmp_path, fail)
    assert len(calls) == len(spec.schemes)
    _assert_only_job_failed(clean, rows, ("du_mr", "coherent", "0", "", "0"),
                            "error:MemoryError", spec.base.K)


def test_jobs_of_two_user_counts_are_refused():
    jobs = []
    for K in (2, 3):
        cfg = cfrs.SystemConfig(L=4, K=K, N=2, tau_p=2, tau_c=20, seed=1)
        phases = cli.PhaseStatistics.from_config(cfg)
        jobs.append(cli.Job(cfg, phases, cli.SchemeSpec("du_mr", "coherent", False),
                            cli.build_topology(cfg, phases)))
    with pytest.raises(ValueError, match="K, tau_p and tau_c"):
        cli.run_jobs(jobs)


def test_a_repetition_searches_rho_once_and_estimates_once_per_job(tmp_path, monkeypatch):
    # the README spec with DU RS, DU non-RS and DF non-coherent RS at 2
    # repetitions: each repetition's RS jobs, of both transmissions, share
    # one lockstep rho search of 22 evaluations, each (private scheme,
    # transmission) stack of jobs makes one plan, and each job still
    # computes its own estimation statistics
    spec = cli.spec_from_dict({**_readme_spec(), "schemes": THREE_SCHEMES, "repetitions": 2})
    searches, estimations, plans = [], [], []
    search, estimate, plan = cli.optimize.optimal_rho, cli.estimation_statistics, cli.make_plan

    def counted_plan(terms, *args, **kwargs):
        plans.append((args[:2], terms.tr_Q.shape[0]))  # (scheme, transmission), jobs
        return plan(terms, *args, **kwargs)

    def counted_search(evaluator, tol=1e-3):
        calls = []
        searches.append(calls)

        def counted(rho):
            calls.append(np.shape(rho))
            return evaluator(rho)

        return search(counted, tol)

    def counted_estimate(*args, **kwargs):
        estimations.append(args[2])  # phases
        return estimate(*args, **kwargs)

    monkeypatch.setattr(cli.optimize, "optimal_rho", counted_search)
    monkeypatch.setattr(cli, "estimation_statistics", counted_estimate)
    monkeypatch.setattr(cli, "make_plan", counted_plan)
    rows, _ = read_csv(cli.run_experiment(spec, out_dir=tmp_path / "out") / "results.csv")
    assert {r["status"] for r in rows} == {"ok"}
    rs_jobs = len(spec.sweep_values) * 2
    # the first call reads the endpoint rho = 0 for all jobs at once
    assert searches == [[()] + [(rs_jobs,)] * 21] * spec.repetitions
    points = len(spec.sweep_values)
    assert plans == [(("du_mr", "coherent"), 2 * points),
                     (("df_mr", "noncoherent"), points)] * spec.repetitions
    jobs = len(spec.sweep_values) * len(spec.schemes)
    assert len(estimations) == spec.repetitions * jobs
    assert [ph.var_ap for ph in estimations] == [
        v for _ in range(spec.repetitions) for v in spec.sweep_values
        for _ in spec.schemes]


def test_a_repetitions_robust_jobs_share_one_plan_parts_call_and_one_report(tmp_path,
                                                                             monkeypatch):
    # DU RS simple and robust and DF non-coherent RS at three oscillator
    # variances: per repetition, one plan_parts call per (private scheme,
    # transmission), one per max-min program and one for the three robust
    # jobs, and one report for all nine jobs; each robust job gets the bits
    # of its own run_jobs call
    spec = cli.spec_from_dict(one_scheme_spec(
        system={**desk_system(), "K": 3}, schemes=[DU_RS, {**DU_RS, "weights": "robust"},
                                                   DF_NC_RS],
        sweep={"parameter": "oscillator_variance", "values": ["-40 dB", "-30 dB", "-20 dB"]},
        repetitions=2, mc_realizations=200))
    counts = {"plan_parts": 0, "se_report": 0}
    per_repetition, robust = [], []
    originals = {name: getattr(cli.closed_form, name) for name in counts}
    run_jobs = cli.run_jobs

    def counted(name):
        def call(*args, **kwargs):
            counts[name] += 1
            return originals[name](*args, **kwargs)
        return call

    def recorded(jobs, mc_realizations=0):
        before = dict(counts)
        results = run_jobs(jobs, mc_realizations)
        per_repetition.append({name: counts[name] - before[name] for name in counts})
        robust.extend((job, result) for job, result in zip(jobs, results)
                      if job.scheme.weights_mode == "robust")
        return results

    for name in counts:
        monkeypatch.setattr(cli.closed_form, name, counted(name))
    monkeypatch.setattr(cli.optimize, "plan_parts", cli.closed_form.plan_parts)
    monkeypatch.setattr(cli, "run_jobs", recorded)
    rows, _ = read_csv(cli.run_experiment(spec, out_dir=tmp_path / "out") / "results.csv")
    assert {r["status"] for r in rows} == {"ok"}
    assert per_repetition == [{"plan_parts": 6, "se_report": 1}] * spec.repetitions
    assert len(robust) == spec.repetitions * len(spec.sweep_values)
    for job, (report, extras) in robust:
        [(alone, alone_extras)] = run_jobs([job], spec.mc_realizations)
        assert extras == alone_extras and "mc_rel_err_common" in extras
        for field in dataclasses.fields(report):
            assert (np.asarray(getattr(report, field.name)).tobytes()
                    == np.asarray(getattr(alone, field.name)).tobytes()), field.name


def test_a_csv_row_with_a_key_outside_its_columns_is_refused(tmp_path):
    # rows are written as lists, so a misnamed key must fail, not vanish
    path = tmp_path / "rows.csv"
    with pytest.raises(ValueError, match="sum_sse"):
        cli._write_csv(path, "x.v1", ["k", "sum_se"], [{"k": 0, "sum_sse": 1.5}])
    with pytest.raises(ValueError, match="3 values for 2 columns"):
        cli._write_csv(path, "x.v1", ["k", "sum_se"], [[0, 1.5, "ok"]])
    cli._write_csv(path, "x.v1", ["k", "sum_se"], [{"k": 0}, [1, 0.1 + 0.2]])
    assert path.read_text() == "# schema=x.v1\nk,sum_se\n0,\n1,0.30000000000000004\n"


def test_robust_job_checks_the_instant_its_weights_were_optimized_for(monkeypatch):
    sampled = []
    original = cli.montecarlo.sample_batch

    def recorded(*args, instants=(), **kwargs):
        sampled.append(list(instants))
        return original(*args, instants=instants, **kwargs)

    monkeypatch.setattr(cli.montecarlo, "sample_batch", recorded)
    spec = cli.spec_from_dict(one_scheme_spec(schemes=[
        {"private": "du_mr", "transmission": "coherent", "rs": True, "weights": "robust"}]))
    cfg = spec.base
    phases = cli.PhaseStatistics.from_config(cfg)
    topology = cli.build_topology(cfg, phases)
    [(_, extras)] = cli.run_jobs([cli.Job(cfg, phases, spec.schemes[0], topology, 0.5)],
                                 mc_realizations=100)
    problem = cli.optimize.build_maxmin_problem(topology.terms, phases, cfg, 0.5)
    assert sampled == [[problem.instant]]
    assert "mc_rel_err_common" in extras


def test_sweep_jobs_form_no_copilot_trace_block():
    # every co-pilot block is rank 1, so neither the topology's statistics
    # and trace terms nor the max-min program hold a co-pilot pair array:
    # no (S, g, g, ...) stack and no dense (K, K, L) trace.  K = 5 UEs on 2
    # pilots gives sets of sizes 3 and 2.
    spec = cli.spec_from_dict(one_scheme_spec(
        system={**desk_system(), "K": 5, "tau_p": 2},
        schemes=[{"private": private, "transmission": transmission, "rs": True,
                  "weights": "simple"}
                 for private in ("du_mr", "df_mr")
                 for transmission in ("coherent", "noncoherent")]))
    cfg = spec.base
    phases = cli.PhaseStatistics.from_config(cfg)
    topology = cli.build_topology(cfg, phases)
    assert [idx.shape for idx in topology.pilots.stacks] == [(1, 2), (1, 3)]
    pair_shapes = [(S, g, g) for S, g in (idx.shape for idx in topology.pilots.stacks)]

    def held(*owners):
        return [a for owner in owners for value in vars(owner).values()
                for a in (value if isinstance(value, tuple) else (value,))
                if isinstance(a, np.ndarray)]

    results = cli.run_jobs([cli.Job(cfg, phases, scheme, topology) for scheme in spec.schemes])
    assert not any(isinstance(result, Exception) for result in results)
    problem = cli.optimize.build_maxmin_problem(topology.terms, phases, cfg, 0.5)
    for a in held(topology.stats, topology.terms, problem):
        assert np.shape(a)[:3] not in pair_shapes
        assert np.shape(a) != (cfg.K, cfg.K, cfg.L)


@pytest.mark.parametrize("scheme, fixed_rho, mc, expected", [
    ({"private": "du_mr", "transmission": "coherent", "rs": True}, None, 0, 1),
    ({"private": "df_mr", "transmission": "noncoherent", "rs": True}, None, 100, 1),
    ({"private": "du_mr", "transmission": "coherent", "rs": False}, None, 0, 1),
    ({"private": "df_mr", "transmission": "coherent", "rs": True}, 0.5, 0, 1),
    ({"private": "du_mr", "transmission": "coherent", "rs": True, "weights": "robust"},
     0.5, 0, 3),
    ({"private": "du_mr", "transmission": "coherent", "rs": True, "weights": "robust"},
     0.5, 100, 3),
])
def test_each_job_computes_its_plan_coefficients_once(scheme, fixed_rho, mc, expected,
                                                       monkeypatch):
    # plan_parts does not depend on rho, so the rho search, the report at
    # the optimum and the Monte Carlo check share one set; only robust
    # weights, found at the searched rho, need a second, and the max-min
    # program takes its private interference from a third, its own plan's
    spec = cli.spec_from_dict(one_scheme_spec(
        system={**desk_system(), "K": 5, "tau_p": 2}, schemes=[scheme]))
    cfg = spec.base
    phases = cli.PhaseStatistics.from_config(cfg)
    topology = cli.build_topology(cfg, phases)
    calls = []
    original = cli.closed_form.plan_parts

    def counted(*args, **kwargs):
        calls.append(args[1].rho)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli.closed_form, "plan_parts", counted)
    # a by-name import into optimize would otherwise escape the count
    monkeypatch.setattr(cli.optimize, "plan_parts", counted, raising=False)
    [(report, extras)] = cli.run_jobs([cli.Job(cfg, phases, spec.schemes[0], topology, fixed_rho)],
                                      mc)
    assert len(calls) == expected
    assert report.sum_se > 0 and (mc == 0) == ("mc_rel_err_private" not in extras)


def test_mc_rel_err_is_blank_where_every_closed_form_sinr_underflows(tmp_path):
    # at 25 rad^2 of oscillator variance every closed-form SINR of the
    # 3/3/2/2 system is below the 1e-30 floor (sum SE 0.0), and the error
    # relative to the floor read 1.6e28; the 1e-3 point's rows keep a number
    spec = cli.spec_from_dict({
        "system": {**desk_system(seed=1), "L": 3, "K": 3},
        "sweep": {"parameter": "oscillator_variance", "values": [25.0, 1e-3]},
        "schemes": [{"private": "du_mr", "transmission": "coherent", "rs": True,
                     "weights": "simple"}],
        "mc_realizations": 200,
    })
    cfg = spec.base
    phases = cli.PhaseStatistics(25.0, 25.0)
    [(report, extras)] = cli.run_jobs(
        [cli.Job(cfg, phases, spec.schemes[0], cli.build_topology(cfg, phases))],
        mc_realizations=200)
    i = cfg.mid_instant - cfg.estimation_instant
    assert report.sum_se == 0.0
    assert np.all(report.sinr_private[:, i] <= 1e-30)
    assert "mc_rel_err_private" not in extras and "mc_rel_err_common" not in extras
    rows, _ = read_csv(cli.run_experiment(spec, out_dir=tmp_path / "out") / "results.csv")
    assert {r["status"] for r in rows} == {"ok"}
    for row in rows:
        underflow = float(row["sweep_value"]) == 25.0
        assert (float(row["sum_se"]) == 0.0) == underflow
        assert (row["mc_rel_err_private"] == "") == underflow
        assert underflow or float(row["mc_rel_err_private"]) < 1.0


def test_mc_rel_err_is_blank_where_the_check_cannot_resolve_the_sinr(tmp_path):
    # the README system at 3/3/2/2 (tau_c 20) and 1 rad^2: at the mid
    # instant the closed-form SINRs are 5e-11 to 7e-9, above the 1e-30
    # floor but far below the Monte Carlo standard errors (1e-3 to 4e-3 at
    # 200 realizations), and the columns read 2086338.16 (private) and 1.0
    # (common); the 1e-3 point's rows keep their numbers
    data = _readme_spec()
    data["system"].update(L=3, K=3, N=2, tau_p=2, tau_c=20, seed=1)
    data.update(sweep={"parameter": "oscillator_variance", "values": [1.0, 1e-3]},
                schemes=[{"private": "du_mr", "transmission": "coherent", "rs": True,
                          "weights": "simple"}],
                mc_realizations=200, repetitions=1)
    spec = cli.spec_from_dict(data)
    cfg, phases = spec.base, cli.PhaseStatistics(1.0, 1.0)
    job = cli.Job(cfg, phases, spec.schemes[0], cli.build_topology(cfg, phases))
    [(report, extras)] = cli.run_jobs([job], mc_realizations=200)
    i = cfg.mid_instant - cfg.estimation_instant
    for sinr in (report.sinr_private[:, i], report.sinr_common[:, i]):
        assert np.all((sinr > 1e-30) & (sinr < 1e-8))
    assert extras == {}
    rows, _ = read_csv(cli.run_experiment(spec, out_dir=tmp_path / "out") / "results.csv")
    assert {r["status"] for r in rows} == {"ok"}
    for row in rows:
        unresolved = float(row["sweep_value"]) == 1.0
        for stream in ("private", "common"):
            err = row[f"mc_rel_err_{stream}"]
            assert (err == "") == unresolved
            assert unresolved or float(err) < 1.0


@pytest.mark.parametrize("rho", [0.0, 0.5])
def test_a_sweep_mc_column_is_blank_when_every_ue_is_left_out(rho, monkeypatch):
    # UE 1's private SINR lies at its standard error and every common SINR
    # below its own: only UE 0's private error is kept.  At rho = 0 every
    # closed-form common SINR is 0
    cfg = cfrs.SystemConfig(L=3, K=2, N=2, tau_p=2, tau_c=20, seed=1)
    i = cfg.mid_instant - cfg.estimation_instant
    result = cfrs.MCSinr(cfg.mid_instant, np.array([0.6, 1e-3]), np.array([0.01, 1e-3]),
                         np.array([5e-3, 0.0]), np.array([0.01, 0.01]), None, 200)
    monkeypatch.setattr(cli.montecarlo, "sample_batch", lambda *args, **kwargs: None)
    monkeypatch.setattr(cli.montecarlo, "mc_sinr", lambda batch, plan, n: result)
    closed = np.zeros((2, cfg.tau_c - cfg.estimation_instant + 1))
    report = SimpleNamespace(sinr_private=closed.copy(), sinr_common=closed.copy())
    report.sinr_private[:, i] = [0.5, 1e-3]
    report.sinr_common[:, i] = [4e-3 if rho else 0.0, 1e-30]
    job = cli.Job(cfg, None, None, (None, None, None, None))
    plan = SimpleNamespace(rho=rho)
    assert cli._mc_errors(job, plan, report, 200) == {"mc_rel_err_private": abs(0.6 - 0.5) / 0.5}


def test_validate_rows_are_the_comparisons_fields(monkeypatch):
    # every row holds one UE of one MCSinr.compare call, in call order
    calls = []
    compare = cfrs.MCSinr.compare

    def spy(self, stream, closed, *args, **kwargs):
        calls.append((stream, self.instant, closed, compare(self, stream, closed,
                                                            *args, **kwargs)))
        return calls[-1][-1]

    monkeypatch.setattr(cfrs.MCSinr, "compare", spy)
    cfg = cfrs.SystemConfig(L=3, K=2, N=2, tau_p=2, tau_c=20, seed=1)
    rows = cli.validate_families(cfg, cfrs.PhaseStatistics.from_config(cfg), 200)
    assert len(rows) == len(calls) * cfg.K == 8 * 3 * cfg.K
    for j, row in enumerate(rows):
        stream, n, closed, c = calls[j // cfg.K]
        k = j % cfg.K
        assert (row["stream"], row["n"], row["k"]) == (stream, n, k)
        assert row["closed_sinr"] == repr(float(closed[k]))
        for column, field in (("mc_sinr", c.estimate), ("mc_stderr", c.stderr),
                              ("ci_lo", c.ci_lo), ("ci_hi", c.ci_hi)):
            assert row[column] == repr(float(field[k]))
        assert row["rel_err"] == ("" if np.isnan(c.rel_err[k]) else repr(float(c.rel_err[k])))
        assert row["covered"] == int(c.covered[k]) and type(row["covered"]) is int


def test_validate_leaves_out_the_ues_whose_closed_form_sinr_underflows(tmp_path, capsys):
    # the same 3/3/2/2 system at 25 rad^2: 64 of the 72 rows have a
    # closed-form SINR at or below the 1e-30 floor, where rel_err read up to
    # 1.1e28 and was printed as the worst relative error.  Their cells are
    # blank, and every other row keeps |mc - closed| / closed
    cfg = cfrs.SystemConfig(L=3, K=3, N=2, tau_p=2, tau_c=20, seed=1)
    rows = cli.validate_families(cfg, cfrs.PhaseStatistics(25.0, 25.0), 200)
    below = [float(r["closed_sinr"]) <= 1e-30 for r in rows]
    assert len(rows) == 72 and sum(below) == 64
    for row, floor in zip(rows, below):
        closed, mc = float(row["closed_sinr"]), float(row["mc_sinr"])
        assert row["rel_err"] == ("" if floor else repr(abs(mc - closed) / closed))
    # the printed worst skips blank cells, and says so when every cell is
    for var in (25.0, 100.0):
        osc = var / (4 * np.pi**2 * 2e9**2 * 1e-5)
        path = write_spec(tmp_path, one_scheme_spec(system={
            **desk_system(seed=1), "L": 3, "K": 3, "osc_constant_ap": osc,
            "osc_constant_ue": osc}))
        out = tmp_path / "val.csv"
        assert cli.main(["validate", "--config", str(path), "--mc", "200",
                         "--out", str(out)]) == 0
        rel = [float(r["rel_err"]) for r in read_csv(out)[0] if r["rel_err"]]
        assert bool(rel) == (var == 25.0)
        worst = f"{max(rel):.4%}" if rel else "blank: no closed-form SINR above 1e-30"
        assert capsys.readouterr().out.strip().endswith(f"worst relative error {worst}")


def _readme_spec() -> dict:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return json.loads(readme.split("```json", 1)[1].split("```", 1)[0])


BLAS_KERNELS = ("", "Sandybridge", "Prescott")


def _kernel_env(kernel):
    """This environment with OPENBLAS_CORETYPE set to ``kernel`` (unset for
    "", the library's own pick) and the package's source on PYTHONPATH."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    if kernel:
        env["OPENBLAS_CORETYPE"] = kernel
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


# one run_experiment per argv, in a child process whose environment picks
# the BLAS kernel
_RUN_IN_CHILD = """
import json, sys
from cfrs import cli
cli.run_experiment(cli.spec_from_dict(json.loads(sys.argv[1])), out_dir=sys.argv[2])
"""


@pytest.mark.parametrize("workload", ["readme", "200/32/4/8"])
def test_sweep_csvs_do_not_depend_on_the_blas_kernel(workload, tmp_path):
    # a matrix product sums in the order of the CPU kernel OpenBLAS picks,
    # so the sweep path uses none; OPENBLAS_CORETYPE forces older kernels
    spec = {**_readme_spec(), "repetitions": 2}
    if workload != "readme":
        spec = {**spec, "repetitions": 1, "sweep": {"parameter": "none", "values": []},
                "system": {**spec["system"], "L": 200, "K": 32, "N": 4, "tau_p": 8,
                           "correlation": "exponential", "corr_r": 0.7},
                "schemes": [
                    {"private": "du_mr", "transmission": "coherent", "rs": True},
                    {"private": "df_mr", "transmission": "noncoherent", "rs": True}]}
    outputs = {}
    for kernel in BLAS_KERNELS:
        out = tmp_path / (kernel or "default")
        subprocess.run([sys.executable, "-c", _RUN_IN_CHILD, json.dumps(spec), str(out)],
                       env=_kernel_env(kernel), check=True, timeout=120)
        outputs[kernel] = [(out / name).read_bytes()
                           for name in ("results.csv", "aggregate.csv")]
    assert outputs["Sandybridge"] == outputs[""]
    assert outputs["Prescott"] == outputs[""]


def test_validate_csv_does_not_depend_on_the_blas_kernel(tmp_path):
    # the Monte Carlo oracle forms no matrix product either
    outputs = {}
    for kernel in BLAS_KERNELS:
        out = tmp_path / f"{kernel or 'default'}.csv"
        subprocess.run([sys.executable, "-m", "cfrs.cli", "validate", "--mc", "2000",
                        "--out", str(out)], env=_kernel_env(kernel), check=True,
                       timeout=120, capture_output=True)
        outputs[kernel] = out.read_bytes()
    assert outputs["Sandybridge"] == outputs[""]
    assert outputs["Prescott"] == outputs[""]


def test_robust_weights_do_not_depend_on_the_blas_kernel(tmp_path):
    # nor does the max-min program; K > tau_p, so the split is exercised too
    path = write_spec(tmp_path, one_scheme_spec(
        system={**desk_system(), "L": 10, "K": 6, "tau_p": 3}))
    outputs = {}
    for kernel in BLAS_KERNELS:
        out = tmp_path / f"{kernel or 'default'}.csv"
        subprocess.run([sys.executable, "-m", "cfrs.cli", "robust", "--config", str(path),
                        "--out", str(out)], env=_kernel_env(kernel), check=True,
                       timeout=120, capture_output=True)
        outputs[kernel] = out.read_bytes()
    assert outputs["Sandybridge"] == outputs[""]
    assert outputs["Prescott"] == outputs[""]


MATRIX_PRODUCTS = {"matmul", "dot", "vdot", "inner", "tensordot",
                   "solve", "cholesky", "inv", "lstsq"}


def _matrix_products(source: str) -> list[str]:
    """The lines of ``source`` that form a matrix product or a LAPACK solve:
    ``@``, a call named in MATRIX_PRODUCTS, or an ``einsum`` given
    ``optimize``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in MATRIX_PRODUCTS or (
                    name == "einsum" and any(kw.arg == "optimize" for kw in node.keywords)):
                found.append((node.lineno, name))
    return [f"line {n}: {name}" for n, name in sorted(found)]


def test_matrix_product_lint_flags_every_form():
    source = "\n".join([
        "a @ b", "a @= b", "np.matmul(a, b)", "a.dot(b)", "np.vdot(a, b)",
        "inner(a, b)", "np.tensordot(a, b)", "np.einsum('ij,jk', a, b, optimize=True)",
        "np.linalg.solve(a, b)", "np.linalg.cholesky(a)", "linalg.inv(a)",
        "np.linalg.lstsq(a, b)", "np.einsum('ij,jk', a, b)", "a * b",
        "np.linalg.eigvalsh(a)",
    ])
    assert [line.split(": ")[0] for line in _matrix_products(source)] == [
        f"line {n}" for n in range(1, 13)]


@pytest.mark.parametrize("module", ["cli", "closed_form", "estimation", "model", "montecarlo",
                                    "optimize"])
def test_sweep_modules_form_no_matrix_product(module):
    # the kernel test above catches a product only where this host's OpenBLAS
    # kernels round it differently, so the sources are checked as well
    source = (Path(cli.__file__).parent / f"{module}.py").read_text()
    assert _matrix_products(source) == []


EXPONENTIALS = {"exp", "exp2", "expm1"}


def _real_exponentials(source: str) -> list[str]:
    """The calls in ``source`` to a function named in EXPONENTIALS whose
    argument holds no imaginary literal, each as its line and the top-level
    function or class it lies in."""
    found = []
    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            imaginary = any(isinstance(c, ast.Constant) and isinstance(c.value, complex)
                            for arg in node.args for c in ast.walk(arg))
            if name in EXPONENTIALS and not imaginary:
                found.append(f"line {node.lineno}: {owner}")
    return found


def test_exponential_lint_flags_every_real_form():
    source = "\n".join([
        "np.exp(a)", "math.exp(-a * b)", "exp(a)", "np.expm1(a)", "np.exp2(a)",
        "def decay(a):", "    return np.exp(-a)", "class C:", "    x = np.exp(1.0)",
        "np.exp(-2j * a)", "np.exponent(a)", "a.explode()",
    ])
    assert _real_exponentials(source) == [
        "line 1: <module>", "line 2: <module>", "line 3: <module>", "line 4: <module>",
        "line 5: <module>", "line 7: decay", "line 9: C"]


def test_every_drift_decay_comes_from_model_phase_decay():
    # one decay formula: a second copy of exp(-gap * var) elsewhere would
    # drift apart from it when the decays are re-referenced
    package = Path(cli.__file__).parent
    found = {path.stem: _real_exponentials(path.read_text())
             for path in sorted(package.glob("*.py"))}
    assert [owner.split(": ")[1] for owner in found.pop("model")] == ["phase_decay"]
    assert {module: calls for module, calls in found.items() if calls} == {}


def test_sweep_jobs_factor_no_matrix_but_the_template(monkeypatch):
    # every statistic is computed in the eigenbasis of the correlation
    # template T, so a topology and its sweep jobs call np.linalg once: the
    # eigenvalues of the N x N template
    spec = cli.spec_from_dict(one_scheme_spec(
        system={**desk_system(), "K": 5, "N": 3, "tau_p": 2,
                "correlation": "exponential", "corr_r": 0.6},
        schemes=[{"private": private, "transmission": transmission, "rs": rs,
                  "weights": "simple"}
                 for private in ("du_mr", "df_mr")
                 for transmission in ("coherent", "noncoherent")
                 for rs in (True, False)]))
    cfg = spec.base
    phases = cli.PhaseStatistics.from_config(cfg)
    calls = []
    for name in np.linalg.__all__:
        target = getattr(np.linalg, name)
        if callable(target) and not isinstance(target, type):
            def spy(*args, _name=name, _target=target, **kwargs):
                calls.append((_name, np.shape(args[0]) if args else None))
                return _target(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
    topology = cli.build_topology(cfg, phases)
    assert cfg.K > cfg.tau_p
    results = cli.run_jobs([cli.Job(cfg, phases, scheme, topology) for scheme in spec.schemes])
    assert not any(isinstance(result, Exception) for result in results)
    assert calls == [("eigvalsh", (cfg.N, cfg.N))]


def test_single_user_run(tmp_path):
    system = desk_system()
    system["K"] = 1
    system["tau_p"] = 1
    spec = cli.spec_from_dict({
        "system": system,
        "schemes": [{"private": "du_mr", "transmission": "coherent", "rs": True,
                     "weights": "robust"}],
        "output": str(tmp_path / "out"),
    })
    out = cli.run_experiment(spec)
    rows, _ = read_csv(out / "results.csv")
    assert len(rows) == 1 and rows[0]["status"] == "ok"
    # one UE: the common SE equals that UE's common SE
    assert rows[0]["se_common"] == rows[0]["se_common_per_ue"]


def test_sweep_requires_config():
    assert cli.main(["sweep"]) == 2  # ConfigError surfaces as exit code 2


@pytest.mark.parametrize("argv", [
    ["robust", "--rho", "1.5"],
    ["robust", "--rho", "0"],
    ["robust", "--instant", "1"],
    ["robust", "--eps", "0"],
    ["robust", "--eps", "-1"],
    ["rho-opt", "--tol", "0"],
    ["rho-opt", "--grid", "-3"],
    ["rho-opt", "--grid", "1"],
    ["rho-opt", "--tol", "1"],
    ["rho-opt", "--tol", "2"],
    ["validate", "--mc", "50"],
    ["validate", "--mc", "0"],
    ["se", "--seed", "-1"],
    ["rho-opt", "--seed", "-3"],
    ["nmse", "--variances", "-1"],
    ["nmse", "--variances", "nan"],
    ["nmse", "--variances", "1e3"],
    # a second output flag naming the --out file, {tmp} being the test's directory
    ["se", "--dump-network", "{tmp}/out.csv"],
    ["validate", "--terms-out", "{tmp}/out.csv", "--mc", "200"],
    # a directory given as the spec or the manifest
    ["sweep", "--config", "{tmp}"],
    ["sweep", "--replay", "{tmp}"],
], ids=lambda argv: f"{argv[0]}{argv[1]}={argv[2]}")
def test_bad_flags_fail_at_the_boundary(argv, tmp_path, monkeypatch, capsys):
    def no_topology(*args):
        raise AssertionError("a bad flag must fail before anything is computed")

    monkeypatch.setattr(cli, "build_topology", no_topology)
    monkeypatch.setattr(cli, "build_network", no_topology)
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    out = tmp_path / "out.csv"
    # rho-opt writes no file, so it has no --out
    assert cli.main(argv + ([] if argv[0] == "rho-opt" else ["--out", str(out)])) == 2
    err = capsys.readouterr().err
    if argv[1] in ("--config", "--replay"):  # a spec's errors name the file
        assert f"error: {argv[2]}: is a directory" in err
    else:
        assert f"error: {argv[1]}: " in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["se", "--dump-network"], ["validate", "--terms-out"]],
                         ids=" ".join)
def test_two_output_flags_naming_one_file_exit_2(argv, tmp_path, monkeypatch, capsys):
    # the paths are compared resolved: a relative --out names the absolute file
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "f.csv"
    assert cli.main(argv + [str(path), "--out", "f.csv"]) == 2
    assert capsys.readouterr().err == f"error: {argv[1]}: {path} is also the --out file\n"
    assert not path.exists()


@pytest.mark.parametrize("target", ["directory", "missing parent"])
@pytest.mark.parametrize("argv", [
    ["nmse", "--out"], ["se", "--out"], ["se", "--dump-network"], ["validate", "--out"],
    ["validate", "--terms-out"], ["robust", "--out"],
], ids=" ".join)
def test_bad_output_paths_fail_before_any_work(argv, target, tmp_path, monkeypatch, capsys):
    def no_topology(*args):
        raise AssertionError("a bad output path must fail before anything is computed")

    monkeypatch.setattr(cli, "build_topology", no_topology)
    monkeypatch.setattr(cli, "build_network", no_topology)
    path = tmp_path if target == "directory" else tmp_path / "missing" / "out.csv"
    assert cli.main(argv + [str(path)]) == 2
    assert f"error: {argv[1]}: " in capsys.readouterr().err


@pytest.mark.parametrize("count", ["50", "-3"])
def test_bad_sweep_mc_override_fails_naming_the_flag(count, tmp_path, monkeypatch, capsys):
    def no_topology(*args):
        raise AssertionError("a bad flag must fail before anything is computed")

    monkeypatch.setattr(cli, "build_topology", no_topology)
    monkeypatch.setattr(cli, "build_network", no_topology)
    path = write_spec(tmp_path, one_scheme_spec())
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(path), "--mc", count, "--out", str(out)]) == 2
    assert "error: --mc: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("named_by", ["--out", "output"])
def test_sweep_output_that_is_a_file_fails_before_any_job(named_by, tmp_path, monkeypatch,
                                                          capsys):
    def no_network(*args):
        raise AssertionError("a bad output path must fail before any job runs")

    monkeypatch.setattr(cli, "build_network", no_network)
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    if named_by == "--out":
        path = write_spec(tmp_path, one_scheme_spec())
        argv, flag = ["--out", str(taken / "sub")], "--out"
    else:
        path = write_spec(tmp_path, one_scheme_spec(output=str(taken)))
        argv, flag = [], f"{path}.output"
    assert cli.main(["sweep", "--config", str(path), *argv]) == 2
    assert capsys.readouterr().err == f"error: {flag}: {taken} is not a directory\n"
    assert taken.read_text() == "not a directory"


def _exit_code(argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects an unknown flag
        return exc.code


@pytest.mark.parametrize("extra, message", [
    (["rho-opt", "--out", "{tmp}/rho.txt"], "unrecognized arguments: --out"),
    (["sweep", "--config", "{spec}", "--seed", "5"], "unrecognized arguments: --seed"),
    (["sweep", "--replay", "{manifest}", "--config", "{spec}"], "error: --replay and --config"),
], ids=["rho-opt-out", "sweep-seed", "sweep-replay-config"])
def test_flags_a_subcommand_would_ignore_exit_2(extra, message, tmp_path, monkeypatch, capsys):
    def no_network(*args):
        raise AssertionError("an ignored flag must fail before anything is computed")

    monkeypatch.setattr(cli, "build_network", no_network)
    monkeypatch.setattr(cli, "build_topology", no_network)
    data = one_scheme_spec(output=str(tmp_path / "out"))
    spec = write_spec(tmp_path, data)
    manifest = write_spec(tmp_path, {"schema": cli.MANIFEST_SCHEMA, "spec": data},
                          name="manifest.json")
    argv = [a.format(tmp=tmp_path, spec=spec, manifest=manifest) for a in extra]
    assert _exit_code(argv) == 2
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.json", "manifest.json"]


def test_rho_opt_prints_the_split_and_the_grid_check(tmp_path, capsys):
    path = write_spec(tmp_path, one_scheme_spec())
    assert cli.main(["rho-opt", "--config", str(path), "--grid", "11"]) == 0
    out = capsys.readouterr().out
    rho = float(re.search(r"rho\* = (\S+),", out).group(1))
    assert 0.0 <= rho <= 1.0
    assert re.search(r"^grid check: rho = \S+, sum SE = \S+$", out, re.MULTILINE)


def test_robust_verbose_writes_json_lines_to_stderr(tmp_path, capsys, monkeypatch):
    # in-process, so a line tracer sees --verbose run; ``logging.basicConfig``
    # configures only a root logger with no handlers, so the test runner's
    # are set aside for the call
    root = logging.getLogger()
    monkeypatch.setattr(root, "handlers", [])
    level = root.level
    path = write_spec(tmp_path, one_scheme_spec())
    out = tmp_path / "weights.csv"
    try:
        assert cli.main(["robust", "--config", str(path), "--out", str(out), "--verbose"]) == 0
    finally:
        root.setLevel(level)
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert {"bracket", "bisect"} <= {e["event"] for e in events}
    assert all(e["bracket"][0] < e["t"] < e["bracket"][1] for e in events
               if e["event"] == "bisect")
    rows, schema = read_csv(out)
    assert schema == f"# schema={cli.WEIGHTS_SCHEMA}"
    system = desk_system()
    assert len(rows) == system["K"] * system["L"]
    assert all(float(r["weight"]) >= 0 for r in rows)


def test_readme_command_lines_parse():
    # a renamed or deleted flag must fail here, not in a reader's shell
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("cfrs ")]
    assert len(lines) >= 6
    for line in lines:
        args = cli._parser().parse_args(shlex.split(line)[1:])
        assert args.func.__name__ == "cmd_" + args.command.replace("-", "_")


def test_readme_library_quick_start_runs():
    # a changed signature must fail here, not in a reader's session
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library quick start", 1)[1].split("```python", 1)[1]
    exec(compile(block.split("```", 1)[0], "README.md", "exec"), {})
