import csv
import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


def test_import_loads_no_scipy():
    # scipy costs start-up time; only the robust-precoding oracle imports it
    code = ("import sys, cfrs, cfrs.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert out.stdout.strip() == "[]"


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
    ["validate", "--mc", "50"],
    ["validate", "--mc", "0"],
    ["se", "--seed", "-1"],
    ["rho-opt", "--seed", "-3"],
    ["nmse", "--variances", "-1"],
    ["nmse", "--variances", "nan"],
], ids=lambda argv: f"{argv[0]}{argv[1]}={argv[2]}")
def test_bad_flags_fail_at_the_boundary(argv, tmp_path, monkeypatch, capsys):
    def no_topology(*args):
        raise AssertionError("a bad flag must fail before anything is computed")

    monkeypatch.setattr(cli, "build_topology", no_topology)
    monkeypatch.setattr(cli, "build_network", no_topology)
    out = tmp_path / "out.csv"
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert f"error: {argv[1]}: " in capsys.readouterr().err
    assert not out.exists()


def test_rho_opt_prints_the_split_and_the_grid_check(tmp_path, capsys):
    path = write_spec(tmp_path, one_scheme_spec())
    assert cli.main(["rho-opt", "--config", str(path), "--grid", "11"]) == 0
    out = capsys.readouterr().out
    rho = float(re.search(r"rho\* = (\S+),", out).group(1))
    assert 0.0 <= rho <= 1.0
    assert re.search(r"^grid check: rho = \S+, sum SE = \S+$", out, re.MULTILINE)


def test_robust_verbose_writes_json_lines_to_stderr(tmp_path):
    path = write_spec(tmp_path, one_scheme_spec())
    out = tmp_path / "weights.csv"
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "cfrs.cli", "robust", "--config", str(path),
         "--out", str(out), "--verbose"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    assert lines
    assert all("event" in json.loads(line) for line in lines)
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
