"""A golden corpus of CLI outputs, each entry digested against tests/golden.json.

Every entry runs ``cli.main`` in-process into a temporary directory and
digests the files it writes (and, for ``rho-opt``, what it prints).  Every
numeric CSV field enters the digest rounded to 9 significant digits, as the
benchmark's ``digest_lines`` does, so a change in the last bits of a sum
keeps the digest while any change a reader of the CSVs could see moves it.
The ``bench-*`` entries are the benchmark's own digests: each workload of
``perfbench/workloads.py`` run at seed 1 with the ops of a 16 s run, every
op's output passing the workload's check.

A change that moves an entry on purpose updates tests/golden.json and names
each moved entry and the reason.  To print the digests of the current code:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

import cfrs.cli as cli

GOLDEN = Path(__file__).with_name("golden.json")
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
DIGITS = 9

README_SYSTEM = {
    "L": 40, "K": 8, "N": 2, "tau_p": 4, "tau_c": 200,
    "pilot_power": "20 dBm", "downlink_power": "23 dBm",
    "noise_ul": "-96 dBm", "noise_dl": "-96 dBm",
    "symbol_duration_s": 1e-05, "carrier_hz": 2e9,
    "osc_constant_ap": 1e-18, "osc_constant_ue": 1e-18,
    "area_side_m": 100.0, "seed": 1,
    "correlation": "uncorrelated", "corr_r": 0.0,
}
DESK_SYSTEM = {**README_SYSTEM, "L": 4, "K": 3, "N": 2, "tau_p": 2, "tau_c": 20}
DU_RS = {"private": "du_mr", "transmission": "coherent", "rs": True, "weights": "simple"}
DU_RS_ROBUST = {**DU_RS, "weights": "robust"}
DU_NORS = {"private": "du_mr", "transmission": "coherent", "rs": False}
DF_NC_RS = {"private": "df_mr", "transmission": "noncoherent", "rs": True, "weights": "simple"}
ALL_SCHEMES = [{"private": private, "transmission": transmission, "rs": rs, "weights": "simple"}
               for private in ("du_mr", "df_mr")
               for transmission in ("coherent", "noncoherent")
               for rs in (True, False)]
SWEEP_FILES = ["results.csv", "aggregate.csv", "manifest.json"]


def _spec(system, schemes, sweep=None, repetitions=2, mc=0):
    return {"system": system, "schemes": schemes,
            "sweep": sweep or {"parameter": "none", "values": []},
            "mc_realizations": mc, "repetitions": repetitions, "output": "results"}


README_SPEC = _spec(README_SYSTEM, [DU_RS, DU_NORS, DF_NC_RS],
                    {"parameter": "oscillator_variance",
                     "values": ["-50 dB", "-40 dB", "-30 dB", "-20 dB"]})

# entry -> its sweep spec
SWEEPS = {
    "sweep-readme": README_SPEC,
    "sweep-desk-power": _spec(DESK_SYSTEM, ALL_SCHEMES,
                              {"parameter": "transmit_power", "values": ["10 dBm", "23 dBm"]}),
    "sweep-desk-antennas": _spec(DESK_SYSTEM, ALL_SCHEMES,
                                 {"parameter": "antenna_count", "values": [1, 2, 3]}),
    "sweep-desk-rho": _spec(DESK_SYSTEM, ALL_SCHEMES,
                            {"parameter": "rho", "values": [0, 0.4, 1]}),
    "sweep-desk-mc": _spec(DESK_SYSTEM, [DU_RS, DU_RS_ROBUST, DU_NORS, DF_NC_RS], mc=200),
    "sweep-single-user": _spec({**DESK_SYSTEM, "K": 1, "tau_p": 1},
                               [DU_RS, DU_RS_ROBUST, DU_NORS, DF_NC_RS]),
    # three robust jobs per repetition, reported from one stack
    "sweep-desk-robust": _spec(DESK_SYSTEM, [DU_RS, DU_RS_ROBUST, DF_NC_RS],
                               {"parameter": "oscillator_variance",
                                "values": ["-40 dB", "-30 dB", "-20 dB"]}, mc=200),
}

# entry -> (argv with {d} for the entry's directory, the outputs digested)
COMMANDS = {
    "se-dump-network": (["se", "--out", "{d}/se.csv", "--dump-network", "{d}/network.csv"],
                        ["se.csv", "network.csv"]),
    "rho-opt-grid": (["rho-opt", "--grid", "50"], ["stdout"]),
    "robust-seed-1": (["robust", "--seed", "1", "--rho", "0.5", "--out", "{d}/weights.csv"],
                      ["weights.csv"]),
    "validate-terms": (["validate", "--mc", "2000", "--out", "{d}/validate.csv",
                        "--terms-out", "{d}/terms.csv"], ["validate.csv", "terms.csv"]),
    "nmse-variances": (["nmse", "--variances", "-40 dB,-20 dB", "--out", "{d}/nmse.csv"],
                       ["nmse.csv"]),
}


# entry -> the benchmark workload it runs, at seed 1 with the ops of a 16 s run
BENCHMARKS = {f"bench-{name}": name for name in ("sweep-default", "sweep-large", "validate-desk")}
BENCH_SEED, BENCH_SECONDS = 1, 16.0


def _sig(field: str) -> str:
    """A numeric field at DIGITS significant digits; any other field as it is."""
    try:
        return f"{float(field):.{DIGITS - 1}e}"
    except ValueError:
        return field


def _canonical(name: str, text: str) -> list[str]:
    """The lines a file enters the digest with: CSV rows with their numbers
    rounded; the schema line, JSON and printed text as written."""
    if not name.endswith(".csv"):
        return text.splitlines()
    lines = text.splitlines()
    return [line if line.startswith("#") else ",".join(map(_sig, row))
            for line, row in zip(lines, csv.reader(lines))]


def _main(argv: list[str]) -> str:
    """What ``cfrs <argv>`` prints; a non-zero exit fails the entry."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0, argv
    return out.getvalue()


def _workloads():
    """The benchmark's ``workloads`` module, loaded from its file."""
    module = sys.modules.get("perfbench_workloads")
    if module is None:
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def run_benchmark(name: str, d: Path) -> str:
    """The digest of benchmark entry ``name``, its ops run with ``d`` as
    their output directory; an op whose output fails the workload's check
    fails the entry."""
    workloads = _workloads()
    workload = workloads.WORKLOADS[BENCHMARKS[name]]
    lines = []
    for i, op in enumerate(workloads.make_ops(workload, BENCH_SEED,
                                              workload.op_count(BENCH_SECONDS))):
        rows = workloads.output_rows(workload, workloads.call(workload, op, d))
        with open(d / f"op-{i}.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        assert workloads.check(workload, op, rows) == [], (name, i)
        lines.append(workloads.digest_lines(workload, rows))
    return workloads.digest(lines)


def run_entry(name: str, d: Path) -> str:
    """Run corpus entry ``name`` in the empty directory ``d``; its digest.

    Beside the files its commands write, the entry leaves in ``d`` what
    they print (``stdout``, with ``d`` written as ``{d}``) or, for a
    benchmark entry, each op's output rows (``op-<i>.csv``), which
    tools/parent_diff.py compares byte for byte.
    """
    if name in BENCHMARKS:
        return run_benchmark(name, d)
    printed = []

    def main(argv: list[str]) -> str:
        printed.append(_main(argv))
        return printed[-1]

    base = name.removesuffix("-replay")
    if base in SWEEPS:
        spec = d / "spec.json"
        spec.write_text(json.dumps(SWEEPS[base]))
        main(["sweep", "--config", str(spec), "--out", str(d / "first")])
        if name == base:
            out = d / "first"
        else:
            out = d / "out"
            main(["sweep", "--replay", str(d / "first" / "manifest.json"), "--out", str(out)])
        texts = {f: (out / f).read_text() for f in SWEEP_FILES}
    else:
        argv, outputs = COMMANDS[name]
        stdout = main([arg.replace("{d}", str(d)) for arg in argv])
        texts = {f: stdout if f == "stdout" else (d / f).read_text() for f in outputs}
    (d / "stdout").write_text("".join(printed).replace(str(d), "{d}"))
    h = hashlib.sha256()
    for f, text in texts.items():
        h.update(f"{f}\n".encode())
        for line in _canonical(f, text):
            h.update(line.encode() + b"\n")
    return h.hexdigest()[:16]


ENTRIES = [*SWEEPS, "sweep-readme-replay", *COMMANDS, *BENCHMARKS]


def test_corpus_lists_every_entry_once():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(ENTRIES)


def test_rounding_keeps_the_last_bits_and_nothing_else():
    # a last-bit change keeps a field's digest text; a change in the 8th
    # significant digit and a changed label do not
    assert _sig(repr(0.1 + 0.2)) == _sig("0.3")
    assert _sig("0.30000001") != _sig("0.3")
    assert _canonical("a.csv", "# schema=x\nk,v,s\n0,0.1,ok\n") == [
        "# schema=x", "k,v,s", "0.00000000e+00,1.00000000e-01,ok"]


@pytest.mark.parametrize("name", ENTRIES)
def test_outputs_match_the_golden_digest(name, tmp_path):
    assert run_entry(name, tmp_path) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    import tempfile

    digests = {}
    for entry in ENTRIES:
        with tempfile.TemporaryDirectory() as d:
            digests[entry] = run_entry(entry, Path(d))
    json.dump(digests, sys.stdout, indent=2)
    print()
