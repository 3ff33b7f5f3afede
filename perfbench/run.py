"""cfrs benchmark: times the `cfrs sweep` and `cfrs validate` paths end to end.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload sweep-default --seed 1 --seconds 16 --trace 0

Each workload is a closed loop with one client in one process: the next op
starts when the previous one has returned.  The op count is fixed by
``--seconds`` and the workload's nominal op cost, so every commit does the
same work for the same arguments and the run takes about ``--seconds`` at
nominal speed.  Every op's output is checked (see ``workloads.check``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the first
half of those ops twice each, untraced and traced in alternating order, and
reports the per-layer metrics plus the tracing overhead.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the environment, the
problem sizes, the op-latency percentiles and the output digest.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
SETUP_PROBES = 5

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

# Run in a fresh interpreter to time one set-up: import cfrs and parse the
# workload's inputs.  It prints "ready" when the first op could start.
_PROBE = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
w = workloads.WORKLOADS[sys.argv[3]]
workloads.make_ops(w, int(sys.argv[4]), int(sys.argv[5]))
print("ready", flush=True)
"""


def program_present() -> bool:
    return (SRC / "cfrs" / "__init__.py").is_file()


def measure_setup(workload, seed: int, ops: int, probes: int) -> list[float]:
    """Seconds from interpreter start until the first op could start, per probe."""
    samples = []
    argv = [sys.executable, "-c", _PROBE, str(HERE), str(SRC), workload.name, str(seed), str(ops)]
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True)
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()[-500:]}")
    return samples


def environment() -> dict:
    """Software versions, core count, BLAS threading and the source revision."""
    import importlib.util

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cvxpy_present": importlib.util.find_spec("cvxpy") is not None,
        "git_commit": None,
    }
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        env["git_commit"] = proc.stdout.strip() or None
    return env


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def percentile_with_tail(values: list[float]):
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(values)
    best = None
    for q in (50, 90, 99, 99.9):
        rank = math.ceil(round(q * n / 100, 9))  # nearest rank, free of float dust
        if n - rank >= 10:
            best = q, sorted(values)[rank - 1]
    return best or (None, None)


class Run:
    """One benchmark run: executes, times and checks ops, then reports."""

    def __init__(self, workload, out_dir: Path):
        self.workload = workload
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest_lines: list[list[str]] = []

    def execute(self, index: int, op, tracer=None) -> tuple[float, list[str] | None]:
        """Time one op, then check its output; returns (seconds, digest lines).

        With a tracer, its wrappers are installed and its op span open for
        exactly the timed call.
        """
        gc.collect()
        self.attempted += 1
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            with tracer.span(self.workload.op_name) if tracer else contextlib.nullcontext():
                result = workloads.call(self.workload, op, self.out_dir)
        except Exception as exc:  # an op that raises is counted, not fatal
            result = exc
        finally:
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        if isinstance(result, Exception):
            self.failed += 1
            self.problems.append(f"op {index}: {type(result).__name__}: {result}")
            return elapsed, None
        rows = workloads.output_rows(self.workload, result)
        if workloads.failed_rows(rows):
            self.failed += 1
        problems = workloads.check(self.workload, op, rows)
        self.problems += [f"op {index}: {p}" for p in problems]
        return elapsed, workloads.digest_lines(self.workload, rows)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def run(workload, seed: int, seconds: float, trace: bool, setup_probes: int = SETUP_PROBES,
        out_dir: Path = OUT) -> dict:
    """Run one workload and return the result object of the last output line."""
    count = workload.op_count(seconds)
    if trace:  # each op runs twice, so keep the run about as long
        count = max(workload.min_ops, math.ceil(count / 2))
    setup = [] if trace else measure_setup(workload, seed, count, setup_probes)
    ops = workloads.make_ops(workload, seed, count)
    op_dir = out_dir / f"{workload.name}-{seed}"
    bench = Run(workload, op_dir)
    latencies = []
    untraced = traced = 0.0
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
    try:
        for i, op in enumerate(ops):
            if tracer is None:
                elapsed, lines = bench.execute(i, op)
                latencies.append(elapsed)
                bench.digest_lines.append(lines or [])
                continue
            # alternate the order so neither side always runs on warm caches
            results = {}
            for side in ("untraced", "traced") if i % 2 == 0 else ("traced", "untraced"):
                results[side] = bench.execute(i, op, tracer if side == "traced" else None)
            untraced += results["untraced"][0]
            traced += results["traced"][0]
            if results["untraced"][1] != results["traced"][1]:
                bench.problems.append(f"op {i}: traced output differs from untraced")
            bench.digest_lines.append(results["untraced"][1] or [])
    finally:
        shutil.rmtree(op_dir, ignore_errors=True)

    env = environment()
    size = workloads.sizes(workload, count)
    info = {"workload": workload.name, "seed": seed, "env": env, "sizes": size,
            "digest": workloads.digest(bench.digest_lines), "problems": bench.problems[:20],
            "ops_total": bench.attempted, "ops_failed": bench.failed}
    if tracer is None:
        info["op_latency_ms"] = {"samples": len(latencies),
                                 "p50": 1e3 * statistics.median(latencies),
                                 "min": 1e3 * min(latencies), "max": 1e3 * max(latencies)}
        q, tail = percentile_with_tail(latencies)
        if q is not None:
            info["op_latency_ms"][f"p{q:g}"] = 1e3 * tail
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (sum(latencies), "s"),
            "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    else:
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_frac"] = (traced / untraced - 1 if untraced else 0.0, "ratio")
        out_dir.mkdir(parents=True, exist_ok=True)
        trace_file = out_dir / f"trace-{workload.name}-{seed}.json"
        trace_file.write_text(json.dumps(
            {**info, "metrics": {k: v for k, (v, _) in metrics.items()},
             "spans": tracer.spans}))
        info["trace_file"] = str(trace_file)
    print(json.dumps(info, sort_keys=True))
    return {
        "correct": bench.correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not program_present():
        print(f"error: no cfrs sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
