"""Span tracing for the cfrs benchmark's traced run, from outside the package.

Each public function is wrapped at the name its callers look it up by, so
the package itself is unchanged.  Spans (name, start, end, parent) are kept
in memory and written out when the run ends; self time is a span's duration
minus the durations of its direct children (calls in one thread never
overlap, so their durations add up).

Which end-to-end metric each layer metric should move, and where:

* ``cli.*``: ``cli.estimations_per_input`` (estimation calls per distinct
  topology, phase statistics and config; 2.0 on both sweeps today) and
  ``cli.self_s`` move ``wall_s`` on ``sweep-default``.
* ``model.*`` and ``estimation.*``: ``op_p50_ms`` on ``sweep-default``;
  ``estimation.q_cross_mb`` moves ``peak_rss_mb`` on ``sweep-large``.
* ``closed_form.*``: ``wall_s`` on ``sweep-large``.
* ``optimize.*``: ``wall_s`` on both sweeps (22 evaluations per search today).
* ``montecarlo.*``: ``wall_s`` and ``peak_rss_mb`` on ``validate-desk``, and
  nothing on the sweeps.
* ``trace.overhead_frac``: traced ``wall_s`` / untraced ``wall_s`` - 1.

Sizes (``*_mb``) are computed from the arrays the package returns, not
measured memory.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time

import numpy as np

MIB = 2.0 ** 20


def _arrays(obj, depth: int = 2):
    """The numpy arrays held by ``obj`` directly or in its fields / items."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif depth > 0:
        if isinstance(obj, dict):
            values = obj.values()
        elif isinstance(obj, (list, tuple)):
            values = obj
        else:
            values = getattr(obj, "__dict__", {}).values()
        for value in values:
            yield from _arrays(value, depth - 1)


def _mib(obj) -> float:
    return sum(a.nbytes for a in _arrays(obj)) / MIB


class Tracer:
    """Records spans and counters while its patches are installed."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.rho_evals = 0
        self.estimation_inputs: set[str] = set()
        self.q_cross_mib = 0.0
        self.q_cross_nonzero = [0, 0]  # nonzero entries, entries
        self.tr_qcr_mib = 0.0
        self.batch_mib = 0.0
        self.samples = 0

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter() - self.t0, None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter() - self.t0

    def wrap(self, owner, attr: str, name: str, before=None, after=None):
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``before(arguments)`` may replace bound arguments; ``after(arguments,
        result)`` updates counters once the span has ended.  Missing
        attributes are skipped, so a later refactor that removes a function
        reads as zero calls instead of breaking the run.
        """
        if not hasattr(owner, attr):
            return
        original = inspect.getattr_static(owner, attr)
        target = getattr(owner, attr)
        sig = inspect.signature(target)
        tracer = self

        @functools.wraps(target)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            if before is not None:
                before(bound.arguments)
            with tracer.span(name):
                result = target(*bound.args, **bound.kwargs)
            if after is not None:
                after(bound.arguments, result)
            return result

        wrapper = staticmethod(traced) if isinstance(original, (classmethod, staticmethod)) else traced
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self):
        """Wrap the public functions of every cfrs layer."""
        from cfrs import cli, closed_form, montecarlo, optimize

        def count_evals(arguments):
            evaluator = arguments.get("evaluator")
            if evaluator is None:
                return

            def counted(rho):
                self.rho_evals += 1
                return evaluator(rho)

            arguments["evaluator"] = counted

        def estimation_done(arguments, stats):
            self.estimation_inputs.add(repr((arguments.get("phases"), arguments.get("config"))))
            q_cross = getattr(stats, "Q_cross", None)
            self.q_cross_mib = max(self.q_cross_mib, _mib(q_cross))
            for a in _arrays(q_cross):
                self.q_cross_nonzero[0] += int(np.count_nonzero(a))
                self.q_cross_nonzero[1] += a.size

        def terms_done(arguments, terms):
            self.tr_qcr_mib = max(self.tr_qcr_mib, _mib(getattr(terms, "tr_QcR", None)))

        def batch_done(arguments, batch):
            self.batch_mib = max(self.batch_mib, _mib(batch))

        def mc_done(arguments, result):
            count = getattr(arguments.get("batch"), "count", 0)
            self.samples += count * np.atleast_1d(arguments.get("n", ())).size

        self.wrap(cli, "build_network", "model.build_network")
        self.wrap(cli, "estimation_statistics", "estimation.estimation_statistics",
                  after=estimation_done)
        self.wrap(cli, "evaluate_plan", "closed_form.evaluate_plan")
        self.wrap(closed_form.TraceTerms, "compute", "closed_form.trace_terms", after=terms_done)
        self.wrap(closed_form, "private_sinr", "closed_form.private_sinr")
        self.wrap(closed_form, "common_sinr", "closed_form.common_sinr")
        self.wrap(optimize, "optimal_rho", "optimize.optimal_rho", before=count_evals)
        self.wrap(montecarlo, "sample_batch", "montecarlo.sample_batch", after=batch_done)
        self.wrap(montecarlo, "mc_sinr", "montecarlo.mc_sinr", after=mc_done)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _totals(self):
        """Per span name: (calls, busy seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, list] = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            t = totals.setdefault(name, [0, 0.0, 0.0])
            t[0] += 1
            t[1] += end - start
            t[2] += end - start - inner
        return totals

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit)."""
        totals = self._totals()

        def calls(name):
            return totals.get(name, [0, 0.0, 0.0])[0]

        def busy(name):
            return totals.get(name, [0, 0.0, 0.0])[1]

        def own(name):
            return totals.get(name, [0, 0.0, 0.0])[2]

        def ratio(a, b):
            return a / b if b else 0.0

        n_est = calls("estimation.estimation_statistics")
        n_rho = calls("optimize.optimal_rho")
        return {
            "cli.run_experiment.busy_s": (busy("cli.run_experiment"), "s"),
            "cli.validate_families.busy_s": (busy("cli.validate_families"), "s"),
            "cli.self_s": (own("cli.run_experiment") + own("cli.validate_families"), "s"),
            "cli.estimations_per_input": (ratio(n_est, len(self.estimation_inputs)), "ratio"),
            "model.build_network.calls": (calls("model.build_network"), "count"),
            "model.build_network.busy_s": (busy("model.build_network"), "s"),
            "estimation.estimation_statistics.calls": (n_est, "count"),
            "estimation.estimation_statistics.busy_s": (
                busy("estimation.estimation_statistics"), "s"),
            "estimation.q_cross_mb": (self.q_cross_mib, "MiB"),
            "estimation.q_cross_nonzero_frac": (ratio(*self.q_cross_nonzero), "ratio"),
            "closed_form.trace_terms.calls": (calls("closed_form.trace_terms"), "count"),
            "closed_form.trace_terms.busy_s": (busy("closed_form.trace_terms"), "s"),
            "closed_form.tr_qcr_mb": (self.tr_qcr_mib, "MiB"),
            "closed_form.evaluate_plan.calls": (calls("closed_form.evaluate_plan"), "count"),
            "closed_form.evaluate_plan.busy_s": (busy("closed_form.evaluate_plan"), "s"),
            "closed_form.sinr.busy_s": (
                busy("closed_form.private_sinr") + busy("closed_form.common_sinr"), "s"),
            "optimize.optimal_rho.calls": (n_rho, "count"),
            "optimize.optimal_rho.evals_per_call": (ratio(self.rho_evals, n_rho), "count"),
            "optimize.optimal_rho.self_s": (own("optimize.optimal_rho"), "s"),
            "montecarlo.sample_batch.calls": (calls("montecarlo.sample_batch"), "count"),
            "montecarlo.sample_batch.busy_s": (busy("montecarlo.sample_batch"), "s"),
            "montecarlo.batch_mb": (self.batch_mib, "MiB"),
            "montecarlo.mc_sinr.calls": (calls("montecarlo.mc_sinr"), "count"),
            "montecarlo.mc_sinr.busy_s": (busy("montecarlo.mc_sinr"), "s"),
            "montecarlo.samples_per_s": (ratio(self.samples, busy("montecarlo.mc_sinr")), "1/s"),
        }
