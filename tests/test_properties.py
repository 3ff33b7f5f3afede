"""Property-based invariants over small random systems (derandomized, so the
suite stays deterministic)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cfrs
from cfrs import closed_form as cf
from cfrs import montecarlo as mc


@st.composite
def systems(draw):
    """(config, network, pilots, phases, statistics, terms) of a small
    system: L, K <= 5, N <= 2, tau_p <= K, either correlation, and each
    oscillator variance zero or not."""
    K = draw(st.integers(1, 5))
    correlation = draw(st.sampled_from(cfrs.model.CORRELATION_MODELS))
    cfg = cfrs.SystemConfig(
        L=draw(st.integers(1, 5)), K=K, N=draw(st.integers(1, 2)),
        tau_p=draw(st.integers(1, K)), tau_c=20, seed=draw(st.integers(0, 2**16)),
        correlation=correlation,
        corr_r=draw(st.floats(-0.9, 0.9)) if correlation == "exponential" else 0.0)
    variance = st.one_of(st.just(0.0), st.floats(1e-5, 1e-1))
    phases = cfrs.PhaseStatistics(draw(variance), draw(variance))
    net = cfrs.build_network(cfg)
    pilots = cfrs.assign_pilots(cfg.K, cfg.tau_p)
    stats = cfrs.estimation_statistics(net, pilots, phases, cfg)
    return cfg, net, pilots, phases, stats, cfrs.TraceTerms.compute(net, stats, pilots)


plan_specs = st.tuples(st.sampled_from(cf.PRIVATE_SCHEMES), st.sampled_from(cf.TRANSMISSIONS),
                       st.sampled_from([0.0, 0.3, 1.0]))


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(setup=systems(), specs=st.lists(plan_specs, min_size=2, max_size=4),
       count=st.integers(mc.MIN_REALIZATIONS, 400))
def test_a_batchs_sums_do_not_depend_on_workers_or_company(setup, specs, count):
    # several short RNG chunks and 64-realization slices, so two workers
    # share the chunks and precoders take turns within each slice
    cfg, net, pilots, phases, stats, terms = setup
    plans = [cf.make_plan(terms, *spec) for spec in specs]
    instants = [cfg.estimation_instant + 2, cfg.tau_c]

    def sums(plans, workers):
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(mc, "RNG_CHUNK", 128)
            patched.setattr(mc, "_WORK_ELEMENTS", 1)
            patched.setattr(mc, "_CPUS", workers)
            batch = cfrs.sample_batch(net, pilots, stats, phases, cfg, count, seed=4,
                                      instants=instants, plans=plans)
        return [s.rows() for _, s in batch.declared]

    serial = sums(plans, 1)
    for together, apart in zip(serial, sums(plans, 2)):
        for a, b in zip(together, apart):
            assert np.array_equal(a, b)
    for plan, together in zip(plans, serial):
        (alone,) = sums([plan], 1)
        for a, b in zip(together, alone):
            assert np.array_equal(a, b)
