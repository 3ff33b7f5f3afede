"""Property-based invariants over small random systems (derandomized, so the
suite stays deterministic)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cfrs
from cfrs import closed_form as cf
from cfrs import montecarlo as mc
from cfrs import optimize as opt


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


@st.composite
def job_stacks(draw):
    """(configs, phases, terms) of 1-5 jobs on one small system (L, K <= 6,
    N <= 3, tau_p <= K, either correlation) that differ in oscillator
    variance, downlink power or antenna count; jobs with one N share one
    network draw, as the jobs of a sweep's repetition do."""
    K = draw(st.integers(1, 6))
    correlation = draw(st.sampled_from(cfrs.model.CORRELATION_MODELS))
    tau_p = draw(st.integers(1, K))
    base = cfrs.SystemConfig(
        L=draw(st.integers(1, 6)), K=K, N=1, tau_p=tau_p,
        tau_c=draw(st.integers(tau_p + 1, 30)), seed=draw(st.integers(0, 2**16)),
        correlation=correlation,
        corr_r=draw(st.floats(-0.9, 0.9)) if correlation == "exponential" else 0.0)
    pilots = cfrs.assign_pilots(K, tau_p)
    networks, configs, phases, terms = {}, [], [], []
    for _ in range(draw(st.integers(1, 5))):
        cfg = dataclasses.replace(base, N=draw(st.integers(1, 3)),
                                  p_d=draw(st.floats(0.01, 1.0)))
        variance = draw(st.one_of(st.just(0.0), st.floats(1e-5, 1e-1)))
        phase = cfrs.PhaseStatistics(variance, variance)
        net = networks.setdefault(cfg.N, cfrs.build_network(cfg))
        stats = cfrs.estimation_statistics(net, pilots, phase, cfg)
        configs.append(cfg)
        phases.append(phase)
        terms.append(cfrs.TraceTerms.compute(net, stats, pilots))
    return configs, phases, terms


def assert_same(stacked, one):
    """A stacked job's array equals its own call's, bit for bit, where
    one of them is broadcast to the other (a per-UE row, a float)."""
    a, b = np.broadcast_arrays(stacked, one)
    assert a.shape == np.shape(stacked) and np.array_equal(a, b)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(jobs=job_stacks(), rho=st.sampled_from([0.0, 0.37, 1.0]))
def test_a_job_stack_computes_each_jobs_numbers_as_its_own_call_does(jobs, rho):
    configs, phases, terms = jobs
    ns = configs[0].data_instants()
    tau_c = configs[0].tau_c
    stacks, searches = [], []
    for scheme in cf.PRIVATE_SCHEMES:
        for transmission in cf.TRANSMISSIONS:
            plans = [cf.make_plan(t, scheme, transmission) for t in terms]
            stacked = cf.TraceTerms.stack(terms)
            stack = cf.plan_parts(stacked, cf.make_plan(stacked, scheme, transmission),
                                  phases, configs, ns)
            alone = [cf.plan_parts(*job, ns) for job in zip(terms, plans, phases, configs)]
            for b, parts in enumerate(alone):
                for field in dataclasses.fields(cf.PlanParts):
                    # every field of a stack has its job axis at -2
                    assert_same(np.take(getattr(stack, field.name), b, axis=-2),
                                getattr(parts, field.name))
            rhos = np.full(len(terms), rho)
            curve = cf.sum_se_curve(stack, tau_c)(rhos)
            best_rho, best_sse = opt.optimal_rho(cf.sum_se_curve(stack, tau_c))
            report = cf.se_report(stack, best_rho, tau_c)
            for b, parts in enumerate(alone):
                assert curve[b] == cf.sum_se_curve(parts, tau_c)(rho)
                assert (best_rho[b], best_sse[b]) == opt.optimal_rho(
                    cf.sum_se_curve(parts, tau_c))
                one = cf.se_report(parts, float(best_rho[b]), tau_c)
                for field in dataclasses.fields(cf.SEReport):
                    assert_same(getattr(report.job(b), field.name), getattr(one, field.name))
            stacks.append(stack)
            searches.append((best_rho, best_sse))
    # one search over every scheme's jobs, coherent and non-coherent
    # mixed, finds what each scheme's own search finds
    mixed_rho, mixed_sse = opt.optimal_rho(cf.sum_se_curve(cf.PlanParts.stack(stacks), tau_c))
    assert np.array_equal(mixed_rho, np.concatenate([r for r, _ in searches]))
    assert np.array_equal(mixed_sse, np.concatenate([s for _, s in searches]))


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(jobs=job_stacks(), alpha=st.sampled_from([None, -1.0, 0.5]), spec=plan_specs)
def test_a_stacked_plan_is_each_jobs_own_plan_and_keeps_every_ap_in_budget(jobs, alpha, spec):
    # one make_plan for a stack of jobs makes each job's own plan, bit for
    # bit; every simple-weights plan spends at most unit power per AP on
    # each stream: sum_k mu tr_Q privately, common_power * eta in common
    _, _, terms = jobs

    def plan(t):
        made = cf.make_plan(t, *spec)
        if alpha is None:
            return made
        return dataclasses.replace(made, mu=cf.power_control_coefficients(t, alpha))

    stack = plan(cf.TraceTerms.stack(terms))
    for b, t in enumerate(terms):
        own = plan(t)
        cut = stack.job(b)
        assert (cut.private_scheme, cut.transmission, cut.rho) == spec
        for name in ("weights", "mu", "eta"):
            assert np.array_equal(getattr(cut, name), getattr(own, name))
        assert np.all((own.mu * t.tr_Q).sum(axis=0) <= 1 + 1e-12)
        assert np.all(cf.common_power(t, own.weights) * own.eta <= 1 + 1e-12)


@st.composite
def polynomial_stacks(draw):
    """(coefficients, constant): the (degree + 1, B) coefficients of B
    polynomials of degree <= 4 on 1 <= B <= 6 lanes, highest power first,
    and which lanes are constant (every coefficient but the last zero)."""
    B, degree = draw(st.integers(1, 6)), draw(st.integers(0, 4))
    coefficients = np.array([[draw(st.floats(-10.0, 10.0)) for _ in range(B)]
                             for _ in range(degree + 1)])
    constant = np.array([degree == 0 or draw(st.booleans()) for _ in range(B)])
    coefficients[:-1, constant] = 0.0
    return coefficients, constant


def recorded_polynomial(coefficients, calls):
    """The polynomial curve of ``coefficients`` by Horner's rule, which
    appends each split it is evaluated at to ``calls``.  Products and sums
    round alike on arrays and on scalars, so each lane of a stack's value
    is bitwise its own curve's."""

    def curve(rho):
        calls.append(rho)
        value = coefficients[0]
        for c in coefficients[1:]:
            value = value * rho + c
        return value

    return curve


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(stack=polynomial_stacks())
def test_a_lockstep_rho_search_finds_each_curves_own_split(stack):
    coefficients, constant = stack
    B = coefficients.shape[1]
    calls = []
    rho, value = opt.optimal_rho(recorded_polynomial(coefficients, calls))
    assert type(calls[0]) is float and calls[0] == 0.0
    assert len(calls) == 22 and all(np.shape(r) == (B,) for r in calls[1:])
    assert rho.shape == value.shape == (B,)
    for b in range(B):
        alone = []
        own = opt.optimal_rho(recorded_polynomial(coefficients[:, b].tolist(), alone))
        assert type(alone[0]) is float and alone[0] == 0.0
        assert len(alone) == 22 and all(np.shape(r) == () for r in alone[1:])
        assert all(type(x) is float for x in own)
        assert (rho[b], value[b]) == own
    # a tie keeps the earlier split, so a constant curve keeps rho = 0
    assert np.all(rho[constant] == 0.0)
