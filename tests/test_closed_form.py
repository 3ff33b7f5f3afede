import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

import cfrs
from cfrs import closed_form as cf
from cfrs import optimize as opt

from conftest import (
    dense_R,
    per_link_statistics,
    per_set_y,
    random_instance,
    random_template,
    uneven_pilots,
)


def tiny_terms(tr_q: float = 2.0):
    """Hand-built single-link, single-antenna trace terms for scalar identities."""
    one = np.ones((1, 1))
    return cf.TraceTerms(
        x=one,
        s2=tr_q * one,
        s3=tr_q * one,
        tr_Q=tr_q * one,
        tr_QT=tr_q * one,
        theta=np.ones((1, 1), dtype=complex),
        pilots=cfrs.assign_pilots(1, 1),
        beta=1.5 * one,  # R = 1.5 T, so tr(Q R) = tr(Qc R) = 1.5 tr_q
        # x = 1, so tr(Q) = tr(Qc) = s2 and tr(Q T) = tr(Qc T) = s3
    )


# ---------------------------------------------------------------------------
# normalizations and power control
# ---------------------------------------------------------------------------

def test_private_normalization_single_ue():
    terms = tiny_terms(tr_q=2.0)
    assert cf.private_normalization(terms)[0] == pytest.approx(0.5)


def test_private_normalization_homogeneity():
    base = cf.private_normalization(tiny_terms(2.0))[0]
    scaled = cf.private_normalization(tiny_terms(6.0))[0]
    assert scaled == pytest.approx(base / 3.0)


def test_private_normalization_monte_carlo(desk, desk_arrays):
    cfg, net, _, _, _, terms = desk
    mu = cf.private_normalization(terms)
    v = net.theta[:, :, None, None] * desk_arrays.hhat
    total = np.mean(np.sum(np.abs(v) ** 2, axis=(0, 2)), axis=-1)  # (L,)
    assert np.allclose(mu * total, 1.0, rtol=0.01)


def test_common_normalization_single_ue():
    terms = tiny_terms(2.0)
    a = np.array([[3.0]])
    eta = cf.common_normalization(terms, a)
    assert eta[0] == pytest.approx(1.0 / (9.0 * 2.0))


def test_common_normalization_orthogonal_equals_private(desk):
    # orthogonal pilots: the all-ones common precoder has the private power
    cfg = cfrs.SystemConfig(L=3, K=2, N=2, tau_p=2, tau_c=20, seed=5)
    net = cfrs.build_network(cfg)
    pilots = cfrs.PilotAssignment(t=np.array([1, 2]), tau_p=2)
    phases = cfrs.PhaseStatistics(1e-4, 1e-4)
    stats = cfrs.estimation_statistics(net, pilots, phases, cfg)
    terms = cf.TraceTerms.compute(net, stats, pilots)
    eta = cf.common_normalization(terms, np.ones((2, 3)))
    assert np.allclose(eta, cf.private_normalization(terms), rtol=1e-12)


def test_common_normalization_monte_carlo(desk, desk_arrays):
    cfg, net, _, _, _, terms = desk
    a = np.full((cfg.K, cfg.L), 1.0)
    eta = cf.common_normalization(terms, a)
    v = net.theta[:, :, None, None] * desk_arrays.hhat
    v_c = np.einsum("il,ilnr->lnr", a, v)
    total = np.mean(np.sum(np.abs(v_c) ** 2, axis=1), axis=-1)
    assert np.allclose(eta * total, 1.0, rtol=0.01)


def test_power_control_uniform_when_betas_equal():
    stats_terms = dataclasses.replace(tiny_terms(), tr_Q=np.full((3, 5), 2.0),
                                      beta=np.full((3, 5), 1e-9))
    mu = cf.power_control_coefficients(stats_terms, alpha=-1.0)
    assert np.allclose(mu, mu[0:1, :])  # identical for every UE
    assert np.allclose(mu[0], 1.0 / (3 * 2.0))


def test_power_control_alpha_zero_is_uniform(desk):
    cfg, net, _, _, _, terms = desk
    mu = cf.power_control_coefficients(terms, alpha=0.0)
    assert np.allclose(mu, mu[0:1, :])


def test_power_control_unit_power_identity(desk):
    cfg, net, _, _, _, terms = desk
    mu = cf.power_control_coefficients(terms, alpha=-1.0)
    assert np.allclose(np.einsum("kl,kl->l", mu, terms.tr_Q), 1.0, rtol=1e-12)


# ---------------------------------------------------------------------------
# SINR family identities
# ---------------------------------------------------------------------------

def test_df_equals_du_bitwise_when_delays_vanish(desk):
    cfg, net, pilots, phases, stats, _ = desk
    unit = dataclasses.replace(net, theta=np.ones_like(net.theta))
    terms = cf.TraceTerms.compute(unit, stats, pilots)
    ns = cfg.data_instants()
    for transmission in cf.TRANSMISSIONS:
        du = cf.make_plan(terms, "du_mr", transmission, 0.4)
        df = cf.make_plan(terms, "df_mr", transmission, 0.4)
        du_sinrs = cf.assemble(cf.plan_parts(terms, du, phases, cfg, ns), 0.4)
        df_sinrs = cf.assemble(cf.plan_parts(terms, df, phases, cfg, ns), 0.4)
        for du_sinr, df_sinr in zip(du_sinrs, df_sinrs):  # private, then common
            assert np.array_equal(du_sinr, df_sinr)


def test_noncoherent_private_identical_for_du_and_df(desk):
    cfg, net, pilots, phases, stats, terms = desk
    ns = cfg.data_instants()
    du = cf.make_plan(terms, "du_mr", "noncoherent", 0.3)
    df = cf.make_plan(terms, "df_mr", "noncoherent", 0.3)
    assert np.array_equal(
        cf.assemble(cf.plan_parts(terms, du, phases, cfg, ns), 0.3)[0],
        cf.assemble(cf.plan_parts(terms, df, phases, cfg, ns), 0.3)[0],
    )


def test_du_coherent_private_invariant_under_delay_redraws(desk):
    cfg, net, pilots, phases, stats, terms = desk
    ns = cfg.data_instants()
    plan = cf.make_plan(terms, "du_mr", "coherent", 0.2)
    reference = cf.assemble(cf.plan_parts(terms, plan, phases, cfg, ns), 0.2)[0]
    rng = np.random.default_rng(99)
    for _ in range(3):
        rand_theta = np.exp(2j * np.pi * rng.random(net.theta.shape))
        shuffled = dataclasses.replace(terms, theta=rand_theta)
        again = cf.assemble(cf.plan_parts(shuffled, plan, phases, cfg, ns), 0.2)[0]
        assert np.array_equal(reference, again)


def test_single_ap_noncoherent_collapses_to_coherent():
    cfg = cfrs.SystemConfig(L=1, K=3, N=2, tau_p=2, tau_c=25, seed=21)
    net = cfrs.build_network(cfg)
    pilots = cfrs.assign_pilots(cfg.K, cfg.tau_p)
    phases = cfrs.PhaseStatistics(2e-3, 1e-3)
    stats = cfrs.estimation_statistics(net, pilots, phases, cfg)
    terms = cf.TraceTerms.compute(net, stats, pilots)
    ns = cfg.data_instants()
    for rho in (0.0, 0.4):
        co = cf.make_plan(terms, "du_mr", "coherent", rho)
        nc = cf.make_plan(terms, "du_mr", "noncoherent", rho)
        co_sinrs = cf.assemble(cf.plan_parts(terms, co, phases, cfg, ns), rho)
        nc_sinrs = cf.assemble(cf.plan_parts(terms, nc, phases, cfg, ns), rho)
        for co_sinr, nc_sinr in zip(co_sinrs, nc_sinrs):  # private, then common
            assert np.allclose(co_sinr, nc_sinr, rtol=1e-12)


def test_sinrs_nonnegative_and_decreasing_in_time():
    rng = np.random.default_rng(17)
    for _ in range(10):
        cfg, net, pilots, _, stats, terms = random_instance(rng)
        phases = cfrs.PhaseStatistics(5e-4, 8e-4)  # strictly positive drift
        stats = cfrs.estimation_statistics(net, pilots, phases, cfg)
        terms = cf.TraceTerms.compute(net, stats, pilots)
        ns = cfg.data_instants()
        for scheme in cf.PRIVATE_SCHEMES:
            for transmission in cf.TRANSMISSIONS:
                plan = cf.make_plan(terms, scheme, transmission, 0.5)
                for vals in cf.assemble(cf.plan_parts(terms, plan, phases, cfg, ns), 0.5):
                    assert np.all(vals >= 0)
                    assert np.all(np.diff(vals, axis=1) < 0)


def test_zero_drift_makes_sinr_time_invariant(desk):
    cfg, net, pilots, _, _, _ = desk
    still = cfrs.PhaseStatistics(0.0, 0.0)
    stats = cfrs.estimation_statistics(net, pilots, still, cfg)
    terms = cf.TraceTerms.compute(net, stats, pilots)
    ns = cfg.data_instants()
    for transmission in cf.TRANSMISSIONS:
        plan = cf.make_plan(terms, "df_mr", transmission, 0.4)
        for vals in cf.assemble(cf.plan_parts(terms, plan, still, cfg, ns), 0.4):
            assert np.all(vals == vals[:, :1])


def test_joint_power_noise_scaling_leaves_sinr_unchanged(desk):
    cfg, net, pilots, phases, stats, terms = desk
    ns = cfg.data_instants()
    scaled_cfg = dataclasses.replace(cfg, p_d=cfg.p_d * 37.0, sigma2_dl=cfg.sigma2_dl * 37.0)
    for transmission in cf.TRANSMISSIONS:
        plan = cf.make_plan(terms, "df_mr", transmission, 0.6)
        base = cf.assemble(cf.plan_parts(terms, plan, phases, cfg, ns), 0.6)
        scaled = cf.assemble(cf.plan_parts(terms, plan, phases, scaled_cfg, ns), 0.6)
        for base_sinr, scaled_sinr in zip(base, scaled):  # private, then common
            assert np.allclose(base_sinr, scaled_sinr, rtol=1e-12)


def test_assemble_equals_the_report_of_the_plan_at_rho_exactly():
    rng = np.random.default_rng(5)
    # even co-pilot sets (4 UEs on 2 pilots) and uneven ones (7 UEs on 3
    # pilots: sizes 3, 2, 2, so two stacks)
    for shape in ({"L": 5, "K": 4, "tau_p": 2}, {"L": 4, "K": 7, "tau_p": 3}):
        cfg, net, pilots, phases, stats, terms = random_instance(rng, **shape)
        ns = cfg.data_instants()
        for scheme in cf.PRIVATE_SCHEMES:
            for transmission in cf.TRANSMISSIONS:
                plan = cf.make_plan(terms, scheme, transmission, 0.0)
                parts = cf.plan_parts(terms, plan, phases, cfg, ns)
                curve = cf.sum_se_curve(parts, cfg.tau_c)
                for rho in (0.0, 1e-5, 0.25, 0.5, 0.731, 1.0):
                    report = cf.se_report(
                        cf.plan_parts(terms, plan.replace_rho(rho), phases, cfg, ns), rho,
                        cfg.tau_c)
                    sinr_p, sinr_c = cf.assemble(parts, rho)
                    assert np.array_equal(sinr_p, report.sinr_private)
                    assert np.array_equal(sinr_c, report.sinr_common)
                    assert curve(rho) == report.sum_se


@pytest.mark.parametrize("B", [1, 3])
@pytest.mark.parametrize("K", [1, 2, 8, 32])
def test_a_stack_sums_its_instants_as_the_instant_major_layout_does(K, B):
    # a stack's SINRs are laid out (stream, instant, job, UE), but each SE
    # must be the sum numpy makes over the (..., M, K) layout: in instant
    # order for K >= 2 and pairwise for K = 1, where the instants are
    # contiguous there; the power sweep's per-job p_d rides along
    cfg = cfrs.SystemConfig(L=5, K=K, N=2, tau_p=min(K, 4), tau_c=60, seed=K)
    net = cfrs.build_network(cfg)
    pilots = cfrs.assign_pilots(K, cfg.tau_p)
    configs = [dataclasses.replace(cfg, p_d=0.05 * 3**b) for b in range(B)]
    phases = [cfrs.PhaseStatistics(1e-4 * (b + 1), 2e-4) for b in range(B)]
    terms = cf.TraceTerms.stack([
        cf.TraceTerms.compute(net, cfrs.estimation_statistics(net, pilots, ph, cfg), pilots)
        for ph in phases])
    rho = np.linspace(0.2, 0.7, B)
    for transmission in cf.TRANSMISSIONS:
        plan = cf.make_plan(terms, "df_mr", transmission)
        parts = cf.plan_parts(terms, plan, phases, configs, cfg.data_instants())
        per_instant = [np.log2(1 + np.ascontiguousarray(np.swapaxes(sinr, -1, -2)))
                       for sinr in cf.assemble(parts, rho)]  # (B, M, K)
        se_p, se_c = (t.sum(axis=-2) / cfg.tau_c for t in per_instant)
        report = cf.se_report(parts, rho, cfg.tau_c)
        assert np.array_equal(report.se_private, se_p)
        assert np.array_equal(report.se_common_per_ue, se_c)
        assert np.array_equal(report.sum_se, cf.sum_se(se_p, se_c)[1])
        assert np.array_equal(cf.sum_se_curve(parts, cfg.tau_c)(rho), report.sum_se)


@pytest.mark.parametrize("transmission", cf.TRANSMISSIONS)
@pytest.mark.parametrize("B", [None, 1, 3])
def test_plan_parts_writes_every_coefficient_full_and_c_contiguous(B, transmission):
    # one job's coefficients are (M, K), a stack's (M, B, K), the layout of
    # their SINRs, and so are the stacks that take and stack cut and join
    cfg = cfrs.SystemConfig(L=5, K=3, N=2, tau_p=2, tau_c=30, seed=2)
    net = cfrs.build_network(cfg)
    pilots = cfrs.assign_pilots(cfg.K, cfg.tau_p)
    configs = [dataclasses.replace(cfg, p_d=0.05 * (b + 1)) for b in range(B or 1)]
    phases = [cfrs.PhaseStatistics(1e-4 * (b + 1), 2e-4) for b in range(B or 1)]
    terms = [cf.TraceTerms.compute(net, cfrs.estimation_statistics(net, pilots, ph, cfg), pilots)
             for ph in phases]
    M, K = len(cfg.data_instants()), cfg.K
    if B is None:
        plan = cf.make_plan(terms[0], "df_mr", transmission)
        made = [(cf.plan_parts(terms[0], plan, phases[0], cfg, cfg.data_instants()), (M, K))]
    else:
        stacked = cf.TraceTerms.stack(terms)
        plan = cf.make_plan(stacked, "df_mr", transmission)
        parts = cf.plan_parts(stacked, plan, phases, configs, cfg.data_instants())
        other = cf.plan_parts(stacked, cf.make_plan(stacked, "du_mr", cf.TRANSMISSIONS[0]),
                              phases, configs, cfg.data_instants())
        made = [(parts, (M, B, K)), (parts.take([B - 1, 0]), (M, 2, K)),
                (cf.PlanParts.stack([parts, other]), (M, 2 * B, K))]
    for parts, shape in made:
        for name in ("eaeu", "xi", "sig_private", "sig_common", "gamma"):
            value = getattr(parts, name)
            assert value.shape == shape and value.flags.c_contiguous, (name, value.shape)
        if B is not None:
            assert parts.p_d.shape == parts.sigma2.shape == (shape[1], 1) == (parts.jobs, 1)


def test_a_stack_of_jobs_with_their_own_noise_gives_each_job_its_own_numbers():
    # shared powers are added as floats, per-job ones as (B, 1) columns;
    # either way each job's SINRs and sum SE are those of its own call
    cfg = cfrs.SystemConfig(L=5, K=3, N=2, tau_p=2, tau_c=30, seed=4)
    net = cfrs.build_network(cfg)
    pilots = cfrs.assign_pilots(cfg.K, cfg.tau_p)
    configs = [dataclasses.replace(cfg, p_d=0.05 * (b + 1), sigma2_dl=cfg.sigma2_dl * 3**b)
               for b in range(3)]
    phases = [cfrs.PhaseStatistics(1e-4 * (b + 1), 2e-4) for b in range(3)]
    terms = [cf.TraceTerms.compute(net, cfrs.estimation_statistics(net, pilots, ph, cfg), pilots)
             for ph in phases]
    stacked = cf.TraceTerms.stack(terms)
    rho = np.array([0.2, 0.5, 0.9])
    for transmission in cf.TRANSMISSIONS:
        parts = cf.plan_parts(stacked, cf.make_plan(stacked, "df_mr", transmission), phases,
                              configs, cfg.data_instants())
        sinrs = cf.assemble(parts, rho)
        sse = cf.sum_se_curve(parts, cfg.tau_c)(rho)
        for b in range(3):
            alone = cf.plan_parts(terms[b], cf.make_plan(terms[b], "df_mr", transmission),
                                  phases[b], configs[b], cfg.data_instants())
            for got, want in zip(sinrs, cf.assemble(alone, rho[b])):
                assert np.array_equal(got[b], want)
            assert sse[b] == cf.sum_se_curve(alone, cfg.tau_c)(rho[b])


def test_sum_se_curve_allocates_only_its_two_sinr_buffers():
    # the curve writes in the coefficients' own layout and copies none of them
    cfg = cfrs.SystemConfig(seed=3)
    net = cfrs.build_network(cfg)
    pilots = cfrs.assign_pilots(cfg.K, cfg.tau_p)
    phases = [cfrs.PhaseStatistics(1e-4 * (b + 1), 2e-4) for b in range(4)]
    terms = cf.TraceTerms.stack([
        cf.TraceTerms.compute(net, cfrs.estimation_statistics(net, pilots, ph, cfg), pilots)
        for ph in phases])
    parts = cf.plan_parts(terms, cf.make_plan(terms, "df_mr", "coherent"), phases,
                          [cfg] * len(phases), cfg.data_instants())
    buffers = 2 * 2 * parts.xi.nbytes  # two (2, M, B, K) arrays
    rho = np.full(len(phases), 0.4)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        curve = cf.sum_se_curve(parts, cfg.tau_c)
        peak = tracemalloc.get_traced_memory()[1]
        curve(rho)  # a call's numpy temporaries are freed again
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert peak - before <= buffers + 8192
    assert held - before <= buffers + 8192


def test_sum_se_curve_checks_its_inputs(desk):
    cfg, _, _, phases, _, terms = desk
    plan = cf.make_plan(terms, "du_mr", "coherent", 0.0)
    parts = cf.plan_parts(terms, plan, phases, cfg, cfg.data_instants())
    curve = cf.sum_se_curve(parts, cfg.tau_c)
    for rho in (-0.1, 1.5):
        with pytest.raises(ValueError, match="rho"):
            curve(rho)
    # coefficients that make a SINR negative are rejected, as by se_report
    bad = cf.sum_se_curve(dataclasses.replace(parts, sig_common=-parts.sig_common),
                          cfg.tau_c)
    assert bad(0.0) == curve(0.0)  # no common stream at rho = 0
    with pytest.raises(ValueError, match="SINR"):
        bad(0.5)


def test_se_report_and_curve_both_reject_a_nan_sinr(desk):
    cfg, _, _, phases, _, terms = desk
    plan = cf.make_plan(terms, "du_mr", "coherent", 0.0)
    parts = cf.plan_parts(terms, plan, phases, cfg, cfg.data_instants())
    for name in ("sig_private", "sig_common", "xi", "gamma"):
        bad = dataclasses.replace(parts, **{name: np.full_like(getattr(parts, name), np.nan)})
        with pytest.raises(ValueError, match="SINR"):
            cf.se_report(bad, 0.5, cfg.tau_c)
        with pytest.raises(ValueError, match="SINR"):
            cf.sum_se_curve(bad, cfg.tau_c)(0.5)


def test_blocked_tr_qcr_matches_dense_einsum():
    # uneven co-pilot groups: K = 7 UEs on 3 pilots gives sizes 3, 2, 2
    rng = np.random.default_rng(8)
    cfg, net, _, phases, _, _ = random_instance(rng, L=4, K=7, N=3, tau_p=3)
    # distinct gains and a generic complex template with distinct eigenvalues,
    # so that no transpose, conjugate or swapped gain cancels
    net = dataclasses.replace(net, beta=10 ** rng.uniform(-10, -8, net.beta.shape),
                              template=random_template(rng, cfg.N))
    R = dense_R(net)
    w = rng.uniform(0, 1, (cfg.K, cfg.L)) * np.conj(net.theta)
    eta = rng.uniform(0.5, 2, cfg.L)
    for policy in ("round_robin", "random"):
        pilots = uneven_pilots(policy)
        assert np.bincount(pilots.set_of).tolist() == [2, 2, 3]
        if policy == "random":
            # instant order differs from first-member order, so a block
            # paired with a re-derived group order lands on the wrong UEs
            firsts = [np.flatnonzero(pilots.t == inst)[0] for inst in np.unique(pilots.t)]
            assert firsts != sorted(firsts)
        stats = cfrs.estimation_statistics(net, pilots, phases, cfg)
        terms = cf.TraceTerms.compute(net, stats, pilots)
        _, Q, Q_cross, _ = per_link_statistics(net, pilots, phases, cfg)
        # the private traces: tr(Q) and tr(Q[i,l] R[k,l]) = beta[k,l] tr(Q[i,l] T)
        tr_Q = np.einsum("klnn->kl", Q).real
        assert np.max(np.abs(terms.tr_Q - tr_Q)) <= 1e-12 * np.max(np.abs(tr_Q))
        tr_QR = np.einsum("ilab,klba->ikl", Q, R).real
        got = terms.beta[None] * terms.tr_QT[:, None]
        assert np.max(np.abs(got - tr_QR)) <= 1e-12 * np.max(np.abs(tr_QR))
        dense = np.einsum("ijlab,klba->ijkl", Q_cross, R)
        # tr(Q_cross[i,j,l] R[k,l]) = beta[k,l] x[i,l] x[j,l] s3[P_i,l] on co-pilot pairs
        copilot = (pilots.t[:, None] == pilots.t[None, :])[:, :, None, None]
        x, of = terms.x, pilots.set_of
        got = (copilot * (x * terms.s3[of])[:, None, None] * x[None, :, None]
               * terms.beta[None, None])
        assert np.max(np.abs(got - dense.real)) <= 1e-12 * np.max(np.abs(dense.real))
        tr_Qc = np.einsum("kilnn->kil", Q_cross)
        got = copilot[..., 0] * (x * terms.s2[of])[:, None] * x[None]
        assert np.max(np.abs(got - tr_Qc)) <= 1e-12 * np.max(np.abs(tr_Qc))
        # the max-min program's a'M_k a, sum_l beta[k,l] sum_P (s3/s2)[P,l] y[P,l]^2
        # in its per-set variables, against the dense blocks
        problem = opt.build_maxmin_problem(terms, phases, cfg, rho=0.5)
        a = rng.uniform(0, 1, (cfg.K, cfg.L))
        m_dense = np.einsum("ijkl,il,jl->k", dense.real, a, a)
        y = per_set_y(problem, a)
        m = np.sum(terms.beta * np.sum(problem.ratio * y * y, axis=0), axis=1)
        assert np.max(np.abs(m - m_dense)) <= 1e-12 * np.max(np.abs(m_dense))
        cross_dense = np.einsum("l,il,jl,ijkl->k", eta, np.conj(w), w, dense).real
        # without drift (ea = eu = 1) the DF non-coherent common interference
        # is the cross term alone, with w = weights * conj(theta)
        plan = cf.PrecodingPlan("df_mr", "noncoherent", 0.5, weights=np.abs(w),
                                mu=np.ones((cfg.K, cfg.L)), eta=eta)
        still = cfrs.PhaseStatistics(0.0, 0.0)
        cross = cf.plan_parts(terms, plan, still, cfg, cfg.estimation_instant).gamma[0]
        assert np.max(np.abs(cross - cross_dense)) <= 1e-12 * np.max(np.abs(cross_dense))


@pytest.mark.parametrize("policy", ["round_robin", "random"])
def test_copilot_traces_are_rank_one_in_the_factors(policy):
    # for co-pilot k and i, tr(Q_cross[k,i,l]) = x[k,l] x[i,l] s2[P_k,l] and
    # tr(Q_cross[k,i,l] T) = x[k,l] x[i,l] s3[P_k,l], against the per-link
    # dense reference, with per-UE pilot powers, drift, uneven sets (3, 2, 2)
    # and a generic complex template with distinct eigenvalues
    rng = np.random.default_rng(41)
    cfg, net, _, phases, _, _ = random_instance(rng, L=4, K=7, N=3, tau_p=3)
    cfg = dataclasses.replace(cfg, p_pilot=tuple(rng.uniform(0.05, 0.2, cfg.K)))
    net = dataclasses.replace(net, beta=10 ** rng.uniform(-10, -8, net.beta.shape),
                              template=random_template(rng, cfg.N))
    pilots = uneven_pilots(policy)
    assert np.bincount(pilots.set_of).tolist() == [2, 2, 3]
    assert phases.var_sum > 0
    stats = cfrs.estimation_statistics(net, pilots, phases, cfg)
    terms = cf.TraceTerms.compute(net, stats, pilots)
    _, Q, Q_cross, _ = per_link_statistics(net, pilots, phases, cfg)
    copilot = (pilots.t[:, None] == pilots.t[None, :])[:, :, None]
    pair = terms.x[:, None] * terms.x[None]  # (K, K, L)
    for ref, s in ((np.einsum("kilnn->kil", Q_cross), terms.s2),
                   (np.einsum("kilab,ba->kil", Q_cross, net.template), terms.s3)):
        got = copilot * pair * s[pilots.set_of][:, None]
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    # the diagonal gives the private traces
    for got, ref in ((terms.tr_Q, np.einsum("klnn->kl", Q)),
                     (terms.tr_QT, np.einsum("klab,ba->kl", Q, net.template))):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def dense_plan_parts(net, Q, Q_cross, plan, ea, eu):
    """Reference: a plan's rho-independent coefficients from the dense
    (K, L, N, N) Q and (K, K, L, N, N) Q_cross of ``per_link_statistics``,
    summed over every UE pair, co-pilot or not."""
    R = dense_R(net)
    tr_Q = np.einsum("klnn->kl", Q).real
    tr_QR = np.einsum("ilab,klba->ikl", Q, R).real
    tr_Qc = np.einsum("kilnn->kil", Q_cross).real
    tr_QcR = np.einsum("ijlab,klba->ijkl", Q_cross, R)
    theta = np.ones_like(net.theta) if plan.private_scheme == "du_mr" else net.theta
    mu, eta = plan.mu, plan.eta
    total = np.einsum("il,ikl->k", mu, tr_QR)
    percontam = np.einsum("il,kil->k", mu, tr_Qc**2)
    w = plan.weights * np.conj(theta)
    per_ap = np.einsum("il,kil->kl", w, tr_Qc)
    gain_unc = np.einsum("l,kl->k", eta, np.abs(per_ap) ** 2)
    cross = np.einsum("l,il,jl,ijkl->k", eta, np.conj(w), w, tr_QcR).real
    if plan.transmission == "coherent":
        sq = np.conj(theta) * np.sqrt(mu)
        coherent = np.sum(np.abs(np.einsum("il,kil->ki", sq, tr_Qc)) ** 2, axis=1)
        sig_common = np.abs(np.einsum("kl,l->k", per_ap, np.sqrt(eta))) ** 2
        return {
            "xi": total + (1 - ea)[:, None] * percontam + ea[:, None] * coherent,
            "sig_private": np.abs(np.einsum("kl,kl->k", sq, tr_Q)) ** 2,
            "sig_common": sig_common,
            "gamma": ((1 - ea)[:, None] * gain_unc + cross
                      + (ea * (1 - eu))[:, None] * sig_common),
        }
    return {
        "xi": (total + percontam)[None],
        "sig_private": np.einsum("kl,kl->k", mu, tr_Q**2),
        "sig_common": gain_unc,
        "gamma": cross + (1 - ea * eu)[:, None] * gain_unc,
    }


def test_copilot_blocks_match_dense_references_on_uneven_groups():
    # K = 7 UEs on 3 pilots: sizes 3, 2, 2, and under the random policy
    # groups whose instant order differs from their first members' order,
    # so a block contracted with another set's rows lands on the wrong UEs
    rng = np.random.default_rng(23)
    cfg, net, _, phases, _, _ = random_instance(rng, L=4, K=7, N=3, tau_p=3)
    net = dataclasses.replace(net, beta=10 ** rng.uniform(-10, -8, net.beta.shape),
                              template=random_template(rng, cfg.N))
    weights = rng.uniform(0.1, 1.0, (cfg.K, cfg.L))
    ns = cfg.data_instants()
    ea, eu = cf.decay_pair(phases, cfg, ns)

    def close(got, ref):
        return np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    for policy in ("round_robin", "random"):
        pilots = uneven_pilots(policy)
        assert np.bincount(pilots.set_of).tolist() == [2, 2, 3]
        stats = cfrs.estimation_statistics(net, pilots, phases, cfg)
        terms = cf.TraceTerms.compute(net, stats, pilots)
        _, Q, Q_cross, _ = per_link_statistics(net, pilots, phases, cfg)
        tr_Qc = np.einsum("kilnn->kil", Q_cross).real
        eta = 1.0 / np.einsum("kl,il,kil->l", weights, weights, tr_Qc)
        assert close(cf.common_normalization(terms, weights), eta)
        for scheme in cf.PRIVATE_SCHEMES:
            for transmission in cf.TRANSMISSIONS:
                plan = dataclasses.replace(
                    cf.make_plan(terms, scheme, transmission, 0.3, weights=weights),
                    mu=cf.power_control_coefficients(terms, alpha=-1.0))
                parts = cf.plan_parts(terms, plan, phases, cfg, ns)
                ref = dense_plan_parts(net, Q, Q_cross, plan, ea, eu)
                for name, value in ref.items():
                    assert close(getattr(parts, name), value), (policy, scheme, name)
        # tr(Q_cross[k,i,l]) = c[k,l] c[i,l] on co-pilot pairs, in the
        # program's factor c and set index
        problem = opt.build_maxmin_problem(terms, phases, cfg, rho=0.5)
        copilot = pilots.set_of[:, None] == pilots.set_of[None, :]
        assert close(copilot[..., None] * problem.c[:, None] * problem.c[None], tr_Qc)
        plan = cf.make_plan(terms, *opt.MAXMIN_SCHEME)
        n_ea, n_eu = cf.decay_pair(phases, cfg, problem.instant)
        assert close(problem.xi, dense_plan_parts(net, Q, Q_cross, plan, n_ea, n_eu)["xi"][0])


def test_plans_that_would_broadcast_are_rejected():
    # weights of shape (1, L) or (K, 1) and a (1, 1) mu used to broadcast
    # silently to (K, L) and give a sum SE; each now names its field
    cfg = cfrs.SystemConfig(L=4, K=3, N=2, tau_p=2, tau_c=20, seed=1)
    net = cfrs.build_network(cfg)
    pilots = cfrs.assign_pilots(cfg.K, cfg.tau_p)
    phases = cfrs.PhaseStatistics.from_config(cfg)
    terms = cf.TraceTerms.compute(net, cfrs.estimation_statistics(net, pilots, phases, cfg),
                                  pilots)
    for weights in (np.ones((1, cfg.L)), np.ones((cfg.K, 1))):
        for unit_eta in (False, True):
            with pytest.raises(ValueError, match=r"plan weights has shape .* needs \(3, 4\)"):
                cf.make_plan(terms, "du_mr", "coherent", 0.5, weights=weights,
                             unit_eta=unit_eta)
    plan = cf.make_plan(terms, "du_mr", "coherent", 0.5)
    for name, bad in (("weights", np.ones((1, cfg.L))), ("mu", np.full((1, 1), 0.1)),
                      ("eta", np.ones(1))):
        wrong = dataclasses.replace(plan, **{name: bad})
        with pytest.raises(ValueError, match=f"plan {name} has shape"):
            cf.plan_parts(terms, wrong, phases, cfg, cfg.data_instants())


@pytest.mark.parametrize("scheme", ["du_mmse", "mr", "DU_MR", ""])
def test_make_plan_rejects_schemes_without_a_closed_form(desk, scheme):
    # the plan is the boundary: no other tag can reach plan_parts
    terms = desk[-1]
    allowed = re.escape(str(cf.PRIVATE_SCHEMES))
    with pytest.raises(ValueError, match=f"private_scheme must be one of {allowed}"):
        cf.make_plan(terms, scheme, "noncoherent", 0.5)


def test_rho_zero_common_sinr_is_zero(desk):
    cfg, _, _, phases, _, terms = desk
    plan = cf.make_plan(terms, "du_mr", "coherent", 0.0)
    ns = cfg.data_instants()
    assert np.all(cf.assemble(cf.plan_parts(terms, plan, phases, cfg, ns), 0.0)[1] == 0.0)


def test_plan_freezes_a_copy_of_the_callers_arrays(desk):
    _, _, _, _, _, terms = desk
    w = np.ones((terms.K, terms.L))
    plan = cf.make_plan(terms, "du_mr", "coherent", 0.5, weights=w)
    w[0, 0] = 2.0  # the caller's array stays writeable ...
    assert plan.weights[0, 0] == 1.0  # ... and the plan does not see the write
    mu = plan.mu.copy()
    direct = cf.PrecodingPlan("du_mr", "coherent", 0.5, weights=w, mu=mu, eta=plan.eta)
    mu[0, 0] = 0.5
    assert direct.mu[0, 0] == plan.mu[0, 0]
    for p in (plan, direct, plan.replace_rho(0.2)):
        for arr in (p.weights, p.mu, p.eta):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 1.0


@pytest.mark.parametrize("field, bad", [
    ("weights", np.nan), ("weights", np.inf), ("weights", -1.0),
    ("mu", np.nan), ("mu", np.inf), ("mu", 0.0), ("eta", np.nan), ("eta", np.inf),
])
def test_non_finite_plans_are_rejected(desk, field, bad):
    # nan and inf used to pass every check and give a nan sum SE
    _, _, _, _, _, terms = desk
    plan = cf.make_plan(terms, "du_mr", "coherent", 0.5)
    arr = getattr(plan, field).copy()
    arr[0] = bad
    with pytest.raises(ValueError, match=f"plan {field} must lie in"):
        dataclasses.replace(plan, **{field: arr})
    if field == "weights":
        with pytest.raises(ValueError, match=r"common weights must lie in \[0, inf\)"):
            cf.common_normalization(terms, arr)
        with pytest.raises(ValueError, match=f"plan {field} must lie in"):
            cf.make_plan(terms, "du_mr", "coherent", 0.5, weights=arr, unit_eta=True)


def test_common_normalization_rejects_a_non_finite_power(desk):
    _, _, _, _, _, terms = desk
    huge = np.full((terms.K, terms.L), 1e200)
    with pytest.raises(ValueError, match=r"power must lie in \(0, inf\)"):
        cf.common_normalization(terms, huge)


def test_out_of_range_instant_rejected(desk):
    cfg, _, _, phases, _, terms = desk
    plan = cf.make_plan(terms, "du_mr", "coherent", 0.0)
    with pytest.raises(ValueError):
        cf.plan_parts(terms, plan, phases, cfg, cfg.tau_p)  # pilot region
    with pytest.raises(ValueError):
        cf.plan_parts(terms, plan, phases, cfg, cfg.tau_c + 1)


@pytest.mark.parametrize("instants, bad", [([5.7, 8], "5.7"), (6.5, "6.5"),
                                           ([8, 9.25], "9.25")])
def test_non_integral_instants_rejected(desk, instants, bad):
    # a fractional instant was once truncated: [5.7, 8] evaluated [5, 8]
    cfg, _, _, phases, _, terms = desk
    with pytest.raises(ValueError, match=f"integers, got {re.escape(bad)}"):
        cf.check_instants(cfg, instants)
    plan = cf.make_plan(terms, "du_mr", "coherent", 0.5)
    with pytest.raises(ValueError, match="integers"):
        cf.plan_parts(terms, plan, phases, cfg, instants)
    # integral values given as floats are the instants they name
    assert np.array_equal(cf.check_instants(cfg, [5.0, 8.0]), [5, 8])


def test_a_stacks_decays_are_each_jobs_own_bit_for_bit():
    cfg = cfrs.SystemConfig(L=4, K=3, N=2, tau_p=2, tau_c=20, seed=1)
    phases = [cfrs.PhaseStatistics(0.0, 0.0), cfrs.PhaseStatistics(1e-4, 3e-3),
              cfrs.PhaseStatistics(0.2, 1e-6)]
    configs = [cfg, dataclasses.replace(cfg, seed=2, p_d=0.5), cfg]
    ns = cfg.data_instants()
    ea, eu = cf.decay_pair(phases, configs, ns)
    assert ea.shape == eu.shape == (len(ns), len(configs))
    for b, (ph, c) in enumerate(zip(phases, configs)):
        own_ea, own_eu = cf.decay_pair(ph, c, ns)
        assert np.array_equal(ea[:, b], own_ea) and np.array_equal(eu[:, b], own_eu)


@pytest.mark.parametrize("change", [{"tau_p": 3}, {"tau_c": 30}], ids=["tau_p", "tau_c"])
def test_a_stack_of_jobs_on_other_instants_is_refused(change):
    cfg = cfrs.SystemConfig(L=4, K=3, N=2, tau_p=2, tau_c=20, seed=1)
    phases = [cfrs.PhaseStatistics(1e-4, 1e-4)] * 2
    with pytest.raises(ValueError, match="stacked jobs must share their estimation instant "
                                         "and tau_c"):
        cf.decay_pair(phases, [cfg, dataclasses.replace(cfg, **change)], cfg.data_instants())


# ---------------------------------------------------------------------------
# SE assembly
# ---------------------------------------------------------------------------

def sinr_parts(sinr):
    """Coefficients whose private SINRs at rho = 0 are ``sinr`` (M, K)
    exactly, with p_d = sigma2 = 1 and xi = eaeu = sinr, and whose common
    SINRs are zero."""
    ones = np.ones_like(sinr)
    return cf.PlanParts(eaeu=sinr, xi=sinr, sig_private=ones, sig_common=ones, gamma=ones,
                        p_d=1.0, sigma2=1.0)


def test_se_report_constant_unity():
    cfg = cfrs.SystemConfig(L=2, K=1, tau_p=4, tau_c=200, seed=0)
    se = cf.se_report(sinr_parts(np.ones((cfg.tau_c - cfg.tau_p, 1))), 0.0,
                      cfg.tau_c).se_private
    assert se[0] == pytest.approx((cfg.tau_c - cfg.tau_p) / cfg.tau_c)


def test_se_report_zero_and_negative():
    rep = cf.se_report(sinr_parts(np.zeros((10, 3))), 0.0, 20)
    assert rep.se_private.tolist() == [0.0, 0.0, 0.0]
    assert rep.se_common_per_ue.tolist() == [0.0, 0.0, 0.0]
    with pytest.raises(ValueError, match="SINR"):
        cf.se_report(sinr_parts(np.array([[-0.1]])), 0.0, 20)


def test_se_report_matches_plain_summation():
    tau_c, tau_p = 200, 4
    lam = tau_p + 1
    ns = np.arange(lam, tau_c + 1)
    sinr = np.exp(-(ns - lam) * 0.01)[:, None]
    rep = cf.se_report(sinr_parts(sinr), 0.0, tau_c)
    assert np.array_equal(rep.sinr_private, sinr.T)
    manual = sum(math.log2(1.0 + math.exp(-(n - lam) * 0.01)) for n in ns) / tau_c
    assert rep.se_private[0] == pytest.approx(manual, rel=1e-14)


def test_sum_se_identities():
    se_p = np.array([1.0, 2.0, 0.5])
    se_c = np.array([0.7, 0.4, 0.9])
    common, sse = cf.sum_se(se_p, se_c)
    assert common == 0.4
    assert sse == pytest.approx(3.5 + 0.4)
    only, sse1 = cf.sum_se(np.array([1.0]), np.array([0.3]))
    assert only == 0.3 and sse1 == pytest.approx(1.3)


def test_report_recomposition_and_rho_zero(desk):
    cfg, _, _, phases, _, terms = desk
    plan = cf.make_plan(terms, "du_mr", "coherent", 0.5)
    parts = cf.plan_parts(terms, plan, phases, cfg, cfg.data_instants())
    rep = cf.se_report(parts, 0.5, cfg.tau_c)
    # recomposition from the raw SINR matrices, summed over the instants
    se_p, se_c = (np.log2(1.0 + sinr).sum(axis=-1) / cfg.tau_c
                  for sinr in (rep.sinr_private, rep.sinr_common))
    assert rep.sum_se == pytest.approx(np.min(se_c) + np.sum(se_p), rel=1e-14)
    # rho = 0 degenerates to the plain (non-split) sum SE
    rep0 = cf.se_report(parts, 0.0, cfg.tau_c)
    assert rep0.se_common == 0.0
    assert rep0.sum_se == pytest.approx(np.sum(rep0.se_private), rel=1e-14)


def test_trace_terms_sparsity(desk):
    # even sets (the desk's two single-UE sets) and uneven ones (K = 7 on 3
    # pilots: sizes 3, 2, 2)
    uneven = random_instance(np.random.default_rng(4), L=3, K=7, N=2, tau_p=3)
    for cfg, net, pilots, phases, stats, terms in (desk, uneven):
        # the terms number the sets by the pilot assignment itself
        assert terms.pilots is pilots
        # no co-pilot pair is stored: every co-pilot block is rank 1 in the
        # (K, L) factor x, and every per-set array has one row per set
        K, L, N = net.K, net.L, net.N
        S = len(np.unique(pilots.t))
        problem = opt.build_maxmin_problem(terms, phases, cfg, rho=0.5)
        # the statistics are what the chain reads, and nothing more; the
        # NMSEs are estimation.nmse's
        assert [f.name for f in dataclasses.fields(stats)] == ["Psi", "x"]
        assert stats.Psi.shape == (S, L, N)
        for per_set in (terms.s2, terms.s3, problem.ratio, problem.y_ones):
            assert per_set.shape == (S, L)
        for per_ue in (stats.x, *cfrs.estimation.nmse(net, pilots, phases, cfg), terms.x,
                       terms.tr_Q, terms.tr_QT, problem.c):
            assert per_ue.shape == (K, L)
        assert terms.x is stats.x
        # the terms hold the network's gains themselves, not a copy
        assert terms.beta is net.beta
        # neither the statistics, the terms nor the max-min program hold an
        # array with two co-pilot axes or two UE axes
        assert problem.terms is terms
        held = {}
        for owner in (stats, terms, problem):
            for name, value in vars(owner).items():
                for a in (value if isinstance(value, tuple) else (value,)):
                    if isinstance(a, np.ndarray):
                        held.setdefault(name, []).append(a.shape)
        pair_shapes = [(n, g, g) for n, g in (idx.shape for idx in pilots.stacks)]
        for name, shapes in held.items():
            for shape in shapes:
                assert not any(shape[i:i + 3] in pair_shapes
                               for i in range(len(shape))), (name, shape)
                if K not in (L, net.N):
                    assert shape.count(K) <= 1, (name, shape)
                assert shape not in ((K, K * L), (L, K, K)), (name, shape)
        assert held["c"] == [(K, L)] and held["y_ones"] == [(S, L)]


def test_more_aps_shrink_ap_drift_penalty():
    # the DU-MR sum SE lost to AP-side drift is a smaller fraction at L=100
    # than at L=10 on the same seed
    def penalty(L):
        cfg = cfrs.SystemConfig(L=L, K=8, N=2, tau_p=4, tau_c=200, seed=3)
        net = cfrs.build_network(cfg)
        pilots = cfrs.assign_pilots(cfg.K, cfg.tau_p)

        def sum_se_at(var_ap, var_ue):
            ph = cfrs.PhaseStatistics(var_ap=var_ap, var_ue=var_ue)
            stats = cfrs.estimation_statistics(net, pilots, ph, cfg)
            terms = cf.TraceTerms.compute(net, stats, pilots)
            plan = cf.make_plan(terms, "du_mr", "coherent", 0.0)
            return cf.se_report(cf.plan_parts(terms, plan, ph, cfg, cfg.data_instants()),
                                0.0, cfg.tau_c).sum_se

        return sum_se_at(1e-3, 1e-5) / sum_se_at(1e-5, 1e-5)

    assert penalty(100) > penalty(10)


def test_asymptotic_swap_equal_variances_tie():
    cfg = cfrs.SystemConfig(L=20, K=4, N=2, tau_p=4, tau_c=50, seed=6)
    net = cfrs.build_network(cfg)
    pilots = cfrs.assign_pilots(cfg.K, cfg.tau_p)
    v = 1e-3
    a = cfrs.estimation_statistics(net, pilots, cfrs.PhaseStatistics(v, v), cfg)
    terms = cf.TraceTerms.compute(net, a, pilots)
    plan = cf.make_plan(terms, "du_mr", "coherent", 0.0)
    ph1 = cfrs.PhaseStatistics(v, v)
    rep1 = cf.se_report(cf.plan_parts(terms, plan, ph1, cfg, cfg.data_instants()), 0.0,
                        cfg.tau_c)
    rep2 = cf.se_report(cf.plan_parts(terms, plan, ph1, cfg, cfg.data_instants()), 0.0,
                        cfg.tau_c)
    assert rep1.sum_se == rep2.sum_se


def test_terms_on_two_pilot_assignments_do_not_stack():
    # one UE on pilot instant 1 of 1, and on instant 2 of 2
    other = cfrs.estimation.PilotAssignment(np.array([2]), 2)
    with pytest.raises(ValueError, match="pilot assignment"):
        cf.TraceTerms.stack([tiny_terms(), dataclasses.replace(tiny_terms(), pilots=other)])


@pytest.mark.parametrize("args, message", [
    (("du_mr", "hybrid", 0.5), "transmission must be one of"),
    (("du_mr", "coherent", 1.5), r"rho must lie in \[0, 1\]"),
    (("du_mr", "coherent", -0.1), r"rho must lie in \[0, 1\]"),
])
def test_a_plan_with_an_unknown_transmission_or_split_rejected(args, message):
    with pytest.raises(ValueError, match=message):
        cf.make_plan(tiny_terms(), *args)


def test_stacked_jobs_of_two_block_lengths_rejected(desk):
    cfg, _, _, phases, _, terms = desk
    stacked = cf.TraceTerms.stack([terms, terms])
    plan = cf.make_plan(stacked)
    longer = dataclasses.replace(cfg, tau_c=cfg.tau_c + 10)
    with pytest.raises(ValueError, match="tau_c"):
        cf.plan_parts(stacked, plan, [phases, phases], [cfg, longer], cfg.data_instants())
