import dataclasses
import json
import math

import numpy as np
import pytest

import cfrs
from cfrs import closed_form as cf

from conftest import dense_copilot, per_link_statistics, random_instance


def tiny_terms(tr_q: float = 2.0):
    """Hand-built single-link trace terms for scalar identities."""
    one = np.ones((1, 1))
    return cf.TraceTerms(
        tr_Q=tr_q * one,
        tr_QR=tr_q * one[None] * 1.5,
        tr_Qc=tr_q * one[None].astype(complex),
        tr_QcR=((tr_q * 1.5) * np.ones((1, 1, 1, 1), dtype=complex),),
        theta=np.ones((1, 1), dtype=complex),
        groups=(np.array([0]),),
        beta=one.copy(),
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


def test_private_normalization_monte_carlo(desk, desk_batch):
    cfg, net, _, _, _, terms = desk
    batch, _ = desk_batch
    mu = cf.private_normalization(terms)
    v = net.theta[None, :, :, None] * batch.hhat
    total = np.mean(np.sum(np.abs(v) ** 2, axis=(1, 3)), axis=0)  # (L,)
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


def test_common_normalization_monte_carlo(desk, desk_batch):
    cfg, net, _, _, _, terms = desk
    batch, _ = desk_batch
    a = np.full((cfg.K, cfg.L), 1.0)
    eta = cf.common_normalization(terms, a)
    v = net.theta[None, :, :, None] * batch.hhat
    v_c = np.einsum("il,riln->rln", a, v)
    total = np.mean(np.sum(np.abs(v_c) ** 2, axis=2), axis=0)
    assert np.allclose(eta * total, 1.0, rtol=0.01)


def test_power_control_uniform_when_betas_equal():
    terms = tiny_terms(2.0)
    net = cfrs.build_network(cfrs.SystemConfig(L=5, K=3, N=2, seed=2))
    equal = dataclasses.replace(net, beta=np.full((3, 5), 1e-9))
    stats_terms = dataclasses.replace(
        tiny_terms(), tr_Q=np.full((3, 5), 2.0), beta=np.full((3, 5), 1e-9)
    )
    mu = cf.power_control_coefficients(stats_terms, equal, alpha=-1.0)
    assert np.allclose(mu, mu[0:1, :])  # identical for every UE
    assert np.allclose(mu[0], 1.0 / (3 * 2.0))


def test_power_control_alpha_zero_is_uniform(desk):
    cfg, net, _, _, _, terms = desk
    mu = cf.power_control_coefficients(terms, net, alpha=0.0)
    assert np.allclose(mu, mu[0:1, :])


def test_power_control_unit_power_identity(desk):
    cfg, net, _, _, _, terms = desk
    mu = cf.power_control_coefficients(terms, net, alpha=-1.0)
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
        assert np.array_equal(
            cf.private_sinr(terms, du, phases, cfg, ns),
            cf.private_sinr(terms, df, phases, cfg, ns),
        )
        assert np.array_equal(
            cf.common_sinr(terms, du, phases, cfg, ns),
            cf.common_sinr(terms, df, phases, cfg, ns),
        )


def test_noncoherent_private_identical_for_du_and_df(desk):
    cfg, net, pilots, phases, stats, terms = desk
    ns = cfg.data_instants()
    du = cf.make_plan(terms, "du_mr", "noncoherent", 0.3)
    df = cf.make_plan(terms, "df_mr", "noncoherent", 0.3)
    assert np.array_equal(
        cf.private_sinr(terms, du, phases, cfg, ns),
        cf.private_sinr(terms, df, phases, cfg, ns),
    )


def test_du_coherent_private_invariant_under_delay_redraws(desk):
    cfg, net, pilots, phases, stats, terms = desk
    ns = cfg.data_instants()
    plan = cf.make_plan(terms, "du_mr", "coherent", 0.2)
    reference = cf.private_sinr(terms, plan, phases, cfg, ns)
    rng = np.random.default_rng(99)
    for _ in range(3):
        rand_theta = np.exp(2j * np.pi * rng.random(net.theta.shape))
        shuffled = dataclasses.replace(terms, theta=rand_theta)
        again = cf.private_sinr(shuffled, plan, phases, cfg, ns)
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
        assert np.allclose(
            cf.private_sinr(terms, co, phases, cfg, ns),
            cf.private_sinr(terms, nc, phases, cfg, ns),
            rtol=1e-12,
        )
        assert np.allclose(
            cf.common_sinr(terms, co, phases, cfg, ns),
            cf.common_sinr(terms, nc, phases, cfg, ns),
            rtol=1e-12,
        )


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
                for fn in (cf.private_sinr, cf.common_sinr):
                    vals = fn(terms, plan, phases, cfg, ns)
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
        for fn in (cf.private_sinr, cf.common_sinr):
            vals = fn(terms, plan, still, cfg, ns)
            assert np.all(vals == vals[:, :1])


def test_joint_power_noise_scaling_leaves_sinr_unchanged(desk):
    cfg, net, pilots, phases, stats, terms = desk
    ns = cfg.data_instants()
    scaled_cfg = dataclasses.replace(cfg, p_d=cfg.p_d * 37.0, sigma2_dl=cfg.sigma2_dl * 37.0)
    for transmission in cf.TRANSMISSIONS:
        plan = cf.make_plan(terms, "df_mr", transmission, 0.6)
        assert np.allclose(
            cf.private_sinr(terms, plan, phases, cfg, ns),
            cf.private_sinr(terms, plan, phases, scaled_cfg, ns),
            rtol=1e-12,
        )
        assert np.allclose(
            cf.common_sinr(terms, plan, phases, cfg, ns),
            cf.common_sinr(terms, plan, phases, scaled_cfg, ns),
            rtol=1e-12,
        )


def test_assemble_equals_evaluate_plan_exactly():
    rng = np.random.default_rng(5)
    cfg, net, pilots, phases, stats, terms = random_instance(rng, L=5, K=4, tau_p=2)
    ns = cfg.data_instants()
    for scheme in cf.PRIVATE_SCHEMES:
        for transmission in cf.TRANSMISSIONS:
            plan = cf.make_plan(terms, scheme, transmission, 0.0)
            parts = cf.plan_parts(terms, plan, phases, cfg, ns)
            curve = cf.sum_se_curve(terms, plan, phases, cfg)
            for rho in (0.0, 1e-5, 0.25, 0.5, 0.731, 1.0):
                report = cf.evaluate_plan(terms, plan.replace_rho(rho), phases, cfg)
                sinr_p, sinr_c = cf.assemble(parts, rho)
                assert np.array_equal(sinr_p, report.sinr_private)
                assert np.array_equal(sinr_c, report.sinr_common)
                assert curve(rho) == report.sum_se


def test_blocked_tr_qcr_matches_dense_einsum():
    # uneven co-pilot groups: K = 7 UEs on 3 pilots gives sizes 3, 2, 2
    rng = np.random.default_rng(8)
    cfg, net, _, phases, _, _ = random_instance(rng, L=4, K=7, N=3, tau_p=3)
    # generic complex Hermitian R, so that no transpose or conjugate cancels
    A = rng.normal(size=net.R.shape) + 1j * rng.normal(size=net.R.shape)
    net = dataclasses.replace(net, R=A @ np.conj(np.swapaxes(A, -1, -2)) * 1e-9)
    w = rng.uniform(0, 1, (cfg.K, cfg.L)) * np.conj(net.theta)
    eta = rng.uniform(0.5, 2, cfg.L)
    for policy in ("round_robin", "random"):
        pilots = cfrs.assign_pilots(cfg.K, cfg.tau_p, policy, seed=1)
        assert sorted(len(g) for g in pilots.groups) == [2, 2, 3]
        if policy == "random":
            # instant order differs from first-member order, so a block
            # paired with a re-derived group order lands on the wrong UEs
            firsts = [g[0] for g in pilots.groups]
            assert firsts != sorted(firsts)
        stats = cfrs.estimation_statistics(net, pilots, phases, cfg)
        terms = cf.TraceTerms.compute(net, stats, pilots)
        Q_cross = per_link_statistics(net, pilots, phases, cfg)[2]
        dense = np.einsum("ijlab,klba->ijkl", Q_cross, net.R)
        got = dense_copilot(terms.tr_QcR, pilots.groups, cfg.K)
        assert np.max(np.abs(got - dense)) <= 1e-12 * np.max(np.abs(dense))
        tr_Qc = np.einsum("kilnn->kil", Q_cross)
        assert np.max(np.abs(terms.tr_Qc - tr_Qc)) <= 1e-12 * np.max(np.abs(tr_Qc))
        cross_dense = np.einsum("l,il,jl,ijkl->k", eta, np.conj(w), w, dense).real
        cross = cf._cross_term(terms, eta, w)
        assert np.max(np.abs(cross - cross_dense)) <= 1e-12 * np.max(np.abs(cross_dense))


def test_du_mmse_has_no_closed_form(desk):
    cfg, _, _, phases, _, terms = desk
    plan = cf.make_plan(terms, "du_mmse", "noncoherent", 0.5)
    with pytest.raises(ValueError, match="Monte Carlo"):
        cf.plan_parts(terms, plan, phases, cfg, cfg.data_instants())


def test_rho_zero_common_sinr_is_zero(desk):
    cfg, _, _, phases, _, terms = desk
    plan = cf.make_plan(terms, "du_mr", "coherent", 0.0)
    ns = cfg.data_instants()
    assert np.all(cf.common_sinr(terms, plan, phases, cfg, ns) == 0.0)


def test_out_of_range_instant_rejected(desk):
    cfg, _, _, phases, _, terms = desk
    plan = cf.make_plan(terms, "du_mr", "coherent", 0.0)
    with pytest.raises(ValueError):
        cf.private_sinr(terms, plan, phases, cfg, cfg.tau_p)  # pilot region
    with pytest.raises(ValueError):
        cf.private_sinr(terms, plan, phases, cfg, cfg.tau_c + 1)


# ---------------------------------------------------------------------------
# SE assembly
# ---------------------------------------------------------------------------

def test_se_from_sinr_constant_unity():
    cfg = cfrs.SystemConfig(L=2, K=1, tau_p=4, tau_c=200, seed=0)
    sinr = np.ones((1, cfg.tau_c - cfg.tau_p))
    se = cf.se_from_sinr(sinr, cfg.tau_c)
    assert se[0] == pytest.approx((cfg.tau_c - cfg.tau_p) / cfg.tau_c)


def test_se_from_sinr_zero_and_negative():
    assert cf.se_from_sinr(np.zeros((3, 10)), 20).tolist() == [0.0, 0.0, 0.0]
    with pytest.raises(ValueError):
        cf.se_from_sinr(np.array([[-0.1]]), 20)


def test_se_from_sinr_matches_plain_summation():
    tau_c, tau_p = 200, 4
    lam = tau_p + 1
    ns = np.arange(lam, tau_c + 1)
    sinr = np.exp(-(ns - lam) * 0.01)[None, :]
    se = cf.se_from_sinr(sinr, tau_c)
    manual = sum(math.log2(1.0 + math.exp(-(n - lam) * 0.01)) for n in ns) / tau_c
    assert se[0] == pytest.approx(manual, rel=1e-14)


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
    rep = cf.evaluate_plan(terms, plan, phases, cfg)
    # recomposition from the raw SINR matrices
    se_p = cf.se_from_sinr(rep.sinr_private, cfg.tau_c)
    se_c = cf.se_from_sinr(rep.sinr_common, cfg.tau_c)
    assert rep.sum_se == pytest.approx(np.min(se_c) + np.sum(se_p), rel=1e-14)
    # rho = 0 degenerates to the plain (non-split) sum SE
    rep0 = cf.evaluate_plan(terms, plan.replace_rho(0.0), phases, cfg)
    assert rep0.se_common == 0.0
    assert rep0.sum_se == pytest.approx(np.sum(rep0.se_private), rel=1e-14)


def test_report_serialization_roundtrip(desk):
    cfg, _, _, phases, _, terms = desk
    plan = cf.make_plan(terms, "du_mr", "coherent", 0.3)
    rep = cf.evaluate_plan(terms, plan, phases, cfg)
    blob = json.loads(rep.to_json())
    assert blob["sum_se"] == rep.sum_se
    assert blob["metadata"]["rho"] == 0.3
    rows = rep.to_csv_rows()
    assert len(rows) == cfg.K
    assert rows[0]["sum_se"] == rep.sum_se


def test_trace_terms_sparsity(desk):
    _, net, pilots, _, stats, terms = desk
    off = ~pilots.copilot
    assert np.all(terms.tr_Qc[off] == 0)
    # tr_QcR holds exactly the co-pilot pairs, each once
    covered = np.zeros((net.K, net.K), dtype=int)
    for g, block in zip(terms.groups, terms.tr_QcR):
        assert block.shape == (len(g), len(g), net.K, net.L)
        covered[np.ix_(g, g)] += 1
    assert np.array_equal(covered, pilots.copilot.astype(int))


def test_asymptotic_monotonicity_report():
    report = cf.asymptotic_monotonicity_check(
        cfrs.SystemConfig(L=100, K=8, N=2, tau_p=4, tau_c=200, seed=3),
        var_grid=(1e-5, 1e-4, 1e-3),
    )
    assert report["grid_decreasing"]
    assert report["ue_variance_dominates"]
    assert report["more_aps_reduce_ap_penalty"]
    assert report["passed"]


def test_asymptotic_swap_equal_variances_tie():
    cfg = cfrs.SystemConfig(L=20, K=4, N=2, tau_p=4, tau_c=50, seed=6)
    net = cfrs.build_network(cfg)
    pilots = cfrs.assign_pilots(cfg.K, cfg.tau_p)
    v = 1e-3
    a = cfrs.estimation_statistics(net, pilots, cfrs.PhaseStatistics(v, v), cfg)
    terms = cf.TraceTerms.compute(net, a, pilots)
    plan = cf.make_plan(terms, "du_mr", "coherent", 0.0)
    ph1 = cfrs.PhaseStatistics(v, v)
    rep1 = cf.evaluate_plan(terms, plan, ph1, cfg)
    rep2 = cf.evaluate_plan(terms, plan, ph1, cfg)
    assert rep1.sum_se == rep2.sum_se
