import dataclasses
import math

import numpy as np
import pytest

import cfrs
from cfrs import closed_form as cf
from cfrs import optimize as opt

from conftest import dense_maxmin_matrices, per_link_statistics, per_set_y


def setup_instance(seed=1, L=4, K=2, N=2, tau_p=2, var=1e-3, rho=0.5, n=None):
    cfg = cfrs.SystemConfig(L=L, K=K, N=N, tau_p=tau_p, tau_c=20, seed=seed)
    net = cfrs.build_network(cfg)
    pilots = cfrs.assign_pilots(K, tau_p)
    phases = cfrs.PhaseStatistics(var, var)
    stats = cfrs.estimation_statistics(net, pilots, phases, cfg)
    terms = cf.TraceTerms.compute(net, stats, pilots)
    problem = opt.build_maxmin_problem(terms, phases, cfg, rho, n=n)
    return cfg, net, pilots, phases, stats, terms, problem


# ---------------------------------------------------------------------------
# power-split search
# ---------------------------------------------------------------------------

def test_optimal_rho_unimodal_synthetic():
    rho, val = opt.optimal_rho(lambda r: -((r - 0.3) ** 2), tol=1e-3)
    assert abs(rho - 0.3) <= 1e-3
    assert val == pytest.approx(0.0, abs=1e-6)


def test_optimal_rho_decreasing_returns_zero():
    rho, val = opt.optimal_rho(lambda r: 1.0 - r, tol=1e-3)
    assert rho == 0.0
    assert val == 1.0


def test_optimal_rho_never_below_endpoints():
    # adversarial bumpy objective: result must still match an endpoint at least
    def bumpy(r):
        return np.sin(13 * r) * 0.2 + (1 - r) * 0.5

    rho, val = opt.optimal_rho(bumpy, tol=1e-3)
    assert val >= max(bumpy(0.0), bumpy(1.0))


def test_optimal_rho_validates_tolerances():
    with pytest.raises(ValueError):
        opt.optimal_rho(lambda r: r, tol=0.0)
    # at tol >= 1 the search would stop after the two endpoints and miss an
    # interior optimum
    calls = []

    def peaked(r):
        calls.append(r)
        return -((r - 0.5) ** 2)

    for tol in (1.0, 2.0):
        with pytest.raises(ValueError, match=r"tol must lie in \(0, 1\)"):
            opt.optimal_rho(peaked, tol=tol)
    assert calls == []


def test_optimal_rho_matches_grid_on_closed_form():
    cfg, net, pilots, phases, stats, terms, _ = setup_instance(seed=2)
    plan0 = cf.make_plan(terms, "du_mr", "coherent", 0.0)

    def sse(r):
        return cf.evaluate_plan(terms, plan0.replace_rho(r), phases, cfg).sum_se

    rho, best = opt.optimal_rho(sse)
    grid = np.linspace(0.0, 1.0, 1000)
    grid_best = max(sse(r) for r in grid)
    assert best >= grid_best - 1e-3


# ---------------------------------------------------------------------------
# problem assembly
# ---------------------------------------------------------------------------

def test_single_ue_theta_is_trq():
    # one UE: its set's power is a^2 tr(Q), so y_ones^2 = tr(Q)
    cfg, net, pilots, phases, stats, terms, problem = setup_instance(K=1, tau_p=1)
    assert problem.y_ones.shape == (1, cfg.L)
    assert np.allclose(problem.y_ones[0] ** 2, terms.tr_Q[0], rtol=1e-12)
    a = np.random.default_rng(3).uniform(0, 2, size=(1, cfg.L))
    assert np.allclose(problem.power_norms(per_set_y(problem, a)) ** 2,
                       a[0] ** 2 * terms.tr_Q[0], rtol=1e-12)


def test_orthogonal_pilots_make_blocks_diagonal():
    cfg, net, pilots, phases, stats, terms, problem = setup_instance(
        K=2, tau_p=2, L=3
    )
    # one singleton set per UE: y is a reordering of the weights times c
    assert sorted(pilots.set_of.tolist()) == list(range(cfg.K))
    b, Theta, H, M = dense_maxmin_matrices(net, pilots, phases, cfg)
    for l in range(cfg.L):
        assert np.all(Theta[l] - np.diag(np.diag(Theta[l])) == 0)
    for k in range(cfg.K):
        for mat in (H[k], M[k]):
            assert np.all(mat - np.diag(np.diag(mat)) == 0)


def test_theta_gram_identity_against_common_power():
    cfg, net, pilots, phases, stats, terms, problem = setup_instance(
        K=4, tau_p=2, L=3
    )
    rng = np.random.default_rng(11)
    tr_Qc = np.einsum("kilnn->kil", per_link_statistics(net, pilots, phases, cfg)[2]).real
    for _ in range(100):
        w = rng.uniform(0, 2, size=(cfg.K, cfg.L))
        direct = 0.0
        for l in range(cfg.L):
            for k in range(cfg.K):
                for i in range(cfg.K):
                    direct += w[k, l] * w[i, l] * tr_Qc[k, i, l]
        assert np.sum(cf.common_power(terms, w)) == pytest.approx(direct, rel=1e-10)
        y = per_set_y(problem, w)
        assert np.sum(problem.power_norms(y) ** 2) == pytest.approx(direct, rel=1e-10)


def test_problem_sinr_matches_closed_form_with_unit_eta():
    cfg, net, pilots, phases, stats, terms, problem = setup_instance(
        seed=5, K=4, tau_p=2, L=3, rho=0.35
    )
    rng = np.random.default_rng(4)
    for _ in range(10):
        w = rng.uniform(0, 1e4, size=(cfg.K, cfg.L))
        plan = cf.make_plan(terms, "du_mr", "coherent", 0.35, weights=w, unit_eta=True)
        via_closed = cf.common_sinr(terms, plan, phases, cfg, problem.instant)
        via_problem = problem.sinr(per_set_y(problem, w))
        assert np.allclose(via_closed, via_problem, rtol=1e-10)


def test_problem_xi_matches_private_interference():
    cfg, net, pilots, phases, stats, terms, problem = setup_instance(seed=7)
    plan = cf.make_plan(terms, "du_mr", "coherent", 0.0)
    # reconstruct xi from the coherent private SINR at full power
    sinr = cf.private_sinr(terms, plan, phases, cfg, problem.instant)
    lam = cfg.estimation_instant
    ea = np.exp(-(problem.instant - lam) * phases.var_ap)
    eu = np.exp(-(problem.instant - lam) * phases.var_ue)
    # DU coherent desired signal |sum_l sqrt(mu[k,l]) tr(Q[k,l])|^2
    sig = ea * eu * cfg.p_d * np.sum(np.sqrt(plan.mu) * terms.tr_Q, axis=1) ** 2
    xi_implied = (sig / sinr - cfg.sigma2_dl + sig) / cfg.p_d
    assert np.allclose(problem.xi, xi_implied, rtol=1e-10)


def test_rho_zero_problem_rejected():
    for rho in (0.0, 1.5):
        with pytest.raises(ValueError, match="rho"):
            setup_instance(rho=rho)


def test_problem_matrix_invariants():
    # the dense Theta, H and M are PSD on contaminated instances (H_k and M_k
    # are block-diagonal, so their blocks carry every eigenvalue), and the
    # program's forms in y are diagonal with non-negative entries
    for seed in (1, 5, 9):
        cfg, net, pilots, phases, stats, terms, problem = setup_instance(
            seed=seed, K=4, tau_p=2, L=3
        )
        assert np.all(problem.c > 0) and np.all(problem.ratio > 0)
        assert np.all(problem.y_ones > 0)
        b, Theta, H, M = dense_maxmin_matrices(net, pilots, phases, cfg)
        assert np.all(b >= 0)
        assert np.linalg.eigvalsh(Theta).min() >= -1e-10
        for mat in (H, M):
            blocks = np.stack([mat[:, l * cfg.K:(l + 1) * cfg.K, l * cfg.K:(l + 1) * cfg.K]
                               for l in range(cfg.L)], axis=1)  # (K, L, K, K)
            assert np.allclose(blocks, np.swapaxes(blocks, -1, -2), rtol=1e-12, atol=0)
            assert np.linalg.eigvalsh(blocks).min() >= -1e-10


def test_split_is_canonical():
    # K > tau_p: sets of 3, 2 and 2 UEs
    cfg, net, pilots, phases, stats, terms, problem = setup_instance(
        seed=4, K=7, tau_p=3, L=5
    )
    rng = np.random.default_rng(21)
    for _ in range(10):
        w = rng.uniform(0, 2, size=(cfg.K, cfg.L))
        # re-split within each set at fixed Omega[P,l] = sum_{i in P} w x
        r = w * rng.uniform(0.1, 10, size=w.shape)
        omega_w, omega_r = (np.zeros(problem.y_ones.shape) for _ in range(2))
        np.add.at(omega_w, pilots.set_of, w * terms.x)
        np.add.at(omega_r, pilots.set_of, r * terms.x)
        r = r * (omega_w / omega_r)[pilots.set_of]
        same = []
        for v in (w, r):
            plan = cf.make_plan(terms, *opt.MAXMIN_SCHEME, 0.5, weights=v, unit_eta=True)
            same.append((cf.common_sinr(terms, plan, phases, cfg, problem.instant),
                         cf.common_power(terms, v), problem.sinr(per_set_y(problem, v))))
        for got, want in zip(*same):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    res = opt.robust_common_precoding(problem)
    for idx in pilots.stacks:
        members = res.weights[idx]  # (S, g, L)
        assert np.array_equal(members, np.broadcast_to(members[:, :1], members.shape))
    plan = cf.make_plan(terms, *opt.MAXMIN_SCHEME, 0.5, weights=res.weights, unit_eta=True)
    applied = cf.common_sinr(terms, plan, phases, cfg, problem.instant)
    assert np.min(applied) >= res.bracket[0] * (1 - 1e-9)
    assert np.max(cf.common_power(terms, res.weights)) <= 1 + 1e-12


def test_weights_on_the_power_boundary_meet_the_budget_exactly():
    # K > tau_p: three sets of two UEs; the division y / y_ones alone rounds
    # the power above 1 at about a third of these APs
    cfg, net, pilots, phases, stats, terms, problem = setup_instance(L=8, K=6, tau_p=2)
    rng = np.random.default_rng(0)
    for _ in range(20):
        y = rng.random(problem.y_ones.shape)
        y /= np.sqrt(np.sum(y * y, axis=0))  # ||y[:, l]|| = 1 at every AP
        weights = problem.weights(y)
        assert np.all(cf.common_power(terms, weights) <= 1.0)
        # only rounding is undone: the split stays the division's
        divided = (y / problem.y_ones)[pilots.set_of]
        assert np.max(np.abs(weights - divided) / divided) <= 4 * np.finfo(float).eps


def dense_cone_terms(problem, b, H, M, a):
    """Reference for ``_cone_terms`` on the dense b_k, H_k and M_k, in the
    stacked weights a: (e, e.a, norm, grad)."""
    sig = math.sqrt(problem.p_dc * problem.eta_ap * problem.eta_ue)
    c_h2 = problem.p_dc * (1.0 - problem.eta_ap)
    c_b2 = problem.p_dc * problem.eta_ap * (1.0 - problem.eta_ue)
    row = 1.0 / np.sqrt(problem.p_dp * problem.xi + problem.sigma2)
    ab = b @ a
    half_grad = c_h2 * (H @ a) + problem.p_dc * (M @ a) + c_b2 * ab[:, None] * b
    norm = np.sqrt(row**2 * np.maximum(half_grad @ a, 0.0) + 1.0)
    grad = (row**2 / norm)[:, None] * half_grad
    e = (row * sig)[:, None] * b
    return e, e @ a, norm, grad


def dense_sinr(problem, b, H, M, a):
    """Reference for ``MaxMinProblem.sinr`` on the dense b_k, H_k and M_k."""
    ab = b @ a
    num = problem.p_dc * problem.eta_ap * problem.eta_ue * ab**2
    den = (problem.p_dc * (1.0 - problem.eta_ap) * np.einsum("i,kij,j->k", a, H, a)
           + problem.p_dc * np.einsum("i,kij,j->k", a, M, a)
           + problem.p_dc * problem.eta_ap * (1.0 - problem.eta_ue) * ab**2
           + problem.p_dp * problem.xi + problem.sigma2)
    return num / den


def test_block_products_match_dense_reference():
    # uneven co-pilot sets (3, 2, 2) and exponential correlation
    cfg = cfrs.SystemConfig(L=4, K=7, N=2, tau_p=3, tau_c=20, seed=4,
                            correlation="exponential", corr_r=0.6)
    net = cfrs.build_network(cfg)
    pilots = cfrs.assign_pilots(cfg.K, cfg.tau_p)
    assert np.bincount(pilots.set_of).tolist() == [2, 2, 3]
    phases = cfrs.PhaseStatistics(1e-3, 2e-3)
    stats = cfrs.estimation_statistics(net, pilots, phases, cfg)
    terms = cf.TraceTerms.compute(net, stats, pilots)
    problem = opt.build_maxmin_problem(terms, phases, cfg, rho=0.4)
    b, _, H, M = dense_maxmin_matrices(net, pilots, phases, cfg)
    rng = np.random.default_rng(13)
    for _ in range(10):
        w = rng.uniform(0, 1e4, (cfg.K, cfg.L))
        a, y = w.T.reshape(-1), per_set_y(problem, w)  # a stacked AP-major
        want = dense_sinr(problem, b, H, M, a)
        assert np.max(np.abs(problem.sinr(y) - want)) <= 1e-12 * np.max(want)
        e, ey, norm, grad = opt._cone_terms(problem, y)
        # e and the gradient in a by the chain rule dy[P,l]/da[i,l] = c[i,l]
        e, grad = ((v[:, pilots.set_of] * problem.c).transpose(0, 2, 1).reshape(cfg.K, -1)
                   for v in (e, grad))
        for got, ref in zip((e, ey, norm, grad), dense_cone_terms(problem, b, H, M, a)):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# feasibility oracle
# ---------------------------------------------------------------------------

def test_zero_target_is_feasible():
    *_, problem = setup_instance(seed=3)
    verdict = opt.check_feasibility(problem, 0.0)
    assert verdict.feasible
    assert verdict.max_violation <= 1e-8


def test_above_norm_bound_is_infeasible():
    # orthogonal pilots: Theta is diagonal PD, so the weight box is bounded
    cfg, net, pilots, phases, *_, problem = setup_instance(seed=4, K=2, tau_p=2, L=2)
    b, Theta, _, _ = dense_maxmin_matrices(net, pilots, phases, cfg)
    lam_min = np.linalg.eigvalsh(Theta).min()
    b_norm = np.linalg.norm(b, axis=1).max()
    noise_floor = float(np.min(problem.p_dp * problem.xi) + problem.sigma2)
    bound = (
        problem.p_dc * problem.eta_ap * problem.eta_ue
        * (cfg.K * cfg.L / lam_min) * b_norm**2 / noise_floor
    )
    verdict = opt.check_feasibility(problem, 2.0 * bound)
    assert not verdict.feasible


def test_feasible_set_is_down_closed():
    *_, problem = setup_instance(seed=6)
    res = opt.robust_common_precoding(problem, eps=1e-3)
    t_star = res.achieved_t
    for frac in (0.15, 0.5, 0.85):
        verdict = opt.check_feasibility(problem, frac * t_star)
        assert verdict.feasible
        assert np.min(problem.sinr(verdict.point)) >= frac * t_star - 1e-8


def test_feasible_point_passes_direct_verification():
    *_, problem = setup_instance(seed=8)
    verdict = opt.check_feasibility(problem, 0.1)
    assert verdict.feasible
    assert np.all(verdict.point >= 0)
    assert np.all(problem.power_norms(verdict.point) <= 1 + 1e-8)
    assert opt._verify_point(problem, verdict.point, 0.1) <= 1e-8


def test_verification_is_scale_free():
    # scaling every power by one factor leaves the SINRs unchanged, so the
    # certificate's measure of a missed target must not change either
    *_, problem = setup_instance(seed=8)
    scaled = dataclasses.replace(
        problem, p_dc=problem.p_dc * 1e6, p_dp=problem.p_dp * 1e6,
        sigma2=problem.sigma2 * 1e6,
    )
    y = opt.scaled_simple_weights(problem)
    t = 1.001 * float(np.min(problem.sinr(y)))
    assert np.allclose(scaled.sinr(y), problem.sinr(y), rtol=1e-12)
    viol = opt._verify_point(problem, y, t)
    assert viol > 0
    assert opt._verify_point(scaled, y, t) == pytest.approx(viol, rel=1e-9)


# ---------------------------------------------------------------------------
# robust precoding
# ---------------------------------------------------------------------------

def test_robust_beats_simple_baseline_and_stays_feasible():
    for seed in (1, 2, 3):
        cfg, net, pilots, phases, stats, terms, problem = setup_instance(
            seed=seed, K=2, tau_p=1, L=4
        )
        simple = opt.scaled_simple_weights(problem)
        t_simple = float(np.min(problem.sinr(simple)))
        res = opt.robust_common_precoding(problem)
        assert res.achieved_t >= t_simple - 1e-12
        y = per_set_y(problem, res.weights)
        assert opt._verify_point(problem, y, res.achieved_t) <= 1e-8
        achieved = float(np.min(problem.sinr(y)))
        assert res.bracket[0] - 1e-9 <= achieved <= res.bracket[1] + 1e-9


def test_robust_single_ue_hits_numeric_optimum():
    cfg, net, pilots, phases, stats, terms, problem = setup_instance(
        seed=9, K=1, tau_p=1, L=2
    )
    res = opt.robust_common_precoding(problem, eps=1e-6)
    # brute numeric maximization over the 2-d box (Theta is diagonal here)
    theta = dense_maxmin_matrices(net, pilots, phases, cfg)[1][:, 0, 0]
    amax = 1.0 / np.sqrt(theta)
    grid = np.stack(
        np.meshgrid(np.linspace(0, amax[0], 200), np.linspace(0, amax[1], 200),
                    indexing="ij"),
        axis=-1,
    ).reshape(-1, 2)
    norms = grid**2 * theta[None, :]
    feasible = grid[(norms <= 1.0).all(axis=1)]
    # one UE, one set: y = c * a
    best = max(float(np.min(problem.sinr(problem.c * a))) for a in feasible)
    assert res.achieved_t == pytest.approx(best, rel=5e-3)
    # optimum saturates the per-AP power at both APs for a single UE
    assert np.allclose(problem.power_norms(per_set_y(problem, res.weights)),
                       1.0, atol=1e-4)


def test_bottleneck_user_cannot_be_lifted_further():
    # the bisection's t* is tight: t* + margin is certified infeasible, and
    # every user sits at or above t* at the returned point
    cfg, net, pilots, phases, stats, terms, problem = setup_instance(
        seed=12, K=3, tau_p=1, L=5
    )
    res = opt.robust_common_precoding(problem, eps=1e-6)
    sinrs = problem.sinr(per_set_y(problem, res.weights))
    assert np.all(sinrs >= res.achieved_t - 1e-9)
    beyond = opt.check_feasibility(problem, res.achieved_t * 1.01)
    assert not beyond.feasible


def test_bisection_trace_emitted():
    *_, problem = setup_instance(seed=10)
    res = opt.robust_common_precoding(problem, eps=1e-3)
    events = {e["event"] for e in res.trace}
    assert "bisect" in events
    assert res.iterations > 0
