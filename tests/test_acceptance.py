"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The shared fixtures live in conftest: the desk-scale instance
is L=4, K=2, N=2, tau_p=2, tau_c=20 with a fixed seed, and the shared
batch holds 1e5 realizations with phases at {lambda, lambda+5, tau_c}.
"""

import dataclasses
import time

import numpy as np
import pytest

import cfrs
import cfrs.cli as cli
from cfrs import closed_form as cf
from cfrs import optimize as opt

from conftest import dense_maxmin_matrices, random_instance


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {status}: {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# 1. oracle equivalence, 8 closed-form families, 3% at 1e5 realizations
# ---------------------------------------------------------------------------

def test_criterion_1_oracle_equivalence(desk):
    cfg, net, pilots, phases, stats, terms = desk
    lam = cfg.estimation_instant
    instants = [lam, lam + 5, cfg.tau_c]
    start = time.time()
    batch = cfrs.sample_batch(net, pilots, stats, phases, cfg, 100_000, seed=7,
                              instants=instants)
    worst = 0.0
    worst_tag = ""
    for stream in ("private", "common"):
        for transmission in cf.TRANSMISSIONS:
            for scheme in cf.PRIVATE_SCHEMES:
                rho = 0.0 if stream == "private" else 0.5
                plan = cf.make_plan(terms, scheme, transmission, rho)
                results = cfrs.mc_sinr(batch, plan, net, cfg, instants, stats)
                for n, res in zip(instants, results):
                    closed = (
                        cf.private_sinr(terms, plan, phases, cfg, int(n))
                        if stream == "private"
                        else cf.common_sinr(terms, plan, phases, cfg, int(n))
                    )
                    mc = res.private if stream == "private" else res.common
                    rel = float(np.max(np.abs(mc - closed) / closed))
                    if rel > worst:
                        worst, worst_tag = rel, f"{stream}/{transmission}/{scheme}@n={n}"
    elapsed = time.time() - start
    report(
        1,
        worst <= 0.03 and elapsed < 300.0,
        f"8 families x 3 instants at 1e5 realizations: worst relative error "
        f"{worst:.4%} ({worst_tag}) <= 3%, runtime {elapsed:.1f}s < 300s",
    )


# ---------------------------------------------------------------------------
# 2. exact identities
# ---------------------------------------------------------------------------

def test_criterion_2_exact_identities(desk):
    cfg, net, pilots, phases, stats, terms = desk
    ns = cfg.data_instants()

    # (a) theta == 1 makes DF bitwise equal to DU in all four families
    unit_net = dataclasses.replace(net, theta=np.ones_like(net.theta))
    unit_terms = cf.TraceTerms.compute(unit_net, stats, pilots)
    ok_a = True
    for transmission in cf.TRANSMISSIONS:
        du = cf.make_plan(unit_terms, "du_mr", transmission, 0.4)
        df = cf.make_plan(unit_terms, "df_mr", transmission, 0.4)
        ok_a &= np.array_equal(
            cf.private_sinr(unit_terms, du, phases, cfg, ns),
            cf.private_sinr(unit_terms, df, phases, cfg, ns),
        )
        ok_a &= np.array_equal(
            cf.common_sinr(unit_terms, du, phases, cfg, ns),
            cf.common_sinr(unit_terms, df, phases, cfg, ns),
        )

    # (b) non-coherent private SINR identical for DU and DF at arbitrary theta
    du_nc = cf.make_plan(terms, "du_mr", "noncoherent", 0.3)
    df_nc = cf.make_plan(terms, "df_mr", "noncoherent", 0.3)
    ok_b = np.array_equal(
        cf.private_sinr(terms, du_nc, phases, cfg, ns),
        cf.private_sinr(terms, df_nc, phases, cfg, ns),
    )

    # (c) coherent DU private SINR invariant under random delay redraws
    plan_du = cf.make_plan(terms, "du_mr", "coherent", 0.2)
    ref = cf.private_sinr(terms, plan_du, phases, cfg, ns)
    rng = np.random.default_rng(123)
    ok_c = True
    for _ in range(5):
        redrawn = dataclasses.replace(
            terms, theta=np.exp(2j * np.pi * rng.random(net.theta.shape))
        )
        ok_c &= np.array_equal(ref, cf.private_sinr(redrawn, plan_du, phases, cfg, ns))

    # (d) rho = 0 gives the plain non-split sum SE
    rep = cf.evaluate_plan(terms, plan_du.replace_rho(0.0), phases, cfg)
    ok_d = rep.se_common == 0.0 and rep.sum_se == pytest.approx(
        float(np.sum(rep.se_private)), rel=1e-15
    )

    report(2, ok_a and ok_b and ok_c and ok_d,
           f"bitwise DF==DU at unit delays ({ok_a}), noncoherent DU==DF ({ok_b}), "
           f"DU invariant to delay redraws ({ok_c}), rho=0 recovers non-split SSE ({ok_d})")


# ---------------------------------------------------------------------------
# 3. estimation statistics
# ---------------------------------------------------------------------------

def test_criterion_3_estimation_statistics(desk, desk_batch):
    cfg, net, pilots, phases, stats, terms = desk
    batch, _ = desk_batch
    worst_frob = 0.0
    for k in range(cfg.K):
        for l in range(cfg.L):
            emp = np.einsum("rn,rm->nm", batch.hhat[:, k, l],
                            np.conj(batch.hhat[:, k, l])) / batch.count
            rel = np.linalg.norm(emp - stats.Q[k, l]) / np.linalg.norm(stats.Q[k, l])
            worst_frob = max(worst_frob, float(rel))

    rng = np.random.default_rng(2024)
    in_range = 0
    ls_wins = 0
    trials = 1000
    for _ in range(trials):
        _, _, _, _, s, _ = random_instance(rng)
        in_range += bool(np.all(s.nmse_mmse >= 0) and np.all(s.nmse_mmse <= 1))
        ls_wins += bool(np.all(s.nmse_ls >= s.nmse_mmse - 1e-12))

    report(
        3,
        worst_frob <= 0.02 and in_range == trials and ls_wins >= 0.99 * trials,
        f"estimate covariance vs Q worst Frobenius {worst_frob:.4%} <= 2%, "
        f"NMSE in [0,1] on {in_range}/{trials}, LS >= MMSE on {ls_wins}/{trials}",
    )


# ---------------------------------------------------------------------------
# 4. trend reproduction (estimation quality and sum SE vs oscillator drift)
# ---------------------------------------------------------------------------

def test_criterion_4_trends():
    cfg = cfrs.SystemConfig(L=40, K=8, N=2, tau_p=4, tau_c=200, seed=10)
    net = cfrs.build_network(cfg)
    pilots = cfrs.assign_pilots(cfg.K, cfg.tau_p)
    grid = np.logspace(-5, -2, 7)
    nmse_prev, sse_prev = None, None
    nmse_monotone, sse_monotone = True, True
    for var in grid:
        ph = cfrs.PhaseStatistics(var_ap=var, var_ue=var)
        stats = cfrs.estimation_statistics(net, pilots, ph, cfg)
        terms = cf.TraceTerms.compute(net, stats, pilots)
        plan = cf.make_plan(terms, "du_mr", "coherent", 0.0)
        sse = cf.evaluate_plan(terms, plan, ph, cfg).sum_se
        if nmse_prev is not None:
            nmse_monotone &= bool(np.all(stats.nmse_mmse >= nmse_prev - 1e-15))
            sse_monotone &= sse <= sse_prev + 1e-12
        nmse_prev, sse_prev = stats.nmse_mmse, sse

    big = cfrs.SystemConfig(L=100, K=8, N=2, tau_p=4, tau_c=200, seed=11)
    big_net = cfrs.build_network(big)
    big_pilots = cfrs.assign_pilots(big.K, big.tau_p)

    def sum_se_at(var_ap, var_ue):
        ph = cfrs.PhaseStatistics(var_ap=var_ap, var_ue=var_ue)
        stats = cfrs.estimation_statistics(big_net, big_pilots, ph, big)
        terms = cf.TraceTerms.compute(big_net, stats, big_pilots)
        plan = cf.make_plan(terms, "du_mr", "coherent", 0.0)
        return cf.evaluate_plan(terms, plan, ph, big).sum_se

    ue_heavy = sum_se_at(1e-5, 1e-3)
    ap_heavy = sum_se_at(1e-3, 1e-5)
    margin = (ap_heavy - ue_heavy) / ap_heavy
    report(
        4,
        nmse_monotone and sse_monotone and margin > 0.01,
        f"NMSE non-decreasing and DU-MR sum SE non-increasing over 1e-5..1e-2 "
        f"({nmse_monotone}/{sse_monotone}); UE-heavy drift costs more at L=100 "
        f"with margin {margin:.2%} > 1%",
    )


# ---------------------------------------------------------------------------
# 5. power-split search vs grid
# ---------------------------------------------------------------------------

def test_criterion_5_power_split_search():
    rng = np.random.default_rng(31)
    worst_gap = 0.0
    endpoint_ok = True
    for _ in range(10):
        cfg = cfrs.SystemConfig(
            L=int(rng.integers(3, 6)), K=2, N=2, tau_p=int(rng.integers(1, 3)),
            tau_c=20, seed=int(rng.integers(2**31)),
        )
        net = cfrs.build_network(cfg)
        pilots = cfrs.assign_pilots(cfg.K, cfg.tau_p)
        phases = cfrs.PhaseStatistics(
            float(rng.uniform(1e-4, 3e-3)), float(rng.uniform(1e-4, 3e-3))
        )
        stats = cfrs.estimation_statistics(net, pilots, phases, cfg)
        terms = cf.TraceTerms.compute(net, stats, pilots)
        plan0 = cf.make_plan(terms, "du_mr", "coherent", 0.0)

        def sse(r):
            return cf.evaluate_plan(terms, plan0.replace_rho(r), phases, cfg).sum_se

        rho_star, best = opt.optimal_rho(sse)
        grid_best = max(sse(r) for r in np.linspace(0.0, 1.0, 1000))
        worst_gap = max(worst_gap, grid_best - best)
        endpoint_ok &= best >= max(sse(0.0), sse(1.0)) - 1e-15
    report(
        5,
        worst_gap <= 1e-3 and endpoint_ok,
        f"10 instances: search within {worst_gap:.2e} <= 1e-3 bit/s/Hz of a "
        f"1000-point grid and never below the endpoints ({endpoint_ok})",
    )


# ---------------------------------------------------------------------------
# 6. robust common precoding
# ---------------------------------------------------------------------------

def test_criterion_6_robust_precoding():
    rng = np.random.default_rng(57)
    worst_violation = 0.0
    bracket_ok = True
    beats_simple = True
    for _ in range(10):
        cfg = cfrs.SystemConfig(
            L=int(rng.integers(2, 11)), K=int(rng.integers(2, 5)), N=2,
            tau_p=int(rng.integers(1, 3)), tau_c=20, seed=int(rng.integers(2**31)),
        )
        net = cfrs.build_network(cfg)
        pilots = cfrs.assign_pilots(cfg.K, cfg.tau_p)
        phases = cfrs.PhaseStatistics(
            float(rng.uniform(1e-4, 2e-3)), float(rng.uniform(1e-4, 2e-3))
        )
        stats = cfrs.estimation_statistics(net, pilots, phases, cfg)
        terms = cf.TraceTerms.compute(net, stats, pilots)
        problem = opt.build_maxmin_problem(terms, phases, cfg, rho=0.5)
        res = opt.robust_common_precoding(problem)
        a = problem.stack_weights(res.weights)
        worst_violation = max(worst_violation, opt._verify_point(problem, a, res.achieved_t))
        achieved = float(np.min(problem.sinr(a)))
        bracket_ok &= res.bracket[0] - 1e-9 <= achieved <= res.bracket[1] + 1e-9
        # min-UE common SE comparison over the whole block, robust vs scaled simple
        plan_rob = cf.make_plan(terms, "du_mr", "coherent", 0.5,
                                weights=res.weights, unit_eta=True)
        plan_sim = cf.make_plan(terms, "du_mr", "coherent", 0.5)
        rep_rob = cf.evaluate_plan(terms, plan_rob, phases, cfg)
        rep_sim = cf.evaluate_plan(terms, plan_sim, phases, cfg)
        beats_simple &= rep_rob.se_common >= rep_sim.se_common - 1e-12

    # K=2, L=2 feasibility boundary vs a refined brute-force grid over a.
    # With orthogonal pilots Theta_l is diagonal, so per-AP polar coordinates
    # (r_l, phi_l) cover the feasible weight set exactly, boundary included.
    cfg = cfrs.SystemConfig(L=2, K=2, N=2, tau_p=2, tau_c=20, seed=5)
    net = cfrs.build_network(cfg)
    pilots = cfrs.assign_pilots(2, 2)
    phases = cfrs.PhaseStatistics.from_config(cfg)
    stats = cfrs.estimation_statistics(net, pilots, phases, cfg)
    terms = cf.TraceTerms.compute(net, stats, pilots)
    problem = opt.build_maxmin_problem(terms, phases, cfg, rho=0.5)
    res = opt.robust_common_precoding(problem, eps=1e-6)
    H, M = dense_maxmin_matrices(terms)

    inv_sq = 1.0 / np.sqrt(np.einsum("lkk->lk", problem.Theta).real)  # (L, K)

    def grid_best(lo, hi, points=27):
        axes = [np.linspace(lo[j], hi[j], points) for j in range(4)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 4)
        r, phi = mesh[:, :2], mesh[:, 2:]
        a1 = r * np.cos(phi) * inv_sq[None, :, 0]
        a2 = r * np.sin(phi) * inv_sq[None, :, 1]
        A = np.stack([a1, a2], axis=-1).reshape(-1, 4)
        ab = A @ problem.b.T
        qh = np.einsum("ri,kij,rj->rk", A, H, A)
        qm = np.einsum("ri,kij,rj->rk", A, M, A)
        num = problem.p_dc * problem.eta_ap * problem.eta_ue * ab**2
        den = (problem.p_dc * (1 - problem.eta_ap) * qh + problem.p_dc * qm
               + problem.p_dc * problem.eta_ap * (1 - problem.eta_ue) * ab**2
               + problem.p_dp * problem.xi[None, :] + problem.sigma2)
        t = np.min(num / den, axis=1)
        i = int(np.argmax(t))
        return float(t[i]), mesh[i]

    lo = np.array([0.0, 0.0, 0.0, 0.0])
    hi = np.array([1.0, 1.0, np.pi / 2, np.pi / 2])
    t_grid, x_best = grid_best(lo, hi)
    span = hi - lo
    for _ in range(5):  # re-centered local refinement
        span = span * 0.3
        lo2 = np.maximum(x_best - span, 0.0)
        hi2 = np.minimum(x_best + span, [1.0, 1.0, np.pi / 2, np.pi / 2])
        t_grid, x_best = grid_best(lo2, hi2)
    boundary_gap = abs(t_grid - res.achieved_t) / res.achieved_t

    report(
        6,
        worst_violation <= 1e-8 and bracket_ok and beats_simple and boundary_gap <= 0.02,
        f"10 instances: worst constraint violation {worst_violation:.2e} <= 1e-8, "
        f"achieved SINR inside final bracket ({bracket_ok}), robust >= simple "
        f"common SE ({beats_simple}); K=2/L=2 boundary gap vs grid "
        f"{boundary_gap:.2%} <= 2%",
    )


# ---------------------------------------------------------------------------
# 7. per-AP transmit power constraint under Monte Carlo
# ---------------------------------------------------------------------------

def test_criterion_7_power_constraint(desk, desk_batch):
    cfg, net, pilots, phases, stats, terms = desk
    batch, _ = desk_batch
    problem = opt.build_maxmin_problem(terms, phases, cfg, rho=0.5)
    robust = opt.robust_common_precoding(problem)
    plans = {
        "du_mr/coherent/no-split": cf.make_plan(terms, "du_mr", "coherent", 0.0),
        "du_mr/coherent/split": cf.make_plan(terms, "du_mr", "coherent", 0.5),
        "df_mr/coherent/split": cf.make_plan(terms, "df_mr", "coherent", 0.7),
        "du_mr/noncoherent/split": cf.make_plan(terms, "du_mr", "noncoherent", 0.5),
        "df_mr/noncoherent/no-split": cf.make_plan(terms, "df_mr", "noncoherent", 0.0),
        "du_mr/power-control": cf.make_plan(
            terms, "du_mr", "coherent", 0.0, power_control_alpha=-1.0, net=net
        ),
        "du_mr/robust-common": cf.make_plan(
            terms, "du_mr", "coherent", 0.5, weights=robust.weights, unit_eta=True
        ),
    }
    worst = -np.inf
    ok = True
    for tag, plan in plans.items():
        mean, se = cfrs.transmit_power_stats(batch, plan, net, cfg, stats)
        slack = np.max((mean - 3 * se) / cfg.p_d - 1.0)
        worst = max(worst, float(slack))
        ok &= bool(np.all(mean - 3 * se <= cfg.p_d))
    report(
        7,
        ok,
        f"per-AP transmit power <= p_d within 3 stderr for all {len(plans)} plans "
        f"(worst normalized excess {worst:+.2e})",
    )


# ---------------------------------------------------------------------------
# 8. qualitative splitting gain at the default configuration
# ---------------------------------------------------------------------------

def test_criterion_8_splitting_gain():
    gains = []
    for rep in range(20):
        cfg = cfrs.SystemConfig(L=40, K=8, N=2, tau_p=4, tau_c=200, seed=500 + rep)
        net = cfrs.build_network(cfg)
        pilots = cfrs.assign_pilots(cfg.K, cfg.tau_p)
        phases = cfrs.PhaseStatistics.from_config(cfg)
        stats = cfrs.estimation_statistics(net, pilots, phases, cfg)
        terms = cf.TraceTerms.compute(net, stats, pilots)
        plan0 = cf.make_plan(terms, "du_mr", "coherent", 0.0)

        def sse(r):
            return cf.evaluate_plan(terms, plan0.replace_rho(r), phases, cfg).sum_se

        _, best = opt.optimal_rho(sse)
        gains.append(best - sse(0.0))
    mean_gain = float(np.mean(gains))
    hard_ok = all(g >= 0.0 for g in gains)
    soft_ok = 0.5 <= mean_gain <= 3.0
    report(
        8,
        hard_ok,
        f"splitting gain over 20 topologies: mean {mean_gain:.2f} bit/s/Hz "
        f"(min {min(gains):.2f}, max {max(gains):.2f}); hard requirement gain >= 0 "
        f"({hard_ok}), soft 0.5..3 target {'met' if soft_ok else 'NOT met'}",
    )


# ---------------------------------------------------------------------------
# 9. byte-identical replay of a sweep
# ---------------------------------------------------------------------------

def test_criterion_9_replay(tmp_path):
    spec = cli.spec_from_dict({
        "system": {
            "L": 4, "K": 2, "N": 2, "tau_p": 2, "tau_c": 20,
            "pilot_power": "20 dBm", "downlink_power": "23 dBm",
            "noise_ul": "-96 dBm", "noise_dl": "-96 dBm",
            "symbol_duration_s": 1e-5, "carrier_hz": 2e9,
            "osc_constant_ap": 1e-18, "osc_constant_ue": 1e-18,
            "area_side_m": 100.0, "seed": 77,
        },
        "sweep": {"parameter": "oscillator_variance",
                  "values": ["-50 dB", "-35 dB", "-20 dB"]},
        "schemes": [
            {"private": "du_mr", "transmission": "coherent", "rs": True},
            {"private": "df_mr", "transmission": "coherent", "rs": False},
        ],
        "repetitions": 2,
        "output": str(tmp_path / "run1"),
    })
    out1 = cli.run_experiment(spec)
    code = cli.main(["sweep", "--replay", str(out1 / "manifest.json"),
                     "--out", str(tmp_path / "run2")])
    same_results = (out1 / "results.csv").read_bytes() == (
        tmp_path / "run2" / "results.csv").read_bytes()
    same_agg = (out1 / "aggregate.csv").read_bytes() == (
        tmp_path / "run2" / "aggregate.csv").read_bytes()
    report(
        9,
        code == 0 and same_results and same_agg,
        f"sweep replayed from its manifest: results.csv byte-identical "
        f"({same_results}), aggregate.csv byte-identical ({same_agg})",
    )
