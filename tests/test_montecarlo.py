import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

import cfrs
from cfrs import closed_form as cf
from cfrs import montecarlo as mc


def small_setup(seed=1, L=2, K=2, N=2, tau_p=2, var=1e-3):
    cfg = cfrs.SystemConfig(L=L, K=K, N=N, tau_p=tau_p, tau_c=20, seed=seed)
    net = cfrs.build_network(cfg)
    pilots = cfrs.assign_pilots(K, tau_p)
    phases = cfrs.PhaseStatistics(var, var)
    stats = cfrs.estimation_statistics(net, pilots, phases, cfg)
    terms = cf.TraceTerms.compute(net, stats, pilots)
    return cfg, net, pilots, phases, stats, terms


def test_channel_sampler_covariance(desk, desk_batch):
    cfg, net, _, _, _, _ = desk
    batch, _ = desk_batch
    for k in range(cfg.K):
        for l in range(cfg.L):
            emp = np.einsum("nr,mr->nm", batch.h[k, l],
                            np.conj(batch.h[k, l])) / batch.count
            rel = np.linalg.norm(emp - net.R[k, l]) / np.linalg.norm(net.R[k, l])
            assert rel < 0.02


def test_batches_identical_for_same_seed(desk):
    cfg, net, pilots, phases, stats, _ = desk
    a = cfrs.sample_batch(net, pilots, stats, phases, cfg, 5000, seed=42, instants=[10])
    b = cfrs.sample_batch(net, pilots, stats, phases, cfg, 5000, seed=42, instants=[10])
    assert np.array_equal(a.h, b.h)
    assert np.array_equal(a.hhat, b.hhat)
    assert np.array_equal(a.ue_factor, b.ue_factor)
    assert np.array_equal(a.ap_factor, b.ap_factor)
    c = cfrs.sample_batch(net, pilots, stats, phases, cfg, 5000, seed=43, instants=[10])
    assert not np.array_equal(a.h, c.h)


def test_mc_sinr_outputs_bitwise_deterministic():
    cfg, net, pilots, phases, stats, terms = small_setup(seed=2)
    plan = cf.make_plan(terms, "du_mr", "coherent", 0.5)
    n = cfg.estimation_instant + 3
    outs = []
    for _ in range(2):
        batch = cfrs.sample_batch(net, pilots, stats, phases, cfg, 3000, seed=8, instants=[n])
        outs.append(cfrs.mc_sinr(batch, plan, n))
    assert np.array_equal(outs[0].private, outs[1].private)
    assert np.array_equal(outs[0].common, outs[1].common)
    assert np.array_equal(outs[0].private_stderr, outs[1].private_stderr)


def test_instants_outside_data_segment_rejected(desk, desk_batch):
    cfg, net, pilots, phases, stats, terms = desk
    plan = cf.make_plan(terms, "du_mr", "coherent", 0.0)
    batch = cfrs.sample_batch(net, pilots, stats, phases, cfg, 500, seed=1, instants=[5])
    with pytest.raises(ValueError, match="instants"):
        cfrs.mc_sinr(batch, plan, cfg.tau_p)  # pilot region
    for bad in ([-1], [cfg.tau_c + 480]):  # before the first instant, past the block
        with pytest.raises(ValueError, match="instants"):
            cfrs.sample_batch(net, pilots, stats, phases, cfg, 500, seed=1, instants=bad)


def test_batch_keeps_the_estimation_and_requested_instants(desk):
    cfg, net, pilots, phases, stats, _ = desk
    lam = cfg.estimation_instant
    requested = [12, lam + 5, 12]
    batch = cfrs.sample_batch(net, pilots, stats, phases, cfg, 5000, seed=42,
                              instants=requested)
    assert list(batch.instants) == sorted({lam, *requested})
    drawn = mc._phase_instants(pilots, cfg, requested)
    assert drawn[0] < lam  # the pilot instants are drawn, not kept
    columns = [drawn.index(n) for n in batch.instants]
    # realizations last, and bitwise the drawn chunks with that axis moved
    M = len(batch.instants)
    assert batch.h.shape == batch.hhat.shape == (cfg.K, cfg.L, cfg.N, 5000)
    assert batch.ue_factor.shape == (cfg.K, M, 5000)
    assert batch.ap_factor.shape == (cfg.L, M, 5000)
    chunks = list(mc._draw_chunks(net, pilots, stats, phases, cfg, 5000, 42, requested))
    assert len(chunks) > 1
    h, hhat, ue, ap = (np.moveaxis(np.concatenate([c[i] for c in chunks]), 0, -1)
                       for i in range(4))
    assert np.array_equal(batch.h, h)
    assert np.array_equal(batch.hhat, hhat)
    # the stored phase factors are exp(-i phase) of the drawn phases
    assert np.array_equal(batch.ue_factor, mc._phasor(-ue[:, columns]))
    assert np.array_equal(batch.ap_factor, mc._phasor(-ap[:, columns]))
    for factor in (batch.ue_factor, batch.ap_factor):
        assert np.all(np.abs(np.abs(factor) - 1.0) <= 1e-15)


def test_oracle_uses_the_callers_estimation_statistics(desk, monkeypatch):
    cfg, net, pilots, phases, stats, terms = desk

    def recomputed(*args):
        raise AssertionError("the oracle must not recompute estimation statistics")

    monkeypatch.setattr(cfrs.estimation, "estimation_statistics", recomputed)
    n = cfg.estimation_instant + 2
    batch = cfrs.sample_batch(net, pilots, stats, phases, cfg, 500, seed=2, instants=[n])
    plan = cf.make_plan(terms, "du_mr", "coherent", 0.0)
    res = cfrs.mc_sinr(batch, plan, n)
    assert np.all(np.isfinite(res.private)) and np.all(res.private > 0)


def test_zero_phase_variance_gives_classic_mmse_estimates():
    cfg, net, pilots, phases, stats, _ = small_setup(var=0.0)
    (_, hhat, _, _, z), = mc._draw_chunks(net, pilots, stats, phases, cfg, 500, 3, ())
    p = cfg.pilot_powers()
    group_of = {k: g for g, grp in enumerate(pilots.groups) for k in grp}
    for k in range(cfg.K):
        members = [i for i in range(cfg.K) if pilots.t[i] == pilots.t[k]]
        for l in range(cfg.L):
            cov = cfg.sigma2_ul * np.eye(cfg.N, dtype=complex)
            for i in members:
                cov += p[i] * net.R[i, l]
            classic = (
                np.sqrt(p[k]) * np.conj(net.theta[k, l])
                * net.R[k, l] @ np.linalg.inv(cov)
            )
            expected = z[:, group_of[k], l] @ classic.T
            assert np.allclose(expected, hhat[:, k, l], rtol=1e-10)


def test_ds_term_matches_statistical_value(desk, desk_batch):
    cfg, net, pilots, phases, stats, terms = desk
    batch, instants = desk_batch
    n = instants[1]
    plan = cf.make_plan(terms, "du_mr", "coherent", 0.0)
    uatf = cfrs.mc_sinr(batch, plan, n).terms
    lam = cfg.estimation_instant
    decay = np.exp(-(n - lam) * phases.var_sum / 2.0)
    expected = decay * np.sqrt(plan.mu) * terms.tr_Q
    assert np.all(np.abs(uatf.ds - expected) <= 3 * uatf.ds_stderr + 1e-12)


def test_interference_self_term_single_link():
    # one AP, one UE, no phases: E|h^H v|^2 = mu (tr(QR) + tr(Q)^2)
    cfg, net, pilots, phases, stats, terms = small_setup(L=1, K=1, tau_p=1, var=0.0)
    batch = cfrs.sample_batch(net, pilots, stats, phases, cfg, 200_000, seed=9)
    plan = cf.make_plan(terms, "du_mr", "coherent", 0.0)
    uatf = cfrs.mc_sinr(batch, plan, cfg.estimation_instant).terms
    expected = plan.mu[0, 0] * (terms.tr_QR[0, 0, 0] + terms.tr_Q[0, 0] ** 2)
    assert abs(uatf.int_[0, 0] - expected) <= 3 * uatf.int_stderr[0, 0]


def test_uatf_variance_nonnegativity(desk, desk_batch):
    cfg, net, pilots, phases, stats, terms = desk
    batch, instants = desk_batch
    plan = cf.make_plan(terms, "du_mr", "coherent", 0.5)
    uatf = cfrs.mc_sinr(batch, plan, instants[0]).terms
    for k in range(cfg.K):
        ds_power = np.abs(uatf.ds[k].sum()) ** 2
        tol = 6 * uatf.int_stderr[k, k] + 6 * np.sum(uatf.ds_stderr[k])
        assert uatf.int_[k, k] >= ds_power - tol


def test_small_batches_rejected(desk):
    cfg, net, pilots, phases, stats, terms = desk
    batch = cfrs.sample_batch(net, pilots, stats, phases, cfg, 50, seed=1)
    plan = cf.make_plan(terms, "du_mr", "coherent", 0.0)
    with pytest.raises(ValueError):
        cfrs.mc_sinr(batch, plan, cfg.estimation_instant)
    with pytest.raises(ValueError):
        cfrs.transmit_power_stats(batch, plan)


def test_power_extremes_zero_out_streams(desk, desk_batch):
    cfg, net, pilots, phases, stats, terms = desk
    batch, instants = desk_batch
    n = instants[0]
    all_common = cf.make_plan(terms, "du_mr", "coherent", 1.0)
    res = cfrs.mc_sinr(batch, all_common, n)
    assert np.all(res.private == 0.0)
    no_common = cf.make_plan(terms, "du_mr", "coherent", 0.0)
    res0 = cfrs.mc_sinr(batch, no_common, n)
    assert np.all(res0.common == 0.0)


def test_confidence_intervals_cover_reference():
    # CIs from independent small batches must cover a 2M-realization
    # reference estimate in at least ~95% of trials
    cfg, net, pilots, phases, stats, terms = small_setup(seed=4, L=4, K=2)
    plan = cf.make_plan(terms, "du_mr", "coherent", 0.5)
    n = cfg.estimation_instant + 5
    ref_batch = cfrs.sample_batch(net, pilots, stats, phases, cfg, 2_000_000, seed=999,
                                  instants=[n])
    ref = cfrs.mc_sinr(ref_batch, plan, n)
    covered = 0
    trials = 0
    for seed in range(30):
        batch = cfrs.sample_batch(net, pilots, stats, phases, cfg, 20_000, seed=seed,
                                  instants=[n])
        res = cfrs.mc_sinr(batch, plan, n)
        for k in range(cfg.K):
            trials += 2
            covered += res.private_ci[k, 0] <= ref.private[k] <= res.private_ci[k, 1]
            covered += res.common_ci[k, 0] <= ref.common[k] <= res.common_ci[k, 1]
    # binomial(120, 0.95): >= 107 with probability > 0.99
    assert covered >= 107, f"coverage {covered}/{trials}"


def test_intervals_at_the_realization_floor_cover_reference():
    # at 100 realizations each jackknife group holds 10; the t intervals must
    # still cover a 1e6-realization reference in about 95% of trials
    cfg, net, pilots, phases, stats, terms = small_setup(seed=4, L=4, K=2)
    plan = cf.make_plan(terms, "du_mr", "coherent", 0.5)
    n = cfg.estimation_instant + 5
    ref_batch = cfrs.sample_batch(net, pilots, stats, phases, cfg, 1_000_000, seed=999,
                                  instants=[n])
    ref = cfrs.mc_sinr(ref_batch, plan, n)
    del ref_batch
    covered = 0
    for seed in range(100):
        batch = cfrs.sample_batch(net, pilots, stats, phases, cfg, mc.MIN_REALIZATIONS,
                                  seed=seed, instants=[n])
        res = cfrs.mc_sinr(batch, plan, n)
        for ci, value in ((res.private_ci, ref.private), (res.common_ci, ref.common)):
            covered += int(np.sum((ci[:, 0] <= value) & (value <= ci[:, 1])))
    # binomial(400, 0.95): >= 366 with probability > 0.999
    assert covered >= 366, f"coverage {covered}/400"


def test_jackknife_groups_are_fixed_and_memory_capped():
    for count, K, L in ((100, 2, 4), (127, 2, 4), (640, 2, 4), (100_000, 2, 4),
                        (100_000, 8, 40), (1000, 32, 200)):
        batch = SimpleNamespace(count=count, net=SimpleNamespace(K=K, L=L))
        counts, slices = mc._batch_blocks(batch)
        edges = np.linspace(0, count, mc.JACKKNIFE_GROUPS + 1).astype(int)
        assert np.array_equal(counts, np.diff(edges))
        cap = max(64, mc._WORK_ELEMENTS // (K * K * L))
        # the slices tile the realizations in order, each inside its group
        assert [sl.start for _, sl in slices[1:]] == [sl.stop for _, sl in slices[:-1]]
        assert slices[0][1].start == 0 and slices[-1][1].stop == count
        for b, sl in slices:
            assert edges[b] <= sl.start < sl.stop <= edges[b + 1]
            assert sl.stop - sl.start <= cap


def test_memory_capped_slices_add_up_to_their_group(desk, monkeypatch):
    cfg, net, pilots, phases, stats, terms = desk
    instants = [cfg.estimation_instant, cfg.tau_c]
    batch = cfrs.sample_batch(net, pilots, stats, phases, cfg, 1000, seed=3, instants=instants)
    plans = [cf.make_plan(terms, scheme, transmission, 0.5)
             for scheme in cf.PRIVATE_SCHEMES for transmission in cf.TRANSMISSIONS]
    whole = [(cfrs.mc_sinr(batch, plan, instants), cfrs.transmit_power_stats(batch, plan))
             for plan in plans]
    monkeypatch.setattr(mc, "_WORK_ELEMENTS", 1)  # 64-realization slices
    assert len(mc._batch_blocks(batch)[1]) == 2 * mc.JACKKNIFE_GROUPS
    for plan, (results, power) in zip(plans, whole):
        for res, ref in zip(cfrs.mc_sinr(batch, plan, instants), results):
            for field in ("private", "private_stderr", "common", "common_stderr"):
                assert_close(getattr(res, field), getattr(ref, field))
        for actual, expected in zip(cfrs.transmit_power_stats(batch, plan), power):
            assert_close(actual, expected)


def test_confidence_interval_clt_scaling(desk):
    cfg, net, pilots, phases, stats, terms = desk
    plan = cf.make_plan(terms, "du_mr", "coherent", 0.0)
    n = cfg.estimation_instant + 5
    widths = []
    for count in (1000, 10_000, 100_000):
        per_seed = []
        for seed in (11, 12, 13, 14):
            batch = cfrs.sample_batch(net, pilots, stats, phases, cfg, count, seed, instants=[n])
            res = cfrs.mc_sinr(batch, plan, n)
            per_seed.append(np.mean(res.private_ci[:, 1] - res.private_ci[:, 0]))
        widths.append(np.mean(per_seed))
    slope = np.polyfit(np.log10([1e3, 1e4, 1e5]), np.log10(widths), 1)[0]
    assert abs(slope + 0.5) < 0.1  # within 20% of the CLT exponent


def test_mc_matches_closed_form_under_pilot_contamination():
    # K > tau_p exercises the cross-UE estimate coupling in every family
    cfg, net, pilots, phases, stats, terms = small_setup(
        seed=6, L=3, K=4, tau_p=2, var=1.2e-3
    )
    assert any(len(g) > 1 for g in pilots.groups)
    n = cfg.estimation_instant + 4
    batch = cfrs.sample_batch(net, pilots, stats, phases, cfg, 60_000, seed=17, instants=[n])
    for transmission in cf.TRANSMISSIONS:
        for scheme in cf.PRIVATE_SCHEMES:
            plan = cf.make_plan(terms, scheme, transmission, 0.5)
            res = cfrs.mc_sinr(batch, plan, n)
            closed_p = cf.private_sinr(terms, plan, phases, cfg, n)
            closed_c = cf.common_sinr(terms, plan, phases, cfg, n)
            assert np.all(np.abs(res.private - closed_p) / closed_p < 0.04), (
                transmission, scheme)
            assert np.all(np.abs(res.common - closed_c) / closed_c < 0.04), (
                transmission, scheme)


def test_mc_matches_closed_form_with_power_control(desk, desk_batch):
    cfg, net, pilots, phases, stats, terms = desk
    batch, instants = desk_batch
    mu = cf.power_control_coefficients(terms, net, alpha=-1.0)
    plan = cf.make_plan(terms, "du_mr", "coherent", 0.0, power_control_alpha=-1.0, net=net)
    res = cfrs.mc_sinr(batch, plan, instants[1])
    closed = cf.private_sinr(terms, plan, phases, cfg, instants[1])
    assert np.all(np.abs(res.private - closed) / closed < 0.03)


def test_per_ap_power_within_limit(desk, desk_batch):
    cfg, net, pilots, phases, stats, terms = desk
    batch, _ = desk_batch
    plans = [
        cf.make_plan(terms, "du_mr", "coherent", 0.0),
        cf.make_plan(terms, "du_mr", "coherent", 0.5),
        cf.make_plan(terms, "df_mr", "coherent", 0.9),
        cf.make_plan(terms, "du_mr", "noncoherent", 0.5),
        cf.make_plan(terms, "df_mr", "noncoherent", 0.0),
        cf.make_plan(terms, "du_mr", "coherent", 0.3, power_control_alpha=-1.0, net=net),
    ]
    for plan in plans:
        mean, se = cfrs.transmit_power_stats(batch, plan)
        assert np.all(mean - 3 * se <= cfg.p_d), (
            plan.private_scheme, plan.transmission, plan.rho, mean / cfg.p_d)


# ---------------------------------------------------------------------------
# factored accumulation
# ---------------------------------------------------------------------------

def direct_terms(batch, plan, n):
    """Per-realization DS/INT terms at instant n from the rotated channel,
    realizations on the last axis.

    The plain formula: g = theta exp(i(ue + ap)) h, d[k,i,l] = g[k,l]^H v[i,l],
    then the private and common desired-signal and interference terms.
    """
    net = batch.net
    col = batch.instant_index(n)
    v = mc.private_precoders(batch.hhat, net, plan.private_scheme)
    # exp(i(ue + ap)) from the stored factors exp(-i ue) and exp(-i ap)
    rotation = np.conj(batch.ue_factor[:, None, col] * batch.ap_factor[None, :, col])
    g = net.theta[:, :, None, None] * rotation[:, :, None] * batch.h
    d = np.einsum("klnr,ilnr->kilr", np.conj(g), v)
    sq_mu, sq_eta = np.sqrt(plan.mu), np.sqrt(plan.eta)
    ds = sq_mu[..., None] * np.einsum("kklr->klr", d)
    e = np.einsum("il,kilr->klr", plan.weights, d)
    ds_c = sq_eta[:, None] * e
    if plan.transmission == "coherent":
        int_ = np.abs(np.einsum("il,kilr->kir", sq_mu, d)) ** 2
        int_c = np.abs(ds_c.sum(axis=1)) ** 2
    else:
        int_ = np.einsum("il,kilr->kir", plan.mu, np.abs(d) ** 2)
        int_c = np.einsum("l,klr->kr", plan.eta, np.abs(e) ** 2)
    common = float(plan.rho > 0)  # no common stream, no common terms
    return ds, int_, common * ds_c, common * int_c


def jackknife_groups(batch):
    """The batch's jackknife groups as whole slices, and their realization counts."""
    counts, _ = mc._batch_blocks(batch)
    edges = np.concatenate([[0], np.cumsum(counts)])
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])], counts


def assert_close(actual, expected):
    """Every entry within 1e-12 of the largest |entry| of the reference."""
    scale = np.max(np.abs(expected))
    assert np.all(np.abs(actual - expected) <= 1e-12 * scale), np.max(np.abs(actual - expected))


def assert_groups_span_partial_slices(batch):
    """Every jackknife group is cut into at least two slices, the last one short."""
    counts, slices = mc._batch_blocks(batch)
    cap = max(64, mc._WORK_ELEMENTS // (batch.net.K ** 2 * batch.net.L))
    for b in range(len(counts)):
        sizes = [sl.stop - sl.start for group, sl in slices if group == b]
        assert len(sizes) >= 2 and 0 < sizes[-1] < cap, sizes


def check_factored_accumulation():
    """Check every estimator output against the plain per-realization formula;
    returns the batch it checked."""
    # co-pilot groups (K > tau_p), three antennas, delay phases spread over the
    # whole circle and ten times the default oscillator variance
    cfg = cfrs.SystemConfig(L=3, K=3, N=3, tau_p=2, tau_c=20, seed=5)
    default = cfrs.PhaseStatistics.from_config(cfg)
    phases = cfrs.PhaseStatistics(10 * default.var_ap, 10 * default.var_ue)
    theta = np.exp(2j * np.pi * np.random.default_rng(0).random((cfg.K, cfg.L)))
    net = dataclasses.replace(cfrs.build_network(cfg), theta=theta)
    pilots = cfrs.assign_pilots(cfg.K, cfg.tau_p)
    assert any(len(g) > 1 for g in pilots.groups)
    stats = cfrs.estimation_statistics(net, pilots, phases, cfg)
    terms = cf.TraceTerms.compute(net, stats, pilots)
    instants = [cfg.estimation_instant, cfg.estimation_instant + 6, cfg.tau_c]
    batch = cfrs.sample_batch(net, pilots, stats, phases, cfg, 1000, seed=4, instants=instants)
    groups, counts = jackknife_groups(batch)
    assert len(groups) == mc.JACKKNIFE_GROUPS
    for scheme in cf.PRIVATE_SCHEMES:
        for transmission in cf.TRANSMISSIONS:
            for rho in (0.0, 0.5):
                plan = cf.make_plan(terms, scheme, transmission, rho)
                per_instant = [direct_terms(batch, plan, n) for n in instants]
                # (B, M, ...) block sums of each term, as the jackknife reads them
                blocks = [np.stack([np.stack([t[i][..., sl].sum(axis=-1) for sl in groups])
                                    for t in per_instant], axis=1) for i in range(4)]
                sums = mc._BlockSums(counts, *blocks, coherent=transmission == "coherent")
                for m, res in enumerate(cfrs.mc_sinr(batch, plan, instants)):
                    expected = mc._jackknife(sums, plan, cfg, m)
                    for actual, ref in zip((res.private, res.private_stderr,
                                            res.common, res.common_stderr), expected):
                        assert_close(actual, ref)
                    uatf = res.terms
                    for i, (mean, se) in enumerate([
                            (uatf.ds, uatf.ds_stderr), (uatf.int_, uatf.int_stderr),
                            (uatf.ds_common, uatf.ds_common_stderr),
                            (uatf.int_common, uatf.int_common_stderr)]):
                        assert_close(mean, per_instant[m][i].mean(axis=-1))
                        assert_close(se, mc._mean_and_stderr(blocks[i][:, m], counts)[1])
    return batch


def test_factored_accumulation_matches_direct_formula():
    check_factored_accumulation()


def test_factored_accumulation_over_partial_slices(monkeypatch):
    monkeypatch.setattr(mc, "_WORK_ELEMENTS", 1)  # 64-realization slices
    assert_groups_span_partial_slices(check_factored_accumulation())


def test_noncoherent_interference_does_not_depend_on_the_instant(desk, desk_batch):
    # the phase factors have unit modulus, so per-AP interference powers carry no phase
    cfg, net, pilots, phases, stats, terms = desk
    batch, _ = desk_batch
    lam, end = cfg.estimation_instant, cfg.tau_c
    assert phases.var_ap > 0 and phases.var_ue > 0
    plan = cf.make_plan(terms, "du_mr", "noncoherent", 0.5)
    first, last = (cfrs.mc_sinr(batch, plan, n).terms for n in (lam, end))
    assert np.array_equal(first.int_, last.int_)
    assert np.array_equal(first.int_common, last.int_common)
    assert not np.array_equal(first.ds, last.ds)
    coherent = cf.make_plan(terms, "du_mr", "coherent", 0.5)
    first, last = (cfrs.mc_sinr(batch, coherent, n).terms for n in (lam, end))
    assert not np.array_equal(first.int_, last.int_)


def check_transmit_power(desk, batch):
    """Check transmit_power_stats against per-realization power sums."""
    cfg, net, pilots, phases, stats, terms = desk
    groups, _ = jackknife_groups(batch)
    for plan in (cf.make_plan(terms, "du_mr", "coherent", 0.5),
                 cf.make_plan(terms, "df_mr", "noncoherent", 0.0)):
        p_dp, p_dc = (1.0 - plan.rho) * cfg.p_d, plan.rho * cfg.p_d
        v = mc.private_precoders(batch.hhat, net, plan.private_scheme)
        v_c = np.einsum("il,ilnr->lnr", plan.weights, v)
        power = (p_dp * np.einsum("il,ilr->lr", plan.mu, np.sum(np.abs(v) ** 2, axis=2))
                 + p_dc * plan.eta[:, None] * np.sum(np.abs(v_c) ** 2, axis=1))  # (L, count)
        total = power.sum(axis=-1)
        loo = np.array([(total - power[:, sl].sum(axis=-1)) / (batch.count - (sl.stop - sl.start))
                        for sl in groups])
        B = len(groups)
        stderr = np.sqrt((B - 1) / B * np.sum((loo - loo.mean(axis=0)) ** 2, axis=0))
        mean, se = cfrs.transmit_power_stats(batch, plan)
        assert np.all(np.abs(mean - total / batch.count) <= 1e-12 * total / batch.count)
        assert np.all(np.abs(se - stderr) <= 1e-12 * stderr)


def test_transmit_power_matches_per_realization_sums(desk, desk_batch):
    check_transmit_power(desk, desk_batch[0])


def test_transmit_power_over_partial_slices(desk, desk_batch, monkeypatch):
    monkeypatch.setattr(mc, "_WORK_ELEMENTS", 1)  # 64-realization slices
    assert_groups_span_partial_slices(desk_batch[0])
    check_transmit_power(desk, desk_batch[0])


def test_plans_of_another_network_are_rejected(desk, desk_batch):
    # a mismatch names both shapes instead of failing inside, or being
    # truncated by, the sums over UEs and APs
    cfg, net, pilots, phases, stats, terms = desk
    batch, instants = desk_batch
    three_ues = small_setup(L=cfg.L, K=3, tau_p=2)[-1]
    wide = cf.make_plan(three_ues, "du_mr", "coherent", 0.5)
    plan = cf.make_plan(terms, "du_mr", "noncoherent", 0.5)
    long_eta = dataclasses.replace(plan, eta=np.ones(cfg.L + 1))
    for bad, message in ((wide, r"mu has shape \(3, 4\).*needs \(2, 4\)"),
                         (long_eta, r"eta has shape \(5,\).*needs \(4,\)")):
        with pytest.raises(ValueError, match=message):
            cfrs.mc_sinr(batch, bad, instants[0])
        with pytest.raises(ValueError, match=message):
            cfrs.transmit_power_stats(batch, bad)
