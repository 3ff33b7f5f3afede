import dataclasses
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import cfrs
from cfrs import closed_form as cf
from cfrs import montecarlo as mc

from conftest import (DESK_DRAW, batch_arrays, dense_R, drawn_chunks, private_precoders,
                      to_eigenbasis)


def small_setup(seed=1, L=2, K=2, N=2, tau_p=2, var=1e-3):
    cfg = cfrs.SystemConfig(L=L, K=K, N=N, tau_p=tau_p, tau_c=20, seed=seed)
    net = cfrs.build_network(cfg)
    pilots = cfrs.assign_pilots(K, tau_p)
    phases = cfrs.PhaseStatistics(var, var)
    stats = cfrs.estimation_statistics(net, pilots, phases, cfg)
    terms = cf.TraceTerms.compute(net, stats, pilots)
    return cfg, net, pilots, phases, stats, terms


def test_channel_sampler_covariance(desk, desk_arrays):
    cfg, net, _, _, _, _ = desk
    h = desk_arrays.h
    for k in range(cfg.K):
        for l in range(cfg.L):
            emp = np.einsum("nr,mr->nm", h[k, l],
                            np.conj(h[k, l])) / desk_arrays.count
            # drawn in T's eigenbasis, where R[k, l] is diag(beta[k, l] * lam)
            R = np.diag(net.beta[k, l] * net.lam)
            rel = np.linalg.norm(emp - R) / np.linalg.norm(R)
            assert rel < 0.02


def test_batches_identical_for_same_seed(desk):
    cfg, net, pilots, phases, stats, _ = desk
    a, b = (batch_arrays(net, pilots, stats, phases, cfg, 5000, 42, [10]) for _ in range(2))
    assert np.array_equal(a.h, b.h)
    assert np.array_equal(a.hhat, b.hhat)
    assert np.array_equal(a.ue_factor, b.ue_factor)
    assert np.array_equal(a.ap_factor, b.ap_factor)
    c = batch_arrays(net, pilots, stats, phases, cfg, 5000, 43, [10])
    assert not np.array_equal(a.h, c.h)


def test_mc_sinr_outputs_bitwise_deterministic():
    cfg, net, pilots, phases, stats, terms = small_setup(seed=2)
    plan = cf.make_plan(terms, "du_mr", "coherent", 0.5)
    n = cfg.estimation_instant + 3
    outs = []
    for _ in range(2):
        batch = cfrs.sample_batch(net, pilots, stats, phases, cfg, 3000, seed=8, instants=[n],
                                  plans=[plan])
        outs.append(cfrs.mc_sinr(batch, plan, n))
    assert np.array_equal(outs[0].private, outs[1].private)
    assert np.array_equal(outs[0].common, outs[1].common)
    assert np.array_equal(outs[0].private_stderr, outs[1].private_stderr)


def test_instants_outside_data_segment_rejected(desk):
    cfg, net, pilots, phases, stats, terms = desk
    plan = cf.make_plan(terms, "du_mr", "coherent", 0.0)
    batch = cfrs.sample_batch(net, pilots, stats, phases, cfg, 500, seed=1, instants=[5],
                              plans=[plan])
    with pytest.raises(ValueError, match="instants"):
        cfrs.mc_sinr(batch, plan, cfg.tau_p)  # pilot region
    for bad in ([-1], [cfg.tau_c + 480]):  # before the first instant, past the block
        with pytest.raises(ValueError, match="instants"):
            cfrs.sample_batch(net, pilots, stats, phases, cfg, 500, seed=1, instants=bad,
                              plans=[plan])


def test_batch_keeps_the_estimation_and_requested_instants(desk):
    cfg, net, pilots, phases, stats, terms = desk
    lam = cfg.estimation_instant
    requested = [12, lam + 5, 12]
    plan = cf.make_plan(terms, "du_mr", "coherent", 0.5)
    batch = cfrs.sample_batch(net, pilots, stats, phases, cfg, 5000, seed=42,
                              instants=requested, plans=[plan])
    assert list(batch.instants) == sorted({lam, *requested})
    assert [res.instant for res in cfrs.mc_sinr(batch, plan, batch.instants)] == list(
        batch.instants)
    drawn = mc._phase_instants(pilots, cfg, requested)
    assert drawn[0] < lam  # the pilot instants are drawn, not kept
    columns = [drawn.index(n) for n in batch.instants]
    # the kept instants redraw what the requested instants draw, chunk by chunk
    chunks = drawn_chunks(net, pilots, stats, phases, cfg, 5000, 42, requested)
    assert len(chunks) > 1
    h, hhat, ue, ap = (np.concatenate([c[i] for c in chunks], axis=-1) for i in (0, 1, 3, 4))
    arrays = batch_arrays(net, pilots, stats, phases, cfg, 5000, 42, batch.instants)
    assert arrays.instants == list(batch.instants)
    M = len(batch.instants)
    assert arrays.h.shape == arrays.hhat.shape == (cfg.K, cfg.L, cfg.N, 5000)
    assert arrays.ue_factor.shape == (cfg.K, M, 5000)
    assert arrays.ap_factor.shape == (cfg.L, M, 5000)
    assert np.array_equal(arrays.h, h)
    assert np.array_equal(arrays.hhat, hhat)
    # the phase factors are exp(-i phase) of the drawn phases
    assert np.array_equal(arrays.ue_factor, mc._phasor(-ue[:, columns]))
    assert np.array_equal(arrays.ap_factor, mc._phasor(-ap[:, columns]))
    for factor in (arrays.ue_factor, arrays.ap_factor):
        assert np.all(np.abs(np.abs(factor) - 1.0) <= 1e-15)


def uneven_setup():
    """10/5/3/3 (L/K/N/tau_p), exponential correlation: round-robin pilots
    give co-pilot sets of sizes 2, 2 and 1 at instants 1, 2 and 3, so the
    set order (by size, then by instant) differs from the instant order."""
    cfg = cfrs.SystemConfig(L=10, K=5, N=3, tau_p=3, tau_c=20, seed=2,
                            correlation="exponential", corr_r=0.6)
    net = cfrs.build_network(cfg)
    pilots = cfrs.assign_pilots(cfg.K, cfg.tau_p)
    phases = cfrs.PhaseStatistics.from_config(cfg)
    stats = cfrs.estimation_statistics(net, pilots, phases, cfg)
    return cfg, net, pilots, phases, stats


def check_chunk_draw(cfg, net, pilots, phases, instants, count, sets):
    """Redraw chunk 0 by hand from its own SFC64 stream in the order h real,
    h imaginary, ue, ap, z, each in the C order of its shape with the
    realizations first, and check the draw against it; ``sets`` lists the
    UEs of z's rows in order."""
    seed = DESK_DRAW["seed"]
    draw = mc._ChunkDraw(net, pilots, phases, cfg, count, seed, instants)
    h, z, ue, ap = draw(0, mc._Workspace())
    K, L, N, S = draw.shape
    assert S == len(sets)
    M, c = len(draw.needed), min(count, mc.RNG_CHUNK)
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(0,))))

    def complex_normal(shape):
        drawn = np.empty((c, *shape), dtype=complex)
        drawn.real = rng.standard_normal(drawn.shape) * (1.0 / np.sqrt(2.0))
        drawn.imag = rng.standard_normal(drawn.shape) * (1.0 / np.sqrt(2.0))
        return np.moveaxis(drawn, 0, -1)

    sd = np.sqrt(net.beta[:, :, None] * net.lam)[..., None]  # (K, L, N, 1)
    assert h.shape == (K, L, N, c)
    assert np.array_equal(h, complex_normal((K, L, N)) * sd)
    gaps = np.diff([0] + draw.needed)
    for path, rows, var in ((ue, K, phases.var_ue), (ap, L, phases.var_ap)):
        steps = rng.standard_normal((c, rows, M)) * np.sqrt(var * gaps)
        # the paths are the cumulative sums of the scaled steps, realizations last
        assert path.shape == (rows, M, c)
        assert np.array_equal(path, np.moveaxis(np.cumsum(steps, axis=2), 0, -1))
    expected = complex_normal((S, L, N)) * np.sqrt(cfg.sigma2_ul)
    p = cfg.pilot_powers()
    for s, members in enumerate(sets):
        for i in members:
            m = draw.needed.index(int(pilots.t[i]))
            rot = np.sqrt(p[i]) * net.theta[i][:, None] * np.exp(1j * (ue[i, m] + ap[:, m]))
            expected[s] += rot[:, None] * h[i]
    assert z.shape == (S, L, N, c)
    assert np.allclose(z, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


def test_a_chunk_is_drawn_in_a_fixed_order_into_realization_last_arrays(desk, desk_instants):
    # z's rows are the co-pilot sets by size, then by pilot instant: on the
    # desk one UE per instant, on the uneven system UE 2 alone at instant 3
    # before UEs 0, 3 at instant 1 and UEs 1, 4 at instant 2
    cfg, net, pilots, phases, _, _ = desk
    check_chunk_draw(cfg, net, pilots, phases, desk_instants, DESK_DRAW["count"], [[0], [1]])
    cfg, net, pilots, phases, _ = uneven_setup()
    check_chunk_draw(cfg, net, pilots, phases, (cfg.estimation_instant, cfg.tau_c), 500,
                     [[2], [0, 3], [1, 4]])


def test_oracle_uses_the_callers_estimation_statistics(desk, monkeypatch):
    cfg, net, pilots, phases, stats, terms = desk

    def recomputed(*args):
        raise AssertionError("the oracle must not recompute estimation statistics")

    monkeypatch.setattr(cfrs.estimation, "estimation_statistics", recomputed)
    n = cfg.estimation_instant + 2
    plan = cf.make_plan(terms, "du_mr", "coherent", 0.0)
    batch = cfrs.sample_batch(net, pilots, stats, phases, cfg, 500, seed=2, instants=[n],
                              plans=[plan])
    res = cfrs.mc_sinr(batch, plan, n)
    assert np.all(np.isfinite(res.private)) and np.all(res.private > 0)


@pytest.mark.parametrize("K, tau_p", [(2, 1), (2, 6), (3, 2)])
def test_sample_batch_rejects_pilots_of_another_system(desk, K, tau_p):
    # the oracle draws the pilots up to the config's estimation instant
    cfg, net, _, phases, stats, terms = desk
    plan = cf.make_plan(terms, "du_mr", "coherent", 0.5)
    with pytest.raises(ValueError, match=rf"K = {K}, pilots.tau_p = {tau_p}\).*"
                                         rf"K = 2 and config.tau_p = 2"):
        cfrs.sample_batch(net, cfrs.assign_pilots(K, tau_p), stats, phases, cfg, 200, seed=1,
                          plans=[plan])


def test_zero_phase_variance_gives_classic_mmse_estimates():
    cfg, net, pilots, phases, stats, _ = small_setup(var=0.0)
    (_, hhat, z, _, _), = drawn_chunks(net, pilots, stats, phases, cfg, 500, 3, ())
    assert z.shape[-1] == 500  # one chunk holds every realization
    R = dense_R(net)
    p = cfg.pilot_powers()
    for k in range(cfg.K):
        members = [i for i in range(cfg.K) if pilots.t[i] == pilots.t[k]]
        for l in range(cfg.L):
            cov = cfg.sigma2_ul * np.eye(cfg.N, dtype=complex)
            for i in members:
                cov += p[i] * R[i, l]
            classic = (
                np.sqrt(p[k]) * np.conj(net.theta[k, l])
                * R[k, l] @ np.linalg.inv(cov)
            )
            # the pilot signal and the estimates are in T's eigenbasis
            expected = to_eigenbasis(net, classic) @ z[pilots.set_of[k], l]
            assert np.allclose(expected, hhat[k, l], rtol=1e-10)


def test_ds_term_matches_statistical_value(desk, desk_batch, desk_instants):
    cfg, net, pilots, phases, stats, terms = desk
    n = desk_instants[1]
    plan = cf.make_plan(terms, "du_mr", "coherent", 0.0)
    uatf = cfrs.mc_sinr(desk_batch([plan]), plan, n).terms
    lam = cfg.estimation_instant
    decay = np.exp(-(n - lam) * phases.var_sum / 2.0)
    expected = decay * np.sqrt(plan.mu) * terms.tr_Q
    assert np.all(np.abs(uatf.ds - expected) <= 3 * uatf.ds_stderr + 1e-12)


def test_interference_self_term_single_link():
    # one AP, one UE, no phases: E|h^H v|^2 = mu (tr(QR) + tr(Q)^2)
    cfg, net, pilots, phases, stats, terms = small_setup(L=1, K=1, tau_p=1, var=0.0)
    plan = cf.make_plan(terms, "du_mr", "coherent", 0.0)
    batch = cfrs.sample_batch(net, pilots, stats, phases, cfg, 200_000, seed=9, plans=[plan])
    uatf = cfrs.mc_sinr(batch, plan, cfg.estimation_instant).terms
    tr_QR = terms.beta[0, 0] * terms.tr_QT[0, 0]
    expected = plan.mu[0, 0] * (tr_QR + terms.tr_Q[0, 0] ** 2)
    assert abs(uatf.int_[0, 0] - expected) <= 3 * uatf.int_stderr[0, 0]


def test_uatf_variance_nonnegativity(desk, desk_batch, desk_instants):
    cfg, net, pilots, phases, stats, terms = desk
    plan = cf.make_plan(terms, "du_mr", "coherent", 0.5)
    uatf = cfrs.mc_sinr(desk_batch([plan]), plan, desk_instants[0]).terms
    for k in range(cfg.K):
        ds_power = np.abs(uatf.ds[k].sum()) ** 2
        tol = 6 * uatf.int_stderr[k, k] + 6 * np.sum(uatf.ds_stderr[k])
        assert uatf.int_[k, k] >= ds_power - tol


def test_small_batches_rejected(desk):
    cfg, net, pilots, phases, stats, terms = desk
    plan = cf.make_plan(terms, "du_mr", "coherent", 0.0)
    with pytest.raises(ValueError, match="at least 100 realizations"):
        cfrs.sample_batch(net, pilots, stats, phases, cfg, 50, seed=1, plans=[plan])


@pytest.mark.parametrize("count", [1000.0, np.float64(1000), True, "1000", None, 0, 50, 99])
def test_sample_batch_rejects_a_count_that_is_no_integer_of_at_least_100(desk, count):
    cfg, net, pilots, phases, stats, terms = desk
    plan = cf.make_plan(terms, "du_mr", "coherent", 0.0)
    with pytest.raises(ValueError, match=r"^count must be an integer of at least 100 "
                                         r"realizations, .*; got " + re.escape(repr(count))):
        cfrs.sample_batch(net, pilots, stats, phases, cfg, count, seed=1, plans=[plan])


@pytest.mark.parametrize("seed", [1.5, -1, True, "1", None])
def test_sample_batch_rejects_a_seed_that_is_no_non_negative_integer(desk, seed):
    cfg, net, pilots, phases, stats, terms = desk
    plan = cf.make_plan(terms, "du_mr", "coherent", 0.0)
    with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got "
                                         + re.escape(repr(seed))):
        cfrs.sample_batch(net, pilots, stats, phases, cfg, 500, seed=seed, plans=[plan])


def test_sample_batch_takes_numpy_integers(desk):
    cfg, net, pilots, phases, stats, terms = desk
    plan = cf.make_plan(terms, "du_mr", "coherent", 0.5)
    a, b = (cfrs.sample_batch(net, pilots, stats, phases, cfg, count, seed=seed, plans=[plan])
            for count, seed in ((500, 4), (np.int64(500), np.uint32(4))))
    for x, y in zip(a.declared[0][1].rows(), b.declared[0][1].rows()):
        assert np.array_equal(x, y)


def test_power_extremes_zero_out_streams(desk, desk_batch, desk_instants):
    cfg, net, pilots, phases, stats, terms = desk
    n = desk_instants[0]
    all_common = cf.make_plan(terms, "du_mr", "coherent", 1.0)
    no_common = cf.make_plan(terms, "du_mr", "coherent", 0.0)
    batch = desk_batch([all_common, no_common])
    res = cfrs.mc_sinr(batch, all_common, n)
    assert np.all(res.private == 0.0)
    res0 = cfrs.mc_sinr(batch, no_common, n)
    assert np.all(res0.common == 0.0)


def test_correlated_oracle_matches_the_closed_form():
    # a correlated template with distinct eigenvalues and a co-pilot set: the
    # eigenbasis draw must give every family's closed-form SINR, at zero
    # oscillator variance where the closed form is exact
    cfg = cfrs.SystemConfig(L=3, K=3, N=3, tau_p=2, tau_c=20, seed=5,
                            correlation="exponential", corr_r=0.7)
    net = cfrs.build_network(cfg)
    pilots = cfrs.assign_pilots(cfg.K, cfg.tau_p)
    phases = cfrs.PhaseStatistics(0.0, 0.0)
    stats = cfrs.estimation_statistics(net, pilots, phases, cfg)
    terms = cf.TraceTerms.compute(net, stats, pilots)
    n = cfg.estimation_instant + 3
    arrays = batch_arrays(net, pilots, stats, phases, cfg, 40_000, 6, [n])
    for k in range(cfg.K):
        # channel and estimate powers per eigen-direction: beta * lam and Q
        for x, want in ((arrays.h, net.beta[k][:, None] * net.lam), (arrays.hhat, stats.Q[k])):
            emp = np.sum(np.abs(x[k]) ** 2, axis=-1) / arrays.count
            assert np.allclose(emp, want, rtol=0.05, atol=0)
    plans = {(scheme, transmission): cf.make_plan(terms, scheme, transmission, 0.5)
             for scheme in cf.PRIVATE_SCHEMES for transmission in cf.TRANSMISSIONS}
    batch = cfrs.sample_batch(net, pilots, stats, phases, cfg, 40_000, seed=6, instants=[n],
                              plans=list(plans.values()))
    for (scheme, transmission), plan in plans.items():
        res = cfrs.mc_sinr(batch, plan, n)
        closed = [sinr[:, 0] for sinr in cf.assemble(cf.plan_parts(terms, plan, phases, cfg, n),
                                                     0.5)]
        for est, stderr, want in ((res.private, res.private_stderr, closed[0]),
                                  (res.common, res.common_stderr, closed[1])):
            assert np.all(np.abs(est - want) <= 4 * stderr), (scheme, transmission)


def test_confidence_intervals_cover_reference():
    # CIs from independent small batches must cover a 2M-realization
    # reference estimate in at least ~95% of trials
    cfg, net, pilots, phases, stats, terms = small_setup(seed=4, L=4, K=2)
    plan = cf.make_plan(terms, "du_mr", "coherent", 0.5)
    n = cfg.estimation_instant + 5
    ref_batch = cfrs.sample_batch(net, pilots, stats, phases, cfg, 2_000_000, seed=999,
                                  instants=[n], plans=[plan])
    ref = cfrs.mc_sinr(ref_batch, plan, n)
    covered = 0
    trials = 0
    for seed in range(30):
        batch = cfrs.sample_batch(net, pilots, stats, phases, cfg, 20_000, seed=seed,
                                  instants=[n], plans=[plan])
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
                                  instants=[n], plans=[plan])
    ref = cfrs.mc_sinr(ref_batch, plan, n)
    del ref_batch
    covered = 0
    for seed in range(100):
        batch = cfrs.sample_batch(net, pilots, stats, phases, cfg, mc.MIN_REALIZATIONS,
                                  seed=seed, instants=[n], plans=[plan])
        res = cfrs.mc_sinr(batch, plan, n)
        for ci, value in ((res.private_ci, ref.private), (res.common_ci, ref.common)):
            covered += int(np.sum((ci[:, 0] <= value) & (value <= ci[:, 1])))
    # binomial(400, 0.95): >= 366 with probability > 0.999
    assert covered >= 366, f"coverage {covered}/400"


def global_slices(chunks):
    """The (group, slice) pairs of ``_chunk_slices`` in batch-wide indices."""
    return [(b, slice(i * mc.RNG_CHUNK + sl.start, i * mc.RNG_CHUNK + sl.stop))
            for i, pieces in enumerate(chunks) for b, sl in pieces]


def test_jackknife_groups_are_fixed_and_memory_capped():
    for count, K, L in ((100, 2, 4), (127, 2, 4), (640, 2, 4), (100_000, 2, 4),
                        (100_000, 8, 40), (1000, 32, 200)):
        counts, chunks = mc._chunk_slices(count, K, L)
        assert len(chunks) == -(-count // mc.RNG_CHUNK)
        slices = global_slices(chunks)
        edges = np.linspace(0, count, mc.JACKKNIFE_GROUPS + 1).astype(int)
        assert np.array_equal(counts, np.diff(edges))
        cap = max(64, mc._WORK_ELEMENTS // (K * K * L))
        # the slices tile the realizations in order, each inside its group and chunk
        assert [sl.start for _, sl in slices[1:]] == [sl.stop for _, sl in slices[:-1]]
        assert slices[0][1].start == 0 and slices[-1][1].stop == count
        for b, sl in slices:
            assert edges[b] <= sl.start < sl.stop <= edges[b + 1]
            assert sl.start // mc.RNG_CHUNK == (sl.stop - 1) // mc.RNG_CHUNK
            assert sl.stop - sl.start <= cap


def test_memory_capped_slices_add_up_to_their_group(desk, monkeypatch):
    cfg, net, pilots, phases, stats, terms = desk
    instants = [cfg.estimation_instant, cfg.tau_c]
    plans = [cf.make_plan(terms, scheme, transmission, 0.5)
             for scheme in cf.PRIVATE_SCHEMES for transmission in cf.TRANSMISSIONS]

    def sample():
        return cfrs.sample_batch(net, pilots, stats, phases, cfg, 1000, seed=3,
                                 instants=instants, plans=plans)

    batch = sample()
    whole = [(cfrs.mc_sinr(batch, plan, instants), cfrs.transmit_power_stats(batch, plan))
             for plan in plans]
    monkeypatch.setattr(mc, "_WORK_ELEMENTS", 1)  # 64-realization slices
    chunks = mc._chunk_slices(batch.count, net.K, net.L)[1]
    assert len(global_slices(chunks)) == 2 * mc.JACKKNIFE_GROUPS
    batch = sample()
    for plan, (results, power) in zip(plans, whole):
        for res, ref in zip(cfrs.mc_sinr(batch, plan, instants), results):
            for field in ("private", "private_stderr", "common", "common_stderr"):
                assert_close(getattr(res, field), getattr(ref, field))
        for actual, expected in zip(cfrs.transmit_power_stats(batch, plan), power):
            assert_close(actual, expected)


def worker_count_outputs(monkeypatch, workers):
    """Every array mc_sinr and transmit_power_stats return on 24 512-realization
    RNG chunks plus a short one, cut into 64-realization slices, for eight
    plans declared to one sample_batch call."""
    monkeypatch.setattr(mc, "_CPUS", workers)
    monkeypatch.setattr(mc, "_WORK_ELEMENTS", 1)
    monkeypatch.setattr(mc, "RNG_CHUNK", 512)
    cfg, net, pilots, phases, stats, terms = small_setup(seed=5, L=3, K=3, tau_p=2)
    instants = [cfg.estimation_instant, cfg.tau_c]
    count = 24 * mc.RNG_CHUNK + 17
    chunks = mc._chunk_slices(count, net.K, net.L)[1]
    assert len(global_slices(chunks)) > 10 * mc.JACKKNIFE_GROUPS
    # a chunk that straddles a group edge adds into two group rows, and a
    # group that three chunks add into sums in the order they are folded
    assert any(pieces[0][0] != pieces[-1][0] for pieces in chunks)
    touching = [sum(any(b == g for b, _ in pieces) for pieces in chunks)
                for g in range(mc.JACKKNIFE_GROUPS)]
    assert max(touching) >= 3
    plans = [cf.make_plan(terms, scheme, transmission, rho) for scheme in cf.PRIVATE_SCHEMES
             for transmission in cf.TRANSMISSIONS for rho in (0.0, 0.5)]
    declared = cfrs.sample_batch(net, pilots, stats, phases, cfg, count, seed=6,
                                 instants=instants, plans=plans)
    out = []
    for plan in plans:
        for res in cfrs.mc_sinr(declared, plan, instants):
            out += [res.private, res.private_stderr, res.common, res.common_stderr,
                    *dataclasses.astuple(res.terms)]
        out += cfrs.transmit_power_stats(declared, plan)
    return out


def test_outputs_do_not_depend_on_the_worker_count(monkeypatch):
    serial = worker_count_outputs(monkeypatch, 1)
    # more workers than cores, switching threads often: a lost or reordered
    # update of a shared sum would change some output bits
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = worker_count_outputs(monkeypatch, 3)
    finally:
        sys.setswitchinterval(interval)
    assert len(serial) == len(threaded)
    for a, b in zip(serial, threaded):
        assert np.array_equal(a, b)


class WorkerFailure(Exception):
    pass


def test_worker_failures_reach_the_caller(desk, monkeypatch):
    # a failure inside the streamed pass, in a chunk's draw or in one slice's
    # accumulation, reaches the sample_batch call that runs the pass
    cfg, net, pilots, phases, stats, terms = desk
    monkeypatch.setattr(mc, "_CPUS", 3)
    count = 3 * mc.RNG_CHUNK + 17
    plan = cf.make_plan(terms, "du_mr", "coherent", 0.5)

    def call():
        return cfrs.sample_batch(net, pilots, stats, phases, cfg, count, seed=1, plans=[plan])

    complex_normal = mc._complex_normal

    def fails_on_the_last_chunk(rng, out, part):
        if len(part) == 17:
            raise WorkerFailure
        return complex_normal(rng, out, part)

    # the pilot signal of a realization of chunk 1
    marker = drawn_chunks(net, pilots, stats, phases, cfg, count, 1, ())[1][2][
        0, 0, 0, count // 2 - mc.RNG_CHUNK]
    filter_sets = mc._CopilotSets.filter

    def fails_on_one_slice(sets, z, out):
        if np.any(z[0, 0, 0] == marker):
            raise WorkerFailure
        return filter_sets(sets, z, out)

    threads = threading.active_count()
    for owner, name, failing in ((mc, "_complex_normal", fails_on_the_last_chunk),
                                 (mc._CopilotSets, "filter", fails_on_one_slice)):
        with monkeypatch.context() as patched:
            patched.setattr(owner, name, failing)
            with pytest.raises(WorkerFailure):
                call()
            assert threading.active_count() == threads
    batch = call()  # unpatched, the same call succeeds
    cfrs.mc_sinr(batch, plan, cfg.estimation_instant)
    cfrs.transmit_power_stats(batch, plan)


def declared_outputs(batch, plan, instants):
    """Every array mc_sinr and transmit_power_stats return for ``plan``."""
    out = []
    for res in cfrs.mc_sinr(batch, plan, instants):
        out += [res.private, res.private_stderr, res.common, res.common_stderr,
                *dataclasses.astuple(res.terms)]
    return out + list(cfrs.transmit_power_stats(batch, plan))


def test_a_plans_sums_do_not_depend_on_what_is_declared_with_it():
    # plans that share a precoder, or all of their work, with the plan read
    # leave its bits alone
    cfg, net, pilots, phases, stats, terms = small_setup(seed=5, L=3, K=3, tau_p=2)
    instants = [cfg.estimation_instant, cfg.tau_c]

    def outputs(plans, plan):
        batch = cfrs.sample_batch(net, pilots, stats, phases, cfg, 1500, seed=6,
                                  instants=instants, plans=plans)
        return declared_outputs(batch, plan, instants)

    for scheme, other in (("du_mr", "df_mr"), ("df_mr", "du_mr")):
        for transmission, twin in (("coherent", "noncoherent"), ("noncoherent", "coherent")):
            plan = cf.make_plan(terms, scheme, transmission, 0.5)
            company = [cf.make_plan(terms, scheme, twin, 0.5),
                       cf.make_plan(terms, other, transmission, 0.5),
                       dataclasses.replace(plan)]  # equal by value
            alone = outputs([plan], plan)
            together = outputs(company + [plan], plan)
            assert len(alone) == len(together)
            for a, b in zip(alone, together):
                assert np.array_equal(a, b)


def test_every_slice_forms_the_precoders_once(monkeypatch):
    # validate's four plans (two schemes, two transmissions) share one
    # filtering of the co-pilot sets' observations per slice: the DF
    # precoders are rotated DU ones
    cfg, net, pilots, phases, stats, terms = small_setup(seed=5, L=3, K=3, tau_p=2)
    monkeypatch.setattr(mc, "_WORK_ELEMENTS", 1)  # 64-realization slices
    count = mc.RNG_CHUNK + 700
    plans = [cf.make_plan(terms, scheme, transmission, 0.5)
             for transmission in cf.TRANSMISSIONS for scheme in cf.PRIVATE_SCHEMES]
    calls = []
    filter_sets = mc._CopilotSets.filter

    def counted(sets, z, out):
        calls.append(z.shape[-1])
        return filter_sets(sets, z, out)

    monkeypatch.setattr(mc._CopilotSets, "filter", counted)
    cfrs.sample_batch(net, pilots, stats, phases, cfg, count, seed=2,
                      instants=[cfg.tau_c], plans=plans)
    slices = global_slices(mc._chunk_slices(count, net.K, net.L)[1])
    assert len(slices) > mc.JACKKNIFE_GROUPS
    assert sorted(calls) == sorted(sl.stop - sl.start for _, sl in slices)


def all_arrays(obj):
    """Every numpy array that ``obj`` holds, through dataclass fields and tuples."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, tuple):
        for item in obj:
            yield from all_arrays(item)
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            yield from all_arrays(getattr(obj, field.name))


def test_batches_hold_no_realization_arrays(desk):
    cfg, net, pilots, phases, stats, terms = desk
    instants = [cfg.estimation_instant, cfg.tau_c]
    plans = [cf.make_plan(terms, scheme, "coherent", 0.5) for scheme in cf.PRIVATE_SCHEMES]
    nbytes = []
    for count in (1000, 3 * mc.RNG_CHUNK + 17):
        batch = cfrs.sample_batch(net, pilots, stats, phases, cfg, count, seed=2,
                                  instants=instants, plans=plans)
        assert len(batch.declared) == len(plans)
        nbytes.append(sum(a.nbytes for a in all_arrays(batch)))
    assert nbytes[0] == nbytes[1]


def oracle_memory_peaks(desk, monkeypatch, workers):
    """tracemalloc peaks of a pass and its mc_sinr at 4 and at 16 RNG chunks
    on ``workers`` workers."""
    cfg, net, pilots, phases, stats, terms = desk
    # 1024-realization slices at both counts (groups of 1638 and 6553),
    # because a slice's work arrays grow with it up to the cap
    monkeypatch.setattr(mc, "_CPUS", workers)
    monkeypatch.setattr(mc, "_WORK_ELEMENTS", 1024 * cfg.K * cfg.K * cfg.L)
    n = cfg.tau_c
    plan = cf.make_plan(terms, "du_mr", "coherent", 0.5)
    peaks = []
    for chunks in (4, 16):
        tracemalloc.start()
        try:
            batch = cfrs.sample_batch(net, pilots, stats, phases, cfg, chunks * mc.RNG_CHUNK,
                                      seed=3, instants=[n], plans=[plan])
            cfrs.mc_sinr(batch, plan, n)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


def test_oracle_memory_does_not_grow_with_the_realization_count(desk, monkeypatch):
    # a batch that held every realization would peak 4x higher at 16 chunks
    peaks = oracle_memory_peaks(desk, monkeypatch, 1)
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_oracle_memory_does_not_grow_with_the_realization_count_on_two_workers(
        desk, monkeypatch):
    # each worker keeps one workspace for the whole pass, so however far the
    # workers' chunks overlap in time, the peak holds two workspaces
    peaks = oracle_memory_peaks(desk, monkeypatch, 2)
    assert peaks[1] < 1.5 * peaks[0], peaks


def desk_pass_sums(setup, count=2 * mc.RNG_CHUNK + 300):
    """Every per-group sum of a pass over ``count`` realizations (seed 2)
    that declares the four plans of ``cfrs validate``."""
    cfg, net, pilots, phases, stats, terms = setup
    plans = [cf.make_plan(terms, scheme, transmission, 0.5)
             for transmission in cf.TRANSMISSIONS for scheme in cf.PRIVATE_SCHEMES]
    batch = cfrs.sample_batch(net, pilots, stats, phases, cfg, count, seed=2,
                              instants=[cfg.estimation_instant + 3, cfg.tau_c], plans=plans)
    return [row for _, sums in batch.declared for row in sums.rows()]


def test_a_pass_leaves_nothing_behind_for_the_next(desk):
    # a larger system's pass in between leaves the desk sums' bits alone
    first = desk_pass_sums(desk)
    desk_pass_sums(small_setup(seed=3, L=10, K=5, N=2, tau_p=3))
    again = desk_pass_sums(desk)
    assert len(first) == len(again)
    for a, b in zip(first, again):
        assert np.array_equal(a, b)


def test_every_workspace_view_is_written_before_it_is_read(desk, monkeypatch):
    # views filled with nan whenever they are handed out: a view read before
    # it is written, or after an overlapping view was handed out, would carry
    # stale or nan entries into the sums.  Short last chunk, partial slices
    # and one worker, so the chunks and slices of different lengths take
    # their turns in one workspace.  The second system has two co-pilot sets
    # of two UEs (K > tau_p), so the coherent interference runs over a stack
    # of several sets.
    monkeypatch.setattr(mc, "_CPUS", 1)
    monkeypatch.setattr(mc, "_WORK_ELEMENTS", 1)  # 64-realization slices
    clean = desk_pass_sums(desk)
    contaminated = small_setup(seed=6, L=3, K=4, tau_p=2, var=1.2e-3)
    assert np.bincount(contaminated[2].set_of).tolist() == [2, 2]
    clean_contaminated = desk_pass_sums(contaminated)

    class Poisoned(mc._Workspace):
        def get(self, name, *layout):
            views = super().get(name, *layout)
            for view in views if isinstance(views, list) else [views]:
                view[...] = np.nan
            return views

    monkeypatch.setattr(mc, "_Workspace", Poisoned)
    for a, b in zip(clean, desk_pass_sums(desk)):
        assert np.array_equal(a, b)
    for a, b in zip(clean_contaminated, desk_pass_sums(contaminated)):
        assert np.array_equal(a, b)


def test_a_cached_view_is_rebuilt_when_its_buffer_grows():
    ws = mc._Workspace()
    small = (((3, 5), complex), ((7,), float))
    first = ws.get("a", *small)
    other = ws.get("b", ((4,), float))
    # a (name, layout) asked again gets the views built the first time
    assert ws.get("a", *small) is first
    replaced = ws._flat["a"]
    ws.get("a", ((100, 5), complex))  # a larger layout grows the buffer
    assert ws._flat["a"] is not replaced
    again = ws.get("a", *small)
    assert [view.shape for view in again] == [(3, 5), (7,)]
    for view in again:
        # views of the grown buffer, none of the one it replaced
        assert np.shares_memory(view, ws._flat["a"])
        assert not np.shares_memory(view, replaced)
    again[0][...] = 1.0
    assert np.all(ws.get("a", ((3, 5), complex)) == 1.0)
    assert ws.get("b", ((4,), float)) is other  # another buffer's views stay


def built_workspaces(monkeypatch):
    """The workspaces that passes build from now on."""
    built = []

    class Counted(mc._Workspace):
        def __init__(self):
            built.append(self)
            super().__init__()

    monkeypatch.setattr(mc, "_Workspace", Counted)
    return built


@pytest.mark.parametrize("workers", [1, 2])
def test_a_pass_builds_one_workspace_per_worker(desk, monkeypatch, workers):
    monkeypatch.setattr(mc, "_CPUS", workers)
    built = built_workspaces(monkeypatch)
    count = 5 * mc.RNG_CHUNK + 17
    assert len(mc._chunk_slices(count, desk[1].K, desk[1].L)[1]) == 6
    desk_pass_sums(desk, count)
    assert 1 <= len(built) <= workers


def spied_workspaces(monkeypatch):
    """The workspaces that passes build from now on, each recording per
    buffer name its largest requested layout in bytes, its allocations,
    every requested shape and every requested scratch layout."""
    built = []

    class Spied(mc._Workspace):
        def __init__(self):
            super().__init__()
            self.largest, self.allocations, self.shapes, self.scratch = {}, {}, [], []
            built.append(self)

        def get(self, name, *layout):
            before = self._flat.get(name)
            views = super().get(name, *layout)
            self.largest[name] = max(self.largest.get(name, 0), self.nbytes(*layout))
            self.allocations[name] = (self.allocations.get(name, 0)
                                      + (self._flat[name] is not before))
            self.shapes += [shape for shape, _ in layout]
            if name == "scratch":
                self.scratch.append(layout)
            return views

    monkeypatch.setattr(mc, "_Workspace", Spied)
    return built


@pytest.mark.parametrize("workers", [1, 2])
def test_a_workspace_holds_only_the_largest_layout_of_each_buffer(desk, monkeypatch, workers):
    # a buffer is allocated on first use and grown only when a layout needs
    # more bytes, so it ends at the largest layout asked under its name
    monkeypatch.setattr(mc, "_CPUS", workers)
    built = spied_workspaces(monkeypatch)
    for setup in (desk, small_setup(seed=3, L=10, K=5, N=2, tau_p=3)):
        built.clear()
        desk_pass_sums(setup)
        assert 1 <= len(built) <= workers
        for ws in built:
            assert {name: flat.size for name, flat in ws._flat.items()} == ws.largest
            assert sum(ws.allocations.values()) <= 2 * len(ws._flat)


WORKSPACE_BUFFERS = ("h", "z", "eu", "ea", "Y", "E", "scratch")


@pytest.mark.parametrize("workers", [1, 2])
def test_a_workspace_allocates_each_buffer_once(desk, monkeypatch, workers):
    # a chunk asks for every buffer's largest layout first: a buffer grown in
    # steps frees blocks that the allocator then trims and faults back in at
    # every pass, and a view of a replaced buffer keeps it alive.  On
    # the desk the phase factors outgrow their float paths, and groups of 849
    # and 850 realizations give slices of both lengths; the second system
    # has uneven co-pilot sets and a short last chunk.
    monkeypatch.setattr(mc, "_CPUS", workers)
    built = spied_workspaces(monkeypatch)
    for setup in (desk, small_setup(seed=3, L=10, K=5, N=3, tau_p=3)):
        built.clear()
        desk_pass_sums(setup)
        assert 1 <= len(built) <= workers
        for ws in built:
            assert ws.allocations == dict.fromkeys(WORKSPACE_BUFFERS, 1)


def test_a_desk_pass_peaks_near_its_workspace(desk, monkeypatch):
    # at its peak a one-worker 1e5-realization desk pass holds little beyond
    # its workspace's buffers: no replaced buffer outlives its replacement,
    # and only one precoder's common products are kept at a time
    monkeypatch.setattr(mc, "_CPUS", 1)
    built = built_workspaces(monkeypatch)
    tracemalloc.start()
    try:
        desk_pass_sums(desk, DESK_DRAW["count"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (ws,) = built
    held = sum(flat.size for flat in ws._flat.values())
    assert peak - held <= 0.75 * 2**20, (peak, held)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_desk_workspace_holds_only_what_outlives_a_step(desk, monkeypatch, workers):
    # after a 1e5-realization desk pass a workspace names only the chunk
    # arrays, the phase factors, the link products, one precoder's common
    # products and one scratch (6.375 MiB), and every scratch request is a
    # layout of _scratch_layouts for one of the pass's chunk and slice
    # lengths
    cfg, net, pilots, phases, _, _ = desk
    monkeypatch.setattr(mc, "_CPUS", workers)
    count = DESK_DRAW["count"]
    built = spied_workspaces(monkeypatch)
    desk_pass_sums(desk, count)
    assert 1 <= len(built) <= workers
    for ws in built:
        assert set(ws._flat) == set(WORKSPACE_BUFFERS)
        assert sum(flat.size for flat in ws._flat.values()) <= 6.5 * 2**20
    kept = (cfg.estimation_instant, cfg.estimation_instant + 3, cfg.tau_c)
    draw = mc._ChunkDraw(net, pilots, phases, cfg, count, 2, kept)
    chunks = mc._chunk_slices(count, net.K, net.L)[1]
    lengths = {(min(mc.RNG_CHUNK, count - i * mc.RNG_CHUNK), sl.stop - sl.start)
               for i, pieces in enumerate(chunks) for _, sl in pieces}
    layouts = {layout for c, r in lengths for layout in mc._scratch_layouts(draw, c, r).values()}
    requests = {layout for ws in built for layout in ws.scratch}
    assert requests and requests <= layouts


def test_no_workspace_array_has_two_ue_axes_and_an_ap_axis(monkeypatch):
    # co-pilots' precoders are scaled copies of one filtered observation, so
    # the link products have one column per co-pilot set: no (K, K, L, r)
    cfg, net, pilots, phases, stats, terms = small_setup(seed=3, L=10, K=5, N=3, tau_p=3)
    assert np.bincount(pilots.set_of).max() > 1
    count = 1000
    lengths = {mc.RNG_CHUNK, count} | {sl.stop - sl.start for pieces in
                                       mc._chunk_slices(count, net.K, net.L)[1]
                                       for _, sl in pieces}
    assert not lengths & {net.K, net.L}  # no realization axis passes for a UE or AP axis
    built = spied_workspaces(monkeypatch)
    plans = [cf.make_plan(terms, scheme, transmission, 0.5)
             for transmission in cf.TRANSMISSIONS for scheme in cf.PRIVATE_SCHEMES]
    cfrs.sample_batch(net, pilots, stats, phases, cfg, count, seed=2,
                      instants=[cfg.tau_c], plans=plans)
    shapes = {shape for ws in built for shape in ws.shapes}
    assert not [shape for shape in shapes if shape.count(net.K) >= 2 and net.L in shape]
    assert (net.K, len(stats.Psi), net.L, 100) in shapes  # the link products Y


def test_a_short_pass_sizes_its_workspace_for_its_own_chunk(desk, monkeypatch):
    # chunk-level arrays are sized for the pass's largest chunk and
    # slice-level ones for its largest slice, not for RNG_CHUNK
    monkeypatch.setattr(mc, "_CPUS", 1)
    peaks = []
    for count in (200, mc.RNG_CHUNK):
        tracemalloc.start()
        try:
            desk_pass_sums(desk, count)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < peaks[1] / 4, peaks


def test_map_folds_in_order_with_few_items_in_flight(monkeypatch):
    # results wait to be folded only up to two per worker, whatever the item count
    monkeypatch.setattr(mc, "_CPUS", 2)
    lock = threading.Lock()
    in_flight = [0, 0]  # now, most

    def fn(item):
        with lock:
            in_flight[0] += 1
            in_flight[1] = max(in_flight)
        return item

    folded = []

    def fold(item):
        with lock:
            in_flight[0] -= 1
        folded.append(item)

    mc._map(fn, range(50), fold)
    assert folded == list(range(50))
    assert in_flight[1] <= 2 * 2


def test_a_scalar_instant_gives_the_bits_of_that_instant_in_a_list(desk):
    cfg, net, pilots, phases, stats, terms = desk
    instants = [cfg.estimation_instant, cfg.estimation_instant + 5, cfg.tau_c]
    plans = [cf.make_plan(terms, scheme, transmission, rho) for scheme in cf.PRIVATE_SCHEMES
             for transmission in cf.TRANSMISSIONS for rho in (0.0, 0.5)]
    batch = cfrs.sample_batch(net, pilots, stats, phases, cfg, 5000, seed=4,
                              instants=instants, plans=plans)
    for plan in plans:
        x, y = cfrs.mc_sinr(batch, plan, instants[1]), cfrs.mc_sinr(batch, plan, instants)[1]
        assert x.instant == y.instant == instants[1]
        for field in ("private", "private_stderr", "common", "common_stderr"):
            assert np.array_equal(getattr(x, field), getattr(y, field))
        for s, t in zip(dataclasses.astuple(x.terms), dataclasses.astuple(y.terms)):
            assert np.array_equal(s, t)


def test_only_declared_plans_can_be_read(desk):
    cfg, net, pilots, phases, stats, terms = desk
    plan = cf.make_plan(terms, "du_mr", "coherent", 0.5)
    batch = cfrs.sample_batch(net, pilots, stats, phases, cfg, 500, seed=4, plans=[plan])
    copy = dataclasses.replace(plan)  # equal arrays, but not the declared plan
    with pytest.raises(ValueError, match="not declared to sample_batch"):
        cfrs.mc_sinr(batch, copy, cfg.estimation_instant)
    with pytest.raises(ValueError, match="not declared to sample_batch"):
        cfrs.transmit_power_stats(batch, copy)
    with pytest.raises(ValueError, match="plans is empty"):
        cfrs.sample_batch(net, pilots, stats, phases, cfg, 500, seed=4, plans=[])


def test_a_batch_holds_only_its_count_instants_config_and_sums():
    fields = [field.name for field in dataclasses.fields(cfrs.RealizationBatch)]
    assert fields == ["count", "instants", "config", "declared"]


def test_confidence_interval_clt_scaling(desk):
    cfg, net, pilots, phases, stats, terms = desk
    plan = cf.make_plan(terms, "du_mr", "coherent", 0.0)
    n = cfg.estimation_instant + 5
    widths = []
    for count in (1000, 10_000, 100_000):
        per_seed = []
        for seed in (11, 12, 13, 14):
            batch = cfrs.sample_batch(net, pilots, stats, phases, cfg, count, seed, instants=[n],
                                      plans=[plan])
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
    assert np.bincount(pilots.set_of).max() > 1
    n = cfg.estimation_instant + 4
    plans = {(transmission, scheme): cf.make_plan(terms, scheme, transmission, 0.5)
             for transmission in cf.TRANSMISSIONS for scheme in cf.PRIVATE_SCHEMES}
    batch = cfrs.sample_batch(net, pilots, stats, phases, cfg, 60_000, seed=17, instants=[n],
                              plans=list(plans.values()))
    for tag, plan in plans.items():
        res = cfrs.mc_sinr(batch, plan, n)
        closed_p, closed_c = (sinr[:, 0] for sinr in
                              cf.assemble(cf.plan_parts(terms, plan, phases, cfg, n), 0.5))
        assert np.all(np.abs(res.private - closed_p) / closed_p < 0.04), tag
        assert np.all(np.abs(res.common - closed_c) / closed_c < 0.04), tag


def test_mc_matches_closed_form_with_power_control(desk, desk_batch, desk_instants):
    cfg, net, pilots, phases, stats, terms = desk
    n = desk_instants[1]
    mu = cf.power_control_coefficients(terms, alpha=-1.0)
    plan = cf.make_plan(terms, "du_mr", "coherent", 0.0, power_control_alpha=-1.0)
    res = cfrs.mc_sinr(desk_batch([plan]), plan, n)
    closed = cf.assemble(cf.plan_parts(terms, plan, phases, cfg, n), 0.0)[0][:, 0]
    assert np.all(np.abs(res.private - closed) / closed < 0.03)


def test_per_ap_power_within_limit(desk, desk_batch):
    cfg, net, pilots, phases, stats, terms = desk
    plans = [
        cf.make_plan(terms, "du_mr", "coherent", 0.0),
        cf.make_plan(terms, "du_mr", "coherent", 0.5),
        cf.make_plan(terms, "df_mr", "coherent", 0.9),
        cf.make_plan(terms, "du_mr", "noncoherent", 0.5),
        cf.make_plan(terms, "df_mr", "noncoherent", 0.0),
        cf.make_plan(terms, "du_mr", "coherent", 0.3, power_control_alpha=-1.0),
    ]
    batch = desk_batch(plans)
    for plan in plans:
        mean, se = cfrs.transmit_power_stats(batch, plan)
        assert np.all(mean - 3 * se <= cfg.p_d), (
            plan.private_scheme, plan.transmission, plan.rho, mean / cfg.p_d)


# ---------------------------------------------------------------------------
# factored accumulation
# ---------------------------------------------------------------------------

def direct_terms(net, arrays, plan, n):
    """Per-realization DS/INT terms at instant n from the rotated channel,
    realizations on the last axis; ``arrays`` is a ``batch_arrays`` result.

    The plain formula: g = theta exp(i(ue + ap)) h, d[k,i,l] = g[k,l]^H v[i,l],
    then the private and common desired-signal and interference terms.
    """
    col = arrays.instants.index(n)
    v = private_precoders(arrays.hhat, net, plan.private_scheme)
    # exp(i(ue + ap)) from the factors exp(-i ue) and exp(-i ap)
    rotation = np.conj(arrays.ue_factor[:, None, col] * arrays.ap_factor[None, :, col])
    g = net.theta[:, :, None, None] * rotation[:, :, None] * arrays.h
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


def jackknife_groups(count, K, L):
    """The jackknife groups of ``count`` realizations as whole slices, and
    their realization counts."""
    counts, _ = mc._chunk_slices(count, K, L)
    edges = np.concatenate([[0], np.cumsum(counts)])
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])], counts


def assert_close(actual, expected):
    """Every entry within 1e-12 of the largest |entry| of the reference."""
    scale = np.max(np.abs(expected))
    assert np.all(np.abs(actual - expected) <= 1e-12 * scale), np.max(np.abs(actual - expected))


def assert_groups_span_partial_slices(count, K, L):
    """Every jackknife group of ``count`` realizations is cut into at least
    two slices, one of them short."""
    counts, chunks = mc._chunk_slices(count, K, L)
    slices = global_slices(chunks)
    cap = max(64, mc._WORK_ELEMENTS // (K ** 2 * L))
    for b in range(len(counts)):
        sizes = [sl.stop - sl.start for group, sl in slices if group == b]
        assert len(sizes) >= 2 and 0 < min(sizes) < cap, sizes


def check_factored_accumulation():
    """Check every estimator output against the plain per-realization formula;
    returns the (count, K, L) of the batch it checked."""
    # co-pilot groups (K > tau_p), three antennas, delay phases spread over the
    # whole circle and ten times the default oscillator variance
    cfg = cfrs.SystemConfig(L=3, K=3, N=3, tau_p=2, tau_c=20, seed=5)
    default = cfrs.PhaseStatistics.from_config(cfg)
    phases = cfrs.PhaseStatistics(10 * default.var_ap, 10 * default.var_ue)
    theta = np.exp(2j * np.pi * np.random.default_rng(0).random((cfg.K, cfg.L)))
    net = dataclasses.replace(cfrs.build_network(cfg), theta=theta)
    pilots = cfrs.assign_pilots(cfg.K, cfg.tau_p)
    assert np.bincount(pilots.set_of).max() > 1
    stats = cfrs.estimation_statistics(net, pilots, phases, cfg)
    terms = cf.TraceTerms.compute(net, stats, pilots)
    instants = [cfg.estimation_instant, cfg.estimation_instant + 6, cfg.tau_c]
    plans = [cf.make_plan(terms, scheme, transmission, rho) for scheme in cf.PRIVATE_SCHEMES
             for transmission in cf.TRANSMISSIONS for rho in (0.0, 0.5)]
    batch = cfrs.sample_batch(net, pilots, stats, phases, cfg, 1000, seed=4, instants=instants,
                              plans=plans)
    arrays = batch_arrays(net, pilots, stats, phases, cfg, 1000, 4, instants)
    groups, counts = jackknife_groups(1000, cfg.K, cfg.L)
    assert len(groups) == mc.JACKKNIFE_GROUPS
    for plan in plans:
        per_instant = [direct_terms(net, arrays, plan, n) for n in instants]
        # (B, M, ...) block sums of each term, as the jackknife reads them
        blocks = [np.stack([np.stack([t[i][..., sl].sum(axis=-1) for sl in groups])
                            for t in per_instant], axis=1) for i in range(4)]
        sums = mc._BlockSums(counts, *blocks, power=np.zeros((len(counts), cfg.L)),
                             coherent=plan.transmission == "coherent")
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
    return batch.count, cfg.K, cfg.L


def test_jackknife_assembles_every_mean_as_its_own_call_would(desk, desk_batch, desk_instants):
    # one assemble call over the full and the B delete-one means gives the
    # bits of one call per mean, each on its own one-row PlanParts
    cfg, net, pilots, phases, stats, terms = desk
    plans = [cf.make_plan(terms, scheme, transmission, rho) for scheme in cf.PRIVATE_SCHEMES
             for transmission in cf.TRANSMISSIONS for rho in (0.0, 0.5, 1.0)]
    batch = desk_batch(plans)

    def one_call(means, coherent, rho):
        ds_p, int_p, ds_c, int_c = means
        if coherent:
            sig_p, sig_c = (np.abs(ds.sum(axis=1)) ** 2 for ds in (ds_p, ds_c))
        else:
            sig_p, sig_c = (np.sum(np.abs(ds) ** 2, axis=1) for ds in (ds_p, ds_c))
        parts = cf.PlanParts(eaeu=np.ones((1, 1)), xi=int_p.sum(axis=1)[None],
                             sig_private=sig_p, sig_common=sig_c, gamma=(int_c - sig_c)[None],
                             p_d=cfg.p_d, sigma2=cfg.sigma2_dl)
        return tuple(sinr[:, 0] for sinr in cf.assemble(parts, rho))

    for plan in plans:
        sums = mc._declared_sums(batch, plan)
        for m in range(len(desk_instants)):
            terms = [mc._delete_one_means(x[:, m], sums.counts)
                     for x in (sums.ds_p, sums.int_p, sums.ds_c, sums.int_c)]
            full = one_call([mean for mean, _ in terms], sums.coherent, plan.rho)
            B = len(sums.counts)
            loo = np.array([one_call([drop[b] for _, drop in terms], sums.coherent, plan.rho)
                            for b in range(B)])
            est = np.maximum(B * np.array(full) - (B - 1) * loo.mean(axis=0), 0.0)
            se = mc._spread(loo)
            got = mc._jackknife(sums, plan, cfg, m)
            for actual, expected in zip(got[:4], (est[0], se[0], est[1], se[1])):
                assert np.array_equal(actual, expected)


def test_copilot_precoders_are_scaled_copies_of_one_filtered_observation():
    # v_du[i] = x[i] u[P_i]: the pass's one filtered observation per co-pilot
    # set gives the reference estimator's DU precoders, on uneven sets
    cfg, net, pilots, phases, stats = uneven_setup()
    assert np.bincount(pilots.set_of).tolist() == [1, 2, 2]
    (_, hhat, z, _, _), = drawn_chunks(net, pilots, stats, phases, cfg, 500, 3, ())
    sets = mc._CopilotSets(pilots, stats, net.lam)
    for k in range(cfg.K):
        assert sets.order[sets.rank[k]] == k
    u = sets.filter(z, np.empty(z.shape, dtype=complex))
    v = private_precoders(hhat, net, "du_mr")
    scaled = stats.x[..., None, None] * u[pilots.set_of]
    assert np.max(np.abs(v - scaled)) <= 1e-14 * np.max(np.abs(v))


def test_factored_accumulation_matches_direct_formula():
    check_factored_accumulation()


def test_factored_accumulation_over_partial_slices(monkeypatch):
    monkeypatch.setattr(mc, "_WORK_ELEMENTS", 1)  # 64-realization slices
    assert_groups_span_partial_slices(*check_factored_accumulation())


def test_noncoherent_interference_does_not_depend_on_the_instant(desk, desk_batch):
    # the phase factors have unit modulus, so per-AP interference powers carry no phase
    cfg, net, pilots, phases, stats, terms = desk
    lam, end = cfg.estimation_instant, cfg.tau_c
    assert phases.var_ap > 0 and phases.var_ue > 0
    plan = cf.make_plan(terms, "du_mr", "noncoherent", 0.5)
    coherent = cf.make_plan(terms, "du_mr", "coherent", 0.5)
    batch = desk_batch([plan, coherent])
    first, last = (cfrs.mc_sinr(batch, plan, n).terms for n in (lam, end))
    assert np.array_equal(first.int_, last.int_)
    assert np.array_equal(first.int_common, last.int_common)
    assert not np.array_equal(first.ds, last.ds)
    first, last = (cfrs.mc_sinr(batch, coherent, n).terms for n in (lam, end))
    assert not np.array_equal(first.int_, last.int_)


def check_transmit_power(desk, desk_batch, arrays):
    """Check transmit_power_stats on the desk batch against per-realization
    power sums; ``arrays`` is ``desk_arrays``."""
    cfg, net, pilots, phases, stats, terms = desk
    plans = (cf.make_plan(terms, "du_mr", "coherent", 0.5),
             cf.make_plan(terms, "df_mr", "noncoherent", 0.0))
    batch = desk_batch(plans)
    groups, _ = jackknife_groups(batch.count, cfg.K, cfg.L)
    for plan in plans:
        p_dp, p_dc = (1.0 - plan.rho) * cfg.p_d, plan.rho * cfg.p_d
        v = private_precoders(arrays.hhat, net, plan.private_scheme)
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


def test_transmit_power_matches_per_realization_sums(desk, desk_batch, desk_arrays):
    check_transmit_power(desk, desk_batch, desk_arrays)


def test_transmit_power_over_partial_slices(desk, desk_batch, desk_arrays, monkeypatch):
    monkeypatch.setattr(mc, "_WORK_ELEMENTS", 1)  # 64-realization slices
    cfg = desk[0]
    assert_groups_span_partial_slices(desk_arrays.count, cfg.K, cfg.L)
    check_transmit_power(desk, desk_batch, desk_arrays)


def test_plans_of_another_network_are_rejected(desk, desk_batch):
    # a mismatch names both shapes instead of failing inside, or being
    # truncated by, the sums over UEs and APs
    cfg, net, pilots, phases, stats, terms = desk
    three_ues = small_setup(L=cfg.L, K=3, tau_p=2)[-1]
    wide = cf.make_plan(three_ues, "du_mr", "coherent", 0.5)
    plan = cf.make_plan(terms, "du_mr", "noncoherent", 0.5)
    long_eta = dataclasses.replace(plan, eta=np.ones(cfg.L + 1))
    for bad, message in ((wide, r"mu has shape \(3, 4\).*needs \(2, 4\)"),
                         (long_eta, r"eta has shape \(5,\).*needs \(4,\)")):
        with pytest.raises(ValueError, match=message):
            desk_batch([plan, bad])
