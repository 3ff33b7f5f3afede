import dataclasses

import numpy as np
import pytest

import cfrs
from cfrs import montecarlo as mc
from cfrs.estimation import decay_factors, mmse_filter_matrices
from cfrs.model import NetworkModel

from conftest import dense_copilot, per_link_statistics, random_instance


def single_link_network(beta: float, N: int = 1) -> NetworkModel:
    return NetworkModel(
        ap_positions=np.zeros((1, 2)),
        ue_positions=np.ones((1, 2)),
        beta=np.array([[beta]]),
        R=beta * np.eye(N, dtype=complex)[None, None],
        theta=np.ones((1, 1), dtype=complex),
    )


# ---------------------------------------------------------------------------
# pilot assignment
# ---------------------------------------------------------------------------

def test_round_robin_orthogonal_when_enough_pilots():
    pa = cfrs.assign_pilots(4, 4)
    assert all(len(g) == 1 for g in pa.groups)


def test_round_robin_contamination_groups():
    pa = cfrs.assign_pilots(8, 4)
    assert (0, 4) in pa.groups  # UE 1 and UE 5 share the first instant
    assert pa.t[0] == pa.t[4] and pa.t[0] != pa.t[1]


def test_groups_partition_exhaustive():
    for K in range(1, 33):
        for tau_p in range(1, K + 1):
            pa = cfrs.assign_pilots(K, tau_p)
            members = sorted(k for g in pa.groups for k in g)
            assert members == list(range(K))
    rng = np.random.default_rng(0)
    for _ in range(50):
        K = int(rng.integers(1, 33))
        tau_p = int(rng.integers(1, K + 1))
        pa = cfrs.assign_pilots(K, tau_p, policy="random", seed=int(rng.integers(1e9)))
        members = sorted(k for g in pa.groups for k in g)
        assert members == list(range(K))


# ---------------------------------------------------------------------------
# MMSE / LS statistics
# ---------------------------------------------------------------------------

def _single_ue_stats(beta, p, sigma2, var_ap=0.0, var_ue=0.0, N=1):
    net = single_link_network(beta, N)
    cfg = cfrs.SystemConfig(
        L=1, K=1, N=N, tau_p=1, tau_c=20, p_pilot=p, sigma2_ul=sigma2, seed=0
    )
    pilots = cfrs.assign_pilots(1, 1)
    phases = cfrs.PhaseStatistics(var_ap=var_ap, var_ue=var_ue)
    return cfrs.estimation_statistics(net, pilots, phases, cfg), cfg, net, pilots, phases


def test_scalar_mmse_nmse_identity():
    beta, p, sigma2 = 1e-9, 0.1, 2.5e-13
    stats, *_ = _single_ue_stats(beta, p, sigma2)
    expected = 1.0 / (1.0 + p * beta / sigma2)
    assert stats.nmse_mmse[0, 0] == pytest.approx(expected, rel=1e-12)


def test_scalar_mmse_nmse_with_phase_decay():
    beta, p, sigma2, s2 = 1e-9, 0.1, 2.5e-13, 1e-3
    stats, *_ = _single_ue_stats(beta, p, sigma2, var_ap=s2, var_ue=s2)
    # one-instant gap, both oscillators at variance s2
    expected = 1.0 - np.exp(-2 * s2) * p * beta / (p * beta + sigma2)
    assert stats.nmse_mmse[0, 0] == pytest.approx(expected, rel=1e-12)


def test_scalar_ls_nmse_is_inverse_snr():
    beta, p, sigma2 = 4e-10, 0.05, 2.5e-13
    stats, *_ = _single_ue_stats(beta, p, sigma2, N=3)
    assert stats.nmse_ls[0, 0] == pytest.approx(sigma2 / (p * beta), rel=1e-12)


def test_ls_nmse_vanishes_at_high_snr():
    vals = [
        _single_ue_stats(1e-9, p, 2.5e-13)[0].nmse_ls[0, 0]
        for p in (0.1, 10.0, 1000.0)
    ]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-5


def test_ls_never_beats_mmse_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(100):
        _, _, _, _, stats, _ = random_instance(rng)
        assert np.all(stats.nmse_ls >= stats.nmse_mmse - 1e-12)


def test_nmse_in_unit_interval_and_monotone_in_variance():
    cfg = cfrs.SystemConfig(L=6, K=4, N=2, tau_p=2, tau_c=30, seed=8)
    net = cfrs.build_network(cfg)
    pilots = cfrs.assign_pilots(cfg.K, cfg.tau_p)
    previous = None
    for var in (0.0, 1e-5, 1e-4, 1e-3, 1e-2):
        ph = cfrs.PhaseStatistics(var_ap=var, var_ue=var)
        stats = cfrs.estimation_statistics(net, pilots, ph, cfg)
        assert np.all(stats.nmse_mmse >= 0) and np.all(stats.nmse_mmse <= 1)
        if previous is not None:
            assert np.all(stats.nmse_mmse >= previous - 1e-15)
        previous = stats.nmse_mmse


def test_nmse_monotone_in_pilot_gap():
    # a later pilot instant (smaller gap to the estimation instant) estimates better
    cfg = cfrs.SystemConfig(L=3, K=2, N=2, tau_p=2, tau_c=20, seed=3)
    net = cfrs.build_network(cfg)
    ph = cfrs.PhaseStatistics(var_ap=1e-3, var_ue=1e-3)
    pilots = cfrs.assign_pilots(2, 2)  # UE0 -> instant 1 (gap 2), UE1 -> instant 2 (gap 1)
    stats = cfrs.estimation_statistics(net, pilots, ph, cfg)
    swapped = cfrs.PilotAssignment(t=np.array([2, 1]), tau_p=2)
    stats_sw = cfrs.estimation_statistics(net, swapped, ph, cfg)
    assert np.all(stats.nmse_mmse[0] > stats_sw.nmse_mmse[0])


def test_contamination_never_improves_nmse():
    cfg = cfrs.SystemConfig(L=4, K=2, N=2, tau_p=2, tau_c=20, seed=12)
    net = cfrs.build_network(cfg)
    ph = cfrs.PhaseStatistics(var_ap=1e-4, var_ue=1e-4)
    orthogonal = cfrs.PilotAssignment(t=np.array([1, 2]), tau_p=2)
    contaminated = cfrs.PilotAssignment(t=np.array([1, 1]), tau_p=2)
    nm_orth = cfrs.estimation_statistics(net, orthogonal, ph, cfg).nmse_mmse
    nm_cont = cfrs.estimation_statistics(net, contaminated, ph, cfg).nmse_mmse
    assert np.all(nm_cont[0] >= nm_orth[0] - 1e-15)


def test_statistics_invariants_random_instances(desk):
    rng = np.random.default_rng(7)
    for _ in range(20):
        _, net, pilots, _, stats, _ = random_instance(rng)
        # Psi Hermitian PD
        herm = np.max(np.abs(stats.Psi - np.conj(np.swapaxes(stats.Psi, -1, -2))))
        assert herm < 1e-8 * np.max(np.abs(stats.Psi))
        assert np.linalg.eigvalsh(stats.Psi).min() > 0
        # 0 <= Q <= R
        assert np.linalg.eigvalsh(stats.Q).min() >= -1e-10
        assert np.linalg.eigvalsh(net.R - stats.Q).min() >= -1e-10
        for g, block in zip(pilots.groups, stats.Q_cross):
            # Q_cross collapses to Q on the diagonal
            for a, k in enumerate(g):
                assert np.allclose(block[a, a], stats.Q[k], rtol=1e-12)
            # trace symmetry within pilot groups (real, equal traces)
            tr = np.einsum("kilnn->kil", block)
            assert np.max(np.abs(tr.imag)) < 1e-9 * max(np.max(np.abs(tr)), 1e-300)
            assert np.allclose(tr, np.swapaxes(tr, 0, 1), rtol=1e-9)


def test_batched_statistics_match_per_link_loop():
    rng = np.random.default_rng(23)
    for _ in range(12):
        cfg, net, pilots, phases, stats, _ = random_instance(rng)
        cfg = dataclasses.replace(cfg, p_pilot=tuple(rng.uniform(0.05, 0.2, cfg.K)))
        # generic complex Hermitian R: the model's R[k, l] all commute
        A = rng.normal(size=net.R.shape) + 1j * rng.normal(size=net.R.shape)
        R = A @ np.conj(np.swapaxes(A, -1, -2)) * (net.beta / net.N)[..., None, None]
        net = dataclasses.replace(net, R=R)
        stats = cfrs.estimation_statistics(net, pilots, phases, cfg)
        ref = per_link_statistics(net, pilots, phases, cfg)
        Q_cross = dense_copilot(stats.Q_cross, pilots.groups, cfg.K)
        for got, want in zip((stats.Psi, stats.Q, Q_cross, stats.nmse_ls), ref):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_indefinite_pilot_covariance_raises():
    net = single_link_network(1e-9, N=2)
    bad = dataclasses.replace(net, R=-net.R)  # Hermitian, negative definite
    cfg = cfrs.SystemConfig(L=1, K=1, N=2, tau_p=1, tau_c=20, seed=0)
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        cfrs.estimation_statistics(
            bad, cfrs.assign_pilots(1, 1), cfrs.PhaseStatistics(0, 0), cfg
        )


def test_rejects_non_hermitian_correlation():
    net = single_link_network(1e-9, N=2)
    bad_R = net.R.copy()
    bad_R[0, 0, 0, 1] = 5e-10  # break symmetry
    bad = dataclasses.replace(net, R=bad_R)
    cfg = cfrs.SystemConfig(L=1, K=1, N=2, tau_p=1, tau_c=20, seed=0)
    with pytest.raises(ValueError, match="Hermitian"):
        cfrs.estimation_statistics(
            bad, cfrs.assign_pilots(1, 1), cfrs.PhaseStatistics(0, 0), cfg
        )


# ---------------------------------------------------------------------------
# estimate realizations
# ---------------------------------------------------------------------------

def test_estimate_is_linear_and_zero_on_zero_input(desk):
    cfg, net, pilots, phases, stats, _ = desk
    z = np.zeros(cfg.N, dtype=complex)
    est = cfrs.mmse_estimate_realization(z, 0, 0, stats, net, pilots, phases, cfg)
    assert np.all(est == 0)
    with pytest.raises(ValueError):
        cfrs.mmse_estimate_realization(np.zeros(cfg.N + 1, dtype=complex), 0, 0,
                                       stats, net, pilots, phases, cfg)


def test_batch_estimates_match_single_realization_path(desk, desk_batch):
    cfg, net, pilots, phases, stats, _ = desk
    batch, instants = desk_batch
    group_of = {k: g for g, grp in enumerate(pilots.groups) for k in grp}
    # the pilot signal of the batch's first two chunks, redrawn with its seed
    chunks = mc._draw_chunks(net, pilots, stats, phases, cfg, batch.count, 7, instants)
    z = np.concatenate([next(chunks)[4] for _ in range(2)])
    for r in (0, 123, 4567):
        for k in range(cfg.K):
            for l in range(cfg.L):
                direct = cfrs.mmse_estimate_realization(
                    z[r, group_of[k], l], k, l,
                    stats, net, pilots, phases, cfg,
                )
                assert np.allclose(direct, batch.hhat[k, l, :, r], rtol=1e-12)


def test_estimate_covariance_matches_q(desk, desk_batch):
    cfg, net, _, _, stats, _ = desk
    batch, _ = desk_batch
    for k in range(cfg.K):
        for l in range(cfg.L):
            emp = np.einsum("nr,mr->nm", batch.hhat[k, l],
                            np.conj(batch.hhat[k, l])) / batch.count
            rel = np.linalg.norm(emp - stats.Q[k, l]) / np.linalg.norm(stats.Q[k, l])
            assert rel < 0.02


def test_estimate_error_orthogonality(desk, desk_batch):
    cfg, net, _, phases, stats, _ = desk
    batch, _ = desk_batch
    lam_idx = batch.instant_index(cfg.estimation_instant)
    for k in range(cfg.K):
        for l in range(cfg.L):
            # exp(i(ue + ap)) from the stored factors exp(-i ue) and exp(-i ap)
            rot = np.conj(batch.ue_factor[k, lam_idx] * batch.ap_factor[l, lam_idx])
            h_lam = rot * batch.h[k, l]  # oscillator-rotated channel at lam
            err = h_lam - batch.hhat[k, l]
            prods = np.einsum("nr,mr->nmr", batch.hhat[k, l], np.conj(err))
            mean = prods.mean(axis=-1)
            stderr = np.sqrt(
                (np.var(prods.real, axis=-1) + np.var(prods.imag, axis=-1)) / batch.count
            )
            assert np.all(np.abs(mean) <= 3 * stderr + 1e-15)


def test_filter_matrices_reduce_to_classic_mmse_without_phase_noise():
    net = single_link_network(2e-9, N=2)
    cfg = cfrs.SystemConfig(L=1, K=1, N=2, tau_p=1, tau_c=20, seed=0)
    pilots = cfrs.assign_pilots(1, 1)
    phases = cfrs.PhaseStatistics(0.0, 0.0)
    stats = cfrs.estimation_statistics(net, pilots, phases, cfg)
    filt = mmse_filter_matrices(net, pilots, stats, phases, cfg)
    p = cfg.pilot_powers()[0]
    classic = np.sqrt(p) * net.R[0, 0] @ np.linalg.inv(
        p * net.R[0, 0] + cfg.sigma2_ul * np.eye(2)
    )
    assert np.allclose(filt[0, 0], classic, rtol=1e-12)
    assert decay_factors(pilots, phases)[0] == 1.0
