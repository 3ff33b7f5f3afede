import dataclasses

import numpy as np
import pytest

import cfrs
from cfrs import montecarlo as mc
from cfrs.estimation import decay_factors, nmse
from cfrs.model import NetworkModel

from conftest import (
    DESK_DRAW,
    dense_R,
    draw_workspace,
    estimate_covariance,
    from_eigenbasis,
    mmse_filters,
    per_link_statistics,
    random_instance,
    random_template,
    rank1_q_cross,
    to_eigenbasis,
    uneven_pilots,
)


def single_link_network(beta: float, N: int = 1) -> NetworkModel:
    return NetworkModel(
        ap_positions=np.zeros((1, 2)),
        ue_positions=np.ones((1, 2)),
        beta=np.array([[beta]]),
        template=np.eye(N, dtype=complex),
        theta=np.ones((1, 1), dtype=complex),
    )


# ---------------------------------------------------------------------------
# pilot assignment
# ---------------------------------------------------------------------------

def test_round_robin_orthogonal_when_enough_pilots():
    pa = cfrs.assign_pilots(4, 4)
    assert [idx.shape for idx in pa.stacks] == [(4, 1)]
    assert pa.set_of.tolist() == [0, 1, 2, 3]


def test_round_robin_contamination_groups():
    pa = cfrs.assign_pilots(8, 4)
    assert [0, 4] in pa.stacks[0].tolist()  # UE 1 and UE 5 share the first instant
    assert pa.t[0] == pa.t[4] and pa.t[0] != pa.t[1]
    assert pa.set_of[0] == pa.set_of[4] != pa.set_of[1]



@pytest.mark.parametrize("t", [[0, 1], [1, 3]])
def test_pilot_instants_outside_the_pilot_block_rejected(t):
    with pytest.raises(ValueError, match=r"pilot instants must lie in 1\.\.tau_p"):
        cfrs.estimation.PilotAssignment(t=np.array(t), tau_p=2)


def test_pilot_assignment_checks_its_arguments():
    with pytest.raises(ValueError, match="tau_p must be >= 1"):
        cfrs.assign_pilots(2, 0)

def check_set_numbering(pa):
    """Every UE is in exactly one set, ``set_of`` and ``stacks`` agree, the
    sets are numbered by size and then by pilot instant, and ``set_sums``
    adds each set's UEs."""
    K = pa.K
    rows = [row for idx in pa.stacks for row in idx.tolist()]
    assert sorted(k for row in rows for k in row) == list(range(K))
    for s, row in enumerate(rows):
        assert row == sorted(row)
        assert [pa.set_of[k] for k in row] == [s] * len(row)
        # a set is the UEs of one pilot instant, all of them
        assert row == np.flatnonzero(pa.t == pa.t[row[0]]).tolist()
    assert [(len(row), pa.t[row[0]]) for row in rows] == sorted(
        (len(row), pa.t[row[0]]) for row in rows)
    # one stack per set size, in increasing size order
    sizes = [idx.shape[1] for idx in pa.stacks]
    assert sizes == sorted(set(sizes))
    a = np.random.default_rng(K).random((K, 3))
    want = np.zeros((len(rows), 3))
    for k in range(K):
        want[pa.set_of[k]] += a[k]
    assert np.allclose(pa.set_sums(a), want, rtol=1e-15, atol=0)


def pilots_by(policy, K, tau_p, seed):
    """Round-robin pilots, or ("random") K instants drawn uniformly from
    1..tau_p by a generator seeded with ``seed``."""
    if policy == "round_robin":
        return cfrs.assign_pilots(K, tau_p)
    t = np.random.default_rng(seed).integers(1, tau_p + 1, size=K)
    return cfrs.PilotAssignment(t=t, tau_p=tau_p)


def test_set_numbering_partitions_and_orders_the_sets():
    for policy in ("round_robin", "random"):
        for K in range(1, 33):
            for tau_p in range(1, K + 1):
                check_set_numbering(pilots_by(policy, K, tau_p, seed=K * 100 + tau_p))
        rng = np.random.default_rng(0)
        for _ in range(50):
            K = int(rng.integers(1, 65))
            tau_p = int(rng.integers(1, K + 9))
            check_set_numbering(pilots_by(policy, K, tau_p, seed=int(rng.integers(1e9))))


# ---------------------------------------------------------------------------
# MMSE / LS statistics
# ---------------------------------------------------------------------------

def _single_ue_nmse(beta, p, sigma2, var_ap=0.0, var_ue=0.0, N=1):
    """The (MMSE, LS) NMSE pair of one UE on one AP."""
    net = single_link_network(beta, N)
    cfg = cfrs.SystemConfig(
        L=1, K=1, N=N, tau_p=1, tau_c=20, p_pilot=p, sigma2_ul=sigma2, seed=0
    )
    pilots = cfrs.assign_pilots(1, 1)
    phases = cfrs.PhaseStatistics(var_ap=var_ap, var_ue=var_ue)
    return nmse(net, pilots, phases, cfg)


def test_scalar_mmse_nmse_identity():
    beta, p, sigma2 = 1e-9, 0.1, 2.5e-13
    nmse_mmse, _ = _single_ue_nmse(beta, p, sigma2)
    expected = 1.0 / (1.0 + p * beta / sigma2)
    assert nmse_mmse[0, 0] == pytest.approx(expected, rel=1e-12)


def test_scalar_mmse_nmse_with_phase_decay():
    beta, p, sigma2, s2 = 1e-9, 0.1, 2.5e-13, 1e-3
    nmse_mmse, _ = _single_ue_nmse(beta, p, sigma2, var_ap=s2, var_ue=s2)
    # one-instant gap, both oscillators at variance s2
    expected = 1.0 - np.exp(-2 * s2) * p * beta / (p * beta + sigma2)
    assert nmse_mmse[0, 0] == pytest.approx(expected, rel=1e-12)


def test_scalar_ls_nmse_is_inverse_snr():
    beta, p, sigma2 = 4e-10, 0.05, 2.5e-13
    _, nmse_ls = _single_ue_nmse(beta, p, sigma2, N=3)
    assert nmse_ls[0, 0] == pytest.approx(sigma2 / (p * beta), rel=1e-12)


def test_ls_nmse_vanishes_at_high_snr():
    vals = [
        _single_ue_nmse(1e-9, p, 2.5e-13)[1][0, 0]
        for p in (0.1, 10.0, 1000.0)
    ]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-5


def test_a_drift_that_leaves_no_estimate_is_named():
    # 1.6e3 rad^2 per symbol on each side: the decay of a pilot sent two
    # symbols before the estimation instant underflows to 0, and every
    # estimate's power with it
    cfg = cfrs.SystemConfig(L=3, K=3, N=2, tau_p=2, tau_c=20, c_ap=1e-12, c_ue=1e-12)
    net = cfrs.build_network(cfg)
    pilots = cfrs.assign_pilots(cfg.K, cfg.tau_p)
    phases = cfrs.PhaseStatistics.from_config(cfg)
    with pytest.raises(ValueError, match=r"UE 0's pilot over the 2 symbol.*no channel estimate$"):
        cfrs.estimation_statistics(net, pilots, phases, cfg)
    # a drift below the underflow still gives finite statistics
    phases = cfrs.PhaseStatistics(100.0, 100.0)
    assert decay_factors(pilots, phases).min() > 0
    stats = cfrs.estimation_statistics(net, pilots, phases, cfg)
    assert np.all(np.isfinite(nmse(net, pilots, phases, cfg)[1]))
    assert np.all(estimate_covariance(net, pilots, stats).sum(axis=(0, 2)) > 0)


@pytest.mark.parametrize("K, tau_p", [(2, 1), (2, 6), (3, 2)])
def test_statistics_reject_pilots_of_another_system(desk, K, tau_p):
    # the desk has K = 2 and tau_p = 2: pilots for another tau_p would count
    # the drift to their own tau_p + 1, not to the config's estimation instant
    cfg, net, _, phases, _, _ = desk
    with pytest.raises(ValueError, match=rf"K = {K}, pilots.tau_p = {tau_p}\).*"
                                         rf"K = 2 and config.tau_p = 2"):
        cfrs.estimation_statistics(net, cfrs.assign_pilots(K, tau_p), phases, cfg)


def test_ls_never_beats_mmse_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(100):
        cfg, net, pilots, phases, _, _ = random_instance(rng)
        nmse_mmse, nmse_ls = nmse(net, pilots, phases, cfg)
        assert np.all(nmse_ls >= nmse_mmse - 1e-12)


def test_nmse_in_unit_interval_and_monotone_in_variance():
    cfg = cfrs.SystemConfig(L=6, K=4, N=2, tau_p=2, tau_c=30, seed=8)
    net = cfrs.build_network(cfg)
    pilots = cfrs.assign_pilots(cfg.K, cfg.tau_p)
    previous = None
    for var in (0.0, 1e-5, 1e-4, 1e-3, 1e-2):
        ph = cfrs.PhaseStatistics(var_ap=var, var_ue=var)
        nmse_mmse = nmse(net, pilots, ph, cfg)[0]
        assert np.all(nmse_mmse >= 0) and np.all(nmse_mmse <= 1)
        if previous is not None:
            assert np.all(nmse_mmse >= previous - 1e-15)
        previous = nmse_mmse


def test_nmse_monotone_in_pilot_gap():
    # a later pilot instant (smaller gap to the estimation instant) estimates better
    cfg = cfrs.SystemConfig(L=3, K=2, N=2, tau_p=2, tau_c=20, seed=3)
    net = cfrs.build_network(cfg)
    ph = cfrs.PhaseStatistics(var_ap=1e-3, var_ue=1e-3)
    pilots = cfrs.assign_pilots(2, 2)  # UE0 -> instant 1 (gap 2), UE1 -> instant 2 (gap 1)
    nmse_mmse = nmse(net, pilots, ph, cfg)[0]
    swapped = cfrs.PilotAssignment(t=np.array([2, 1]), tau_p=2)
    nmse_sw = nmse(net, swapped, ph, cfg)[0]
    assert np.all(nmse_mmse[0] > nmse_sw[0])


def test_contamination_never_improves_nmse():
    cfg = cfrs.SystemConfig(L=4, K=2, N=2, tau_p=2, tau_c=20, seed=12)
    net = cfrs.build_network(cfg)
    ph = cfrs.PhaseStatistics(var_ap=1e-4, var_ue=1e-4)
    orthogonal = cfrs.PilotAssignment(t=np.array([1, 2]), tau_p=2)
    contaminated = cfrs.PilotAssignment(t=np.array([1, 1]), tau_p=2)
    nm_orth = nmse(net, orthogonal, ph, cfg)[0]
    nm_cont = nmse(net, contaminated, ph, cfg)[0]
    assert np.all(nm_cont[0] >= nm_orth[0] - 1e-15)


def test_statistics_invariants_random_instances(desk):
    rng = np.random.default_rng(7)
    for _ in range(20):
        _, net, pilots, _, stats, _ = random_instance(rng)
        # the statistics are eigenvalues in T's eigenbasis: Psi PD
        assert stats.Psi.min() > 0
        # 0 <= Q <= R, with R's eigenvalues beta * lam
        Q = estimate_covariance(net, pilots, stats)
        assert Q.min() >= -1e-10
        assert (net.beta[..., None] * net.lam - Q).min() >= -1e-10
        blocks = rank1_q_cross(net, pilots, stats)
        # Q_cross collapses to Q on the diagonal
        assert np.allclose(np.einsum("kkln->kln", blocks), Q, rtol=1e-12)
        # one Psi per co-pilot set
        assert stats.Psi.shape == (len(np.unique(pilots.t)), net.L, net.N)
        # trace symmetry within pilot groups (real, equal traces)
        tr = blocks.sum(axis=-1)
        assert np.isrealobj(tr)
        assert np.allclose(tr, np.swapaxes(tr, 0, 1), rtol=1e-9)


def test_batched_statistics_match_per_link_loop():
    rng = np.random.default_rng(23)
    for _ in range(12):
        # co-pilot sets of several UEs, each with its own gains and pilot power
        K = int(rng.integers(3, 6))
        cfg, net, pilots, phases, stats, _ = random_instance(
            rng, K=K, tau_p=int(rng.integers(1, K)))
        assert np.bincount(pilots.set_of).max() > 1
        cfg = dataclasses.replace(cfg, p_pilot=tuple(rng.uniform(0.05, 0.2, cfg.K)))
        # distinct gains (the path loss is flat near an AP), and a generic
        # complex template with distinct eigenvalues, so that the eigenbasis
        # is not the antenna basis and no eigenvalue repeats
        net = dataclasses.replace(net, beta=10 ** rng.uniform(-10, -8, net.beta.shape),
                                  template=random_template(rng, cfg.N))
        stats = cfrs.estimation_statistics(net, pilots, phases, cfg)
        ref = per_link_statistics(net, pilots, phases, cfg)
        Q_cross = rank1_q_cross(net, pilots, stats)
        got = [from_eigenbasis(net, x) for x in
               (stats.Psi[pilots.set_of], estimate_covariance(net, pilots, stats), Q_cross)]
        for got, want in zip(got + [nmse(net, pilots, phases, cfg)[1]], ref):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("policy", ["round_robin", "random"])
def test_stacked_statistics_match_per_link_loop_on_uneven_sets(policy):
    # K = 7 UEs on 3 pilots: sizes 3, 2, 2, so two stacks; under the random
    # policy the sets' instant order differs from their first members' order
    rng = np.random.default_rng(31)
    cfg, net, _, phases, _, _ = random_instance(rng, L=4, K=7, N=3, tau_p=3)
    cfg = dataclasses.replace(cfg, p_pilot=tuple(rng.uniform(0.05, 0.2, cfg.K)))
    net = dataclasses.replace(net, beta=10 ** rng.uniform(-10, -8, net.beta.shape),
                              template=random_template(rng, cfg.N))
    pilots = uneven_pilots(policy)
    # the sets in pilot-instant order
    groups = [np.flatnonzero(pilots.t == inst).tolist() for inst in np.unique(pilots.t)]
    assert sorted(len(g) for g in groups) == [2, 2, 3]
    if policy == "random":
        firsts = [g[0] for g in groups]
        assert firsts != sorted(firsts)
    # one (S, g) index stack per set size, in increasing size order, its rows
    # the sets of that size in pilot-instant order, with no padding
    sizes_2 = [g for g in groups if len(g) == 2]
    sizes_3 = [g for g in groups if len(g) == 3]
    assert [idx.tolist() for idx in pilots.stacks] == [sizes_2, sizes_3]
    stats = cfrs.estimation_statistics(net, pilots, phases, cfg)
    # no co-pilot pair is stored: the blocks are rank 1 in the (K, L) factor x
    assert stats.x.shape == (cfg.K, cfg.L)
    ref = per_link_statistics(net, pilots, phases, cfg)
    Q_cross = rank1_q_cross(net, pilots, stats)
    # one Psi per set, in set order
    assert stats.Psi.shape == (3, cfg.L, cfg.N)
    got = [from_eigenbasis(net, x) for x in
           (stats.Psi[pilots.set_of], estimate_covariance(net, pilots, stats), Q_cross)]
    for got, want in zip(got + [nmse(net, pilots, phases, cfg)[1]], ref):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_indefinite_pilot_covariance_raises():
    # a negative gain or an indefinite template would make the pilot
    # covariance indefinite; the network model refuses both when it is built
    net = single_link_network(1e-9, N=2)
    with pytest.raises(ValueError, match="beta must be finite and > 0"):
        dataclasses.replace(net, beta=-net.beta)
    with pytest.raises(ValueError, match="template must be positive semidefinite"):
        dataclasses.replace(net, template=np.diag([3.0, -1.0]).astype(complex))


def test_rejects_non_hermitian_correlation():
    net = single_link_network(1e-9, N=2)
    bad_T = net.template.copy()
    bad_T[0, 1] = 0.5  # break symmetry
    with pytest.raises(ValueError, match="template must be Hermitian"):
        dataclasses.replace(net, template=bad_T)


# ---------------------------------------------------------------------------
# estimate realizations
# ---------------------------------------------------------------------------

def test_batch_estimates_match_single_realization_path(desk, desk_instants, desk_arrays):
    cfg, net, pilots, phases, stats, _ = desk
    # the pilot signal of the batch's first two chunks, redrawn with its
    # seed, each chunk into a workspace of its own
    draw = mc._ChunkDraw(net, pilots, phases, cfg, DESK_DRAW["count"],
                         DESK_DRAW["seed"], desk_instants)
    z = np.concatenate([draw(chunk, draw_workspace(draw))[1] for chunk in range(2)],
                       axis=-1)
    filters = mmse_filters(net, pilots, stats)
    for r in (0, 123, 4567):
        for k in range(cfg.K):
            for l in range(cfg.L):
                # one realization's estimate: the filter applied to its set's pilot signal
                direct = (np.conj(net.theta[k, l]) * filters[k, l]
                          * z[pilots.set_of[k], l, :, r])
                assert np.allclose(direct, desk_arrays.hhat[k, l, :, r], rtol=1e-12)


def test_estimate_covariance_matches_q(desk, desk_arrays):
    cfg, net, pilots, _, stats, _ = desk
    hhat = desk_arrays.hhat
    Q_all = estimate_covariance(net, pilots, stats)
    for k in range(cfg.K):
        for l in range(cfg.L):
            emp = np.einsum("nr,mr->nm", hhat[k, l],
                            np.conj(hhat[k, l])) / desk_arrays.count
            # the batch is drawn in T's eigenbasis, where Q is diagonal
            Q = np.diag(Q_all[k, l])
            rel = np.linalg.norm(emp - Q) / np.linalg.norm(Q)
            assert rel < 0.02


def test_estimate_error_orthogonality(desk, desk_arrays):
    cfg, net, _, phases, stats, _ = desk
    arrays = desk_arrays
    lam_idx = arrays.instants.index(cfg.estimation_instant)
    for k in range(cfg.K):
        for l in range(cfg.L):
            # exp(i(ue + ap)) from the factors exp(-i ue) and exp(-i ap)
            rot = np.conj(arrays.ue_factor[k, lam_idx] * arrays.ap_factor[l, lam_idx])
            h_lam = rot * arrays.h[k, l]  # oscillator-rotated channel at lam
            err = h_lam - arrays.hhat[k, l]
            prods = np.einsum("nr,mr->nmr", arrays.hhat[k, l], np.conj(err))
            mean = prods.mean(axis=-1)
            stderr = np.sqrt(
                (np.var(prods.real, axis=-1) + np.var(prods.imag, axis=-1)) / arrays.count
            )
            assert np.all(np.abs(mean) <= 3 * stderr + 1e-15)


def test_filter_matrices_reduce_to_classic_mmse_without_phase_noise():
    # a complex template with distinct eigenvalues, so the filter is not a
    # multiple of the identity
    net = dataclasses.replace(single_link_network(2e-9, N=2),
                              template=np.array([[1.0, 0.5j], [-0.5j, 1.0]]))
    cfg = cfrs.SystemConfig(L=1, K=1, N=2, tau_p=1, tau_c=20, seed=0)
    pilots = cfrs.assign_pilots(1, 1)
    phases = cfrs.PhaseStatistics(0.0, 0.0)
    stats = cfrs.estimation_statistics(net, pilots, phases, cfg)
    filt = mmse_filters(net, pilots, stats)
    p = cfg.pilot_powers()[0]
    R = dense_R(net)[0, 0]
    classic = np.sqrt(p) * R @ np.linalg.inv(p * R + cfg.sigma2_ul * np.eye(2))
    assert np.allclose(from_eigenbasis(net, filt[0, 0]), classic, rtol=1e-12)
    assert np.allclose(filt[0, 0], np.diag(to_eigenbasis(net, classic)), rtol=1e-12)
    assert decay_factors(pilots, phases)[0] == 1.0
