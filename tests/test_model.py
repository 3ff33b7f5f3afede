import dataclasses

import numpy as np
import pytest

import cfrs
from cfrs import montecarlo as mc
from cfrs.model import delay_phases, three_slope_gain_db

from conftest import dense_R, drawn_chunks


def test_phase_increment_variance_zero_constant():
    assert cfrs.phase_increment_variance(2e9, 0.0, 1e-5) == 0.0


def test_phase_increment_variance_value():
    # 4*pi^2 * (2e9)^2 * 1e-18 * 1e-5
    expected = 4 * np.pi**2 * 4e18 * 1e-18 * 1e-5
    got = cfrs.phase_increment_variance(2e9, 1e-18, 1e-5)
    assert got == pytest.approx(expected, rel=1e-15)
    assert got == pytest.approx(1.5791367041742973e-3, rel=1e-12)


def test_phase_increment_variance_quadratic_in_carrier():
    base = cfrs.phase_increment_variance(1e9, 1e-18, 1e-5)
    assert cfrs.phase_increment_variance(2e9, 1e-18, 1e-5) == pytest.approx(4 * base)


def test_phase_increment_variance_rejects_nonpositive():
    with pytest.raises(ValueError):
        cfrs.phase_increment_variance(0.0, 1e-18, 1e-5)
    with pytest.raises(ValueError):
        cfrs.phase_increment_variance(2e9, -1.0, 1e-5)


@pytest.mark.parametrize("var_ap, var_ue", [
    (-1e-3, 0.0), (0.0, -1e-3), (float("nan"), 0.0), (0.0, float("inf")),
])
def test_phase_statistics_reject_bad_variances(var_ap, var_ue):
    with pytest.raises(ValueError, match="finite and >= 0"):
        cfrs.PhaseStatistics(var_ap, var_ue)


def test_expected_phase_decay_edges():
    assert cfrs.expected_phase_decay(0, 0.5) == 1.0
    assert cfrs.expected_phase_decay(17, 0.0) == 1.0
    assert cfrs.expected_phase_decay(2, 0.01) == pytest.approx(np.exp(-0.01), rel=1e-14)
    assert cfrs.expected_phase_decay(2, 0.01) == pytest.approx(0.990050, abs=1e-6)


def test_expected_phase_decay_strictly_monotone():
    gaps = np.arange(0, 30)
    vals = cfrs.expected_phase_decay(gaps, 0.02)
    assert np.all(np.diff(vals) < 0)
    over_var = [cfrs.expected_phase_decay(3, v) for v in np.linspace(0.001, 0.1, 20)]
    assert np.all(np.diff(over_var) < 0)


def _link_phases(var_ap, var_ue, count, instants, seed):
    """Monte Carlo oscillator phases of one single-antenna link: every instant
    the draw samples (the pilot instant included) and the (count, M) UE and AP
    phase paths there, zero at instant 0."""
    cfg = cfrs.SystemConfig(L=1, K=1, N=1, tau_p=1, tau_c=20, seed=1)
    net, pilots = cfrs.build_network(cfg), cfrs.assign_pilots(1, 1)
    phases = cfrs.PhaseStatistics(var_ap=var_ap, var_ue=var_ue)
    stats = cfrs.estimation_statistics(net, pilots, phases, cfg)
    chunks = drawn_chunks(mc._ChunkDraw(net, pilots, stats, phases, cfg, count, seed, instants))
    ue, ap = (np.concatenate([chunk[i][:, 0] for chunk in chunks]) for i in (3, 4))
    return mc._phase_instants(pilots, cfg, instants), ue, ap


def test_phase_trajectory_zero_variance():
    instants, ue, ap = _link_phases(0.0, 0.0, 50, range(2, 21), seed=3)
    assert instants == list(range(1, 21))
    assert ue.shape == ap.shape == (50, 20)
    assert np.all(ue == 0.0) and np.all(ap == 0.0)


def test_phase_trajectory_rotation_mean_matches_decay():
    # E{exp(j(phi[n]-phi[m]))} = exp(-(n-m)*var/2), checked over 1e5 draws per side
    n, m = 9, 3
    instants, ue, ap = _link_phases(0.05, 0.02, 100_000, [m, n], seed=11)
    cols = [instants.index(n), instants.index(m)]
    for var, paths in ((0.05, ap), (0.02, ue)):
        rot = np.exp(1j * (paths[:, cols[0]] - paths[:, cols[1]]))
        est = rot.mean()
        stderr = np.sqrt((np.var(rot.real) + np.var(rot.imag)) / paths.shape[0])
        expected = cfrs.expected_phase_decay(n - m, var)
        assert abs(est - expected) < 3 * stderr


def test_phase_trajectory_increment_variance_consistent():
    var = 2e-3
    instants, ue, ap = _link_phases(var, var, 100_000, range(2, 9), seed=5)
    assert instants == list(range(1, 9))  # one instant per increment
    for paths in (ue, ap):
        increments = np.diff(np.concatenate([np.zeros((paths.shape[0], 1)), paths], axis=1))
        assert np.var(increments) == pytest.approx(var, rel=0.02)


def test_three_slope_continuity_and_anchor():
    for d in (10.0, 50.0):
        below = three_slope_gain_db(d - 1e-9)
        above = three_slope_gain_db(d + 1e-9)
        assert below == pytest.approx(above, abs=1e-6)
    assert three_slope_gain_db(1000.0) == pytest.approx(-140.7, abs=1e-9)


def test_delay_phases_single_ap_all_unity():
    cfg = cfrs.SystemConfig(L=1, K=5, tau_p=2, tau_c=20, seed=2)
    net = cfrs.build_network(cfg)
    assert np.all(net.theta == 1.0 + 0.0j)


def test_delay_phases_equidistant_aps_both_unity():
    dist = np.array([[70.0, 70.0, 80.0]])
    theta = delay_phases(dist, T_s=10e-6)
    assert theta[0, 0] == 1.0 + 0.0j
    assert theta[0, 1] == 1.0 + 0.0j
    assert theta[0, 2] != 1.0 + 0.0j


def test_build_network_deterministic():
    cfg = cfrs.SystemConfig(L=40, K=8, seed=7)
    a = cfrs.build_network(cfg)
    b = cfrs.build_network(cfg)
    assert np.array_equal(a.beta, b.beta)
    assert np.array_equal(a.theta, b.theta)
    assert np.array_equal(a.template, b.template)
    assert np.array_equal(a.lam, b.lam)
    assert np.array_equal(a.ap_positions, b.ap_positions)


@pytest.mark.parametrize("correlation,corr_r", [("uncorrelated", 0.0), ("exponential", 0.6)])
def test_correlation_matrix_invariants(correlation, corr_r):
    cfg = cfrs.SystemConfig(
        L=10, K=4, N=3, seed=9, correlation=correlation, corr_r=corr_r
    )
    net = cfrs.build_network(cfg)
    R = dense_R(net)
    herm_dev = np.max(np.abs(R - np.conj(np.swapaxes(R, -1, -2))))
    assert herm_dev < 1e-12
    eigs = np.linalg.eigvalsh(R)
    assert eigs.min() >= -1e-10
    tr = np.einsum("klnn->kl", R).real
    assert np.allclose(tr / cfg.N, net.beta, rtol=1e-12)
    # the stored eigenvalues are T's, and R[k, l]'s are beta[k, l] times them
    assert np.allclose(eigs, net.beta[..., None] * net.lam, rtol=1e-12, atol=0)


def test_theta_unit_modulus_and_reference_ap():
    cfg = cfrs.SystemConfig(L=12, K=6, seed=4)
    net = cfrs.build_network(cfg)
    assert np.max(np.abs(np.abs(net.theta) - 1.0)) < 1e-12
    for k in range(cfg.K):
        assert np.any(net.theta[k] == 1.0 + 0.0j)


def test_network_model_is_immutable():
    cfg = cfrs.SystemConfig(L=3, K=2, seed=0)
    net = cfrs.build_network(cfg)
    with pytest.raises(ValueError):
        net.beta[0, 0] = 1.0


@pytest.mark.parametrize("field, bad, message", [
    ("beta", lambda net: np.full_like(net.beta, np.nan), "beta must be finite and > 0"),
    ("beta", lambda net: np.where(net.beta == net.beta.max(), np.inf, net.beta),
     "beta must be finite and > 0"),
    ("beta", lambda net: np.where(net.beta == net.beta.max(), 0.0, net.beta),
     "beta must be finite and > 0"),
    ("beta", lambda net: net.beta[:, :-1], r"beta has shape \(3, 1\)"),
    ("theta", lambda net: net.theta.T, r"theta has shape \(2, 3\)"),
    ("template", lambda net: np.array([[1.0, 0.5], [0.0, 1.0]]), "template must be Hermitian"),
    ("template", lambda net: np.diag([3.0, -1.0]), "template must be positive semidefinite"),
    ("template", lambda net: 2 * np.eye(2), "template must have trace N = 2"),
    ("template", lambda net: np.full((2, 2), np.nan), "template must be a finite square"),
    ("template", lambda net: np.eye(2)[:1], "template must be a finite square"),
])
def test_network_model_rejects_invalid_fields(field, bad, message):
    # a nan gain used to pass and give a nan sum SE; every field is now
    # checked when the model is built, and the message names it
    cfg = cfrs.SystemConfig(L=2, K=3, N=2, tau_p=2, seed=0)
    net = cfrs.build_network(cfg)
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(net, **{field: bad(net)})


def test_config_validation():
    with pytest.raises(ValueError):
        cfrs.SystemConfig(L=0)
    with pytest.raises(ValueError):
        cfrs.SystemConfig(tau_p=200, tau_c=200)
    with pytest.raises(ValueError):
        cfrs.SystemConfig(area_side=0.0)
    with pytest.raises(ValueError):
        cfrs.SystemConfig(correlation="exponential", corr_r=1.0)
    with pytest.raises(ValueError):
        cfrs.SystemConfig(p_pilot=(0.1, 0.2))  # wrong length for K=8


@pytest.mark.parametrize("field, value", [
    ("p_d", float("nan")), ("p_d", float("inf")), ("sigma2_ul", float("nan")),
    ("sigma2_dl", float("inf")), ("c_ap", float("inf")), ("c_ue", float("nan")),
    ("p_pilot", float("nan")), ("p_pilot", float("inf")),
    ("seed", -1), ("pl_fixed_db", float("nan")), ("pl_fixed_db", float("-inf")),
    ("pl_break1_m", 0.0), ("pl_break1_m", 60.0), ("pl_break2_m", -5.0),
    ("pl_break2_m", float("inf")), ("shadow_std_db", -1.0),
    ("shadow_std_db", float("nan")), ("corr_r", float("nan")),
])
def test_config_rejects_non_finite_values(field, value):
    with pytest.raises(ValueError, match=field):
        cfrs.SystemConfig(**{field: value})


def test_mid_instant_is_the_rounded_up_block_midpoint():
    # lambda = tau_p + 1; ceil((lambda + tau_c) / 2)
    for tau_p, tau_c, mid in ((2, 20, 12), (4, 200, 103), (2, 21, 12), (1, 2, 2)):
        cfg = cfrs.SystemConfig(L=2, K=1, N=1, tau_p=tau_p, tau_c=tau_c)
        assert cfg.mid_instant == mid
        assert cfg.mid_instant in cfg.data_instants()


def test_min_distance_clamp():
    # UE dropped (almost) on top of an AP must not blow up the gain
    cfg = cfrs.SystemConfig(L=2, K=2, area_side=2.0, seed=13)
    net = cfrs.build_network(cfg)
    cap = 10 ** (three_slope_gain_db(cfg.min_dist_m) / 10.0)
    assert np.all(net.beta <= cap * (1 + 1e-12))
