import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

import cfrs
from cfrs.estimation import decay_factors


@pytest.fixture(scope="session")
def desk():
    """Small shared instance: 4 APs, 2 UEs, 2 antennas, short block."""
    cfg = cfrs.SystemConfig(L=4, K=2, N=2, tau_p=2, tau_c=20, seed=1)
    net = cfrs.build_network(cfg)
    phases = cfrs.PhaseStatistics.from_config(cfg)
    pilots = cfrs.assign_pilots(cfg.K, cfg.tau_p)
    stats = cfrs.estimation_statistics(net, pilots, phases, cfg)
    terms = cfrs.TraceTerms.compute(net, stats, pilots)
    return cfg, net, pilots, phases, stats, terms


@pytest.fixture(scope="session")
def desk_batch(desk):
    """100k-realization batch on the desk instance, phases at lam, lam+5, tau_c."""
    cfg, net, pilots, phases, stats, terms = desk
    lam = cfg.estimation_instant
    instants = [lam, lam + 5, cfg.tau_c]
    batch = cfrs.sample_batch(net, pilots, stats, phases, cfg, 100_000, seed=7, instants=instants)
    return batch, instants


def random_instance(rng, L=None, K=None, N=None, tau_p=None, correlation=None):
    """Random small system for property sweeps."""
    L = L or int(rng.integers(2, 7))
    K = K or int(rng.integers(1, 5))
    N = N or int(rng.integers(1, 4))
    tau_p = tau_p or int(rng.integers(1, K + 1))
    correlation = correlation or ("exponential" if rng.random() < 0.5 else "uncorrelated")
    cfg = cfrs.SystemConfig(
        L=L, K=K, N=N, tau_p=tau_p, tau_c=max(tau_p + 5, 20),
        seed=int(rng.integers(0, 2**31)),
        correlation=correlation,
        corr_r=float(rng.uniform(-0.8, 0.8)) if correlation == "exponential" else 0.0,
    )
    net = cfrs.build_network(cfg)
    pilots = cfrs.assign_pilots(cfg.K, cfg.tau_p)
    phases = cfrs.PhaseStatistics(
        var_ap=float(rng.uniform(0, 3e-3)), var_ue=float(rng.uniform(0, 3e-3))
    )
    stats = cfrs.estimation_statistics(net, pilots, phases, cfg)
    terms = cfrs.TraceTerms.compute(net, stats, pilots)
    return cfg, net, pilots, phases, stats, terms


def dense_copilot(blocks, groups, K):
    """Scatter per-co-pilot-set (g, g, ...) blocks into a dense (K, K, ...) array."""
    out = np.zeros((K, K) + blocks[0].shape[2:], dtype=blocks[0].dtype)
    for g, block in zip(groups, blocks):
        out[np.ix_(g, g)] = block
    return out


def per_link_statistics(net, pilots, phases, cfg):
    """Reference: Psi, Q, dense Q_cross and the LS NMSE one link at a time."""
    K, L, N = net.K, net.L, net.N
    p = cfg.pilot_powers()
    decay = decay_factors(pilots, phases)
    Psi = np.zeros((K, L, N, N), dtype=complex)
    Q = np.zeros((K, L, N, N), dtype=complex)
    Q_cross = np.zeros((K, K, L, N, N), dtype=complex)
    nmse_ls = np.zeros((K, L))
    for k in range(K):
        members = np.flatnonzero(pilots.t == pilots.t[k])
        for l in range(L):
            cov = cfg.sigma2_ul * np.eye(N) + sum(p[i] * net.R[i, l] for i in members)
            Psi[k, l] = cho_solve(cho_factor(cov), np.eye(N))
            Q[k, l] = p[k] * decay[k] * net.R[k, l] @ Psi[k, l] @ net.R[k, l]
            for i in members:
                Q_cross[k, i, l] = (np.sqrt(p[k] * p[i]) * decay[k]
                                    * net.R[i, l] @ Psi[k, l] @ net.R[k, l])
            nmse_ls[k, l] = (np.trace(cov).real
                             / (decay[k] * p[k] * np.trace(net.R[k, l]).real) - 1.0)
    return Psi, Q, Q_cross, nmse_ls


def dense_maxmin_matrices(terms):
    """Reference: the dense (K, KL, KL) H_k and M_k of the max-min program.

    AP-major stacking; the AP-l block of H_k is outer(tau, tau) with
    tau = tr_Qc[k, :, l], and that of M_k is tr_QcR[:, :, k, l].
    """
    K, L = terms.K, terms.L
    tr_Qc = terms.tr_Qc.real
    tr_QcR = dense_copilot(terms.tr_QcR, terms.groups, K).real
    H = np.zeros((K, K * L, K * L))
    M = np.zeros((K, K * L, K * L))
    for k in range(K):
        for l in range(L):
            sl = slice(l * K, (l + 1) * K)
            H[k][sl, sl] = np.outer(tr_Qc[k, :, l], tr_Qc[k, :, l])
            M[k][sl, sl] = tr_QcR[:, :, k, l]
    return H, M
