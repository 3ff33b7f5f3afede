from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

import cfrs
from cfrs import montecarlo as mc
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


DESK_DRAW = dict(count=100_000, seed=7)  # the desk batch's realizations


@pytest.fixture(scope="session")
def desk_instants(desk):
    """The desk batch's instants: lam, lam+5 and tau_c."""
    cfg = desk[0]
    lam = cfg.estimation_instant
    return [lam, lam + 5, cfg.tau_c]


@pytest.fixture(scope="session")
def desk_batch(desk, desk_instants):
    """desk_batch(plans): the 100k-realization desk batch (seed 7, phases at
    ``desk_instants``) with every plan of ``plans`` declared; each call
    runs one streamed pass over the same draws."""
    cfg, net, pilots, phases, stats, _ = desk

    def sample(plans):
        return cfrs.sample_batch(net, pilots, stats, phases, cfg, **DESK_DRAW,
                                 instants=desk_instants, plans=plans)

    return sample


@pytest.fixture(scope="session")
def desk_arrays(desk, desk_instants):
    """The realizations the desk batch is drawn from (see ``batch_arrays``)."""
    cfg, net, pilots, phases, stats, _ = desk
    return batch_arrays(net, pilots, stats, phases, cfg, DESK_DRAW["count"],
                        DESK_DRAW["seed"], desk_instants)


def batch_arrays(net, pilots, stats, phases, config, count, seed, instants):
    """The ``count`` realizations a batch with these draw inputs sums, chunk
    by chunk concatenated, with the realizations last: channels h and estimates hhat
    (K, L, N, count) in T's eigenbasis, and the phase factors exp(-i phase)
    ``ue_factor`` (K, M, count) and ``ap_factor`` (L, M, count) at the
    batch's kept ``instants`` (the estimation instant and the requested
    ones, sorted), as the streamed pass forms them."""
    kept = sorted({config.estimation_instant} | {int(n) for n in instants})
    chunks = drawn_chunks(net, pilots, stats, phases, config, count, seed, kept)
    h, hhat, ue, ap = (np.concatenate([c[i] for c in chunks], axis=-1) for i in (0, 1, 3, 4))
    drawn = mc._phase_instants(pilots, config, kept)
    columns = [drawn.index(n) for n in kept]
    return SimpleNamespace(h=h, hhat=hhat, ue_factor=mc._phasor(-ue[:, columns]),
                           ap_factor=mc._phasor(-ap[:, columns]), instants=kept, count=count)


def drawn_chunks(net, pilots, stats, phases, config, count, seed, instants):
    """(h, hhat, z, ue, ap) of every RNG chunk that ``montecarlo._ChunkDraw``
    draws from these inputs, each chunk drawn into a workspace of its own
    (a reused one would overwrite the earlier chunks), with the estimates
    hhat of the reference estimator ``estimates``."""
    draw = mc._ChunkDraw(net, pilots, phases, config, count, seed, instants)
    chunks = []
    for chunk in range(-(-count // mc.RNG_CHUNK)):
        h, z, ue, ap = draw(chunk, mc._Workspace())
        chunks.append((h, estimates(net, pilots, stats, z), z, ue, ap))
    return chunks


def mmse_filters(net, pilots, stats):
    """(K, L, N) linear MMSE filters B, as eigenvalues, with hhat = theta* . B z
    for a pilot observation z in T's eigenbasis.

    B[k,l] = sqrt(p_k) * exp(-(lambda-t_k)(var_ap+var_ue)/2) * R Psi
    = x[k,l] lam Psi[P_k,l]; the remaining conj(theta[k,l]) factor is
    applied by the caller.
    """
    return stats.x[..., None] * net.lam * stats.Psi[pilots.set_of]


def estimates(net, pilots, stats, z):
    """Reference MMSE estimates hhat (K, L, N, r) of the pilot signal z
    (S, L, N, r) of any r realizations of a draw, in T's eigenbasis:
    hhat[k] = conj(theta[k]) (B[k] z[P_k]), with the MMSE filters B and P_k
    the co-pilot set of UE k.  The Monte Carlo pass forms no estimates: it
    filters one observation per co-pilot set."""
    filters = mmse_filters(net, pilots, stats)[..., None]
    return np.conj(net.theta)[..., None, None] * (filters * z[pilots.set_of])


def private_precoders(hhat, net, scheme):
    """Reference (K, L, N, r) MR private precoders of one scheme tag for the
    estimates ``hhat``: DU compensates the delay phase theta, DF forgets it."""
    if scheme == "du_mr":
        return hhat * net.theta[:, :, None, None]
    if scheme == "df_mr":
        return hhat
    raise ValueError(f"unknown private precoding scheme {scheme!r}")


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


def dense_R(net):
    """(K, L, N, N) dense correlation matrices R = beta * T, bit for bit the
    product ``build_network`` once stored."""
    return net.beta[..., None, None] * net.template


def random_template(rng, N):
    """Generic complex Hermitian PD N x N template with trace N and distinct
    eigenvalues, so that no transpose, conjugate or swapped gain cancels."""
    A = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    U = np.linalg.qr(A)[0]
    lam = np.linspace(0.5, 1.5, N) if N > 1 else np.ones(1)
    T = (U * lam) @ np.conj(U.T)
    return 0.5 * (T + np.conj(T.T))


def to_eigenbasis(net, dense):
    """Dense (..., N, N) matrices in the eigenbasis of the network's template."""
    U = np.linalg.eigh(net.template)[1]
    return np.conj(U.T) @ dense @ U


def from_eigenbasis(net, eig):
    """Dense (..., N, N) matrices U diag(eig) U^H from their (..., N) eigenvalues
    in the eigenbasis U of the network's template."""
    U = np.linalg.eigh(net.template)[1]
    return (U * eig[..., None, :]) @ np.conj(U.T)


def rank1_q_cross(net, pilots, stats):
    """(K, K, L, N) eigenvalues of every Q_cross block from the statistics'
    rank-1 factor: x[k,l] x[i,l] lam^2 Psi[P_k,l] for co-pilot k and i, else 0."""
    copilot = pilots.t[:, None] == pilots.t[None, :]
    x = stats.x
    return (copilot[:, :, None, None] * (x[:, None] * x[None, :])[..., None]
            * net.lam**2 * stats.Psi[pilots.set_of][:, None])


def per_link_statistics(net, pilots, phases, cfg):
    """Reference: Psi, Q, dense Q_cross and the LS NMSE one link at a time,
    from the dense correlation matrices ``dense_R``."""
    K, L, N = net.K, net.L, net.N
    R = dense_R(net)
    p = cfg.pilot_powers()
    decay = decay_factors(pilots, phases)
    Psi = np.zeros((K, L, N, N), dtype=complex)
    Q = np.zeros((K, L, N, N), dtype=complex)
    Q_cross = np.zeros((K, K, L, N, N), dtype=complex)
    nmse_ls = np.zeros((K, L))
    for k in range(K):
        members = np.flatnonzero(pilots.t == pilots.t[k])
        for l in range(L):
            cov = cfg.sigma2_ul * np.eye(N) + sum(p[i] * R[i, l] for i in members)
            Psi[k, l] = cho_solve(cho_factor(cov), np.eye(N))
            Q[k, l] = p[k] * decay[k] * R[k, l] @ Psi[k, l] @ R[k, l]
            for i in members:
                Q_cross[k, i, l] = (np.sqrt(p[k] * p[i]) * decay[k]
                                    * R[i, l] @ Psi[k, l] @ R[k, l])
            nmse_ls[k, l] = (np.trace(cov).real
                             / (decay[k] * p[k] * np.trace(R[k, l]).real) - 1.0)
    return Psi, Q, Q_cross, nmse_ls


def dense_maxmin_matrices(net, pilots, phases, cfg):
    """Reference: the max-min program over the stacked weights a in R^{KL},
    AP-major (index l*K + i), as the dense (K, KL) b, (L, K, K) Theta and
    (K, KL, KL) H and M.

    Built from ``per_link_statistics``' dense Q_cross and ``dense_R``:
    b_k[l*K + i] = tr(Q_cross[k,i,l]), Theta[l] = tr(Q_cross[:, :, l]), the
    AP-l block of H_k is outer(tau, tau) with tau the AP-l slice of b_k, and
    entry (i, j) of that of M_k is Re tr(Q_cross[i,j,l] R[k,l]).
    """
    K, L = net.K, net.L
    Q_cross = per_link_statistics(net, pilots, phases, cfg)[2]
    tr_Qc = np.einsum("kilnn->kil", Q_cross).real
    tr_QcR = np.einsum("ijlab,klba->ijkl", Q_cross, dense_R(net)).real
    H = np.zeros((K, K * L, K * L))
    M = np.zeros((K, K * L, K * L))
    for k in range(K):
        for l in range(L):
            sl = slice(l * K, (l + 1) * K)
            H[k][sl, sl] = np.outer(tr_Qc[k, :, l], tr_Qc[k, :, l])
            M[k][sl, sl] = tr_QcR[:, :, k, l]
    b = np.transpose(tr_Qc, (0, 2, 1)).reshape(K, K * L)
    return b, np.transpose(tr_Qc, (2, 0, 1)), H, M


def per_set_y(problem, w):
    """The max-min program's (S, L) variables of (K, L) weights w:
    y[P,l] = sum_{i in P} c[i,l] w[i,l], so dy[P,l]/dw[i,l] = c[i,l]."""
    y = np.zeros(problem.y_ones.shape)
    np.add.at(y, problem.terms.pilots.set_of, problem.c * w)
    return y
