"""Pilot assignment and MMSE channel-estimation statistics under phase drift.

Pilots are time-multiplexed: UE k transmits only at instant t_k in
{1..tau_p} and shares it with the co-pilot set P_k.  Channels are estimated
at the first data instant lambda = tau_p + 1, so each estimate carries the
accumulated oscillator drift over lambda - t_k instants.  The Bayesian
(MMSE) estimate of h[k,l] from the group's pilot observation has covariance

    Q[k,l] = p_k * exp(-(lambda - t_k)*(var_ap + var_ue)) * R Psi R,
    Psi[k,l] = (sum_{i in P_k} p_i R[i,l] + sigma2 * I)^(-1),

and the cross-covariance between the estimates of co-pilot UEs k and i is
Q_cross[k,i,l] = sqrt(p_k p_i) * exp(...) * R[i,l] Psi[k,l] R[k,l].  It
vanishes for UEs on different pilots, so it is stored only inside the
co-pilot sets, with the sets of one size stacked into one array: round
robin gives at most two sizes, so every computation over the sets is a
loop over at most two stacks.  NMSE = tr(R - Q)/tr(R) for MMSE; the LS NMSE
is exp(+(lambda-t_k)(var_ap+var_ue)) * tr(Psi^-1) / (p_k tr R) - 1 and can
exceed one because the LS estimate and its error are correlated.

Every R[k,l] is beta[k,l] times the network's one correlation template T,
so all of these matrices share T's eigenvectors and are stored as their N
real eigenvalues: each formula above is elementwise in T's eigenbasis.  The
pilot covariance's eigenvalues are at least sigma2 > 0, so it is always
invertible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import NetworkModel, PhaseStatistics, SystemConfig, expected_phase_decay


@dataclass(frozen=True)
class PilotAssignment:
    """Pilot instants t (K,), values in 1..tau_p, plus the co-pilot sets.

    groups: the co-pilot sets, one tuple of UE indices per occupied pilot
        instant in increasing instant order, derived once from t.
    stacks: the same sets stacked by size, one (S_c, g_c) int array per
        distinct set size g_c in increasing size order, its rows the S_c
        sets of that size in ``groups`` order.
    """

    t: np.ndarray
    tau_p: int
    groups: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    stacks: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.t.setflags(write=False)
        if np.any(self.t < 1) or np.any(self.t > self.tau_p):
            raise ValueError("pilot instants must lie in 1..tau_p")
        groups = tuple(tuple(int(k) for k in np.flatnonzero(self.t == inst))
                       for inst in sorted(set(self.t.tolist())))
        stacks = tuple(np.array([g for g in groups if len(g) == size])
                       for size in sorted({len(g) for g in groups}))
        for idx in stacks:
            idx.setflags(write=False)
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "stacks", stacks)

    @property
    def K(self) -> int:
        return self.t.shape[0]


def assign_pilots(
    K: int, tau_p: int, policy: str = "round_robin", seed: int | None = None
) -> PilotAssignment:
    """Assign pilot instants to UEs.

    ``round_robin`` gives UE k (1-based) instant ((k-1) mod tau_p) + 1 so
    contamination appears as soon as K > tau_p; ``random`` draws uniformly.
    """
    if tau_p < 1:
        raise ValueError("tau_p must be >= 1")
    if policy == "round_robin":
        t = (np.arange(K) % tau_p) + 1
    elif policy == "random":
        rng = np.random.default_rng(seed)
        t = rng.integers(1, tau_p + 1, size=K)
    else:
        raise ValueError(f"unknown pilot policy {policy!r}")
    return PilotAssignment(t=t.astype(int), tau_p=tau_p)


@dataclass(frozen=True)
class EstimationStatistics:
    """Second-order statistics of the channel estimates, as eigenvalues.

    Every matrix here is diagonal in the eigenbasis of the network's
    correlation template T (see ``NetworkModel``), so each is stored as its
    N real eigenvalues on the last axis, in the order of ``NetworkModel.lam``:
    Psi (K, L, N): inverse of the group pilot covariance, > 0.
    Q (K, L, N): estimate covariance, 0 <= Q <= beta * lam.
    Q_cross: estimate cross-covariances, one (S_c, g_c, g_c, L, N) stack
        per entry of ``PilotAssignment.stacks``; entry [s, a, b] pairs the
        a-th and b-th UE of the stack's s-th set, and its diagonal in
        (a, b) equals Q.  UEs on different pilots are uncorrelated and have
        no entry.
    nmse_mmse / nmse_ls (K, L): normalized MSE of the two estimators.
    """

    Psi: np.ndarray
    Q: np.ndarray
    Q_cross: tuple[np.ndarray, ...]
    nmse_mmse: np.ndarray
    nmse_ls: np.ndarray

    def __post_init__(self):
        for arr in (self.Psi, self.Q, *self.Q_cross, self.nmse_mmse, self.nmse_ls):
            arr.setflags(write=False)


def decay_factors(pilots: PilotAssignment, phases: PhaseStatistics) -> np.ndarray:
    """(K,) amplitude decay exp(-(lambda - t_k)(var_ap + var_ue)) per UE."""
    gaps = pilots.tau_p + 1 - pilots.t
    # the amplitude decay is the rotation mean at twice the variance
    return expected_phase_decay(gaps, 2.0 * phases.var_sum)


def estimation_statistics(
    net: NetworkModel,
    pilots: PilotAssignment,
    phases: PhaseStatistics,
    config: SystemConfig,
) -> EstimationStatistics:
    """Compute Psi, Q, Q_cross and both NMSE matrices for every link.

    Per co-pilot set P and AP l, the pilot covariance has the eigenvalues
    sigma2 + sum_{j in P} p_j beta[j,l] lam_n, and R[i,l] has beta[i,l] lam_n,
    so every product of the formulas above is elementwise over n, and all
    sets of one size are computed at once, one stack at a time.
    """
    K, L = net.K, net.L
    if pilots.K != K:
        raise ValueError("pilot assignment size does not match network")
    p = config.pilot_powers()
    decay = decay_factors(pilots, phases)

    Psi = np.empty((K, L, net.N))
    Q = np.empty_like(Psi)
    Q_cross = []
    tr_cov = np.empty((K, L))

    for idx in pilots.stacks:
        g = idx.shape[1]
        r = net.beta[idx][..., None] * net.lam  # (S, g, L, N) eigenvalues of R
        # einsum, not a matrix product: BLAS would sum in a kernel-dependent order
        cov = (config.sigma2_ul
               + np.einsum("si,sil->sl", p[idx], net.beta[idx])[..., None] * net.lam)
        psi = 1.0 / cov  # (S, L, N)
        # [s, k, i] = sqrt(p_k p_i) decay_k R[i] Psi R[k] within set s
        coef = np.sqrt(p[idx][:, :, None] * p[idx][:, None, :]) * decay[idx][:, :, None]
        block = coef[..., None, None] * r[:, None]
        block *= (psi[:, None] * r)[:, :, None]
        Q_cross.append(block)
        Q[idx] = block[:, np.arange(g), np.arange(g)]
        Psi[idx] = psi[:, None]
        tr_cov[idx] = cov.sum(axis=-1)[:, None]

    tr_R = net.beta * net.lam.sum()
    tr_Q = Q.sum(axis=-1)
    nmse_mmse = (tr_R - tr_Q) / tr_R
    nmse_ls = tr_cov / ((decay * p)[:, None] * tr_R) - 1.0

    return EstimationStatistics(
        Psi=Psi, Q=Q, Q_cross=tuple(Q_cross), nmse_mmse=nmse_mmse, nmse_ls=nmse_ls
    )


def mmse_filters(
    net: NetworkModel,
    pilots: PilotAssignment,
    stats: EstimationStatistics,
    phases: PhaseStatistics,
    config: SystemConfig,
) -> np.ndarray:
    """(K, L, N) linear MMSE filters B, as eigenvalues, with hhat = theta* . B z
    for a pilot observation z in T's eigenbasis.

    B[k,l] = sqrt(p_k) * exp(-(lambda-t_k)(var_ap+var_ue)/2) * R Psi, with
    Psi from ``stats``; the remaining conj(theta[k,l]) factor is applied by
    the caller.
    """
    p = config.pilot_powers()
    amp = np.sqrt(p * decay_factors(pilots, phases))
    return amp[:, None, None] * net.beta[:, :, None] * net.lam * stats.Psi
