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
vanishes for UEs on different pilots, so it is stored as one block per
co-pilot set.  NMSE = tr(R - Q)/tr(R) for MMSE; the LS NMSE
is exp(+(lambda-t_k)(var_ap+var_ue)) * tr(Psi^-1) / (p_k tr R) - 1 and can
exceed one because the LS estimate and its error are correlated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import NetworkModel, PhaseStatistics, SystemConfig, expected_phase_decay


@dataclass(frozen=True)
class PilotAssignment:
    """Pilot instants t (K,), values in 1..tau_p, plus the co-pilot groups.

    groups: the co-pilot sets, one tuple of UE indices per occupied pilot
        instant in increasing instant order, derived once from t.
    """

    t: np.ndarray
    tau_p: int
    groups: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.t.setflags(write=False)
        if np.any(self.t < 1) or np.any(self.t > self.tau_p):
            raise ValueError("pilot instants must lie in 1..tau_p")
        groups = tuple(tuple(int(k) for k in np.flatnonzero(self.t == inst))
                       for inst in sorted(set(self.t.tolist())))
        object.__setattr__(self, "groups", groups)

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
    """Second-order statistics of the channel estimates.

    Psi (K, L, N, N): inverse of the group pilot covariance (Hermitian PD).
    Q (K, L, N, N): estimate covariance, 0 <= Q <= R in the PSD order.
    Q_cross: estimate cross-covariances, one (g, g, L, N, N) block per
        co-pilot set in ``PilotAssignment.groups`` order; entry [a, b] of a
        group's block pairs its a-th and b-th UE, and the diagonal equals Q.
        UEs on different pilots are uncorrelated and have no entry.
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


def _check_hermitian(R: np.ndarray, tol: float = 1e-10):
    dev = np.max(np.abs(R - np.conj(np.swapaxes(R, -1, -2))))
    scale = max(np.max(np.abs(R)), 1e-300)
    if dev > tol * max(scale, 1.0):
        raise ValueError("correlation matrices must be Hermitian")


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
    """Compute Psi, Q, Q_cross and both NMSE matrices for every link."""
    K, L, N = net.K, net.L, net.N
    if pilots.K != K:
        raise ValueError("pilot assignment size does not match network")
    _check_hermitian(net.R)
    p = config.pilot_powers()
    sigma2 = config.sigma2_ul
    decay = decay_factors(pilots, phases)

    Psi = np.empty((K, L, N, N), dtype=complex)
    Q = np.empty((K, L, N, N), dtype=complex)
    Q_cross = []
    tr_cov = np.empty((K, L))

    for group in pilots.groups:
        g = list(group)
        pilot_cov = sigma2 * np.eye(N, dtype=complex)
        for i in g:
            pilot_cov = pilot_cov + p[i] * net.R[i]  # (L, N, N)
        # non-PD input is an upstream bug, not something to paper over with
        # a pseudo-inverse, so factorization failure raises
        try:
            chol_inv = np.linalg.inv(np.linalg.cholesky(pilot_cov))
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                "pilot covariance is not positive definite; "
                "check correlation matrices and noise power"
            ) from exc
        Psi_g = np.conj(np.swapaxes(chol_inv, -1, -2)) @ chol_inv
        PsiR = Psi_g @ net.R[g]  # [k] = Psi R[k], (g, L, N, N)
        # [k, i] = sqrt(p_k p_i) decay_k R[i] Psi R[k]
        coef = np.sqrt(np.outer(p[g], p[g])) * decay[g][:, None]
        block = coef[:, :, None, None, None] * (net.R[g][None] @ PsiR[:, None])
        Q_cross.append(block)
        Q[g] = block[np.arange(len(g)), np.arange(len(g))]
        Psi[g] = Psi_g
        tr_cov[g] = np.trace(pilot_cov, axis1=-2, axis2=-1).real

    tr_R = np.einsum("klnn->kl", net.R).real
    tr_Q = np.einsum("klnn->kl", Q).real
    nmse_mmse = (tr_R - tr_Q) / tr_R
    nmse_ls = tr_cov / ((decay * p)[:, None] * tr_R) - 1.0

    return EstimationStatistics(
        Psi=Psi, Q=Q, Q_cross=tuple(Q_cross), nmse_mmse=nmse_mmse, nmse_ls=nmse_ls
    )


def mmse_filter_matrices(
    net: NetworkModel,
    pilots: PilotAssignment,
    stats: EstimationStatistics,
    phases: PhaseStatistics,
    config: SystemConfig,
) -> np.ndarray:
    """(K, L, N, N) linear MMSE filters B with hhat = theta* . B @ z.

    B[k,l] = sqrt(p_k) * exp(-(lambda-t_k)(var_ap+var_ue)/2) * R Psi, with
    Psi from ``stats``; the remaining conj(theta[k,l]) factor is applied by
    the caller so the same filters serve both the scalar and the batched
    estimation paths.
    """
    p = config.pilot_powers()
    amp = np.sqrt(p * decay_factors(pilots, phases))
    return amp[:, None, None, None] * np.einsum(
        "klab,klbc->klac", net.R, stats.Psi
    )


def mmse_estimate_realization(
    z: np.ndarray,
    k: int,
    l: int,
    stats: EstimationStatistics,
    net: NetworkModel,
    pilots: PilotAssignment,
    phases: PhaseStatistics,
    config: SystemConfig,
) -> np.ndarray:
    """MMSE estimate of h[k,l] at the estimation instant from one pilot rx z."""
    if z.shape != (net.N,):
        raise ValueError(f"pilot observation must have shape ({net.N},)")
    p = config.pilot_powers()
    amp = np.sqrt(p[k] * decay_factors(pilots, phases)[k])
    return amp * np.conj(net.theta[k, l]) * (net.R[k, l] @ (stats.Psi[k, l] @ z))
