"""Pilot assignment and MMSE channel-estimation statistics under phase drift.

Pilots are time-multiplexed: UE k transmits only at instant t_k in
{1..tau_p} and shares it with the co-pilot set P_k.  Channels are estimated
at the first data instant lambda = tau_p + 1, so each estimate carries the
accumulated oscillator drift over lambda - t_k instants.  The Bayesian
(MMSE) estimate of h[k,l] from the set's pilot observation has covariance

    Q[k,l] = p_k * exp(-(lambda - t_k)*(var_ap + var_ue)) * R Psi R,
    Psi[P,l] = (sum_{i in P} p_i R[i,l] + sigma2 * I)^(-1),  P = P_k,

and the cross-covariance between the estimates of co-pilot UEs k and i is
Q_cross[k,i,l] = sqrt(p_k p_i) * exp(...) * R[i,l] Psi[P_k,l] R[k,l]; it
vanishes for UEs on different pilots.  NMSE = tr(R - Q)/tr(R) for MMSE; the
LS NMSE is exp(+(lambda-t_k)(var_ap+var_ue)) * tr(Psi^-1) / (p_k tr R) - 1
and can exceed one because the LS estimate and its error are correlated.

Every R[k,l] is beta[k,l] times the network's one correlation template T,
so all of these matrices share T's eigenvectors and are stored as their N
real eigenvalues: each formula above is elementwise in T's eigenbasis.  The
pilot covariance's eigenvalues are at least sigma2 > 0, so it is always
invertible.  Co-pilots share a pilot instant, so a drift decay and a Psi,
and their estimates are scaled copies of one processed observation
(Marzetta, IEEE TWC 2010): with x[k,l] = sqrt(p_k exp(...)) beta[k,l],

    Q_cross[k,i,l] = x[k,l] x[i,l] lam^2 Psi[P_k,l],
    Q[k,l] = x[k,l]^2 lam^2 Psi[P_k,l],

so no co-pilot pair is stored: the (K, L) factor x and the per-set Psi
give every block.  ``PilotAssignment`` numbers the S co-pilot sets once, by
size and then by pilot instant, and every per-set axis of the package
follows that order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import NetworkModel, PhaseStatistics, SystemConfig, expected_phase_decay


@dataclass(frozen=True)
class PilotAssignment:
    """Pilot instants t (K,), values in 1..tau_p, plus the co-pilot sets.

    The S sets are numbered here, once, by size and then by pilot instant;
    every per-set axis of the package follows this order.
    stacks: one (S_c, g_c) int array per distinct set size g_c, in
        increasing size order, its rows the UE indices of the S_c sets of
        that size, so that stack after stack the rows are sets 0..S-1.
    set_of (K,): each UE's set.
    """

    t: np.ndarray
    tau_p: int
    stacks: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    set_of: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.t.setflags(write=False)
        if np.any(self.t < 1) or np.any(self.t > self.tau_p):
            raise ValueError("pilot instants must lie in 1..tau_p")
        # the sets by size, then by pilot instant: sorted() is stable
        sets = sorted((np.flatnonzero(self.t == inst) for inst in sorted(set(self.t.tolist()))),
                      key=len)
        set_of = np.empty(self.K, dtype=int)
        for s, members in enumerate(sets):
            set_of[members] = s
        stacks = tuple(np.array([m for m in sets if len(m) == size])
                       for size in sorted({len(m) for m in sets}))
        for arr in (*stacks, set_of):
            arr.setflags(write=False)
        object.__setattr__(self, "stacks", stacks)
        object.__setattr__(self, "set_of", set_of)

    @property
    def K(self) -> int:
        return self.t.shape[0]

    def set_sums(self, a: np.ndarray) -> np.ndarray:
        """(S, ...) sums of the (K, ...) ``a`` over each set's UEs, in set
        order, each added in increasing UE order."""
        return np.concatenate([a[idx].sum(axis=1) for idx in self.stacks])


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
    Psi (S, L, N): inverse of each co-pilot set's pilot covariance, > 0,
        one row per set in the order of ``PilotAssignment``.
    Q (K, L, N): estimate covariance, 0 <= Q <= beta * lam.
    x (K, L): the rank-1 factor sqrt(p_k decay_k) beta[k,l] of every
        co-pilot block, Q_cross[k,i,l] = x[k,l] x[i,l] lam^2 Psi[P_k,l] for
        co-pilot k and i; UEs on different pilots are uncorrelated.
    nmse_mmse / nmse_ls (K, L): normalized MSE of the two estimators.
    """

    Psi: np.ndarray
    Q: np.ndarray
    x: np.ndarray
    nmse_mmse: np.ndarray
    nmse_ls: np.ndarray

    def __post_init__(self):
        for arr in (self.Psi, self.Q, self.x, self.nmse_mmse, self.nmse_ls):
            arr.setflags(write=False)


def check_pilots(pilots: PilotAssignment, K: int, config: SystemConfig) -> None:
    """Raise ValueError unless ``pilots`` assigns K UEs to the config's
    tau_p instants: the statistics and the Monte Carlo draw count the drift
    to the estimation instant config.tau_p + 1."""
    if pilots.K != K or pilots.tau_p != config.tau_p:
        raise ValueError(
            f"the pilot assignment (K = {pilots.K}, pilots.tau_p = {pilots.tau_p}) does not "
            f"match the network's K = {K} and config.tau_p = {config.tau_p}")


def decay_factors(pilots: PilotAssignment, phases: PhaseStatistics) -> np.ndarray:
    """(K,) amplitude decay exp(-(lambda - t_k)(var_ap + var_ue)) per UE.

    A decay that underflows to 0 raises ValueError naming the variances:
    the drift then leaves that UE's pilot no trace of its channel, so no
    estimate whose power a precoder could be normalized by.
    """
    gaps = pilots.tau_p + 1 - pilots.t
    # the amplitude decay is the rotation mean at twice the variance
    decay = expected_phase_decay(gaps, 2.0 * phases.var_sum)
    if not np.all(decay > 0):
        k = int(np.argmin(decay))
        raise ValueError(
            f"phase increment variances var_ap + var_ue = {phases.var_sum:.4g} rad^2 per "
            f"symbol decorrelate UE {k}'s pilot over the {gaps[k]} symbol(s) to the "
            f"estimation instant (its decay underflows to 0), leaving no channel estimate; "
            f"lower the oscillator constants c_ap/c_ue or the oscillator_variance sweep value")
    return decay


def estimation_statistics(
    net: NetworkModel,
    pilots: PilotAssignment,
    phases: PhaseStatistics,
    config: SystemConfig,
) -> EstimationStatistics:
    """Compute Psi, Q, the co-pilot factor x and both NMSE matrices.

    Per co-pilot set P and AP l, the pilot covariance has the eigenvalues
    sigma2 + sum_{j in P} p_j beta[j,l] lam_n, one row per set; the rest is
    elementwise per UE.
    """
    check_pilots(pilots, net.K, config)
    p = config.pilot_powers()
    decay = decay_factors(pilots, phases)

    cov = config.sigma2_ul + pilots.set_sums(p[:, None] * net.beta)[..., None] * net.lam
    Psi = 1.0 / cov  # (S, L, N)

    x = np.sqrt(p * decay)[:, None] * net.beta
    xl = x[..., None] * net.lam
    Q = xl * xl * Psi[pilots.set_of]
    tr_R = net.beta * net.lam.sum()
    tr_Q = Q.sum(axis=-1)
    nmse_mmse = (tr_R - tr_Q) / tr_R
    nmse_ls = cov.sum(axis=-1)[pilots.set_of] / ((decay * p)[:, None] * tr_R) - 1.0

    return EstimationStatistics(Psi=Psi, Q=Q, x=x, nmse_mmse=nmse_mmse, nmse_ls=nmse_ls)
