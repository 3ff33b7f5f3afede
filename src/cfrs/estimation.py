"""Pilot assignment and MMSE channel-estimation statistics under phase drift.

Pilots are time-multiplexed: UE k transmits only at instant t_k in
{1..tau_p} and shares it with the co-pilot set P_k.  Channels are estimated
at the first data instant lambda = tau_p + 1, so each estimate carries the
accumulated oscillator drift over lambda - t_k instants, whose power decay
is decay_k = exp(-(lambda - t_k)*(var_ap + var_ue)) (``model.phase_decay``).
The Bayesian (MMSE) estimate of h[k,l] from the set's pilot observation has
covariance

    Q[k,l] = p_k * decay_k * R Psi R,
    Psi[P,l] = (sum_{i in P} p_i R[i,l] + sigma2 * I)^(-1),  P = P_k,

and the cross-covariance between the estimates of co-pilot UEs k and i is
Q_cross[k,i,l] = sqrt(p_k p_i) * decay_k * R[i,l] Psi[P_k,l] R[k,l]; it
vanishes for UEs on different pilots.  ``nmse`` gives the estimation
quality: tr(R - Q)/tr(R) for MMSE, and for LS tr(Psi^-1) / (decay_k p_k
tr R) - 1, which can exceed one because the LS estimate and its error are
correlated.

Every R[k,l] is beta[k,l] times the network's one correlation template T,
so all of these matrices share T's eigenvectors and are computed as their N
real eigenvalues: each formula above is elementwise in T's eigenbasis.  The
pilot covariance's eigenvalues are at least sigma2 > 0, so it is always
invertible.  Co-pilots share a pilot instant, so a drift decay and a Psi,
and their estimates are scaled copies of one processed observation
(Marzetta, IEEE TWC 2010): with x[k,l] = sqrt(p_k decay_k) beta[k,l],

    Q_cross[k,i,l] = x[k,l] x[i,l] lam^2 Psi[P_k,l],
    Q[k,l] = x[k,l]^2 lam^2 Psi[P_k,l],

so neither Q nor a co-pilot pair is stored: the (K, L) factor x and the
per-set Psi give every block.  ``PilotAssignment`` numbers the S co-pilot
sets once, by size and then by pilot instant, and every per-set axis of
the package follows that order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import NetworkModel, PhaseStatistics, SystemConfig, phase_decay


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
        """(..., S, L) sums of the (..., K, L) ``a`` over each set's UEs, in
        set order, each added in increasing UE order.

        ``np.take`` lays each stack out in C order, leading axes first, so
        a set's sum runs over the same layout, and in the same order, with
        or without leading axes."""
        return np.concatenate([np.take(a, idx, axis=-2).sum(axis=-2) for idx in self.stacks],
                              axis=-2)


def assign_pilots(K: int, tau_p: int) -> PilotAssignment:
    """Round-robin pilot instants: UE k (1-based) sends at instant
    ((k-1) mod tau_p) + 1, so contamination appears as soon as K > tau_p.
    Any other assignment is a ``PilotAssignment`` of its own instants.
    """
    if tau_p < 1:
        raise ValueError("tau_p must be >= 1")
    return PilotAssignment(t=(np.arange(K) % tau_p) + 1, tau_p=tau_p)


@dataclass(frozen=True)
class EstimationStatistics:
    """What the closed form and the Monte Carlo draw read of the channel
    estimates: every co-pilot block is rank 1, so a per-set Psi and a
    per-UE factor x give each of them.

    Psi (S, L, N): inverse of each co-pilot set's pilot covariance, > 0,
        one row per set in the order of ``PilotAssignment``, as its N real
        eigenvalues in the eigenbasis of the network's correlation template
        T (see ``NetworkModel``), in the order of ``NetworkModel.lam``.
    x (K, L): the rank-1 factor sqrt(p_k decay_k) beta[k,l] of every
        co-pilot block, Q_cross[k,i,l] = x[k,l] x[i,l] lam^2 Psi[P_k,l] for
        co-pilot k and i; UEs on different pilots are uncorrelated.
    The estimation quality is ``nmse``'s.
    """

    Psi: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        for arr in (self.Psi, self.x):
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
    """(K,) decay exp(-(lambda - t_k)(var_ap + var_ue)) per UE, the
    ``phase_decay`` of the drift from its pilot instant to lambda.

    A decay that underflows to 0 raises ValueError naming the variances:
    the drift then leaves that UE's pilot no trace of its channel, so no
    estimate whose power a precoder could be normalized by.
    """
    gaps = pilots.tau_p + 1 - pilots.t
    decay = phase_decay(gaps, phases.var_sum)
    if not np.all(decay > 0):
        k = int(np.argmin(decay))
        raise ValueError(
            f"phase increment variances var_ap + var_ue = {phases.var_sum:.4g} rad^2 per "
            f"symbol decorrelate UE {k}'s pilot over the {gaps[k]} symbol(s) to the "
            f"estimation instant (its decay underflows to 0), leaving no channel estimate")
    return decay


def _pilot_covariance(net: NetworkModel, pilots: PilotAssignment, config: SystemConfig):
    """(S, L, N) eigenvalues sigma2 + sum_{j in P} p_j beta[j,l] lam_n of
    each co-pilot set's pilot covariance, one row per set."""
    p = config.pilot_powers()
    return config.sigma2_ul + pilots.set_sums(p[:, None] * net.beta)[..., None] * net.lam


def estimation_statistics(
    net: NetworkModel,
    pilots: PilotAssignment,
    phases: PhaseStatistics,
    config: SystemConfig,
) -> EstimationStatistics:
    """Compute Psi, one per co-pilot set, and the co-pilot factor x."""
    check_pilots(pilots, net.K, config)
    decay = decay_factors(pilots, phases)
    Psi = 1.0 / _pilot_covariance(net, pilots, config)
    x = np.sqrt(config.pilot_powers() * decay)[:, None] * net.beta
    return EstimationStatistics(Psi=Psi, x=x)


def nmse(net: NetworkModel, pilots: PilotAssignment, phases: PhaseStatistics,
         config: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """(K, L) normalized MSE of the MMSE and of the LS estimate of every
    link, tr(R - Q)/tr(R) and tr(Psi^-1) / (decay_k p_k tr R) - 1 (Ngo et
    al., "Cell-free massive MIMO versus small cells", IEEE TWC 2017)."""
    stats = estimation_statistics(net, pilots, phases, config)
    p_decay = decay_factors(pilots, phases) * config.pilot_powers()
    tr_R = net.beta * net.lam.sum()
    xl = stats.x[..., None] * net.lam
    tr_Q = (xl * xl * stats.Psi[pilots.set_of]).sum(axis=-1)
    tr_cov = _pilot_covariance(net, pilots, config).sum(axis=-1)[pilots.set_of]
    return (tr_R - tr_Q) / tr_R, tr_cov / (p_decay[:, None] * tr_R) - 1.0
