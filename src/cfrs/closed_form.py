"""Closed-form downlink SINR and spectral-efficiency expressions.

Hardening (use-and-then-forget) lower bounds evaluated from the estimation
statistics alone, no sampling involved.  Four SINR families are provided:
private and common streams, each under coherent joint transmission (all
APs send the same symbol) and non-coherent transmission (per-AP symbols
decoded successively).  Each family exists in a delay-used (DU) and
delay-forgotten (DF) flavor; DU precoders compensate the known delay
phase, so DU formulas contain no theta, whereas DF keeps the raw delay
phases in the desired-signal and pilot-coherent terms.  Both flavors are
computed by one code path with an effective theta that is identically one
for DU, which makes the DU/DF equalities bitwise when delays vanish.

Per-instant phase-decay factors are ea = exp(-(n-lambda)*var_ap) and
eu = exp(-(n-lambda)*var_ue); SINR terms split into n-independent trace
sums weighted by ea/eu, so all data instants are evaluated at once.

Every SINR is rational in the power split rho with rho-independent
coefficients.  ``plan_parts`` computes those coefficients once per plan
(the trace contractions, including the cross term over the co-pilot
blocks of ``tr_QcR``); ``assemble`` turns them into both streams' SINRs
at one rho with elementwise work only.  ``private_sinr``, ``common_sinr``,
``evaluate_plan`` and the rho search (``sum_se_curve``) all go through
this one path.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .estimation import EstimationStatistics, PilotAssignment
from .model import (
    NetworkModel,
    PhaseStatistics,
    SystemConfig,
    expected_phase_decay,
)

PRIVATE_SCHEMES = ("du_mr", "df_mr")
# the MMSE-style private precoder has no closed form; it is handled by the
# Monte Carlo oracle only
PLAN_SCHEMES = PRIVATE_SCHEMES + ("du_mmse",)
TRANSMISSIONS = ("coherent", "noncoherent")


def _pair_traces(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """[..., k, l] = tr(A[..., l, :, :] B[k, l]) for B of shape (K, L, N, N).

    tr(A B) = vec(A) . vec(B^T), so this is one matrix product per AP.
    """
    K, L, N = B.shape[0], B.shape[1], B.shape[-1]
    a = A.reshape(-1, L, N * N).transpose(1, 0, 2)  # (L, P, N^2)
    b = np.swapaxes(B, -1, -2).reshape(K, L, N * N).transpose(1, 2, 0)  # (L, N^2, K)
    return (a @ b).transpose(1, 2, 0).reshape(*A.shape[:-3], K, L)


@dataclass(frozen=True)
class TraceTerms:
    """Precomputed trace tensors feeding every closed-form expression.

    tr_Q (K, L): tr(Q[k,l]), real.
    tr_QR (K, K, L): [i, k, l] = tr(Q[i,l] R[k,l]), real.
    tr_Qc (K, K, L): [k, i, l] = tr(Q_cross[k,i,l]), zero off pilot group.
    groups: co-pilot sets as index arrays, in ``PilotAssignment.groups``
        order; the blocks below follow the same order.
    tr_QcR: one (g, g, K, L) block per co-pilot set, [a, b, k, l] =
        tr(Q_cross[i,j,l] R[k,l]) for the set's a-th and b-th UEs i and j.
        Pairs on different pilots vanish and have no entry.
    """

    tr_Q: np.ndarray
    tr_QR: np.ndarray
    tr_Qc: np.ndarray
    tr_QcR: tuple[np.ndarray, ...]
    theta: np.ndarray
    groups: tuple[np.ndarray, ...]
    beta: np.ndarray

    def __post_init__(self):
        for arr in (self.tr_Q, self.tr_QR, self.tr_Qc, *self.tr_QcR, self.theta,
                    *self.groups, self.beta):
            arr.setflags(write=False)

    @property
    def K(self) -> int:
        return self.tr_Q.shape[0]

    @property
    def L(self) -> int:
        return self.tr_Q.shape[1]

    @classmethod
    def compute(
        cls,
        net: NetworkModel,
        stats: EstimationStatistics,
        pilots: PilotAssignment,
    ) -> "TraceTerms":
        groups = tuple(np.array(g) for g in pilots.groups)
        tr_Qc = np.zeros((net.K, net.K, net.L), dtype=complex)
        for g, block in zip(groups, stats.Q_cross):
            tr_Qc[np.ix_(g, g)] = np.einsum("kilnn->kil", block)
        return cls(
            tr_Q=np.einsum("klnn->kl", stats.Q).real,
            tr_QR=_pair_traces(stats.Q, net.R).real,
            tr_Qc=tr_Qc,
            tr_QcR=tuple(_pair_traces(block, net.R) for block in stats.Q_cross),
            theta=net.theta.copy(),
            groups=groups,
            beta=net.beta.copy(),
        )


@dataclass(frozen=True)
class PrecodingPlan:
    """Scheme tags plus the power split and all normalization factors.

    mu is stored (K, L): a per-AP normalization broadcasts across UEs,
    statistical power control makes it genuinely UE-dependent.  weights are
    the common combining coefficients a[i, l] >= 0 (all-ones is the simple
    low-complexity choice); eta is the per-AP common normalization, fixed
    to ones when robust weights already absorb the power constraint.
    """

    private_scheme: str
    transmission: str
    rho: float
    weights: np.ndarray
    mu: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        if self.private_scheme not in PLAN_SCHEMES:
            raise ValueError(f"private_scheme must be one of {PLAN_SCHEMES}")
        if self.transmission not in TRANSMISSIONS:
            raise ValueError(f"transmission must be one of {TRANSMISSIONS}")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [0, 1]")
        if np.any(self.weights < 0):
            raise ValueError("common weights must be >= 0")
        if np.any(self.mu <= 0) or np.any(self.eta <= 0):
            raise ValueError("normalization factors must be > 0")
        for arr in (self.weights, self.mu, self.eta):
            arr.setflags(write=False)

    def replace_rho(self, rho: float) -> "PrecodingPlan":
        return PrecodingPlan(
            private_scheme=self.private_scheme,
            transmission=self.transmission,
            rho=rho,
            weights=self.weights.copy(),
            mu=self.mu.copy(),
            eta=self.eta.copy(),
        )

    @property
    def tags(self) -> dict:
        return {
            "private_scheme": self.private_scheme,
            "transmission": self.transmission,
            "rho": self.rho,
        }


@dataclass(frozen=True)
class SEReport:
    """Per-instant SINRs, per-UE SE, and the rate-splitting sum SE."""

    sinr_private: np.ndarray
    sinr_common: np.ndarray
    se_private: np.ndarray
    se_common_per_ue: np.ndarray
    se_common: float
    sum_se: float
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "metadata": self.metadata,
                "se_private": self.se_private.tolist(),
                "se_common_per_ue": self.se_common_per_ue.tolist(),
                "se_common": self.se_common,
                "sum_se": self.sum_se,
                "sinr_private": self.sinr_private.tolist(),
                "sinr_common": self.sinr_common.tolist(),
            },
            sort_keys=True,
        )

    def to_csv_rows(self) -> list[dict]:
        rows = []
        for k in range(self.se_private.shape[0]):
            rows.append(
                {
                    "scheme": self.metadata.get("private_scheme", ""),
                    "transmission": self.metadata.get("transmission", ""),
                    "rho": self.metadata.get("rho", 0.0),
                    "k": k,
                    "se_private": float(self.se_private[k]),
                    "se_common_per_ue": float(self.se_common_per_ue[k]),
                    "sum_se": self.sum_se,
                    "seed": self.metadata.get("seed", ""),
                }
            )
        return rows


def config_hash(config: SystemConfig) -> str:
    """Stable short hash of a system configuration for provenance metadata."""
    payload = json.dumps(
        {k: (list(v) if isinstance(v, tuple) else v) for k, v in vars(config).items()},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# normalizations and power control
# ---------------------------------------------------------------------------

def private_normalization(terms: TraceTerms) -> np.ndarray:
    """(L,) per-AP private normalization 1 / sum_i tr(Q[i,l])."""
    denom = terms.tr_Q.sum(axis=0)
    if np.any(denom <= 0):
        raise ValueError("estimate power vanished at some AP; cannot normalize")
    return 1.0 / denom


def common_normalization(terms: TraceTerms, weights: np.ndarray) -> np.ndarray:
    """(L,) common normalization 1 / sum_k sum_{i in P_k} a_kl a_il tr(Qc[k,i,l]).

    With all-ones weights and orthogonal pilots this reduces to the private
    normalization since Q_cross[k,k,l] == Q[k,l].
    """
    if np.any(weights < 0):
        raise ValueError("common weights must be >= 0")
    denom = np.einsum("kl,il,kil->l", weights, weights, terms.tr_Qc).real
    if np.any(denom <= 0):
        raise ValueError("common precoder power is not positive at some AP")
    return 1.0 / denom


def power_control_coefficients(
    terms: TraceTerms, net: NetworkModel, alpha: float = -1.0
) -> np.ndarray:
    """(K, L) statistical channel-cooperation power-control coefficients.

    mu[k,l] = beta_bar_k^alpha / sum_i tr(Q[i,l]) beta_bar_i^alpha with
    beta_bar the UE's network-average large-scale gain; alpha = -1 inverts
    the channel to lift the weakest UEs.  Satisfies
    sum_k mu[k,l] tr(Q[k,l]) == 1 at every AP.
    """
    beta_bar = net.beta.mean(axis=1)
    if np.any(beta_bar <= 0):
        raise ValueError("every UE needs a positive average channel gain")
    weight = beta_bar**alpha
    denom = np.einsum("il,i->l", terms.tr_Q, weight)
    return weight[:, None] / denom[None, :]


def uniform_mu(terms: TraceTerms) -> np.ndarray:
    """(K, L) broadcast of the per-AP private normalization."""
    return np.broadcast_to(private_normalization(terms)[None, :],
                           (terms.K, terms.L)).copy()


def make_plan(
    terms: TraceTerms,
    private_scheme: str = "du_mr",
    transmission: str = "coherent",
    rho: float = 0.0,
    weights: np.ndarray | None = None,
    power_control_alpha: float | None = None,
    net: NetworkModel | None = None,
    unit_eta: bool = False,
) -> PrecodingPlan:
    """Assemble a plan with consistent normalizations.

    ``unit_eta`` keeps eta = 1 for weights that already satisfy the per-AP
    common power constraint (robust precoding output).
    """
    if weights is None:
        weights = np.ones((terms.K, terms.L))
    if power_control_alpha is None:
        mu = uniform_mu(terms)
    else:
        if net is None:
            raise ValueError("power control needs the network model")
        mu = power_control_coefficients(terms, net, power_control_alpha)
    eta = np.ones(terms.L) if unit_eta else common_normalization(terms, weights)
    return PrecodingPlan(
        private_scheme=private_scheme,
        transmission=transmission,
        rho=rho,
        weights=np.asarray(weights, dtype=float),
        mu=mu,
        eta=eta,
    )


# ---------------------------------------------------------------------------
# SINR families: rho-independent parts, assembled per power split
# ---------------------------------------------------------------------------

def _theta_eff(terms: TraceTerms, scheme: str) -> np.ndarray:
    """Delay phase as seen by the precoder: compensated away for DU."""
    if scheme == "du_mr":
        return np.ones_like(terms.theta)
    if scheme == "df_mr":
        return terms.theta
    raise ValueError(
        f"no closed-form expression for {scheme!r}; use the Monte Carlo oracle"
    )


def _decay_pair(phases: PhaseStatistics, config: SystemConfig, instants):
    n = np.atleast_1d(np.asarray(instants, dtype=int))
    lam = config.estimation_instant
    if np.any(n < lam) or np.any(n > config.tau_c):
        raise ValueError(f"instants must lie in [{lam}, {config.tau_c}]")
    gap = n - lam
    # per-side decay exp(-gap*var) is the rotation mean at twice the variance
    ea = np.atleast_1d(expected_phase_decay(gap, 2.0 * phases.var_ap))
    eu = np.atleast_1d(expected_phase_decay(gap, 2.0 * phases.var_ue))
    return ea, eu


def _cross_term(terms: TraceTerms, eta: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(K,) sum_l eta_l sum_{i,j} conj(w[i,l]) w[j,l] tr(Qc[i,j,l] R[k,l]).

    tr_QcR vanishes unless i and j share a pilot, so only the co-pilot
    blocks are contracted: K*g*K*L work for groups of size g.
    """
    cross = np.zeros(terms.K)
    for g, block in zip(terms.groups, terms.tr_QcR):
        pair = eta * np.conj(w[g])[:, None] * w[g][None, :]  # (g, g, L)
        cross += np.einsum("ijl,ijkl->k", pair, block).real
    return cross


@dataclass(frozen=True)
class PlanParts:
    """rho-independent coefficients of one plan's SINRs at M instants.

    eaeu (M, 1) is ea*eu; xi (M, K) or (1, K) the private received power,
    gamma (M, K) the common interference, both per transmitted watt;
    sig_private and sig_common (K,) the desired-signal coefficients.
    """

    eaeu: np.ndarray
    xi: np.ndarray
    sig_private: np.ndarray
    sig_common: np.ndarray
    gamma: np.ndarray
    p_d: float
    sigma2: float
    scalar: bool


def plan_parts(
    terms: TraceTerms,
    plan: PrecodingPlan,
    phases: PhaseStatistics,
    config: SystemConfig,
    instants,
) -> PlanParts:
    """Every coefficient of the plan's SINRs that does not depend on rho.

    Non-coherent private terms carry no delay phase (per-AP detection
    removes it, so DU and DF agree exactly); the non-coherent common stream
    keeps it, because the per-AP common precoders mix all UEs' phases.
    """
    ea, eu = _decay_pair(phases, config, instants)
    theta_eff = _theta_eff(terms, plan.private_scheme)
    mu = plan.mu
    total = np.einsum("il,ikl->k", mu, terms.tr_QR)  # sum_il mu tr(Q[i,l] R[k,l])
    # sum_{i in P_k} sum_l mu[i,l] |tr(Qc[k,i,l])|^2
    percontam = np.einsum("il,kil->k", mu, np.abs(terms.tr_Qc) ** 2)
    w = plan.weights * np.conj(theta_eff)  # (K, L)
    per_ap = np.einsum("il,kil->kl", w, terms.tr_Qc)  # desired common sums per AP
    gain_unc = np.einsum("l,kl->k", plan.eta, np.abs(per_ap) ** 2)
    cross = _cross_term(terms, plan.eta, w)
    if plan.transmission == "coherent":
        sq = np.conj(theta_eff) * np.sqrt(mu)
        # sum_{i in P_k} |sum_l theta*[i,l] sqrt(mu[i,l]) tr(Qc[k,i,l])|^2
        coherent = np.sum(np.abs(np.einsum("il,kil->ki", sq, terms.tr_Qc)) ** 2, axis=1)
        xi = (total[None, :] + (1.0 - ea)[:, None] * percontam[None, :]
              + ea[:, None] * coherent[None, :])
        sig_private = np.abs(np.einsum("kl,kl->k", sq, terms.tr_Q)) ** 2
        sig_common = np.abs(per_ap @ np.sqrt(plan.eta)) ** 2  # coherent |sum_l|^2
        gamma = ((1.0 - ea)[:, None] * gain_unc[None, :] + cross[None, :]
                 + (ea * (1.0 - eu))[:, None] * sig_common[None, :])
    else:
        xi = (total + percontam)[None, :]
        sig_private = np.einsum("kl,kl->k", mu, terms.tr_Q**2)
        sig_common = gain_unc
        gamma = cross[None, :] + (1.0 - ea * eu)[:, None] * gain_unc[None, :]
    return PlanParts((ea * eu)[:, None], xi, sig_private, sig_common, gamma,
                     config.p_d, config.sigma2_dl, bool(np.isscalar(instants)))


def assemble(parts: PlanParts, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """(private, common) SINRs at power split rho, elementwise work only.

    With p_dp = (1 - rho) p_d and p_dc = rho p_d:
        private = eaeu p_dp s_p / (p_dp xi - eaeu p_dp s_p + sigma2)
        common  = eaeu p_dc s_c / (p_dc gamma + p_dp xi + sigma2),
    exactly zero at rho == 0.  Each is (K,) for a scalar instant, else (K, M).
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    p_dc = rho * parts.p_d
    p_dp = (1.0 - rho) * parts.p_d
    sig = parts.eaeu * p_dp * parts.sig_private[None, :]
    private = (sig / (p_dp * parts.xi - sig + parts.sigma2)).T
    if p_dc == 0.0:
        common = np.zeros(private.shape)
    else:
        num = parts.eaeu * p_dc * parts.sig_common[None, :]
        den = p_dc * parts.gamma + p_dp * parts.xi + parts.sigma2
        common = (num / den).T
    if parts.scalar:
        return private[:, 0], common[:, 0]
    return private, common


def private_sinr(terms, plan, phases, config, instants) -> np.ndarray:
    """Private-stream SINRs: (K,) for a scalar instant, else (K, M)."""
    return assemble(plan_parts(terms, plan, phases, config, instants), plan.rho)[0]


def common_sinr(terms, plan, phases, config, instants) -> np.ndarray:
    """Common-stream SINRs: (K,) for a scalar instant, else (K, M)."""
    return assemble(plan_parts(terms, plan, phases, config, instants), plan.rho)[1]


# ---------------------------------------------------------------------------
# spectral efficiency
# ---------------------------------------------------------------------------

def se_from_sinr(sinr: np.ndarray, tau_c: int) -> np.ndarray:
    """SE in bit/s/Hz from per-instant SINRs over the data instants.

    ``sinr`` has instants on the last axis (one value per data instant);
    the 1/tau_c prelog charges the pilot overhead.
    """
    sinr = np.asarray(sinr, dtype=float)
    if np.any(sinr < 0):
        raise ValueError("SINR values must be >= 0")
    return np.log2(1.0 + sinr).sum(axis=-1) / tau_c


def sum_se(se_private: np.ndarray, se_common_per_ue: np.ndarray):
    """(se_common, sse): worst-UE common SE plus the private sum.

    The common stream must be decodable by every UE, so its rate is set by
    the minimum per-UE common SE.
    """
    se_common = float(np.min(se_common_per_ue)) if se_common_per_ue.size else 0.0
    return se_common, se_common + float(np.sum(se_private))


def evaluate_plan(
    terms: TraceTerms,
    plan: PrecodingPlan,
    phases: PhaseStatistics,
    config: SystemConfig,
    metadata: dict | None = None,
) -> SEReport:
    """Full SE report for one plan over all data instants of the block."""
    parts = plan_parts(terms, plan, phases, config, config.data_instants())
    sinr_p, sinr_c = assemble(parts, plan.rho)
    se_p = se_from_sinr(sinr_p, config.tau_c)
    se_c_per_ue = se_from_sinr(sinr_c, config.tau_c)
    se_c, sse = sum_se(se_p, se_c_per_ue)
    meta = dict(plan.tags)
    meta["seed"] = config.seed
    meta["config_hash"] = config_hash(config)
    if metadata:
        meta.update(metadata)
    return SEReport(
        sinr_private=sinr_p,
        sinr_common=sinr_c,
        se_private=se_p,
        se_common_per_ue=se_c_per_ue,
        se_common=se_c,
        sum_se=sse,
        metadata=meta,
    )


def sum_se_curve(terms, plan, phases, config):
    """The plan's sum SE as a function of rho: parts once, assembly per call.

    A call at ``plan.rho`` equals ``evaluate_plan(...).sum_se`` exactly.
    """
    parts = plan_parts(terms, plan, phases, config, config.data_instants())

    def sum_se_at(rho: float) -> float:
        sinr_p, sinr_c = assemble(parts, rho)
        se_p = se_from_sinr(sinr_p, config.tau_c)
        return sum_se(se_p, se_from_sinr(sinr_c, config.tau_c))[1]

    return sum_se_at


# ---------------------------------------------------------------------------
# asymptotic trend checks
# ---------------------------------------------------------------------------

def asymptotic_monotonicity_check(
    config: SystemConfig | None = None,
    var_grid=(1e-5, 1e-4, 1e-3, 1e-2),
    seed: int = 0,
) -> dict:
    """Numerically verify the large-array oscillator-phase trends.

    On the coherent DU-MR closed form: SINR decreases in both increment
    variances; with (var_ap, var_ue) = (small, large) the sum SE is lower
    than with the values swapped (the UE oscillator dominates); and a
    larger AP count shrinks the relative penalty of the AP-side variance.
    Returns measured margins and pass flags.
    """
    from .estimation import assign_pilots, estimation_statistics
    from .model import build_network

    if config is None:
        config = SystemConfig(L=100, K=8, N=2, tau_p=4, tau_c=200, seed=seed)

    def sum_se_for(cfg, var_ap, var_ue):
        net = build_network(cfg)
        pilots = assign_pilots(cfg.K, cfg.tau_p)
        ph = PhaseStatistics(var_ap=var_ap, var_ue=var_ue)
        stats = estimation_statistics(net, pilots, ph, cfg)
        terms = TraceTerms.compute(net, stats, pilots)
        plan = make_plan(terms, "du_mr", "coherent", rho=0.0)
        return evaluate_plan(terms, plan, ph, cfg).sum_se

    grid = [sum_se_for(config, v, v) for v in var_grid]
    grid_decreasing = all(a > b for a, b in zip(grid, grid[1:]))

    small, large = min(var_grid), max(var_grid)
    ue_heavy = sum_se_for(config, small, large)
    ap_heavy = sum_se_for(config, large, small)
    swap_margin = (ap_heavy - ue_heavy) / max(ap_heavy, 1e-30)

    # AP-count effect on the AP-side penalty ratio
    few = vars(config).copy()
    few.update(L=max(4, config.L // 10))
    cfg_few = SystemConfig(**few)
    penalty_many = sum_se_for(config, large, small) / sum_se_for(config, small, small)
    penalty_few = sum_se_for(cfg_few, large, small) / sum_se_for(cfg_few, small, small)

    return {
        "grid_sum_se": grid,
        "grid_decreasing": grid_decreasing,
        "ue_variance_dominates": ue_heavy < ap_heavy,
        "swap_margin": float(swap_margin),
        "ap_penalty_ratio_many_aps": float(penalty_many),
        "ap_penalty_ratio_few_aps": float(penalty_few),
        "more_aps_reduce_ap_penalty": penalty_many > penalty_few,
        "passed": bool(
            grid_decreasing and ue_heavy < ap_heavy and penalty_many > penalty_few
        ),
    }
