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
sums weighted by ea/eu, so all data instants are evaluated at once.  The
drift between UE k's pilot instant t_k and lambda enters only the mean,
through Q; the gain-uncertainty (fourth-moment) terms omit it, so under
oscillator drift the bound is an approximation that overstates SINR
slightly, and more so as the increment variances grow.

The estimation statistics are eigenvalues in the eigenbasis of the
correlation template T shared by all links (``R[k,l] = beta[k,l] T``), so
every trace is a sum over T's N eigenvalues and
tr(Q[i,l] R[k,l]) = beta[k,l] tr(Q[i,l] T).  Every co-pilot block is
rank 1 (``estimation``), so its traces factor as

    tr(Q_cross[k,i,l]) = x[k,l] x[i,l] s2[P_k,l],
    tr(Q_cross[k,i,l] T) = x[k,l] x[i,l] s3[P_k,l],

with s_m[P,l] = sum_n lam_n^m Psi[P,l,n] stored once per co-pilot set P,
(S, L) in the set order of ``PilotAssignment``.

Every SINR is rational in the power split rho with rho-independent
coefficients.  ``plan_parts`` computes those coefficients once per plan:
every sum over a co-pilot pair becomes a per-set sum
Omega[P,l] = sum_{i in P} w[i,l] x[i,l] of the plan's weights (or mu)
against x (``PilotAssignment.set_sums``), times the set's s2 or s3, so no
pair array is stored.  One function writes both streams' SINRs at one rho
from those coefficients, with elementwise work only: ``assemble`` returns
them, ``se_report`` turns them into the SE report, and the rho search's
objective (``sum_se_curve``) into the sum SE alone.  ``private_sinr``,
``common_sinr`` and ``evaluate_plan`` go through them, so a sweep job that
searches rho and then reports at the optimum computes its plan's
coefficients once.

No matrix product appears in this module: no ``@``, ``matmul``, ``dot``,
``vdot``, ``inner`` or ``tensordot``, and no ``einsum(..., optimize=...)``.
A product dispatched to BLAS sums in an order that depends on the CPU
kernel OpenBLAS selects, and the sweep's CSVs must not.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .estimation import EstimationStatistics, PilotAssignment
from .model import NetworkModel, PhaseStatistics, SystemConfig

PRIVATE_SCHEMES = ("du_mr", "df_mr")
TRANSMISSIONS = ("coherent", "noncoherent")


def _abs2(z: np.ndarray) -> np.ndarray:
    """|z|^2 of a complex array, without the square root of ``np.abs``."""
    return z.real**2 + z.imag**2


def _eig_sum(x: np.ndarray, lam: np.ndarray | None = None) -> np.ndarray:
    """``x`` summed over its last (eigenvalue) axis, each slice weighted by
    ``lam`` if given, by explicit slice adds.

    Adds in the order ``np.sum(x * lam, axis=-1)`` does for fewer than 8
    eigenvalues, so the result is bitwise the same there, at a fraction of
    the cost of a product and a reduction along a short last axis.
    """
    total = x[..., 0].copy() if lam is None else x[..., 0] * lam[0]
    for n in range(1, x.shape[-1]):
        total += x[..., n] if lam is None else x[..., n] * lam[n]
    return total


@dataclass(frozen=True)
class TraceTerms:
    """Precomputed trace tensors feeding every closed-form expression.

    x (K, L): the co-pilot factor of ``EstimationStatistics``.
    s2, s3 (S, L): sum_n lam_n^m Psi[P,l,n] for m = 2, 3, one row per
        co-pilot set P in the order of ``pilots``, so that for co-pilot k
        and i in P
        tr(Q_cross[k,i,l]) = x[k,l] x[i,l] s2[P,l] and
        tr(Q_cross[k,i,l] R[j,l]) = beta[j,l] x[k,l] x[i,l] s3[P,l].
        UEs on different pilots have no cross term.
    tr_Q (K, L): tr(Q[k,l]) = x^2 s2[P_k].
    tr_QT (K, L): tr(Q[k,l] T) = x^2 s3[P_k] with T the correlation
        template, so that tr(Q[i,l] R[k,l]) = beta[k,l] * tr_QT[i,l].
    pilots: the ``PilotAssignment`` that numbers the sets.
    theta, beta: the network's delay phases and gains, held by reference,
        not copied.
    """

    x: np.ndarray
    s2: np.ndarray
    s3: np.ndarray
    tr_Q: np.ndarray
    tr_QT: np.ndarray
    theta: np.ndarray
    pilots: PilotAssignment
    beta: np.ndarray

    def __post_init__(self):
        for arr in (self.x, self.s2, self.s3, self.tr_Q, self.tr_QT, self.theta, self.beta):
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
        s2 = _eig_sum(stats.Psi, net.lam**2)
        s3 = _eig_sum(stats.Psi, net.lam**3)
        x2 = stats.x * stats.x
        return cls(
            x=stats.x,
            s2=s2,
            s3=s3,
            tr_Q=x2 * s2[pilots.set_of],
            tr_QT=x2 * s3[pilots.set_of],
            theta=net.theta,
            pilots=pilots,
            beta=net.beta,
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
        for name in ("weights", "mu", "eta"):
            # freeze a copy: the caller's own array stays writeable
            arr = np.array(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.private_scheme not in PRIVATE_SCHEMES:
            raise ValueError(f"private_scheme must be one of {PRIVATE_SCHEMES}")
        if self.transmission not in TRANSMISSIONS:
            raise ValueError(f"transmission must be one of {TRANSMISSIONS}")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [0, 1]")
        # written as "not inside" so that nan fails too
        if not np.all((self.weights >= 0.0) & (self.weights < np.inf)):
            raise ValueError("plan weights must lie in [0, inf)")
        for name in ("mu", "eta"):
            arr = getattr(self, name)
            if not np.all((arr > 0.0) & (arr < np.inf)):
                raise ValueError(f"plan {name} must lie in (0, inf)")

    def replace_rho(self, rho: float) -> "PrecodingPlan":
        return dataclasses.replace(self, rho=rho)


def _check_shape(name: str, arr: np.ndarray, shape: tuple) -> None:
    if arr.shape != shape:
        raise ValueError(f"plan {name} has shape {arr.shape}, but the network needs {shape}")


def check_plan_shapes(plan: PrecodingPlan, K: int, L: int) -> None:
    """Raise ValueError, naming the field, unless the plan's mu and weights
    are (K, L) and its eta is (L,): a plan is never broadcast to a network."""
    for name, shape in (("mu", (K, L)), ("weights", (K, L)), ("eta", (L,))):
        _check_shape(name, getattr(plan, name), shape)


@dataclass(frozen=True)
class SEReport:
    """Per-instant SINRs, per-UE SE, and the rate-splitting sum SE at ``rho``."""

    sinr_private: np.ndarray
    sinr_common: np.ndarray
    se_private: np.ndarray
    se_common_per_ue: np.ndarray
    se_common: float
    sum_se: float
    rho: float


# ---------------------------------------------------------------------------
# normalizations and power control
# ---------------------------------------------------------------------------

def private_normalization(terms: TraceTerms) -> np.ndarray:
    """(L,) per-AP private normalization 1 / sum_i tr(Q[i,l])."""
    denom = terms.tr_Q.sum(axis=0)
    if np.any(denom <= 0):
        raise ValueError("estimate power vanished at some AP; cannot normalize")
    return 1.0 / denom


def common_power(terms: TraceTerms, weights: np.ndarray) -> np.ndarray:
    """(L,) common precoder power sum_k sum_{i in P_k} a_kl a_il tr(Qc[k,i,l])
    of weights a (K, L), that is sum_P s2[P,l] (sum_{i in P} a_il x_il)^2,
    summed over the sets in their order.

    With all-ones weights and orthogonal pilots it is the private
    normalization's sum_k tr(Q[k,l]).
    """
    omega = terms.pilots.set_sums(weights * terms.x)
    return np.einsum("sl,sl,sl->l", terms.s2, omega, omega)


def common_normalization(terms: TraceTerms, weights: np.ndarray) -> np.ndarray:
    """(L,) common normalization 1 / ``common_power``, after checking that
    the weights lie in [0, inf) and the power in (0, inf)."""
    if not np.all((weights >= 0.0) & (weights < np.inf)):
        raise ValueError("common weights must lie in [0, inf)")
    power = common_power(terms, weights)
    if not np.all((power > 0.0) & (power < np.inf)):
        raise ValueError("common precoder power must lie in (0, inf) at every AP")
    return 1.0 / power


def power_control_coefficients(terms: TraceTerms, alpha: float = -1.0) -> np.ndarray:
    """(K, L) statistical channel-cooperation power-control coefficients.

    mu[k,l] = beta_bar_k^alpha / sum_i tr(Q[i,l]) beta_bar_i^alpha with
    beta_bar the UE's network-average large-scale gain; alpha = -1 inverts
    the channel to lift the weakest UEs.  Satisfies
    sum_k mu[k,l] tr(Q[k,l]) == 1 at every AP.
    """
    beta_bar = terms.beta.mean(axis=1)
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
    unit_eta: bool = False,
) -> PrecodingPlan:
    """Assemble a plan with consistent normalizations.

    ``unit_eta`` keeps eta = 1 for weights that already satisfy the per-AP
    common power constraint (robust precoding output).  Weights of another
    shape than (K, L) raise ValueError before any normalization.
    """
    weights = (np.ones((terms.K, terms.L)) if weights is None
               else np.asarray(weights, dtype=float))
    _check_shape("weights", weights, (terms.K, terms.L))
    if power_control_alpha is None:
        mu = uniform_mu(terms)
    else:
        mu = power_control_coefficients(terms, power_control_alpha)
    return PrecodingPlan(
        private_scheme=private_scheme,
        transmission=transmission,
        rho=rho,
        weights=weights,
        mu=mu,
        eta=np.ones(terms.L) if unit_eta else common_normalization(terms, weights),
    )


# ---------------------------------------------------------------------------
# SINR families: rho-independent parts, assembled per power split
# ---------------------------------------------------------------------------

def _theta_eff(terms: TraceTerms, scheme: str) -> np.ndarray:
    """Delay phase as seen by the precoder: compensated away for DU."""
    if scheme == "du_mr":
        return np.ones_like(terms.theta)
    return terms.theta


def check_instants(config: SystemConfig, instants) -> np.ndarray:
    """The instants as a 1-d int array, after checking they are integers in
    [lambda, tau_c]."""
    given = np.atleast_1d(np.asarray(instants))
    n = given.astype(int)
    if (n != given).any():
        raise ValueError(f"instants must be integers, got {given[n != given][0].item()!r}")
    lam = config.estimation_instant
    if (n < lam).any() or (n > config.tau_c).any():
        raise ValueError(f"instants must lie in [{lam}, {config.tau_c}]")
    return n


def decay_pair(phases: PhaseStatistics, config: SystemConfig, instants):
    """(ea, eu) per-side phase decays at the instants, after a range check."""
    gap = check_instants(config, instants) - config.estimation_instant
    # per-side decay exp(-gap*var), the rotation mean at twice the variance
    return np.exp(-gap * phases.var_ap), np.exp(-gap * phases.var_ue)


@dataclass(frozen=True)
class PlanParts:
    """rho-independent coefficients of one plan's SINRs at M instants.

    eaeu (M, 1) is ea*eu; xi (M, K) or (1, K) the private received power,
    gamma (M, K) the common interference, both per transmitted watt;
    sig_private and sig_common (K,) the desired-signal coefficients, or
    (M, K) where they differ per row.
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

    Every sum over a co-pilot set is a per-set row (``set_sums``), read
    with the factors x, s2 and s3 and the complex weights w and sq.  With
    the complex per-set sum Omega[P,l] = sum_{i in P} w[i,l] x[i,l]:
    the desired common sums per AP, sum_{i in P_k} w[i,l] tr(Qc[k,i,l]),
    are (x s2)[k,l] Omega[P_k,l], with (x s2)[k,l] = x[k,l] s2[P_k,l]; the
    pilot contamination sum_{i in P_k} sum_l mu[i,l] tr(Qc[k,i,l])^2 is
    sum_l (x s2)[k,l]^2 sum_{i in P_k} mu[i,l] x[i,l]^2; and the common
    stream's cross term,
    Re sum_l eta_l sum_{i,j in P} conj(w[i,l]) w[j,l] tr(Qc[i,j,l] R[k,l]),
    is sum_l beta[k,l] eta_l s[l] with s[l] = sum_P s3[P,l] |Omega[P,l]|^2.
    Only the coherent private sum
    sum_{i in P_k} |sum_l (x s2)[k,l] (sq x)[i,l]|^2 pairs UEs, in an
    (S_c, g_c, g_c) array per stack of equal-size sets that is not kept.
    """
    check_plan_shapes(plan, terms.K, terms.L)
    ea, eu = decay_pair(phases, config, instants)
    theta_eff = _theta_eff(terms, plan.private_scheme)
    mu, eta = plan.mu, plan.eta
    coherent_tx = plan.transmission == "coherent"
    w = plan.weights * np.conj(theta_eff)  # (K, L)
    if coherent_tx:
        sq = np.conj(theta_eff) * np.sqrt(mu)
        sqx = sq * terms.x
    pilots, x = terms.pilots, terms.x
    of = pilots.set_of
    xs2 = x * terms.s2[of]

    omega = pilots.set_sums(w * x)  # (S, L)
    per_ap = xs2 * omega[of]
    percontam = np.einsum("kl,kl->k", xs2 * xs2, pilots.set_sums(mu * x * x)[of])
    s = np.einsum("sl,sl->l", terms.s3, _abs2(omega))
    if coherent_tx:
        coherent = np.empty(terms.K)
        for idx in pilots.stacks:
            a = np.einsum("skl,sil->ski", xs2[idx], sqx[idx])
            coherent[idx] = _abs2(a).sum(axis=-1)

    # sum_il mu[i,l] tr(Q[i,l] R[k,l]), with tr(Q[i,l] R[k,l]) = beta[k,l] tr(Q[i,l] T)
    total = np.einsum("kl,l->k", terms.beta, np.sum(mu * terms.tr_QT, axis=0))
    gain_unc = np.einsum("l,kl->k", eta, _abs2(per_ap))
    cross = np.einsum("kl,l->k", terms.beta, eta * s)
    if coherent_tx:
        xi = (total[None, :] + (1.0 - ea)[:, None] * percontam[None, :]
              + ea[:, None] * coherent[None, :])
        sig_private = _abs2(np.einsum("kl,kl->k", sq, terms.tr_Q))
        # coherent |sum_l sqrt(eta_l) per_ap[k,l]|^2
        sig_common = _abs2(np.einsum("kl,l->k", per_ap, np.sqrt(eta)))
        gamma = ((1.0 - ea)[:, None] * gain_unc[None, :] + cross[None, :]
                 + (ea * (1.0 - eu))[:, None] * sig_common[None, :])
    else:
        xi = (total + percontam)[None, :]
        sig_private = np.einsum("kl,kl->k", mu, terms.tr_Q**2)
        sig_common = gain_unc
        gamma = cross[None, :] + (1.0 - ea * eu)[:, None] * gain_unc[None, :]
    return PlanParts((ea * eu)[:, None], xi, sig_private, sig_common, gamma,
                     config.p_d, config.sigma2_dl, bool(np.isscalar(instants)))


def _write_sinrs(parts: PlanParts, rho: float, out: np.ndarray, num: np.ndarray) -> None:
    """Write the private and common SINRs at power split rho into out, with
    num as work buffer, both (2, M, K); elementwise work only.

    With p_dp = (1 - rho) p_d and p_dc = rho p_d:
        private = eaeu p_dp s_p / (p_dp xi - eaeu p_dp s_p + sigma2)
        common  = eaeu p_dc s_c / (p_dc gamma + p_dp xi + sigma2),
    so the common SINR is zero at rho == 0.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    p_dc = rho * parts.p_d
    p_dp = (1.0 - rho) * parts.p_d
    (num_p, num_c), (den_p, den_c) = num, out
    np.multiply(parts.eaeu * p_dp, parts.sig_private, out=num_p)
    np.multiply(parts.eaeu * p_dc, parts.sig_common, out=num_c)
    np.multiply(parts.xi, p_dp, out=den_p)
    np.multiply(parts.gamma, p_dc, out=den_c)
    den_c += den_p
    den_p -= num_p
    out += parts.sigma2
    np.divide(num, out, out=out)


def assemble(parts: PlanParts, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """(private, common) SINRs at power split rho: (K,) each for a scalar
    instant, else (K, M) transposed views of one fresh (2, M, K) array."""
    sinr = np.empty((2, len(parts.eaeu), parts.sig_private.shape[-1]))
    _write_sinrs(parts, rho, sinr, np.empty_like(sinr))
    private, common = sinr.transpose(0, 2, 1)
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
    # written as "not inside" so that nan fails too
    if not np.all(sinr >= 0):
        raise ValueError("SINR values must be >= 0")
    return np.log2(1.0 + sinr).sum(axis=-1) / tau_c


def sum_se(se_private: np.ndarray, se_common_per_ue: np.ndarray):
    """(se_common, sse): worst-UE common SE plus the private sum.

    The common stream must be decodable by every UE, so its rate is set by
    the minimum per-UE common SE.
    """
    se_common = float(np.min(se_common_per_ue)) if se_common_per_ue.size else 0.0
    return se_common, se_common + float(np.sum(se_private))


def se_report(parts: PlanParts, rho: float, tau_c: int) -> SEReport:
    """The SE report of a plan's coefficients at power split rho."""
    sinr_p, sinr_c = assemble(parts, rho)
    se_p = se_from_sinr(sinr_p, tau_c)
    se_c_per_ue = se_from_sinr(sinr_c, tau_c)
    se_c, sse = sum_se(se_p, se_c_per_ue)
    return SEReport(
        sinr_private=sinr_p,
        sinr_common=sinr_c,
        se_private=se_p,
        se_common_per_ue=se_c_per_ue,
        se_common=se_c,
        sum_se=sse,
        rho=rho,
    )


def evaluate_plan(
    terms: TraceTerms,
    plan: PrecodingPlan,
    phases: PhaseStatistics,
    config: SystemConfig,
) -> SEReport:
    """Full SE report for one plan over all data instants of the block."""
    parts = plan_parts(terms, plan, phases, config, config.data_instants())
    return se_report(parts, plan.rho, config.tau_c)


def sum_se_curve(parts: PlanParts, tau_c: int):
    """The sum SE of a plan's coefficients (over all data instants) as a
    function of rho, for the rho search.

    Each call writes the SINRs with ``assemble``'s function into (2, M, K)
    buffers allocated here once per plan and sums them as ``se_from_sinr``
    and ``sum_se`` do, building no report, so a call at rho equals
    ``se_report(parts, rho, tau_c).sum_se`` exactly.  A negative or nan
    SINR raises ValueError, as in ``se_from_sinr``.
    """
    if parts.scalar:
        raise ValueError("the sum SE curve needs a plan's parts over an array of instants")
    sinr = np.empty((2, len(parts.eaeu), parts.sig_private.shape[-1]))
    num = np.empty_like(sinr)

    def curve(rho: float) -> float:
        _write_sinrs(parts, rho, sinr, num)
        if not sinr.min() >= 0:
            raise ValueError("SINR values must be >= 0")
        np.add(sinr, 1.0, out=sinr)
        np.log2(sinr, out=sinr)
        se = sinr.sum(axis=1) / tau_c  # (2, K)
        return float(se[1].min()) + float(se[0].sum())

    return curve
