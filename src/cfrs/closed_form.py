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

Per-instant phase-decay factors are the per-side power decays
ea = exp(-(n-lambda)*var_ap) and eu = exp(-(n-lambda)*var_ue) of
``model.phase_decay``; SINR terms split into n-independent trace sums
weighted by ea/eu, so all data instants are evaluated at once.  The drift
between UE k's pilot instant t_k and lambda enters only the mean, through
x; the gain-uncertainty (fourth-moment) terms omit it, so under oscillator
drift the bound is an approximation that overstates SINR slightly, and
more so as the increment variances grow.

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
coefficients.  ``plan_parts`` is the one way into the closed form: it
computes those coefficients once per plan at M instants (one instant is
M = 1): every sum over a co-pilot pair becomes a per-set sum
Omega[P,l] = sum_{i in P} w[i,l] x[i,l] of the plan's weights (or mu)
against x (``PilotAssignment.set_sums``), times the set's s2 or s3, so no
pair array is stored.  One function writes both streams' SINRs at one rho
from those coefficients, with elementwise work only: ``assemble`` returns
them, (K, M) each, ``se_report`` turns them into the SE report, and the
rho search's objective (``sum_se_curve``) into the sum SE alone, so a sweep
job that searches rho and then reports at the optimum computes its plan's
coefficients once.

The same functions take a leading job axis of B jobs that share their
pilot assignment, scheme and instants: ``TraceTerms.stack`` stacks the
jobs' terms, ``make_plan`` makes one plan for the stack, ``plan_parts``
then takes one phase statistics and config per job, and ``PlanParts.stack``
joins such stacks, so ``sum_se_curve``, ``assemble`` and ``se_report``
take rho as a (B,) array and evaluate every job in one call.
``plan_parts`` writes each coefficient of a stack (instant, job, UE), the
layout of the stack's SINRs (stream, instant, job, UE), so their
elementwise work runs over whole rows of B*K with no copy in between.
Every sum runs in the same order as for one job, so each job's numbers in
a stack are bitwise those of its own call.

No matrix product appears in this module: no ``@``, ``matmul``, ``dot``,
``vdot``, ``inner`` or ``tensordot``, and no ``einsum(..., optimize=...)``.
A product dispatched to BLAS sums in an order that depends on the CPU
kernel OpenBLAS selects, and the sweep's CSVs must not.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .estimation import EstimationStatistics, PilotAssignment
from .model import NetworkModel, PhaseStatistics, SystemConfig, phase_decay

PRIVATE_SCHEMES = ("du_mr", "df_mr")
TRANSMISSIONS = ("coherent", "noncoherent")


def _abs2(z: np.ndarray) -> np.ndarray:
    """|z|^2 of a complex array, without the square root of ``np.abs``."""
    return z.real**2 + z.imag**2


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays stacked on a new leading axis; one array is not copied."""
    return np.stack(arrays) if len(arrays) > 1 else arrays[0][None]


def _eig_sum(x: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """``x`` summed over its last (eigenvalue) axis, each slice weighted by
    ``lam``, by explicit slice adds.

    Adds in the order ``np.sum(x * lam, axis=-1)`` does for fewer than 8
    eigenvalues, so the result is bitwise the same there, at a fraction of
    the cost of a product and a reduction along a short last axis.
    """
    total = x[..., 0] * lam[0]
    for n in range(1, x.shape[-1]):
        total += x[..., n] * lam[n]
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
        return self.tr_Q.shape[-2]

    @property
    def L(self) -> int:
        return self.tr_Q.shape[-1]

    @classmethod
    def stack(cls, terms: Sequence["TraceTerms"]) -> "TraceTerms":
        """The terms of B jobs on one pilot assignment, each array with a
        leading job axis."""
        pilots = terms[0].pilots
        if any(not np.array_equal(t.pilots.t, pilots.t) for t in terms[1:]):
            raise ValueError("stacked trace terms must share their pilot assignment")
        arrays = ("x", "s2", "s3", "tr_Q", "tr_QT", "theta", "beta")
        return cls(pilots=pilots, **{name: _stack([getattr(t, name) for t in terms])
                                     for name in arrays})

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

    def job(self, b: int) -> "PrecodingPlan":
        """Job b's plan of a plan of B jobs."""
        return dataclasses.replace(self, weights=self.weights[b], mu=self.mu[b], eta=self.eta[b])


def _check_shape(name: str, arr: np.ndarray, shape: tuple) -> None:
    if arr.shape != shape:
        raise ValueError(f"plan {name} has shape {arr.shape}, but the network needs {shape}")


def check_plan_shapes(plan: PrecodingPlan, *shape: int) -> None:
    """Raise ValueError, naming the field, unless the plan's mu and weights
    have the network's ``shape`` (K, L), or (B, K, L) for B jobs, and its
    eta that shape without K: a plan is never broadcast to a network."""
    for name, want in (("mu", shape), ("weights", shape), ("eta", shape[:-2] + shape[-1:])):
        _check_shape(name, getattr(plan, name), want)


@dataclass(frozen=True)
class SEReport:
    """Per-instant SINRs, per-UE SE, and the rate-splitting sum SE at ``rho``.

    The report of B jobs holds each field with a leading job axis, and
    ``job`` takes one job's report out of it.
    """

    sinr_private: np.ndarray
    sinr_common: np.ndarray
    se_private: np.ndarray
    se_common_per_ue: np.ndarray
    se_common: float
    sum_se: float
    rho: float

    def job(self, b: int) -> "SEReport":
        """Job b's report of a report of B jobs."""
        return SEReport(self.sinr_private[b], self.sinr_common[b], self.se_private[b],
                        self.se_common_per_ue[b], float(self.se_common[b]),
                        float(self.sum_se[b]), float(self.rho[b]))


# ---------------------------------------------------------------------------
# normalizations and power control
# ---------------------------------------------------------------------------

def private_normalization(terms: TraceTerms) -> np.ndarray:
    """(L,) per-AP private normalization 1 / sum_i tr(Q[i,l]), or (B, L)
    for B jobs' terms."""
    denom = terms.tr_Q.sum(axis=-2)
    if np.any(denom <= 0):
        raise ValueError("estimate power vanished at some AP; cannot normalize")
    return 1.0 / denom


def common_power(terms: TraceTerms, weights: np.ndarray) -> np.ndarray:
    """(L,) common precoder power sum_k sum_{i in P_k} a_kl a_il tr(Qc[k,i,l])
    of weights a (K, L), that is sum_P s2[P,l] (sum_{i in P} a_il x_il)^2,
    summed over the sets in their order; (B, L) for B jobs' terms and
    weights.

    With all-ones weights and orthogonal pilots it is the private
    normalization's sum_k tr(Q[k,l]).
    """
    omega = terms.pilots.set_sums(weights * terms.x)
    return np.einsum("...sl,...sl,...sl->...l", terms.s2, omega, omega)


def common_normalization(terms: TraceTerms, weights: np.ndarray) -> np.ndarray:
    """(L,) or (B, L) common normalization 1 / ``common_power``, after checking that
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
    sum_k mu[k,l] tr(Q[k,l]) == 1 at every AP.  (B, K, L) for B jobs' terms.
    """
    beta_bar = terms.beta.mean(axis=-1)
    if np.any(beta_bar <= 0):
        raise ValueError("every UE needs a positive average channel gain")
    weight = beta_bar**alpha
    denom = np.einsum("...il,...i->...l", terms.tr_Q, weight)
    return weight[..., :, None] / denom[..., None, :]


def make_plan(
    terms: TraceTerms,
    private_scheme: str = "du_mr",
    transmission: str = "coherent",
    rho: float = 0.0,
    weights: np.ndarray | None = None,
    unit_eta: bool = False,
) -> PrecodingPlan:
    """Assemble a plan with consistent normalizations.

    mu is the per-AP private normalization, the same for every UE.  A
    power-controlled plan replaces it, ``dataclasses.replace(plan,
    mu=power_control_coefficients(terms, alpha))``, with no other field to
    change: eta depends on the weights, not on mu.  ``unit_eta`` keeps
    eta = 1 for weights that already satisfy the per-AP common power
    constraint (robust precoding output).  Weights of another shape than
    the terms' (K, L) raise ValueError before any normalization.

    For the stacked terms of B jobs (``TraceTerms.stack``) the plan is the
    stack of the B jobs' plans, one scheme and rho with weights, mu and eta
    on a leading job axis, each job's arrays bitwise those of its own call;
    ``PrecodingPlan.job`` cuts one job's plan from it.
    """
    shape = terms.tr_Q.shape
    weights = np.ones(shape) if weights is None else np.asarray(weights, dtype=float)
    _check_shape("weights", weights, shape)
    # mu is copied here in C order: the plan's own copy of the broadcast
    # view would lay it out UE-innermost, and its einsums would sum otherwise
    return PrecodingPlan(
        private_scheme=private_scheme,
        transmission=transmission,
        rho=rho,
        weights=weights,
        mu=np.broadcast_to(private_normalization(terms)[..., None, :], shape).copy(),
        eta=np.ones(shape[:-2] + shape[-1:]) if unit_eta else common_normalization(terms, weights),
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


def decay_pair(phases, config, instants):
    """(ea, eu) per-side phase decays at the instants, after a range check:
    (M,) each for one job's phase statistics and config, (M, B) for
    sequences of B jobs' phase statistics and configs, which must share
    their estimation instant and tau_c."""
    one = isinstance(config, SystemConfig)
    if one:
        phases, config = [phases], [config]
    if len({(cfg.estimation_instant, cfg.tau_c) for cfg in config}) > 1:
        raise ValueError("stacked jobs must share their estimation instant and tau_c")
    gap = check_instants(config[0], instants) - config[0].estimation_instant
    var = np.array([[ph.var_ap for ph in phases], [ph.var_ue for ph in phases]])
    ea, eu = phase_decay(gap[:, None], var[:, None, :])
    return (ea[:, 0], eu[:, 0]) if one else (ea, eu)


@dataclass(frozen=True)
class PlanParts:
    """rho-independent coefficients of one plan's SINRs at M instants.

    Each coefficient is a full, C-contiguous (M, K) array, or (M, B, K)
    for a stack of B jobs: eaeu is ea*eu; xi the private received power
    and gamma the common interference, both per transmitted watt;
    sig_private and sig_common the desired-signal coefficients.  p_d and
    sigma2 are floats for one job and per-job (B, 1) columns for a stack.
    """

    eaeu: np.ndarray
    xi: np.ndarray
    sig_private: np.ndarray
    sig_common: np.ndarray
    gamma: np.ndarray
    p_d: float
    sigma2: float

    @property
    def jobs(self) -> int:
        """The number of jobs B of a stack."""
        return len(self.p_d)

    @classmethod
    def stack(cls, parts: Sequence["PlanParts"]) -> "PlanParts":
        """One stack of several stacks of jobs' coefficients, joined along
        the job axis."""
        if len(parts) == 1:
            return parts[0]
        return cls(*(np.concatenate([getattr(p, field.name) for p in parts], axis=-2)
                     for field in dataclasses.fields(cls)))

    def take(self, jobs: list[int]) -> "PlanParts":
        """The stack of the given jobs of a stack, in that order."""
        return PlanParts(*(np.take(getattr(self, field.name), jobs, axis=-2)
                           for field in dataclasses.fields(self)))


def plan_parts(
    terms: TraceTerms,
    plan: PrecodingPlan,
    phases: PhaseStatistics | Sequence[PhaseStatistics],
    config: SystemConfig | Sequence[SystemConfig],
    instants,
) -> PlanParts:
    """Every coefficient of the plan's SINRs that does not depend on rho.

    For B jobs, ``terms`` is a stack (``TraceTerms.stack``), ``plan`` the
    stack's plan (``make_plan`` of those terms), and ``phases`` and
    ``config`` sequences of B, and every coefficient of the result is
    written (M, B, K), the layout of the stack's SINRs.

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
    check_plan_shapes(plan, *terms.tr_Q.shape)
    ea, eu = decay_pair(phases, config, instants)
    if isinstance(config, SystemConfig):
        p_d, sigma2 = config.p_d, config.sigma2_dl
    else:
        p_d = np.array([[cfg.p_d] for cfg in config])
        sigma2 = np.array([[cfg.sigma2_dl] for cfg in config])
    theta_eff = _theta_eff(terms, plan.private_scheme)
    mu, eta = plan.mu, plan.eta
    coherent_tx = plan.transmission == "coherent"
    w = plan.weights * np.conj(theta_eff)  # (K, L)
    if coherent_tx:
        sq = np.conj(theta_eff) * np.sqrt(mu)
        sqx = sq * terms.x
    pilots, x = terms.pilots, terms.x
    of = pilots.set_of
    xs2 = x * terms.s2[..., of, :]

    omega = pilots.set_sums(w * x)  # (S, L)
    per_ap = xs2 * omega[..., of, :]
    percontam = np.einsum("...kl,...kl->...k", xs2 * xs2,
                          pilots.set_sums(mu * x * x)[..., of, :])
    s = np.einsum("...sl,...sl->...l", terms.s3, _abs2(omega))
    if coherent_tx:
        coherent = np.empty(x.shape[:-1])
        for idx in pilots.stacks:
            a = np.einsum("...skl,...sil->...ski", np.take(xs2, idx, axis=-2),
                          np.take(sqx, idx, axis=-2))
            coherent[..., idx] = _abs2(a).sum(axis=-1)

    # sum_il mu[i,l] tr(Q[i,l] R[k,l]), with tr(Q[i,l] R[k,l]) = beta[k,l] tr(Q[i,l] T)
    total = np.einsum("...kl,...l->...k", terms.beta, np.sum(mu * terms.tr_QT, axis=-2))
    gain_unc = np.einsum("...l,...kl->...k", eta, _abs2(per_ap))
    cross = np.einsum("...kl,...l->...k", terms.beta, eta * s)
    # per-instant factors as columns (M, ..., 1), per-UE ones as a row (1, ..., K)
    ea_, eu_ = ea[..., None], eu[..., None]
    total, percontam, gain_unc, cross = (v[None] for v in (total, percontam, gain_unc, cross))
    if coherent_tx:
        xi = total + (1.0 - ea_) * percontam + ea_ * coherent[None]
        sig_private = _abs2(np.einsum("...kl,...kl->...k", sq, terms.tr_Q))[None]
        # coherent |sum_l sqrt(eta_l) per_ap[k,l]|^2
        sig_common = _abs2(np.einsum("...kl,...l->...k", per_ap, np.sqrt(eta)))[None]
        gamma = (1.0 - ea_) * gain_unc + cross + (ea_ * (1.0 - eu_)) * sig_common
    else:
        xi = total + percontam
        sig_private = np.einsum("...kl,...kl->...k", mu, terms.tr_Q**2)[None]
        sig_common = gain_unc
        gamma = cross + (1.0 - ea_ * eu_) * gain_unc
    shape = ea_.shape[:-1] + total.shape[-1:]

    def full(v):
        if v.shape == shape:
            return v
        out = np.empty(shape)
        out[...] = v
        return out

    return PlanParts(*map(full, (ea_ * eu_, xi, sig_private, sig_common, gamma)), p_d, sigma2)


def _write_sinrs(parts: PlanParts, rho, out: np.ndarray, num: np.ndarray) -> None:
    """Write the private and common SINRs at power split rho into out, with
    num as work buffer, both (2, M, K), or (2, M, B, K) for a stack's
    coefficients with rho (B,) and p_d and sigma2 floats or (B, 1)
    columns; elementwise work only.

    With p_dp = (1 - rho) p_d and p_dc = rho p_d:
        private = eaeu p_dp s_p / (p_dp xi - eaeu p_dp s_p + sigma2)
        common  = eaeu p_dc s_c / (p_dc gamma + p_dp xi + sigma2),
    so the common SINR is zero at rho == 0.
    """
    # written as "not inside" so that nan fails too
    if not np.all((rho >= 0.0) & (rho <= 1.0)):
        raise ValueError("rho must lie in [0, 1]")
    if np.ndim(rho):
        # each job's split repeated over its UEs, a (B, K) row of the buffer
        rho = np.repeat(rho, out.shape[-1]).reshape(out.shape[-2:])
    p_dc = rho * parts.p_d
    p_dp = (1.0 - rho) * parts.p_d
    (num_p, num_c), (den_p, den_c) = num, out
    np.multiply(parts.eaeu, p_dp, out=num_p)
    num_p *= parts.sig_private
    np.multiply(parts.eaeu, p_dc, out=num_c)
    num_c *= parts.sig_common
    np.multiply(parts.xi, p_dp, out=den_p)
    np.multiply(parts.gamma, p_dc, out=den_c)
    den_c += den_p
    den_p -= num_p
    out += parts.sigma2
    np.divide(num, out, out=out)


def _shared_powers(parts: PlanParts) -> PlanParts:
    """The coefficients with a stack's p_d and sigma2 columns as floats
    where every job shares them: a (B, 1) column broadcast over the
    (2, M, B, K) SINRs cuts each elementwise loop to K elements, a float
    leaves it whole."""

    def shared(v):
        return v.flat[0] if np.ndim(v) and (v == v.flat[0]).all() else v

    return dataclasses.replace(parts, p_d=shared(parts.p_d), sigma2=shared(parts.sigma2))


def _sinr_buffer(parts: PlanParts) -> np.ndarray:
    """An empty array of both streams' SINRs: (2, M, K), or (2, M, B, K)
    for a stack, the shape of each coefficient."""
    return np.empty((2, *parts.xi.shape))


def _sinrs(parts: PlanParts, rho) -> np.ndarray:
    """Both streams' SINRs at rho in a fresh (2, M, K) or (2, M, B, K) array."""
    parts = _shared_powers(parts)
    sinr = _sinr_buffer(parts)
    _write_sinrs(parts, rho, sinr, np.empty_like(sinr))
    return sinr


def assemble(parts: PlanParts, rho) -> tuple[np.ndarray, np.ndarray]:
    """(private, common) SINRs at power split rho, (K, M) each, or
    (B, K, M) for B jobs: views of one fresh array."""
    return tuple(np.moveaxis(_sinrs(parts, rho), 1, -1))


# ---------------------------------------------------------------------------
# spectral efficiency
# ---------------------------------------------------------------------------

def sum_se(se_private: np.ndarray, se_common_per_ue: np.ndarray):
    """(se_common, sse): worst-UE common SE plus the private sum, floats,
    or (B,) arrays for B jobs' SEs with a leading job axis.

    The common stream must be decodable by every UE, so its rate is set by
    the minimum per-UE common SE.
    """
    se_common = se_common_per_ue.min(axis=-1)
    sse = se_common + se_private.sum(axis=-1)
    if sse.ndim:
        return se_common, sse
    return float(se_common), float(sse)


def _stream_se(sinr: np.ndarray, tau_c: int, out: np.ndarray | None = None) -> np.ndarray:
    """Per-UE SEs of both streams, (2, K) or (2, B, K), from their SINRs
    (2, M, K) or (2, M, B, K): log2(1 + sinr) summed over the M data
    instants and divided by tau_c, written through ``out`` if given.

    The instants are summed as numpy sums them in the (..., M, K) layout:
    row by row in instant order, except for one UE (K = 1), where the
    instants are contiguous there and numpy sums them pairwise.  A
    negative or nan SINR raises ValueError.
    """
    if not sinr.min() >= 0:
        raise ValueError("SINR values must be >= 0")
    terms = np.add(sinr, 1.0, out=out)
    np.log2(terms, out=terms)
    if terms.shape[-1] == 1:
        return np.moveaxis(terms, 1, -1).copy().sum(axis=-1) / tau_c
    return terms.sum(axis=1) / tau_c


def se_report(parts: PlanParts, rho, tau_c: int) -> SEReport:
    """The SE report of a plan's coefficients at power split rho, or of B
    jobs' coefficients at their (B,) power splits."""
    sinr = _sinrs(parts, rho)
    se_p, se_c_per_ue = _stream_se(sinr, tau_c)
    se_c, sse = sum_se(se_p, se_c_per_ue)
    sinr_p, sinr_c = np.moveaxis(sinr, 1, -1)
    return SEReport(
        sinr_private=sinr_p,
        sinr_common=sinr_c,
        se_private=se_p,
        se_common_per_ue=se_c_per_ue,
        se_common=se_c,
        sum_se=sse,
        rho=rho,
    )


def sum_se_curve(parts: PlanParts, tau_c: int):
    """The sum SE of a plan's coefficients (over all data instants) as a
    function of rho, for the rho search; for B jobs' coefficients, the
    (B,) sum SEs at (B,) power splits.

    Each call writes the SINRs into a (2, M, B, K) buffer allocated here,
    in the coefficients' own (instant, job, UE) layout, so its elementwise
    work runs over whole rows of B*K and its instant sum adds M such rows;
    the curve copies no coefficient.  The SEs go through
    ``se_report``'s instant sum (``_stream_se``) and ``sum_se``, building
    no report, so a call at rho equals ``se_report(parts, rho,
    tau_c).sum_se`` exactly, and each job's value is bitwise that of its
    own curve.  A negative or nan SINR raises ValueError.
    """
    parts = _shared_powers(parts)
    sinr = _sinr_buffer(parts)
    num = np.empty_like(sinr)

    def curve(rho):
        _write_sinrs(parts, rho, sinr, num)
        se = _stream_se(sinr, tau_c, out=sinr)
        return sum_se(se[0], se[1])[1]

    return curve
