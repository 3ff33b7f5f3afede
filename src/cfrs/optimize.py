"""Power-split search and max-min robust precoding of the common stream.

Two optimizers operate on the closed-form expressions:

* ``optimal_rho`` — derivative-sign binary search over the common/private
  power split rho in [0, 1], probing a small forward difference at each
  midpoint.  Globally optimal for unimodal sum SE, best-seen otherwise,
  and never worse than the better endpoint.  One path serves one curve
  and a stack of curves: the search runs on numpy arrays of the shape of
  the curve's value, () or (B,), and halves every lane's interval at each
  step.  A sweep searches all RS jobs of a repetition at once, whatever
  their schemes, in one lockstep search of ``closed_form.sum_se_curve``
  over their stacked rho-independent coefficients: 22 evaluations at the
  default tol, each evaluating every job's sum SE.

* ``robust_common_precoding`` — maximizes the minimum per-UE common-stream
  SINR at one instant over non-negative combining weights a[k,l], subject
  to per-AP power E{||v_c,l||^2} <= 1 (the common normalization is
  absorbed, so the returned weights are used with unit eta).  The SINRs and
  the power see a only through one sum per (co-pilot set, AP), so the
  program is solved over those sums, y (S, L), in which the power is a
  ball per AP and every quadratic form is diagonal (``MaxMinProblem``).
  The problem is quasi-concave; a bisection over the target t, warm-started
  at the min SINR of the all-ones weights scaled to the power budget,
  solves a second-order cone feasibility program per step.  Feasibility is
  decided through a max-slack reformulation, the largest margin by which
  the row-normalized SINR cones can be met, solved by a log-barrier
  method with no state kept between targets: an iterate that meets every
  original constraint, min SINR >= t included, makes a target feasible,
  and an explicit dual bound on the slack below TOL_FEAS makes it
  infeasible.  The program's SINR is written once, in the cone terms
  (``_cone_terms``); its decay factors come from ``closed_form.decay_pair``
  (so from ``model.phase_decay``) and its private interference from
  ``closed_form.plan_parts``.  No matrix product or LAPACK solve is
  formed, so the weights do not depend on the BLAS kernel.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .closed_form import TraceTerms, common_power, decay_pair, make_plan, plan_parts
from .model import PhaseStatistics, SystemConfig

log = logging.getLogger(__name__)


# feasibility tolerance: largest accepted constraint violation of a feasible
# point, and the dual bound below which a target counts as infeasible
TOL_FEAS = 1e-8

# the barrier method's Newton steps per target, its barrier weight's growth
# factor per centring, and the Newton decrement squared that ends a centring
MAX_NEWTON_STEPS = 500
MU = 8.0
CENTRED = 0.5

# the (private scheme, transmission) whose common SINR the max-min program
# optimizes, with the per-AP private normalization; robust weights are
# certified for this pair only
MAXMIN_SCHEME = ("du_mr", "coherent")


class SolverIndeterminate(RuntimeError):
    """The feasibility subproblem did not converge to a usable verdict."""


# ---------------------------------------------------------------------------
# power-splitting factor (binary search on the derivative sign)
# ---------------------------------------------------------------------------

def optimal_rho(evaluator, tol: float = 1e-3):
    """Search [0, 1] for the power split maximizing ``evaluator(rho)``.

    At each midpoint the sign of a forward difference with step tol/100
    decides which half to keep; the best value ever evaluated is tracked
    and returned, a tie keeping the earlier split (so rho = 0 first).  tol
    must lie in (0, 1): at tol >= 1 the search would evaluate the endpoints
    only.  The calls are the endpoints 0 and 1, then a value and a probe
    at each midpoint: 22 at the default tol.

    The evaluator is called first at the float 0.0, and the shape of that
    value is the shape of every later split: () for one curve, or (B,)
    for an evaluator of B curves (``closed_form.sum_se_curve`` of B jobs),
    whose B searches then run in lockstep on numpy arrays, each call
    evaluating all B curves.  Every curve's interval halves at every step,
    so each lane's (rho, value) is the one its own search finds.  A
    float-valued curve's search returns Python floats, a stack's (B,)
    arrays.
    """
    if not 0 < tol < 1:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    delta = tol / 100.0

    best_sse = np.asarray(evaluator(0.0))
    best_rho, lo, hi = np.zeros(best_sse.shape), np.zeros(best_sse.shape), np.ones(best_sse.shape)

    def keep(rho, sse):
        better = sse > best_sse
        return np.where(better, rho, best_rho), np.where(better, sse, best_sse)

    best_rho, best_sse = keep(hi, evaluator(hi))
    width = 1.0  # every lane's hi - lo: halving a dyadic interval is exact
    while width > tol:
        width *= 0.5
        mid = 0.5 * (hi + lo)
        sse = evaluator(mid)
        rising = evaluator(mid + delta) > sse
        lo, hi = np.where(rising, mid, lo), np.where(rising, hi, mid)
        best_rho, best_sse = keep(mid, sse)
    if best_sse.ndim:
        return best_rho, best_sse
    return float(best_rho), float(best_sse)


# ---------------------------------------------------------------------------
# max-min problem assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaxMinProblem:
    """Data of the max-min common-SINR program at one instant.

    The program sees the common weights a (K, L) only through the per-set
    sums Omega[P,l] = sum_{i in P} a[i,l] x[i,l], so its variables are
    y[P,l] = sqrt(s2[P,l]) Omega[P,l] >= 0, an (S, L) array with one row
    per co-pilot set, in the set order of ``PilotAssignment``.  With
    c[i,l] = x[i,l] sqrt(s2[P_i,l]), y[P,l] = sum_{i in P} c[i,l] a[i,l].
    For UE k, in set P_k = ``terms.pilots.set_of[k]``, the SINR at target
    decay factors (ea, eu) reads

        p_dc*ea*eu*g_k^2 /
        (p_dc*(1-ea)*h_k + p_dc*m_k + p_dc*ea*(1-eu)*g_k^2
         + p_dp*xi_k + sigma2)

    with the desired signal g_k = sum_l c[k,l] y[P_k,l] (b_k.a in the
    weights), h_k = sum_l (c[k,l] y[P_k,l])^2 (a'H_k a) and
    m_k = sum_l beta[k,l] sum_P ratio[P,l] y[P,l]^2 (a'M_k a), where
    ratio = s3/s2, subject to ||y[:, l]|| <= 1 per AP (its square is
    ``closed_form.common_power``) and y >= 0.  Every quadratic form is
    diagonal in y.  y_ones is the y of the all-ones weights,
    sum_{i in P} c[i,l].
    """

    terms: TraceTerms      # the factors x, s2, s3, beta and the co-pilot sets
    c: np.ndarray          # (K, L) x sqrt(s2) of the UE's set
    ratio: np.ndarray      # (S, L) s3/s2 of each set
    y_ones: np.ndarray     # (S, L) y of the all-ones weights
    xi: np.ndarray         # (K,) private interference at the chosen instant
    p_dc: float
    p_dp: float
    eta_ap: float
    eta_ue: float
    sigma2: float
    instant: int

    def __post_init__(self):
        for arr in (self.c, self.ratio, self.y_ones, self.xi):
            arr.setflags(write=False)

    @property
    def K(self) -> int:
        return self.c.shape[0]

    def weights(self, y: np.ndarray) -> np.ndarray:
        """(K, L) weights of y, split equally within each co-pilot set:
        a[i,l] = y[P,l] / y_ones[P,l] for every member i of P.

        Any split with the same per-set sums has the same SINRs and per-AP
        power, so the weights are not unique; this one is canonical.  The
        division rounds: at an AP where ``closed_form.common_power`` of the
        split exceeds the budget 1, the AP's weights are scaled down until
        it does not, so the weights meet the per-AP power constraint
        exactly.  For y in the ball ||y[:, l]|| <= 1 this only undoes the
        rounding.
        """
        a = (y / self.y_ones)[self.terms.pilots.set_of]
        power = common_power(self.terms, a)
        while np.any(power > 1.0):
            over = power > 1.0
            # strictly below the exact ratio, so each pass lowers the power
            a[:, over] *= np.nextafter(1.0 / np.sqrt(power[over]), 0.0)
            power = common_power(self.terms, a)
        return a

    def sinr(self, y: np.ndarray) -> np.ndarray:
        """(K,) common-stream SINRs at the problem's instant for variables y.

        The SINR is (e_k.y / norm_k)^2 in the cone terms' units.
        """
        ey, norm = _cone_terms(self, y, values_only=True)
        return ey**2 / norm**2

    def power_norms(self, y: np.ndarray) -> np.ndarray:
        """(L,) values of ||y[:, l]||, the square roots of
        ``closed_form.common_power`` of the weights."""
        return np.sqrt(np.sum(y * y, axis=0))


def build_maxmin_problem(
    terms: TraceTerms,
    phases: PhaseStatistics,
    config: SystemConfig,
    rho: float,
    n: int | None = None,
) -> MaxMinProblem:
    """Assemble the per-set constants and the scalars at instant n.

    The sets are the rows of ``terms.pilots``' set order.  The private
    interference xi is that of ``closed_form.plan_parts`` for
    ``MAXMIN_SCHEME`` with the per-AP private normalization.
    Default instant: ``config.mid_instant``.
    """
    if not 0 < rho <= 1:
        raise ValueError(f"rho must lie in (0, 1] for a common stream, got {rho}")
    if n is None:
        n = config.mid_instant
    ea, eu = decay_pair(phases, config, n)

    c = terms.x * np.sqrt(terms.s2)[terms.pilots.set_of]
    plan = make_plan(terms, *MAXMIN_SCHEME, unit_eta=True)

    return MaxMinProblem(
        terms=terms, c=c, ratio=terms.s3 / terms.s2, y_ones=terms.pilots.set_sums(c),
        xi=plan_parts(terms, plan, phases, config, n).xi[0],
        p_dc=rho * config.p_d, p_dp=(1.0 - rho) * config.p_d,
        eta_ap=float(ea[0]), eta_ue=float(eu[0]),
        sigma2=config.sigma2_dl, instant=int(n),
    )


# ---------------------------------------------------------------------------
# feasibility oracle and bisection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeasibilityVerdict:
    """Outcome of one feasibility test at target t.

    ``point`` is the certified (S, L) variable array y (None when
    infeasible), mapped to weights by ``MaxMinProblem.weights``;
    ``max_violation`` is ``_verify_point`` at that point, or at the last
    iterate when infeasible; ``iterations`` counts Newton steps; ``slack``
    is the point's slack min_k(e_k.y - sqrt(t)*norm_k) when feasible, and
    the dual bound on the max-slack optimum when infeasible.
    """

    feasible: bool
    point: np.ndarray | None
    max_violation: float
    iterations: int
    slack: float


def _cone_terms(problem: MaxMinProblem, y: np.ndarray, values_only: bool = False):
    """Row-normalized SINR cones at y, elementwise.

    Cone k reads sqrt(t) * norm_k(y) <= e_k.y, with e_k = r_k*sig*c[k] on
    row P_k and zero elsewhere, so that e_k.y = r_k*sig*g_k, and
    norm_k = sqrt(r_k^2 * q_k(y) + 1), where r_k = 1/sqrt(p_dp*xi_k + sigma2)
    and q_k = (1-ea)*p_dc*h_k + p_dc*m_k + ea*(1-eu)*p_dc*g_k^2 the
    quadratic interference.  Returns (e, e.y, norm, grad), with e and grad
    (K, S, L) and grad[k] the gradient of norm_k in y, or only (e.y, norm).
    """
    sig = math.sqrt(problem.p_dc * problem.eta_ap * problem.eta_ue)
    c_h2 = problem.p_dc * (1.0 - problem.eta_ap)
    c_b2 = problem.p_dc * problem.eta_ap * (1.0 - problem.eta_ue)
    row = 1.0 / np.sqrt(problem.p_dp * problem.xi + problem.sigma2)
    of = problem.terms.pilots.set_of
    own = (np.arange(problem.K), of)
    c, beta = problem.c, problem.terms.beta
    cy = c * y[of]  # (K, L)
    g = cy.sum(axis=1)
    ry = problem.ratio * y
    m = np.einsum("kl,l->k", beta, (ry * y).sum(axis=0))
    q = c_h2 * (cy * cy).sum(axis=1) + problem.p_dc * m + c_b2 * g * g
    norm = np.sqrt(row**2 * q + 1.0)
    if values_only:
        return row * sig * g, norm
    # half the gradient of q: M_k y on every row, H_k y and the g_k^2 part on P_k's
    half = problem.p_dc * beta[:, None, :] * ry
    half[own] += (c_h2 * cy + c_b2 * g[:, None]) * c
    e = np.zeros_like(half)
    e[own] = (row * sig)[:, None] * c
    return e, row * sig * g, norm, (row**2 / norm)[:, None, None] * half


def _verify_point(problem: MaxMinProblem, y: np.ndarray, t: float) -> float:
    """Largest violation of the original cone program at (y, t).

    Sign and power violations are absolute; SINR-cone violations are in
    the row-normalized units of ``_cone_terms``, so the value does not
    depend on the scale of the channel statistics.
    """
    ey, norm = _cone_terms(problem, y, values_only=True)
    viol = float(np.max(-y, initial=0.0))
    viol = max(viol, float(np.max(problem.power_norms(y) - 1.0)))
    return max(viol, float(np.max(math.sqrt(t) * norm - ey)))


def _barrier(problem: MaxMinProblem, y: np.ndarray, s: float, sqrt_t: float,
             tau: float) -> float:
    """-tau*s - sum_k log u_k - sum_l log(1 - ||y[:, l]||^2) - sum log y,
    u_k = e_k.y - sqrt(t)*norm_k - s; inf outside its domain."""
    ey, norm = _cone_terms(problem, y, values_only=True)
    margins = np.concatenate([ey - sqrt_t * norm - s, 1.0 - np.sum(y * y, axis=0),
                              y.ravel()])
    return -tau * s - float(np.sum(np.log(margins))) if np.min(margins) > 0.0 else math.inf


def _solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with a x = b for a symmetric positive definite a, by Gaussian
    elimination without pivoting, written elementwise so that x does not
    depend on the BLAS kernel."""
    n = len(b)
    m = np.concatenate([a, b[:, None]], axis=1)
    for j in range(n):
        m[j, j:] /= m[j, j]
        m[j + 1:, j + 1:] -= np.einsum("i,j->ij", m[j + 1:, j], m[j, j + 1:])
    x = m[:, n]
    for j in range(n - 1, 0, -1):
        x[:j] -= m[:j, j] * x[j]
    return x


def check_feasibility(problem: MaxMinProblem, t: float) -> FeasibilityVerdict:
    """Decide whether min-UE common SINR >= t is achievable.

    Solved as max-slack: maximize s so that every cone margin
    u_k = e_k.y - sqrt(t)*norm_k - s of ``_cone_terms`` is non-negative,
    under y >= 0 and per-AP power <= 1, by a log-barrier method (Boyd &
    Vandenberghe, *Convex Optimization*, 2004, ch. 11) over (y, s).  An
    iterate that passes ``_verify_point`` with min SINR >= t is feasible.
    The target is infeasible once a dual bound on the optimum falls below
    TOL_FEAS: for lam >= 0 summing to 1 and any y^, with
    r = sum_k lam_k (e_k - sqrt(t)*grad_k(y^)), the optimum is at most

        sum_k lam_k (e_k.y^ - sqrt(t)*norm_k(y^)) - r.y^
        + sum_l ||max(r[:, l], 0)||,

    as each norm_k is convex and the last sum is the largest r.y over the
    feasible y.  A Newton step dz = (dy, ds) gives y^ = y + dy and lam_k
    proportional to max((1 - grad u_k.dz / u_k) / u_k, 0).  Raises
    SolverIndeterminate when neither verdict comes within MAX_NEWTON_STEPS.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    sqrt_t, (S, L), K = math.sqrt(t), problem.y_ones.shape, problem.K
    n, row2 = S * L, 1.0 / (problem.p_dp * problem.xi + problem.sigma2)
    flat = np.arange(n).reshape(S, L).T  # (L, S) indices of each AP's y[:, l]
    # interior start: half the scaled all-ones weights, slack one below theirs
    y = 0.5 * scaled_simple_weights(problem)
    ey, norm = _cone_terms(problem, y, values_only=True)
    s, tau = float(np.min(ey - sqrt_t * norm)) - 1.0, 1.0
    for steps in range(1, MAX_NEWTON_STEPS + 1):
        e, ey, norm, grad = _cone_terms(problem, y)
        u, power = ey - sqrt_t * norm - s, 1.0 - np.sum(y * y, axis=0)
        du = np.append((e - sqrt_t * grad).reshape(K, n), -np.ones((K, 1)), axis=1)
        gradient = np.append(2.0 * y / power - 1.0 / y, -tau) - np.einsum("k,ka->a", 1 / u, du)
        # Hessian: -log u_k's rank-1 term, norm_k's Hessian as two rank-1
        # terms and a diagonal, and the sign and power barriers
        curv = sqrt_t / (norm * u)
        vecs = np.concatenate([du, np.pad(np.concatenate([e, grad]).reshape(2 * K, n),
                                          ((0, 0), (0, 1)))])
        w = np.concatenate([u**-2, curv * (1.0 - problem.eta_ue) / problem.eta_ue, -curv])
        hess = np.einsum("ja,jb->ab", w[:, None] * vecs, vecs)
        curv *= row2
        diag = (problem.p_dc * problem.ratio * np.einsum("k,kl->l", curv, problem.terms.beta)
                + problem.p_dc * (1.0 - problem.eta_ap)
                * problem.terms.pilots.set_sums(curv[:, None] * problem.c**2)
                + y**-2 + 2.0 / power)
        hess[np.arange(n), np.arange(n)] += diag.ravel()
        hess[flat[:, :, None], flat[:, None, :]] += (
            (4.0 / power**2)[:, None, None] * y.T[:, :, None] * y.T[:, None, :])
        step = _solve_spd(hess, -gradient)
        dy, ds = step[:n].reshape(S, L), step[n]
        lam = np.maximum((1.0 - np.einsum("ka,a->k", du, step) / u) / u, 0.0)
        lam /= np.sum(lam)
        _, ey, norm, grad = _cone_terms(problem, y + dy)
        r = np.einsum("k,ksl->sl", lam, e - sqrt_t * grad)
        bound = float(np.sum(lam * (ey - sqrt_t * norm)) - np.sum(r * (y + dy))
                      + np.sum(np.sqrt(np.sum(np.maximum(r, 0.0)**2, axis=0))))
        if bound < TOL_FEAS:
            return FeasibilityVerdict(False, None, _verify_point(problem, y, t), steps, bound)
        # backtracking line search on the barrier's value alone
        value, slope = _barrier(problem, y, s, sqrt_t, tau), float(np.sum(gradient * step))
        alpha = 1.0
        while (_barrier(problem, y + alpha * dy, s + alpha * ds, sqrt_t, tau)
               > value + 0.25 * alpha * slope):
            alpha *= 0.5
            if alpha < 1e-20:
                raise SolverIndeterminate(f"line search stalled at t={t} after {steps} steps")
        y, s = y + alpha * dy, s + alpha * ds
        violation = _verify_point(problem, y, t)
        if violation <= TOL_FEAS and float(np.min(problem.sinr(y))) >= t:
            ey, norm = _cone_terms(problem, y, values_only=True)
            return FeasibilityVerdict(True, y, violation, steps, float(np.min(ey - sqrt_t * norm)))
        if -slope <= CENTRED:  # centred: raise the barrier weight
            tau *= MU
    raise SolverIndeterminate(f"barrier method did not settle t={t} in {MAX_NEWTON_STEPS} "
                              f"Newton steps (barrier weight {tau:.3g}, slack {s:.3e})")


@dataclass(frozen=True)
class RobustPrecodingResult:
    weights: np.ndarray        # (K, L) combining weights, unit-eta semantics
    achieved_t: float
    bracket: tuple[float, float]
    iterations: int
    trace: tuple[dict, ...] = field(default=())


def scaled_simple_weights(problem: MaxMinProblem) -> np.ndarray:
    """The y of the all-ones weights rescaled per AP to the power boundary.

    Equivalent to running the all-ones weights through the statistical
    common normalization.
    """
    return problem.y_ones / np.maximum(problem.power_norms(problem.y_ones), 1e-300)


def robust_common_precoding(
    problem: MaxMinProblem,
    eps: float = 1e-4,
) -> RobustPrecodingResult:
    """Bisection on the max-min common SINR target.

    The bracket starts at t_min = 0 (always feasible via y = 0), raised to
    the min SINR of the scaled all-ones weights (``scaled_simple_weights``)
    as a warm start, and t_max doubled from max(1, 2 t_min) until
    infeasible.  Returns the weights (``MaxMinProblem.weights``) of the
    last feasible point; plugging them into the coherent common SINR with
    unit eta achieves min-UE SINR within the final bracket at the
    problem's instant.  Each step is also logged at INFO level as one JSON
    line.
    """
    if not eps > 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    trace: list[dict] = []
    total_iters = 0

    def record(event, **kw):
        entry = {"event": event, **kw}
        trace.append(entry)
        log.info(json.dumps(entry))

    t_min, best_point = 0.0, np.zeros(problem.y_ones.shape)
    start = scaled_simple_weights(problem)
    cand = float(np.min(problem.sinr(start)))
    if cand > t_min and _verify_point(problem, start, cand) <= TOL_FEAS:
        t_min, best_point = cand, start
        record("warm_start", t_min=t_min)

    t_max = max(1.0, 2.0 * t_min)
    while True:
        verdict = check_feasibility(problem, t_max)
        total_iters += verdict.iterations
        record("bracket", t_max=t_max, feasible=verdict.feasible)
        if not verdict.feasible:
            break
        t_min, best_point = t_max, verdict.point
        t_max *= 2.0
        if t_max > 1e12:
            raise SolverIndeterminate("failed to bracket an infeasible target")

    while t_max - t_min > eps:
        t = 0.5 * (t_max + t_min)
        try:
            verdict = check_feasibility(problem, t)
        except SolverIndeterminate as exc:
            raise SolverIndeterminate(
                f"{exc} (bisection bracket was [{t_min}, {t_max}])"
            ) from exc
        total_iters += verdict.iterations
        record(
            "bisect", t=t, feasible=verdict.feasible,
            violation=verdict.max_violation, bracket=[t_min, t_max],
        )
        if verdict.feasible:
            t_min, best_point = t, verdict.point
        else:
            t_max = t

    return RobustPrecodingResult(
        weights=problem.weights(best_point),
        achieved_t=float(t_min),
        bracket=(float(t_min), float(t_max)),
        iterations=total_iters,
        trace=tuple(trace),
    )
