"""Power-split search and max-min robust precoding of the common stream.

Two optimizers operate on the closed-form expressions:

* ``optimal_rho`` — derivative-sign binary search over the common/private
  power split rho in [0, 1], probing a small forward difference at each
  midpoint.  Globally optimal for unimodal sum SE, best-seen otherwise,
  and never worse than the better endpoint.  A sweep searches all RS jobs
  of a repetition at once, whatever their schemes, in one lockstep search
  of ``closed_form.sum_se_curve`` over their stacked rho-independent
  coefficients: 22 evaluations at the default tol, each evaluating every
  job's sum SE.

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
  decided through a max-slack reformulation: the slack optimum is the
  largest margin by which the row-normalized SINR cones can be met.  A
  Kelley cutting-plane loop (Kelley, "The cutting-plane method for solving
  convex programs", 1960) solves it as a sequence of LPs (scipy's HiGHS)
  over a polyhedral outer approximation of the cones, so a negative LP
  optimum certifies infeasibility, while a feasible verdict needs a point
  meeting every original constraint, min SINR >= t included.  Cuts are
  kept across the bisection's targets.  The program's SINR is written
  once, in the cone terms (``_cone_terms``), which both the cuts and the
  min SINR >= t check read; its decay factors come from
  ``closed_form.decay_pair`` (so from ``model.phase_decay``) and its
  private interference from ``closed_form.plan_parts``.  No matrix product
  is formed, so the weights do not depend on the BLAS kernel.
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
# point, and the LP optimum below which a target counts as infeasible
TOL_FEAS = 1e-8

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
    and returned.  tol must lie in (0, 1): at tol >= 1 the search would
    evaluate the endpoints only.

    An evaluator of B curves (``closed_form.sum_se_curve`` of B jobs)
    returns their (B,) values at (B,) power splits, or at one float.  The B
    searches then run in lockstep, 22 calls at the default tol, each
    evaluating all B curves, and return (B,) arrays of power splits and
    values, each the one its own search finds: every curve's interval
    halves at every step, so all take the same steps.  The first call is
    at rho = 0.0, and its value, a float or (B,), tells the two apart.  A
    single curve, float-valued or a stack of one, is evaluated at floats,
    and a float-valued one's search returns floats.
    """
    if not 0 < tol < 1:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    delta = tol / 100.0

    at_zero = evaluator(0.0)
    stacked = np.ndim(at_zero) > 0
    best_sse = at_zero.tolist() if stacked else [at_zero]
    B = len(best_sse)

    def values(rho: list[float]) -> list:
        """The B curves' values at their B power splits; one curve is
        evaluated at a float, which keeps numpy on its scalar path."""
        if not stacked:
            return [evaluator(rho[0])]
        return evaluator(rho[0] if B == 1 else np.array(rho)).tolist()

    best_rho = [0.0] * B
    # ties keep rho = 0
    for b, sse in enumerate(values([1.0] * B)):
        if sse > best_sse[b]:
            best_sse[b], best_rho[b] = sse, 1.0
    rho_min, rho_max = [0.0] * B, [1.0] * B
    while rho_max[0] - rho_min[0] > tol:
        rho_next = [0.5 * (hi + lo) for hi, lo in zip(rho_max, rho_min)]
        sse_next = values(rho_next)
        sse_probe = values([rho + delta for rho in rho_next])
        for b in range(B):
            if sse_probe[b] > sse_next[b]:
                rho_min[b] = rho_next[b]
            else:
                rho_max[b] = rho_next[b]
            if sse_next[b] > best_sse[b]:
                best_sse[b], best_rho[b] = sse_next[b], rho_next[b]
    if stacked:
        return np.array(best_rho), np.array(best_sse)
    return best_rho[0], best_sse[0]


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
        _, ey, norm, _ = _cone_terms(self, y)
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
    ``max_violation`` is the point's ``_verify_point`` value when feasible,
    otherwise the certified margin -slack or the best LP point's violation;
    ``iterations`` counts LP solves; ``slack`` is the last LP optimum, the
    bound on the max-slack program in row-normalized units.
    """

    feasible: bool
    point: np.ndarray | None
    max_violation: float
    iterations: int
    slack: float


def _cone_terms(problem: MaxMinProblem, y: np.ndarray):
    """Row-normalized SINR cones at y, elementwise.

    Cone k reads sqrt(t) * norm_k(y) <= e_k.y, with e_k = r_k*sig*c[k] on
    row P_k and zero elsewhere, so that e_k.y = r_k*sig*g_k, and
    norm_k = sqrt(r_k^2 * q_k(y) + 1), where r_k = 1/sqrt(p_dp*xi_k + sigma2)
    and q_k = (1-ea)*p_dc*h_k + p_dc*m_k + ea*(1-eu)*p_dc*g_k^2 the
    quadratic interference.  Returns (e, e.y, norm, grad), with e and grad
    (K, S, L) and grad[k] the gradient of norm_k in y.
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
    _, ey, norm, _ = _cone_terms(problem, y)
    viol = float(np.max(-y, initial=0.0))
    viol = max(viol, float(np.max(problem.power_norms(y) - 1.0)))
    return max(viol, float(np.max(math.sqrt(t) * norm - ey)))


class _OuterApproximation:
    """Polyhedral outer approximation of the max-slack program (Kelley).

    LP variables are (y, s), with y flattened and boxed in [0, 1]: y >= 0
    and ||y[:, l]|| <= 1 imply y <= 1, so the box cuts off no feasible
    point and keeps the LP bounded.  With ``_cone_terms``'s e_k and norm_k,
    a cone cut (k, w, c) reads s + sqrt(t)*(c + w.y) <= e_k.y: c + w.y is a
    tangent of the convex norm_k, so the cut holds at every t and the cuts
    are reused across targets.  A power cut reads g.y[:, l] <= 1 with g the
    unit vector of an LP point's y[:, l] outside the ball.  The seed cut
    (w, c) = (0, 1) per UE uses norm_k >= 1.
    """

    MAX_ROUNDS = 400

    def __init__(self, problem: MaxMinProblem):
        self.problem = problem
        K = problem.K
        e, *_ = _cone_terms(problem, np.zeros(problem.y_ones.shape))
        self.e = e.reshape(K, -1)
        self.cone_k = list(range(K))
        self.cone_w = [np.zeros(self.e.shape[1])] * K
        self.cone_c = [1.0] * K
        self.power_rows: list[np.ndarray] = []

    def _refine(self, y: np.ndarray, s: float, sqrt_t: float) -> None:
        """Add tangent cuts at y for every cone the LP point (y, s) violates."""
        _, ey, norm, grad = _cone_terms(self.problem, y)
        for k in np.flatnonzero(ey - sqrt_t * norm < s):
            self.cone_k.append(int(k))
            self.cone_w.append(grad[k].reshape(-1))
            self.cone_c.append(1.0 / norm[k])
        norms = self.problem.power_norms(y)
        for l in np.flatnonzero(norms > 1.0):
            g = np.zeros_like(y)
            g[:, l] = y[:, l] / norms[l]
            self.power_rows.append(g.reshape(-1))

    def check(self, t: float) -> FeasibilityVerdict:
        from scipy.optimize import linprog

        if t < 0:
            raise ValueError("t must be >= 0")
        problem, shape = self.problem, self.problem.y_ones.shape
        dim = self.e.shape[1]
        sqrt_t = math.sqrt(t)
        cost = np.zeros(dim + 1)
        cost[-1] = -1.0
        bounds = [(0.0, 1.0)] * dim + [(None, None)]
        for rounds in range(1, self.MAX_ROUNDS + 1):
            cone = sqrt_t * np.asarray(self.cone_w) - self.e[self.cone_k]
            a_ub = np.vstack([
                np.column_stack([cone, np.ones(len(self.cone_k))]),
                np.column_stack([np.reshape(self.power_rows, (-1, dim)),
                                 np.zeros(len(self.power_rows))]),
            ])
            b_ub = np.concatenate([
                -sqrt_t * np.asarray(self.cone_c), np.ones(len(self.power_rows))
            ])
            lp = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
            if lp.status != 0:
                raise SolverIndeterminate(
                    f"LP status {lp.status} at t={t} after {rounds} solves: "
                    f"{lp.message}"
                )
            slack = float(lp.x[-1])
            if slack < 0.0:  # the outer set contains the feasible set
                return FeasibilityVerdict(
                    feasible=False, point=None, max_violation=-slack,
                    iterations=rounds, slack=slack,
                )
            y = np.clip(lp.x[:-1], 0.0, None).reshape(shape)
            # exact repair of the outer set's power overshoot
            point = y / np.maximum(problem.power_norms(y), 1.0)
            violation = _verify_point(problem, point, t)
            if violation <= TOL_FEAS and float(np.min(problem.sinr(point))) >= t:
                return FeasibilityVerdict(
                    feasible=True, point=point, max_violation=violation,
                    iterations=rounds, slack=slack,
                )
            if slack < TOL_FEAS:
                return FeasibilityVerdict(
                    feasible=False, point=None, max_violation=violation,
                    iterations=rounds, slack=slack,
                )
            self._refine(y, slack, sqrt_t)
        raise SolverIndeterminate(
            f"cutting planes did not settle t={t} after {rounds} LP solves "
            f"(LP status {lp.status}, slack {slack:.3e}, point violation "
            f"{violation:.3e})"
        )


def check_feasibility(problem: MaxMinProblem, t: float) -> FeasibilityVerdict:
    """Decide whether min-UE common SINR >= t is achievable.

    Solved as max-slack: maximize s so every row-normalized SINR cone holds
    with margin s under the power and sign constraints, by a cutting-plane
    loop of LPs over a polyhedral outer approximation of the cones.  An LP
    optimum s* < 0 certifies infeasibility, because the outer set contains
    the feasible set.  Feasible means an LP point that, after the per-AP
    power repair, has y >= 0, per-AP power <= 1 and min SINR >= t.  An LP
    optimum below TOL_FEAS without such a point counts as infeasible;
    otherwise tangent cuts of the violated cones are added and the LP is
    solved again.  Raises SolverIndeterminate on a non-optimal LP status
    or when the round cap is reached.
    """
    return _OuterApproximation(problem).check(t)


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
    cuts = _OuterApproximation(problem)  # shared by every target below

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
        verdict = cuts.check(t_max)
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
            verdict = cuts.check(t)
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
