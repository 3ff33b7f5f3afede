"""Power-split search and max-min robust precoding of the common stream.

Two optimizers operate on the closed-form expressions:

* ``optimal_rho`` — derivative-sign binary search over the common/private
  power split rho in [0, 1], probing a small forward difference at each
  midpoint.  Globally optimal for unimodal sum SE, best-seen otherwise,
  and never worse than the better endpoint.

* ``robust_common_precoding`` — maximizes the minimum per-UE common-stream
  SINR at one instant over non-negative combining weights a[k,l], subject
  to per-AP power E{||v_c,l||^2} <= 1 (the common normalization is
  absorbed, so the returned weights are used with unit eta).  The problem
  is quasi-concave; a bisection over the target t, warm-started at the
  min SINR of the all-ones weights scaled to the power budget, solves a
  second-order cone feasibility program per step.  Feasibility is decided
  through a max-slack reformulation: the slack optimum is the largest
  margin by which the row-normalized SINR cones can be met.  A Kelley
  cutting-plane loop (Kelley, "The cutting-plane method for solving convex
  programs", 1960) solves it as a sequence of LPs (scipy's HiGHS) over a
  polyhedral outer approximation of the cones, so a negative LP optimum
  certifies infeasibility, while a feasible verdict needs a point meeting
  every original constraint, min SINR >= t included.  Cuts are kept across the
  bisection's targets.  The program's SINR is written once, in the cone
  terms (``_cone_terms``), which both the cuts and the min SINR >= t check
  read; its decay factors come from ``closed_form.decay_pair`` and its
  private interference from ``closed_form.plan_parts``.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .closed_form import TraceTerms, decay_pair, make_plan, plan_parts
from .model import PhaseStatistics, SystemConfig

log = logging.getLogger(__name__)


# feasibility tolerance: largest accepted constraint violation of a feasible
# point, and the LP optimum below which a target counts as infeasible
TOL_FEAS = 1e-8


class SolverIndeterminate(RuntimeError):
    """The feasibility subproblem did not converge to a usable verdict."""


# ---------------------------------------------------------------------------
# power-splitting factor (binary search on the derivative sign)
# ---------------------------------------------------------------------------

def optimal_rho(evaluator, tol: float = 1e-3):
    """Search [0, 1] for the power split maximizing ``evaluator(rho)``.

    At each midpoint the sign of a forward difference with step tol/100
    decides which half to keep; the best value ever evaluated is tracked
    and returned.
    """
    if not tol > 0:
        raise ValueError("tol must be > 0")
    delta = tol / 100.0

    rho_min, rho_max = 0.0, 1.0
    candidates = [(evaluator(0.0), 0.0), (evaluator(1.0), 1.0)]
    best_sse, best_rho = max(candidates, key=lambda t: t[0])
    while rho_max - rho_min > tol:
        rho_next = 0.5 * (rho_max + rho_min)
        sse_next = evaluator(rho_next)
        sse_probe = evaluator(rho_next + delta)
        if sse_probe > sse_next:
            rho_min = rho_next
        else:
            rho_max = rho_next
        if sse_next > best_sse:
            best_sse, best_rho = sse_next, rho_next
    return best_rho, best_sse


# ---------------------------------------------------------------------------
# max-min problem assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaxMinProblem:
    """Data of the max-min common-SINR program at one instant.

    The stacked weight vector a lives in R^{KL} ordered AP-major
    (index l*K + i).  For each UE k, the SINR at target decay factors
    (ea, eu) reads

        p_dc*ea*eu*(a.b_k)^2 /
        (p_dc*(1-ea)*a'H_k a + p_dc*a'M_k a + p_dc*ea*(1-eu)*(a.b_k)^2
         + p_dp*xi_k + sigma2)

    subject to ||Theta_l^{1/2} a_l|| <= 1 per AP and a >= 0.  H_k and M_k
    are block-diagonal per AP and are never formed (``products`` applies
    them): the AP-l block of H_k is outer(tau, tau) with tau the AP-l slice
    of b_k, and entry (i, j) of the AP-l block of M_k is
    Re tr(Q_cross[i,j,l] R[k,l]), nonzero only for co-pilot i and j, so it
    is read from the per-group blocks ``tr_QcR`` (in ``groups`` order).
    """

    b: np.ndarray          # (K, KL) real
    groups: tuple[np.ndarray, ...]
    tr_QcR: tuple[np.ndarray, ...]  # (g, g, K, L) real per co-pilot set
    Theta: np.ndarray      # (L, K, K)
    xi: np.ndarray         # (K,) private interference at the chosen instant
    p_dc: float
    p_dp: float
    eta_ap: float
    eta_ue: float
    sigma2: float
    instant: int

    def __post_init__(self):
        for arr in (self.b, *self.groups, *self.tr_QcR, self.Theta, self.xi):
            arr.setflags(write=False)

    @property
    def K(self) -> int:
        return self.b.shape[0]

    @property
    def L(self) -> int:
        return self.Theta.shape[0]

    def weights_matrix(self, a: np.ndarray) -> np.ndarray:
        """Reshape a stacked KL vector back to (K, L) weights."""
        return a.reshape(self.L, self.K).T

    def stack_weights(self, w: np.ndarray) -> np.ndarray:
        return w.T.reshape(-1)

    def products(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(H_k a, M_k a) for every UE k, each (K, KL), from the blocks."""
        K, L = self.K, self.L
        b = self.b.reshape(K, L, K)
        w = a.reshape(L, K)
        h = b * np.einsum("kli,li->kl", b, w)[:, :, None]
        m = np.zeros((K, L, K))
        for g, block in zip(self.groups, self.tr_QcR):
            m[:, :, g] = np.einsum("ijkl,lj->kli", block, w[:, g])
        return h.reshape(K, K * L), m.reshape(K, K * L)

    def sinr(self, a: np.ndarray) -> np.ndarray:
        """(K,) common-stream SINRs at the problem's instant for weights a.

        The SINR is (e_k.a / norm_k)^2 in the cone terms' units.
        """
        e, norm, _ = _cone_terms(self, a)
        return (e @ a) ** 2 / norm**2

    def power_norms(self, a: np.ndarray) -> np.ndarray:
        """(L,) values of ||Theta_l^{1/2} a_l||."""
        w = a.reshape(self.L, self.K)
        return np.sqrt(
            np.maximum(np.einsum("lk,lki,li->l", w, self.Theta, w).real, 0.0)
        )


def build_maxmin_problem(
    terms: TraceTerms,
    phases: PhaseStatistics,
    config: SystemConfig,
    rho: float,
    n: int | None = None,
) -> MaxMinProblem:
    """Assemble b_k, the M_k blocks, Theta_l and the constants at instant n.

    Zero entries follow the pilot structure exactly: b_k (and so H_k)
    vanishes off UE k's co-pilot set, and M_k is stored only inside the
    co-pilot sets.  The private interference constant uses
    delay-compensated MR precoding with the per-AP normalization.
    Default instant: mid-block.
    """
    if not 0 < rho <= 1:
        raise ValueError(f"rho must lie in (0, 1] for a common stream, got {rho}")
    K, L = terms.K, terms.L
    if n is None:
        n = math.ceil((config.estimation_instant + config.tau_c) / 2)
    ea, eu = decay_pair(phases, config, n)

    tr_Qc = terms.tr_Qc.real  # real for the supported correlation models
    imag_leak = np.max(np.abs(terms.tr_Qc.imag)) if terms.tr_Qc.size else 0.0
    if imag_leak > 1e-9 * max(np.max(np.abs(tr_Qc)), 1e-300):
        raise ValueError("estimate cross-traces are not real; unsupported correlation")

    # b_k stacked AP-major: entry l*K + i = tr(Qc[k,i,l]) on k's pilot group
    b = np.transpose(tr_Qc, (0, 2, 1)).reshape(K, K * L)
    Theta = np.transpose(tr_Qc, (2, 0, 1)).copy()  # (L, K, K)

    plan = make_plan(terms, "du_mr", "coherent")
    xi = plan_parts(terms, plan, phases, config, n).xi[0]

    return MaxMinProblem(
        b=b,
        groups=terms.groups,
        tr_QcR=tuple(block.real.copy() for block in terms.tr_QcR),
        Theta=Theta,
        xi=xi,
        p_dc=rho * config.p_d,
        p_dp=(1.0 - rho) * config.p_d,
        eta_ap=float(ea[0]),
        eta_ue=float(eu[0]),
        sigma2=config.sigma2_dl,
        instant=int(n),
    )


# ---------------------------------------------------------------------------
# feasibility oracle and bisection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeasibilityVerdict:
    """Outcome of one feasibility test at target t.

    ``point`` is the certified weight vector (None when infeasible);
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


def _cone_terms(problem: MaxMinProblem, a: np.ndarray):
    """Row-normalized SINR cones at a.

    Cone k reads sqrt(t) * norm_k(a) <= e_k.a, with e_k = r_k*sig*b_k and
    norm_k = r_k*||u_k(a)|| = sqrt(r_k^2 * q_k(a) + 1), where
    r_k = 1/sqrt(p_dp*xi_k + sigma2) and q_k the quadratic interference.
    Returns (e, norm, grad) with grad[k] the gradient of norm_k in a;
    only H_k a, M_k a and b_k.a are formed.
    """
    sig = math.sqrt(problem.p_dc * problem.eta_ap * problem.eta_ue)
    c_h2 = problem.p_dc * (1.0 - problem.eta_ap)
    c_b2 = problem.p_dc * problem.eta_ap * (1.0 - problem.eta_ue)
    row = 1.0 / np.sqrt(problem.p_dp * problem.xi + problem.sigma2)
    ab = problem.b @ a
    h, m = problem.products(a)
    half_grad = c_h2 * h + problem.p_dc * m + c_b2 * ab[:, None] * problem.b
    norm = np.sqrt(row**2 * np.maximum(half_grad @ a, 0.0) + 1.0)
    grad = (row**2 / norm)[:, None] * half_grad
    return (row * sig)[:, None] * problem.b, norm, grad


def _verify_point(problem: MaxMinProblem, a: np.ndarray, t: float) -> float:
    """Largest violation of the original cone program at (a, t).

    Sign and power violations are absolute; SINR-cone violations are in
    the row-normalized units of ``_cone_terms``, so the value does not
    depend on the scale of the channel statistics.
    """
    e, norm, _ = _cone_terms(problem, a)
    viol = float(np.max(-a, initial=0.0))
    viol = max(viol, float(np.max(problem.power_norms(a) - 1.0)))
    return max(viol, float(np.max(math.sqrt(t) * norm - e @ a)))


class _OuterApproximation:
    """Polyhedral outer approximation of the max-slack program (Kelley).

    LP variables are (x, s) with x = scale*a, scale = sqrt(max diag Theta),
    which brings the power constraint to O(1).  With ``_cone_terms``'s e_k
    and norm_k, a cone cut (k, w, c) reads s + sqrt(t)*(c + w.x) <= e_k.a:
    c + w.x is a tangent of the convex norm_k, so the cut holds at every t
    and the cuts are reused across targets.  A power cut reads g.x_l <= 1.
    The seed cut (w, c) = (0, 1) per UE uses norm_k >= 1.
    """

    MAX_ROUNDS = 400

    def __init__(self, problem: MaxMinProblem):
        self.problem = problem
        K, L = problem.K, problem.L
        diag = np.einsum("lkk->lk", problem.Theta).real
        self.scale = math.sqrt(max(float(np.max(diag)), 1e-300))
        # exact coordinate caps: entrywise-nonnegative Theta and a >= 0 imply
        # a_il^2 Theta[ii] <= a' Theta a <= 1; they keep the LP bounded
        self.caps = self.scale / np.sqrt(diag.reshape(-1))
        e, _, _ = _cone_terms(problem, np.zeros(K * L))
        self.e = e / self.scale
        self.cone_k = list(range(K))
        self.cone_w = [np.zeros(K * L) for _ in range(K)]
        self.cone_c = [1.0] * K
        self.power_rows: list[np.ndarray] = []

    def _refine(self, a: np.ndarray, s: float, sqrt_t: float) -> None:
        """Add tangent cuts at a for every cone the LP point (a, s) violates."""
        problem, K = self.problem, self.problem.K
        e, norm, grad = _cone_terms(problem, a)
        for k in np.flatnonzero(e @ a - sqrt_t * norm < s):
            self.cone_k.append(int(k))
            self.cone_w.append(grad[k] / self.scale)
            self.cone_c.append(1.0 / norm[k])
        norms = problem.power_norms(a)
        w = a.reshape(problem.L, K)
        for l in np.flatnonzero(norms > 1.0):
            g = np.zeros(K * problem.L)
            g[l * K:(l + 1) * K] = problem.Theta[l].real @ w[l] / (norms[l] * self.scale)
            self.power_rows.append(g)

    def check(self, t: float) -> FeasibilityVerdict:
        from scipy.optimize import linprog

        if t < 0:
            raise ValueError("t must be >= 0")
        problem, dim = self.problem, self.problem.K * self.problem.L
        sqrt_t = math.sqrt(t)
        cost = np.zeros(dim + 1)
        cost[-1] = -1.0
        bounds = [(0.0, cap) for cap in self.caps] + [(None, None)]
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
            a = np.clip(lp.x[:-1], 0.0, None) / self.scale
            point = a.copy()
            norms = problem.power_norms(point)
            over = norms > 1.0
            if np.any(over):  # exact repair of the outer set's power overshoot
                w = point.reshape(problem.L, problem.K)
                w[over] /= norms[over, None]
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
            self._refine(a, slack, sqrt_t)
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
    power repair, has a >= 0, per-AP power <= 1 and min SINR >= t.  An LP
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
    """All-ones weights rescaled per AP to the power boundary (stacked KL).

    Equivalent to running the all-ones weights through the statistical
    common normalization.
    """
    a = np.ones(problem.K * problem.L)
    norms = problem.power_norms(a)
    w = a.reshape(problem.L, problem.K)
    w /= np.maximum(norms, 1e-300)[:, None]
    return w.reshape(-1)


def robust_common_precoding(
    problem: MaxMinProblem,
    eps: float = 1e-4,
) -> RobustPrecodingResult:
    """Bisection on the max-min common SINR target.

    The bracket starts at t_min = 0 (always feasible via a = 0), raised to
    the min SINR of the scaled all-ones weights (``scaled_simple_weights``)
    as a warm start, and t_max doubled from max(1, 2 t_min) until
    infeasible.  Returns the weights from the last feasible target;
    plugging them into the coherent common SINR with unit eta achieves
    min-UE SINR within the final bracket at the problem's instant.  Each
    step is also logged at INFO level as one JSON line.
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

    t_min, best_point = 0.0, np.zeros(problem.K * problem.L)
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
        weights=problem.weights_matrix(best_point),
        achieved_t=float(t_min),
        bracket=(float(t_min), float(t_max)),
        iterations=total_iters,
        trace=tuple(trace),
    )
