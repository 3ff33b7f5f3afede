"""Asynchronous cell-free massive MIMO downlink with rate-splitting.

Simulation and optimization toolkit for a distributed multi-antenna
downlink impaired by propagation-delay phases and Wiener oscillator
drift: channel/phase models, MMSE and LS estimation statistics,
hardening-bound SINR/SE expressions for private and common streams, a
Monte Carlo oracle validating them, and two optimizers (power-split
binary search and max-min robust common precoding).
"""

from .closed_form import (
    PlanParts,
    PrecodingPlan,
    SEReport,
    TraceTerms,
    assemble,
    common_normalization,
    common_sinr,
    evaluate_plan,
    make_plan,
    plan_parts,
    power_control_coefficients,
    private_normalization,
    private_sinr,
    se_from_sinr,
    sum_se,
    sum_se_curve,
)
from .estimation import (
    EstimationStatistics,
    PilotAssignment,
    assign_pilots,
    estimation_statistics,
    mmse_estimate_realization,
)
from .model import (
    NetworkModel,
    PhaseStatistics,
    SystemConfig,
    build_network,
    expected_phase_decay,
    phase_increment_variance,
)
from .montecarlo import (
    MCSinr,
    RealizationBatch,
    UatFTerms,
    dummse_precoder,
    mc_sinr,
    sample_batch,
    transmit_power_stats,
)
from .optimize import (
    FeasibilityVerdict,
    MaxMinProblem,
    RobustPrecodingResult,
    build_maxmin_problem,
    check_feasibility,
    optimal_rho,
    robust_common_precoding,
)

__version__ = "0.1.0"
