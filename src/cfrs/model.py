"""Network geometry, large-scale fading, and oscillator phase statistics.

A deployment consists of L multi-antenna access points (APs) and K
single-antenna user equipments (UEs) dropped uniformly in a square.  Each
AP-UE link carries

* a large-scale gain ``beta[k, l]`` from a three-slope path-loss profile,
* an N x N spatial correlation matrix ``R[k, l]`` with tr(R)/N = beta,
* a unit-modulus delay phase ``theta[k, l]`` from the propagation-time
  offset relative to the UE's earliest-arriving AP,

and every AP/UE oscillator drifts as a discrete-time Wiener process whose
per-instant increment variance is 4*pi^2*f_c^2*c*T_s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s

CORRELATION_MODELS = ("uncorrelated", "exponential")


def _dbm_to_watt(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) / 1000.0


@dataclass(frozen=True)
class SystemConfig:
    """All scalar system parameters (counts, powers, durations, oscillators).

    Powers are in watts, durations in seconds, frequencies in Hz.  Defaults
    follow the usual dense small-area benchmark: 40 APs with 2 antennas and
    8 UEs in a 100 m square, 200-instant coherence blocks with 4 pilots,
    20 dBm pilots, 23 dBm downlink power per AP, -96 dBm noise, 10 us
    symbols at 2 GHz carrier, oscillator constants 1e-18.
    """

    L: int = 40
    K: int = 8
    N: int = 2
    tau_p: int = 4
    tau_c: int = 200
    p_pilot: float | tuple[float, ...] = _dbm_to_watt(20.0)
    p_d: float = _dbm_to_watt(23.0)
    sigma2_ul: float = _dbm_to_watt(-96.0)
    sigma2_dl: float = _dbm_to_watt(-96.0)
    T_s: float = 10e-6
    f_c: float = 2e9
    c_ap: float = 1e-18
    c_ue: float = 1e-18
    area_side: float = 100.0
    correlation: str = "uncorrelated"
    corr_r: float = 0.0
    seed: int = 0
    # three-slope path loss: fixed loss at 1 km and the two breakpoints
    pl_fixed_db: float = 140.7
    pl_break1_m: float = 10.0
    pl_break2_m: float = 50.0
    min_dist_m: float = 1.0
    # log-normal shadow fading hook, disabled by default
    shadow_std_db: float = 0.0

    def __post_init__(self):
        if self.L < 1 or self.K < 1 or self.N < 1:
            raise ValueError("L, K, N must all be >= 1")
        if not (1 <= self.tau_p < self.tau_c):
            raise ValueError("need 1 <= tau_p < tau_c")
        # written as "not inside" so that nan fails every check
        for name in ("p_d", "sigma2_ul", "sigma2_dl", "T_s", "f_c", "area_side",
                     "min_dist_m"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and > 0")
        for name in ("c_ap", "c_ue"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        p_pilot = self.pilot_powers()
        if not np.all((p_pilot > 0) & (p_pilot < np.inf)):
            raise ValueError("p_pilot must be finite and > 0")
        if self.correlation not in CORRELATION_MODELS:
            raise ValueError(f"correlation must be one of {CORRELATION_MODELS}")
        if self.correlation == "exponential" and not abs(self.corr_r) < 1:
            raise ValueError("exponential correlation needs |corr_r| < 1")

    @property
    def estimation_instant(self) -> int:
        """Instant at which channels are estimated: first data instant."""
        return self.tau_p + 1

    def data_instants(self) -> np.ndarray:
        """All downlink data instants of the block, tau_p+1 .. tau_c."""
        return np.arange(self.tau_p + 1, self.tau_c + 1)

    def pilot_powers(self) -> np.ndarray:
        """Per-UE pilot powers as a length-K array."""
        if np.isscalar(self.p_pilot):
            return np.full(self.K, float(self.p_pilot))
        p = np.asarray(self.p_pilot, dtype=float)
        if p.shape != (self.K,):
            raise ValueError("p_pilot sequence must have length K")
        return p


@dataclass(frozen=True)
class PhaseStatistics:
    """Wiener phase-increment variances (rad^2 per instant) for APs and UEs."""

    var_ap: float
    var_ue: float

    def __post_init__(self):
        # written as "not inside" so that nan fails the check
        if not (0 <= self.var_ap < np.inf and 0 <= self.var_ue < np.inf):
            raise ValueError("phase increment variances must be finite and >= 0")

    @classmethod
    def from_config(cls, config: SystemConfig) -> "PhaseStatistics":
        return cls(
            var_ap=phase_increment_variance(config.f_c, config.c_ap, config.T_s),
            var_ue=phase_increment_variance(config.f_c, config.c_ue, config.T_s),
        )

    @property
    def var_sum(self) -> float:
        return self.var_ap + self.var_ue


@dataclass(frozen=True)
class NetworkModel:
    """Immutable geometry + large-scale statistics of one topology draw.

    Arrays are all keyed (k, l) = (UE, AP):
      ap_positions (L, 2), ue_positions (K, 2), beta (K, L),
      R (K, L, N, N) Hermitian PSD with tr(R[k,l])/N == beta[k,l],
      theta (K, L) unit-modulus delay phases with theta == 1 at each UE's
      earliest-arriving AP.
    """

    ap_positions: np.ndarray
    ue_positions: np.ndarray
    beta: np.ndarray
    R: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        for arr in (self.ap_positions, self.ue_positions, self.beta, self.R, self.theta):
            arr.setflags(write=False)

    @property
    def L(self) -> int:
        return self.ap_positions.shape[0]

    @property
    def K(self) -> int:
        return self.ue_positions.shape[0]

    @property
    def N(self) -> int:
        return self.R.shape[-1]


def phase_increment_variance(f_c: float, c_osc: float, T_s: float) -> float:
    """Variance (rad^2) of one Wiener phase increment: 4*pi^2*f_c^2*c*T_s."""
    if f_c <= 0 or T_s <= 0:
        raise ValueError("f_c and T_s must be > 0")
    if c_osc < 0:
        raise ValueError("c_osc must be >= 0")
    return 4.0 * np.pi**2 * f_c**2 * c_osc * T_s


def expected_phase_decay(gap: float | np.ndarray, var_sum: float) -> float | np.ndarray:
    """Mean of the accumulated phase rotation over ``gap`` instants.

    The sum of ``gap`` i.i.d. zero-mean Gaussian increments with total
    per-step variance ``var_sum`` has characteristic function
    exp(-gap*var_sum/2), which is the expectation of the unit-modulus
    rotation.  With var_sum = 2*sigma_ap^2 this also yields the per-side
    decay factors exp(-(n-lambda)*sigma_ap^2) used in the SINR expressions.
    """
    gap = np.asarray(gap, dtype=float)
    if np.any(gap < 0):
        raise ValueError("gap must be >= 0")
    if var_sum < 0:
        raise ValueError("var_sum must be >= 0")
    out = np.exp(-0.5 * gap * var_sum)
    return float(out) if out.ndim == 0 else out


def sample_phase_trajectories(
    var: float, length: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """(count, length) Wiener phase paths; entry [.., n] is the phase at
    instant n+1 relative to a zero initial phase."""
    if length < 1:
        raise ValueError("length must be >= 1")
    if var < 0:
        raise ValueError("var must be >= 0")
    if var == 0:
        return np.zeros((count, length))
    increments = rng.normal(0.0, np.sqrt(var), size=(count, length))
    return np.cumsum(increments, axis=1)


def sample_phase_trajectory(var: float, length: int, seed: int) -> np.ndarray:
    """One Wiener oscillator-phase trajectory of the given length."""
    rng = np.random.default_rng(seed)
    return sample_phase_trajectories(var, length, 1, rng)[0]


def three_slope_gain_db(
    dist_m: np.ndarray,
    fixed_loss_db: float = 140.7,
    break1_m: float = 10.0,
    break2_m: float = 50.0,
) -> np.ndarray:
    """Large-scale gain in dB for the three-slope profile.

    Beyond break2 the slope is 35 dB/decade, between the breakpoints
    20 dB/decade, and below break1 the gain is constant; ``fixed_loss_db``
    anchors the far-field slope at 1 km.
    """
    d_km = np.asarray(dist_m, dtype=float) / 1000.0
    b1 = break1_m / 1000.0
    b2 = break2_m / 1000.0
    far = -fixed_loss_db - 35.0 * np.log10(d_km)
    mid = -fixed_loss_db - 15.0 * np.log10(b2) - 20.0 * np.log10(d_km)
    near = -fixed_loss_db - 15.0 * np.log10(b2) - 20.0 * np.log10(b1)
    return np.where(d_km > b2, far, np.where(d_km > b1, mid, near))


def _correlation_template(config: SystemConfig) -> np.ndarray:
    """Unit-trace-per-antenna N x N correlation shape shared by all links."""
    N = config.N
    if config.correlation == "uncorrelated":
        return np.eye(N, dtype=complex)
    idx = np.arange(N)
    return (config.corr_r ** np.abs(np.subtract.outer(idx, idx))).astype(complex)


def delay_phases(dist_m: np.ndarray, T_s: float) -> np.ndarray:
    """(K, L) unit-modulus phases from per-link propagation distances.

    Timing offsets are measured against each UE's earliest-arriving AP
    (whose offset is exactly zero, giving theta == 1 there); the phase
    angle -2*pi*dt/T_s is reduced modulo one turn before exponentiation.
    """
    dist_m = np.asarray(dist_m, dtype=float)
    delta_t = (dist_m - dist_m.min(axis=1, keepdims=True)) / SPEED_OF_LIGHT
    frac = np.mod(delta_t / T_s, 1.0)
    theta = np.exp(-2j * np.pi * frac)
    theta[frac == 0.0] = 1.0 + 0.0j
    return theta


def build_network(config: SystemConfig) -> NetworkModel:
    """Draw a topology and derive beta, R, and delay phases from it.

    Positions are uniform in the square, distances floored at
    ``min_dist_m`` to avoid path-loss singularities, and the delay phase of
    AP l toward UE k is exp(-j*2*pi*dt/T_s) with dt measured against the
    earliest-arriving AP of that UE (its own offset is exactly zero).
    Deterministic for a fixed config.seed.
    """
    rng = np.random.default_rng(config.seed)
    ap_pos = rng.uniform(0.0, config.area_side, size=(config.L, 2))
    ue_pos = rng.uniform(0.0, config.area_side, size=(config.K, 2))

    diff = ue_pos[:, None, :] - ap_pos[None, :, :]
    dist = np.maximum(np.linalg.norm(diff, axis=2), config.min_dist_m)  # (K, L)

    gain_db = three_slope_gain_db(
        dist, config.pl_fixed_db, config.pl_break1_m, config.pl_break2_m
    )
    if config.shadow_std_db > 0:
        gain_db = gain_db + config.shadow_std_db * rng.normal(size=dist.shape)
    beta = 10.0 ** (gain_db / 10.0)

    template = _correlation_template(config)
    R = beta[:, :, None, None] * template[None, None, :, :]
    theta = delay_phases(dist, config.T_s)

    return NetworkModel(
        ap_positions=ap_pos, ue_positions=ue_pos, beta=beta, R=R, theta=theta
    )
