"""Network geometry, large-scale fading, and oscillator phase statistics.

A deployment consists of L multi-antenna access points (APs) and K
single-antenna user equipments (UEs) dropped uniformly in a square.  Each
AP-UE link carries

* a large-scale gain ``beta[k, l]`` from a three-slope path-loss profile,
* the spatial correlation R[k, l] = beta[k, l] * T, with one N x N template
  T (tr T = N) shared by every link, so all of them have T's eigenvectors;
  the model keeps beta, T and T's eigenvalues ``lam`` and never forms R,
* a unit-modulus delay phase ``theta[k, l]`` from the propagation-time
  offset relative to the UE's earliest-arriving AP,

and every AP/UE oscillator drifts as a discrete-time Wiener process whose
per-instant increment variance is 4*pi^2*f_c^2*c*T_s.  The Monte Carlo
oracle draws the increments itself; this module gives their statistics and
``phase_decay``, the power decay exp(-gap*var) their drift causes over a gap
of instants, which is the one place the estimation statistics and the
closed form get every drift decay from.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s

CORRELATION_MODELS = ("uncorrelated", "exponential")


def dbm_to_watt(dbm: float) -> float:
    """Power in watts of ``dbm`` dBm."""
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
    p_pilot: float | tuple[float, ...] = dbm_to_watt(20.0)
    p_d: float = dbm_to_watt(23.0)
    sigma2_ul: float = dbm_to_watt(-96.0)
    sigma2_dl: float = dbm_to_watt(-96.0)
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
        for f in fields(self):
            value = getattr(self, f.name)
            if any(isinstance(v, (bool, np.bool_))
                   for v in (value if isinstance(value, tuple) else (value,))):
                raise ValueError(f"{f.name} must be a number, not a bool: got {value!r}")
        for name in ("L", "K", "N", "tau_p", "tau_c", "seed"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
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
        if not self.seed >= 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("pl_fixed_db", "corr_r"):
            if not abs(getattr(self, name)) < np.inf:
                raise ValueError(f"{name} must be finite")
        if not 0 < self.pl_break1_m <= self.pl_break2_m < np.inf:
            raise ValueError("need 0 < pl_break1_m <= pl_break2_m < inf")
        if not 0 <= self.shadow_std_db < np.inf:
            raise ValueError("shadow_std_db must be finite and >= 0")
        if self.correlation not in CORRELATION_MODELS:
            raise ValueError(f"correlation must be one of {CORRELATION_MODELS}")
        if self.correlation == "exponential" and not abs(self.corr_r) < 1:
            raise ValueError("exponential correlation needs |corr_r| < 1")

    @property
    def estimation_instant(self) -> int:
        """Instant at which channels are estimated: first data instant."""
        return self.tau_p + 1

    @property
    def mid_instant(self) -> int:
        """Mid-block data instant ceil((lambda + tau_c) / 2)."""
        return (self.estimation_instant + self.tau_c + 1) // 2

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
      ap_positions (L, 2), ue_positions (K, 2), beta (K, L) finite and > 0,
      template T (N, N) Hermitian PSD with tr T = N, so that
      R[k, l] = beta[k, l] * T has tr(R[k, l])/N == beta[k, l],
      theta (K, L) unit-modulus delay phases with theta == 1 at each UE's
      earliest-arriving AP.
    lam (N,) holds T's eigenvalues, derived once from T.  Every R, and so
    every estimation statistic, is diagonal in T's eigenbasis, where the
    statistics are computed from beta and lam alone.  Invalid fields raise
    ValueError naming the field.
    """

    ap_positions: np.ndarray
    ue_positions: np.ndarray
    beta: np.ndarray
    template: np.ndarray
    theta: np.ndarray
    lam: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        K, L = self.ue_positions.shape[0], self.ap_positions.shape[0]
        for name in ("beta", "theta"):
            if getattr(self, name).shape != (K, L):
                raise ValueError(f"{name} has shape {getattr(self, name).shape}, "
                                 f"but the positions need {(K, L)}")
        # written as "not inside" so that nan fails the check
        if not np.all((self.beta > 0) & (self.beta < np.inf)):
            raise ValueError("beta must be finite and > 0")
        T = self.template
        N = T.shape[0] if T.ndim == 2 else 0
        if N < 1 or T.shape != (N, N) or not np.all(np.isfinite(T)):
            raise ValueError(f"template must be a finite square matrix, got shape {T.shape}")
        if not np.max(np.abs(T - np.conj(T.T))) <= 1e-12 * N:
            raise ValueError("template must be Hermitian")
        if not abs(np.trace(T) - N) <= 1e-10 * N:
            raise ValueError(f"template must have trace N = {N}")
        lam = np.linalg.eigvalsh(T)
        if not lam[0] >= -1e-12 * N:
            raise ValueError("template must be positive semidefinite")
        # rounding may leave a null direction's eigenvalue slightly negative
        object.__setattr__(self, "lam", np.maximum(lam, 0.0))
        for arr in (self.ap_positions, self.ue_positions, self.beta, self.template,
                    self.theta, self.lam):
            arr.setflags(write=False)

    @property
    def L(self) -> int:
        return self.ap_positions.shape[0]

    @property
    def K(self) -> int:
        return self.ue_positions.shape[0]

    @property
    def N(self) -> int:
        return self.lam.shape[0]


def phase_increment_variance(f_c: float, c_osc: float, T_s: float) -> float:
    """Variance (rad^2) of one Wiener phase increment: 4*pi^2*f_c^2*c*T_s."""
    if f_c <= 0 or T_s <= 0:
        raise ValueError("f_c and T_s must be > 0")
    if c_osc < 0:
        raise ValueError("c_osc must be >= 0")
    return 4.0 * np.pi**2 * f_c**2 * c_osc * T_s


def phase_decay(gap: float | np.ndarray, var: float | np.ndarray) -> float | np.ndarray:
    """Power decay exp(-gap*var) of an oscillator drift over ``gap`` instants.

    The sum of ``gap`` i.i.d. zero-mean Gaussian increments of variance
    ``var`` rotates a phase by e^{i phi} with mean exp(-gap*var/2), so its
    power |E e^{i phi}|^2 is exp(-gap*var).  This is the only decay formula
    of the package: the estimation statistics' pilot-to-lambda decay at
    var_ap + var_ue, and the closed form's per-side decays ea and eu from
    lambda to each data instant at var_ap and var_ue.  An array of
    variances broadcasts against the gaps.
    """
    gap = np.asarray(gap, dtype=float)
    if np.any(gap < 0):
        raise ValueError("gap must be >= 0")
    if np.any(np.asarray(var) < 0):
        raise ValueError("var must be >= 0")
    out = np.exp(-gap * var)
    return float(out) if out.ndim == 0 else out


def three_slope_gain_db(
    dist_m: np.ndarray, fixed_loss_db: float, break1_m: float, break2_m: float
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
    """Draw a topology and derive beta, the correlation template and the
    delay phases from it.

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
    dist = np.maximum(np.sqrt(np.sum(diff * diff, axis=2)), config.min_dist_m)  # (K, L)

    gain_db = three_slope_gain_db(
        dist, config.pl_fixed_db, config.pl_break1_m, config.pl_break2_m
    )
    if config.shadow_std_db > 0:
        gain_db = gain_db + config.shadow_std_db * rng.normal(size=dist.shape)
    beta = 10.0 ** (gain_db / 10.0)

    return NetworkModel(
        ap_positions=ap_pos, ue_positions=ue_pos, beta=beta,
        template=_correlation_template(config), theta=delay_phases(dist, config.T_s),
    )
