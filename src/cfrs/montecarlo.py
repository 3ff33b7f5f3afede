"""Monte Carlo oracle for the closed-form SINR expressions.

Draws i.i.d. realizations of channels, Wiener oscillator trajectories, and
pilot noise; runs the actual estimator on each pilot observation; forms
per-realization precoders (including the MMSE-style private precoder that
has no closed form); and empirically estimates the hardening-bound terms

    DS[k,l]  = E{ g[k,l,n]^H sqrt(mu) v[k,l] }          (desired signal)
    INT[k,i] = E{ |sum_l g^H sqrt(mu) v[i,l]|^2 }       (coherent)
             = sum_l E{ |g^H sqrt(mu) v[i,l]|^2 }       (non-coherent)

plus the analogous common-stream terms, from which the use-and-then-forget
SINRs are assembled.  Data symbols are never sampled: with unit-power,
independent symbols the bound's expectations are over channels, phases,
and noise only, which removes a variance source.

Reproducibility: realizations are generated in fixed-size chunks, chunk i
seeded by SeedSequence(seed, spawn_key=(i,)) feeding a counter-based
Philox generator, so a batch is bitwise reproducible and independent of
how chunks might be scheduled.  Standard errors come from a delete-one
block jackknife over contiguous realization blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_form import PrecodingPlan
from .estimation import (
    EstimationStatistics,
    PilotAssignment,
    mmse_filter_matrices,
)
from .model import NetworkModel, PhaseStatistics, SystemConfig

RNG_CHUNK = 4096  # realizations per RNG stream; fixed for reproducibility
_Z95 = 1.959963984540054
MIN_REALIZATIONS = 100  # fewest realizations for meaningful standard errors


@dataclass(frozen=True)
class RealizationBatch:
    """One reproducible batch of channel/phase/pilot-noise realizations.

    h (count, K, L, N): base channels at the estimation instant.
    hhat (count, K, L, N): MMSE estimates from the simulated pilots.
    ue_phase (count, K, M) / ap_phase (count, L, M): oscillator phases at
        the instants listed in ``instants`` (pilot instants, the estimation
        instant, and every requested evaluation instant).
    pilot_rx (count, G, L, N): received pilot signal per co-pilot group.
    """

    count: int
    seed: int
    instants: tuple[int, ...]
    group_instants: tuple[int, ...]
    h: np.ndarray
    hhat: np.ndarray
    ue_phase: np.ndarray
    ap_phase: np.ndarray
    pilot_rx: np.ndarray

    def __post_init__(self):
        for arr in (self.h, self.hhat, self.ue_phase, self.ap_phase, self.pilot_rx):
            arr.setflags(write=False)

    def instant_index(self, n: int) -> int:
        try:
            return self.instants.index(n)
        except ValueError:
            raise ValueError(f"instant {n} was not sampled in this batch") from None

    def rotation(self, n: int) -> np.ndarray:
        """(count, K, L) oscillator rotation exp(j(phi_ue + phi_ap)) at n."""
        m = self.instant_index(n)
        return np.exp(1j * (self.ue_phase[:, :, None, m] + self.ap_phase[:, None, :, m]))


def _chol_factors(net: NetworkModel) -> np.ndarray:
    """(K, L, N, N) Cholesky factors of the correlation matrices."""
    try:
        return np.linalg.cholesky(net.R)
    except np.linalg.LinAlgError:
        # PSD repair for rank-deficient correlation inputs
        vals, vecs = np.linalg.eigh(net.R)
        vals = np.clip(vals, 0.0, None)
        return vecs * np.sqrt(vals)[..., None, :] @ np.conj(np.swapaxes(vecs, -1, -2))


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / np.sqrt(2.0)


def sample_batch(
    net: NetworkModel,
    pilots: PilotAssignment,
    phases: PhaseStatistics,
    config: SystemConfig,
    count: int,
    seed: int,
    instants=(),
) -> RealizationBatch:
    """Draw ``count`` realizations with phases sampled at the instants needed.

    ``instants`` lists the data instants at which SINRs will later be
    evaluated; the estimation instant and all occupied pilot instants are
    always included.  Identical (seed, inputs) give identical batches.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    K, L, N = net.K, net.L, net.N
    lam = config.estimation_instant
    group_instants = tuple(int(pilots.t[g[0]]) for g in pilots.groups)
    needed = sorted(set(group_instants) | {lam} | {int(n) for n in np.atleast_1d(instants)})
    gaps = np.diff([0] + needed)
    M = len(needed)
    G = len(pilots.groups)

    chol = _chol_factors(net)
    filters = mmse_filter_matrices(net, pilots, phases, config)
    p = config.pilot_powers()
    group_of = {k: g for g, grp in enumerate(pilots.groups) for k in grp}

    h = np.empty((count, K, L, N), dtype=complex)
    hhat = np.empty((count, K, L, N), dtype=complex)
    ue_phase = np.empty((count, K, M))
    ap_phase = np.empty((count, L, M))
    pilot_rx = np.empty((count, G, L, N), dtype=complex)

    for chunk, start in enumerate(range(0, count, RNG_CHUNK)):
        stop = min(start + RNG_CHUNK, count)
        c = stop - start
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(seed, spawn_key=(chunk,)))
        )
        u = _complex_normal(rng, (c, K, L, N))
        h_c = np.einsum("klnm,rklm->rkln", chol, u)
        ue_inc = rng.standard_normal((c, K, M)) * np.sqrt(phases.var_ue * gaps)
        ap_inc = rng.standard_normal((c, L, M)) * np.sqrt(phases.var_ap * gaps)
        ue_c = np.cumsum(ue_inc, axis=2)
        ap_c = np.cumsum(ap_inc, axis=2)
        noise = _complex_normal(rng, (c, G, L, N)) * np.sqrt(config.sigma2_ul)

        z_c = noise  # accumulate the group transmissions on top of the noise
        for g, (group, t_g) in enumerate(zip(pilots.groups, group_instants)):
            m = needed.index(t_g)
            for i in group:
                rot = np.exp(1j * (ue_c[:, i, m, None] + ap_c[:, :, m]))
                z_c[:, g] += (
                    np.sqrt(p[i]) * net.theta[i][None, :, None]
                    * rot[:, :, None] * h_c[:, i]
                )

        for k in range(K):
            hhat[start:stop, k] = np.conj(net.theta[k])[None, :, None] * np.einsum(
                "lnm,rlm->rln", filters[k], z_c[:, group_of[k]]
            )

        h[start:stop] = h_c
        ue_phase[start:stop] = ue_c
        ap_phase[start:stop] = ap_c
        pilot_rx[start:stop] = z_c

    return RealizationBatch(
        count=count,
        seed=seed,
        instants=tuple(needed),
        group_instants=group_instants,
        h=h,
        hhat=hhat,
        ue_phase=ue_phase,
        ap_phase=ap_phase,
        pilot_rx=pilot_rx,
    )


# ---------------------------------------------------------------------------
# precoders
# ---------------------------------------------------------------------------

def dummse_precoder(
    batch: RealizationBatch,
    net: NetworkModel,
    stats: EstimationStatistics,
    config: SystemConfig,
    p_dp: float | None = None,
) -> np.ndarray:
    """(count, K, L, N) per-realization MMSE-style private precoders.

    v[k,l] = theta[k,l] * p * (sum_i p (hhat_i hhat_i^H + C_i) + sigma2 I)^-1 hhat_k
    with C_i the estimation-error covariance; regularized by the noise
    power, so the inverse always exists.
    """
    if p_dp is None:
        p_dp = config.p_d
    N = net.N
    err_cov = (net.R - stats.Q).sum(axis=0)  # (L, N, N)
    base = p_dp * err_cov + config.sigma2_ul * np.eye(N)[None]
    outer = np.einsum("rkln,rklm->rlnm", batch.hhat, np.conj(batch.hhat))
    A = p_dp * outer + base[None]
    rhs = np.swapaxes(batch.hhat, 1, 2).transpose(0, 1, 3, 2)  # (count, L, N, K)
    sol = np.linalg.solve(A, rhs)  # (count, L, N, K)
    v = sol.transpose(0, 3, 1, 2) * p_dp
    return v * net.theta[None, :, :, None]


def private_precoders(
    batch: RealizationBatch,
    net: NetworkModel,
    scheme: str,
    stats: EstimationStatistics | None = None,
    config: SystemConfig | None = None,
    p_dp: float | None = None,
) -> np.ndarray:
    """Per-realization private precoders for one scheme tag."""
    if scheme == "du_mr":
        return batch.hhat * net.theta[None, :, :, None]
    if scheme == "df_mr":
        return batch.hhat
    if scheme == "du_mmse":
        if stats is None or config is None:
            raise ValueError("du_mmse precoding needs stats and config")
        return dummse_precoder(batch, net, stats, config, p_dp)
    raise ValueError(f"unknown private precoding scheme {scheme!r}")


def empirical_normalizations(
    v: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Batch estimates of (mu (K,L) uniform, eta (L,)) for arbitrary precoders.

    Matches the statistical normalizations exactly in expectation; used for
    precoders without closed-form second-order statistics.
    """
    norms = np.mean(np.sum(np.abs(v) ** 2, axis=3), axis=0)  # (K, L)
    mu_l = 1.0 / norms.sum(axis=0)
    v_c = np.einsum("il,riln->rln", weights, v)
    eta = 1.0 / np.mean(np.sum(np.abs(v_c) ** 2, axis=2), axis=0)
    return np.broadcast_to(mu_l, norms.shape).copy(), eta


# ---------------------------------------------------------------------------
# term accumulation
# ---------------------------------------------------------------------------

@dataclass
class _BlockSums:
    counts: np.ndarray       # (B,)
    ds_p: np.ndarray         # (B, M, K, L) complex
    int_p: np.ndarray        # (B, M, K, K) coherent or per-AP-summed
    ds_c: np.ndarray         # (B, M, K, L) complex
    int_c: np.ndarray        # (B, M, K)
    power: np.ndarray        # (B, L)
    instants: tuple[int, ...]
    coherent: bool


def _block_slices(count: int, inner: int) -> list[slice]:
    n_blocks = max(2, math.ceil(count / inner))
    edges = np.linspace(0, count, n_blocks + 1).astype(int)
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:]) if b > a]


def _accumulate(
    batch: RealizationBatch,
    v: np.ndarray,
    plan: PrecodingPlan,
    net: NetworkModel,
    config: SystemConfig,
    eval_instants,
) -> _BlockSums:
    K, L = net.K, net.L
    eval_instants = [int(n) for n in np.atleast_1d(eval_instants)]
    lam = config.estimation_instant
    for n in eval_instants:
        if not lam <= n <= config.tau_c:
            raise ValueError(f"instants must lie in [{lam}, {config.tau_c}]")
    M = len(eval_instants)
    coherent = plan.transmission == "coherent"
    sq_mu = np.sqrt(plan.mu)
    sq_eta = np.sqrt(plan.eta)
    p_dc = plan.rho * config.p_d
    p_dp = (1.0 - plan.rho) * config.p_d

    inner = max(64, min(2**22 // max(K * K * L, 1), math.ceil(batch.count / 10)))
    slices = _block_slices(batch.count, inner)
    B = len(slices)

    sums = _BlockSums(
        counts=np.array([s.stop - s.start for s in slices]),
        ds_p=np.zeros((B, M, K, L), dtype=complex),
        int_p=np.zeros((B, M, K, K)),
        ds_c=np.zeros((B, M, K, L), dtype=complex),
        int_c=np.zeros((B, M, K)),
        power=np.zeros((B, L)),
        instants=tuple(eval_instants),
        coherent=coherent,
    )

    rotations = {n: batch.rotation(n) for n in eval_instants}
    for b, sl in enumerate(slices):
        vb = v[sl]
        for m, n in enumerate(eval_instants):
            g = net.theta[None, :, :, None] * rotations[n][sl][..., None] * batch.h[sl]
            d = np.einsum("rkln,riln->rkil", np.conj(g), vb)
            diag = np.einsum("rkkl->rkl", d)
            sums.ds_p[b, m] = np.sum(sq_mu[None] * diag, axis=0)
            if coherent:
                c = np.einsum("il,rkil->rki", sq_mu, d)
                sums.int_p[b, m] = np.sum(np.abs(c) ** 2, axis=0)
            else:
                sums.int_p[b, m] = np.einsum(
                    "il,rkil->ki", plan.mu, np.abs(d) ** 2
                )
            if plan.rho > 0:
                e = np.einsum("il,rkil->rkl", plan.weights, d)
                sums.ds_c[b, m] = np.sum(sq_eta[None, None, :] * e, axis=0)
                if coherent:
                    ec = e @ sq_eta
                    sums.int_c[b, m] = np.sum(np.abs(ec) ** 2, axis=0)
                else:
                    sums.int_c[b, m] = np.einsum(
                        "l,rkl->k", plan.eta, np.abs(e) ** 2
                    )
        vb_norm = np.sum(np.abs(vb) ** 2, axis=3)  # (r, K, L)
        pw = p_dp * np.einsum("il,ril->rl", plan.mu, vb_norm)
        if plan.rho > 0:
            v_c = np.einsum("il,riln->rln", plan.weights, vb)
            pw = pw + p_dc * plan.eta[None, :] * np.sum(np.abs(v_c) ** 2, axis=2)
        sums.power[b] = pw.sum(axis=0)
    return sums


def _assemble_sinr(sums: _BlockSums, plan, config, m: int, drop: int | None = None):
    """SINR vector from total (or leave-one-block-out) term sums."""
    keep = np.ones(len(sums.counts), dtype=bool)
    if drop is not None:
        keep[drop] = False
    n_eff = sums.counts[keep].sum()
    ds_p = sums.ds_p[keep, m].sum(axis=0) / n_eff
    int_p = sums.int_p[keep, m].sum(axis=0) / n_eff
    p_dc = plan.rho * config.p_d
    p_dp = (1.0 - plan.rho) * config.p_d

    if sums.coherent:
        num_p = p_dp * np.abs(ds_p.sum(axis=1)) ** 2
    else:
        num_p = p_dp * np.sum(np.abs(ds_p) ** 2, axis=1)
    den_p = p_dp * int_p.sum(axis=1) - num_p + config.sigma2_dl
    sinr_p = num_p / den_p

    if plan.rho > 0:
        ds_c = sums.ds_c[keep, m].sum(axis=0) / n_eff
        int_c = sums.int_c[keep, m].sum(axis=0) / n_eff
        if sums.coherent:
            num_c = p_dc * np.abs(ds_c.sum(axis=1)) ** 2
        else:
            num_c = p_dc * np.sum(np.abs(ds_c) ** 2, axis=1)
        den_c = p_dc * int_c - num_c + p_dp * int_p.sum(axis=1) + config.sigma2_dl
        sinr_c = num_c / den_c
    else:
        sinr_c = np.zeros_like(sinr_p)
    return sinr_p, sinr_c


def _mean_and_stderr(block_sums: np.ndarray, counts: np.ndarray):
    """Mean of a per-realization term from its per-block sums, and the
    delete-one-block jackknife standard error of that mean.

    ``block_sums`` is (B, ...) with block b summing ``counts[b]`` realizations.
    """
    B = len(counts)
    count = counts.sum()
    counts = counts.reshape((B,) + (1,) * (block_sums.ndim - 1))
    total_sum = block_sums.sum(axis=0)
    loo = (total_sum[None] - block_sums) / (count - counts)
    dev = loo - loo.mean(axis=0)
    return total_sum / count, np.sqrt((B - 1) / B * np.sum(np.abs(dev) ** 2, axis=0))


def _jackknife(sums: _BlockSums, plan, config, m: int):
    """Jackknife bias correction and standard error for the SINR ratios.

    The plain ratio-of-means SINR carries an O(1/count) bias; the delete-one
    estimate removes the leading term, and the same leave-one-out spread
    yields the standard error.
    """
    full_p, full_c = _assemble_sinr(sums, plan, config, m)
    B = len(sums.counts)
    loo_p = np.empty((B,) + full_p.shape)
    loo_c = np.empty((B,) + full_c.shape)
    for b in range(B):
        loo_p[b], loo_c[b] = _assemble_sinr(sums, plan, config, m, drop=b)
    factor = (B - 1) / B
    se_p = np.sqrt(factor * np.sum((loo_p - loo_p.mean(axis=0)) ** 2, axis=0))
    se_c = np.sqrt(factor * np.sum((loo_c - loo_c.mean(axis=0)) ** 2, axis=0))
    est_p = B * full_p - (B - 1) * loo_p.mean(axis=0)
    est_c = B * full_c - (B - 1) * loo_c.mean(axis=0)
    # the corrected estimate must stay in the physical range
    est_p = np.maximum(est_p, 0.0)
    est_c = np.maximum(est_c, 0.0)
    return est_p, se_p, est_c, se_c


@dataclass(frozen=True)
class UatFTerms:
    """Empirical hardening-bound terms at one instant, with standard errors."""

    instant: int
    ds: np.ndarray
    ds_stderr: np.ndarray
    int_: np.ndarray
    int_stderr: np.ndarray
    ds_common: np.ndarray
    ds_common_stderr: np.ndarray
    int_common: np.ndarray
    int_common_stderr: np.ndarray
    coherent: bool
    count: int

    def to_csv_rows(self) -> list[dict]:
        rows = []
        K, L = self.ds.shape

        def emit(term, values, stderr):
            for k in range(K):
                idx = values.shape[1] if values.ndim > 1 else 1
                for j in range(idx):
                    v = values[k, j] if values.ndim > 1 else values[k]
                    s = stderr[k, j] if values.ndim > 1 else stderr[k]
                    rows.append(
                        {
                            "term": term,
                            "k": k,
                            "l_or_i": j if values.ndim > 1 else "",
                            "estimate": complex(v).real,
                            "estimate_imag": complex(v).imag,
                            "stderr": float(s),
                        }
                    )

        emit("ds_private", self.ds, self.ds_stderr)
        emit("int_private", self.int_, self.int_stderr)
        if np.any(self.ds_common != 0):
            emit("ds_common", self.ds_common, self.ds_common_stderr)
            emit("int_common", self.int_common, self.int_common_stderr)
        return rows


def estimate_uatf_terms(
    batch: RealizationBatch,
    plan: PrecodingPlan,
    net: NetworkModel,
    config: SystemConfig,
    n: int,
    stats: EstimationStatistics | None = None,
) -> UatFTerms:
    """Empirical DS/INT terms (and common-stream analogs) at instant n."""
    if batch.count < MIN_REALIZATIONS:
        raise ValueError(
            f"need at least {MIN_REALIZATIONS} realizations for meaningful errors")
    v = private_precoders(batch, net, plan.private_scheme, stats, config,
                          (1.0 - plan.rho) * config.p_d)
    sums = _accumulate(batch, v, plan, net, config, [n])
    ds, ds_se = _mean_and_stderr(sums.ds_p[:, 0], sums.counts)
    int_, int_se = _mean_and_stderr(sums.int_p[:, 0], sums.counts)
    ds_c, ds_c_se = _mean_and_stderr(sums.ds_c[:, 0], sums.counts)
    int_c, int_c_se = _mean_and_stderr(sums.int_c[:, 0], sums.counts)
    return UatFTerms(
        instant=n,
        ds=ds,
        ds_stderr=ds_se,
        int_=int_,
        int_stderr=int_se,
        ds_common=ds_c,
        ds_common_stderr=ds_c_se,
        int_common=int_c,
        int_common_stderr=int_c_se,
        coherent=sums.coherent,
        count=batch.count,
    )


@dataclass(frozen=True)
class MCSinr:
    """Monte Carlo SINR estimates with jackknife standard errors and 95% CIs."""

    instant: int
    private: np.ndarray
    private_stderr: np.ndarray
    common: np.ndarray
    common_stderr: np.ndarray
    count: int

    @property
    def private_ci(self) -> np.ndarray:
        return np.stack(
            [self.private - _Z95 * self.private_stderr,
             self.private + _Z95 * self.private_stderr], axis=1
        )

    @property
    def common_ci(self) -> np.ndarray:
        return np.stack(
            [self.common - _Z95 * self.common_stderr,
             self.common + _Z95 * self.common_stderr], axis=1
        )


def mc_sinr(
    batch: RealizationBatch,
    plan: PrecodingPlan,
    net: NetworkModel,
    config: SystemConfig,
    n,
    stats: EstimationStatistics | None = None,
) -> MCSinr | list[MCSinr]:
    """Use-and-then-forget SINRs at instant(s) n from one batch.

    Coherent plans use the joint-transmission assembly; non-coherent plans
    sum per-AP desired/interference contributions, matching successive
    per-AP decoding in AP-index order (the rate is order-invariant).
    """
    if batch.count < MIN_REALIZATIONS:
        raise ValueError(
            f"need at least {MIN_REALIZATIONS} realizations for meaningful errors")
    scalar = np.isscalar(n)
    instants = [int(x) for x in np.atleast_1d(n)]
    v = private_precoders(batch, net, plan.private_scheme, stats, config,
                          (1.0 - plan.rho) * config.p_d)
    sums = _accumulate(batch, v, plan, net, config, instants)
    out = []
    for m, inst in enumerate(instants):
        sinr_p, se_p, sinr_c, se_c = _jackknife(sums, plan, config, m)
        out.append(
            MCSinr(
                instant=inst,
                private=sinr_p,
                private_stderr=se_p,
                common=sinr_c,
                common_stderr=se_c,
                count=batch.count,
            )
        )
    return out[0] if scalar else out


def transmit_power_stats(
    batch: RealizationBatch,
    plan: PrecodingPlan,
    net: NetworkModel,
    config: SystemConfig,
    stats: EstimationStatistics | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-AP mean transmit power and its standard error over the batch."""
    v = private_precoders(batch, net, plan.private_scheme, stats, config,
                          (1.0 - plan.rho) * config.p_d)
    sums = _accumulate(batch, v, plan, net, config, [config.estimation_instant])
    return _mean_and_stderr(sums.power, sums.counts)
