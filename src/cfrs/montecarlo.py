"""Monte Carlo oracle for the closed-form SINR expressions.

Draws i.i.d. realizations of channels, Wiener oscillator trajectories, and
pilot noise; runs the actual estimator, built from the caller's estimation
statistics, on each pilot observation, and keeps only what the estimators
read (no pilot signal, no pilot-instant phases); forms the per-realization
MR precoders (DU or DF); and empirically estimates the hardening-bound
terms

    DS[k,l]  = E{ g[k,l,n]^H sqrt(mu) v[k,l] }          (desired signal)
    INT[k,i] = E{ |sum_l g^H sqrt(mu) v[i,l]|^2 }       (coherent)
             = sum_l E{ |g^H sqrt(mu) v[i,l]|^2 }       (non-coherent)

plus the analogous common-stream terms.  The rotated channel g is never
formed: g[k,l]^H v[i,l] factors into a per-UE phase factor, a per-AP phase
factor and an instant-free antenna contraction of theta, h and v, which is
computed once per realization slice (see ``_accumulate``).  The phase factors
have unit modulus, so the non-coherent interference terms do not depend on
the instant at all, and the coherent ones only through a length-L
combination with the per-AP factor.  The use-and-then-forget SINRs are
not re-derived here: the term means fill a ``closed_form.PlanParts`` and
``closed_form.assemble`` forms both streams, so the oracle and the closed
form share one rational SINR form.  Data symbols are never sampled: with
unit-power, independent symbols the bound's expectations are over
channels, phases, and noise only, which removes a variance source.

A batch keeps its realizations on the last axis, the layout the
accumulation contracts, and carries the network and config it was drawn
from, which the estimators read.

Reproducibility: realizations are generated in fixed-size chunks, chunk i
seeded by SeedSequence(seed, spawn_key=(i,)) feeding a counter-based
Philox generator, so a batch is bitwise reproducible and independent of
how chunks might be scheduled.  Standard errors come from a delete-one
block jackknife over ``JACKKNIFE_GROUPS`` contiguous realization blocks (95%
intervals: Student t quantile); one helper gives the delete-one-block
means, so one accumulation yields both the term estimates (``MCSinr.terms``)
and the bias-corrected SINRs with their standard errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closed_form import PlanParts, PrecodingPlan, assemble, check_instants
from .estimation import (
    EstimationStatistics,
    PilotAssignment,
    mmse_filter_matrices,
)
from .model import NetworkModel, PhaseStatistics, SystemConfig

RNG_CHUNK = 4096  # realizations per RNG stream; fixed for reproducibility
MIN_REALIZATIONS = 100  # fewest realizations for meaningful standard errors
JACKKNIFE_GROUPS = 10  # delete-one groups of every jackknife
_T95 = 2.2621571627982  # two-sided 95% t quantile, JACKKNIFE_GROUPS - 1 = 9 dof
_WORK_ELEMENTS = 2**22  # (K, K, L, r) work-array elements per accumulated slice


@dataclass(frozen=True)
class RealizationBatch:
    """One reproducible batch of channel and oscillator-phase realizations,
    with the network and config it was drawn from.

    h (K, L, N, count): base channels at the estimation instant.
    hhat (K, L, N, count): MMSE estimates from the simulated pilots.
    ue_phase (K, M, count) / ap_phase (L, M, count): oscillator phases at
        the instants listed in ``instants``: the estimation instant and every
        requested evaluation instant.  The pilot signal and the phases at the
        pilot instants are drawn (see ``_draw_chunks``) but not kept.
    """

    count: int
    instants: tuple[int, ...]
    h: np.ndarray
    hhat: np.ndarray
    ue_phase: np.ndarray
    ap_phase: np.ndarray
    net: NetworkModel
    config: SystemConfig

    def __post_init__(self):
        for arr in (self.h, self.hhat, self.ue_phase, self.ap_phase):
            arr.setflags(write=False)

    def instant_index(self, n: int) -> int:
        try:
            return self.instants.index(n)
        except ValueError:
            raise ValueError(f"instant {n} is not among the batch's instants") from None


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


def _phase_instants(pilots: PilotAssignment, config: SystemConfig, instants) -> list[int]:
    """The instants a draw samples phases at, sorted: every occupied pilot
    instant, the estimation instant and the requested ``instants``."""
    return sorted(set(pilots.t.tolist()) | {config.estimation_instant}
                  | {int(n) for n in instants})


def _draw_chunks(
    net: NetworkModel,
    pilots: PilotAssignment,
    stats: EstimationStatistics,
    phases: PhaseStatistics,
    config: SystemConfig,
    count: int,
    seed: int,
    instants,
):
    """Draw ``count`` realizations one RNG chunk at a time.

    Yields (h, hhat, ue, ap, z) per chunk of c realizations: channels and
    estimates (c, K, L, N), the UE (c, K, M) and AP (c, L, M) phases at
    ``_phase_instants(pilots, config, instants)``, and the received pilot
    signal z (c, G, L, N) per co-pilot group, which the filters of ``stats``
    turn into hhat.
    """
    K, L, N = net.K, net.L, net.N
    needed = _phase_instants(pilots, config, instants)
    gaps = np.diff([0] + needed)
    M = len(needed)

    chol = _chol_factors(net)
    filters = mmse_filter_matrices(net, pilots, stats, phases, config)
    p = config.pilot_powers()

    for chunk, start in enumerate(range(0, count, RNG_CHUNK)):
        c = min(RNG_CHUNK, count - start)
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(seed, spawn_key=(chunk,)))
        )
        u = _complex_normal(rng, (c, K, L, N))
        h = np.einsum("klnm,rklm->rkln", chol, u)
        ue = np.cumsum(rng.standard_normal((c, K, M)) * np.sqrt(phases.var_ue * gaps), axis=2)
        ap = np.cumsum(rng.standard_normal((c, L, M)) * np.sqrt(phases.var_ap * gaps), axis=2)
        z = _complex_normal(rng, (c, len(pilots.groups), L, N)) * np.sqrt(config.sigma2_ul)

        hhat = np.empty((c, K, L, N), dtype=complex)
        for g, group in enumerate(pilots.groups):
            # the group's transmissions accumulate on top of the noise
            m = needed.index(int(pilots.t[group[0]]))
            for i in group:
                rot = np.exp(1j * (ue[:, i, m, None] + ap[:, :, m]))
                z[:, g] += (
                    np.sqrt(p[i]) * net.theta[i][None, :, None]
                    * rot[:, :, None] * h[:, i]
                )
            for k in group:
                hhat[:, k] = np.conj(net.theta[k])[None, :, None] * np.einsum(
                    "lnm,rlm->rln", filters[k], z[:, g]
                )
        yield h, hhat, ue, ap, z


def sample_batch(
    net: NetworkModel,
    pilots: PilotAssignment,
    stats: EstimationStatistics,
    phases: PhaseStatistics,
    config: SystemConfig,
    count: int,
    seed: int,
    instants=(),
) -> RealizationBatch:
    """Draw ``count`` realizations and keep what the estimators read.

    ``instants`` lists the data instants at which SINRs will later be
    evaluated; the phases there and at the estimation instant are kept.
    The estimates use the filters of ``stats``.  Identical (seed, inputs)
    give identical batches.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    instants = check_instants(config, instants)
    kept = sorted({config.estimation_instant} | {int(n) for n in instants})
    columns = [_phase_instants(pilots, config, instants).index(n) for n in kept]

    h = np.empty((net.K, net.L, net.N, count), dtype=complex)
    hhat = np.empty_like(h)
    ue_phase = np.empty((net.K, len(kept), count))
    ap_phase = np.empty((net.L, len(kept), count))
    chunks = _draw_chunks(net, pilots, stats, phases, config, count, seed, instants)
    for start, (h_c, hhat_c, ue_c, ap_c, _) in zip(range(0, count, RNG_CHUNK), chunks):
        sl = slice(start, start + len(h_c))
        h[..., sl] = np.moveaxis(h_c, 0, -1)
        hhat[..., sl] = np.moveaxis(hhat_c, 0, -1)
        ue_phase[..., sl] = np.moveaxis(ue_c[:, :, columns], 0, -1)
        ap_phase[..., sl] = np.moveaxis(ap_c[:, :, columns], 0, -1)

    return RealizationBatch(count=count, instants=tuple(kept), h=h, hhat=hhat,
                            ue_phase=ue_phase, ap_phase=ap_phase,
                            net=net, config=config)


# ---------------------------------------------------------------------------
# precoders
# ---------------------------------------------------------------------------

def private_precoders(hhat: np.ndarray, net: NetworkModel, scheme: str) -> np.ndarray:
    """(K, L, N, count) MR private precoders of one scheme tag for the estimates
    ``hhat``: DU compensates the delay phase theta, DF forgets it."""
    if scheme == "du_mr":
        return hhat * net.theta[:, :, None, None]
    if scheme == "df_mr":
        return hhat
    raise ValueError(f"unknown private precoding scheme {scheme!r}")


# ---------------------------------------------------------------------------
# term accumulation
# ---------------------------------------------------------------------------

@dataclass
class _BlockSums:
    counts: np.ndarray       # (B,) realizations per jackknife group
    ds_p: np.ndarray         # (B, M, K, L) complex
    int_p: np.ndarray        # (B, M, K, K) coherent or per-AP-summed
    ds_c: np.ndarray         # (B, M, K, L) complex
    int_c: np.ndarray        # (B, M, K)
    coherent: bool


def _batch_blocks(batch: RealizationBatch) -> tuple[np.ndarray, list[tuple[int, slice]]]:
    """Realization counts of the batch's ``JACKKNIFE_GROUPS`` contiguous
    groups, and the (group, slice) pairs that cover them; a slice of at
    least 64 realizations bounds the (K, K, L, r) work arrays to about
    ``_WORK_ELEMENTS`` entries.
    """
    if batch.count < MIN_REALIZATIONS:
        raise ValueError(
            f"need at least {MIN_REALIZATIONS} realizations for meaningful errors")
    K, L = batch.net.K, batch.net.L
    cap = max(64, _WORK_ELEMENTS // (K * K * L))
    edges = np.linspace(0, batch.count, JACKKNIFE_GROUPS + 1).astype(int)
    slices = [(b, slice(s, min(s + cap, end)))
              for b, (start, end) in enumerate(zip(edges[:-1], edges[1:]))
              for s in range(start, end, cap)]
    return np.diff(edges), slices


def _accumulate(batch: RealizationBatch, plan: PrecodingPlan, eval_instants) -> _BlockSums:
    """Per-group sums of every term at the instants; the estimators' entry.

    The effective channel is g[k,l] = theta[k,l] exp(i(ue[k] + ap[l])) h[k,l],
    so each link-precoder product factors as

        conj(g[k,l]) v[i,l] = x[k] y[l] P[k,i,l],
        P[k,i,l] = sum_n conj(theta[k,l] h[k,l,n]) v[i,l,n],

    with the unit-modulus phase factors x = exp(-i ue) (per UE) and
    y = exp(-i ap) (per AP).  P is formed once per slice, together with the
    plan's private precoders, and each instant only brings its own x and y.
    |x| = 1 drops the per-UE factor from every interference term, and the
    non-coherent interference (|P|^2 summed over APs) has no phase at all, so
    it is the same at every instant and is summed once per slice.
    """
    net = batch.net
    counts, slices = _batch_blocks(batch)
    K, L = net.K, net.L
    columns = [batch.instant_index(int(n)) for n in eval_instants]
    M = len(columns)
    coherent = plan.transmission == "coherent"
    sq_mu = np.sqrt(plan.mu)
    sq_eta = np.sqrt(plan.eta)
    B = len(counts)

    sums = _BlockSums(
        counts=counts,
        ds_p=np.zeros((B, M, K, L), dtype=complex),
        int_p=np.zeros((B, M, K, K)),
        ds_c=np.zeros((B, M, K, L), dtype=complex),
        int_c=np.zeros((B, M, K)),
        coherent=coherent,
    )

    conj_theta = np.conj(net.theta)[:, :, None, None]
    for b, sl in slices:
        v = private_precoders(batch.hhat[..., sl], net, plan.private_scheme)
        gh = conj_theta * np.conj(batch.h[..., sl])
        # explicit sum over antennas: a batched matmul of the tiny per-realization
        # matrices is several times slower
        P = sum(gh[:, None, :, n] * v[None, :, :, n] for n in range(net.N))  # (K, K, L, r)
        diag = np.einsum("kklr->klr", P)
        if not coherent:
            sums.int_p[b] += np.einsum("il,kil->ki", plan.mu, np.sum(np.abs(P) ** 2, axis=-1))
        if plan.rho > 0:
            E = np.einsum("il,kilr->klr", plan.weights, P)
            if not coherent:
                sums.int_c[b] += np.einsum("l,klr->k", plan.eta, np.abs(E) ** 2)
        for m, col in enumerate(columns):
            y = np.exp(-1j * batch.ap_phase[:, col, sl])  # (L, r)
            xy = np.exp(-1j * batch.ue_phase[:, col, sl])[:, None] * y
            sums.ds_p[b, m] += sq_mu * np.einsum("klr,klr->kl", xy, diag)
            if coherent:
                c = np.einsum("kilr,ilr->kir", P, sq_mu[:, :, None] * y)
                sums.int_p[b, m] += np.sum(np.abs(c) ** 2, axis=-1)
            if plan.rho > 0:
                sums.ds_c[b, m] += sq_eta * np.einsum("klr,klr->kl", xy, E)
                if coherent:
                    ec = np.einsum("klr,lr->kr", E, sq_eta[:, None] * y)
                    sums.int_c[b, m] += np.sum(np.abs(ec) ** 2, axis=-1)
    return sums


def _sinr(means, coherent: bool, plan, config):
    """(private, common) SINRs from the term means through ``assemble``.

    ``means`` is (ds_p, int_p, ds_c, int_c) at one instant.  The measured
    terms already carry the phase decay, so eaeu is one; the desired-signal
    coefficient is |sum_l ds|^2 (coherent) or sum_l |ds|^2 (non-coherent),
    and the common interference excludes its own desired part.
    """
    ds_p, int_p, ds_c, int_c = means
    if coherent:
        sig_p, sig_c = (np.abs(ds.sum(axis=1)) ** 2 for ds in (ds_p, ds_c))
    else:
        sig_p, sig_c = (np.sum(np.abs(ds) ** 2, axis=1) for ds in (ds_p, ds_c))
    parts = PlanParts(eaeu=np.ones((1, 1)), xi=int_p.sum(axis=1)[None], sig_private=sig_p,
                      sig_common=sig_c, gamma=(int_c - sig_c)[None], p_d=config.p_d,
                      sigma2=config.sigma2_dl, scalar=True)
    return assemble(parts, plan.rho)


def _delete_one_means(block_sums: np.ndarray, counts: np.ndarray):
    """Full mean of a per-realization term from its per-block sums, and the
    B delete-one-block means, (total - block) / (count - counts).

    ``block_sums`` is (B, ...) with block b summing ``counts[b]`` realizations.
    """
    count = counts.sum()
    counts = counts.reshape((-1,) + (1,) * (block_sums.ndim - 1))
    total = block_sums.sum(axis=0)
    return total / count, (total[None] - block_sums) / (count - counts)


def _spread(loo: np.ndarray) -> np.ndarray:
    """Jackknife standard error from the B delete-one estimates."""
    B = len(loo)
    return np.sqrt((B - 1) / B * np.sum(np.abs(loo - loo.mean(axis=0)) ** 2, axis=0))


def _mean_and_stderr(block_sums: np.ndarray, counts: np.ndarray):
    """Mean of a per-realization term and its delete-one-block standard error."""
    mean, loo = _delete_one_means(block_sums, counts)
    return mean, _spread(loo)


def _jackknife(sums: _BlockSums, plan, config, m: int):
    """Jackknife bias correction and standard error for the SINR ratios.

    The plain ratio-of-means SINR carries an O(1/count) bias; the delete-one
    estimate removes the leading term, and the same leave-one-out spread
    yields the standard error.  The same delete-one means give the terms.
    """
    terms = [_delete_one_means(x[:, m], sums.counts)
             for x in (sums.ds_p, sums.int_p, sums.ds_c, sums.int_c)]
    full = _sinr([mean for mean, _ in terms], sums.coherent, plan, config)
    B = len(sums.counts)
    loo = np.array([_sinr([drop[b] for _, drop in terms], sums.coherent, plan, config)
                    for b in range(B)])  # (B, 2, K)
    est = B * np.array(full) - (B - 1) * loo.mean(axis=0)
    # the corrected estimate must stay in the physical range
    est = np.maximum(est, 0.0)
    se = _spread(loo)
    uatf = UatFTerms(*(x for mean, drop in terms for x in (mean, _spread(drop))))
    return est[0], se[0], est[1], se[1], uatf


@dataclass(frozen=True)
class UatFTerms:
    """Empirical hardening-bound terms at one instant, with standard errors."""

    ds: np.ndarray
    ds_stderr: np.ndarray
    int_: np.ndarray
    int_stderr: np.ndarray
    ds_common: np.ndarray
    ds_common_stderr: np.ndarray
    int_common: np.ndarray
    int_common_stderr: np.ndarray


@dataclass(frozen=True)
class MCSinr:
    """Monte Carlo SINR estimates with jackknife standard errors and 95% CIs,
    and the term estimates they are assembled from."""

    instant: int
    private: np.ndarray
    private_stderr: np.ndarray
    common: np.ndarray
    common_stderr: np.ndarray
    terms: UatFTerms
    count: int

    @property
    def private_ci(self) -> np.ndarray:
        return np.stack([self.private - _T95 * self.private_stderr,
                         self.private + _T95 * self.private_stderr], axis=1)

    @property
    def common_ci(self) -> np.ndarray:
        return np.stack([self.common - _T95 * self.common_stderr,
                         self.common + _T95 * self.common_stderr], axis=1)


def mc_sinr(batch: RealizationBatch, plan: PrecodingPlan, n) -> MCSinr | list[MCSinr]:
    """Use-and-then-forget SINRs at instant(s) n from one batch.

    Coherent plans use the joint-transmission assembly; non-coherent plans
    sum per-AP desired/interference contributions, matching successive
    per-AP decoding in AP-index order (the rate is order-invariant).  Each
    result also carries the term means behind it in ``terms``.
    """
    instants = [int(x) for x in np.atleast_1d(n)]
    sums = _accumulate(batch, plan, instants)
    out = [MCSinr(inst, *_jackknife(sums, plan, batch.config, m), count=batch.count)
           for m, inst in enumerate(instants)]
    return out[0] if np.isscalar(n) else out


def transmit_power_stats(
    batch: RealizationBatch, plan: PrecodingPlan
) -> tuple[np.ndarray, np.ndarray]:
    """Per-AP mean transmit power and its standard error over the batch."""
    net, config = batch.net, batch.config
    counts, slices = _batch_blocks(batch)
    p_dc = plan.rho * config.p_d
    p_dp = (1.0 - plan.rho) * config.p_d
    power = np.zeros((len(counts), net.L))
    for b, sl in slices:
        vb = private_precoders(batch.hhat[..., sl], net, plan.private_scheme)
        pw = p_dp * np.einsum("il,ilr->lr", plan.mu, np.sum(np.abs(vb) ** 2, axis=2))
        if plan.rho > 0:
            v_c = np.einsum("il,ilnr->lnr", plan.weights, vb)
            pw = pw + p_dc * plan.eta[:, None] * np.sum(np.abs(v_c) ** 2, axis=1)
        power[b] += pw.sum(axis=-1)
    return _mean_and_stderr(power, counts)
