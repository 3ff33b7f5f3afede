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
from, which the estimators read.  The work is split by how often it runs.
Once per batch, ``sample_batch`` draws, colours the channels and runs the
estimation filters (explicit antenna sums, bit for bit what ``einsum``
gives), and turns every kept phase into its unit-modulus factor
exp(-i phase) with one cos/sin evaluation.  Once per ``mc_sinr`` or
``transmit_power_stats`` call, the estimators form the plan's precoders
and terms slice by slice, with (K, K, L, r) work arrays of about
``_WORK_ELEMENTS`` entries that fit in cache and slices that never
straddle a jackknife group, and read the stored factors with no
trigonometry.

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
_WORK_ELEMENTS = 2**17  # (K, K, L, r) work-array elements per accumulated slice


@dataclass(frozen=True)
class RealizationBatch:
    """One reproducible batch of channel and oscillator-phase realizations,
    with the network and config it was drawn from.

    h (K, L, N, count): base channels at the estimation instant.
    hhat (K, L, N, count): MMSE estimates from the simulated pilots.
    ue_factor (K, M, count) / ap_factor (L, M, count): the unit-modulus
        phase factors exp(-i phase) of the UE and AP oscillators at the
        instants listed in ``instants``: the estimation instant and every
        requested evaluation instant.  They are formed once, when the batch
        is drawn, so no accumulation evaluates a trigonometric function.  The
        pilot signal and the phases at the pilot instants are drawn (see
        ``_draw_chunks``) but not kept.
    """

    count: int
    instants: tuple[int, ...]
    h: np.ndarray
    hhat: np.ndarray
    ue_factor: np.ndarray
    ap_factor: np.ndarray
    net: NetworkModel
    config: SystemConfig

    def __post_init__(self):
        for arr in (self.h, self.hhat, self.ue_factor, self.ap_factor):
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
    """(re + i im) / sqrt(2), re drawn before im, both in the C order of
    ``shape``; returned with its first (realization) axis moved last."""
    out = np.empty(shape[1:] + shape[:1], dtype=complex)
    drawn = np.moveaxis(out, -1, 0)
    part = rng.standard_normal(shape)
    part *= 1.0 / np.sqrt(2.0)
    drawn.real = part
    rng.standard_normal(shape, out=part)
    part *= 1.0 / np.sqrt(2.0)
    drawn.imag = part
    return out


def _phasor(angle: np.ndarray) -> np.ndarray:
    """exp(i angle) from cos and sin, cheaper than the complex exponential."""
    out = np.empty(angle.shape, dtype=complex)
    out.real = np.cos(angle)
    out.imag = np.sin(angle)
    return out


def _matvec(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(..., N, r) stack of sum_m a[..., n, m] b[..., m, r]: the draw's N x N
    products for r realizations, as an explicit antenna sum.

    Each complex product is formed in plain real arithmetic and the terms are
    added in m order, as ``einsum`` does, so the result is bit for bit what
    ``einsum`` gives; the vectorized complex multiply may fuse operations and
    round differently.
    """
    re = im = 0.0
    for m in range(a.shape[-1]):
        ar, ai = a[..., m, None].real, a[..., m, None].imag
        br, bi = b[..., m, None, :].real, b[..., m, None, :].imag
        re = re + (ar * br - ai * bi)
        im = im + (ar * bi + ai * br)
    out = np.empty(np.shape(re), dtype=complex)
    out.real = re
    out.imag = im
    return out


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
    turn into hhat.  The draws are made in that order and layout; the
    channels, estimates and pilot signal are computed with the realizations
    last, which gives the antenna sums long inner loops, and yielded as
    views with that axis moved first.
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
        h = _matvec(chol, _complex_normal(rng, (c, K, L, N)))  # (K, L, N, c)
        ue = np.cumsum(rng.standard_normal((c, K, M)) * np.sqrt(phases.var_ue * gaps), axis=2)
        ap = np.cumsum(rng.standard_normal((c, L, M)) * np.sqrt(phases.var_ap * gaps), axis=2)
        z = _complex_normal(rng, (c, len(pilots.groups), L, N))  # (G, L, N, c)
        z *= np.sqrt(config.sigma2_ul)

        hhat = np.empty_like(h)
        for g, group in enumerate(pilots.groups):
            # the group's transmissions accumulate on top of the noise
            m = needed.index(int(pilots.t[group[0]]))
            for i in group:
                rot = _phasor(ue[:, i, m] + ap[:, :, m].T)  # (L, c)
                z[g] += np.sqrt(p[i]) * net.theta[i][:, None, None] * rot[:, None] * h[i]
            for k in group:
                hhat[k] = np.conj(net.theta[k])[:, None, None] * _matvec(filters[k], z[g])
        yield (np.moveaxis(h, -1, 0), np.moveaxis(hhat, -1, 0), ue, ap,
               np.moveaxis(z, -1, 0))


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
    evaluated; the phase factors there and at the estimation instant are
    kept.  The estimates use the filters of ``stats``.  Identical (seed,
    inputs) give identical batches.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    instants = check_instants(config, instants)
    kept = sorted({config.estimation_instant} | {int(n) for n in instants})
    columns = [_phase_instants(pilots, config, instants).index(n) for n in kept]

    h = np.empty((net.K, net.L, net.N, count), dtype=complex)
    hhat = np.empty_like(h)
    ue_factor = np.empty((net.K, len(kept), count), dtype=complex)
    ap_factor = np.empty((net.L, len(kept), count), dtype=complex)
    chunks = _draw_chunks(net, pilots, stats, phases, config, count, seed, instants)
    for start, (h_c, hhat_c, ue_c, ap_c, _) in zip(range(0, count, RNG_CHUNK), chunks):
        sl = slice(start, start + len(h_c))
        h[..., sl] = np.moveaxis(h_c, 0, -1)
        hhat[..., sl] = np.moveaxis(hhat_c, 0, -1)
        ue_factor[..., sl] = np.moveaxis(_phasor(-ue_c[:, :, columns]), 0, -1)
        ap_factor[..., sl] = np.moveaxis(_phasor(-ap_c[:, :, columns]), 0, -1)

    return RealizationBatch(count=count, instants=tuple(kept), h=h, hhat=hhat,
                            ue_factor=ue_factor, ap_factor=ap_factor,
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
    groups, and the (group, slice) pairs that cover them.  Each group is cut
    into slices of at most ``cap`` realizations (the last one may be
    shorter), so no slice straddles two groups; a slice of at least 64
    realizations bounds the (K, K, L, r) work arrays to about
    ``_WORK_ELEMENTS`` entries, a size that stays in cache.
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


def _check_plan(batch: RealizationBatch, plan: PrecodingPlan) -> None:
    """Raise ValueError unless the plan's arrays have the batch network's shapes."""
    K, L = batch.net.K, batch.net.L
    for name, shape in (("mu", (K, L)), ("weights", (K, L)), ("eta", (L,))):
        got = getattr(plan, name).shape
        if got != shape:
            raise ValueError(
                f"plan {name} has shape {got}, but the batch's network needs {shape}")


def _sum(terms) -> np.ndarray:
    """Sum of arrays, added in place into the first, which has the full shape."""
    terms = iter(terms)
    total = next(terms)
    for term in terms:
        total += term
    return total


def _sumsq(a: np.ndarray) -> np.ndarray:
    """sum of |a|^2 over the last axis: the float view dotted with itself.

    Formed elementwise rather than by ``matmul``: a threaded BLAS splits long
    real dot products over its thread pool, whose wake-up can cost more than
    the dot.
    """
    return np.square(a.view(float)).sum(axis=-1)


def _accumulate(batch: RealizationBatch, plan: PrecodingPlan, eval_instants) -> _BlockSums:
    """Per-group sums of every term at the instants; the estimators' entry.

    The effective channel is g[k,l] = theta[k,l] exp(i(ue[k] + ap[l])) h[k,l],
    so each link-precoder product factors as

        conj(g[k,l]) v[i,l] = x[k] y[l] P[k,i,l],
        P[k,i,l] = sum_n conj(theta[k,l] h[k,l,n]) v[i,l,n],

    with the unit-modulus phase factors x = exp(-i ue) (per UE) and
    y = exp(-i ap) (per AP), which the batch stores.  Per call, P is formed
    once per slice, together with the plan's private precoders, and each
    instant only reads its own x and y.  |x| = 1 drops the per-UE factor from
    every interference term, and the non-coherent interference (|P|^2 summed
    over APs) has no phase at all, so it is the same at every instant and is
    summed once per slice.  The sums over antennas, UEs and APs are explicit
    loops over the short axes, and sum |.|^2 over realizations is a real dot
    product.
    """
    _check_plan(batch, plan)
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
        P = _sum(gh[:, None, :, n] * v[None, :, :, n] for n in range(net.N))  # (K, K, L, r)
        diag = np.moveaxis(np.diagonal(P), -1, 0)  # (K, L, r) view of P[k, k]
        if not coherent:
            sums.int_p[b] += np.sum(plan.mu * _sumsq(P), axis=-1)
        if plan.rho > 0:
            E = _sum(plan.weights[i, :, None] * P[:, i] for i in range(K))  # (K, L, r)
            if not coherent:
                sums.int_c[b] += _sumsq(E) @ plan.eta
        for m, col in enumerate(columns):
            x = batch.ue_factor[:, col, sl, None]  # (K, r, 1)
            y = batch.ap_factor[:, col, sl]  # (L, r)
            sums.ds_p[b, m] += sq_mu * np.matmul(y * diag, x)[..., 0]
            if coherent:
                w = sq_mu[:, :, None] * y  # (K, L, r)
                c = _sum(P[:, :, l] * w[:, l] for l in range(L))  # (K, K, r)
                sums.int_p[b, m] += _sumsq(c)
            if plan.rho > 0:
                sums.ds_c[b, m] += sq_eta * np.matmul(y * E, x)[..., 0]
                if coherent:
                    ec = _sum(E[:, l] * (sq_eta[l] * y[l]) for l in range(L))  # (K, r)
                    sums.int_c[b, m] += _sumsq(ec)
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
    _check_plan(batch, plan)
    net, config = batch.net, batch.config
    counts, slices = _batch_blocks(batch)
    p_dc = plan.rho * config.p_d
    p_dp = (1.0 - plan.rho) * config.p_d
    power = np.zeros((len(counts), net.L))
    for b, sl in slices:
        vb = private_precoders(batch.hhat[..., sl], net, plan.private_scheme)
        power[b] += p_dp * np.sum(plan.mu * _sumsq(vb).sum(axis=-1), axis=0)
        if plan.rho > 0:
            v_c = _sum(plan.weights[i, :, None, None] * vb[i] for i in range(net.K))
            power[b] += p_dc * plan.eta * _sumsq(v_c).sum(axis=-1)
    return _mean_and_stderr(power, counts)
