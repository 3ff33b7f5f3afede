"""Monte Carlo oracle for the closed-form SINR expressions.

Draws i.i.d. realizations of channels, Wiener oscillator trajectories, and
pilot noise; runs the actual estimator, built from the caller's estimation
statistics, on each pilot observation; forms the per-realization MR
precoders (DU or DF); and empirically estimates the hardening-bound terms

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

Every link's correlation is R[k,l] = beta[k,l] T with one template T, so
the oracle works in T's eigenbasis: there R is diagonal, a channel is
sqrt(beta lam) times i.i.d. complex normals (lam: T's eigenvalues), white
pilot noise stays white, and the MMSE filters are elementwise.  The
hardening-bound terms are inner products over the antennas, which the
common unitary change of basis leaves unchanged.

Nothing with a realization axis outlives the RNG chunk it was drawn in.
``sample_batch`` takes every plan the caller will read, and the batch it
returns (``RealizationBatch``) holds only the count, the instants, the
config and, for each of those plans, its per-group sums of every term.
One streamed pass (``_stream``) runs draw -> precode -> accumulate inside
each RNG chunk: the chunk is drawn, the estimation filters run
elementwise, and every kept phase becomes its unit-modulus factor
exp(-i phase) with one cos/sin evaluation; then the chunk, cut at the
jackknife group edges and into slices of (K, K, L, r) work arrays of about
``_WORK_ELEMENTS`` entries that fit in cache, forms each private scheme's
precoders, their power and the link-precoder products once per slice and
adds every plan's terms and per-AP transmit powers into the chunk's own
per-group partial sums.  Chunks run on ``_map``'s worker threads, at most
one per CPU available to the process; numpy's RNG fills and ufunc loops
release the GIL, so the threads run in parallel.  ``mc_sinr`` and
``transmit_power_stats`` read a declared plan's sums and draw nothing; a
plan that was not declared is an error.

Reproducibility: realizations are generated in fixed-size chunks, chunk i
seeded by SeedSequence(seed, spawn_key=(i,)) feeding a counter-based
Philox generator, so a pass redraws the same realizations however often
it runs and however the chunks are scheduled over the threads.  The slice
plan does not depend on the worker count either, and the caller's thread
folds each chunk's partial sums into the group rows in chunk order, so
every output is bitwise the same at any worker count.  No step forms a
matrix product, whose summation order would depend on the BLAS kernel.
Standard errors come from a delete-one block jackknife over
``JACKKNIFE_GROUPS`` contiguous realization blocks (95% intervals: Student
t quantile); one helper gives the delete-one-block means, so one set of
sums yields both the term estimates (``MCSinr.terms``) and the
bias-corrected SINRs with their standard errors.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .closed_form import (
    PlanParts,
    PrecodingPlan,
    assemble,
    check_instants,
    check_plan_shapes,
)
from .estimation import EstimationStatistics, PilotAssignment, mmse_filters
from .model import NetworkModel, PhaseStatistics, SystemConfig

RNG_CHUNK = 4096  # realizations per RNG stream; fixed for reproducibility
MIN_REALIZATIONS = 100  # fewest realizations for meaningful standard errors
JACKKNIFE_GROUPS = 10  # delete-one groups of every jackknife
_T95 = 2.2621571627982  # two-sided 95% t quantile, JACKKNIFE_GROUPS - 1 = 9 dof
# (K, K, L, r) work-array elements per accumulated slice.  Each worker holds
# one slice's work arrays at a time, beside its chunk's draws; the slice plan
# does not depend on the worker count, which keeps every sum's order fixed.
_WORK_ELEMENTS = 2**16
# CPUs this process may run on: the most workers ``_map`` starts
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@dataclass
class _BlockSums:
    """One plan's per-group sums of every term at M instants, and of its
    per-AP transmit power; B rows, one per jackknife group."""

    counts: np.ndarray       # (B,) realizations per jackknife group
    ds_p: np.ndarray         # (B, M, K, L) complex
    int_p: np.ndarray        # (B, M, K, K) coherent or per-AP-summed
    ds_c: np.ndarray         # (B, M, K, L) complex
    int_c: np.ndarray        # (B, M, K)
    power: np.ndarray        # (B, L) transmit power, both streams
    coherent: bool

    @classmethod
    def zeros(cls, B: int, M: int, K: int, L: int, coherent: bool) -> _BlockSums:
        return cls(counts=np.zeros(B, dtype=int),
                   ds_p=np.zeros((B, M, K, L), dtype=complex), int_p=np.zeros((B, M, K, K)),
                   ds_c=np.zeros((B, M, K, L), dtype=complex), int_c=np.zeros((B, M, K)),
                   power=np.zeros((B, L)), coherent=coherent)

    def rows(self) -> tuple[np.ndarray, ...]:
        """The summed arrays, each with the group on its first axis."""
        return self.ds_p, self.int_p, self.ds_c, self.int_c, self.power


@dataclass(frozen=True)
class RealizationBatch:
    """The sums of one reproducible batch of channel and oscillator-phase
    realizations, for every plan declared to ``sample_batch``.

    It holds no array with a realization axis.  ``count`` realizations were
    drawn; ``instants`` lists the estimation instant and every requested
    evaluation instant, at which the terms were summed.  ``declared`` pairs
    each declared plan with its per-group sums at every one of
    ``instants``; ``mc_sinr`` and ``transmit_power_stats`` find a plan
    there by identity.
    """

    count: int
    instants: tuple[int, ...]
    config: SystemConfig
    declared: tuple[tuple[PrecodingPlan, _BlockSums], ...]

    def instant_index(self, n: int) -> int:
        try:
            return self.instants.index(n)
        except ValueError:
            raise ValueError(f"instant {n} is not among the batch's instants") from None


def _map(fn, items, fold) -> None:
    """fold(fn(item)) for every item, in item order: ``fn`` on
    min(len(items), ``_CPUS``) threads, ``fold`` on the caller's thread.

    numpy's RNG fills and ufunc loops release the GIL, so the threads run in
    parallel.  At most two items per worker are in flight (running, or done
    and waiting to be folded), so the memory their results hold does not
    grow with the number of items.  A call that
    raises cancels the items not yet started, and its exception reaches the
    caller once every started call has ended; no thread outlives the call.
    With one worker the items run inline.  ``fn`` must call nothing that
    ``perfbench/spans.py`` wraps (``sample_batch``, ``mc_sinr``, ...): its
    spans assume that the calls of one thread never overlap.
    """
    items = list(items)
    workers = min(len(items), _CPUS)
    if workers <= 1:
        for item in items:
            fold(fn(item))
        return
    # imported on first use, not with the package: every CLI start-up would pay for it
    from collections import deque
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        try:
            for item in items:
                if len(pending) == 2 * workers:
                    fold(pending.popleft().result())
                pending.append(pool.submit(fn, item))
            while pending:
                fold(pending.popleft().result())
        finally:
            for future in pending:
                future.cancel()


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


def _phase_instants(pilots: PilotAssignment, config: SystemConfig, instants) -> list[int]:
    """The instants a draw samples phases at, sorted: every occupied pilot
    instant, the estimation instant and the requested ``instants``."""
    return sorted(set(pilots.t.tolist()) | {config.estimation_instant}
                  | {int(n) for n in instants})


def _chunk_draw(
    net: NetworkModel,
    pilots: PilotAssignment,
    stats: EstimationStatistics,
    phases: PhaseStatistics,
    config: SystemConfig,
    count: int,
    seed: int,
    instants,
):
    """Set up the draw of ``count`` realizations once and return its per-chunk
    function ``draw(chunk)``, which several threads may call at once.

    The setup computes the channel standard deviations sqrt(beta lam), the
    estimation filters of ``stats`` and the phase instants; ``draw(chunk)``
    draws RNG chunk ``chunk`` from its own stream and returns
    (h, hhat, ue, ap, z) for its c realizations: channels and estimates
    (c, K, L, N) in T's eigenbasis, the UE (c, K, M) and AP (c, L, M) phases
    at ``_phase_instants(pilots, config, instants)``, and the received pilot
    signal z (c, G, L, N) per co-pilot group, which the filters turn into
    hhat.  The draws are made in that order and layout; the channels,
    estimates and pilot signal are computed with the realizations last and
    returned as views with that axis moved first.
    """
    K, L, N = net.K, net.L, net.N
    needed = _phase_instants(pilots, config, instants)
    gaps = np.diff([0] + needed)
    M = len(needed)
    sd_ue = np.sqrt(phases.var_ue * gaps)
    sd_ap = np.sqrt(phases.var_ap * gaps)
    sd = np.sqrt(net.beta[:, :, None] * net.lam)[..., None]  # (K, L, N, 1)
    filters = mmse_filters(net, stats)[..., None]
    p = config.pilot_powers()

    def draw(chunk: int):
        c = min(RNG_CHUNK, count - chunk * RNG_CHUNK)
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(seed, spawn_key=(chunk,)))
        )
        h = _complex_normal(rng, (c, K, L, N))  # (K, L, N, c)
        h *= sd
        ue = np.cumsum(rng.standard_normal((c, K, M)) * sd_ue, axis=2)
        ap = np.cumsum(rng.standard_normal((c, L, M)) * sd_ap, axis=2)
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
                hhat[k] = np.conj(net.theta[k])[:, None, None] * (filters[k] * z[g])
        return (np.moveaxis(h, -1, 0), np.moveaxis(hhat, -1, 0), ue, ap,
                np.moveaxis(z, -1, 0))

    return draw


def sample_batch(
    net: NetworkModel,
    pilots: PilotAssignment,
    stats: EstimationStatistics,
    phases: PhaseStatistics,
    config: SystemConfig,
    count: int,
    seed: int,
    instants=(),
    *,
    plans,
) -> RealizationBatch:
    """The sums of ``count`` realizations for every plan of ``plans``,
    accumulated in one streamed pass.

    ``instants`` lists the data instants at which SINRs will later be
    evaluated; the terms are summed there and at the estimation instant.
    The estimates use the filters of ``stats``.  Only the plans declared
    here can be read from the batch, so ``plans`` must list every plan the
    caller will pass to ``mc_sinr`` or ``transmit_power_stats``.  Identical
    (seed, inputs) give identical draws and sums, whatever the worker count.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    plans = list(plans)
    if not plans:
        raise ValueError("plans is empty: declare every plan the batch will be read for")
    instants = check_instants(config, instants)
    kept = tuple(sorted({config.estimation_instant} | {int(n) for n in instants}))
    sums = _stream(net, pilots, stats, phases, config, count, seed, kept, plans)
    for s in sums:
        for arr in s.rows():
            arr.setflags(write=False)
    return RealizationBatch(count=count, instants=kept, config=config,
                            declared=tuple(zip(plans, sums)))


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
# the streamed pass
# ---------------------------------------------------------------------------

def _chunk_slices(count: int, K: int, L: int) -> tuple[np.ndarray, list[list[tuple[int, slice]]]]:
    """Realization counts of the ``JACKKNIFE_GROUPS`` contiguous groups, and
    per RNG chunk the (group, slice) pairs that cover it, in order, with
    slices indexing the chunk's own realizations.

    Each chunk is cut at the group edges, and each piece into slices of at
    most ``cap`` realizations (the last one may be shorter), so no slice
    straddles two groups or two chunks; a slice of at least 64 realizations
    bounds the (K, K, L, r) work arrays to about ``_WORK_ELEMENTS`` entries,
    a size that stays in cache.
    """
    if count < MIN_REALIZATIONS:
        raise ValueError(
            f"need at least {MIN_REALIZATIONS} realizations for meaningful errors")
    cap = max(64, _WORK_ELEMENTS // (K * K * L))
    edges = np.linspace(0, count, JACKKNIFE_GROUPS + 1).astype(int)
    chunks = []
    for start in range(0, count, RNG_CHUNK):
        stop = min(start + RNG_CHUNK, count)
        pieces = []
        for b in range(JACKKNIFE_GROUPS):
            lo, hi = max(start, edges[b]), min(stop, edges[b + 1])
            pieces += [(b, slice(s - start, min(s + cap, hi) - start))
                       for s in range(lo, hi, cap)]
        chunks.append(pieces)
    return np.diff(edges), chunks


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


def _stream(net, pilots, stats, phases, config, count, seed, instants, plans) -> list[_BlockSums]:
    """Per-group sums of every term of every plan at the instants, and of
    its per-AP transmit power, from one pass over ``count`` realizations
    drawn from ``seed`` (see ``_chunk_draw``).

    Each RNG chunk runs on a worker of ``_map``: it draws its realizations,
    turns the phases at the instants into their factors, and cuts itself
    into the slices of ``_chunk_slices``.  Per slice, each private scheme of
    the plans forms its precoders v, their power and the link-precoder
    products P (see ``_accumulate``) once, and every plan of that scheme
    adds its terms and powers into the chunk's partial sums, one row per
    group the chunk touches.  The caller's thread folds the partials into
    the group rows in chunk order.
    """
    K, L, N = net.K, net.L, net.N
    for plan in plans:
        check_plan_shapes(plan, K, L)
    counts, chunks = _chunk_slices(count, K, L)
    drawn = _phase_instants(pilots, config, instants)
    columns = [drawn.index(n) for n in instants]
    draw = _chunk_draw(net, pilots, stats, phases, config, count, seed, instants)
    schemes = sorted({plan.private_scheme for plan in plans})
    conj_theta = np.conj(net.theta)[:, :, None, None]

    def zeros(rows: int) -> list[_BlockSums]:
        return [_BlockSums.zeros(rows, len(columns), K, L, plan.transmission == "coherent")
                for plan in plans]

    def run(chunk: int) -> tuple[int, list[_BlockSums]]:
        h_c, hhat_c, ue_c, ap_c, _ = draw(chunk)
        h, hhat = np.moveaxis(h_c, 0, -1), np.moveaxis(hhat_c, 0, -1)  # (K, L, N, c)
        x = np.ascontiguousarray(np.moveaxis(_phasor(-ue_c[:, :, columns]), 0, -1))  # (K, M, c)
        y = np.ascontiguousarray(np.moveaxis(_phasor(-ap_c[:, :, columns]), 0, -1))  # (L, M, c)
        slices = chunks[chunk]
        first = slices[0][0]
        partial = zeros(slices[-1][0] - first + 1)
        for b, sl in slices:
            gh = conj_theta * np.conj(h[..., sl])
            precoded = {}
            for scheme in schemes:
                v = private_precoders(hhat[..., sl], net, scheme)
                # explicit sum over antennas: a batched matmul of the tiny
                # per-realization matrices is several times slower
                P = _sum(gh[:, None, :, n] * v[None, :, :, n] for n in range(N))  # (K, K, L, r)
                precoded[scheme] = v, P, _sumsq(v).sum(axis=-1)  # (K, L) power of v
            for plan, sums in zip(plans, partial):
                _accumulate(sums, b - first, plan, config, *precoded[plan.private_scheme],
                            x[..., sl], y[..., sl])
        return first, partial

    totals = zeros(JACKKNIFE_GROUPS)
    for sums in totals:
        sums.counts[:] = counts

    def fold(result: tuple[int, list[_BlockSums]]) -> None:
        first, partial = result
        for total, part in zip(totals, partial):
            for row, add in zip(total.rows(), part.rows()):
                row[first:first + len(add)] += add

    _map(run, range(len(chunks)), fold)
    return totals


def _accumulate(sums: _BlockSums, b: int, plan: PrecodingPlan, config: SystemConfig,
                v: np.ndarray, P: np.ndarray, v_power: np.ndarray, x: np.ndarray,
                y: np.ndarray) -> None:
    """Add one slice's terms at the instants, and its per-AP transmit power,
    into row b of ``sums``.

    The effective channel is g[k,l] = theta[k,l] exp(i(ue[k] + ap[l])) h[k,l],
    so each link-precoder product factors as

        conj(g[k,l]) v[i,l] = x[k] y[l] P[k,i,l],
        P[k,i,l] = sum_n conj(theta[k,l] h[k,l,n]) v[i,l,n],

    with the unit-modulus phase factors x = exp(-i ue) (K, M, r) per UE and
    y = exp(-i ap) (L, M, r) per AP.  P, the private precoders v and their
    power ``v_power`` (K, L), |v|^2 summed over antennas and realizations,
    are formed once per slice and scheme by ``_stream``, and each instant
    only reads its own x and y.
    |x| = 1 drops the per-UE factor from every interference term, and the
    non-coherent interference (|P|^2 summed over APs) has no phase at all,
    so it is the same at every instant and is summed once per slice.  The
    sums over antennas, UEs, APs and realizations are elementwise products
    and ``sum``, never a matrix product.
    """
    K, L = v.shape[:2]
    coherent = sums.coherent
    sq_mu = np.sqrt(plan.mu)
    sq_eta = np.sqrt(plan.eta)
    sums.power[b] += (1.0 - plan.rho) * config.p_d * np.sum(plan.mu * v_power, axis=0)
    if plan.rho > 0:
        v_c = _sum(plan.weights[i, :, None, None] * v[i] for i in range(K))  # (L, N, r)
        sums.power[b] += plan.rho * config.p_d * plan.eta * _sumsq(v_c).sum(axis=-1)
    diag = np.moveaxis(np.diagonal(P), -1, 0)  # (K, L, r) view of P[k, k]
    if not coherent:
        sums.int_p[b] += np.sum(plan.mu * _sumsq(P), axis=-1)
    if plan.rho > 0:
        E = _sum(plan.weights[i, :, None] * P[:, i] for i in range(K))  # (K, L, r)
        if not coherent:
            sums.int_c[b] += np.sum(_sumsq(E) * plan.eta, axis=-1)
    for m in range(x.shape[1]):
        xm = x[:, m, None]  # (K, 1, r)
        ym = y[:, m]  # (L, r)
        sums.ds_p[b, m] += sq_mu * np.sum(ym * diag * xm, axis=-1)
        if coherent:
            w = sq_mu[:, :, None] * ym  # (K, L, r)
            c = _sum(P[:, :, l] * w[:, l] for l in range(L))  # (K, K, r)
            sums.int_p[b, m] += _sumsq(c)
        if plan.rho > 0:
            sums.ds_c[b, m] += sq_eta * np.sum(ym * E * xm, axis=-1)
            if coherent:
                ec = _sum(E[:, l] * (sq_eta[l] * ym[l]) for l in range(L))  # (K, r)
                sums.int_c[b, m] += _sumsq(ec)


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


def _declared_sums(batch: RealizationBatch, plan: PrecodingPlan) -> _BlockSums:
    """The sums of ``plan``, found among the batch's declared plans by identity."""
    for declared, sums in batch.declared:
        if declared is plan:
            return sums
    raise ValueError("the plan was not declared to sample_batch: "
                     "pass it in the plans of the batch it is read from")


def mc_sinr(batch: RealizationBatch, plan: PrecodingPlan, n) -> MCSinr | list[MCSinr]:
    """Use-and-then-forget SINRs at instant(s) n from a plan declared to the
    batch's ``sample_batch`` call.

    Coherent plans use the joint-transmission assembly; non-coherent plans
    sum per-AP desired/interference contributions, matching successive
    per-AP decoding in AP-index order (the rate is order-invariant).  Each
    result also carries the term means behind it in ``terms``.  The plan's
    sums are read off the batch, so the call is the jackknife only.
    """
    instants = [int(x) for x in np.atleast_1d(n)]
    rows = [batch.instant_index(inst) for inst in instants]
    sums = _declared_sums(batch, plan)
    out = [MCSinr(inst, *_jackknife(sums, plan, batch.config, m), count=batch.count)
           for inst, m in zip(instants, rows)]
    return out[0] if np.isscalar(n) else out


def transmit_power_stats(
    batch: RealizationBatch, plan: PrecodingPlan
) -> tuple[np.ndarray, np.ndarray]:
    """Per-AP mean transmit power and its standard error over the batch,
    from the sums of a plan declared to its ``sample_batch`` call."""
    sums = _declared_sums(batch, plan)
    return _mean_and_stderr(sums.power, sums.counts)
