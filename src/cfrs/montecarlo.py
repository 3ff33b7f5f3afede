"""Monte Carlo oracle for the closed-form SINR expressions.

Draws i.i.d. realizations of channels, Wiener oscillator trajectories, and
pilot noise; filters each co-pilot set's pilot observation with the MMSE
filter of the caller's estimation statistics, which gives the
per-realization MR precoders (DU or DF) of the set's UEs as scaled copies
of one filtered observation; and empirically estimates the hardening-bound
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

Every link's correlation is R[k,l] = beta[k,l] T with one template T, so
the oracle works in T's eigenbasis: there R is diagonal, a channel is
sqrt(beta lam) times i.i.d. complex normals (lam: T's eigenvalues), white
pilot noise stays white, and the MMSE filters are elementwise.  Co-pilots
share a pilot instant, so a drift decay and a Psi: UE i's DU precoder is
v[i,l] = x[i,l] u[P_i,l], with the co-pilot factor x of the statistics
and one filtered observation u[P] = lam Psi[P] z[P] per co-pilot set P
(Marzetta, IEEE TWC 2010), so the pass forms no per-UE estimate.  Every
per-set axis of the pass, the pilot signal z's included, follows the set
order of ``PilotAssignment`` (by size, then by pilot instant).  The
hardening-bound terms are inner products over the antennas, which the
common unitary change of basis leaves unchanged.

``sample_batch`` takes every plan the caller will read, and the batch it
returns (``RealizationBatch``) holds only the count, the instants, the
config and, for each of those plans, its per-group sums of every term.
One streamed pass (``_stream``) runs draw -> precode -> accumulate inside
each RNG chunk, and each worker runs its chunks in one workspace
(``_Workspace``) that it holds for the whole pass.  The workspace names
only the arrays that outlive a step: the chunk's channels h and pilot
signal z, its UE and AP phase factors eu and ea, and a slice's link
products Y and one precoder's common products E, each allocated once, at
the largest layout the pass asks of it (``_largest_layouts``), before the
workspace's first draw.  Every other array is a view of the one scratch
buffer, in the layout its step takes (``_scratch_layouts``).
Every array with a realization axis is a view into the workspace, filled
through ``out=``, and has its realization axis last, so a pass allocates
no such array per chunk or per slice and its memory does not grow with
the realization count.  The chunk is drawn (``_ChunkDraw``) and every
kept phase becomes its unit-modulus factor exp(-i phase) with one cos/sin
evaluation, over the phase path it is formed from; then the chunk is cut
at the jackknife group edges and into slices of at most about
``_WORK_ELEMENTS`` / (K^2 L) realizations (at least 64, see
``_chunk_slices``).  Each slice filters its slice of the pilot signal
into the S co-pilot sets' observations u with one product, in place, and
its work is shared at three levels (see ``_accumulate``):

* once per slice, whatever the plans: the (K, S, L, r) link products
  Y[k,P,l] = sum_n conj(theta h)[k,l,n] u[P,l,n], through which every
  link-precoder product is x[i,l] Y[k,P_i,l], the observations' power
  and, at each instant, the private desired-signal moment.  The DF
  precoders are v_df = conj(theta) v_du, and as |theta| = 1 both schemes
  have the same private power: a DF plan folds the rotation into its own
  factors and forms no products of its own;
* once per distinct precoder (private scheme, rho, mu, weights and eta,
  compared by value), one precoder after another: the common precoder's
  power and products, which overwrite the previous precoder's, and both
  desired-signal sums;
* once per plan: its transmission's interference terms.

A plan's sums are bitwise the same whichever plans are declared with it.
No array of the pass has two UE axes and an AP axis, and forming Y and
the common products costs K/S times less than a product per UE pair
would.  Chunks run on ``_map``'s worker threads, at most one per CPU
available to the process; numpy's RNG fills and ufunc loops release the
GIL, so the threads run in parallel.  ``mc_sinr`` and
``transmit_power_stats`` read a declared plan's sums and draw nothing; a
plan that was not declared is an error.

Reproducibility: realizations are generated in fixed-size chunks, chunk i
seeded by SeedSequence(seed, spawn_key=(i,)) feeding an SFC64
generator, so a pass redraws the same realizations however often
it runs and however the chunks are scheduled over the threads.  The slice
plan does not depend on the worker count either, and the caller's thread
folds each chunk's partial sums into the group rows in chunk order, so
every output is bitwise the same at any worker count.  No step forms a
matrix product, whose summation order would depend on the BLAS kernel.
Standard errors come from a delete-one block jackknife over
``JACKKNIFE_GROUPS`` contiguous realization blocks (95% intervals: Student
t quantile); one helper gives the delete-one-block means, so one set of
sums yields both the term estimates (``MCSinr.terms``) and the
bias-corrected SINRs with their standard errors, and one ``assemble``
call per (plan, instant) forms the SINRs of the full and of every
delete-one mean.
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
from .estimation import EstimationStatistics, PilotAssignment, check_pilots
from .model import NetworkModel, PhaseStatistics, SystemConfig

RNG_CHUNK = 4096  # realizations per RNG stream; fixed for reproducibility
MIN_REALIZATIONS = 100  # fewest realizations for meaningful standard errors
JACKKNIFE_GROUPS = 10  # delete-one groups of every jackknife
_T95 = 2.2621571627982  # two-sided 95% t quantile, JACKKNIFE_GROUPS - 1 = 9 dof
# K^2 L r entries per accumulated slice: 1 MiB of complex entries, which
# bounds each of a worker's (K, S, L, r) slice-sized workspace arrays (a
# slice keeps at least 64 realizations, see ``_chunk_slices``), not a
# cache size.  The slice plan does not depend on the worker count, which
# keeps every sum's order fixed.
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


class _Workspace:
    """Flat buffers that one worker fills again for every chunk and slice of
    one pass, so the pass allocates no array with a realization axis per
    chunk or per slice.

    ``get`` views a buffer's leading bytes as C-contiguous arrays laid one
    after the other, each at a 64-byte boundary.  A buffer is allocated on
    its first use and grown when a later layout needs more bytes, so each
    ends at the size of the largest layout asked of it.  A shorter chunk or
    slice takes a shorter prefix, so every view has the layout a fresh
    array of its shape would have.  The views of each (name, layout) are
    built once and handed out again until that buffer is grown, which
    drops every view of the buffer it replaces.
    """

    def __init__(self):
        self._flat = {}
        self._views = {}

    @staticmethod
    def _extent(shape, dtype) -> int:
        n = np.dtype(dtype).itemsize
        for d in shape:
            n *= d
        return n

    @staticmethod
    def nbytes(*layout) -> int:
        """Bytes that the (shape, dtype) views of ``layout`` take in a row."""
        return sum(-(-_Workspace._extent(*view) // 64) * 64 for view in layout)

    def get(self, name: str, *layout):
        """Views of buffer ``name``, one per (shape, dtype) of ``layout``, in
        a row: the view itself for one pair, else a list."""
        key = name, layout
        views = self._views.get(key)
        if views is not None:
            return views
        need = self.nbytes(*layout)
        flat = self._flat.get(name)
        if flat is None or flat.size < need:
            flat = self._flat[name] = np.empty(need, dtype=np.uint8)
            self._views = {k: v for k, v in self._views.items() if k[0] != name}
        views, start = [], 0
        for shape, dtype in layout:
            views.append(flat[start:start + self._extent(shape, dtype)]
                         .view(dtype).reshape(shape))
            start += self.nbytes((shape, dtype))
        views = self._views[key] = views[0] if len(views) == 1 else views
        return views


def _complex_normal(rng: np.random.Generator, out: np.ndarray, part: np.ndarray) -> np.ndarray:
    """Fill ``out`` with (re + i im) / sqrt(2), re drawn before im, both in
    the C order of ``part``'s shape, which is ``out``'s with its last
    (realization) axis moved first; ``part`` is a real work array."""
    drawn = np.moveaxis(out, -1, 0)
    rng.standard_normal(out=part)
    part *= 1.0 / np.sqrt(2.0)
    drawn.real = part
    rng.standard_normal(out=part)
    part *= 1.0 / np.sqrt(2.0)
    drawn.imag = part
    return out


def _phasor(angle: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """exp(i angle) from cos and sin, cheaper than the complex exponential;
    written into ``out`` if given."""
    if out is None:
        out = np.empty(angle.shape, dtype=complex)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    return out


def _phase_instants(pilots: PilotAssignment, config: SystemConfig, instants) -> list[int]:
    """The instants a draw samples phases at, sorted: every occupied pilot
    instant, the estimation instant and the requested ``instants``."""
    return sorted(set(pilots.t.tolist()) | {config.estimation_instant}
                  | {int(n) for n in instants})


class _ChunkDraw:
    """The draw of ``count`` realizations from ``seed``, set up once; a call
    ``draw(chunk, ws)`` draws RNG chunk ``chunk`` from its own stream into
    the workspace ``ws``, and several threads may call it at once, each
    with its own workspace.

    The setup computes the channel standard deviations sqrt(beta lam) and
    the phase instants.  A call returns (h, z, ue, ap) for the chunk's c
    realizations, each with the realization axis last: the channels h
    (K, L, N, c) in T's eigenbasis, the received pilot signal z (S, L, N, c)
    per co-pilot set in set order, and the UE (K, M', c) and AP (L, M', c)
    phase paths
    at the M' instants ``_phase_instants(pilots, config, instants)``, of
    which the last ``kept`` are the estimation instant and those after it.
    The draws are made in the order h, ue, ap, z, each in the C order of its
    shape with the realization axis moved first; a path is the cumulative
    sum of its sd-scaled increments over the instants, written into the
    float view of the buffer ("eu" or "ea") that the pass turns into its
    phase factors (see ``_stream``), which ``_stream`` has already sized
    for the larger of the path and the factors.  A later call overwrites
    what an earlier one wrote into the same workspace.
    """

    def __init__(self, net: NetworkModel, pilots: PilotAssignment, phases: PhaseStatistics,
                 config: SystemConfig, count: int, seed: int, instants):
        K, L, N = net.K, net.L, net.N
        self.count, self.seed = count, seed
        self.shape = K, L, N, sum(len(idx) for idx in pilots.stacks)
        self.set_of = pilots.set_of
        self.needed = _phase_instants(pilots, config, instants)
        self.kept = len(self.needed) - self.needed.index(config.estimation_instant)
        gaps = np.diff([0] + self.needed)
        self.sd_ue = np.sqrt(phases.var_ue * gaps)
        self.sd_ap = np.sqrt(phases.var_ap * gaps)
        self.sd = np.sqrt(net.beta[:, :, None] * net.lam)[..., None]  # (K, L, N, 1)
        self.sq_sigma2 = np.sqrt(config.sigma2_ul)
        p = config.pilot_powers()
        # sqrt(p_i) theta_i: the pilot amplitude and delay phase of UE i
        self.amp = [np.sqrt(p[i]) * net.theta[i][:, None, None] for i in range(K)]
        # the phase column of each UE's pilot instant
        self.pilot_columns = [self.needed.index(t) for t in pilots.t.tolist()]

    def __call__(self, chunk: int, ws: _Workspace):
        K, L, N, S = self.shape
        M = len(self.needed)
        c = min(RNG_CHUNK, self.count - chunk * RNG_CHUNK)
        scratch = _scratch_layouts(self, c)
        rng = np.random.Generator(
            np.random.SFC64(np.random.SeedSequence(self.seed, spawn_key=(chunk,)))
        )
        h = _complex_normal(rng, ws.get("h", ((K, L, N, c), complex)),
                            ws.get("scratch", *scratch["h"]))
        h *= self.sd
        paths = []
        for steps_of, factor, rows, sd in (("ue steps", "eu", K, self.sd_ue),
                                           ("ap steps", "ea", L, self.sd_ap)):
            steps = rng.standard_normal(out=ws.get("scratch", *scratch[steps_of]))
            path = ws.get(factor, ((rows, M, c), float))
            for j in range(M):
                np.multiply(steps[:, :, j].T, sd[j], out=path[:, j])
                if j:
                    path[:, j] += path[:, j - 1]
            paths.append(path)
        ue, ap = paths
        z = _complex_normal(rng, ws.get("z", ((S, L, N, c), complex)),
                            ws.get("scratch", *scratch["z"]))
        z *= self.sq_sigma2
        angle, rot, sent = ws.get("scratch", *scratch["pilot"])
        for i, m in enumerate(self.pilot_columns):
            # each set's transmissions accumulate on top of its noise, in UE order
            _phasor(np.add(ue[i, m], ap[:, m], out=angle), out=rot)
            np.multiply(self.amp[i], rot[:, None], out=rot[:, None])
            z[self.set_of[i]] += np.multiply(rot[:, None], h[i], out=sent)
        return h, z, ue, ap


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
    ``count`` must be an integer of at least ``MIN_REALIZATIONS`` and
    ``seed`` a non-negative integer.
    """
    def integer(x) -> bool:
        return isinstance(x, (int, np.integer)) and not isinstance(x, bool)

    if not (integer(count) and count >= MIN_REALIZATIONS):
        raise ValueError(f"count must be an integer of at least {MIN_REALIZATIONS} "
                         f"realizations, for meaningful errors; got {count!r}")
    if not (integer(seed) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    check_pilots(pilots, net.K, config)
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
# the co-pilot sets
# ---------------------------------------------------------------------------

class _CopilotSets:
    """The pass's view of the co-pilot sets of ``pilots``, whose set order
    (by size, then by pilot instant) every per-set axis of the pass
    follows, so that each stack's sets are one contiguous range.  ``filter``
    forms their observations u[P] = lam Psi[P] z[P], of which the DU
    precoders are the copies v[i,l] = x[i,l] u[P_i,l] scaled by the
    co-pilot factor x.  ``order`` (K,) holds the UEs set by set and
    ``rank`` (K,) each UE's place in ``order``; ``stacks`` holds per stack
    its (S_c, g_c) UE indices, the range of its sets and the range of its
    UEs in ``order``.
    """

    def __init__(self, pilots: PilotAssignment, stats: EstimationStatistics, lam: np.ndarray):
        self.pilots = pilots
        self.filters = (lam * stats.Psi)[..., None]  # (S, L, N, 1)
        self.order = np.concatenate([idx.ravel() for idx in pilots.stacks])
        self.rank = np.argsort(self.order)
        self.stacks = []
        s = o = 0
        for idx in pilots.stacks:
            self.stacks.append((idx, slice(s, s + len(idx)), slice(o, o + idx.size)))
            s, o = s + len(idx), o + idx.size

    def filter(self, z: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The filtered observations u (S, L, N, r) of the pilot signal z
        (S, L, N, r), any r realizations of a draw, written into ``out``,
        which may be z itself."""
        return np.multiply(self.filters, z, out=out)


# ---------------------------------------------------------------------------
# the streamed pass
# ---------------------------------------------------------------------------

def _chunk_slices(count: int, K: int, L: int) -> tuple[np.ndarray, list[list[tuple[int, slice]]]]:
    """Realization counts of the ``JACKKNIFE_GROUPS`` contiguous groups, and
    per RNG chunk the (group, slice) pairs that cover it, in order, with
    slices indexing the chunk's own realizations.

    Each chunk is cut at the group edges, and each piece into slices of at
    most ``cap`` realizations (the last one may be shorter), so no slice
    straddles two groups or two chunks.  The cap keeps K^2 L r near
    ``_WORK_ELEMENTS``, which bounds the (K, S, L, r) work arrays (S <= K
    co-pilot sets), but a slice has at least 64 realizations, so where
    K^2 L > 1024 a work array holds 64 K S L entries: 1.25 times the target
    at 40/8/2/4 (L/K/N/tau_p) and 50 times it (50 MiB) at 200/32/4/8.  The
    chunk arrays are larger still (see ``_stream``).
    """
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


def _scratch_layouts(draw: _ChunkDraw, c: int, r: int = 0) -> dict[str, tuple]:
    """Every layout a pass asks of a workspace's scratch buffer, by step,
    for chunks of c and slices of r realizations (the draw's steps do not
    read r).

    A step asks for its layout when it starts and reads nothing that an
    earlier step left in the buffer.  The views of one layout are in use at
    the same time, so each has its own region, except where noted.
    ``_stream`` asks for the largest layout of its longest chunk and slice
    first (``_largest_layouts``).
    """
    K, L, N, S = draw.shape
    drawn, M = len(draw.needed), draw.kept
    return {
        # the draw: the real parts of the channels and of the pilot noise,
        # the phase steps, and one UE's pilot angle, its factor exp(i angle)
        # and its transmission
        "h": (((c, K, L, N), float),),
        "ue steps": (((c, K, drawn), float),),
        "ap steps": (((c, L, drawn), float),),
        "z": (((c, S, L, N), float),),
        "pilot": (((L, c), float), ((L, c), complex), ((L, N, c), complex)),
        # the negated phases at the kept instants, from which a chunk forms
        # its phase factors
        "-ue": (((K, M, c), float),),
        "-ap": (((L, M, c), float),),
        # a slice (``_accumulate``): the link products' work; the common
        # precoder v_c and its work; the common products' work; and at each
        # instant the phase products, the coherent precoders w (whose
        # region first holds the desired-signal products, which are summed
        # before w is formed), the coherent interference c and its work, and
        # the common one ec and its work
        "Y": (((K, S, L, r), complex),),
        "v_c": (((L, N, r), complex), ((L, N, r), complex)),
        "e": (((K, L, r), complex),),
        "instants": (((K, L, r), complex), ((K, L, r), complex), ((K, K, r), complex),
                     ((K, K, r), complex), ((K, r), complex), ((K, r), complex)),
    }


def _largest_layouts(draw: _ChunkDraw, c: int, r: int) -> dict[str, tuple]:
    """The largest layout a pass asks of each named workspace buffer, for
    its longest chunk of c and slice of r realizations.  ``_stream`` asks
    for each before a workspace's first draw, so every buffer is allocated
    once and never replaced.

    The phase buffers eu and ea first hold the draw's float paths at every
    sampled instant and then the complex factors at the kept ones, so each
    takes the larger of the two.
    """
    K, L, N, S = draw.shape
    drawn, M = len(draw.needed), draw.kept

    def larger(*layouts):
        return max(layouts, key=lambda layout: _Workspace.nbytes(*layout))

    return {
        "h": (((K, L, N, c), complex),),
        "z": (((S, L, N, c), complex),),
        "eu": larger((((K, drawn, c), float),), (((K, M, c), complex),)),
        "ea": larger((((L, drawn, c), float),), (((L, M, c), complex),)),
        "Y": (((K, S, L, r), complex),),
        "E": (((K, L, r), complex),),
        "scratch": larger(*_scratch_layouts(draw, c, r).values()),
    }


def _sum_products(pairs, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """sum_j a_j b_j over the (a_j, b_j) of ``pairs``, added in order: the
    first product is written into ``out``, each later one into ``work`` and
    added into ``out``."""
    pairs = iter(pairs)
    np.multiply(*next(pairs), out=out)
    for a, b in pairs:
        out += np.multiply(a, b, out=work)
    return out


def _sumsq(a: np.ndarray) -> np.ndarray:
    """sum of |a|^2 over the last axis, from one einsum over the float view
    of ``a``, whose last axis is contiguous, with no squared array in
    between.

    A plain einsum (no ``optimize``) rather than ``matmul``: a threaded BLAS
    splits long real dot products over its thread pool, whose wake-up can
    cost more than the dot, and its summation order depends on the kernel.
    """
    parts = a.view(float)
    return np.einsum("...r,...r->...", parts, parts)


@dataclass
class _Precoder:
    """A precoder that declared plans share: their private scheme, rho, mu,
    weights and eta are equal.  Its factors act on the filtered
    observations u and their link products Y (see ``_accumulate``), so they
    carry the co-pilot factor x and rot, which is conj(theta) for DF and 1
    for DU, since v_df = conj(theta) v_du.  ``plans`` indexes the declared
    plans that use it."""

    rho: float
    mu_x2: np.ndarray    # (K, L) mu x^2
    gain: np.ndarray     # (K, L) sqrt(mu) rot x
    eta_omega: np.ndarray  # (S, L) sqrt(eta) sum over the set's UEs of a rot x (a: weights)
    plans: list[int]


def _share(plans, theta: np.ndarray, x: np.ndarray, pilots: PilotAssignment) -> list[_Precoder]:
    """The distinct precoders of ``plans``, which are compared by value;
    x is the co-pilot factor of the statistics."""
    precoders = {}
    for i, plan in enumerate(plans):
        key = (plan.private_scheme, plan.rho,
               *(arr.tobytes() for arr in (plan.mu, plan.weights, plan.eta)))
        if key not in precoders:
            rot_x = (np.conj(theta) if plan.private_scheme == "df_mr" else 1.0) * x
            precoders[key] = _Precoder(
                rho=plan.rho, mu_x2=plan.mu * x**2,
                gain=np.sqrt(plan.mu) * rot_x,
                eta_omega=np.sqrt(plan.eta) * pilots.set_sums(plan.weights * rot_x), plans=[])
        precoders[key].plans.append(i)
    return list(precoders.values())


def _stream(net, pilots, stats, phases, config, count, seed, instants, plans) -> list[_BlockSums]:
    """Per-group sums of every term of every plan at the instants, and of
    its per-AP transmit power, from one pass over ``count`` realizations
    drawn from ``seed`` (see ``_ChunkDraw``).

    Each RNG chunk runs on a worker of ``_map``, inside a workspace that
    the worker keeps for the whole pass: at most one is built per worker,
    and each chunk first asks every named buffer for the largest layout of
    the pass (``_largest_layouts``), so each buffer is allocated once, in
    the workspace's first chunk, and no view outlives the buffer it was
    cut from.  Every array of the pass has its realization axis last.  A
    chunk draws its realizations into the workspace, the phase paths into
    the buffers of their factors eu and ea; turns the paths' kept columns
    into those factors, each once its columns are negated into the
    scratch; turns the channels h into gh = conj(theta h) in place; and
    cuts itself into the slices of ``_chunk_slices``.  Each slice filters
    its slice of the pilot signal, drawn in set order, into one
    observation per co-pilot set (``_CopilotSets.filter``), written over
    that slice of z; then ``_accumulate`` shares its work at three levels:
    the link products and their plan-free moments once per slice; the
    power and common-precoder products once per distinct precoder
    (``_share``), one precoder at a time; and only its transmission's
    interference terms once per plan.  A plan's sums do not depend on
    which other plans were declared with it.  Each slice adds into the
    chunk's partial sums, one row per group the chunk touches, and the
    caller's thread folds the partials into the group rows in chunk order.

    Memory: a worker's workspace holds seven buffers, h, z, eu, ea, Y, E
    and the scratch, each allocated once; E holds one precoder's common
    products, however many precoders the plans have.  Beyond the desk
    scale it is dominated by the chunk arrays h and z and the draw's
    scratch, which hold up to K L N min(``RNG_CHUNK``, count) entries each.
    With ``cfrs validate``'s three instants, the layouts sum to 4.7 MiB at
    2e4 realizations and 6.4 MiB at 1e5 on the 4/2/2/2 desk, and at 2e4 to
    92 MiB at 40/8/2/4, 854 MiB at 100/16/4/8 and 2.9 GiB at 200/32/4/8,
    per worker.
    """
    K, L, N = net.K, net.L, net.N
    for plan in plans:
        check_plan_shapes(plan, K, L)
    counts, chunks = _chunk_slices(count, K, L)
    draw = _ChunkDraw(net, pilots, phases, config, count, seed, instants)
    M = draw.kept
    # every pilot instant lies before the estimation instant, so the kept
    # instants are the last M the draw samples phases at
    assert draw.needed[-M:] == list(instants)
    sets = _CopilotSets(pilots, stats, net.lam)
    precoders = _share(plans, net.theta, stats.x, pilots)
    largest = _largest_layouts(draw, min(count, RNG_CHUNK),
                               max(sl.stop - sl.start for pieces in chunks for _, sl in pieces))
    conj_theta = np.conj(net.theta)[:, :, None, None]
    idle = []  # workspaces no chunk is running in

    def zeros(rows: int) -> list[_BlockSums]:
        return [_BlockSums.zeros(rows, M, K, L, plan.transmission == "coherent")
                for plan in plans]

    def run(chunk: int) -> tuple[int, list[_BlockSums]]:
        try:
            ws = idle.pop()
        except IndexError:  # at most one per worker, as at most one chunk runs on each
            ws = _Workspace()
        try:
            for name, layout in largest.items():  # allocates each buffer once
                ws.get(name, *layout)
            h, z, ue, ap = draw(chunk, ws)
            c = h.shape[-1]
            scratch = _scratch_layouts(draw, c)
            # the phase factors exp(-i phase) (K, M, c) and (L, M, c) at the
            # instants, each written over its path once the path's kept
            # columns are negated into the scratch
            factors = []
            for name, path, negated in (("eu", ue, "-ue"), ("ea", ap, "-ap")):
                angle = np.negative(path[:, -M:], out=ws.get("scratch", *scratch[negated]))
                factors.append(_phasor(angle, out=ws.get(name, (angle.shape, complex))))
            eu, ea = factors
            gh = np.multiply(conj_theta, np.conjugate(h, out=h), out=h)
            slices = chunks[chunk]
            first = slices[0][0]
            partial = zeros(slices[-1][0] - first + 1)
            for b, sl in slices:
                # the observations overwrite their slice of the pilot signal
                u = sets.filter(z[..., sl], z[..., sl])
                _accumulate(partial, b - first, precoders, sets, config, gh[..., sl], u,
                            eu[..., sl], ea[..., sl], ws,
                            _scratch_layouts(draw, c, sl.stop - sl.start))
            return first, partial
        finally:
            idle.append(ws)

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


def _accumulate(sums: list[_BlockSums], b: int, precoders: list[_Precoder],
                sets: _CopilotSets, config: SystemConfig, gh: np.ndarray, u: np.ndarray,
                eu: np.ndarray, ea: np.ndarray, ws: _Workspace, scratch: dict) -> None:
    """Add one slice's terms at the instants, and its per-AP transmit powers,
    into row b of every plan's sums; every array with a realization axis is
    a view into the workspace ``ws``, with the r realizations on its last
    axis, and ``scratch`` holds the slice's scratch layouts
    (``_scratch_layouts``).

    The effective channel is g[k,l] = theta[k,l] exp(i(ue[k] + ap[l])) h[k,l]
    and the DU precoder is v[i,l] = x[i,l] u[P_i,l] (``_CopilotSets``), so
    each link-precoder product factors as

        conj(g[k,l]) v[i,l] = eu[k] ea[l] x[i,l] Y[k,P_i,l],
        Y[k,P,l] = sum_n gh[k,l,n] u[P,l,n],  gh = conj(theta h),

    with the unit-modulus phase factors eu = exp(-i ue) (K, M, r) per UE and
    ea = exp(-i ap) (L, M, r) per AP.  The DF precoders are v_df =
    conj(theta) v_du, so every DF term is a DU product with the rotation
    folded into the plan's factors (``_Precoder``).  Y has one column per
    co-pilot set, not per UE, and every term reads it through x:

    * once per slice, plan-free: Y, the observation power sum |u|^2, and at
      every instant, before any precoder, the phase products eu[k] ea[l]
      and the private desired-signal moment D[k,l] = sum_r eu[k] ea[l]
      Y[k,P_k,l];
    * once per precoder, one after another: its power (mu x^2 |u|^2 per
      private precoder and |v_c|^2 with the common precoder v_c[l] =
      sqrt(eta[l]) sum_P Omega[P,l] u[P,l], its power normalization folded
      in), the common-precoder products E[k,l] = sqrt(eta[l]) sum_P
      Omega[P,l] Y[k,P,l], written over the previous precoder's, the
      private desired signal sqrt(mu) rot x D and the common one,
      sum_r eu ea E, with the phase products formed again at each instant;
    * once per plan: its transmission's interference.  |eu| = 1 drops the
      per-UE factor from every interference term.  The non-coherent one is
      mu x^2 |Y|^2 summed over APs and has no phase at all, so it is the
      same at every instant and is summed once per slice; the coherent one,
      c[k,i] = sum_l Y[k,P_i,l] (sqrt(mu) rot x)[i,l] ea[l], is formed one
      co-pilot stack at a time from views of Y, with its UEs set by set.

    Every product is written into a workspace array and every sum of
    products added into one, in the order a sum of fresh arrays would take,
    and each plan's sums receive the same products in the same order
    whichever precoders come before its own.  Only Y and the common
    products E of one precoder have buffers of their own, and u is
    the slice of the pilot signal it was filtered over; every other array
    of a slice is a view of the scratch layout of its step.  Each sum
    of squares over the realizations is one ``einsum`` over the float view
    (``_sumsq``), which forms no squared array.  The desired-signal sums
    stay a complex product and ``sum``: numpy's complex ``einsum`` holds
    the GIL, which would serialize ``_map``'s workers.  No array has two UE
    axes and an AP axis, and no sum is a matrix product.
    """
    K, L, N, r = gh.shape
    S = len(u)
    Y = _sum_products(((gh[:, None, :, n], u[None, :, :, n]) for n in range(N)),
                      ws.get("Y", ((K, S, L, r), complex)), ws.get("scratch", *scratch["Y"]))
    of = sets.pilots.set_of
    u_power = _sumsq(u).sum(axis=-1)[of]  # (K, L): sum |u[P_i]|^2
    # (K, K, L): sum_r |Y[k,P_i,l]|^2
    Y_power = _sumsq(Y)[:, of] if any(not s.coherent for s in sums) else None
    phase_, w_, c_, c_work, ec_, ec_work = ws.get("scratch", *scratch["instants"])
    work = w_  # D's and ds_c's products, summed before w is formed
    # w and c list their UEs i set by set, c[i,k] = sum_l Y[k,P_i,l] w[i,l]: per
    # stack, Y's (S_c, 1, K, L, r) view and w's, c's and c's work's by set and UE
    stacks = [(np.moveaxis(Y[:, set_range], 1, 0)[:, None],
               w_[ue_range].reshape(*idx.shape, 1, L, r), c_[ue_range].reshape(*idx.shape, K, r),
               c_work[ue_range].reshape(*idx.shape, K, r))
              for idx, set_range, ue_range in sets.stacks]
    instants = range(eu.shape[1])
    D = []
    for m in instants:
        phase = np.multiply(eu[:, m, None], ea[:, m], out=phase_)  # (K, L, r)
        for k, s in enumerate(of):  # eu[k] ea Y[k,P_k]
            np.multiply(phase[k], Y[k, s], out=work[k])
        D.append(np.sum(work, axis=-1))
    e_ = ws.get("E", ((K, L, r), complex))
    for pre in precoders:
        # the precoder's v_c and e steps reuse the instants' scratch region,
        # whose views each instant below writes before it reads them
        power = (1.0 - pre.rho) * config.p_d * np.sum(pre.mu_x2 * u_power, axis=0)
        e = None
        if pre.rho > 0:
            v_c = _sum_products(((pre.eta_omega[s, :, None, None], u[s]) for s in range(S)),
                                *ws.get("scratch", *scratch["v_c"]))
            power += pre.rho * config.p_d * _sumsq(v_c).sum(axis=-1)
            e = _sum_products(((pre.eta_omega[s, :, None], Y[:, s]) for s in range(S)), e_,
                              ws.get("scratch", *scratch["e"]))  # (K, L, r)
        for j in pre.plans:
            out = sums[j]
            out.power[b] += power
            if not out.coherent:
                out.int_p[b] += np.sum(pre.mu_x2 * Y_power, axis=-1)
                if e is not None:
                    out.int_c[b] += np.sum(_sumsq(e), axis=-1)
        for m in instants:
            ea_m = ea[:, m]  # (L, r)
            ds_p = pre.gain * D[m]
            ds_c = None
            if e is not None:
                phase = np.multiply(eu[:, m, None], ea_m, out=phase_)
                ds_c = np.sum(np.multiply(phase, e, out=work), axis=-1)
            for j in pre.plans:
                out = sums[j]
                out.ds_p[b, m] += ds_p
                if e is not None:
                    out.ds_c[b, m] += ds_c
                if out.coherent:
                    np.multiply(pre.gain[sets.order, :, None], ea_m, out=w_)
                    for Ys, w, c, work_c in stacks:
                        _sum_products(((Ys[..., l, :], w[..., l, :]) for l in range(L)), c, work_c)
                    out.int_p[b, m] += _sumsq(c_)[sets.rank].T
                    if e is not None:
                        ec = _sum_products(((e[:, l], ea_m[l]) for l in range(L)),
                                           ec_, ec_work)  # (K, r)
                        out.int_c[b, m] += _sumsq(ec)


def _sinr(means, coherent: bool, plan, config):
    """(private, common) SINRs (K, R) from R rows of term means through one
    ``assemble`` call.

    ``means`` is (ds_p, int_p, ds_c, int_c) at one instant, each with the
    R rows on its first axis.  The measured terms already carry the phase
    decay, so eaeu is one; the desired-signal coefficient is
    |sum_l ds|^2 (coherent) or sum_l |ds|^2 (non-coherent), and the common
    interference excludes its own desired part.  ``assemble`` works
    elementwise, so each row's SINRs are those of that row alone.
    """
    ds_p, int_p, ds_c, int_c = means
    if coherent:
        sig_p, sig_c = (np.abs(ds.sum(axis=-1)) ** 2 for ds in (ds_p, ds_c))
    else:
        sig_p, sig_c = (np.sum(np.abs(ds) ** 2, axis=-1) for ds in (ds_p, ds_c))
    parts = PlanParts(eaeu=np.ones((len(ds_p), 1)), xi=int_p.sum(axis=-1), sig_private=sig_p,
                      sig_common=sig_c, gamma=int_c - sig_c, p_d=config.p_d,
                      sigma2=config.sigma2_dl)
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
    # row 0: the full means; rows 1..B: the delete-one means
    sinrs = np.stack(_sinr([np.concatenate([mean[None], drop]) for mean, drop in terms],
                           sums.coherent, plan, config))  # (2, K, B + 1)
    B = len(sums.counts)
    loo = np.ascontiguousarray(sinrs[:, :, 1:].transpose(2, 0, 1))  # (B, 2, K)
    est = B * sinrs[:, :, 0] - (B - 1) * loo.mean(axis=0)
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
