"""Iteration engines: runs, their records and their probes.

Asynchronous engine: at each iteration one partition block fires; the
owning x components re-solve their local subproblems against the full
current (p, z), the active z rows re-fit against the refreshed coupling
values, and the active dual rows take a residual step of size beta. All
other coordinates are frozen. The block update and the table it reads
are ``compiled``'s; this module schedules the kernel's calls and records
what they leave, reading a table only through its row interface.

Run loop: ``run_batch`` is the one loop (``run`` is its one-seed form).
It fires blocks as lanes on one ``(S, width)`` state: many seeds in
lockstep, one lane per seed per iteration; one seed by dependency level
(``_levels``: blocks that share no component commute) when its record
segments hold ``_LEVEL_SEGMENT`` draws or more, else in lockstep too.
A chunk of uniforms becomes blocks by a bucketed inverse CDF
(``scheduler.blocks_for``), and one seed's blocks become levels by one
stable sort of their components and one in-place round per level.
The kernel performs the floating-point operations of a
component-by-component block update in its order, so each seed's
metrics equal chained ``step`` calls bit for bit. The ergodic probe
alone keeps ergodic sums, lazily: per coordinate just before it moves,
and for every x and z coordinate at a record (the p sums are never
read). The serial run defines a failure:
a run that raises (a divergence or a term's error) is run again seed by
seed, in seed order, one draw per call, and the first seed that fails
alone raises its own first error.
A record point is one stacked evaluation of every seed's metrics over
the ``(S, ·)`` rows, a program of in-place array operations bound once
per run and replayed (``_Recorder``). Its reduction contract: a row of a
stack reduces to the same bits as the 1-D call on that row, so dot
products and norms are ``np.vecdot`` sums (what ``np.dot`` and
``np.linalg.norm`` compute), other sums reduce the last axis of a
C-contiguous array, and gathers are ``np.take(..., axis=1)``.

Shadow pass: the full-information iterates (y, v, mu) that a
fully-activated step would have produced from the same state; the
asynchronous iterates agree with them on the active coordinates, which
the probes verify. It is one synchronous step from that state. A run
keeps its seeds' pre-step states of up to 32 iterations (fewer past 1
MiB, ending at record points) and takes one pass and one check per
block: ``shadow_step`` runs the synchronous step on the stack of every
row, and ``_tally_shadow`` takes each lane's group maxima and compares
the rest of each row.

Synchronous engine: the classical two-block method (x, z, dual ascent
with step beta), O(problem) array operations an iteration, each row bit
for bit a component-by-component step: ``sync_admm_step`` and
``shadow_step`` copy their results out of ``compiled``'s one synchronous
step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from .errors import DivergenceError, MissingReference, ValidationError
from .problem import (PrimalDualState, SeparableProblem, initial_state,
                      lyapunov_calls, objective, residual_calls)
from .compiled import _block_table, _fire_blocks, _fire_lanes, _Lanes, _ops
from .scheduler import (ActivationDistribution, ProperPartition, RngStream,
                        _offsets, blocks_for, draw_uniforms, sample_block)

DIVERGENCE_LIMIT = 1e12


@dataclass(eq=False)
class ShadowIterates:
    """Full-information iterates computed from one state: r = D y + H v."""

    y: np.ndarray
    v: np.ndarray
    mu: np.ndarray
    r: np.ndarray


@dataclass(eq=False)
class StepRecord:
    """One asynchronous step: the sampled block and the states around it."""

    block: int
    before: PrimalDualState
    after: PrimalDualState


def shadow_step(prob: SeparableProblem, state: PrimalDualState) -> ShadowIterates:
    """Full-information iterates (y, v, mu) from the given state: one
    point, or one per row (``z``, ``p`` of shape ``(S, W)``), each row bit
    for bit the 1-D pass from it: copies of one synchronous step's output
    and ``r`` (``compiled._Stacked.run``)."""
    s = _ops(prob).stacked(np.shape(state.p)[:-1])
    y, v, mu = (a.copy() for a in s.run(state.z, state.p))
    return ShadowIterates(y=y, v=v, mu=mu, r=s.r.copy())


def step(prob: SeparableProblem, state: PrimalDualState,
         partition: ProperPartition, dist: ActivationDistribution,
         rng: RngStream) -> StepRecord:
    """One asynchronous iteration: sample a block, update x, z, p in order.

    The input state is left as it is: the block fires on a new row
    (``compiled._fire_blocks``), and the new x, z and p are views of it.
    """
    b = sample_block(dist, rng)
    x, z, p = _fire_blocks(prob, partition, state, np.array([b]))
    return StepRecord(block=b, before=state,
                      after=PrimalDualState(x=x, z=z, p=p, k=state.k + 1))


def sync_admm_step(prob: SeparableProblem,
                   state: PrimalDualState) -> PrimalDualState:
    """One synchronous two-block iteration (x, then z, then dual ascent),
    copied out of the one-point step (``compiled._Stacked.run``) that
    :func:`shadow_step` runs, so it is its shadow pass bit for bit."""
    out = _ops(prob).stacked(()).run(state.z, state.p)
    return PrimalDualState(*(a.copy() for a in out), k=state.k + 1)


@dataclass(frozen=True)
class ProbeFlags:
    """Which optional quantities a run records: the shadow-pass and freeze
    checks (counters), the Lyapunov column (needs a dual reference) and
    the ergodic columns and means (``RunMetrics.x_bar``, ``z_bar``; the
    lazy sums behind them are kept only then). All off by default."""

    shadow: bool = False
    lyapunov: bool = False
    ergodic: bool = False


@dataclass(eq=False)
class RunMetrics:
    """Per-iteration trajectory summary of one seeded run; ``x_bar`` and
    ``z_bar`` (the ergodic means at ``T``) are NaN without that probe."""

    seed: int
    iters: np.ndarray
    objective: np.ndarray
    objective_error: np.ndarray
    feasibility: np.ndarray
    ergodic_objective_error: np.ndarray
    ergodic_feasibility: np.ndarray
    lyapunov: np.ndarray
    active_block: np.ndarray
    final_state: PrimalDualState
    x_bar: np.ndarray
    z_bar: np.ndarray
    counters: dict = field(default_factory=dict)
    x_max_abs: float = 0.0
    z_max_abs: float = 0.0
    p_max_abs: float = 0.0

    COLUMNS = ("iter", "objective", "objective_error", "feasibility_violation",
               "ergodic_objective_error", "ergodic_feasibility", "lyapunov",
               "active_block")


class _Recorder:
    """The values a run records for every seed, one column per record point.

    ``values[s]`` holds seed ``s``'s recorded series, each a contiguous
    row (:meth:`metrics` names them). :meth:`bind` binds one stacked
    evaluation of every seed's metrics to the run's ``(S, ·)`` views,
    under the reduction contract of the module docstring, and :meth:`add`
    replays it for one column.
    """

    def __init__(self, prob, dist, probes, ref, f_star, S, T, stride):
        self.prob, self.probes, self.ref = prob, probes, ref
        self.f_star = np.array(f_star)
        self.wd = dist.weight_diag
        count = -(-T // stride)   # every stride-th iteration, and T
        try:
            self.values = np.full((S, 6, count), np.nan)
            self.iters = np.empty(count, dtype=np.intp)
            self.blocks = np.empty((S, count), dtype=np.intp)
        except (ValueError, MemoryError):
            raise ValidationError(
                f"T = {T} with stride {stride} records {count} points per "
                "seed, more than memory holds: raise stride or lower T"
            ) from None
        self.count = 0

    def bind(self, xs, zs, ps, x_sums, z_sums):
        """Bind a record point to the iterates ``xs``, ``zs``, ``ps`` and
        the ergodic sums over iterations 1..k (``x_sums``, ``z_sums``),
        whose means (the sums over ``k``, a 0-d array that :meth:`add`
        sets) are more rows of the same stack: the objective by kind
        (:meth:`TermGroups.calls`), its error, the residual
        (:func:`residual_calls`) and its ``np.vecdot`` norm, and the
        Lyapunov rows (:func:`lyapunov_calls`), into scratch made once."""
        prob, probes, S = self.prob, self.probes, len(xs)
        self.k = np.zeros(())
        # one column of values after the means' objective, which is not
        # kept: the objective, ergodic objective error, objective error,
        # ergodic feasibility, feasibility and Lyapunov value. So each of
        # the objective, its error and the feasibility is one (E S,) row
        # over the stack's rows: the means' (with the probe), then the
        # iterates'.
        self.col = col = np.full((7, S), np.nan)
        # the stack's rows, made contiguous: every operation then runs
        # unbuffered, with no temporaries
        E = 2 if probes.ergodic else 1
        xr, zr = np.empty((E * S, prob.dim_x)), np.empty((E * S, prob.dim_z))
        calls = [(np.copyto, (xr[-S:], xs)), (np.copyto, (zr[-S:], zs))]
        if probes.ergodic:
            calls += [(np.copyto, (xr[:S], x_sums)),
                      (np.divide, (xr[:S], self.k, xr[:S])),
                      (np.copyto, (zr[:S], z_sums)),
                      (np.divide, (zr[:S], self.k, zr[:S]))]
        obj, err, feas = (col[i + 1 - E:i + 1].reshape(-1) for i in (1, 3, 5))
        r = np.empty(zr.shape)
        calls += prob.groups.calls(xr, obj)
        calls += [(np.subtract, (obj, self.f_star, err)), (np.abs, (err, err))]
        calls += residual_calls(prob, xr, zr, r)
        calls += [(np.vecdot, (r, r, feas)), (np.sqrt, (feas, feas))]
        if probes.lyapunov:
            pr = np.empty((S, prob.dim_z))
            calls += [(np.copyto, (pr, ps))]
            calls += lyapunov_calls(prob, self.wd, self.ref, zr[-S:], pr,
                                    col[6])
        self.program = tuple(calls)

    def add(self, k, blocks):
        """Record iteration k, where seed s fired ``blocks[s]``: the bound
        evaluation replayed, then copied into the next column."""
        j = self.count
        self.k[...] = k
        for f, args in self.program:
            f(*args)
        np.copyto(self.values[:, :, j], self.col[1:].T)
        self.iters[j] = k
        self.blocks[:, j] = blocks
        self.count = j + 1

    def metrics(self, s, seed, T, x, z, p, x_sum, z_sum, counters,
                maxima) -> "RunMetrics":
        x_max, z_max, p_max = maxima
        obj, eobj, objerr, efeas, feas, lyap = self.values[s]
        x_bar, z_bar = (a / T if self.probes.ergodic else
                        np.full_like(a, np.nan) for a in (x_sum, z_sum))
        return RunMetrics(
            seed=seed, iters=self.iters.copy(), objective=obj,
            objective_error=objerr, feasibility=feas,
            ergodic_objective_error=eobj, ergodic_feasibility=efeas,
            lyapunov=lyap, active_block=self.blocks[s],
            final_state=PrimalDualState(x=x.copy(), z=z.copy(), p=p.copy(),
                                        k=T),
            x_bar=x_bar, z_bar=z_bar, counters=counters,
            x_max_abs=x_max, z_max_abs=z_max, p_max_abs=p_max)


def _guard_message(hot, k, seed, b):
    """Why a block's max |x|, |z|, |p| (``hot``) fails the guard, or None."""
    x_hot, z_hot, p_hot = hot.tolist()
    if (x_hot <= DIVERGENCE_LIMIT and z_hot <= DIVERGENCE_LIMIT
            and p_hot <= DIVERGENCE_LIMIT):
        return None
    what = (f"iterate magnitude {hot.max():.3e} exceeded guard"
            if np.all(np.isfinite(hot)) else "non-finite iterate")
    return f"{what} at iteration {k} (seed {seed}, block {b})"


# uniforms drawn per chunk: bounds the draw arrays of long or wide runs, and
# a lone seed's levels per plan (about 10 on the 2,000-cycle)
_DRAW_CHUNK = 1 << 11
# the shortest record segment a lone seed fires by level; shorter ones fire
# one draw per call of the bound kernel, which costs less than _levels and
# the unbound kernel's calls on so few draws
_LEVEL_SEGMENT = 8


def _history_rows(width: int) -> int:
    """The rows a history of ``width`` floats per row adds to its first:
    32, fewer when the history would pass 1 MiB, and at least one."""
    return max(1, min(32, (1 << 20) // (8 * width) - 1))


def run(prob: SeparableProblem, partition: ProperPartition,
        dist: ActivationDistribution, seed: int, T: int,
        probes: Optional[ProbeFlags] = None, ref=None,
        x0=None, z0=None, stride: int = 1) -> RunMetrics:
    """Execute T asynchronous steps and record metrics every ``stride`` iters.

    ``ref`` (a diagnostics reference solution) enables objective-error and
    Lyapunov columns; without it those columns are NaN. Aborts with
    :class:`DivergenceError` when iterates exceed the divergence guard.
    This is :func:`run_batch` of the one seed.
    """
    return run_batch(prob, partition, dist, [seed], T, probes=probes,
                     ref=ref, x0=x0, z0=z0, stride=stride)[0]


def _levels(partition: ProperPartition, draws):
    """One seed's draws (block ids, in draw order) in dependency-level
    order: the draws' positions, level by level and in draw order within
    a level, and the end of each level among them (a list).

    Two draws clash when their blocks share a component: a block writes
    its components' x and its rows' z and p, and reads the z and p of
    every row its components own, and the owners of its rows are its
    components. A draw's level is one more than the highest level among
    the earlier draws it clashes with, or 0 when there is none. The draws
    of one level share no component, so they commute and fire as one
    kernel call; levels in increasing order keep every pair of clashing
    draws in draw order, which gives the serial result bit for bit.

    The earlier draws that touch one component clash with each other, so
    the latest of them has the highest level: a draw depends only on the
    latest earlier draw of each of its components, found for every (draw,
    component) pair by one stable sort of the components (their pairs
    stay in draw order). The levels then follow from one vectorized round
    per level, in place in scratch made once per call; a segment with
    more than one level per 32 draws, where those rounds would cost more,
    takes one pass in draw order instead. The draws touching one
    component clash in a chain, so the most draws on one component bound
    the level count from below: a segment whose bound is already past one
    level per 32 draws goes straight to that pass.
    """
    L = draws.size
    first = partition.comp_ptr[draws]
    count = partition.comp_ptr[draws + 1] - first
    ptr = _offsets(count)
    draw = np.repeat(np.arange(L), count)   # per (draw, component) pair
    comp = partition.comps.take((first - ptr[:-1])[draw] + np.arange(ptr[-1]))
    # each pair's predecessor: the latest earlier draw of its component,
    # or L (whose level is -1) when there is none. 8- and 16-bit keys take
    # numpy's radix sort, whose stable order keeps each component's pairs
    # in draw order
    key = comp.astype(np.min_scalar_type(partition.num_components))
    order = np.argsort(key, kind="stable")
    c, d = key.take(order), draw.take(order)
    pred = np.full_like(draw, L)
    pred[order[1:]] = np.where(c[1:] == c[:-1], d[:-1], L)
    level = np.append(np.zeros(L, dtype=np.intp), -1)
    rounds = L // 32
    if rounds and np.bincount(comp).max() > rounds:
        rounds = 0   # the draws on one component need more levels
    # after round r each draw's level is min(its level, r), so the rounds
    # end at the first r that no draw reaches. Draw j's pairs are raised
    # by j (L + 1), above every earlier draw's, so a running maximum ends
    # each draw's pairs at their own maximum.
    off, last = draw * (L + 1), ptr[1:] - 1
    sub = np.arange(L) * (L + 1) - 1
    run, lv = np.empty_like(draw), level[:L]
    for r in range(1, rounds + 1):
        level.take(pred, out=run, mode="clip")
        run += off
        np.maximum.accumulate(run, out=run)
        run.take(last, out=lv, mode="clip")
        lv -= sub
        if lv.max() < r:
            break
    else:
        # every predecessor is an earlier draw
        lev, pred, ptr = level.tolist(), pred.tolist(), ptr.tolist()
        for j in range(L):
            lev[j] = max(map(lev.__getitem__, pred[ptr[j]:ptr[j + 1]])) + 1
        level = np.array(lev)
    level = level[:L]
    order = np.argsort(level.astype(np.min_scalar_type(L)), kind="stable")
    return order, np.cumsum(np.bincount(level)).tolist()


def run_batch(prob: SeparableProblem, partition: ProperPartition,
              dist: ActivationDistribution, seeds, T: int,
              probes: Optional[ProbeFlags] = None, ref=None,
              x0=None, z0=None, stride: int = 1) -> list:
    """Run every seed in lockstep; element s is the run of ``seeds[s]``.

    All seeds share one ``(S, width)`` state laid out by the partition's
    table (``compiled._block_table``), and every block update is one call
    of the block kernel (``compiled._fire_lanes``), whatever the terms and
    the partition. Each call fires lanes, each a (seed, block, iteration)
    triple: with several seeds, one lane per seed per iteration, each seed
    drawing from its own SplitMix64 stream, through the kernel bound once
    for the run (``compiled._Lanes``); with one seed whose record
    segments hold ``_LEVEL_SEGMENT`` draws or more, one dependency level
    of its draws between two record points (:func:`_levels`), each lane
    at its own iteration, and with shorter ones in lockstep; with the
    shadow probe, in lockstep (a lone seed too), and per block of
    iterations one shadow pass from every seed's pre-step states
    (:func:`shadow_step`) and one check of their steps against it
    (:func:`_tally_shadow`); its error at iteration k never pre-empts the
    run's own error at k. Every field of each seed's
    metrics equals that of ``T`` chained :func:`step` calls bit for bit.

    The serial run defines a failure: when this attempt raises anything,
    each seed runs again alone, in ``seeds`` order, one draw per call, and
    the first that fails raises its own error, the first of its chained
    :func:`step` calls; if none fails, the attempt's error is raised. The
    rerun fires in lockstep, one lane per call, and draws its blocks in
    chunks as the attempt does. A lone seed not run by level is already
    serial, so its error is raised as it is.
    Every record point replays the recorder bound to the run's rows
    (:meth:`_Recorder.bind`).
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    probes = probes or ProbeFlags()
    if probes.lyapunov and (ref is None or ref.p is None):
        raise MissingReference("lyapunov probe requires a dual reference")
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seeds must be nonempty")
    bt = _block_table(prob, partition)
    start = initial_state(prob, x0, z0)
    maxima = [float(np.max(np.abs(v), initial=0.0))
              for v in (start.x, start.z, start.p)]
    if not (maxima[0] <= DIVERGENCE_LIMIT and maxima[1] <= DIVERGENCE_LIMIT):
        raise DivergenceError(f"initial state magnitude (x {maxima[0]:.3e}, "
                              f"z {maxima[1]:.3e}) exceeds the divergence "
                              "guard")
    f_star = objective(prob, ref.x) if ref is not None else np.nan
    run_seeds = partial(_run_lanes, prob, partition, dist, bt, start, maxima,
                        T, stride, probes)
    # made before the attempt, so that records past memory are refused once
    rec = _Recorder(prob, dist, probes, ref, f_star, len(seeds), T, stride)
    by_level = (len(seeds) == 1 and not probes.shadow
                and min(stride, T) >= _LEVEL_SEGMENT)
    try:
        return run_seeds(seeds, rec, by_level)
    except Exception as exc:
        if len(seeds) == 1 and not by_level:
            raise   # the attempt was the serial run
        error = exc
    for seed in seeds:
        run_seeds([seed], _Recorder(prob, dist, probes, ref, f_star, 1, T,
                                    stride), False)
    raise error


def _run_lanes(prob, partition, dist, bt, start, maxima, T, stride, probes,
               seeds, rec, by_level) -> list:
    """The runs of ``seeds`` from ``start``, recorded in ``rec`` (bound
    here to the run's views): in lockstep, or (``by_level``, one seed)
    one dependency level of the seed's draws per call. Only with the
    ergodic probe do calls and records keep the lazy ergodic sums; a
    record flushes them with calls bound once. A call past the guard
    raises :class:`DivergenceError` for its first such lane. The running maxima
    are per moved slot and lane, ``(M, S)``, reduced by ``bt.cuts`` at
    the end; a raising call may leave its values, but nothing reports
    them."""
    S = len(seeds)
    # one row per seed: its state, then its lazy ergodic sums' since and acc
    state = np.tile(bt.layout(start.x, start.z, start.p), (S, 1))
    xs, zs, ps = bt.views(state)
    since, acc = state[:, bt.seg:2 * bt.seg], state[:, 2 * bt.seg:]
    x_sums, z_sums, _ = bt.views(acc)
    flat = state.reshape(-1)
    maxima = np.repeat(maxima, [bt.Cn, bt.R, bt.R])[:, None].repeat(S, 1)
    ergodic = probes.ergodic
    tally = np.zeros((S, len(_TALLY)), dtype=np.intp)
    # a lockstep block's pre-step states and the state after it, its passes
    K = _history_rows(S * bt.width) if probes.shadow else _DRAW_CHUNK
    if probes.shadow:
        hist = np.empty((K + 1, S, bt.width))
        target = np.zeros((K, S, bt.width))

    rec.bind(xs, zs, ps, x_sums, z_sums)
    # the ergodic flush up to a kept 0-d iteration: only the x and z sums
    # are read, so p's are not flushed (acc += (k - since) * state, since = k)
    flush, k1 = (), np.zeros(())
    if ergodic:
        xz = np.s_[:, :bt.p0]
        gap = np.empty((S, bt.p0))
        flush = ((np.subtract, (k1, since[xz], gap)),
                 (np.multiply, (gap, state[xz], gap)),
                 (np.add, (acc[xz], gap, acc[xz])),
                 (np.copyto, (since[xz], k1)))

    def record(it, fired):
        """Record iteration ``it`` if it is a record point."""
        if it % stride and it != T:
            return
        k1[...] = it + 1
        for f, args in flush:
            f(*args)
        rec.add(it, fired)

    def lockstep(blocks, k, a, n):
        """Fire draws a..a+n-1 of the chunk after iteration k, a call each;
        then their shadow pass and check. On an error, the passes before it
        run first, one at a time, so that the serial first error is raised."""
        try:
            for r in range(n):
                j = a + r
                if probes.shadow:
                    hist[r] = state
                mag = kernel.fire(blocks[j], k + j + 1 if ergodic else None)
                r += 1   # iteration j's pass comes before its guard
                if not kernel.top.item() <= DIVERGENCE_LIMIT:
                    raise _divergence(bt, mag, k + j + 1, seeds, blocks[j])
            if probes.shadow:
                hist[n] = state
                sh = shadow_step(prob, PrimalDualState(
                    *bt.views(hist[:n].reshape(n * S, -1))))
                for view, part in zip(bt.views(target), (sh.y, sh.v, sh.mu)):
                    view[:n] = part.reshape(n, S, -1)
                _tally_shadow(bt, blocks[a:a + n], hist[:n + 1], target[:n],
                              tally, ergodic)
        except Exception:
            for row in hist[:r] if probes.shadow else ():
                shadow_step(prob, PrimalDualState(*bt.views(row)))
            raise

    kernel = None if by_level else _Lanes(bt, flat, S, maxima, ergodic)
    rngs = [RngStream(seed) for seed in seeds]
    per_chunk = _DRAW_CHUNK
    if probes.shadow and stride < per_chunk:
        per_chunk -= per_chunk % stride   # so that blocks end at records
    k = chunk = 0   # draws k..k+chunk-1
    while k + chunk < T:
        k += chunk
        chunk = min(per_chunk, T - k)
        blocks = blocks_for(dist, draw_uniforms(rngs, chunk))
        lo = 0
        for hi in [*range((k // stride + 1) * stride - k, chunk, stride),
                   chunk]:
            if not by_level:
                for a in range(lo, hi, K):
                    lockstep(blocks, k, a, min(K, hi - a))
            else:   # draws lo..hi-1 in level order, one call per level
                at, ends = _levels(partition, blocks[lo:hi, 0])
                fired, iters = blocks[lo:hi, 0].take(at), at + (k + 1 + lo)
                a = 0
                for b in ends:
                    mag = _fire_lanes(bt, flat, fired[a:b],
                                      iters[a:b] if ergodic else None)
                    # the seed's maxima, within the guard before this call
                    np.maximum(maxima, mag.max(1, keepdims=True), out=maxima)
                    if not maxima.max() <= DIVERGENCE_LIMIT:   # NaN too
                        raise _divergence(bt, mag, iters[a:b], seeds,
                                          fired[a:b])
                    a = b
            record(k + hi, blocks[hi - 1])
            lo = hi
    maxima = np.maximum.reduceat(maxima, bt.cuts)
    return [rec.metrics(s, seed, T, xs[s], zs[s], ps[s], x_sums[s], z_sums[s],
                        {"steps": T, **dict(zip(_TALLY, tally[s].tolist()))},
                        tuple(maxima[:, s].tolist()))
            for s, seed in enumerate(seeds)]


def _divergence(bt, mag, iters, seeds, blocks) -> DivergenceError:
    """The error of a call's first lane past the guard (``mag``: its
    magnitudes): lane ``l`` fired ``blocks[l]`` of ``seeds[l % S]`` at
    ``iters[l]`` (or ``iters``)."""
    hot = np.maximum.reduceat(mag, bt.cuts)
    lane = int(np.argmin(np.all(hot <= DIVERGENCE_LIMIT, axis=0)))
    return DivergenceError(_guard_message(
        hot[:, lane], int(np.broadcast_to(iters, blocks.shape)[lane]),
        seeds[lane % len(seeds)], int(blocks[lane])))


SHADOW_TOL = 1e-9

# the shadow probe's counters, in the columns of a run's tally
_TALLY = ("shadow_checks", "shadow_failures", "freeze_checks",
          "freeze_failures")


def _tally_shadow(bt, blocks, hist, target, tally, ergodic):
    """Check every seed's steps in a block against its shadow passes and
    the freezes.

    ``hist[j]`` and ``hist[j+1]`` are the ``(S, width)`` states (``bt``'s
    layout) around the block's iteration ``j``, ``target[j]`` its shadow
    passes in that layout (zero in dummy slots) and ``blocks[j]`` the
    blocks it fired, one per seed; row ``s`` of ``tally`` holds seed
    ``s``'s counts (``_TALLY``). A step agrees when no group
    of moved coordinates (``bt.groups``: each component's x, the block's z
    rows, its p rows) differs from the shadow by more than ``SHADOW_TOL``
    at its largest (a NaN largest passes). It froze the rest when every
    slot of its row that the step does not write (the moved slots, and
    their ``since`` and ``acc`` when the run keeps ``ergodic`` sums) is
    unchanged (NaN is never unchanged).
    """
    n, S, width = target.shape
    # the written slots' flat indices into hist[1:], (n, M or 3 M, S)
    idx = np.ascontiguousarray(bt.written(blocks, ergodic).transpose(1, 0, 2))
    idx += (np.arange(n * S) * width).reshape(n, 1, S)
    mv = idx[:, :bt.M]
    gap = np.maximum.reduceat(np.abs(hist[1:].reshape(-1).take(mv)
                                     - target.reshape(-1).take(mv)),
                              bt.groups, axis=1)
    changed = hist[1:] != hist[:-1]
    changed.reshape(-1)[idx] = False
    tally[:, 0::2] += n
    tally[:, 1] += (gap > SHADOW_TOL).any(axis=1).sum(axis=0)
    tally[:, 3] += changed.any(axis=2).sum(axis=0)
