"""Iteration engines.

Asynchronous engine: at each iteration one partition block fires; the
owning x components re-solve their local subproblems against the full
current (p, z), the active z rows re-fit against the refreshed coupling
values, and the active dual rows take a residual step of size beta. All
other coordinates are frozen.

Step cost: one asynchronous step costs O(size of the block), not
O(size of the problem). There is one block update, the lane kernel
``_fire_lanes``: it fires one block per lane on rows of a flat state, in
place, through a per-partition block table that is built once in time
linear in the number of rows (``_BlockTable``). A row holds a seed's
state, then the ``since`` and ``acc`` of its lazy ergodic sums, so a call
makes one gather of everything it reads and one scatter of everything it
writes, through index columns the table holds per block, and reads its
constants as one column per block: about 30 array operations per call,
each over all its lanes. Every caller fires its blocks through it:
``run_batch`` the lanes of its seeds, and ``_fire_blocks`` a list of
blocks from one state, as the lanes of one call on one row in the runs'
layout (in chunks of lanes past the lane limit), for ``step`` (one
block), ``consensus.edge_step`` (the edge's block) and
``diagnostics.lyapunov_drift`` (every block).
The x lanes are solved by the grouped prox (``prox._GroupedProx``, the
only closed-form prox): closed forms for Quadratic, AbsDev and L1
coordinates, then one by one, in lane order, for ``Custom`` terms and
kink coordinates without a coupling row.
Each x lane's tilt reads its component's first ``K`` rows from the
table, and a lane with more (a hub's) goes on over the rest, its tail,
which its call gathers; ``K`` comes from the row counts
(``_tilt_width``), so one hub pads no other lane to its degree.

Run loop: ``run_batch`` is the one loop (``run`` is its one-seed form).
It fires blocks as lanes on one ``(S, width)`` state: many seeds in
lockstep, one lane per seed per iteration, with the table columns of a
whole chunk of draws gathered at once; one seed by dependency level
(``_levels``). Two blocks that share no component commute, so a seed's
draws between two record points fire one level per call, each draw one
level above the highest earlier draw it clashes with; clashing draws keep
their draw order. The kernel performs the floating-point operations of a
component-by-component block update in its order, so each seed's metrics
equal chained ``step`` calls bit for bit. Ergodic sums are kept lazily:
per coordinate just before it moves, and for every x and z coordinate at
a record (the p sums are never read). The serial run defines a failure:
a run that raises (a divergence or a term's error) is run again seed by
seed, in seed order, one draw per call, and the first seed that fails
alone raises its own first error.
A record point is one stacked evaluation of every seed's metrics over
the ``(S, ·)`` rows (``_Recorder``). Its reduction contract: a row of a
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
with step beta) on the compiled arrays (``compiled._ops``), O(problem)
array operations an iteration, on one point or a stack of points, each
row bit for bit a component-by-component step. Its one step,
``_CompiledOps.sync_step``, replays a program of in-place array
operations bound once per stack shape and arrays (``compiled._Stacked``):
``sync_admm_step`` and ``shadow_step`` copy their results out of a
shape's own arrays, the reference solve steps between its history rows.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from .errors import (DivergenceError, ImproperPartition, MissingReference,
                     ValidationError)
from .problem import (PrimalDualState, SeparableProblem, initial_state,
                      lyapunov_rows, objective, residual)
from .compiled import _CompiledOps, _ops, _ragged
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
    """One asynchronous step: sampled block, states, optional shadow pass."""

    block: int
    before: PrimalDualState
    after: PrimalDualState
    shadow: Optional[ShadowIterates] = None


def _stack(**groups):
    """Groups of rows one above another, as a C-contiguous table (whatever
    the groups' memory order), and the rows each group occupies."""
    rows, start = {}, 0
    for name, arr in groups.items():
        rows[name] = slice(start, start + len(arr))
        start += len(arr)
    arrays = list(groups.values())
    table = np.empty((start,) + arrays[0].shape[1:],
                     dtype=np.result_type(*arrays))
    return np.concatenate(arrays, out=table), rows


# padded tilt terms a block table may hold (m C n K), and values one call
# of _fire_blocks may make
_BATCH_LANE_LIMIT = 1 << 20
# a call's tail gather (about 15 numpy calls) in padded tilt terms: 500 to
# 2,000 pick the same K on hub graphs; under 100 a 100-leaf star takes K = 1
_TAIL_GATHER = 1000


def _tilt_width(count):
    """The tilt terms ``K`` per x lane, from each lane's row count
    (``count``, ``(C n, m)``), that make firing every block once cheapest:
    ``m C n K`` padded terms, the rows past ``K`` and a tail gather per
    block with such rows, within the lane limit (ties to the larger K)."""
    c, top = np.sort(count, axis=None), np.sort(count.max(axis=0))
    K = np.arange(max(1, min(c[-1], _BATCH_LANE_LIMIT // c.size)), 0, -1)
    past = np.searchsorted(c, K, side="right")   # the lanes of at most K
    cost = (K * past + c.sum() - np.append(0, np.cumsum(c))[past]
            + _TAIL_GATHER * (len(top) - np.searchsorted(top, K, "right")))
    return int(K[np.argmin(cost)])


class _BlockTable:
    """Every block of one partition as the lanes of :func:`_fire_lanes`.

    A seed's row has three segments of ``seg`` slots each: its state, then
    for every state slot the iteration its lazy ergodic sum has reached
    (``since``), then that sum (``acc``), so ``width = 3 seg``
    (:meth:`layout`). The state is x with one dummy component appended
    (``(N+1) n`` slots), then z and p with one dummy row each (``W+1``
    slots each). Column ``b`` of ``idx`` and ``const`` holds block ``b``'s
    lanes as local indices into a row and as constants, in named groups of
    rows (``icol`` and ``ccol`` hold their slices), so that what one call
    reads of them is contiguous ``(·, L)`` slices once its ``L`` lanes'
    columns are taken (:meth:`lanes`). A block smaller than the largest is
    padded with lanes that read and write only the dummy slots, with
    constants chosen so that those slots stay zero.

    ``idx`` holds, in this order:

    - the moved slots (``M = C n + 2 R``): the x lanes (``C n``: the
      block's components, then the dummy one), the z lanes (``R = 2P +
      U``: first rows of the z pairs, their partners, then unpaired rows,
      each group padded to its maximum) and the p lanes (the same rows);
    - ``since`` and ``acc``: the same slots in the other two segments;
      the kernel writes exactly these ``3 M`` columns;
    - the tilt lanes (``C n K`` each for p and z, row ``d C n + c`` x
      lane ``c``'s row ``d``): each x lane's first ``K`` rows, padded with
      the dummy row, coefficient ``-0.0``, which adds nothing (not even to
      a zero) to a sum taken strictly left to right. The rest are its
      tail: ``tails`` holds their count, their start among the rows
      (``t_idx``, ``t_consts``: all rows, once) and the lane's x slot.

    ``const`` holds the x lanes' closed-form arguments (``C n`` columns
    each, in :class:`_GroupedProx` order, ``closed`` their slice), the
    tilt lanes' coefficient and ``h``, and the z lanes' ``h`` (``w``),
    coefficient and pair denominators (``pair_den``). ``xsrc`` holds
    where each z lane's column sits among its block's x lanes: a block's
    rows are owned by its components, so the z fit reads the new x from
    the kernel's own x lanes. A block with padded z lanes keeps at least
    one dummy component, whose zero x those lanes read.

    Building the table takes a few passes over the rows and a few sorts;
    no object is made per block.
    """

    def __init__(self, ops: _CompiledOps, partition: ProperPartition):
        n, N, W = ops.n, ops.N, ops.W
        rows, row_ptr = partition.rows, partition.row_ptr
        comps, comp_ptr = partition.comps, partition.comp_ptr
        sizes, ncomp = np.diff(row_ptr), np.diff(comp_ptr)
        m = sizes.size
        # a 0-d operand: a ufunc takes it faster than the Python float
        self.beta, self.prox = np.array(ops.beta), ops.prox
        self.dim_x, self.W = N * n, W
        xseg = (N + 1) * n
        self.z0, self.p0 = xseg, xseg + W + 1
        self.seg = xseg + 2 * (W + 1)
        self.width = 3 * self.seg

        # owner[row] is the row's block; a block's z pairs in z-set order
        owner = np.empty(W, dtype=np.intp)
        owner[rows] = np.repeat(np.arange(m), sizes)
        pair_i, pair_j = ops.pair_i, ops.pair_j
        blk_i, blk_j = owner[pair_i], owner[pair_j]
        if np.any(blk_i != blk_j):
            k = np.flatnonzero(blk_i != blk_j)[0]
            raise ImproperPartition("a block splits the coupled pair "
                                    f"({pair_i[k]},{pair_j[k]})")
        order = np.argsort(blk_i, kind="stable")
        npair = np.bincount(blk_i, minlength=m)

        # z/p lanes: pair firsts, pair seconds, unpaired rows; pads point
        # at the dummy row, which has weight 1 and coefficient 0
        P = int(npair.max(initial=0))
        paired = np.zeros(W, dtype=bool)
        paired[pair_i] = paired[pair_j] = True
        nfree = sizes - 2 * npair
        U = int(nfree.max())
        R = 2 * P + U
        z_rows = np.full((m, R), W, dtype=np.intp)
        blk, pos = _ragged(npair)
        z_rows[blk, pos] = pair_i[order]
        z_rows[blk, P + pos] = pair_j[order]
        blk, pos = _ragged(nfree)
        z_rows[blk, 2 * P + pos] = rows[~paired[rows]]
        w = np.append(ops.h, 1.0)[z_rows]
        z_coeff = np.append(ops.coeff, 0.0)[z_rows]
        z_col = np.append(ops.col, n * N)[z_rows]
        den = w[:, :P] * w[:, :P] + w[:, P:2 * P] * w[:, P:2 * P]

        # components of each block, padded with the dummy component N
        C = int((ncomp + (sizes < R)).max())
        comps_pad = np.full((m, C), N, dtype=np.intp)
        comps_pad[_ragged(ncomp)] = comps
        x_lanes = np.ascontiguousarray(
            (comps_pad[:, :, None] * n + np.arange(n)).reshape(m, -1).T)
        # each z lane's x lane: its column's component among the block's
        # (the first dummy one for a padded z lane), and its coordinate
        key = (np.arange(m)[:, None] * (N + 1) + comps_pad).reshape(-1)
        by_key = np.argsort(key, kind="stable")
        comp = by_key[np.searchsorted(
            key[by_key], np.arange(m)[:, None] * (N + 1) + z_col // n)] % C
        self.xsrc = (comp * n + z_col % n).T.copy()

        def per_lane(values, fill):
            """Per-coordinate values, with a dummy component, per x lane."""
            return np.append(values, np.full(n, fill))[x_lanes]

        prox = ops.prox
        lane_consts = {name: per_lane(arg, prox.DUMMY[name])
                       for name, arg in prox.args.items()}
        self.serial_at = per_lane(prox.serial_at, -1) if prox.serial else None
        # each x lane's rows: a range of ops.rows, none for the dummy
        count = per_lane(ops.counts, 0)
        self.K = K = _tilt_width(count)
        first = per_lane(_offsets(ops.counts)[:-1], W)
        self.tails = np.stack([np.maximum(count - K, 0), first + K, x_lanes])
        # a call's padded tail terms per lane
        self.tail_terms = int((count > K).sum(0).max() * (count.max() - K))
        self.t_idx = np.array([[self.p0], [self.z0]]) + np.append(ops.rows, W)
        self.t_consts = np.stack([np.append(ops.coeffs_sorted, -0.0),
                                  np.append(ops.h_sorted, 0.0)])
        r = np.arange(K)[:, None, None]
        pos = np.where(r < count, first + r, W).reshape(-1, m)

        moved = np.concatenate([x_lanes, self.z0 + z_rows.T,
                                self.p0 + z_rows.T])
        self.idx, self.icol = _stack(
            x=x_lanes, z=self.z0 + z_rows.T, p=self.p0 + z_rows.T,
            since=moved + self.seg, acc=moved + 2 * self.seg,
            tilt_p=self.t_idx[0, pos], tilt_z=self.t_idx[1, pos])
        self.const, self.ccol = _stack(
            **lane_consts, coeff=self.t_consts[0, pos],
            h=self.t_consts[1, pos], w=w.T, z_coeff=z_coeff.T, pair_den=den.T)
        self.closed = slice(0, len(lane_consts) * C * n)
        self.Cn, self.P, self.U, self.R = C * n, P, U, R
        self.M = C * n + 2 * R
        # the starts of each component's x, z and p, and of x, z and p,
        # among the moved slots
        self.groups = np.r_[0:C * n:n, C * n, C * n + R]
        self.cuts = self.groups[[0, C, C + 1]]

    def lanes(self, blocks, stacked=False):
        """The kernel's inputs for lanes that fire ``blocks`` (an index
        array): their ``idx``, ``const`` and ``xsrc`` columns, the last as
        flat indices into the kernel's ``(3 M, L)`` output, and the blocks.
        The lanes of one kernel call run along the last axis of ``blocks``;
        for a 2-D ``blocks``, row ``j`` of each array is the C-contiguous
        input of the call that fires row ``j``. With ``stacked`` lane ``l``
        fires on state row ``l``, else every lane fires on row 0."""
        idx = self.idx.take(blocks, axis=1)
        const = self.const.take(blocks, axis=1)
        xsrc = self.xsrc.take(blocks, axis=1)
        if blocks.ndim > 1:
            idx, const, xsrc = [np.ascontiguousarray(np.moveaxis(a, 0, -2))
                                for a in (idx, const, xsrc)]
        L = blocks.shape[-1]
        if L > 1:
            lane = np.arange(L)
            xsrc = xsrc * L + lane
            if stacked:
                idx += lane * self.width
        return idx, const, xsrc, blocks

    def layout(self, x, z, p):
        """States ``(x, z, p)``, one or one per row, as rows of this table's
        layout, with the dummy slots zero and empty ergodic sums (``since``
        1, ``acc`` 0)."""
        x = np.asarray(x)
        state = np.zeros(x.shape[:-1] + (self.width,))
        xs, zs, ps = self.views(state)
        xs[...], zs[...], ps[...] = x, z, p
        state[..., self.seg:2 * self.seg] = 1.0
        return state

    def views(self, state):
        """The x, z and p of rows in this table's layout, as views."""
        return (state[..., :self.dim_x], state[..., self.z0:self.z0 + self.W],
                state[..., self.p0:self.p0 + self.W])


def _block_table(prob: SeparableProblem,
                 partition: ProperPartition) -> _BlockTable:
    """The partition's block table, built once and dropped with the partition."""
    cache = getattr(prob, "_block_tables", None)
    if cache is None:
        cache = prob._block_tables = weakref.WeakKeyDictionary()
    table = cache.get(partition)
    if table is None:
        table = cache[partition] = _BlockTable(_ops(prob), partition)
    return table


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
         rng: RngStream, with_shadow: bool = False) -> StepRecord:
    """One asynchronous iteration: sample a block, update x, z, p in order.

    The input state is left as it is: the block fires on a new row
    (:func:`_fire_blocks`), and the new x, z and p are views of it.
    """
    b = sample_block(dist, rng)
    x, z, p = _fire_blocks(prob, partition, state, np.array([b]))
    shadow = shadow_step(prob, state) if with_shadow else None
    return StepRecord(block=b, before=state,
                      after=PrimalDualState(x=x, z=z, p=p, k=state.k + 1),
                      shadow=shadow)


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
    the ergodic columns. All off by default."""

    shadow: bool = False
    lyapunov: bool = False
    ergodic: bool = False


@dataclass(eq=False)
class RunMetrics:
    """Per-iteration trajectory summary of one seeded run."""

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

    ``values[s]`` holds seed ``s``'s recorded series in ``RunMetrics``
    order (objective, its error, feasibility, ergodic objective error,
    ergodic feasibility, Lyapunov value), each a contiguous row.
    :meth:`add` fills one column for every seed with one stacked
    evaluation, under the reduction contract of the module docstring.
    """

    def __init__(self, prob, dist, probes, ref, f_star, S, T, stride):
        self.prob, self.probes, self.ref = prob, probes, ref
        self.groups = prob.groups
        self.f_star = f_star
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
        if probes.ergodic:
            # each seed's iterate, then each seed's ergodic mean
            self.x_rows = np.empty((2 * S, prob.dim_x))
            self.z_rows = np.empty((2 * S, prob.dim_z))

    def add(self, k, blocks, xs, zs, ps, x_sums, z_sums):
        """Record iteration k, where seed s fired ``blocks[s]``; the ergodic
        means are the sums over iterations 1..k (``x_sums``, ``z_sums``)
        over k, evaluated as more rows of the same stack."""
        S, j = len(xs), self.count
        if self.probes.ergodic:
            self.x_rows[:S], self.z_rows[:S] = xs, zs
            np.divide(x_sums, k, out=self.x_rows[S:])
            np.divide(z_sums, k, out=self.z_rows[S:])
            xs, zs = self.x_rows, self.z_rows
        obj = self.groups.value(xs)
        err = np.abs(obj - self.f_star)
        r = residual(self.prob, xs, zs)
        feas = np.sqrt(np.vecdot(r, r))
        col = self.values[:, :, j]
        col[:, 0] = obj[:S]
        col[:, 1] = err[:S]
        col[:, 2] = feas[:S]
        if self.probes.ergodic:
            col[:, 3] = err[S:]
            col[:, 4] = feas[S:]
        if self.probes.lyapunov:
            col[:, 5] = lyapunov_rows(self.prob, self.wd, self.ref, zs[:S], ps)
        self.iters[j] = k
        self.blocks[:, j] = blocks
        self.count = j + 1

    def metrics(self, s, seed, T, x, z, p, x_sum, z_sum, counters,
                maxima) -> "RunMetrics":
        x_max, z_max, p_max = maxima
        obj, objerr, feas, eobj, efeas, lyap = self.values[s]
        return RunMetrics(
            seed=seed, iters=self.iters.copy(), objective=obj,
            objective_error=objerr, feasibility=feas,
            ergodic_objective_error=eobj, ergodic_feasibility=efeas,
            lyapunov=lyap, active_block=self.blocks[s],
            final_state=PrimalDualState(x=x.copy(), z=z.copy(), p=p.copy(),
                                        k=T),
            x_bar=x_sum / T, z_bar=z_sum / T, counters=counters,
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


# uniforms drawn per chunk: bounds the draw arrays of long or wide runs
_DRAW_CHUNK = 1 << 10


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


def _fire_lanes(bt: _BlockTable, flat, lanes, k=None):
    """Fire one block per lane on the flat state, in place: the one block
    update of every run, step and drift.

    ``lanes = (idx, const, xsrc, blocks)`` is :meth:`_BlockTable.lanes`
    of the blocks the lanes fire, one column per lane: lane ``l`` fires
    block ``blocks[l]`` on the row that column ``l`` of ``idx`` names (as
    flat ``row * width + index`` indices into ``flat``). Every lane reads
    before any lane writes, so each lane's update is from the row as it
    was (:func:`_fire_blocks`), and lanes that write nothing another
    reads fire as if in turn: the seeds of one lockstep iteration, or one
    dependency level of a seed's draws (:func:`_levels`).

    A call makes one gather of everything it reads (the moved slots, their
    ``since`` and ``acc``, the tilt lanes), one of its lanes' tails, if
    any, and one scatter of everything it writes: about 30 array
    operations on contiguous ``(·, L)`` slices whatever the number ``L``
    of lanes. Each x lane's tilt sums its rows strictly left to right,
    then its tail from that sum (``np.sum`` would switch to pairwise order
    on longer rows); :class:`_GroupedProx` solves the lanes, the
    one-by-one ones after the closed forms in lane order, then the z fit
    reads the new x of its block's own lanes and the dual step follows:
    the floating-point operations of one component-by-component block
    update in its order.
    With ``k`` (one number for every lane, or one per lane) the lazy
    ergodic sums of the moved slots are brought up to iteration ``k``
    (``acc += (k - since) * old``, ``since = k``); without it they are
    left as they are. Returns each lane's max |x|, |z|, |p| over its
    block, one column per lane.
    """
    idx, const, xsrc, blocks = lanes
    L, Cn, R, P, M, beta = idx.shape[1], bt.Cn, bt.R, bt.P, bt.M, bt.beta
    cc, ic = bt.ccol, bt.icol
    v = flat.take(idx)
    # x: each lane's tilt against the current z, p, summed in row order
    # strictly left to right, then its solve
    g = const[cc["coeff"]] * (v[ic["tilt_p"]]
                              - beta * (const[cc["h"]] * v[ic["tilt_z"]]))
    lin = np.add.accumulate(g.reshape(bt.K, Cn, L))[-1]
    if bt.tail_terms:
        tails = bt.tails.take(blocks, axis=2)
        c, l = np.nonzero(tails[0])
        if c.size:
            count, at, x = tails[:, c, l]
            r = np.arange(count.max())[:, None]
            pos = np.where(r < count, at + r, bt.W)
            tp, tz = flat.take(bt.t_idx.take(pos, axis=1) + (idx[c, l] - x))
            t_coeff, t_h = bt.t_consts.take(pos, axis=1)
            g = t_coeff * (tp - beta * (t_h * tz))
            np.add(lin[c, l], g[0], out=g[0])
            lin[c, l] = np.add.accumulate(g)[-1]
    out = np.empty((3 * M, L))
    bt.prox.solve(lin.T, (const[bt.closed].reshape(-1, Cn, L)
                          .transpose(0, 2, 1),
                          None if bt.serial_at is None else
                          bt.serial_at.take(blocks, axis=1).T),
                  out=out[:Cn].T)
    # z pairs and free rows, then the dual step, from the new x
    ax = const[cc["z_coeff"]] * out.take(xsrc)
    w = const[cc["w"]]
    p_old = v[Cn + R:M]
    t = p_old / beta - ax
    new_z = out[Cn:Cn + R]
    if P:
        zi = new_z[:P]
        np.divide(w[:P] * t[:P] - w[P:2 * P] * t[P:2 * P],
                  const[cc["pair_den"]], out=zi)
        np.negative(zi, out=new_z[P:2 * P])
    if bt.U:
        np.divide(t[2 * P:], w[2 * P:], out=new_z[2 * P:])
    np.subtract(p_old, beta * (ax + w * new_z), out=out[Cn + R:M])
    if k is None:
        flat[idx[:M]] = out[:M]
    else:
        out[M:2 * M] = k
        np.add(v[2 * M:3 * M], (k - v[M:2 * M]) * v[:M], out=out[2 * M:])
        flat[idx[:3 * M]] = out
    return np.maximum.reduceat(np.abs(out[:M]), bt.cuts)


def _fire_blocks(prob: SeparableProblem, partition: ProperPartition,
                 state: PrimalDualState, blocks):
    """Fire each of ``blocks`` (an index array) from ``state``, as the
    lanes of one kernel call on one row laid out by
    :meth:`_BlockTable.layout`; returns the row's x, z and p views. Each
    block's z and p rows hold its update, and a component several blocks
    move holds one of their x. Past ``_BATCH_LANE_LIMIT`` values per call,
    chunks of lanes fire in turn, each chunk's moved slots copied out and
    restored, so that every chunk fires from ``state`` too."""
    bt = _block_table(prob, partition)
    start = bt.layout(state.x, state.z, state.p)
    # per lane, the values a call makes: table columns, 16 arrays of tail terms
    per_lane = len(bt.idx) + len(bt.const) + len(bt.xsrc) + 16 * bt.tail_terms
    chunk = max(1, _BATCH_LANE_LIMIT // per_lane)
    if len(blocks) <= chunk:
        _fire_lanes(bt, start, bt.lanes(blocks))
        return bt.views(start)
    row = start.copy()
    for lo in range(0, len(blocks), chunk):
        lanes = bt.lanes(blocks[lo:lo + chunk])
        moved = lanes[0][:bt.M]
        kept = start[moved]
        _fire_lanes(bt, start, lanes)
        row[moved], start[moved] = start[moved], kept
    return bt.views(row)


def _levels(partition: ProperPartition, draws) -> list:
    """One seed's draws (block ids, in draw order) grouped by dependency
    level, each level's positions in draw order.

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
    component) pair by one sort. The levels then follow from one
    vectorized round per level; a segment with more than one level per 32
    draws, where those rounds would cost more, takes one pass in draw
    order instead. The draws touching one component clash in a chain, so
    the most draws on one component bound the level count from below: a
    segment whose bound is already past one level per 32 draws goes
    straight to that pass.
    """
    L = draws.size
    first = partition.comp_ptr[draws]
    count = partition.comp_ptr[draws + 1] - first
    draw, pos = _ragged(count)
    comp = partition.comps[first[draw] + pos]
    # each pair's predecessor: the latest earlier draw of its component,
    # or L (whose level is -1) when there is none
    order = np.argsort(comp * L + draw)
    c, d = comp[order], draw[order]
    pred = np.empty_like(draw)
    pred[order] = np.where(np.r_[False, c[1:] == c[:-1]], np.r_[L, d[:-1]], L)
    level = np.zeros(L + 1, dtype=np.intp)
    level[L] = -1
    ptr = _offsets(count)
    rounds = L // 32
    if rounds and np.bincount(comp).max() > rounds:
        rounds = 0   # the draws on one component need more levels
    # after round r each draw's level is min(its level, r), so the rounds
    # end at the first r that no draw reaches. Draw j's pairs are raised
    # by j (L + 1), above every earlier draw's, so a running maximum ends
    # each draw's pairs at their own maximum.
    off, last = draw * (L + 1), ptr[1:] - 1
    sub = np.arange(L) * (L + 1) - 1
    for r in range(1, rounds + 1):
        run = np.maximum.accumulate(level[pred] + off)
        np.subtract(run[last], sub, out=level[:L])
        if level[:L].max() < r:
            break
    else:
        # every predecessor is an earlier draw
        lev, pred, ptr = level.tolist(), pred.tolist(), ptr.tolist()
        for j in range(L):
            lev[j] = max(map(lev.__getitem__, pred[ptr[j]:ptr[j + 1]])) + 1
        level = np.array(lev)
    level = level[:L]
    order = np.argsort(level, kind="stable")
    ends = np.cumsum(np.bincount(level)).tolist()
    return [order[a:b] for a, b in zip([0] + ends, ends)]


def run_batch(prob: SeparableProblem, partition: ProperPartition,
              dist: ActivationDistribution, seeds, T: int,
              probes: Optional[ProbeFlags] = None, ref=None,
              x0=None, z0=None, stride: int = 1) -> list:
    """Run every seed in lockstep; element s is the run of ``seeds[s]``.

    All seeds share one ``(S, width)`` state laid out by the partition's
    table (:func:`_block_table`), and every block update is one call of
    the block kernel (:func:`_fire_lanes`), whatever the terms and the
    partition. Each call fires lanes, each a (seed, block, iteration)
    triple: with several seeds, one lane per seed per iteration, each seed
    drawing from its own SplitMix64 stream; with one seed, one dependency
    level of its draws between two record points (:func:`_levels`), each
    lane at its own iteration; with the shadow probe, one iteration, and
    per block of iterations one shadow pass from every seed's pre-step
    states (:func:`shadow_step`) and one check of their steps against it
    (:func:`_tally_shadow`); its error at iteration k never pre-empts the
    run's own error at k. Every field of each seed's metrics equals that
    of ``T`` chained :func:`step` calls bit for bit.

    The serial run defines a failure: when this attempt raises anything,
    each seed runs again alone, in ``seeds`` order, one draw per call, and
    the first that fails raises its own error, the first of its chained
    :func:`step` calls; if none fails, the attempt's error is raised. A
    lone seed with the shadow probe is already serial.
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
    try:
        return run_seeds(seeds, rec, len(seeds) == 1 and not probes.shadow)
    except Exception as exc:
        if len(seeds) == 1 and probes.shadow:
            raise
        error = exc
    for seed in seeds:
        run_seeds([seed], _Recorder(prob, dist, probes, ref, f_star, 1, T,
                                    stride), False, ramp=True)
    raise error


def _run_lanes(prob, partition, dist, bt, start, maxima, T, stride, probes,
               seeds, rec, by_level, ramp=False) -> list:
    """The runs of ``seeds`` from ``start``, recorded in ``rec``: in
    lockstep, or (``by_level``, one seed) one dependency level of the
    seed's draws per call. A call that moves a coordinate past the guard
    raises :class:`DivergenceError` for its first such lane. With ``ramp``
    a run that fails at iteration k gathers the lanes of under 2k draws."""
    S = len(seeds)
    # one row per seed: its state, then its lazy ergodic sums' since and acc
    state = np.tile(bt.layout(start.x, start.z, start.p), (S, 1))
    xs, zs, ps = bt.views(state)
    since, acc = state[:, bt.seg:2 * bt.seg], state[:, 2 * bt.seg:]
    x_sums, z_sums, _ = bt.views(acc)
    flat = state.reshape(-1)
    maxima = np.tile(np.array(maxima)[:, None], S)
    tally = np.zeros((S, len(_TALLY)), dtype=np.intp)
    # a lockstep block's pre-step states and the state after it, its passes
    K = _history_rows(S * bt.width) if probes.shadow else _DRAW_CHUNK
    if probes.shadow:
        hist = np.empty((K + 1, S, bt.width))
        target = np.zeros((K, S, bt.width))

    def record(it, fired):
        """Record iteration ``it`` if it is a record point."""
        if it % stride and it != T:
            return
        if probes.ergodic or it == T:
            # only the x and z sums are read, so p's are not flushed
            xz = np.s_[:, :bt.p0]
            acc[xz] += (it + 1 - since[xz]) * state[xz]
            since[xz] = it + 1
        rec.add(it, fired, xs, zs, ps, x_sums, z_sums)

    def lockstep(lanes, blocks, k, a, n):
        """Fire draws a..a+n-1 of the chunk after iteration k, a call each;
        then their shadow pass and check. On an error, the passes before it
        run first, one at a time, so that the serial first error is raised."""
        idx, const, xsrc, _ = lanes
        try:
            for r in range(n):
                j = a + r
                if probes.shadow:
                    hist[r] = state
                hot = _fire_lanes(bt, flat, (idx[j], const[j], xsrc[j],
                                             blocks[j]), k + j + 1)
                r += 1   # iteration j's pass comes before its guard
                if not hot.max() <= DIVERGENCE_LIMIT:
                    raise _divergence(hot, k + j + 1, seeds, blocks[j])
                np.maximum(maxima, hot, out=maxima)
            if probes.shadow:
                hist[n] = state
                sh = shadow_step(prob, PrimalDualState(
                    *bt.views(hist[:n].reshape(n * S, -1))))
                for view, part in zip(bt.views(target), (sh.y, sh.v, sh.mu)):
                    view[:n] = part.reshape(n, S, -1)
                _tally_shadow(bt, idx[a:a + n], hist[:n + 1], target[:n],
                              tally)
        except Exception:
            for row in hist[:r] if probes.shadow else ():
                shadow_step(prob, PrimalDualState(*bt.views(row)))
            raise

    rngs = [RngStream(seed) for seed in seeds]
    # a lone seed fires its draws between record points by level; seeds in
    # lockstep gather their lanes' table rows once per chunk, so the chunk
    # also bounds those rows
    lane_cols = len(bt.idx) + len(bt.const) + len(bt.xsrc)
    per_chunk = _DRAW_CHUNK if by_level else max(
        1, min(_DRAW_CHUNK, _BATCH_LANE_LIMIT // lane_cols) // S)
    if probes.shadow and stride < per_chunk:
        per_chunk -= per_chunk % stride   # so that blocks end at records
    k = chunk = 0   # draws k..k+chunk-1; ramp: 1, 1, 2, 4, ... draws
    while k + chunk < T:
        k += chunk
        chunk = min(per_chunk, T - k, max(k, 1) if ramp else per_chunk)
        blocks = blocks_for(dist, draw_uniforms(rngs, chunk))
        lanes = None if by_level else bt.lanes(blocks, stacked=True)
        lo = 0
        for hi in [*range((k // stride + 1) * stride - k, chunk, stride),
                   chunk]:
            if not by_level:
                for a in range(lo, hi, K):
                    lockstep(lanes, blocks, k, a, min(K, hi - a))
            # by level: draws lo..hi-1, one call per dependency level
            for draws in (() if not by_level else [np.arange(lo, hi)]
                          if hi - lo == 1 else
                          [lo + d for d in _levels(partition,
                                                   blocks[lo:hi, 0])]):
                fired = blocks[draws, 0]
                hot = _fire_lanes(bt, flat, bt.lanes(fired), k + 1 + draws)
                if not hot.max() <= DIVERGENCE_LIMIT:
                    raise _divergence(hot, k + 1 + draws, seeds, fired)
                # the lanes are the seed's draws: fold them into its maxima
                np.maximum(maxima, hot.max(axis=1, keepdims=True), out=maxima)
            record(k + hi, blocks[hi - 1])
            lo = hi
    return [rec.metrics(s, seed, T, xs[s], zs[s], ps[s], x_sums[s], z_sums[s],
                        {"steps": T, **dict(zip(_TALLY, tally[s].tolist()))},
                        tuple(maxima[:, s].tolist()))
            for s, seed in enumerate(seeds)]


def _divergence(hot, iters, seeds, blocks) -> DivergenceError:
    """The error of a call's first lane past the guard: lane ``l`` fired
    ``blocks[l]`` of ``seeds[l % S]`` at ``iters[l]`` (or ``iters``)."""
    lane = int(np.argmin(np.all(hot <= DIVERGENCE_LIMIT, axis=0)))
    return DivergenceError(_guard_message(
        hot[:, lane], int(np.broadcast_to(iters, blocks.shape)[lane]),
        seeds[lane % len(seeds)], int(blocks[lane])))


SHADOW_TOL = 1e-9

# the shadow probe's counters, in the columns of a run's tally
_TALLY = ("shadow_checks", "shadow_failures", "freeze_checks",
          "freeze_failures")


def _tally_shadow(bt, idx, hist, target, tally):
    """Check every seed's steps in a block against its shadow passes and
    the freezes.

    ``hist[j]`` and ``hist[j+1]`` are the ``(S, width)`` states (``bt``'s
    layout) around the block's iteration ``j``, ``target[j]`` its shadow
    passes in that layout (zero in dummy slots) and ``idx[j]`` its lanes
    (flat indices into a state, a column per seed); row ``s`` of ``tally``
    holds seed ``s``'s counts (``_TALLY``). A step agrees when no group
    of moved coordinates (``bt.groups``: each component's x, the block's z
    rows, its p rows) differs from the shadow by more than ``SHADOW_TOL``
    at its largest (a NaN largest passes). It froze the rest when every
    slot of its row that the step does not write (the moved slots and
    their ``since`` and ``acc``) is unchanged (NaN is never unchanged).
    """
    n, S, width = target.shape
    idx = idx[:, :3 * bt.M] + (np.arange(n) * (S * width))[:, None, None]
    mv = idx[:, :bt.M]
    gap = np.maximum.reduceat(np.abs(hist[1:].reshape(-1).take(mv)
                                     - target.reshape(-1).take(mv)),
                              bt.groups, axis=1)
    changed = hist[1:] != hist[:-1]
    changed.reshape(-1)[idx] = False
    tally[:, 0::2] += n
    tally[:, 1] += (gap > SHADOW_TOL).any(axis=1).sum(axis=0)
    tally[:, 3] += changed.any(axis=2).sum(axis=0)
