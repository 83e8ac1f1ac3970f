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
linear in the number of rows (``_BlockTable``). Every caller fires its
blocks through it: ``step`` fires one lane on a one-row copy of the
state, ``diagnostics.lyapunov_drift`` every block on its own copy row
(in chunks of rows under the lane limit), and ``run_batch`` the lanes of
its seeds. The x lanes are solved by the
grouped prox (``_GroupedProx``): closed forms for Quadratic, AbsDev and
L1 coordinates, then one by one, in lane order, for ``Custom`` terms and
kink coordinates without a coupling row. Each x lane's tilt reads its
component's rows from the table, padded to the largest row count; past a
lane limit (a hub component in every block) the table keeps no tilt rows,
and each call gathers its own lanes' rows, padded to the largest count
among them.

Run loop: ``run_batch`` is the one loop (``run`` is its one-seed form).
It fires blocks as lanes on one ``(S, width)`` state: many seeds in
lockstep, one lane per seed per iteration; one seed by dependency level
(``_levels``). Two blocks that share no component commute, so a seed's
draws between two record points fire one level per call, each draw one
level above the highest earlier draw it clashes with; clashing draws keep
their draw order. The kernel performs the floating-point operations of a
component-by-component block update in its order, so each seed's metrics
equal chained ``step`` calls bit for bit. Ergodic sums are kept lazily:
per coordinate just before it moves, and for every x and z coordinate at
a record (the p sums are never read).
A record point is one stacked evaluation of every seed's metrics over
the ``(S, ·)`` rows (``_Recorder``). Its reduction contract: a row of a
stack reduces to the same bits as the 1-D call on that row, so dot
products and norms are ``np.vecdot`` sums (what ``np.dot`` and
``np.linalg.norm`` compute), other sums reduce the last axis of a
C-contiguous array, and gathers are ``np.take(..., axis=1)``.

Shadow pass: the full-information iterates (y, v, mu) that a
fully-activated step would have produced from the same state; the
asynchronous iterates agree with them on the active coordinates, which
the probes verify. It costs O(problem) per step, as array operations,
and a run takes one pass and one check per iteration for all its seeds:
``shadow_step`` solves every x component of every seed's row at once
(``_CompiledOps.solve_all``, each row bit for bit one ``solve_component``
call per component), and ``_tally_shadow`` takes each lane's group
maxima and compares the rest of each row.

Synchronous engine: the classical two-block method (x minimization, z
minimization, dual ascent with step beta) on the same separable problem
and the same compiled arrays (``_ops``) as the asynchronous engine. One
iteration is O(problem) array operations: the x step is the same
one-pass solve, and the z step is the z-pair fit of every row at once;
only Custom terms (and kink coordinates without a coupling row) are
solved one by one.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import (DivergenceError, ImproperPartition, MissingReference,
                     ValidationError)
from .problem import (PrimalDualState, SeparableProblem, TermGroups,
                      initial_state, lyapunov_rows, objective, residual,
                      term_groups, x_set_bounds)
from .prox import (_kink_coord, kink_prox, quadratic_prox,
                   solve_local_prepared, solve_z_prepared)
from .scheduler import (ActivationDistribution, ProperPartition, RngStream,
                        _offsets, blocks_for, draw_uniforms, sample_block)
from .terms import SumZeroPairs

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


def _ragged(sizes):
    """Segment and position within it of each element of ragged segments."""
    sizes = np.asarray(sizes, dtype=np.intp)
    seg = np.repeat(np.arange(sizes.size), sizes)
    return seg, np.arange(seg.size) - _offsets(sizes)[:-1][seg]


def _row_sums(g):
    """Sum over the last axis, strictly left to right, keeping the axis.

    Both engines sum a component's coupling terms with it, so that padding
    a row with ``-0.0`` (which adds nothing, not even to a zero) leaves the
    sum unchanged bit for bit; ``np.sum`` would switch to pairwise order
    on longer rows.
    """
    return np.add.accumulate(g, axis=-1)[..., -1:]


class _GroupedProx:
    """The prox of every x coordinate of a problem in one pass.

    Solves ``f_i(u) + (q/2) u^2 - l u`` on ``[lo, hi]`` per coordinate with
    the arithmetic of :func:`solve_local_prepared`: Quadratic coordinates
    through :func:`quadratic_prox`, AbsDev and L1 coordinates through
    :func:`kink_prox`, each as one array operation over every coordinate,
    which takes its own kind's result. The rest, terms of other kinds and
    kink coordinates with ``q == 0``, go one by one through
    ``solve_local_prepared`` and ``_kink_coord`` (``serial``, indexed by
    ``serial_at`` at a component's or coordinate's first coordinate, -1
    elsewhere), so the first error raised is the one a
    component-by-component loop raises. ``q``, ``lo``, ``hi`` have shape
    ``(len(terms), n)``.

    ``consts`` holds the closed forms' constants per coordinate, zero off
    their kind: ``w2``, ``w2c`` (:func:`quadratic_prox`), ``a``, ``kink``
    (:func:`kink_prox`) and ``is_quad`` (1 on Quadratic coordinates);
    ``closed`` holds the arguments of both closed forms per coordinate.
    """

    CLOSED = ("w2", "w2c", "q_quad", "a", "kink", "q_kink", "lo", "hi")

    def __init__(self, groups: TermGroups, terms, q, lo, hi):
        n = groups.n
        self.terms, self.n = terms, n
        self.q, self.lo, self.hi = q, lo, hi
        q, lo, hi = q.reshape(-1), lo.reshape(-1), hi.reshape(-1)
        c = self.consts = {name: np.zeros(q.size)
                           for name in ("w2", "w2c", "a", "kink", "is_quad")}
        idx = groups.quad_idx
        c["w2"][idx] = 2.0 * groups.quad_weight
        c["w2c"][idx] = c["w2"][idx] * groups.quad_center
        c["is_quad"][idx] = 1.0
        c["a"][groups.abs_idx] = groups.abs_center
        c["kink"][groups.abs_idx] = 1.0
        c["kink"][groups.l1_idx] = groups.l1_gamma
        kink_idx = np.concatenate([groups.abs_idx, groups.l1_idx])
        self.has_quad, self.has_kink = idx.size > 0, kink_idx.size > 0
        # q where a closed form divides by it: off Quadratic coordinates a
        # zero q becomes 1, whose result is discarded or solved again below
        q_kink = np.where(q > 0, q, 1.0)
        self.is_quad = c["is_quad"] > 0
        self.closed = (c["w2"], c["w2c"], np.where(self.is_quad, q, q_kink),
                       c["a"], c["kink"], q_kink, lo, hi)
        # one at a time: the components of other terms and the kink
        # coordinates without a quadratic part (with their constants)
        kink0 = kink_idx[q[kink_idx] == 0].tolist()
        self.serial = [(i, None) for i, _ in groups.other]
        self.serial += [(-1, (c["a"][t], c["kink"][t], lo[t], hi[t]))
                        for t in kink0]
        self.serial_at = np.full(q.size, -1, dtype=np.intp)
        self.serial_at[[i * n for i, _ in groups.other] + kink0] = \
            np.arange(len(self.serial))

    def solve(self, l, lanes=None):
        """Minimizers for the tilt ``l``: one entry per coordinate along the
        last axis, one row per point (``(..., N n)``), each row solved as
        the 1-D call would solve it. With ``lanes = (closed, is_quad, at)``
        the entries of ``l`` are lanes instead, each with its coordinate's
        ``closed`` arguments, ``is_quad`` mask and ``serial_at`` entry, all
        of ``l``'s shape. The one-by-one solves come after the closed
        forms, row by row and then entry by entry, so the first error
        raised is the one a loop over the rows raises."""
        closed, is_quad, at = lanes or (self.closed, self.is_quad,
                                        self.serial_at)
        w2, w2c, q_quad, a, kink, q_kink, lo, hi = closed
        u = quadratic_prox(w2, w2c, q_quad, l, lo, hi) if self.has_quad \
            else None
        if self.has_kink:
            uk = kink_prox(a, kink, q_kink, l, lo, hi)
            u = uk if u is None else np.where(is_quad, u, uk)
        if u is None:
            # terms of other kinds only; the dummy lane's entry stays zero
            u = np.zeros_like(l)
        if not self.serial:
            return u
        n, at = self.n, np.broadcast_to(at, l.shape)
        for hit in zip(*np.nonzero(at >= 0)):
            i, consts = self.serial[at[hit]]
            u_row, l_row, t = u[hit[:-1]], l[hit[:-1]], hit[-1]
            if consts is not None:
                a, kink, lo, hi = consts
                u_row[t] = _kink_coord(a, kink, l_row[t], lo, hi)
            else:
                u_row[t:t + n] = solve_local_prepared(
                    self.terms[i], self.q[i], l_row[t:t + n], self.lo[i],
                    self.hi[i])
        return u


class _CompiledOps:
    """Per-problem arrays for the update kernels (built once, read-only).

    ``lo``, ``hi`` are the component sets' stacked bounds, the problem's
    cached :func:`x_set_bounds`, and ``groups`` its cached
    :func:`term_groups`. ``pair_i``/``pair_j`` are the z set's pairs over
    all rows (empty for a free z set).

    The constraint rows are sorted by component, then coordinate, then
    row (``rows``), with ``comp_ptr`` the start of each component's rows;
    ``coeffs_sorted`` and ``h_sorted`` follow that order. For ``n > 1``,
    ``slot`` places each sorted row in its component's ``(n, width[i])``
    grid, one line per coordinate, padded with ``-0.0``.

    :meth:`solve_all` reads the same rows in rank order and solves
    through :attr:`prox`; both are built on first use, so runs that
    never need them do not pay for them.
    """

    def __init__(self, prob: SeparableProblem):
        cs = prob.constraints
        self.n, self.N, self.W = cs.n, cs.N, cs.W
        self.beta = prob.beta
        self.terms = prob.terms
        self.groups = term_groups(prob)
        self.h = cs.h_diag
        self.coeff = cs.row_coeff
        self.col = cs.col_index
        self.rows = np.argsort(cs.col_index, kind="stable")
        self.comp_ptr = _offsets(np.bincount(cs.row_block,
                                             minlength=cs.N)).tolist()
        self.coeffs_sorted = cs.row_coeff[self.rows]
        self.h_sorted = cs.h_diag[self.rows]
        # rows per (component, coordinate), the coupling columns of D
        self.counts = np.bincount(cs.col_index, minlength=cs.N * cs.n)
        if cs.n > 1:
            width = self.counts.reshape(cs.N, cs.n).max(axis=1)
            _, rank = _ragged(self.counts)
            coord = cs.row_coord[self.rows]
            self.slot = coord * width[cs.row_block[self.rows]] + rank
            self.width = width.tolist()
        self.quad = prob.beta * np.bincount(
            cs.col_index, weights=cs.row_coeff ** 2,
            minlength=cs.N * cs.n).reshape(cs.N, cs.n)
        bounds = x_set_bounds(prob)
        self.lo, self.hi = bounds.lo, bounds.hi
        if isinstance(prob.z_set, SumZeroPairs):
            self.pair_i, self.pair_j = prob.z_set._first, prob.z_set._second
        else:
            self.pair_i = self.pair_j = np.empty(0, dtype=np.intp)

    def solve_component(self, i, p, z):
        """Minimize f_i plus its scaled coupling terms at multiplier p.

        The tilt gathers every constraint row owned by the component:
        ``linear = D_i'(p - beta H z)``, summed per coordinate in row
        order by :func:`_row_sums`.
        """
        r0, r1 = self.comp_ptr[i], self.comp_ptr[i + 1]
        rows = self.rows[r0:r1]
        g = self.coeffs_sorted[r0:r1] * (p[rows] - self.beta * (
            self.h_sorted[r0:r1] * z[rows]))
        if self.n == 1:
            linear = _row_sums(g)
        else:
            grid = np.full(self.n * self.width[i], -0.0)
            grid[self.slot[r0:r1]] = g
            linear = _row_sums(grid.reshape(self.n, -1))[:, 0]
        quad, lo, hi = self.comp_bounds[i]
        return solve_local_prepared(self.terms[i], quad, linear, lo, hi)

    @cached_property
    def comp_bounds(self) -> list:
        """Row views of ``quad``, ``lo``, ``hi`` per component, for
        :meth:`solve_component` (built on its first call)."""
        return list(zip(self.quad, self.lo, self.hi))

    @cached_property
    def prox(self) -> _GroupedProx:
        """The closed forms of every x coordinate, for :meth:`solve_all`."""
        return _GroupedProx(self.groups, self.terms, self.quad, self.lo,
                            self.hi)

    @cached_property
    def rank_order(self):
        """The rows by rank: every (component, coordinate) group's first
        row, then every second row, and so on.

        Groups are ordered by decreasing row count, so the groups still
        summing at rank ``r`` are a prefix, ``ptr[r+1] - ptr[r]`` long;
        ``pos`` is each group's place in that order. Returns the rows,
        their coefficients and ``h``, ``ptr`` and ``pos``.
        """
        _, rank = _ragged(self.counts)
        by_count = np.argsort(-self.counts, kind="stable")
        pos = np.empty_like(by_count)
        pos[by_count] = np.arange(by_count.size)
        order = np.argsort(rank * pos.size + pos[self.col[self.rows]])
        return (self.rows[order], self.coeffs_sorted[order],
                self.h_sorted[order], _offsets(np.bincount(rank)).tolist(),
                pos)

    def solve_all(self, p, z):
        """Every component's :meth:`solve_component`, in one pass, bit for bit.

        ``p`` and ``z`` are one point or one per row (``(..., W)``), each
        row solved as the 1-D call solves it. The tilt of every row is one
        array expression. Each (component, coordinate) sum starts at
        ``-0.0`` and adds its rows strictly left to right, one rank per
        loop pass (a slice of the first axis: the sums are transposed), so
        it equals :func:`_row_sums` (``-0.0 + g == g``) at O(W) work; the
        solves are :class:`_GroupedProx`'s.
        """
        rows, coeff, h, ptr, pos = self.rank_order
        g = coeff * (p.take(rows, axis=-1)
                     - self.beta * (h * z.take(rows, axis=-1)))
        sums, g = np.empty((self.N * self.n,) + g.shape[:-1]), g.T
        sums.fill(-0.0)
        for r in range(len(ptr) - 1):
            sums[:ptr[r + 1] - ptr[r]] += g[ptr[r]:ptr[r + 1]]
        return self.prox.solve(sums[pos].T)


def _stack(**groups):
    """Column groups side by side, and the slice each group occupies."""
    cols, start = {}, 0
    for name, arr in groups.items():
        cols[name] = slice(start, start + arr.shape[1])
        start += arr.shape[1]
    return np.concatenate(list(groups.values()), axis=1), cols


# padded tilt lanes a block table may hold; beyond it (a hub component in
# many blocks pads every block to its degree) each call gathers its own
_BATCH_LANE_LIMIT = 1 << 20


class _BlockTable:
    """Every block of one partition as the lanes of :func:`_fire_lanes`.

    A seed's state is one row of length ``width``: x with one dummy
    component appended (``(N+1) n`` slots), then z and p with one dummy
    row each (``W+1`` slots each; :meth:`layout`). Row ``b`` of ``idx``
    and ``const`` holds block ``b``'s lanes as local indices into that row
    and as constants, in named column groups (``icol`` and ``ccol`` hold
    their slices). A block smaller than the largest is padded with lanes
    that read and write only the dummy slots, with constants chosen so
    that those slots stay zero:

    - ``row``: 0, the start of the lane's state row once its offset is
      added;
    - x lanes (``C n``): the block's components, then the dummy one, with
      the arguments of :class:`_GroupedProx`'s closed forms;
    - z/p lanes (``R = 2P + U``): first rows of the z pairs, their
      partners, then unpaired rows, each group padded to its maximum;
    - tilt lanes (``C n D``, :meth:`tilt`): every row of each x lane's
      component and coordinate, padded to the largest count ``D`` with
      coefficient ``-0.0``, which adds nothing in :func:`_row_sums`.
      Past ``_BATCH_LANE_LIMIT`` such lanes (a hub component in every
      block pads each block to its degree) the table holds none
      (``D is None``), and each kernel call gathers its own lanes' rows,
      padded to the largest count among them.

    Building the table takes a few passes over the rows and a few sorts;
    no object is made per block.
    """

    def __init__(self, ops: _CompiledOps, partition: ProperPartition):
        n, N, W = ops.n, ops.N, ops.W
        rows, row_ptr = partition.rows, partition.row_ptr
        comps, comp_ptr = partition.comps, partition.comp_ptr
        sizes, ncomp = np.diff(row_ptr), np.diff(comp_ptr)
        m, C = sizes.size, int(ncomp.max())
        self.beta, self.prox = ops.beta, ops.prox
        self.dim_x, self.W = N * n, W
        xseg = (N + 1) * n
        self.z0, self.p0 = xseg, xseg + W + 1
        self.width = xseg + 2 * (W + 1)

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

        # components of each block, padded with the dummy component N
        comps_pad = np.full((m, C), N, dtype=np.intp)
        comps_pad[_ragged(ncomp)] = comps
        x_lanes = (comps_pad[:, :, None] * n + np.arange(n)).reshape(m, -1)

        def per_lane(values, fill):
            """Per-coordinate values, with a dummy component, per x lane."""
            return np.append(values, np.full(n, fill))[x_lanes]

        # the closed forms' arguments per x lane, for the kinds present;
        # the dummy lane solves to +0.0
        prox = ops.prox
        args = dict(zip(prox.CLOSED, prox.closed),
                    is_quad=prox.consts["is_quad"])
        fill = dict(w2=0.0, w2c=0.0, q_quad=1.0, a=0.0, kink=0.0, q_kink=1.0,
                    lo=-np.inf, hi=np.inf, is_quad=1.0)
        used = ["lo", "hi"]
        if prox.has_quad:
            used += ["w2", "w2c", "q_quad"]
        if prox.has_kink:
            used += ["a", "kink", "q_kink"] + ["is_quad"] * prox.has_quad
        lane_consts = {name: per_lane(args[name], fill[name]) for name in used}
        self.serial_at = per_lane(prox.serial_at, -1) if prox.serial \
            else None
        # each x lane's rows: a range of ops.rows, empty for the dummy
        self.t_first = per_lane(_offsets(ops.counts)[:-1], W)
        self.t_count = per_lane(ops.counts, 0)
        self.csr = (np.append(ops.rows, W), np.append(ops.coeffs_sorted, -0.0),
                    np.append(ops.h_sorted, 0.0))
        tilt_idx, tilt_const, self.D = {}, {}, None
        if m * C * n * int(ops.counts.max()) <= _BATCH_LANE_LIMIT:
            t_rows, t_coeff, t_h, self.D = self.tilt(np.arange(m))
            tilt_idx = dict(tilt_z=self.z0 + t_rows, tilt_p=self.p0 + t_rows)
            tilt_const = dict(coeff=t_coeff, h=t_h)

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

        self.idx, self.icol = _stack(
            row=np.zeros((m, 1), dtype=np.intp), x=x_lanes, z=self.z0 + z_rows,
            p=self.p0 + z_rows, col=z_col, **tilt_idx)
        self.const, self.ccol = _stack(**tilt_const, **lane_consts, w=w,
                                       z_coeff=z_coeff, den=den)
        self.closed = [self.ccol.get(name) for name in prox.CLOSED]
        self.Cn, self.P, self.U = C * n, P, U
        self.p_lane = C * n + R    # where the p lanes start
        # the moved coordinates: the x, z and p lanes, in that order; the
        # starts of each component's x, z and p, and of x, z and p
        self.moved = slice(1, 1 + C * n + 2 * R)
        self.groups = np.r_[0:C * n:n, C * n, C * n + R]
        self.cuts = self.groups[[0, C, C + 1]]

    def tilt(self, blocks):
        """The tilt lanes of ``blocks``: the row of each x lane's rows, and
        its coefficient and ``h``, in row order, padded with the dummy row
        (coefficient ``-0.0``, ``h`` 0) to the largest count ``D`` among
        them. Returns the three ``(len(blocks), C n D)`` arrays and ``D``."""
        first, count = self.t_first[blocks], self.t_count[blocks]
        D = int(count.max())
        r = np.arange(D)
        pos = np.where(r < count[..., None], first[..., None] + r, self.W)
        return (*(a[pos].reshape(len(first), -1) for a in self.csr), D)

    def layout(self, x, z, p):
        """States ``(x, z, p)``, one or one per row, as rows of this table's
        layout, with the dummy slots zero."""
        x = np.asarray(x)
        state = np.zeros(x.shape[:-1] + (self.width,))
        xs, zs, ps = self.views(state)
        xs[...], zs[...], ps[...] = x, z, p
        return state

    def views(self, state):
        """The x, z and p of rows in this table's layout, as views."""
        return (state[..., :self.dim_x], state[..., self.z0:self.z0 + self.W],
                state[..., self.p0:self.p0 + self.W])


def _ops(prob: SeparableProblem) -> _CompiledOps:
    ops = getattr(prob, "_engine_ops", None)
    if ops is None:
        ops = prob._engine_ops = _CompiledOps(prob)
    return ops


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
    for bit the 1-D pass from it."""
    ops = _ops(prob)
    y = ops.solve_all(state.p, state.z)
    dy = ops.coeff * y.take(ops.col, axis=-1)
    # the z fit takes the rows on its first axis, with h as a column
    h = ops.h.reshape((-1,) + (1,) * (dy.ndim - 1))
    v = solve_z_prepared(h, (state.p / ops.beta - dy).T, ops.pair_i,
                         ops.pair_j).T
    r = dy + ops.h * v
    return ShadowIterates(y=y, v=v, mu=state.p - ops.beta * r, r=r)


def step(prob: SeparableProblem, state: PrimalDualState,
         partition: ProperPartition, dist: ActivationDistribution,
         rng: RngStream, with_shadow: bool = False) -> StepRecord:
    """One asynchronous iteration: sample a block, update x, z, p in order.

    The input state is left as it is: the block kernel
    (:func:`_fire_lanes`) fires one lane on a one-row copy of it, laid out
    by the partition's table, and the new x, z and p are views of that
    row.
    """
    b = sample_block(dist, rng)
    shadow = shadow_step(prob, state) if with_shadow else None
    bt = _block_table(prob, partition)
    row = bt.layout(state.x, state.z, state.p)
    lane = np.s_[b:b + 1]
    _fire_lanes(bt, row, bt.idx[lane], lane)
    x, z, p = bt.views(row)
    return StepRecord(block=b, before=state,
                      after=PrimalDualState(x=x, z=z, p=p, k=state.k + 1),
                      shadow=shadow)


def sync_admm_step(prob: SeparableProblem,
                   state: PrimalDualState) -> PrimalDualState:
    """One synchronous two-block iteration (x, then z, then dual ascent).

    Both minimizations are one pass over all coordinates: the x step is
    :meth:`_CompiledOps.solve_all`, and the z step fits every row (and
    every z pair) to ``(p - beta D x) / beta`` by :func:`solve_z_prepared`.
    """
    ops = _ops(prob)
    x = ops.solve_all(state.p, state.z)
    dx = ops.coeff * x[ops.col]
    z = solve_z_prepared(ops.h, (state.p - ops.beta * dx) / ops.beta,
                         ops.pair_i, ops.pair_j)
    p = state.p - ops.beta * (dx + ops.h * z)
    return PrimalDualState(x=x, z=z, p=p, k=state.k + 1)


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
        self.groups = term_groups(prob)
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


def _fire_lanes(bt: _BlockTable, flat, idx, blocks, sums=None):
    """Fire one block per lane on the flat state, in place: the one block
    update of every run, step and drift.

    Lane ``l`` fires block ``blocks[l]`` (``blocks`` indexes the blocks:
    an array, or a slice) on the state row that row ``l`` of ``idx``
    names (``bt.idx[blocks]`` plus the row's offset in ``flat``, as flat
    ``row * width + index`` indices). Every lane reads before any lane
    writes, so no lane may write what another reads: the seeds of one
    lockstep iteration, one dependency level of a seed's draws
    (:func:`_levels`), or each block on its own copy of a state. With
    ``sums = (acc, since, k)`` the lazy ergodic sums of the coordinates
    about to move are first brought up to iteration ``k`` (one number for
    every lane, or a column with one per lane).

    Each x lane's tilt sums its component's rows left to right
    (:func:`_row_sums`); :class:`_GroupedProx` solves the lanes, the
    one-by-one ones after the closed forms in lane order, then the z fit
    and the dual step follow: the floating-point operations of one
    component-by-component block update in its order. Returns each lane's
    max |x|, |z|, |p| over its block.
    """
    Cn, P, beta = bt.Cn, bt.P, bt.beta
    ic, cc = bt.icol, bt.ccol
    const = bt.const[blocks]
    mv = idx[:, bt.moved]
    old = flat[mv]
    if sums is not None:
        acc_flat, since_flat, k = sums
        acc_flat[mv] += (k - since_flat[mv]) * old
        since_flat[mv] = k
    # x: each lane's tilt against the current z, p, then its solve
    if bt.D is None:
        rows, coeff, h, D = bt.tilt(blocks)
        rows += idx[:, ic["row"]]
        tilt_z, tilt_p = rows + bt.z0, rows + bt.p0
    else:
        coeff, h, D = const[:, cc["coeff"]], const[:, cc["h"]], bt.D
        tilt_z, tilt_p = idx[:, ic["tilt_z"]], idx[:, ic["tilt_p"]]
    g = coeff * (flat[tilt_p] - beta * (h * flat[tilt_z]))
    lin = _row_sums(g.reshape(len(idx), Cn, D))[..., 0]
    u = bt.prox.solve(lin, (
        [None if c is None else const[:, c] for c in bt.closed],
        const[:, cc["is_quad"]] > 0 if "is_quad" in cc else None,
        None if bt.serial_at is None else bt.serial_at[blocks]))
    new = np.empty_like(old)
    new[:, :Cn] = u
    flat[mv[:, :Cn]] = u
    # z pairs and free rows, then the dual step, from the new x
    new_z, new_p = new[:, Cn:bt.p_lane], new[:, bt.p_lane:]
    ax = const[:, cc["z_coeff"]] * flat[idx[:, ic["col"]]]
    w = const[:, cc["w"]]
    p_old = old[:, bt.p_lane:]
    t = p_old / beta - ax
    if P:
        zi = (w[:, :P] * t[:, :P] - w[:, P:2 * P] * t[:, P:2 * P]) \
            / const[:, cc["den"]]
        new_z[:, :P] = zi
        np.negative(zi, out=new_z[:, P:2 * P])
    if bt.U:
        np.divide(t[:, 2 * P:], w[:, 2 * P:], out=new_z[:, 2 * P:])
    np.subtract(p_old, beta * (ax + w * new_z), out=new_p)
    flat[mv[:, Cn:]] = new[:, Cn:]
    return np.maximum.reduceat(np.abs(new), bt.cuts, axis=1)


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
    order instead.
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
    pred[order] = np.where(np.r_[False, c[1:] == c[:-1]], np.r_[L, d[:-1]],
                           L)
    level = np.zeros(L + 1, dtype=np.intp)
    level[L] = -1
    ptr = _offsets(count)
    # after round r each draw's level is min(its level, r), so the rounds
    # end at the first r that no draw reaches. Draw j's pairs are raised
    # by j (L + 1), above every earlier draw's, so a running maximum ends
    # each draw's pairs at their own maximum.
    off, last = draw * (L + 1), ptr[1:] - 1
    sub = np.arange(L) * (L + 1) - 1
    for r in range(1, L // 32 + 1):
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
    lane at its own iteration; with the shadow probe, one iteration,
    between one shadow pass of every seed's row (:func:`shadow_step`) and
    one check of every seed's step against it (:func:`_tally_shadow`).
    Every field of each seed's metrics equals that of ``T`` chained
    :func:`step` calls bit for bit.

    When a seed diverges, the :class:`DivergenceError` names the first
    seed in ``seeds`` order that diverges, at its first failing step. A
    lone seed's levels after a failure fire only the draws before it, so
    the failure reported is the one with the smallest iteration, which a
    serial run meets first; when a level raises an error, the rest of its
    segment fires one draw at a time, so the error raised is the serial
    run's first error too.
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
    S = len(seeds)
    start = initial_state(prob, x0, z0)
    maxima = [float(np.max(np.abs(v), initial=0.0))
              for v in (start.x, start.z, start.p)]
    if not (maxima[0] <= DIVERGENCE_LIMIT and maxima[1] <= DIVERGENCE_LIMIT):
        raise DivergenceError(f"initial state magnitude (x {maxima[0]:.3e}, "
                              f"z {maxima[1]:.3e}) exceeds the divergence "
                              "guard")
    dim_x, W = prob.dim_x, prob.dim_z
    state = np.zeros((S, bt.width))
    # each seed's x, z and p, as rows of views into the state (p starts 0)
    xs, zs, ps = bt.views(state)
    xs[...], zs[...] = start.x, start.z
    flat = state.reshape(-1)
    acc = np.zeros_like(state)
    acc_flat = acc.reshape(-1)
    since = np.ones_like(state)
    since_flat = since.reshape(-1)
    maxima = np.tile(maxima, (S, 1))
    f_star = objective(prob, ref.x) if ref is not None else np.nan
    rec = _Recorder(prob, dist, probes, ref, f_star, S, T, stride)
    tally = np.zeros((S, len(_TALLY)), dtype=np.intp)
    failures = {}
    if probes.shadow:
        # each seed's shadow pass, laid out as its state row
        target = np.zeros_like(state)
        shadow_rows = bt.views(target)

    base = (np.arange(S) * bt.width)[:, None]
    rngs = [RngStream(seed) for seed in seeds]
    per_chunk = max(1, _DRAW_CHUNK // S)
    # a lone seed fires its draws between record points by level
    by_level = S == 1 and not probes.shadow
    k = 0
    while k < T and 0 not in failures:
        chunk = min(per_chunk, T - k)
        blocks = blocks_for(dist, draw_uniforms(rngs, chunk))
        ends = ([*range((k // stride + 1) * stride - k, chunk, stride), chunk]
                if by_level else range(1, chunk + 1))
        lo = 0
        for hi in ends:
            # draws lo..hi-1: one call for one draw (a lane per seed), else
            # one call per dependency level of the seed's draws
            lone = ordered = hi - lo == 1
            plan = deque([np.s_[lo:hi]] if lone else
                         [lo + d for d in _levels(partition,
                                                  blocks[lo:hi, 0])])
            while plan:
                draws = plan.popleft()
                if 0 in failures:
                    # a lone seed failed: only its earlier draws still count
                    draws = draws[draws < failures[0][0] - k - 1]
                    if not draws.size:
                        continue
                lanes = blocks[draws].reshape(-1)
                idx = bt.idx[lanes]
                if S > 1:
                    idx += base
                k_lanes = k + hi if lone else (k + 1 + draws)[:, None]
                if probes.shadow:
                    before = state.copy()
                    sh = shadow_step(prob, PrimalDualState(x=xs, z=zs, p=ps,
                                                           k=k + lo))
                    for view, part in zip(shadow_rows, (sh.y, sh.v, sh.mu)):
                        view[...] = part
                try:
                    hot = _fire_lanes(bt, flat, idx, lanes,
                                      (acc_flat, since_flat, k_lanes))
                except Exception:
                    if ordered:
                        raise
                    # the first error in draw order may lie in a later
                    # level: fire the rest one draw at a time, in draw order
                    plan = deque(np.sort(np.concatenate([draws, *plan]))
                                 [:, None])
                    ordered = True
                    continue
                if probes.shadow:
                    _tally_shadow(bt, idx, before, state, target, tally)
                if not np.all(hot <= DIVERGENCE_LIMIT):
                    _batch_failures(hot, k + 1 + np.arange(chunk)[draws],
                                    seeds, lanes, failures, state)
                # one seed's lanes are its draws: fold them into its maxima
                np.maximum(maxima, hot if S > 1 else hot.max(axis=0),
                           out=maxima)
            if 0 in failures:
                break
            lo = hi
            it = k + hi
            if it % stride and it != T:
                continue
            if probes.ergodic or it == T:
                # only the x and z sums are read, so p's are not flushed
                xz = np.s_[:, :bt.p0]
                acc[xz] += (it + 1 - since[xz]) * state[xz]
                since[xz] = it + 1
            rec.add(it, blocks[hi - 1], xs, zs, ps, acc[:, :dim_x],
                    acc[:, bt.z0:bt.z0 + W])
        k += chunk
    if failures:
        raise DivergenceError(failures[min(failures)][1])
    return [rec.metrics(s, seed, T, xs[s], zs[s], ps[s], acc[s, :dim_x],
                        acc[s, bt.z0:bt.z0 + W],
                        {"steps": T, **dict(zip(_TALLY, tally[s].tolist()))},
                        tuple(maxima[s].tolist()))
            for s, seed in enumerate(seeds)]


def _batch_failures(hot, iters, seeds, lanes, failures, state):
    """Note each seed's earliest guard failure, as ``(iteration, message)``.

    Lane ``l`` fired block ``lanes[l]`` of seed ``l % S`` at iteration
    ``iters[l // S]``. A seed keeps its failure with the smallest
    iteration: a lone seed fires by level, so a later call may fail at an
    earlier iteration, and its inputs are still the serial ones. Only the
    first diverging seed in ``seeds`` order is reported, so with several
    seeds the others keep running until they finish or diverge, and a
    failed seed's state is zeroed so that it produces no further
    non-finite values. A lone seed's state is left as it is: the rest of
    its segment still reads it, and its run ends with the segment.
    """
    S = len(seeds)
    for lane in np.flatnonzero(~np.all(hot <= DIVERGENCE_LIMIT, axis=1)):
        s, it = int(lane) % S, int(iters[int(lane) // S])
        if s not in failures or it < failures[s][0]:
            failures[s] = (it, _guard_message(hot[lane], it, seeds[s],
                                              int(lanes[lane])))
        if S > 1:
            state[s] = 0.0
        hot[lane] = 0.0


SHADOW_TOL = 1e-9

# the shadow probe's counters, in the columns of a run's tally
_TALLY = ("shadow_checks", "shadow_failures", "freeze_checks",
          "freeze_failures")


def _tally_shadow(bt, idx, before, after, target, tally):
    """Check every seed's step against its shadow pass and the freezes.

    Row ``s`` of ``before``/``after`` is seed ``s``'s state row (``bt``'s
    layout) around the step, of ``target`` its shadow pass in that layout
    (zero in dummy slots), of ``idx`` the lane it fired (flat indices) and
    of ``tally`` its counts (``_TALLY``). A step agrees when no group of
    moved coordinates (``bt.groups``: each component's x, the block's z
    rows, its p rows) differs from the shadow by more than ``SHADOW_TOL``
    at its largest (a NaN largest passes). It froze the rest when every
    other coordinate of its row is unchanged (NaN is never unchanged).
    """
    mv = idx[:, bt.moved]
    gap = np.maximum.reduceat(np.abs(after.take(mv) - target.take(mv)),
                              bt.groups, axis=1)
    changed = after != before
    changed.reshape(-1)[mv] = False
    tally[:, 0::2] += 1
    tally[:, 1] += (gap > SHADOW_TOL).any(axis=1)
    tally[:, 3] += changed.any(axis=1)
