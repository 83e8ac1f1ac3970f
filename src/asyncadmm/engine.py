"""Iteration engines.

Asynchronous engine: at each iteration one partition block fires; the
owning x components re-solve their local subproblems against the full
current (p, z), the active z rows re-fit against the refreshed coupling
values, and the active dual rows take a residual step of size beta. All
other coordinates are frozen.

Step cost: one asynchronous step costs O(size of the block), not
O(size of the problem). ``run`` updates its own x, z, p in place through
one block kernel (``_apply_block``) driven by a per-partition block table
that is built once in time linear in the number of rows; its ergodic
sums are brought up to date lazily, per coordinate just before it moves
and for all coordinates at a record. Only the shadow probe copies the
state per step. ``step`` is the same kernel applied to a copy.

Seed batch: ``run_batch`` fires blocks as lanes of one array kernel
(``_fire_lanes``) on one ``(S, width)`` state, with every block padded
to the largest block. Many seeds advance in lockstep, one lane per seed
per iteration. One seed fires its draws in waves: maximal runs of
consecutive draws in which no block reads what an earlier block of the
wave writes, so that firing them at once gives the serial result
(``_wave_ends``). The kernel performs the same floating-point
operations in the same order as ``run`` (the x closed forms and the row
sums are shared functions), so each seed's metrics are equal to
``run``'s bit for bit. ``run`` stays the plain path the batch is
checked against.

Shadow pass: the full-information iterates (y, v, mu) that a
fully-activated step would have produced from the same state; the
asynchronous iterates agree with them on the active coordinates, which
the probes verify. It costs O(problem) per step, as array operations:
every x component is solved in one pass (``_CompiledOps.solve_all``,
bit for bit equal to one ``solve_component`` call per component), and
the tally checks the block's moved coordinates of the stacked
``[x, z, p]`` state with one masked comparison.

Synchronous engine: the classical two-block method (sequential x
minimization, z minimization, dual ascent with step beta) for problems
with an optional separable z objective and right-hand side c. One
iteration is O(problem) array operations: the x step is the same
one-pass solve, and the z step with z terms is the same grouped prox;
only Custom terms (and kink coordinates without a coupling row) are
solved one by one.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import (DivergenceError, ImproperPartition, MissingReference,
                     NonfiniteInput)
from .problem import (PrimalDualState, SeparableProblem, StandardProblem,
                      TermGroups, XSetBounds, initial_state, objective,
                      residual, term_groups, x_set_bounds)
from .prox import (ZBlockSubproblem, _kink_coord, kink_prox, quadratic_prox,
                   solve_local_prepared, solve_z_block, solve_z_prepared)
from .scheduler import (ActivationDistribution, ProperPartition, RngStream,
                        blocks_for, draw_uniforms, sample_block)
from .terms import Box, Free, SumZeroPairs

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


def _offsets(sizes) -> np.ndarray:
    """Start of each of consecutive segments of the given sizes, then the end."""
    ptr = np.zeros(len(sizes) + 1, dtype=np.intp)
    np.cumsum(sizes, out=ptr[1:])
    return ptr


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
    """The prox of every coordinate of a list of terms in one pass.

    Solves ``f_i(u) + (q/2) u^2 - l u`` on ``[lo, hi]`` per coordinate with
    the arithmetic of :func:`solve_local_prepared`: Quadratic coordinates
    through :func:`quadratic_prox`, AbsDev and L1 coordinates through
    :func:`kink_prox`, each kind as one array operation. The rest, terms of
    other kinds and kink coordinates with ``q == 0``, go one by one through
    ``solve_local_prepared`` and ``_kink_coord`` in ascending coordinate
    order, so the first error raised is the one a component-by-component
    loop raises. ``q``, ``lo``, ``hi`` have shape ``(len(terms), n)``.
    """

    def __init__(self, terms, n, q, lo, hi):
        groups = TermGroups(terms, n)
        self.terms, self.n = terms, n
        self.q, self.lo, self.hi = q, lo, hi
        q, lo, hi = q.reshape(-1), lo.reshape(-1), hi.reshape(-1)
        idx = groups.quad_idx
        w2 = 2.0 * groups.quad_weight
        self.quad = (idx, w2, w2 * groups.quad_center, q[idx], lo[idx],
                     hi[idx]) if idx.size else None
        idx = np.concatenate([groups.abs_idx, groups.l1_idx])
        a = np.concatenate([groups.abs_center, np.zeros(groups.l1_idx.size)])
        kink = np.concatenate([np.ones(groups.abs_idx.size), groups.l1_gamma])
        qk = q[idx]
        self.kink = (idx, a, kink, np.where(qk > 0, qk, 1.0), lo[idx],
                     hi[idx]) if idx.size else None
        # one at a time, by first coordinate: the components of other terms
        # and the kink coordinates without a quadratic part (with constants)
        serial = [(i * n, i, None) for i, _ in groups.other]
        serial += [(int(idx[t]), -1, (a[t], kink[t], lo[idx[t]], hi[idx[t]]))
                   for t in np.flatnonzero(qk == 0)]
        self.serial = sorted(serial, key=lambda item: item[0])

    def solve(self, l):
        """Minimizers for the tilt ``l`` (flat, one entry per coordinate)."""
        u = np.empty_like(l)
        if self.quad is not None:
            idx, w2, w2c, q, lo, hi = self.quad
            u[idx] = quadratic_prox(w2, w2c, q, l[idx], lo, hi)
        if self.kink is not None:
            idx, a, kink, q, lo, hi = self.kink
            u[idx] = kink_prox(a, kink, q, l[idx], lo, hi)
        n = self.n
        for t, i, consts in self.serial:
            if consts is not None:
                a, kink, lo, hi = consts
                u[t] = _kink_coord(a, kink, l[t], lo, hi)
            else:
                u[t:t + n] = solve_local_prepared(self.terms[i], self.q[i],
                                                  l[t:t + n], self.lo[i],
                                                  self.hi[i])
        return u


class _CompiledOps:
    """Per-problem arrays for the update kernels (built once, read-only).

    ``bounds`` are the component sets' stacked bounds, the problem's cached
    :func:`x_set_bounds`.

    The constraint rows are sorted by component, then coordinate, then
    row (``rows``), with ``comp_ptr`` the start of each component's rows;
    ``coeffs_sorted`` and ``h_sorted`` follow that order. For ``n > 1``,
    ``slot`` places each sorted row in its component's ``(n, width[i])``
    grid, one line per coordinate, padded with ``-0.0``.

    :meth:`solve_all` reads the same rows in rank order and solves
    through :attr:`prox`; both are built on its first call, so runs that
    never make a full pass do not pay for them.
    """

    def __init__(self, cs, terms, bounds: XSetBounds, beta):
        self.n, self.N, self.W = cs.n, cs.N, cs.W
        self.beta = beta
        self.terms = terms
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
        self.quad = beta * np.bincount(cs.col_index, weights=cs.row_coeff ** 2,
                                       minlength=cs.N * cs.n).reshape(cs.N,
                                                                      cs.n)
        self.lo, self.hi = bounds.lo, bounds.hi
        # pair structure of the z set over all rows, for shadow passes
        self.pair_i = np.empty(0, dtype=np.intp)
        self.pair_j = np.empty(0, dtype=np.intp)

    def set_pairs(self, z_set):
        if isinstance(z_set, SumZeroPairs) and z_set.pairs:
            self.pair_i = np.array([i for i, _ in z_set.pairs], dtype=np.intp)
            self.pair_j = np.array([j for _, j in z_set.pairs], dtype=np.intp)

    def solve_component(self, i, p, z, c=None):
        """Minimize f_i plus its scaled coupling terms at multiplier p.

        The tilt gathers every constraint row owned by the component:
        ``linear = D_i'(p - beta (H z - c))``, summed per coordinate in
        row order by :func:`_row_sums`.
        """
        r0, r1 = self.comp_ptr[i], self.comp_ptr[i + 1]
        rows = self.rows[r0:r1]
        shift = self.h_sorted[r0:r1] * z[rows]
        if c is not None:
            shift = shift - c[rows]
        g = self.coeffs_sorted[r0:r1] * (p[rows] - self.beta * shift)
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
        return _GroupedProx(self.terms, self.n, self.quad, self.lo, self.hi)

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

    def solve_all(self, p, z, c=None):
        """Every component's :meth:`solve_component`, in one pass, bit for bit.

        The tilt of every row is one array expression. Each (component,
        coordinate) sum starts at ``-0.0`` and adds its rows strictly left
        to right, one rank per loop pass, so it equals :func:`_row_sums`
        (``-0.0 + g == g``) at O(W) work; the solves are
        :class:`_GroupedProx`'s.
        """
        rows, coeff, h, ptr, pos = self.rank_order
        shift = h * z[rows]
        if c is not None:
            shift = shift - c[rows]
        g = coeff * (p[rows] - self.beta * shift)
        sums = np.full(self.N * self.n, -0.0)
        for r in range(len(ptr) - 1):
            sums[:ptr[r + 1] - ptr[r]] += g[ptr[r]:ptr[r + 1]]
        return self.prox.solve(sums[pos])


class _BlockTable:
    """Every block of one partition as flat arrays with per-block offsets.

    Block ``b`` owns ``rows[row_ptr[b]:row_ptr[b+1]]`` and the components
    ``comps[comp_ptr[b]:comp_ptr[b+1]]``; ``w``/``coeff``/``col`` are the
    row constants gathered in that order, and ``pair_i``/``pair_j`` hold
    the block's z pairs as positions within the block, in z-set order.
    ``moved`` lists, per block, the coordinates a step can change, as
    indices into the stacked vector ``[x, z, p]``; ``moved_cuts[b]`` are
    the starts of its x, z and p parts. ``clash[clash_ptr[b]:clash_ptr[b+1]]``
    are the blocks whose z and p rows block ``b`` reads (:func:`_wave_ends`).
    Building it takes a few passes over the rows and a few sorts; no
    object is made per block.
    """

    def __init__(self, ops: _CompiledOps, z_set, partition: ProperPartition):
        n, W = ops.n, ops.W
        dim_x = n * ops.N
        sizes = np.array([r.size for r in partition.blocks], dtype=np.intp)
        ncomp = np.array([c.size for c in partition.component_map],
                         dtype=np.intp)
        m = sizes.size
        row_ptr, comp_ptr = _offsets(sizes), _offsets(ncomp)
        rows = np.concatenate(partition.blocks).astype(np.intp, copy=False)
        comps = np.concatenate(partition.component_map).astype(np.intp,
                                                              copy=False)
        self.rows = rows
        self.comps = comps.tolist()
        self.w = ops.h[rows]
        self.coeff = ops.coeff[rows]
        self.col = ops.col[rows]
        self.row_ptr = row_ptr.tolist()
        self.comp_ptr = comp_ptr.tolist()

        # owner[row] is the row's block, local[row] its position there
        owner = np.empty(W, dtype=np.intp)
        owner[rows] = np.repeat(np.arange(m), sizes)
        local = np.empty(W, dtype=np.intp)
        local[rows] = np.arange(W) - np.repeat(row_ptr[:-1], sizes)
        if isinstance(z_set, SumZeroPairs) and z_set.pairs:
            pairs = np.array(z_set.pairs, dtype=np.intp)
            blk_i, blk_j = owner[pairs[:, 0]], owner[pairs[:, 1]]
            if np.any(blk_i != blk_j):
                i, j = pairs[np.flatnonzero(blk_i != blk_j)[0]]
                raise ImproperPartition(
                    f"a block splits the coupled pair ({i},{j})")
            order = np.argsort(blk_i, kind="stable")
            self.pair_i = local[pairs[order, 0]]
            self.pair_j = local[pairs[order, 1]]
            npair = np.bincount(blk_i, minlength=m)
        else:
            self.pair_i = self.pair_j = np.empty(0, dtype=np.intp)
            npair = np.zeros(m, dtype=np.intp)
        self.pair_ptr = _offsets(npair).tolist()

        # moved coordinates: x of the block's components, then z and p
        # rows; the sort key 3b + part is stable, so each part keeps its order
        x_idx = (comps[:, None] * n + np.arange(n)).ravel()
        stacked = np.concatenate([x_idx, dim_x + rows, dim_x + W + rows])
        key = np.concatenate([np.repeat(3 * np.arange(m), n * ncomp),
                              np.repeat(3 * np.arange(m) + 1, sizes),
                              np.repeat(3 * np.arange(m) + 2, sizes)])
        self.moved = stacked[np.argsort(key, kind="stable")]
        self.moved_ptr = (n * comp_ptr + 2 * row_ptr).tolist()
        self.moved_cuts = np.stack([np.zeros(m, dtype=np.intp), n * ncomp,
                                    n * ncomp + sizes], axis=1)
        self.n = n

        # clash[b]: the blocks owning a row that one of b's components owns
        # (b among them, repeats kept), whose z and p b's tilts read
        comp_rows = np.asarray(ops.comp_ptr)
        per_comp = np.diff(comp_rows)[comps]
        seg, pos = _ragged(per_comp)
        self.clash = owner[ops.rows[comp_rows[comps][seg] + pos]].tolist()
        self.clash_ptr = _offsets(per_comp)[comp_ptr].tolist()

    @cached_property
    def groups(self):
        """Starts, within each block's moved slice, of the groups the shadow
        probe checks one by one (each component's x, then z, then p), and
        the offsets of each block's starts."""
        ncomp, sizes = np.diff(self.comp_ptr), np.diff(self.row_ptr)
        blk, pos = _ragged(ncomp + 2)
        starts = (np.minimum(pos, ncomp[blk]) * self.n
                  + np.maximum(pos - ncomp[blk], 0) * sizes[blk])
        return starts, _offsets(ncomp + 2).tolist()

    def block(self, b: int):
        """Views of block ``b``: comps, rows, w, coeff, col, pair_i, pair_j."""
        r0, r1 = self.row_ptr[b], self.row_ptr[b + 1]
        q0, q1 = self.pair_ptr[b], self.pair_ptr[b + 1]
        return (self.comps[self.comp_ptr[b]:self.comp_ptr[b + 1]],
                self.rows[r0:r1], self.w[r0:r1], self.coeff[r0:r1],
                self.col[r0:r1], self.pair_i[q0:q1], self.pair_j[q0:q1])


def _ops(prob: SeparableProblem) -> _CompiledOps:
    ops = getattr(prob, "_engine_ops", None)
    if ops is None:
        cs = prob.constraints
        ops = _CompiledOps(cs, prob.terms, x_set_bounds(prob), prob.beta)
        ops.set_pairs(prob.z_set)
        prob._engine_ops = ops
    return ops


def _block_table(prob: SeparableProblem,
                 partition: ProperPartition) -> _BlockTable:
    """The partition's block table, built once and dropped with the partition."""
    cache = getattr(prob, "_block_tables", None)
    if cache is None:
        cache = prob._block_tables = weakref.WeakKeyDictionary()
    table = cache.get(partition)
    if table is None:
        table = cache[partition] = _BlockTable(_ops(prob), prob.z_set,
                                               partition)
    return table


def _apply_block(ops: _CompiledOps, blk, x, z, p):
    """Fire one block in place: x solves, then the z-pair fit, then the duals.

    ``blk`` is :meth:`_BlockTable.block`. Only the block's components,
    z rows and multipliers are written, and only the rows of those
    components are read, so a step costs O(block), not O(problem).
    """
    comps, rows, w, coeff, col, pair_i, pair_j = blk
    n = ops.n
    for i in comps:
        x[i * n:(i + 1) * n] = ops.solve_component(i, p, z)
    t = p[rows] / ops.beta - coeff * x[col]
    z_rows = solve_z_prepared(w, t, pair_i, pair_j)
    z[rows] = z_rows
    p[rows] -= ops.beta * (coeff * x[col] + w * z_rows)


def x_update(prob: SeparableProblem, state: PrimalDualState,
             active_components) -> np.ndarray:
    """Re-solve the local subproblems of the active components.

    Each active component i minimizes
    ``f_i(u) + (beta/2)||D_i u||^2 - (p - beta H z)' D_i u`` over its set,
    using all constraint rows it owns; inactive components are unchanged.
    """
    ops = _ops(prob)
    x = state.x.copy()
    n = ops.n
    for i in active_components:
        i = int(i)
        x[i * n:(i + 1) * n] = ops.solve_component(i, state.p, state.z)
    return x


def z_update(prob: SeparableProblem, state: PrimalDualState,
             x_new: np.ndarray, active_rows) -> np.ndarray:
    """Refit the active z rows against the refreshed coupling values.

    The active block minimizes
    ``(beta/2)||H_psi z||^2 - (p - beta D_phi x+)' H_psi z`` over the z
    set restricted to the block; inactive rows are unchanged.
    """
    ops = _ops(prob)
    rows = np.asarray(active_rows, dtype=np.intp)
    z = state.z.copy()
    if rows.size == 0:
        return z
    t = state.p[rows] / ops.beta - ops.coeff[rows] * x_new[ops.col[rows]]
    sub = ZBlockSubproblem(weights=ops.h[rows], target=t,
                           set=_restrict_z_set(prob.z_set, rows))
    z[rows] = solve_z_block(sub)
    return z


def _restrict_z_set(z_set, rows):
    if isinstance(z_set, SumZeroPairs) and z_set.pairs:
        pos = {int(r): a for a, r in enumerate(rows)}
        local = []
        for i, j in z_set.pairs:
            ii, jj = pos.get(i), pos.get(j)
            if (ii is None) != (jj is None):
                raise ImproperPartition(
                    f"active rows split the coupled pair ({i},{j})")
            if ii is not None:
                local.append((ii, jj))
        return SumZeroPairs(dim=rows.size, pairs=tuple(local))
    return Free(dim=rows.size)


def dual_update(prob: SeparableProblem, state: PrimalDualState,
                x_new: np.ndarray, z_new: np.ndarray, active_rows) -> np.ndarray:
    """Residual step ``p <- p - beta (D_phi x+ + H_psi z+)`` on active rows."""
    ops = _ops(prob)
    rows = np.asarray(active_rows, dtype=np.intp)
    p = state.p.copy()
    if rows.size == 0:
        return p
    r_active = ops.coeff[rows] * x_new[ops.col[rows]] + ops.h[rows] * z_new[rows]
    p[rows] -= ops.beta * r_active
    return p


def shadow_step(prob: SeparableProblem, state: PrimalDualState) -> ShadowIterates:
    """Full-information iterates (y, v, mu) from the given state."""
    ops = _ops(prob)
    y = ops.solve_all(state.p, state.z)
    t = state.p / ops.beta - ops.coeff * y[ops.col]
    v = solve_z_prepared(ops.h, t, ops.pair_i, ops.pair_j)
    r = ops.coeff * y[ops.col] + ops.h * v
    mu = state.p - ops.beta * r
    return ShadowIterates(y=y, v=v, mu=mu, r=r)


def step(prob: SeparableProblem, state: PrimalDualState,
         partition: ProperPartition, dist: ActivationDistribution,
         rng: RngStream, with_shadow: bool = False) -> StepRecord:
    """One asynchronous iteration: sample a block, update x, z, p in order.

    The input state is left as it is; the step works on a copy.
    """
    b = sample_block(dist, rng)
    shadow = shadow_step(prob, state) if with_shadow else None
    after = PrimalDualState(x=state.x.copy(), z=state.z.copy(),
                            p=state.p.copy(), k=state.k + 1)
    _apply_block(_ops(prob), _block_table(prob, partition).block(b),
                 after.x, after.z, after.p)
    return StepRecord(block=b, before=state, after=after, shadow=shadow)


def sync_admm_step(std_prob: StandardProblem,
                   state: PrimalDualState) -> PrimalDualState:
    """One synchronous two-block iteration (x, then z, then dual ascent).

    Both minimizations are one pass over all coordinates: the x step is
    :meth:`_CompiledOps.solve_all` at the right-hand side c, and the z
    step, with z terms, is the same grouped prox at ``q = beta h^2``,
    ``l = (p - beta (D x - c)) h`` on the z set's bounds.
    """
    ops = getattr(std_prob, "_engine_ops", None)
    if ops is None:
        cs = std_prob.constraints
        ops = _CompiledOps(cs, std_prob.x_terms, x_set_bounds(std_prob),
                           std_prob.beta)
        ops.set_pairs(std_prob.z_set)
        if std_prob.z_terms is not None:
            zs = std_prob.z_set
            lo, hi = ((zs.lower, zs.upper) if isinstance(zs, Box)
                      else (np.full(cs.W, -np.inf), np.full(cs.W, np.inf)))
            ops.z_prox = _GroupedProx(std_prob.z_terms, 1,
                                      (ops.beta * ops.h ** 2)[:, None],
                                      lo[:, None], hi[:, None])
        std_prob._engine_ops = ops
    c = std_prob.c
    x = ops.solve_all(state.p, state.z, c=c)
    q = state.p - ops.beta * (ops.coeff * x[ops.col] - c)
    if std_prob.z_terms is None:
        z = solve_z_prepared(ops.h, q / ops.beta, ops.pair_i, ops.pair_j)
    else:
        linear = q * ops.h
        if not np.all(np.isfinite(linear)):
            raise NonfiniteInput("subproblem data contains non-finite values")
        z = ops.z_prox.solve(linear)
    p = state.p - ops.beta * (ops.coeff * x[ops.col] + ops.h * z - c)
    return PrimalDualState(x=x, z=z, p=p, k=state.k + 1)


@dataclass
class Probes:
    """Which optional quantities a run records."""

    shadow: bool = False
    lyapunov: bool = False
    ergodic: bool = True


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
    """The values a run records, one column per record point.

    ``run`` and ``run_batch`` keep one recorder per seed, so both record
    through the same code. Rows of ``values`` are the recorded series in
    ``RunMetrics`` order (objective, its error, feasibility, ergodic
    objective error, ergodic feasibility, Lyapunov value).
    """

    def __init__(self, prob, dist, probes, ref, f_star, T, stride):
        self.prob, self.probes, self.ref = prob, probes, ref
        self.f_star = f_star
        self.wd = dist.weight_diag
        self.inv_2b = 1.0 / (2.0 * prob.beta)
        self.half_b = 0.5 * prob.beta
        count = -(-T // stride)   # every stride-th iteration, and T
        self.values = np.empty((6, count))
        self.iters = np.empty(count, dtype=np.intp)
        self.blocks = np.empty(count, dtype=np.intp)
        self.count = 0

    def add(self, k, b, x, z, p, xb=None, zb=None):
        """Record iteration k of block b (xb, zb: the ergodic means)."""
        prob, f_star = self.prob, self.f_star
        obj = objective(prob, x)
        feas = float(np.linalg.norm(residual(prob, x, z)))
        if self.probes.ergodic:
            eobj = abs(objective(prob, xb) - f_star)
            efeas = float(np.linalg.norm(residual(prob, xb, zb)))
        else:
            eobj = efeas = np.nan
        if self.probes.lyapunov:
            dp = p - self.ref.p
            hz = prob.constraints.h_diag * (z - self.ref.z)
            lyap = (self.inv_2b * float(np.dot(dp * self.wd, dp))
                    + self.half_b * float(np.dot(hz * self.wd, hz)))
        else:
            lyap = np.nan
        j = self.count
        self.values[:, j] = (obj, abs(obj - f_star), feas, eobj, efeas, lyap)
        self.iters[j] = k
        self.blocks[j] = b
        self.count = j + 1

    def metrics(self, seed, T, x, z, p, x_sum, z_sum, counters,
                maxima) -> "RunMetrics":
        x_max, z_max, p_max = maxima
        obj, objerr, feas, eobj, efeas, lyap = self.values
        return RunMetrics(
            seed=seed, iters=self.iters, objective=obj,
            objective_error=objerr, feasibility=feas,
            ergodic_objective_error=eobj, ergodic_feasibility=efeas,
            lyapunov=lyap, active_block=self.blocks,
            final_state=PrimalDualState(x=x.copy(), z=z.copy(), p=p.copy(),
                                        k=T),
            x_bar=x_sum / T, z_bar=z_sum / T, counters=counters,
            x_max_abs=x_max, z_max_abs=z_max, p_max_abs=p_max)


def _check_run_args(T, stride, probes, ref):
    if T < 1:
        raise ValueError("T must be >= 1")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if probes is None:
        probes = Probes()
    if probes.lyapunov and (ref is None or ref.p is None):
        raise MissingReference("lyapunov probe requires a dual reference")
    return probes


def _new_counters(T):
    return {"steps": T, "shadow_checks": 0, "shadow_failures": 0,
            "freeze_checks": 0, "freeze_failures": 0}


def _start(prob, x0, z0):
    """Initial state and its max |x|, |z|, |p|, checked against the guard."""
    state = initial_state(prob, x0, z0)
    maxima = [float(np.max(np.abs(v), initial=0.0))
              for v in (state.x, state.z, state.p)]
    x_max, z_max, _ = maxima
    if not (x_max <= DIVERGENCE_LIMIT and z_max <= DIVERGENCE_LIMIT):
        raise DivergenceError(f"initial state magnitude (x {x_max:.3e}, "
                              f"z {z_max:.3e}) exceeds the divergence guard")
    return state, maxima


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


def _draw_blocks(dist, rng: RngStream, count: int):
    """The blocks of ``count`` steps, in :func:`sample_block`'s order."""
    while count > 0:
        chunk = min(count, _DRAW_CHUNK)
        yield from blocks_for(dist, rng.uniforms(chunk)).tolist()
        count -= chunk


def run(prob: SeparableProblem, partition: ProperPartition,
        dist: ActivationDistribution, seed: int, T: int,
        probes: Optional[Probes] = None, ref=None,
        x0=None, z0=None, stride: int = 1) -> RunMetrics:
    """Execute T asynchronous steps and record metrics every ``stride`` iters.

    ``ref`` (a diagnostics reference solution) enables objective-error and
    Lyapunov columns; without it those columns are NaN. Aborts with
    :class:`DivergenceError` when iterates exceed the divergence guard.
    """
    probes = _check_run_args(T, stride, probes, ref)
    ops = _ops(prob)
    table = _block_table(prob, partition)
    state, maxima = _start(prob, x0, z0)
    dim_x, dim_z = prob.dim_x, prob.dim_z
    # x, z and p are views of one stacked vector, so the coordinates a
    # block moves are one index array (table.moved)
    buf = np.concatenate([state.x, state.z, state.p])
    x, z, p = buf[:dim_x], buf[dim_x:dim_x + dim_z], buf[dim_x + dim_z:]
    # lazy ergodic sums: acc[c] sums coordinate c over the iterations
    # before since[c]; its current value holds from since[c] on and is
    # added just before it moves, and for every coordinate at a flush
    # (p is summed too, unused, so that one index array serves both)
    acc = np.zeros_like(buf)
    since = np.ones_like(buf)
    moved, moved_ptr, moved_cuts = table.moved, table.moved_ptr, table.moved_cuts
    f_star = objective(prob, ref.x) if ref is not None else np.nan
    rec = _Recorder(prob, dist, probes, ref, f_star, T, stride)
    counters = _new_counters(T)
    x_max, z_max, p_max = maxima

    for k, b in enumerate(_draw_blocks(dist, RngStream(seed), T), start=1):
        if probes.shadow:
            before = buf.copy()
            shadow = shadow_step(prob, PrimalDualState(
                x=before[:dim_x], z=before[dim_x:dim_x + dim_z],
                p=before[dim_x + dim_z:], k=k - 1))
        idx = moved[moved_ptr[b]:moved_ptr[b + 1]]
        acc[idx] += (k - since[idx]) * buf[idx]
        since[idx] = k
        _apply_block(ops, table.block(b), x, z, p)
        if probes.shadow:
            _tally_shadow(table, b, before, buf, shadow, counters)
        # only the active coordinates moved, so guarding them guards all;
        # the block's max |x|, |z|, |p| is NaN if any of them is NaN
        hot = np.maximum.reduceat(np.abs(buf[idx]), moved_cuts[b])
        failure = _guard_message(hot, k, seed, b)
        if failure is not None:
            raise DivergenceError(failure)
        x_hot, z_hot, p_hot = hot.tolist()
        if x_hot > x_max:
            x_max = x_hot
        if z_hot > z_max:
            z_max = z_hot
        if p_hot > p_max:
            p_max = p_hot
        if k % stride and k != T:
            continue
        if probes.ergodic or k == T:
            acc += (k + 1 - since) * buf
            since.fill(k + 1)
        if probes.ergodic:
            rec.add(k, b, x, z, p, acc[:dim_x] / k,
                    acc[dim_x:dim_x + dim_z] / k)
        else:
            rec.add(k, b, x, z, p)

    return rec.metrics(seed, T, x, z, p, acc[:dim_x], acc[dim_x:dim_x + dim_z],
                       counters, (x_max, z_max, p_max))


class _BatchTable:
    """One partition's blocks padded to a common shape, for :func:`run_batch`.

    A seed's state is one row of length ``width``: x with one dummy
    component appended (``(N+1) n`` slots), then z and p with one dummy
    row each (``W+1`` slots each). Row ``b`` of ``idx`` and ``const`` holds
    block ``b``'s lanes as local indices into that row and as constants,
    in named column groups (``icol`` and ``ccol`` hold their slices). A
    block smaller than the largest is padded with lanes that read and
    write only the dummy slots, with constants chosen so that those slots
    stay zero:

    - x lanes (``C n``): the block's components, then the dummy one;
    - z/p lanes (``R = 2P + U``): first rows of the z pairs, their
      partners, then unpaired rows, each group padded to its maximum;
    - tilt lanes (``C n D``): every row of each x lane's component and
      coordinate, padded to the largest count ``D`` with coefficient
      ``-0.0``, which adds nothing in :func:`_row_sums`.
    """

    def __init__(self, ops: _CompiledOps, groups, table: _BlockTable):
        n, N, W = ops.n, ops.N, ops.W
        xseg = (N + 1) * n
        self.z0, self.p0 = xseg, xseg + W + 1
        self.width = xseg + 2 * (W + 1)

        # components of each block, padded with the dummy component N
        ncomp = np.diff(table.comp_ptr)
        m, C = ncomp.size, int(ncomp.max())
        comps = np.full((m, C), N, dtype=np.intp)
        comps[_ragged(ncomp)] = table.comps
        x_lanes = (comps[:, :, None] * n + np.arange(n)).reshape(m, C * n)

        def per_lane(values, fill):
            """Per-component values, with a dummy row, for each x lane."""
            values = np.asarray(values).reshape(N, -1)
            dummy = np.full((1, values.shape[1]), fill, dtype=values.dtype)
            return np.vstack([values, dummy])[comps].reshape(m, -1)

        # per component and coordinate: its rows in order, padded to D
        D = int(ops.counts.max())
        grid = ops.col[ops.rows] * D + _ragged(ops.counts)[1]
        t_rows = np.full(N * n * D, W, dtype=np.intp)
        t_rows[grid] = ops.rows
        t_coeff = np.full(N * n * D, -0.0)
        t_coeff[grid] = ops.coeffs_sorted
        t_h = np.zeros(N * n * D)
        t_h[grid] = ops.h_sorted
        t_rows = per_lane(t_rows, W)
        t_coeff = per_lane(t_coeff, -0.0)
        t_h = per_lane(t_h, 0.0)
        # closed-form constants per x lane; the dummy lane solves to +0.0
        w2 = np.zeros(N * n)
        w2c = np.zeros(N * n)
        a = np.zeros(N * n)
        kink = np.zeros(N * n)
        is_quad = np.zeros(N * n)
        w2[groups.quad_idx] = 2.0 * groups.quad_weight
        w2c[groups.quad_idx] = w2[groups.quad_idx] * groups.quad_center
        is_quad[groups.quad_idx] = 1.0
        a[groups.abs_idx] = groups.abs_center
        kink[groups.abs_idx] = 1.0
        kink[groups.l1_idx] = groups.l1_gamma
        self.has_quad = bool(groups.quad_idx.size)
        self.has_kink = bool(groups.abs_idx.size or groups.l1_idx.size)
        # the closed forms' constants, only for the kinds present
        lane_consts = {name: per_lane(v, fill) for name, v, fill, used in (
            ("quad", ops.quad, 1.0, True), ("lo", ops.lo, -np.inf, True),
            ("hi", ops.hi, np.inf, True), ("w2", w2, 0.0, self.has_quad),
            ("w2c", w2c, 0.0, self.has_quad), ("a", a, 0.0, self.has_kink),
            ("kink", kink, 0.0, self.has_kink),
            ("is_quad", is_quad, 1.0, self.has_quad and self.has_kink))
            if used}

        # z/p lanes: pair firsts, pair seconds, unpaired rows; pads point
        # at the dummy row, which has weight 1 and coefficient 0
        sizes = np.diff(table.row_ptr)
        npair = np.diff(table.pair_ptr)
        P = int(npair.max(initial=0))
        nfree = sizes - 2 * npair
        U = int(nfree.max())
        R = 2 * P + U
        z_rows = np.full((m, R), W, dtype=np.intp)
        blk, pos = _ragged(npair)
        first = np.asarray(table.row_ptr[:-1], dtype=np.intp)[blk]
        z_rows[blk, pos] = table.rows[first + table.pair_i]
        z_rows[blk, P + pos] = table.rows[first + table.pair_j]
        paired = np.zeros(W, dtype=bool)
        paired[first + table.pair_i] = True
        paired[first + table.pair_j] = True
        free = np.flatnonzero(~paired)
        blk, pos = _ragged(nfree)
        z_rows[blk, 2 * P + pos] = table.rows[free]
        w = np.append(ops.h, 1.0)[z_rows]
        z_coeff = np.append(ops.coeff, 0.0)[z_rows]
        z_col = np.append(ops.col, n * N)[z_rows]
        den = w[:, :P] * w[:, :P] + w[:, P:2 * P] * w[:, P:2 * P]

        self.idx, self.icol = _stack(
            x=x_lanes, z=self.z0 + z_rows, p=self.p0 + z_rows, col=z_col,
            tilt_z=self.z0 + t_rows, tilt_p=self.p0 + t_rows)
        self.const, self.ccol = _stack(
            coeff=t_coeff, h=t_h, **lane_consts, w=w, z_coeff=z_coeff,
            den=den)
        self.Cn, self.D, self.P, self.U = C * n, D, P, U
        self.p_lane = C * n + R    # where the p lanes start
        # the moved coordinates: the x, z and p lanes, in that order
        self.moved = slice(0, C * n + 2 * R)
        self.cuts = np.array([0, C * n, C * n + R], dtype=np.intp)


def _stack(**groups):
    """Column groups side by side, and the slice each group occupies."""
    cols, start = {}, 0
    for name, arr in groups.items():
        cols[name] = slice(start, start + arr.shape[1])
        start += arr.shape[1]
    return np.concatenate(list(groups.values()), axis=1), cols


# padded lanes a batch table may hold; beyond it (a hub component in many
# blocks pads every block to its degree) batches fall back to run()
_BATCH_LANE_LIMIT = 1 << 20


def batch_supports(prob: SeparableProblem, partition: ProperPartition,
                   probes: Optional[Probes] = None) -> bool:
    """Whether :func:`run_batch` covers this problem, partition and probes.

    It covers Quadratic, AbsDev and L1 terms (no Custom term) whose
    coordinates all have a coupling row, the ergodic and Lyapunov probes
    but not the shadow probe, and partitions whose padded block table
    stays under ``_BATCH_LANE_LIMIT`` lanes.
    """
    if probes is not None and probes.shadow:
        return False
    if term_groups(prob).other:
        return False
    ops = _ops(prob)
    if not np.all(ops.quad > 0):
        return False
    ncomp = np.diff(_block_table(prob, partition).comp_ptr)
    lanes = ncomp.size * int(ncomp.max()) * ops.n * int(ops.counts.max())
    return lanes <= _BATCH_LANE_LIMIT


def _batch_table(prob, partition) -> _BatchTable:
    table = _block_table(prob, partition)
    if getattr(table, "batch", None) is None:
        table.batch = _BatchTable(_ops(prob), term_groups(prob), table)
    return table.batch


def _fire_lanes(bt: _BatchTable, beta, flat, acc_flat, since_flat, idx,
                const, k):
    """Fire one block per lane on the flat batch state, in place.

    Lane ``l`` is row ``l`` of ``idx`` (a block's lanes of
    :class:`_BatchTable` as flat ``row * width + index`` indices, so it
    names a state row and a block) and of ``const`` (the block's
    constants), at iteration ``k``: one number for every lane, or a
    column with one per lane. Every lane reads before any lane writes, so
    no lane may write what another reads: the seeds of one lockstep
    iteration, or one wave of a seed (:func:`_wave_ends`). The x closed
    forms, the z fit and the dual step are those of :func:`run`, as the
    same floating-point operations in the same order. Returns each lane's
    max |x|, |z|, |p| over its block.
    """
    Cn, P = bt.Cn, bt.P
    ic, cc = bt.icol, bt.ccol
    # lazy ergodic sums of the coordinates about to move
    mv = idx[:, bt.moved]
    old = flat[mv]
    acc_flat[mv] += (k - since_flat[mv]) * old
    since_flat[mv] = k
    # x: closed-form solve of each lane against the current z, p
    g = const[:, cc["coeff"]] * (flat[idx[:, ic["tilt_p"]]] - beta * (
        const[:, cc["h"]] * flat[idx[:, ic["tilt_z"]]]))
    lin = _row_sums(g.reshape(len(idx), Cn, bt.D))[..., 0]
    q, lo, hi = const[:, cc["quad"]], const[:, cc["lo"]], const[:, cc["hi"]]
    if bt.has_quad:
        u = quadratic_prox(const[:, cc["w2"]], const[:, cc["w2c"]], q, lin,
                           lo, hi)
    if bt.has_kink:
        uk = kink_prox(const[:, cc["a"]], const[:, cc["kink"]], q, lin, lo,
                       hi)
        u = np.where(const[:, cc["is_quad"]] > 0, u, uk) if bt.has_quad \
            else uk
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


def _wave_ends(table: _BlockTable, blocks, k: int, stride: int, T: int):
    """Where the waves of one seed's draws end (exclusive, in ``blocks``).

    ``blocks`` fire at iterations ``k+1, k+2, ...``. A wave is a maximal
    run of consecutive draws in which no block reads a coordinate that an
    earlier block of the wave writes. A block writes its components' x and
    its rows' z and p, and reads the z and p of every row its components
    own, so it joins the wave unless one of those rows belongs to a block
    already in it (``table.clash``); such blocks commute, and firing them
    at once gives the serial result. A wave also ends at every record
    iteration and at the last draw.
    """
    clash, ptr = table.clash, table.clash_ptr
    ends, wave = [], set()
    record = min(T, (k // stride + 1) * stride)
    for j, b in enumerate(blocks):
        if not wave.isdisjoint(clash[ptr[b]:ptr[b + 1]]):
            ends.append(j)
            wave.clear()
        wave.add(b)
        if k + j + 1 == record:
            ends.append(j + 1)
            wave.clear()
            record = min(T, record + stride)
    if not ends or ends[-1] != len(blocks):
        ends.append(len(blocks))
    return ends


def run_batch(prob: SeparableProblem, partition: ProperPartition,
              dist: ActivationDistribution, seeds, T: int,
              probes: Optional[Probes] = None, ref=None,
              x0=None, z0=None, stride: int = 1) -> list:
    """Run every seed in lockstep; element s equals ``run(seeds[s], ...)``.

    All seeds share one ``(S, width)`` state (see :class:`_BatchTable`).
    Each call of :func:`_fire_lanes` fires a set of lanes, each a (seed,
    block, iteration) triple, on flat ``seed * width + index`` indices:
    with several seeds, one lane per seed per iteration, each drawn from
    the seed's own SplitMix64 stream; with one seed, one wave of
    consecutive draws that commute (:func:`_wave_ends`). The x closed
    forms are the functions ``solve_component`` calls, and every field of
    the returned metrics is equal to ``run``'s bit for bit. Records are
    taken per seed by the same recorder ``run`` uses.

    When a seed diverges, the :class:`DivergenceError` is the one
    ``run`` would raise for the first seed in ``seeds`` order that
    diverges. Raises ``ValueError`` if :func:`batch_supports` is false.
    """
    probes = _check_run_args(T, stride, probes, ref)
    if not batch_supports(prob, partition, probes):
        raise ValueError("run_batch does not cover this problem or probe "
                         "set; use run() per seed")
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seeds must be nonempty")
    table = _block_table(prob, partition)
    bt = _batch_table(prob, partition)
    S = len(seeds)
    start, maxima = _start(prob, x0, z0)
    dim_x, W = prob.dim_x, prob.dim_z
    beta = prob.beta
    state = np.zeros((S, bt.width))
    state[:, :dim_x] = start.x
    state[:, bt.z0:bt.z0 + W] = start.z
    # each seed's x, z and p, as rows of views into the state
    xs = state[:, :dim_x]
    zs = state[:, bt.z0:bt.z0 + W]
    ps = state[:, bt.p0:bt.p0 + W]
    flat = state.reshape(-1)
    acc = np.zeros_like(state)
    acc_flat = acc.reshape(-1)
    since = np.ones_like(state)
    since_flat = since.reshape(-1)
    maxima = np.tile(maxima, (S, 1))
    f_star = objective(prob, ref.x) if ref is not None else np.nan
    recs = [_Recorder(prob, dist, probes, ref, f_star, T, stride)
            for _ in seeds]
    failures = {}

    base = (np.arange(S) * bt.width)[:, None]
    rngs = [RngStream(seed) for seed in seeds]
    per_chunk = max(1, _DRAW_CHUNK // S)
    k = 0
    while k < T and 0 not in failures:
        chunk = min(per_chunk, T - k)
        blocks = blocks_for(dist, draw_uniforms(rngs, chunk))
        ends = (_wave_ends(table, blocks[:, 0].tolist(), k, stride, T)
                if S == 1 else range(1, chunk + 1))
        lo = 0
        for hi in ends:
            # draws lo..hi-1 of every seed, one lane each, in draw order
            lanes = blocks[lo:hi].reshape(-1)
            idx = bt.idx[lanes]
            if S > 1:
                idx += base
            k_lanes = k + hi if hi - lo == 1 else \
                np.arange(k + lo + 1, k + hi + 1)[:, None]
            hot = _fire_lanes(bt, beta, flat, acc_flat, since_flat, idx,
                              bt.const[lanes], k_lanes)
            if not np.all(hot <= DIVERGENCE_LIMIT):
                _batch_failures(hot, k + lo, seeds, lanes, failures, state)
                if 0 in failures:
                    break
            # one seed's lanes are its draws: fold them into its maxima
            np.maximum(maxima, hot if S > 1 else hot.max(axis=0), out=maxima)
            lo = hi
            it = k + hi
            if it % stride and it != T:
                continue
            if probes.ergodic or it == T:
                acc += (it + 1 - since) * state
                since.fill(it + 1)
            if probes.ergodic:
                xbs = acc[:, :dim_x] / it
                zbs = acc[:, bt.z0:bt.z0 + W] / it
            else:
                xbs = zbs = [None] * S
            for s, bs in enumerate(blocks[hi - 1].tolist()):
                recs[s].add(it, bs, xs[s], zs[s], ps[s], xbs[s], zbs[s])
        k += chunk
    if failures:
        raise DivergenceError(failures[min(failures)])
    return [rec.metrics(seed, T, xs[s], zs[s], ps[s], acc[s, :dim_x],
                        acc[s, bt.z0:bt.z0 + W], _new_counters(T),
                        tuple(maxima[s].tolist()))
            for s, (seed, rec) in enumerate(zip(seeds, recs))]


def _batch_failures(hot, k, seeds, lanes, failures, state):
    """Note each seed's first guard failure and park its state at zero.

    Lane ``l`` fired block ``lanes[l]`` of seed ``l % S`` at iteration
    ``k + 1 + l // S``, so a seed's first failing lane is its earliest
    failure. Only the first diverging seed in ``seeds`` order is
    reported, so the others keep running until they finish or diverge; a
    failed seed's state is zeroed so that it produces no further
    non-finite values.
    """
    S = len(seeds)
    for lane in np.flatnonzero(~np.all(hot <= DIVERGENCE_LIMIT, axis=1)):
        s, draw = int(lane) % S, int(lane) // S
        if s not in failures:
            failures[s] = _guard_message(hot[lane], k + 1 + draw, seeds[s],
                                         int(lanes[lane]))
        state[s] = 0.0
        hot[lane] = 0.0


SHADOW_TOL = 1e-9


def _tally_shadow(table: _BlockTable, b: int, before, after,
                  shadow: ShadowIterates, counters: dict):
    """Check block ``b``'s step against the shadow pass and the freezes.

    ``before`` and ``after`` are the stacked ``[x, z, p]`` states around
    the step and ``shadow`` the pass from ``before``. The step agrees when
    no group of moved coordinates (each component's x, the block's z rows,
    its p rows) differs from the shadow by more than ``SHADOW_TOL`` at its
    largest (a group holding a NaN difference has a NaN largest, which
    passes). It froze the rest when every other coordinate is unchanged
    (NaN is never unchanged).
    """
    idx = table.moved[table.moved_ptr[b]:table.moved_ptr[b + 1]]
    starts, ptr = table.groups
    cuts = starts[ptr[b]:ptr[b + 1]]
    target = np.concatenate([shadow.y, shadow.v, shadow.mu])
    gap = np.maximum.reduceat(np.abs(after[idx] - target[idx]), cuts)
    counters["shadow_checks"] += 1
    if np.any(gap > SHADOW_TOL):
        counters["shadow_failures"] += 1
    changed = after != before
    changed[idx] = False
    counters["freeze_checks"] += 1
    if changed.any():
        counters["freeze_failures"] += 1
