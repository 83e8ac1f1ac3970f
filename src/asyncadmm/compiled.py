"""The compiled form of a problem and its synchronous step.

``_CompiledOps`` holds a problem's arrays for the update kernels, built
once per problem (``_ops``): the block tables of ``engine`` read them, and
its ``sync_step`` is the one synchronous step, which the reference solve,
``engine.sync_admm_step`` and ``engine.shadow_step`` run.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .problem import SeparableProblem
from .prox import _GroupedProx, pair_weights
from .scheduler import _offsets
from .terms import SumZeroPairs


def _ragged(sizes):
    """Segment and position within it of each element of ragged segments."""
    sizes = np.asarray(sizes, dtype=np.intp)
    seg = np.repeat(np.arange(sizes.size), sizes)
    return seg, np.arange(seg.size) - _offsets(sizes)[:-1][seg]


class _CompiledOps:
    """Per-problem arrays for the update kernels (built once, read-only).

    ``lo``, ``hi`` are the component sets' stacked bounds and ``groups``
    the objective's arrays, both as the problem stores them (no term or
    set object is read). ``pair_i``/``pair_j`` are the z set's pairs over
    all rows, contiguous for the z fits (empty for a free z set).

    The constraint rows are sorted by component, then coordinate, then
    row (``rows``), with ``counts`` the rows per (component, coordinate);
    ``coeffs_sorted`` and ``h_sorted`` follow that order.

    :meth:`sync_step` is the one synchronous step: the reference solve,
    ``engine.sync_admm_step`` and ``engine.shadow_step`` all run it. It
    reads the rows in :attr:`tilt_order` and solves through :attr:`prox`;
    both are built on first use, so runs that never need them do not pay
    for them, and so are the tiled constants and scratch arrays of
    :meth:`stacked` (one entry per stack shape a caller uses). Its results
    are never views of the scratch; the scratch makes it neither
    thread-safe nor reentrant on one problem.
    """

    def __init__(self, prob: SeparableProblem):
        cs = prob.constraints
        self.n, self.N, self.W = cs.n, cs.N, cs.W
        self.beta = prob.beta
        self.groups = prob.groups
        self.h = cs.h_diag
        self.coeff = cs.row_coeff
        self.col = cs.col_index
        self.rows = np.argsort(cs.col_index, kind="stable")
        self.coeffs_sorted = cs.row_coeff[self.rows]
        self.h_sorted = cs.h_diag[self.rows]
        # rows per (component, coordinate), the coupling columns of D
        self.counts = np.bincount(cs.col_index, minlength=cs.N * cs.n)
        self.quad = prob.beta * np.bincount(
            cs.col_index, weights=cs.row_coeff ** 2,
            minlength=cs.N * cs.n).reshape(cs.N, cs.n)
        self.lo, self.hi = prob.bounds.lo, prob.bounds.hi
        if isinstance(prob.z_set, SumZeroPairs):
            self.pair_i, self.pair_j = np.ascontiguousarray(prob.z_set.pairs.T)
        else:
            self.pair_i = self.pair_j = np.empty(0, dtype=np.intp)
        # where z and p start in a synchronous iterate's [x | z | p] row
        self.cuts = [cs.N * cs.n, cs.N * cs.n + cs.W]
        self.width = self.cuts[1] + cs.W
        self._stacked = {}

    @cached_property
    def prox(self) -> _GroupedProx:
        """The closed forms of every x coordinate, for :meth:`solve_all`."""
        return _GroupedProx(self.groups, self.quad, self.lo, self.hi)

    @cached_property
    def tilt_order(self):
        """How :meth:`solve_all` sums the tilt of every (component,
        coordinate) group: ``(rows, coeff, h, first, ranks, tails, pos)``.

        Groups are ordered by decreasing row count, so the groups with more
        than ``r`` rows are a prefix. The terms are laid out by rank for
        the first ``K`` ranks (every group's first row, then every second
        row, ...): ``rows`` and their ``coeff`` and ``h``. Rank ``r`` adds
        into the sums of the prefix that reaches it, one slice each
        (``ranks``: ``(k, a, b)`` adds terms ``a:b`` into sums ``:k``);
        with ``first`` every group has a row, and rank 0 is the sums
        (``-0.0 + v`` is ``v``, bit for bit), else they start at ``-0.0``.
        The few groups longer than ``K`` follow, each as a slot and its
        rows past ``K`` (``tails``: ``(j, a, b)``, group ``j``'s slot at
        ``a``; the slot's own term is a placeholder), and each goes on from
        its partial sum, copied into the slot, with one accumulate. ``K``
        makes the loop passes, one per rank and three per tail, fewest, so
        a hub's degree does not set their number. ``pos`` is each group's
        place in that order (None when it is the groups' own order).
        """
        NN = self.N * self.n
        by_count = np.argsort(-self.counts, kind="stable")
        count = self.counts[by_count]
        # reach[r]: the groups with more than r rows
        reach = np.searchsorted(-count, -np.arange(int(count[0]) + 1))
        K = 1 + int(np.argmin(np.arange(1, reach.size) + 3 * reach[1:]))
        start = _offsets(self.counts)[:-1][by_count]
        rank, j = _ragged(reach[:K])
        j_tail, at = _ragged(count[:reach[K]] - (K - 1))
        sel = np.concatenate([start[j] + rank,
                              start[j_tail] + np.where(at, K - 1 + at, 0)])
        ptr = _offsets(reach[:K]).tolist()
        ends = (ptr[-1] + _offsets(count[:reach[K]] - (K - 1))).tolist()
        first = int(reach[0] == NN)
        pos = np.empty_like(by_count)
        pos[by_count] = np.arange(NN)
        return (self.rows[sel], self.coeffs_sorted[sel], self.h_sorted[sel],
                first,
                [(int(reach[r]), ptr[r], ptr[r + 1]) for r in range(first, K)],
                list(zip(range(len(ends) - 1), ends[:-1], ends[1:])),
                None if np.all(by_count[1:] > by_count[:-1]) else pos)

    def solve_all(self, p, z, out=None):
        """Every x component minimized against ``p`` and ``z``, in one pass.

        ``p`` and ``z`` are one point or one per row (``(..., W)``), each
        row solved as the 1-D call solves it, into ``out`` or a new array.
        Each (component, coordinate) sum starts at ``-0.0`` and adds its
        rows strictly left to right (:attr:`tilt_order`), so it is the sum
        of the block kernel's tilt lanes bit for bit at O(W) work; the
        solves are :class:`_GroupedProx`'s. Every step before the solve
        writes into the scratch of :meth:`stacked`.
        """
        return self._solve_x(self.stacked(p.shape[:-1]), p, z, out)

    def _solve_x(self, s, p, z, out):
        """:meth:`solve_all` on the arrays ``s`` of ``p``'s stack shape."""
        g, gz = s.g, s.gz
        z.take(s.rows, -1, gz, "clip")
        np.multiply(s.t_h, gz, gz)
        np.multiply(s.beta, gz, gz)
        p.take(s.rows, -1, g, "clip")
        np.subtract(g, gz, g)
        np.multiply(s.t_coeff, g, g)
        if not s.first:
            s.sums[...] = -0.0
        for sums, terms in s.ranks:
            np.add(sums, terms, sums)
        for sums, slot, terms, last in s.tails:
            slot[...] = sums
            np.add.accumulate(terms, -1, None, terms)
            sums[...] = last
        if s.pos is not None:
            s.sums.take(s.pos, -1, s.l, "clip")
        return self.prox.solve(s.l, (s.closed, self.prox.serial_at), out=out,
                               work=s.work)

    def sync_step(self, src, out, r=None):
        """One synchronous iteration from the arrays ``src`` into the
        arrays ``out``, each an (x, z, p) triple of one point or of one
        per row; ``r`` receives ``D x + H z`` when given.

        One fixed program of array operations, each writing into the
        scratch of :meth:`stacked` or into ``out``: the x solve
        (:meth:`solve_all`), the z fit of ``p / beta - D x`` for every row
        and pair, and the dual step. It makes no temporaries and keeps the
        elementwise operations of the plain step in their order, so every
        iterate is that step's bit for bit.
        """
        (x, z, p), (_, z0, p0) = out, src
        s = self.stacked(p0.shape[:-1])
        dx, t = s.dx, s.t
        self._solve_x(s, p0, z0, x)
        x.take(self.col, -1, dx, "clip")
        np.multiply(s.coeff, dx, dx)
        np.divide(p0, s.beta, t)
        np.subtract(t, dx, t)
        np.divide(t, s.h, z)
        if s.ti.size:
            (wi, wj, den), ti, tj = s.pair_w, s.ti, s.tj
            if s.views:
                # the pairs step evenly: the fit reads t and writes z as views
                np.multiply(wi, s.t_i, ti)
                np.multiply(wj, s.t_j, tj)
                np.subtract(ti, tj, ti)
                zi = z[..., s.pair_i]
                np.divide(ti, den, zi)
                np.negative(zi, z[..., s.pair_j])
            else:
                t.take(s.pair_i, -1, ti, "clip")
                np.multiply(wi, ti, ti)
                t.take(s.pair_j, -1, tj, "clip")
                np.multiply(wj, tj, tj)
                np.subtract(ti, tj, ti)
                np.divide(ti, den, ti)
                z[..., s.pair_i] = ti
                np.negative(ti, ti)
                z[..., s.pair_j] = ti
        r = s.r if r is None else r
        np.multiply(s.h, z, s.hz)
        np.add(dx, s.hz, r)
        np.multiply(s.beta, r, s.hz)
        np.subtract(p0, s.hz, p)

    def stacked(self, shape) -> "_Stacked":
        """The arrays :meth:`sync_step` reads and writes besides its input
        and output, for a stack of points of ``shape`` (``()`` for one
        point), built once per shape."""
        arrays = self._stacked.get(shape)
        if arrays is None:
            arrays = self._stacked[shape] = _Stacked(self, shape)
        return arrays


def _as_slice(idx):
    """``idx`` as a slice when its entries step evenly upward, else as it
    is: a slice reads and writes views, without a gather or a scatter."""
    step = int(idx[1] - idx[0]) if idx.size > 1 else 1
    if idx.size and step > 0 and np.all(np.diff(idx) == step):
        return slice(int(idx[0]), int(idx[-1]) + 1, step)
    return idx


class _Stacked:
    """One stack shape's constants and scratch for the synchronous step.

    The closed forms' arguments, the tilt's and the z fit's coefficients
    and ``h``, and the z pairs' weights (``pair_w``: ``w_i``, ``w_j``,
    ``w_i^2 + w_j^2``) are tiled to ``shape + (·,)``, so that no operation
    broadcasts a 1-D row over a small stack; each entry is the 1-D entry,
    so every row computes what the 1-D step computes. ``beta`` is a 0-d
    array, which a ufunc takes faster than a Python float. The z pairs
    index the last axis, as slices when both step evenly (``views``, as
    in every consensus problem). The scratch holds every intermediate of
    a step, with the tilt's rank slices and tails
    (:attr:`_CompiledOps.tilt_order`) as views made once.
    """

    def __init__(self, ops: _CompiledOps, shape):
        rows, coeff, h, self.first, ranks, tails, self.pos = ops.tilt_order
        NN, W = ops.N * ops.n, ops.W

        def tile(a):
            return np.tile(a, shape + (1,))

        def scratch(size):
            return np.empty(shape + (size,))

        self.beta = np.array(ops.beta)
        self.closed = tuple(tile(a) for a in ops.prox.closed)
        if ops.prox.has_quad and ops.prox.has_kink:
            # is_quad as the mask it is used as
            self.closed = self.closed[:6] + (self.closed[6] != 0,) \
                + self.closed[7:]
        self.rows, self.t_coeff, self.t_h = rows, tile(coeff), tile(h)
        self.coeff, self.h = tile(ops.coeff), tile(ops.h)
        self.pair_w = tuple(tile(a) for a in
                            pair_weights(ops.h, ops.pair_i, ops.pair_j))
        self.g, self.gz = scratch(len(rows)), scratch(len(rows))
        sums = self.sums = self.g[..., :NN] if self.first else scratch(NN)
        self.ranks = [(sums[..., :k], self.g[..., a:b]) for k, a, b in ranks]
        self.tails = [(sums[..., j:j + 1], self.g[..., a:a + 1],
                       self.g[..., a:b], self.g[..., b - 1:b])
                      for j, a, b in tails]
        self.l = sums if self.pos is None else scratch(NN)
        self.work = (scratch(NN), scratch(NN))
        self.dx, self.t, self.hz, self.r = (scratch(W) for _ in range(4))
        self.ti, self.tj = scratch(ops.pair_i.size), scratch(ops.pair_i.size)
        sl = _as_slice(ops.pair_i), _as_slice(ops.pair_j)
        self.views = all(isinstance(i, slice) for i in sl)
        self.pair_i, self.pair_j = sl if self.views else (ops.pair_i,
                                                          ops.pair_j)
        if self.views:
            self.t_i, self.t_j = self.t[..., sl[0]], self.t[..., sl[1]]


def _ops(prob: SeparableProblem) -> _CompiledOps:
    """The problem's compiled arrays, built on first use and kept on it."""
    ops = getattr(prob, "_engine_ops", None)
    if ops is None:
        ops = prob._engine_ops = _CompiledOps(prob)
    return ops
