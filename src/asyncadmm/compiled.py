"""The compiled form of a problem and its synchronous step.

``_CompiledOps`` holds a problem's arrays for the update kernels, built
once per problem (``_ops``): the block tables of ``engine`` read them. The
synchronous step is a program, its array operations bound once per stack
shape and arrays (``_Stacked.program``) and replayed in one loop by
``_CompiledOps.sync_step``: the reference solve, ``engine.sync_admm_step``
and ``engine.shadow_step`` all run it, so there is one synchronous step.
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

    :meth:`sync_step` runs the one synchronous step. Its program reads
    the rows in :attr:`tilt_order` and solves through :attr:`prox`; both
    are built on first use, and so is each stack shape's :meth:`stacked`.
    The scratch makes the step neither thread-safe nor reentrant on one
    problem.
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

    def solve_all(self, p, z):
        """Every x component minimized against ``p`` and ``z`` (one point
        or one per row, ``(..., W)``), as the 1-D call solves each row: a
        copy of the x of one synchronous step (:meth:`_Stacked.run`). Each
        (component, coordinate) tilt adds its rows strictly left to right
        from ``-0.0`` (:attr:`tilt_order`), the block kernel's sum bit for
        bit; the solves are :class:`_GroupedProx`'s."""
        return self.stacked(p.shape[:-1]).run(z, p)[0].copy()

    def sync_step(self, program):
        """One synchronous iteration: the calls of ``program``
        (:meth:`_Stacked.program`) in order. Every synchronous step of the
        package goes through here."""
        for f, args in program:
            f(*args)

    def stacked(self, shape) -> "_Stacked":
        """The synchronous step's constants, scratch and programs for a
        stack of points of ``shape`` (``()`` for one point), built once."""
        if shape not in self._stacked:
            self._stacked[shape] = _Stacked(self, shape)
        return self._stacked[shape]


def _as_slice(idx):
    """``idx`` as a slice when its entries step evenly upward, else as it
    is: a slice reads and writes views, without a gather or a scatter."""
    step = int(idx[1] - idx[0]) if idx.size > 1 else 1
    if idx.size and step > 0 and np.all(np.diff(idx) == step):
        return slice(int(idx[0]), int(idx[-1]) + 1, step)
    return idx


class _Stacked:
    """One stack shape's constants, scratch and programs of the
    synchronous step.

    The closed forms' arguments, the tilt's and the z fit's coefficients
    and ``h``, and the z pairs' weights (``pair_w``: ``w_i``, ``w_j``,
    ``w_i^2 + w_j^2``) are tiled to ``shape + (·,)``, so that no operation
    broadcasts a 1-D row over a small stack; each entry is the 1-D entry,
    so every row computes what the 1-D step computes. ``beta`` is a 0-d
    array, which a ufunc takes faster than a Python float. The z pairs
    index the last axis, as slices when both step evenly (``views``, as
    in every consensus problem). The scratch holds every intermediate of
    a step, with the tilt's rank slices and tails
    (:attr:`_CompiledOps.tilt_order`) as views made once. :attr:`own`
    is the program between this shape's own ``src`` and ``out`` arrays.
    """

    def __init__(self, ops: _CompiledOps, shape):
        rows, coeff, h, self.first, ranks, tails, self.pos = ops.tilt_order
        NN, W = ops.N * ops.n, ops.W
        self.shape, self.ops = shape, ops

        def tile(a):
            return np.tile(a, shape + (1,))

        def scratch(size):
            return np.empty(shape + (size,))

        self.beta = np.array(ops.beta)
        self.closed = tuple(tile(a) for a in ops.prox.closed)
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
        self.src = (None, scratch(W), scratch(W))
        self.out = (scratch(NN), scratch(W), scratch(W))

    def program(self, src, out):
        """One synchronous iteration from the (x, z, p) arrays ``src``
        (x is not read) into ``out``, of this shape, as calls ``(f, args)``
        with every array bound; ``r`` receives ``D x + H z``. The calls
        write into the scratch or ``out``: the tilt and its rank and tail
        sums, the prox (:meth:`_GroupedProx.calls`), ``D x``, the z fit of
        ``p / beta - D x`` and the dual step, with no temporaries and the
        plain step's elementwise operations in its order, so every iterate
        is that step's bit for bit. Their number depends on neither the
        stack height nor a hub's degree.
        """
        ops, g, gz, sums = self.ops, self.g, self.gz, self.sums
        (x, z, p), (_, z0, p0) = out, src
        dx, t, hz, r, beta = self.dx, self.t, self.hz, self.r, self.beta
        calls = [(z0.take, (self.rows, -1, gz, "clip")),
                 (np.multiply, (self.t_h, gz, gz)),
                 (np.multiply, (beta, gz, gz)),
                 (p0.take, (self.rows, -1, g, "clip")),
                 (np.subtract, (g, gz, g)),
                 (np.multiply, (self.t_coeff, g, g))]
        if not self.first:
            calls.append((sums.fill, (-0.0,)))
        calls += [(np.add, (part, terms, part)) for part, terms in self.ranks]
        for part, slot, terms, last in self.tails:
            calls += [(np.copyto, (slot, part)),
                      (np.add.accumulate, (terms, -1, None, terms)),
                      (np.copyto, (part, last))]
        if self.pos is not None:
            calls.append((sums.take, (self.pos, -1, self.l, "clip")))
        calls += ops.prox.calls(self.l, self.closed, ops.prox.serial_at, x,
                                self.work)
        calls += [(x.take, (ops.col, -1, dx, "clip")),
                  (np.multiply, (self.coeff, dx, dx)),
                  (np.divide, (p0, beta, t)),
                  (np.subtract, (t, dx, t)),
                  (np.divide, (t, self.h, z))]
        if self.ti.size:
            (wi, wj, den), ti, tj = self.pair_w, self.ti, self.tj
            i, j = (..., self.pair_i), (..., self.pair_j)
            if self.views:
                # the pairs step evenly: the fit reads t and writes z as views
                calls += [(np.multiply, (wi, t[i], ti)),
                          (np.multiply, (wj, t[j], tj)),
                          (np.subtract, (ti, tj, ti)),
                          (np.divide, (ti, den, z[i])),
                          (np.negative, (z[i], z[j]))]
            else:
                calls += [(t.take, (self.pair_i, -1, ti, "clip")),
                          (np.multiply, (wi, ti, ti)),
                          (t.take, (self.pair_j, -1, tj, "clip")),
                          (np.multiply, (wj, tj, tj)),
                          (np.subtract, (ti, tj, ti)),
                          (np.divide, (ti, den, ti)),
                          (z.__setitem__, (i, ti)),
                          (np.negative, (ti, ti)),
                          (z.__setitem__, (j, ti))]
        return tuple(calls + [(np.multiply, (self.h, z, hz)),
                              (np.add, (dx, hz, r)),
                              (np.multiply, (beta, r, hz)),
                              (np.subtract, (p0, hz, p))])

    @cached_property
    def own(self):
        """The program from ``src`` into ``out``, built on first use."""
        return self.program(self.src, self.out)

    def run(self, z, p):
        """``out`` after one step of :attr:`own` from ``z`` and ``p`` (of
        any real dtype), copied into ``src``."""
        np.copyto(self.src[1], z)
        np.copyto(self.src[2], p)
        self.ops.sync_step(self.own)
        return self.out


def _ops(prob: SeparableProblem) -> _CompiledOps:
    """The problem's compiled arrays, built on first use and kept on it."""
    ops = getattr(prob, "_engine_ops", None)
    if ops is None:
        ops = prob._engine_ops = _CompiledOps(prob)
    return ops
