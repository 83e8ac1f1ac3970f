"""A problem's compiled forms and its two update kernels.

``_CompiledOps`` holds a problem's arrays, built once per problem
(``_ops``). The synchronous step is a program, its array operations
bound once per stack shape and arrays (``_Stacked.program``) and
replayed by ``_CompiledOps.sync_step``: the reference solve,
``engine.sync_admm_step`` and ``engine.shadow_step`` all run it.

The block kernel keeps the asynchronous method's promise, one step in
O(size of the block). ``_fire_lanes`` fires one block per lane on rows of
a flat state, in place, through a per-partition table built once in time
linear in the rows (``_BlockTable``, cached by ``_block_table``): one
gather of what a call reads, one scatter of what it writes, and its
constants as one column per block, about 30 array operations over all
its lanes. A row holds a seed's state, then the ``since`` and ``acc`` of
its lazy ergodic sums. Each x lane's tilt reads its component's first
``K`` rows from the table (``_tilt_width``), and a hub's lane the rest,
its tail, which its call gathers (``_add_tails``). ``_Lanes`` is the
kernel bound once to a lockstep run's rows; ``_fire_blocks`` fires a
list of blocks from one state on one row, for ``engine.step``,
``consensus.edge_step`` and ``diagnostics.lyapunov_drift``.

Other modules read a table only through its row interface: ``layout``,
``views``, ``written``, a row's ``width``, ``seg`` and ``p0``, and the
moved slots' ``Cn``, ``R``, ``M``, ``groups`` and ``cuts``.
"""

from __future__ import annotations

import weakref
from functools import cached_property, partial

import numpy as np

from .errors import ImproperPartition
from .problem import PrimalDualState, SeparableProblem
from .prox import _GroupedProx, pair_weights
from .scheduler import ProperPartition, _offsets
from .terms import SumZeroPairs


def _ragged(sizes):
    """Segment and position within it of each element of ragged segments."""
    sizes = np.asarray(sizes, dtype=np.intp)
    seg = np.repeat(np.arange(sizes.size), sizes)
    return seg, np.arange(seg.size) - _offsets(sizes)[:-1][seg]


def _slices(**sizes):
    """Consecutive slices of the given sizes, by name, and their end."""
    ends = np.cumsum(list(sizes.values())).tolist()
    return {name: slice(e - n, e)
            for (name, n), e in zip(sizes.items(), ends)}, ends[-1]


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
        """The closed forms of every x coordinate, for :meth:`sync_step`."""
        return _GroupedProx(self.groups, self.quad, self.lo, self.hi)

    @cached_property
    def tilt_order(self):
        """How :meth:`sync_step` sums the tilt of every (component,
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
    reads of them is contiguous ``(·, L)`` slices once it has taken the
    columns of the blocks its ``L`` lanes fire. A block smaller than the
    largest is padded with lanes that read and write only the dummy slots,
    with constants chosen so that those slots stay zero.

    ``idx`` holds, in this order:

    - the tilt lanes (``C n K`` each for p and z, row ``d C n + c`` x
      lane ``c``'s row ``d``): each x lane's first ``K`` rows, padded with
      the dummy row, coefficient ``-0.0``, which adds nothing (not even to
      a zero) to a sum taken strictly left to right. The rest are its
      tail: ``tails`` holds their count, their start among the rows
      (``t_idx``, ``t_consts``: all rows, once) and the lane's x slot.
    - the moved slots (``M = C n + 2 R``, from row ``m0``): the x lanes
      (``C n``: the block's components, then the dummy one), the z lanes
      (``R = 2P + U``: first rows of the z pairs, their partners, then
      unpaired rows, each group padded to its maximum) and the p lanes
      (the same rows); a call without ergodic sums reads the first
      ``plain`` rows and writes the moved slots;
    - ``since`` and ``acc``: the same slots in the other two segments,
      which a call with ergodic sums also reads and writes.

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

        Cn, M = C * n, C * n + 2 * R
        self.Cn, self.P, self.U, self.R, self.M = Cn, P, U, R, M
        self.m0, self.plain = m0, plain = 2 * Cn * K, 2 * Cn * K + M
        # each group written in place, in the order above
        self.icol, rows = _slices(tilt_p=Cn * K, tilt_z=Cn * K, x=Cn, z=R,
                                  p=R, since=M, acc=M)
        idx = self.idx = np.empty((rows, m), dtype=np.intp)
        self.t_idx.take(pos, 1, idx[:m0].reshape(2, -1, m), "clip")
        np.concatenate([x_lanes, self.z0 + z_rows.T, self.p0 + z_rows.T],
                       out=idx[m0:plain])
        np.add(idx[m0:plain], [[[self.seg]], [[2 * self.seg]]],
               out=idx[plain:].reshape(2, M, m))
        self.ccol, rows = _slices(**dict.fromkeys(lane_consts, Cn),
                                  coeff=Cn * K, h=Cn * K, w=R, z_coeff=R,
                                  pair_den=P)
        const = self.const = np.empty((rows, m))
        self.closed = slice(0, c0 := self.ccol["coeff"].start)
        np.stack(list(lane_consts.values()), out=const[:c0].reshape(-1, Cn, m))
        self.t_consts.take(pos, 1, const[c0:c0 + m0].reshape(2, -1, m),
                           "clip")
        np.concatenate([w.T, z_coeff.T, den.T], out=const[c0 + m0:])
        # the starts of each component's x, z and p, and of x, z and p,
        # among the moved slots
        self.groups = np.r_[0:C * n:n, C * n, C * n + R]
        self.cuts = self.groups[[0, C, C + 1]]

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

    def written(self, blocks, sums=False):
        """The row slots that firing ``blocks`` (one per lane) writes, a
        column per lane: the moved slots, ``(M, ·)``, in ``groups``; with
        ``sums``, then their ``since`` and ``acc``."""
        return self.idx[self.m0:None if sums else self.plain].take(blocks, 1)


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


def _fire_lanes(bt: _BlockTable, flat, blocks, k=None):
    """Fire one block per lane on the state row ``flat``, in place: the one
    block update of every run, step and drift.

    Lane ``l`` fires block ``blocks[l]`` (an index array). Every lane
    reads before any lane writes, so each lane's update is from the row as
    it was (:func:`_fire_blocks`), and lanes that write nothing another
    reads fire as if in turn: one dependency level of a seed's draws
    (``engine._levels``), or the blocks of one step or drift.

    A call takes its blocks' ``idx`` (the rows it reads), ``const`` and
    ``xsrc`` columns from the table, then makes one gather of everything it
    reads, one of its lanes' tails, if any, and one scatter of everything
    it writes: about 30 array operations on contiguous ``(·, L)`` slices
    whatever the number ``L`` of lanes. Each x lane's tilt sums its rows
    strictly left to right, then its tail from that sum (``np.sum`` would
    switch to pairwise order on longer rows); :class:`_GroupedProx` solves
    the lanes, the one-by-one ones after the closed forms in lane order,
    then the z fit reads the new x of its block's own lanes and the dual
    step follows: the floating-point operations of one
    component-by-component block update in its order.
    With ``k`` (one number for every lane, or one per lane) the call also
    reads the moved slots' lazy ergodic sums and brings them up to
    iteration ``k`` (``acc += (k - since) * old``, ``since = k``); without
    it, it reads and writes neither. Returns the moved slots' new
    magnitudes ``|x|``, ``|z|``, ``|p|``, ``(M, L)``.

    A lockstep run fires through this kernel's binding (:class:`_Lanes`,
    the same operations bound once per run); the by-level path and
    :func:`_fire_blocks` call this function, since their lane count
    changes from call to call.
    """
    m0, M = bt.m0, bt.M
    idx = bt.idx[:bt.plain if k is None else None].take(blocks, axis=1)
    const, xsrc = bt.const.take(blocks, axis=1), bt.xsrc.take(blocks, axis=1)
    L, Cn, R, P, beta = blocks.size, bt.Cn, bt.R, bt.P, bt.beta
    if L > 1:   # flat indices into the (·, L) output
        xsrc *= L
        xsrc += np.arange(L)
    cc, ic = bt.ccol, bt.icol
    v = flat.take(idx)
    # x: each lane's tilt against the current z, p, summed in row order
    # strictly left to right, then its solve
    g = const[cc["coeff"]] * (v[ic["tilt_p"]]
                              - beta * (const[cc["h"]] * v[ic["tilt_z"]]))
    lin = np.add.accumulate(g.reshape(bt.K, Cn, L))[-1]
    if bt.tail_terms:
        _add_tails(bt, flat, idx[m0:], blocks, lin)
    old, out = v[m0:], np.empty((len(idx) - m0, L))
    bt.prox.solve(lin.T, (const[bt.closed].reshape(-1, Cn, L)
                          .transpose(0, 2, 1),
                          None if bt.serial_at is None else
                          bt.serial_at.take(blocks, axis=1).T),
                  out=out[:Cn].T)
    # z pairs and free rows, then the dual step, from the new x
    ax = const[cc["z_coeff"]] * out.take(xsrc)
    w = const[cc["w"]]
    p_old = old[Cn + R:M]
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
    if k is not None:
        out[M:2 * M] = k
        np.add(old[2 * M:], (k - old[M:2 * M]) * old[:M], out=out[2 * M:])
    flat[idx[m0:]] = out
    return np.abs(out[:M])


def _add_tails(bt, flat, idx, blocks, lin):
    """Add to the x lanes' tilt sums ``lin`` (``(C n, L)``) the tails of
    the lanes that have one, in place: their rows past ``K``, gathered
    from ``flat`` through the lanes' ``idx`` columns and summed strictly
    left to right on from each lane's sum. The one tail gather of the
    block kernel (:func:`_fire_lanes`, :class:`_Lanes`); its shape changes
    from call to call."""
    tails = bt.tails.take(blocks, axis=2)
    c, l = np.nonzero(tails[0])
    if c.size:
        count, at, x = tails[:, c, l]
        r = np.arange(count.max())[:, None]
        pos = np.where(r < count, at + r, bt.W)
        tp, tz = flat.take(bt.t_idx.take(pos, axis=1) + (idx[c, l] - x))
        t_coeff, t_h = bt.t_consts.take(pos, axis=1)
        g = t_coeff * (tp - bt.beta * (t_h * tz))
        np.add(lin[c, l], g[0], out=g[0])
        lin[c, l] = np.add.accumulate(g)[-1]


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
        _fire_lanes(bt, start, blocks)
        return bt.views(start)
    row = start.copy()
    for lo in range(0, len(blocks), chunk):
        fired = blocks[lo:lo + chunk]
        moved = bt.written(fired)
        kept = start[moved]
        _fire_lanes(bt, start, fired)
        row[moved], start[moved] = start[moved], kept
    return bt.views(row)


class _Lanes:
    """The block kernel (:func:`_fire_lanes`) bound to one block table
    ``bt``, one flat state and ``L`` stacked lanes (lane ``l`` fires on
    state row ``l``), with or without the lazy ``ergodic`` sums: a lockstep
    run's kernel, made once per run and fired once per iteration.

    Every operand is a view made once, a named segment of rows of one
    float or one int scratch array of ``L`` columns (``idx`` holds only
    the rows the program reads: ``bt.plain`` without the sums), and the
    prox's calls (``_GroupedProx.calls``) are bound to them. :meth:`fire`
    copies the blocks in and replays the calls: the takes of the blocks'
    columns from the table, then ``_fire_lanes``' operations in its order
    on the same operands, written in place, so every slot it writes and
    ``mag`` are ``_fire_lanes``' bit for bit. A hub's tails
    (:func:`_add_tails`) and the one-by-one prox (``_GroupedProx._serial``)
    are calls of the program too. The program ends with one running
    maximum of ``mag`` into ``maxima``, the run's ``(M, L)`` array, and
    the call's largest magnitude into the 0-d ``top``, which the guard
    reads. The scratch makes the binding neither thread-safe nor
    reentrant.
    """

    def __init__(self, bt, flat, L, maxima, ergodic):
        Cn, R, P, M, K, m0 = bt.Cn, bt.R, bt.P, bt.M, bt.K, bt.m0
        prox, cc, ic, beta = bt.prox, bt.ccol, bt.icol, bt.beta
        serial = bt.serial_at is not None
        rows = len(bt.idx) if ergodic else bt.plain
        ints, n = _slices(idx=rows, xsrc=R, blocks=1, at=Cn if serial else 0)
        buf = np.empty((n, L), dtype=np.intp)
        idx, xsrc, blocks, at = (buf[sl] for sl in ints.values())
        self.blocks = blocks = blocks[0]
        floats, n = _slices(const=len(bt.const), v=rows, g=K * Cn,
                            out=rows - m0, w0=Cn, w1=Cn, ax=R, t=R, s=R, mag=M)
        buf = np.empty((n, L))
        const, v, g, out, w0, w1, ax, t, s, mag = (
            buf[sl] for sl in floats.values())
        self.since, self.mag = out[M:2 * M], mag
        closed = list(const[bt.closed].reshape(-1, Cn, L).transpose(0, 2, 1))
        # the blocks' table columns: lane l's idx into state row l, its
        # xsrc into its own column of out
        calls = [(bt.idx[:rows].take, (blocks, 1, idx, "clip")),
                 (bt.const.take, (blocks, 1, const, "clip")),
                 ((bt.xsrc * L).take, (blocks, 1, xsrc, "clip"))]
        if L > 1:
            lane = np.arange(L)
            calls += [(np.add, (idx, lane * bt.width, idx)),
                      (np.add, (xsrc, lane, xsrc))]
        calls += [(flat.take, (idx, None, v, "clip")),
                  (np.multiply, (const[cc["h"]], v[ic["tilt_z"]], g)),
                  (np.multiply, (beta, g, g)),
                  (np.subtract, (v[ic["tilt_p"]], g, g)),
                  (np.multiply, (const[cc["coeff"]], g, g))]
        g3 = g.reshape(K, Cn, L)
        calls.append((np.add.accumulate, (g3, 0, None, g3)))
        lin = g[(K - 1) * Cn:]
        if bt.tail_terms:
            calls.append((_add_tails, (bt, flat, idx[m0:], blocks, lin)))
        if serial:
            calls.append((bt.serial_at.take, (blocks, 1, at, "clip")))
        if "is_quad" in prox.args:
            # the mask is_quad.astype(bool) makes, per call
            q, mask = list(prox.args).index("is_quad"), np.empty((L, Cn), bool)
            calls.append((np.copyto, (mask, closed[q], "unsafe")))
            closed[q] = mask
        calls += prox.calls(lin.T, closed, at.T if serial else None,
                            out[:Cn].T, (w0.T, w1.T))
        # z pairs and free rows, then the dual step, from the new x
        z_coeff, w, old = const[cc["z_coeff"]], const[cc["w"]], v[m0:]
        p_old, new_z = old[Cn + R:M], out[Cn:Cn + R]
        calls += [(out.take, (xsrc, None, ax, "clip")),
                  (np.multiply, (z_coeff, ax, ax)),
                  (np.divide, (p_old, beta, t)),
                  (np.subtract, (t, ax, t))]
        if P:
            ti, tj = t[:P], t[P:2 * P]
            calls += [(np.multiply, (w[:P], ti, ti)),
                      (np.multiply, (w[P:2 * P], tj, tj)),
                      (np.subtract, (ti, tj, ti)),
                      (np.divide, (ti, const[cc["pair_den"]], new_z[:P])),
                      (np.negative, (new_z[:P], new_z[P:2 * P]))]
        if bt.U:
            calls.append((np.divide, (t[2 * P:], w[2 * P:], new_z[2 * P:])))
        calls += [(np.multiply, (w, new_z, s)),
                  (np.add, (ax, s, s)),
                  (np.multiply, (beta, s, s)),
                  (np.subtract, (p_old, s, out[Cn + R:M]))]
        if ergodic:
            # acc += (k - since) * old, with since already holding k
            calls += [(np.subtract, (self.since, old[M:2 * M], mag)),
                      (np.multiply, (mag, old[:M], mag)),
                      (np.add, (old[2 * M:], mag, out[2 * M:]))]
        # the moved slots (and their since and acc), then the magnitudes;
        # numpy 2.4 deprecates a positional out for np.maximum
        self.top = np.zeros(())
        self.program = tuple(calls + [
            (flat.__setitem__, (idx[m0:], out)),
            (np.abs, (out[:M], mag)),
            (partial(np.maximum, out=maxima), (maxima, mag)),
            (np.maximum.reduce, (mag, None, None, self.top))])

    def fire(self, blocks, k=None):
        """Fire block ``blocks[l]`` on state row ``l``, as
        :func:`_fire_lanes` fires it on that row alone, at iteration
        ``k`` when the binding keeps the ergodic sums: returns ``mag``,
        which the next call overwrites."""
        np.copyto(self.blocks, blocks)
        if k is not None:
            self.since[...] = k
        for f, args in self.program:
            f(*args)
        return self.mag


def _ops(prob: SeparableProblem) -> _CompiledOps:
    """The problem's compiled arrays, built on first use and kept on it."""
    ops = getattr(prob, "_engine_ops", None)
    if ops is None:
        ops = prob._engine_ops = _CompiledOps(prob)
    return ops
