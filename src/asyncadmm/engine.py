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

Shadow pass: the full-information iterates (y, v, mu) that a
fully-activated step would have produced from the same state; the
asynchronous iterates agree with them on the active coordinates, which
the probes verify.

Synchronous engine: the classical two-block method (sequential x
minimization, z minimization, dual ascent with step beta) for problems
with an optional separable z objective and right-hand side c.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DivergenceError, ImproperPartition, MissingReference
from .problem import (PrimalDualState, SeparableProblem, StandardProblem,
                      initial_state, objective, residual)
from .prox import (LocalSubproblem, ZBlockSubproblem, solve_local,
                   solve_local_prepared, solve_z_block, solve_z_prepared)
from .scheduler import (ActivationDistribution, ProperPartition, RngStream,
                        sample_block)
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


_INF = np.inf


def _offsets(sizes) -> np.ndarray:
    """Start of each of consecutive segments of the given sizes, then the end."""
    ptr = np.zeros(len(sizes) + 1, dtype=np.intp)
    np.cumsum(sizes, out=ptr[1:])
    return ptr


def _segments(arr, ptr):
    """Views ``arr[ptr[k]:ptr[k+1]]`` for each k (``ptr`` a list of ints)."""
    return [arr[s:e] for s, e in zip(ptr[:-1], ptr[1:])]


class _CompiledOps:
    """Per-problem arrays for the update kernels (built once, read-only)."""

    def __init__(self, cs, terms, x_sets, beta):
        self.n, self.N, self.W = cs.n, cs.N, cs.W
        self.beta = beta
        self.terms = terms
        self.x_sets = x_sets
        self.h = cs.h_diag
        self.coeff = cs.row_coeff
        self.col = cs.col_index
        # rows grouped by owning component, ascending within each component
        order = np.argsort(cs.row_block, kind="stable")
        ptr = _offsets(np.bincount(cs.row_block, minlength=cs.N)).tolist()
        self.comp_rows = _segments(order, ptr)
        self.comp_coords = _segments(cs.row_coord[order], ptr)
        self.comp_coeffs = _segments(cs.row_coeff[order], ptr)
        self.comp_h = _segments(cs.h_diag[order], ptr)
        quad = beta * np.bincount(cs.col_index, weights=cs.row_coeff ** 2,
                                  minlength=cs.N * cs.n)
        self.comp_quad = list(quad.reshape(cs.N, cs.n))
        lo = np.full((cs.N, cs.n), -_INF)
        hi = np.full((cs.N, cs.n), _INF)
        for i, fset in enumerate(x_sets):
            if isinstance(fset, Box):
                lo[i] = fset.lower
                hi[i] = fset.upper
        self.comp_lo = list(lo)
        self.comp_hi = list(hi)
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
        ``linear = D_i'(p - beta (H z - c))`` scattered onto the
        component's coordinates.
        """
        rows = self.comp_rows[i]
        shift = self.comp_h[i] * z[rows]
        if c is not None:
            shift = shift - c[rows]
        g = self.comp_coeffs[i] * (p[rows] - self.beta * shift)
        if self.n == 1:
            linear = g.sum(keepdims=True)
        else:
            linear = np.bincount(self.comp_coords[i], weights=g, minlength=self.n)
        return solve_local_prepared(self.terms[i], self.comp_quad[i], linear,
                                    self.comp_lo[i], self.comp_hi[i])


class _BlockTable:
    """Every block of one partition as flat arrays with per-block offsets.

    Block ``b`` owns ``rows[row_ptr[b]:row_ptr[b+1]]`` and the components
    ``comps[comp_ptr[b]:comp_ptr[b+1]]``; ``w``/``coeff``/``col`` are the
    row constants gathered in that order, and ``pair_i``/``pair_j`` hold
    the block's z pairs as positions within the block, in z-set order.
    ``moved`` lists, per block, the coordinates a step can change, as
    indices into the stacked vector ``[x, z, p]``; ``moved_cuts[b]`` are
    the starts of its x, z and p parts. Building it takes a few passes
    over the rows and two stable sorts; no object is made per block.
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
        ops = _CompiledOps(cs, prob.terms, prob.x_sets, prob.beta)
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
    n = ops.n
    y = np.empty_like(state.x)
    for i in range(ops.N):
        y[i * n:(i + 1) * n] = ops.solve_component(i, state.p, state.z)
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
    """One synchronous two-block iteration (x, then z, then dual ascent)."""
    ops = getattr(std_prob, "_engine_ops", None)
    if ops is None:
        cs = std_prob.constraints
        ops = _CompiledOps(cs, std_prob.x_terms, std_prob.x_sets, std_prob.beta)
        ops.set_pairs(std_prob.z_set)
        std_prob._engine_ops = ops
    c = std_prob.c
    n = ops.n
    x = np.empty_like(state.x)
    for i in range(ops.N):
        x[i * n:(i + 1) * n] = ops.solve_component(i, state.p, state.z, c=c)
    q = state.p - ops.beta * (ops.coeff * x[ops.col] - c)
    if std_prob.z_terms is None:
        z = solve_z_prepared(ops.h, q / ops.beta, ops.pair_i, ops.pair_j)
    else:
        z = np.empty(ops.W)
        for l in range(ops.W):
            if isinstance(std_prob.z_set, Box):
                coord_set = Box(std_prob.z_set.lower[l:l + 1],
                                std_prob.z_set.upper[l:l + 1])
            else:
                coord_set = Free(1)
            sub = LocalSubproblem(term=std_prob.z_terms[l],
                                  quad_diag=np.array([ops.beta * ops.h[l] ** 2]),
                                  linear=np.array([q[l] * ops.h[l]]),
                                  set=coord_set)
            z[l] = solve_local(sub)[0]
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

    def rows(self):
        for j in range(self.iters.size):
            yield (int(self.iters[j]), self.objective[j],
                   self.objective_error[j], self.feasibility[j],
                   self.ergodic_objective_error[j], self.ergodic_feasibility[j],
                   self.lyapunov[j], int(self.active_block[j]))


def run(prob: SeparableProblem, partition: ProperPartition,
        dist: ActivationDistribution, seed: int, T: int,
        probes: Optional[Probes] = None, ref=None,
        x0=None, z0=None, stride: int = 1) -> RunMetrics:
    """Execute T asynchronous steps and record metrics every ``stride`` iters.

    ``ref`` (a diagnostics reference solution) enables objective-error and
    Lyapunov columns; without it those columns are NaN. Aborts with
    :class:`DivergenceError` when iterates exceed the divergence guard.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if probes is None:
        probes = Probes()
    if probes.lyapunov and (ref is None or ref.p is None):
        raise MissingReference("lyapunov probe requires a dual reference")

    ops = _ops(prob)
    table = _block_table(prob, partition)
    state = initial_state(prob, x0, z0)
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
    wd = dist.weight_diag
    inv_2b = 1.0 / (2.0 * prob.beta)
    half_b = 0.5 * prob.beta

    rec_iter, rec_obj, rec_objerr, rec_feas = [], [], [], []
    rec_eobj, rec_efeas, rec_lyap, rec_block = [], [], [], []
    counters = {"steps": T, "shadow_checks": 0, "shadow_failures": 0,
                "freeze_checks": 0, "freeze_failures": 0}
    x_max, z_max, p_max = (float(np.max(np.abs(v), initial=0.0))
                           for v in (x, z, p))
    if not (x_max <= DIVERGENCE_LIMIT and z_max <= DIVERGENCE_LIMIT):
        raise DivergenceError(f"initial state magnitude (x {x_max:.3e}, "
                              f"z {z_max:.3e}) exceeds the divergence guard")

    rng = RngStream(seed)
    for k in range(1, T + 1):
        b = sample_block(dist, rng)
        if probes.shadow:
            before = PrimalDualState(x=x.copy(), z=z.copy(), p=p.copy(),
                                     k=k - 1)
            shadow = shadow_step(prob, before)
        idx = moved[moved_ptr[b]:moved_ptr[b + 1]]
        acc[idx] += (k - since[idx]) * buf[idx]
        since[idx] = k
        _apply_block(ops, table.block(b), x, z, p)
        if probes.shadow:
            after = PrimalDualState(x=x, z=z, p=p, k=k)
            _tally_shadow(prob, partition,
                          StepRecord(block=b, before=before, after=after,
                                     shadow=shadow), counters)
        # only the active coordinates moved, so guarding them guards all;
        # the block's max |x|, |z|, |p| is NaN if any of them is NaN
        hot = np.maximum.reduceat(np.abs(buf[idx]), moved_cuts[b])
        x_hot, z_hot, p_hot = hot.tolist()
        if not (x_hot <= DIVERGENCE_LIMIT and z_hot <= DIVERGENCE_LIMIT
                and p_hot <= DIVERGENCE_LIMIT):
            what = (f"iterate magnitude {hot.max():.3e} exceeded guard"
                    if np.all(np.isfinite(hot)) else "non-finite iterate")
            raise DivergenceError(f"{what} at iteration {k} "
                                  f"(seed {seed}, block {b})")
        if x_hot > x_max:
            x_max = x_hot
        if z_hot > z_max:
            z_max = z_hot
        if p_hot > p_max:
            p_max = p_hot
        if k % stride and k != T:
            continue
        rec_iter.append(k)
        rec_obj.append(objective(prob, x))
        rec_objerr.append(abs(rec_obj[-1] - f_star))
        rec_feas.append(float(np.linalg.norm(residual(prob, x, z))))
        if probes.ergodic or k == T:
            acc += (k + 1 - since) * buf
            since.fill(k + 1)
        if probes.ergodic:
            xb = acc[:dim_x] / k
            zb = acc[dim_x:dim_x + dim_z] / k
            rec_eobj.append(abs(objective(prob, xb) - f_star))
            rec_efeas.append(float(np.linalg.norm(residual(prob, xb, zb))))
        else:
            rec_eobj.append(np.nan)
            rec_efeas.append(np.nan)
        if probes.lyapunov:
            dp = p - ref.p
            hz = ops.h * (z - ref.z)
            rec_lyap.append(inv_2b * float(np.dot(dp * wd, dp))
                            + half_b * float(np.dot(hz * wd, hz)))
        else:
            rec_lyap.append(np.nan)
        rec_block.append(b)

    return RunMetrics(
        seed=seed, iters=np.array(rec_iter, dtype=np.intp),
        objective=np.array(rec_obj), objective_error=np.array(rec_objerr),
        feasibility=np.array(rec_feas),
        ergodic_objective_error=np.array(rec_eobj),
        ergodic_feasibility=np.array(rec_efeas),
        lyapunov=np.array(rec_lyap),
        active_block=np.array(rec_block, dtype=np.intp),
        final_state=PrimalDualState(x=x.copy(), z=z.copy(), p=p.copy(), k=T),
        x_bar=acc[:dim_x] / T, z_bar=acc[dim_x:dim_x + dim_z] / T,
        counters=counters, x_max_abs=x_max, z_max_abs=z_max,
        p_max_abs=p_max)


SHADOW_TOL = 1e-9


def _tally_shadow(prob, partition, rec: StepRecord, counters: dict):
    """Check active-coordinate agreement with the shadow pass and freezes."""
    n = prob.constraints.n
    comps = partition.component_map[rec.block]
    rows = partition.blocks[rec.block]
    sh = rec.shadow
    ok = True
    for i in comps:
        sl = slice(i * n, (i + 1) * n)
        if np.max(np.abs(rec.after.x[sl] - sh.y[sl])) > SHADOW_TOL:
            ok = False
    if np.max(np.abs(rec.after.z[rows] - sh.v[rows]), initial=0.0) > SHADOW_TOL:
        ok = False
    if np.max(np.abs(rec.after.p[rows] - sh.mu[rows]), initial=0.0) > SHADOW_TOL:
        ok = False
    counters["shadow_checks"] += 1
    if not ok:
        counters["shadow_failures"] += 1

    frozen = True
    comp_mask = np.zeros(prob.dim_x, dtype=bool)
    for i in comps:
        comp_mask[i * n:(i + 1) * n] = True
    row_mask = np.zeros(prob.dim_z, dtype=bool)
    row_mask[rows] = True
    if not np.array_equal(rec.after.x[~comp_mask], rec.before.x[~comp_mask]):
        frozen = False
    if not np.array_equal(rec.after.z[~row_mask], rec.before.z[~row_mask]):
        frozen = False
    if not np.array_equal(rec.after.p[~row_mask], rec.before.p[~row_mask]):
        frozen = False
    counters["freeze_checks"] += 1
    if not frozen:
        counters["freeze_failures"] += 1
