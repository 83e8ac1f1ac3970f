"""Convergence diagnostics: the weighted norm and Lagrangian (scaled by
inverse activation probabilities), the Lyapunov value whose conditional
one-step mean never increases (one formula, ``problem.lyapunov_calls``,
for a run's records, :func:`lyapunov` and :func:`lyapunov_drift`), rate
fits, and the constants bounding T times the expected ergodic
feasibility violation, whose maxima take every sampled direction as a
row of one stack. Ergodic averages are the run loop's lazy sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .compiled import _fire_blocks, _ops
from .engine import _history_rows
from .errors import (DimensionMismatch, GridTooLarge, InvalidProblem,
                     MissingReference, NonCompactSets, NonPositiveSeries)
from .problem import (PrimalDualState, SeparableProblem, initial_state,
                      lyapunov_rows, residual)
from .scheduler import ActivationDistribution, RngStream
from .terms import SumZeroPairs, term_value


@dataclass(eq=False)
class WeightedNorm:
    """Diagonal weighting by inverse row-activation probabilities."""

    weight_diag: np.ndarray

    def __post_init__(self):
        self.weight_diag = np.asarray(self.weight_diag, dtype=float)
        if np.any(self.weight_diag < 1.0 - 1e-12):
            raise InvalidProblem("weights are inverse probabilities, so >= 1")


def weighted_norm_sq(v: np.ndarray, wn: WeightedNorm) -> float:
    """``v' diag(w) v`` for the weighting ``w``."""
    v = np.asarray(v, dtype=float)
    if v.shape != wn.weight_diag.shape:
        raise DimensionMismatch("vector and weights differ in length")
    return float(np.dot(v * wn.weight_diag, v))


def weighted_lagrangian(prob: SeparableProblem, dist: ActivationDistribution,
                        x: np.ndarray, z: np.ndarray, mu: np.ndarray) -> float:
    """Lagrangian with every term scaled by its inverse activation probability.

    ``sum_i f_i(x_i)/alpha_i - mu' (sum_i D_i x/alpha_i + sum_l H_l z/lambda_l)``;
    with all probabilities equal to one this reduces to the plain Lagrangian.
    """
    cs = prob.constraints
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if x.shape != (prob.dim_x,) or z.shape != (cs.W,) or mu.shape != (cs.W,):
        raise DimensionMismatch("weighted_lagrangian: bad input shapes")
    fsum, coupled = _weighted_parts(prob, dist, x, z)
    return fsum - float(np.dot(mu, coupled))


def _weighted_parts(prob, dist, x, z):
    """``sum_i f_i(x_i)/alpha_i`` and the rows ``D_i x/alpha_i + H z/lambda``:
    the weighted Lagrangian at ``mu`` is the first less mu' the second."""
    cs = prob.constraints
    values = _term_values(prob.groups, x.reshape(cs.N, 1, cs.n))[:, 0]
    fsum = sum(values / dist.alpha)   # in component order, as np.float64
    alpha_row = dist.alpha[cs.row_block]
    return fsum, (cs.row_coeff * x[cs.col_index] / alpha_row
                  + cs.h_diag * z * dist.weight_diag)


@dataclass(eq=False)
class ReferenceSolution:
    """Saddle-point estimate used as the comparison anchor.

    ``source`` records where it came from: "analytic", "long-run"
    (synchronous baseline run to tolerance), or "external".
    """

    x: np.ndarray
    z: np.ndarray
    p: Optional[np.ndarray]
    source: str = "external"
    prob: Optional[SeparableProblem] = None
    iters: Optional[int] = None   # synchronous iterations, for "long-run"

    RESIDUAL_TOL = 1e-6

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.z = np.asarray(self.z, dtype=float)
        if self.p is not None:
            self.p = np.asarray(self.p, dtype=float)
        if self.prob is not None:
            feas = float(np.linalg.norm(residual(self.prob, self.x, self.z)))
            if feas > self.RESIDUAL_TOL:
                raise InvalidProblem(
                    f"reference violates feasibility: residual {feas:.3e}")


def solve_reference(prob: SeparableProblem, tol: float = 1e-10,
                    max_iters: int = 200_000,
                    x0=None, z0=None) -> ReferenceSolution:
    """Run the synchronous baseline until the iterates settle to ``tol``.

    Each step is the one synchronous step (``_CompiledOps.sync_step``), its
    program bound once per pair of rows of one ``[x | z | p]`` history of
    32 rows (fewer past 1 MiB), writing the next row. One settle test
    takes a block of rows, and its settled rows, up to a step that raises,
    are tested for feasibility in order: the iterate and ``iters`` of a
    per-iteration loop; the iterate returned is a copy of its row. The
    final dual iterate serves as the multiplier estimate.
    """
    ops = _ops(prob)
    start = initial_state(prob, x0, z0)
    block = _history_rows(ops.width)
    hist = np.empty((block + 1, ops.width))
    views = [np.split(row, ops.cuts) for row in hist]
    steps = [ops.stacked(()).program(a, b) for a, b in zip(views, views[1:])]
    np.concatenate([start.x, start.z, start.p], out=hist[0])
    for done in range(0, max_iters, block):
        n, error = min(block, max_iters - done), None
        try:
            for i in range(n):
                ops.sync_step(steps[i])
        except Exception as exc:
            n, error = i, exc
        delta = np.abs(hist[1:n + 1] - hist[:n]).max(axis=1)
        for i in np.flatnonzero(delta < tol).tolist():
            x, z, p = np.split(hist[i + 1].copy(), ops.cuts)
            if float(np.linalg.norm(residual(prob, x, z))) < 1e-6:
                return ReferenceSolution(x=x, z=z, p=p, source="long-run",
                                         prob=prob, iters=done + i + 1)
        if error is not None:
            raise error
        hist[0] = hist[n]
    raise MissingReference(
        f"synchronous baseline did not settle to {tol:g} in {max_iters} iters")


def lyapunov(prob: SeparableProblem, state: PrimalDualState,
             ref: ReferenceSolution, wn: WeightedNorm) -> float:
    """``(1/2b)||p - p*||_w^2 + (b/2)||H(z - z*)||_w^2`` at the state: the
    value a run's Lyapunov column records (``problem.lyapunov_calls``)."""
    if ref.p is None:
        raise MissingReference("lyapunov needs a dual reference p*")
    return float(lyapunov_rows(prob, wn.weight_diag, ref, state.z, state.p))


def lyapunov_drift(prob: SeparableProblem, state: PrimalDualState,
                   partition, dist: ActivationDistribution,
                   ref: ReferenceSolution, wn: WeightedNorm) -> float:
    """Exact conditional one-step mean change of the Lyapunov value.

    The value is a sum over rows, ``w_r l_r``, and row ``r`` moves only
    with its block, at probability ``lam_r``, so the mean change is
    ``sum_r lam_r w_r (l_r(after its block) - l_r(now))``: every block
    fires once from the state in one kernel call (``compiled._fire_blocks``)
    and the value with row weights ``lam w`` at the fired rows less at the
    state is the drift. The supermartingale property says it is never
    positive.
    """
    if ref.p is None:
        raise MissingReference("lyapunov needs a dual reference p*")
    _, z, p = _fire_blocks(prob, partition, state,
                           np.arange(dist.block_probs.size))
    w = dist.lam * wn.weight_diag
    return float(lyapunov_rows(prob, w, ref, z, p)
                 - lyapunov_rows(prob, w, ref, state.z, state.p))


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float


def estimate_rate(values, iters=None, window=None) -> RateFit:
    """Least-squares slope of log(value) against log(iteration).

    Fits over the tail half of the series by default, or over iterations
    inside ``window = (lo, hi)`` when given. A slope near -1 is the
    signature of O(1/T) decay.
    """
    values = np.asarray(values, dtype=float)
    if iters is None:
        iters = np.arange(1, values.size + 1, dtype=float)
    else:
        iters = np.asarray(iters, dtype=float)
    if iters.shape != values.shape or values.size < 2:
        raise DimensionMismatch("need matching series with at least 2 points")
    if window is None:
        start = values.size // 2
        mask = np.zeros(values.size, dtype=bool)
        mask[start:] = True
    else:
        lo, hi = window
        mask = (iters >= lo) & (iters <= hi)
    if mask.sum() < 2:
        raise NonPositiveSeries("fit window contains fewer than 2 points")
    if np.any(values[mask] <= 0) or not np.all(np.isfinite(values[mask])):
        raise NonPositiveSeries("series must be positive and finite in the window")
    its = iters[mask]
    if not np.all((its > 0) & np.isfinite(its)) or np.all(its == its[0]):
        raise NonPositiveSeries("iterations in the window must be positive, "
                                "finite and not all equal")
    slope, intercept = np.polyfit(np.log(iters[mask]), np.log(values[mask]), 1)
    return RateFit(slope=float(slope), intercept=float(intercept))


@dataclass(eq=False)
class RateConstants:
    """Computable constants of the ergodic feasibility bound.

    All maxima over the unit ball are sampled maxima (the exact optimizer
    is not available), and the grid maxima carry the reported gap
    estimate, so the bound value is a desk-scale approximation.
    """

    q_at_pstar: float
    q_bar: float
    theta_bar: np.ndarray
    l0_tilde: float
    norm_term_theta: float
    norm_term_z: float
    grid_gap: float
    z_bound: Optional[float]
    num_directions: int

    @property
    def feasibility_bound(self) -> float:
        """Bound on ``T * ||E(D xbar(T) + H zbar(T))||`` for all T."""
        return (self.q_bar + self.l0_tilde
                + self.norm_term_theta + self.norm_term_z)


def q_value(prob: SeparableProblem, dist: ActivationDistribution,
            mu: np.ndarray, grid_resolution: int = 1001,
            z_bound: Optional[float] = None,
            point_budget: int = 2_000_000) -> float:
    """Largest value of the negated weighted Lagrangian over the sets.

    The maximization separates exactly: per component a grid search over
    its box, per z pair (and per free z coordinate) a closed form over
    the compactified range; the one-multiplier case of the stacked one.
    """
    grids = _component_grids(prob, grid_resolution, point_budget)
    mus = np.asarray(mu, dtype=float)[None]
    return float(_q_stack(prob, dist, mus, grids, z_bound, point_budget)[0])


def _coefficients(prob, mus):
    """Coefficient of every x coordinate in mu' D x, a row per row of
    ``mus``: one scatter-add of the constraint rows in row order."""
    cs = prob.constraints
    c = np.zeros((cs.N * cs.n, len(mus)))
    np.add.at(c, cs.col_index, (mus * cs.row_coeff).T)
    return np.ascontiguousarray(c.T)


def _component_grids(prob, resolution, point_budget):
    """Each component's grid over its box and the term's value at every
    grid point, ``(axes, points, values)`` (the points are the one axis
    when ``n == 1``): one call serves every multiplier. The values come
    from :func:`_term_values`, one array expression per kind."""
    n, bounds = prob.constraints.n, prob.bounds
    # the checks of component 0, then the first component without a box
    unbounded = np.flatnonzero(~bounds.box)[:1].tolist()
    if unbounded == [0]:
        raise NonCompactSets("x set of component 0 is not a box")
    if resolution < 2:
        raise GridTooLarge("grid resolution must be at least 2")
    if resolution ** n > point_budget:
        raise GridTooLarge(
            f"component grid needs {resolution ** n} points, "
            f"budget is {point_budget}")
    if unbounded:
        raise NonCompactSets(f"x set of component {unbounded[0]} is not a box")
    axes = [[np.linspace(lo, hi, resolution) for lo, hi in zip(*box)]
            for box in zip(bounds.lo, bounds.hi)]
    pts = np.empty((len(axes), resolution ** n, n))
    for i, ax in enumerate(axes):
        pts[i] = np.stack([m.ravel() for m in np.meshgrid(*ax, indexing="ij")],
                          axis=1)
    values = _term_values(prob.groups, pts)
    return [(ax, p[:, 0] if n == 1 else p, v)
            for ax, p, v in zip(axes, pts, values)]


def _term_values(groups, pts):
    """``f_i`` at every point of ``pts[i]`` (``pts`` of shape ``(N, P, n)``),
    as an ``(N, P)`` array, each value the bits of ``term_value`` there:
    the Quadratic, AbsDev and L1 values are one array expression per kind
    under the reduction contract (``np.vecdot`` for the squares, the sum
    over the last axis of a C-contiguous array for the absolute values);
    other terms take one ``term_value`` call per point."""
    n = groups.n
    values = np.empty(pts.shape[:2])
    quad, absd, l1 = (idx[::n] // n for idx in
                      (groups.quad_idx, groups.abs_idx, groups.l1_idx))
    d = pts[quad] - groups.quad_center.reshape(-1, 1, n)
    values[quad] = groups.quad_weight[::n, None] * np.vecdot(d, d)
    values[absd] = np.add.reduce(
        np.abs(pts[absd] - groups.abs_center.reshape(-1, 1, n)), axis=-1)
    values[l1] = groups.l1_gamma[::n, None] * np.add.reduce(
        np.abs(pts[l1]), axis=-1)
    for i, term in groups.other:
        values[i] = [term_value(term, pt) for pt in pts[i]]
    return values


def _q_stack(prob, dist, mus, grids, z_bound, point_budget):
    """:func:`q_value` at every row of ``mus``, as many rows per pass as
    keep rows times grid points within ``point_budget``. Each row adds
    its component maxima in component order, then the z part: its pair
    terms in pair order, then the unpaired rows' sum. That is the order
    of a one-multiplier loop, so each row has that loop's bits."""
    cs = prob.constraints
    if z_bound is None:
        raise NonCompactSets(
            "z set is unbounded; provide z_bound to compactify the maximization")
    b = float(z_bound)
    if b < 0:
        raise InvalidProblem("z_bound must be nonnegative")
    pair_i, pair_j = (prob.z_set.pairs if isinstance(prob.z_set, SumZeroPairs)
                      else np.empty((0, 2), dtype=np.intp)).T
    unpaired = np.setdiff1d(np.arange(cs.W), np.r_[pair_i, pair_j])
    coeffs = _coefficients(prob, mus)
    q = np.zeros(len(mus))
    step = max(1, point_budget // len(grids[0][2]))
    for lo in range(0, len(mus), step):
        rows = np.s_[lo:lo + step]
        for i, (_, pts, values) in enumerate(grids):
            c = coeffs[rows, i * cs.n:(i + 1) * cs.n]
            # the rows of ``pts @ c``: one matrix-vector product each
            vals = (c * pts if cs.n == 1
                    else np.matmul(pts, c[:, :, None])[..., 0]) - values
            q[rows] += np.max(vals, axis=1) / dist.alpha[i]
        d = dist.weight_diag * mus[rows] * cs.h_diag   # z_l's coefficient
        # the pair terms added left to right from +0.0, as a loop adds them
        terms = np.zeros((len(d), pair_i.size + 1))
        terms[:, 1:] = np.abs(d[:, pair_i] - d[:, pair_j]) * b
        z_part = np.add.accumulate(terms, axis=1)[:, -1]
        # gathered C-contiguous: a boolean mask's gather is column-major,
        # and its row sums round apart from the 1-D sum
        free = np.abs(d.take(unpaired, axis=1))
        q[rows] += z_part + np.sum(free, axis=1) * b
    return q


def _grid_gap_estimate(prob, dist, mu, grids):
    """Crude per-component bound on what the grid maximum can miss, along
    each axis of a component's grid through the middle of its box (with
    ``n == 1``, the grid's own points and term values)."""
    n = prob.constraints.n
    coeffs = _coefficients(prob, np.asarray(mu, dtype=float)[None])[0]
    if n == 1:
        values = [[v] for _, _, v in grids]
    else:
        # the term values along axis t of every component's grid
        mid = 0.5 * (prob.bounds.lo + prob.bounds.hi)
        line = np.repeat(mid[:, None, :], len(grids[0][0][0]), axis=1)
        per_axis = []
        for t in range(n):
            on_axis = line.copy()
            on_axis[:, :, t] = [axes[t] for axes, _, _ in grids]
            per_axis.append(_term_values(prob.groups, on_axis))
        values = list(zip(*per_axis))
    gap = 0.0
    for i, ((axes, _, _), vals_i) in enumerate(zip(grids, values)):
        for t, u in enumerate(axes):
            if u[1] == u[0]:
                continue
            vals = coeffs[i * n + t] * u - vals_i[t]
            h = u[1] - u[0]
            lip = float(np.max(np.abs(np.diff(vals)))) / h
            gap += 0.5 * lip * h / dist.alpha[i]
    return gap


def _first_max(values, best=-np.inf):
    """Index of the value a loop of ``if v > best: best = v`` ends on (the
    first strict maximum above ``best``; NaN never wins), or None."""
    values = np.where(np.isnan(values), -np.inf, values)
    j = int(np.argmax(values))
    return j if values[j] > best else None


def compute_rate_constants(prob: SeparableProblem, dist: ActivationDistribution,
                           ref: ReferenceSolution, state0: PrimalDualState,
                           grid_resolution: int = 1001,
                           z_bound: Optional[float] = None,
                           num_directions: int = 64,
                           direction_seed: int = 0,
                           extra_directions: Sequence[np.ndarray] = (),
                           point_budget: int = 2_000_000) -> RateConstants:
    """Constants of the ergodic feasibility bound around the saddle point.

    Samples unit directions u (plus any caller-supplied ones, e.g. the
    realized mean-residual directions) for the ball maxima around p*;
    the initial-condition term is exact by Cauchy-Schwarz since the
    weighted Lagrangian is affine in the multiplier. Every multiplier
    p* - u is one row of a stack, evaluated at once.
    """
    if ref.p is None:
        raise MissingReference("rate constants need a dual reference p*")
    cs = prob.constraints
    p0, z0, x0 = state0.p, state0.z, state0.x

    # the zero direction, the sampled unit ones, +-e_l, and the extra ones
    # scaled into the unit ball
    rng = RngStream(direction_seed)
    sampled = np.array([rng.normals(cs.W) for _ in range(num_directions)])
    sampled = sampled.reshape(num_directions, cs.W)
    norms = np.sqrt(np.vecdot(sampled, sampled))
    # a row per direction: one of the wrong length is refused, not split
    extra = np.array(extra_directions, dtype=float)
    extra = extra.reshape(len(extra_directions), cs.W)
    dirs = np.concatenate([
        np.zeros((1, cs.W)), sampled[norms > 0] / norms[norms > 0, None],
        np.repeat(np.eye(cs.W), 2, axis=0) * np.tile([1.0, -1.0], cs.W)[:, None],
        extra / np.fmax(np.sqrt(np.vecdot(extra, extra)), 1.0)[:, None]])
    mus = ref.p - dirs   # mus[0] is p* itself, bit for bit

    grids = _component_grids(prob, grid_resolution, point_budget)
    q = _q_stack(prob, dist, mus, grids, z_bound, point_budget)
    j = _first_max(q[1:], q[0])
    q_bar = q[0] if j is None else q[1 + j]
    gaps = p0 - mus
    j = _first_max(np.vecdot(gaps * dist.weight_diag, gaps))
    theta_bar = ref.p.copy() if j is None else mus[j].copy()

    # weighted Lagrangian at the start is affine in the multiplier:
    # L~(x0, z0, p* - u) = S - (p* - u)'B, maximized exactly at u = B/||B||
    s0, coupled0 = _weighted_parts(prob, dist, x0, z0)
    l0_tilde = (s0 - float(np.dot(ref.p, coupled0))
                + float(np.linalg.norm(coupled0)))

    wn = WeightedNorm(dist.weight_diag)
    return RateConstants(
        q_at_pstar=q[0], q_bar=q_bar, theta_bar=theta_bar, l0_tilde=l0_tilde,
        norm_term_theta=weighted_norm_sq(p0 - theta_bar, wn) / (2.0 * prob.beta),
        norm_term_z=0.5 * prob.beta * weighted_norm_sq(
            cs.h_diag * (z0 - ref.z), wn),
        grid_gap=_grid_gap_estimate(prob, dist, ref.p, grids),
        z_bound=z_bound, num_directions=len(dirs))
