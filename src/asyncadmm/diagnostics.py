"""Convergence diagnostics: the weighted norm and Lagrangian (scaled by
inverse activation probabilities), the Lyapunov value whose conditional
one-step mean never increases (one formula, ``problem.lyapunov_rows``,
for a run's records, :func:`lyapunov` and :func:`lyapunov_drift`), rate
fits, and the constants bounding T times the expected ergodic
feasibility violation, whose maxima take every sampled direction as a
row of one stack. Ergodic averages are the run loop's lazy sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .engine import (_BATCH_LANE_LIMIT, _block_table, _fire_lanes,
                     sync_admm_step)
from .errors import (DimensionMismatch, GridTooLarge, InvalidProblem,
                     MissingReference, NonCompactSets, NonPositiveSeries)
from .problem import (PrimalDualState, SeparableProblem, initial_state,
                      lyapunov_rows, residual)
from .scheduler import ActivationDistribution, RngStream
from .terms import Box, SumZeroPairs, term_value


@dataclass(eq=False)
class WeightedNorm:
    """Diagonal weighting by inverse row-activation probabilities."""

    weight_diag: np.ndarray

    def __post_init__(self):
        self.weight_diag = np.asarray(self.weight_diag, dtype=float)
        if np.any(self.weight_diag < 1.0 - 1e-12):
            raise InvalidProblem("weights are inverse probabilities, so >= 1")

    @classmethod
    def from_distribution(cls, dist: ActivationDistribution) -> "WeightedNorm":
        return cls(dist.weight_diag.copy())


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
    fsum = sum(term_value(t, prob.component(x, i)) / dist.alpha[i]
               for i, t in enumerate(prob.terms))
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

    The final dual iterate serves as the multiplier estimate; there is no
    other constructive access to a saddle point.
    """
    state = initial_state(prob, x0, z0)
    # the iterate as one stacked [x, z, p] vector, so that the settle test
    # is one difference and one maximum
    old = np.concatenate([state.x, state.z, state.p])
    for _ in range(max_iters):
        state = sync_admm_step(prob, state)
        new = np.concatenate([state.x, state.z, state.p])
        delta = np.max(np.abs(new - old))
        old = new
        if delta < tol:
            feas = float(np.linalg.norm(residual(prob, state.x, state.z)))
            if feas < 1e-6:
                return ReferenceSolution(x=state.x, z=state.z, p=state.p,
                                         source="long-run", prob=prob)
    raise MissingReference(
        f"synchronous baseline did not settle to {tol:g} in {max_iters} iters")


def lyapunov(prob: SeparableProblem, state: PrimalDualState,
             ref: ReferenceSolution, wn: WeightedNorm) -> float:
    """``(1/2b)||p - p*||_w^2 + (b/2)||H(z - z*)||_w^2`` at the state: the
    value a run's Lyapunov column records (``problem.lyapunov_rows``)."""
    if ref.p is None:
        raise MissingReference("lyapunov needs a dual reference p*")
    return float(lyapunov_rows(prob, wn.weight_diag, ref, state.z, state.p))


def lyapunov_drift(prob: SeparableProblem, state: PrimalDualState,
                   partition, dist: ActivationDistribution,
                   ref: ReferenceSolution, wn: WeightedNorm) -> float:
    """Exact conditional one-step mean change of the Lyapunov value.

    Fires every block the sampler could draw from this state through the
    engine's block kernel, each block on its own copy of the state, in
    chunks of rows that hold at most the kernel's lane limit of values
    (so memory stays bounded however many blocks there are); weights each
    row's :func:`lyapunov` value by its block's probability, in block
    order, and subtracts the current value. The supermartingale property
    says this is never positive.
    """
    v_now = lyapunov(prob, state, ref, wn)
    bt = _block_table(prob, partition)
    row = bt.layout(state.x, state.z, state.p)
    chunk = max(1, _BATCH_LANE_LIMIT // bt.width)
    probs = dist.block_probs.tolist()
    expected = 0.0
    for lo in range(0, len(probs), chunk):
        blocks = np.s_[lo:lo + chunk]
        stack = np.tile(row, (len(probs[blocks]), 1))
        # block lo + i fires on row i
        _fire_lanes(bt, stack.reshape(-1), bt.idx[blocks]
                    + (np.arange(len(stack)) * bt.width)[:, None], blocks)
        _, z, p = bt.views(stack)
        values = lyapunov_rows(prob, wn.weight_diag, ref, z, p)
        for prob_b, v_b in zip(probs[blocks], values.tolist()):
            expected += prob_b * v_b
    return expected - v_now


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
    when ``n == 1``): one call serves every multiplier."""
    n = prob.constraints.n
    grids = []
    for i, term in enumerate(prob.terms):
        box = prob.x_sets[i]
        if not isinstance(box, Box):
            raise NonCompactSets(f"x set of component {i} is not a box")
        if resolution < 2:
            raise GridTooLarge("grid resolution must be at least 2")
        if resolution ** n > point_budget:
            raise GridTooLarge(
                f"component grid needs {resolution ** n} points, "
                f"budget is {point_budget}")
        axes = [np.linspace(lo, hi, resolution)
                for lo, hi in zip(box.lower, box.upper)]
        pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")],
                       axis=1)
        values = np.array([term_value(term, pt) for pt in pts])
        grids.append((axes, pts[:, 0] if n == 1 else pts, values))
    return grids


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
    pairs = prob.z_set.pairs if isinstance(prob.z_set, SumZeroPairs) else ()
    unpaired = np.setdiff1d(np.arange(cs.W), np.asarray(pairs, dtype=np.intp))
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
        z_part = np.zeros(len(d))
        for i, j in pairs:
            z_part += np.abs(d[:, i] - d[:, j]) * b
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
    gap = 0.0
    for i, ((axes, _, values), box) in enumerate(zip(grids, prob.x_sets)):
        for t, u in enumerate(axes):
            if u[1] == u[0]:
                continue
            line = np.tile(0.5 * (box.lower + box.upper), (len(u), 1))
            line[:, t] = u
            vals = coeffs[i * n + t] * u - (
                values if n == 1 else
                np.array([term_value(prob.terms[i], pt) for pt in line]))
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
