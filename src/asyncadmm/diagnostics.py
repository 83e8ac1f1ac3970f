"""Convergence diagnostics.

These are the probe quantities of the analysis: the weighted norm and
weighted Lagrangian (scaled by inverse activation probabilities), the
Lyapunov value whose conditional one-step mean never increases,
empirical log-log rate fits, and the computable constants bounding T
times the expected ergodic feasibility violation. The ergodic averages
themselves are the run loop's lazy sums (``engine.run_batch``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .engine import (_BATCH_LANE_LIMIT, _block_table, _fire_lanes,
                     sync_admm_step)
from .errors import (DimensionMismatch, GridTooLarge, InvalidProblem,
                     MissingReference, NonCompactSets, NonPositiveSeries)
from .problem import PrimalDualState, SeparableProblem, initial_state, residual
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
    fsum = sum(term_value(t, prob.component(x, i)) / dist.alpha[i]
               for i, t in enumerate(prob.terms))
    alpha_row = dist.alpha[cs.row_block]
    coupled = (cs.row_coeff * x[cs.col_index] / alpha_row
               + cs.h_diag * z * dist.weight_diag)
    return fsum - float(np.dot(mu, coupled))


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
    """``(1/2b)||p - p*||_w^2 + (b/2)||H(z - z*)||_w^2`` at the state."""
    if ref.p is None:
        raise MissingReference("lyapunov needs a dual reference p*")
    beta = prob.beta
    h = prob.constraints.h_diag
    return (weighted_norm_sq(state.p - ref.p, wn) / (2.0 * beta)
            + 0.5 * beta * weighted_norm_sq(h * (state.z - ref.z), wn))


def lyapunov_drift(prob: SeparableProblem, state: PrimalDualState,
                   partition, dist: ActivationDistribution,
                   ref: ReferenceSolution, wn: WeightedNorm) -> float:
    """Exact conditional one-step mean change of the Lyapunov value.

    Fires every block the sampler could draw from this state through the
    engine's block kernel, each block on its own copy of the state, in
    chunks of rows that hold at most the kernel's lane limit of values
    (so memory stays bounded however many blocks there are); takes each
    row's Lyapunov value (the ``np.vecdot`` form of :func:`lyapunov`, the
    same bits), weights the values by the block probabilities in block
    order and subtracts the current value. The supermartingale property
    says this is never positive.
    """
    v_now = lyapunov(prob, state, ref, wn)
    bt = _block_table(prob, partition)
    row = bt.layout(state.x, state.z, state.p)
    chunk = max(1, _BATCH_LANE_LIMIT // bt.width)
    w, beta = wn.weight_diag, prob.beta
    probs = dist.block_probs.tolist()
    expected = 0.0
    for lo in range(0, len(probs), chunk):
        blocks = np.s_[lo:lo + chunk]
        stack = np.tile(row, (len(probs[blocks]), 1))
        # block lo + i fires on row i
        _fire_lanes(bt, stack.reshape(-1), bt.idx[blocks]
                    + (np.arange(len(stack)) * bt.width)[:, None], blocks)
        _, z, p = bt.views(stack)
        dp = p - ref.p
        hz = prob.constraints.h_diag * (z - ref.z)
        values = (np.vecdot(dp * w, dp) / (2.0 * beta)
                  + 0.5 * beta * np.vecdot(hz * w, hz))
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
    the compactified range.
    """
    return _q_on_grids(prob, dist, np.asarray(mu, dtype=float),
                       _component_grids(prob, grid_resolution, point_budget),
                       z_bound)


def _q_on_grids(prob, dist, mu, grids, z_bound):
    """:func:`q_value` with the component grids of :func:`_component_grids`."""
    total = 0.0
    for i, grid in enumerate(grids):
        total += _component_grid_max(prob, dist, mu, i, grid)
    total += _z_part_max(prob, dist, mu, z_bound)
    return total


def _component_c(prob, mu, i):
    """Linear coefficient of x_i in mu' D x: sums mu over the rows of i."""
    cs = prob.constraints
    rows = cs.rows_of_component(i)
    c = np.zeros(cs.n)
    np.add.at(c, cs.row_coord[rows], mu[rows] * cs.row_coeff[rows])
    return c


def _component_grids(prob, resolution, point_budget):
    """Each component's grid over its box and the term's value at every
    grid point: ``(axes, points, values)``, with the points the one axis
    when ``n == 1``. None of it depends on the multiplier, so one call
    serves every direction of :func:`compute_rate_constants`."""
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
        axes = [np.linspace(box.lower[t], box.upper[t], resolution)
                for t in range(n)]
        if n == 1:
            pts = axes[0]
            values = np.array([term_value(term, np.array([ut])) for ut in pts])
        else:
            mesh = np.meshgrid(*axes, indexing="ij")
            pts = np.stack([m.ravel() for m in mesh], axis=1)
            values = np.array([term_value(term, pt) for pt in pts])
        grids.append((axes, pts, values))
    return grids


def _component_grid_max(prob, dist, mu, i, grid):
    _, pts, values = grid
    c = _component_c(prob, mu, i)
    vals = c[0] * pts - values if pts.ndim == 1 else pts @ c - values
    return float(np.max(vals)) / dist.alpha[i]


def _grid_gap_estimate(prob, dist, mu, grids):
    """Crude per-component bound on what the grid maximum can miss.

    Along each axis of a component's grid, through the middle of its box;
    with ``n == 1`` those are the grid's own points and term values.
    """
    gap = 0.0
    cs = prob.constraints
    for i, (axes, _, values) in enumerate(grids):
        box = prob.x_sets[i]
        c = _component_c(prob, mu, i)
        for t, u in enumerate(axes):
            if u[1] == u[0]:
                continue
            if cs.n == 1:
                vals = c[t] * u - values
            else:
                point = np.array([0.5 * (box.lower[s] + box.upper[s])
                                  for s in range(cs.n)])
                vals = []
                for ut in u:
                    point[t] = ut
                    vals.append(c[t] * ut - term_value(prob.terms[i], point))
                vals = np.asarray(vals)
            h = u[1] - u[0]
            lip = float(np.max(np.abs(np.diff(vals)))) / h
            gap += 0.5 * lip * h / dist.alpha[i]
    return gap


def _z_part_max(prob, dist, mu, z_bound):
    """Exact maximum of the z part of the negated weighted Lagrangian."""
    cs = prob.constraints
    d = dist.weight_diag * mu * cs.h_diag  # coefficient of z_l in -L~
    zs = prob.z_set
    if z_bound is None:
        raise NonCompactSets(
            "z set is unbounded; provide z_bound to compactify the maximization")
    b = float(z_bound)
    if b < 0:
        raise InvalidProblem("z_bound must be nonnegative")
    total = 0.0
    paired = np.zeros(cs.W, dtype=bool)
    if isinstance(zs, SumZeroPairs):
        for i, j in zs.pairs:
            total += abs(d[i] - d[j]) * b
            paired[i] = paired[j] = True
    total += float(np.sum(np.abs(d[~paired])) * b)
    return total


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
    weighted Lagrangian is affine in the multiplier.
    """
    if ref.p is None:
        raise MissingReference("rate constants need a dual reference p*")
    cs = prob.constraints
    w = dist.weight_diag
    beta = prob.beta
    p0, z0, x0 = state0.p, state0.z, state0.x

    rng = RngStream(direction_seed)
    dirs = [np.zeros(cs.W)]
    for _ in range(num_directions):
        u = rng.normals(cs.W)
        norm = float(np.linalg.norm(u))
        if norm > 0:
            dirs.append(u / norm)
    for l in range(cs.W):
        e = np.zeros(cs.W)
        e[l] = 1.0
        dirs.append(e)
        dirs.append(-e)
    for u in extra_directions:
        u = np.asarray(u, dtype=float)
        norm = float(np.linalg.norm(u))
        if norm > 1.0:
            u = u / norm
        dirs.append(u)

    grids = _component_grids(prob, grid_resolution, point_budget)
    q_at_pstar = _q_on_grids(prob, dist, ref.p, grids, z_bound)
    q_bar = q_at_pstar
    best_theta_val = -np.inf
    theta_bar = ref.p.copy()
    for u in dirs:
        mu = ref.p - u
        q_bar = max(q_bar, _q_on_grids(prob, dist, mu, grids, z_bound))
        val = float(np.dot((p0 - mu) * w, p0 - mu))
        if val > best_theta_val:
            best_theta_val = val
            theta_bar = mu

    # weighted Lagrangian at the start is affine in the multiplier:
    # L~(x0, z0, p* - u) = S - (p* - u)'B, maximized exactly at u = B/||B||
    alpha_row = dist.alpha[cs.row_block]
    coupled0 = (cs.row_coeff * x0[cs.col_index] / alpha_row
                + cs.h_diag * z0 * w)
    s0 = sum(term_value(t, prob.component(x0, i)) / dist.alpha[i]
             for i, t in enumerate(prob.terms))
    l0_tilde = s0 - float(np.dot(ref.p, coupled0)) + float(np.linalg.norm(coupled0))

    wn = WeightedNorm(w)
    norm_term_theta = weighted_norm_sq(p0 - theta_bar, wn) / (2.0 * beta)
    norm_term_z = 0.5 * beta * weighted_norm_sq(cs.h_diag * (z0 - ref.z), wn)
    gap = _grid_gap_estimate(prob, dist, ref.p, grids)

    return RateConstants(q_at_pstar=q_at_pstar, q_bar=q_bar,
                         theta_bar=theta_bar, l0_tilde=l0_tilde,
                         norm_term_theta=norm_term_theta,
                         norm_term_z=norm_term_z, grid_gap=gap,
                         z_bound=z_bound, num_directions=len(dirs))
