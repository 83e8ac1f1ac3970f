"""Per-component and per-block subproblem solvers.

The primal updates reduce to problems of the form

    minimize  f(u) + (1/2) u' diag(q) u - l' u   over a feasible set

for the x components (``q`` nonnegative, from the scaled squared coupling
columns) and to weighted least-squares projections for the z blocks. All
supported terms separate per coordinate, so the solvers below are scalar
closed forms applied coordinatewise, with a sign-of-slope bisection as the
fallback for user-supplied scalar-convex terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (InvalidProblem, NonfiniteInput, UnboundedSubproblem,
                     UnsupportedSet, UnsupportedTerm)
from .terms import (AbsDev, Box, ConvexTerm, Custom, FeasibleSet, Free, L1,
                    Quadratic)

BISECT_TOL = 1e-10
BISECT_MAX_ITER = 200
BRACKET_LIMIT = 1e15


@dataclass(eq=False)
class LocalSubproblem:
    """One x-component subproblem: term plus diagonal quadratic and linear tilt."""

    term: ConvexTerm
    quad_diag: np.ndarray
    linear: np.ndarray
    set: FeasibleSet

    def __post_init__(self):
        self.quad_diag = np.atleast_1d(np.asarray(self.quad_diag, dtype=float))
        self.linear = np.atleast_1d(np.asarray(self.linear, dtype=float))
        d = self.term.dim
        if self.quad_diag.shape != (d,) or self.linear.shape != (d,):
            raise InvalidProblem("quad_diag and linear must match the term dimension")
        if np.any(self.quad_diag < 0) or not np.any(self.quad_diag > 0):
            raise InvalidProblem("quad_diag must be nonnegative with a positive entry")


def _box_bounds(fset: FeasibleSet, dim: int):
    if isinstance(fset, Box):
        return fset.lower, fset.upper
    if isinstance(fset, Free):
        return np.full(dim, -np.inf), np.full(dim, np.inf)
    raise UnsupportedSet(f"x set of kind {type(fset).__name__} is not supported")


def _kink_coord(a: float, slope_weight: float, l: float, lo: float, hi: float) -> float:
    # minimize slope_weight*|u - a| - l*u with no quadratic part
    if l > slope_weight:
        if np.isinf(hi):
            raise UnboundedSubproblem("linear term dominates the kink weight")
        return hi
    if l < -slope_weight:
        if np.isinf(lo):
            raise UnboundedSubproblem("linear term dominates the kink weight")
        return lo
    return min(max(a, lo), hi)


def soft_threshold(v, kappa):
    """Shrink ``v`` toward zero by ``kappa``."""
    return np.sign(v) * np.maximum(np.abs(v) - kappa, 0.0)


def solve_local(sub: LocalSubproblem) -> np.ndarray:
    """Minimizer of ``f(u) + (1/2) u'diag(q)u - l'u`` over the set.

    Closed forms: per-coordinate linear solve for quadratic terms,
    soft-thresholding for one-norm and absolute-deviation terms; scalar
    convex custom terms fall back to bisection on the slope sign. Box
    constraints are handled by clamping, which is exact for separable
    scalar convex objectives.
    """
    q, l, term = sub.quad_diag, sub.linear, sub.term
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(l))):
        raise NonfiniteInput("subproblem data contains non-finite values")
    lo, hi = _box_bounds(sub.set, term.dim)
    return solve_local_prepared(term, q, l, lo, hi)


def quadratic_prox(w2c, den, l, lo, hi, out=None):
    """Minimizer of ``(w2/2)|u - c|^2 + (q/2) u^2 - l u`` on ``[lo, hi]``.

    Coordinatewise; ``w2`` is twice the term weight, ``w2c`` is ``w2``
    times the center and ``den`` is ``w2 + q``. Every argument is an array
    (or scalar) broadcast elementwise, so one call solves one component or
    every lane of a seed batch alike; ``out`` receives the result.
    """
    u = (w2c + l) / den
    return np.minimum(np.maximum(u, lo), hi, out=out)


def kink_prox(a, kink, q, qa, l, lo, hi, out=None):
    """Minimizer of ``kink|u - a| + (q/2) u^2 - l u`` on ``[lo, hi]``.

    Coordinatewise soft-thresholding; needs ``q > 0``, and ``qa`` is
    ``q * a``. Broadcast like :func:`quadratic_prox`.
    """
    u = a + soft_threshold(l - qa, kink) / q
    return np.minimum(np.maximum(u, lo), hi, out=out)


def solve_local_prepared(term, q, l, lo, hi) -> np.ndarray:
    """Kernel behind :func:`solve_local`; inputs already shaped and bounded."""
    if isinstance(term, Quadratic):
        w2 = 2.0 * term.weight
        return quadratic_prox(w2 * term.center, w2 + q, l, lo, hi)

    if isinstance(term, (AbsDev, L1)):
        if isinstance(term, AbsDev):
            a, kink = term.center, 1.0
        else:
            a, kink = np.zeros(term.dim), term.gamma
        if (q > 0).all():
            return kink_prox(a, kink, q, q * a, l, lo, hi)
        # a coordinate without quadratic part minimizes kink|u - a| - l u
        q1 = np.where(q > 0, q, 1.0)
        u = kink_prox(a, kink, q1, q1 * a, l, lo, hi)
        for t in np.flatnonzero(q == 0):
            u[t] = _kink_coord(a[t], kink, l[t], lo[t], hi[t])
        return u

    if isinstance(term, Custom):
        if term.dim != 1 or not term.scalar_convex:
            raise UnsupportedTerm(
                "custom terms are solvable only when scalar and declared convex")
        fn = term.fn

        def g(u):
            return float(fn(np.array([u]))) + 0.5 * q[0] * u * u - l[0] * u

        u = bisect_convex(g, lo=float(lo[0]), hi=float(hi[0]))
        return np.array([u])

    raise UnsupportedTerm(f"no solver for term kind {type(term).__name__}")


def bisect_convex(g, lo=-np.inf, hi=np.inf,
                  tol=BISECT_TOL, max_iter=BISECT_MAX_ITER) -> float:
    """Minimize a scalar convex function by bisection on the slope sign.

    The slope is probed with difference quotients over a small window
    clipped to the bounds (the window always contains u, so its sign is
    the sign of an average slope there); for convex ``g`` that sign is
    nondecreasing in u, so bisection is valid. The bracket is expanded
    geometrically from 0 until the slope changes sign.
    """
    def slope(u):
        h = 1e-8 * max(1.0, abs(u))
        return g(min(u + h, hi)) - g(max(u - h, lo))

    a = max(lo, -1.0)
    b = min(hi, 1.0)
    if a > b:  # degenerate box away from 0
        a = b = min(max(0.0, lo), hi)
    while slope(a) > 0 and a > lo:
        b = a
        a = max(lo, 2.0 * a if a < 0 else -1.0)
        if a < -BRACKET_LIMIT:
            raise UnboundedSubproblem("no slope sign change toward -inf")
    while slope(b) < 0 and b < hi:
        a = b
        b = min(hi, 2.0 * b if b > 0 else 1.0)
        if b > BRACKET_LIMIT:
            raise UnboundedSubproblem("no slope sign change toward +inf")
    for _ in range(max_iter):
        if b - a <= tol:
            break
        mid = 0.5 * (a + b)
        if slope(mid) < 0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def solve_z_prepared(w, t, pair_i, pair_j) -> np.ndarray:
    """Minimizer of ``||diag(w) z - t||^2`` with ``z[pair_i] = -z[pair_j]``.

    Unpaired coordinates fit exactly (``t / w``); each sum-zero pair takes
    the one-dimensional stationarity closed form with the pairing
    enforced exactly. ``pair_i``/``pair_j`` index the first axis of ``w``
    and ``t``; further axes of ``t`` (with ``w`` broadcast along them, as a
    column) hold more fits, each computed as the 1-D call computes it.
    """
    z = t / w
    if pair_i.size:
        wi, wj = w[pair_i], w[pair_j]
        zi = (wi * t[pair_i] - wj * t[pair_j]) / (wi * wi + wj * wj)
        z[pair_i] = zi
        z[pair_j] = -zi
    return z
