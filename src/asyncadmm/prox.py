"""Per-component and per-block subproblem solvers.

The primal updates reduce to problems of the form

    minimize  f(u) + (1/2) u' diag(q) u - l' u   over a feasible set

for the x components (``q`` nonnegative, from the scaled squared coupling
columns) and to weighted least-squares projections for the z blocks. All
supported terms separate per coordinate. :class:`_GroupedProx` is the only
closed-form x prox: scalar closed forms applied coordinatewise, as one
array operation per term kind over every coordinate of a problem (the
block kernel and the synchronous step, which is the full pass) or of one
component (:func:`solve_local`), with a sign-of-slope bisection
(:func:`solve_local_prepared`) for user-supplied scalar-convex terms. The
closed forms write in place, into scratch a caller may give.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (InvalidProblem, NonfiniteInput, UnboundedSubproblem,
                     UnsupportedSet, UnsupportedTerm)
from .problem import TermGroups
from .terms import Box, ConvexTerm, Custom, FeasibleSet, Free

BISECT_TOL = 1e-10
BISECT_MAX_ITER = 200
BRACKET_LIMIT = 1e15

# a 0-d operand: a ufunc takes it faster than the Python float
_ZERO = np.zeros(())


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

    The grouped prox (:class:`_GroupedProx`) of the one component:
    per-coordinate linear solve for quadratic terms, soft-thresholding
    for one-norm and absolute-deviation terms; scalar convex custom terms
    fall back to bisection on the slope sign. Box constraints are handled
    by clamping, which is exact for separable scalar convex objectives.
    """
    q, l, term = sub.quad_diag, sub.linear, sub.term
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(l))):
        raise NonfiniteInput("subproblem data contains non-finite values")
    lo, hi = _box_bounds(sub.set, term.dim)
    groups = TermGroups.from_terms([term], term.dim)
    return _GroupedProx(groups, q[None], lo[None], hi[None]).solve(l)


def quadratic_prox(w2c, den, l, lo, hi, out=None):
    """Minimizer of ``(w2/2)|u - c|^2 + (q/2) u^2 - l u`` on ``[lo, hi]``.

    Coordinatewise; ``w2`` is twice the term weight, ``w2c`` is ``w2``
    times the center and ``den`` is ``w2 + q``. Every argument is an array
    (or scalar) broadcast elementwise, so one call solves one component or
    every lane of a seed batch alike; ``out`` receives the result, and
    every step after the first writes in place.
    """
    u = np.add(w2c, l, out)
    np.divide(u, den, u)
    np.maximum(u, lo, out=u)
    return np.minimum(u, hi, out=u)


def kink_prox(a, kink, q, qa, l, lo, hi, out=None, work=None):
    """Minimizer of ``kink|u - a| + (q/2) u^2 - l u`` on ``[lo, hi]``.

    Coordinatewise soft-thresholding (:func:`soft_threshold` of ``l -
    qa``); needs ``q > 0``, and ``qa`` is ``q * a``. Broadcast and written
    like :func:`quadratic_prox`, with the shrunk magnitude in ``work``.
    """
    u = np.subtract(l, qa, out)
    s = np.abs(u, work)
    np.subtract(s, kink, s)
    np.maximum(s, _ZERO, out=s)
    np.sign(u, u)
    np.multiply(u, s, u)
    np.divide(u, q, u)
    np.add(a, u, u)
    np.maximum(u, lo, out=u)
    return np.minimum(u, hi, out=u)


def solve_local_prepared(term, q, l, lo, hi) -> np.ndarray:
    """The prox of a term no closed form covers, inputs already shaped and
    bounded: a scalar ``Custom`` term declared convex by bisection on the
    slope sign; any other term raises."""
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


class _GroupedProx:
    """The prox of every x coordinate of a problem in one pass.

    Solves ``f_i(u) + (q/2) u^2 - l u`` on ``[lo, hi]`` per coordinate:
    Quadratic coordinates through :func:`quadratic_prox`, AbsDev and L1
    coordinates through :func:`kink_prox`, each as one array operation
    over every coordinate, which takes its own kind's result. The rest,
    terms of other kinds and kink coordinates with ``q == 0``, go one by
    one through :func:`solve_local_prepared` and ``_kink_coord``
    (``serial``, indexed by ``serial_at`` at a component's or coordinate's
    first coordinate, -1 elsewhere), so the first error raised is the one
    a component-by-component loop raises. ``q``, ``lo``, ``hi`` have shape
    ``(N, n)``.

    ``args`` holds the closed forms' arguments per coordinate, for the
    kinds present only, in the order :meth:`calls` unpacks them:
    ``w2c``, ``den`` (``w2 + q``, :func:`quadratic_prox`), ``a``, ``kink``,
    ``q_kink``, ``qa`` (``q_kink * a``, :func:`kink_prox`), ``is_quad`` (1
    on Quadratic coordinates; only with both kinds), then ``lo``, ``hi``;
    ``w2c``, ``a`` and ``kink`` are zero off their kind. ``closed`` is the
    same arrays as a tuple, and ``DUMMY`` each argument's value on a
    padding lane, which solves to +0.0.
    """

    DUMMY = dict(w2c=0.0, den=1.0, a=0.0, kink=0.0, q_kink=1.0, qa=0.0,
                 is_quad=1.0, lo=-np.inf, hi=np.inf)

    def __init__(self, groups: TermGroups, q, lo, hi):
        n = self.n = groups.n
        self.q, self.lo, self.hi = q, lo, hi
        q, lo, hi = q.reshape(-1), lo.reshape(-1), hi.reshape(-1)
        w2, w2c, a, kink, is_quad = np.zeros((5, q.size))
        idx = groups.quad_idx
        w2[idx] = 2.0 * groups.quad_weight
        w2c[idx] = w2[idx] * groups.quad_center
        is_quad[idx] = 1.0
        a[groups.abs_idx] = groups.abs_center
        kink[groups.abs_idx] = 1.0
        kink[groups.l1_idx] = groups.l1_gamma
        kink_idx = np.concatenate([groups.abs_idx, groups.l1_idx])
        self.has_quad, self.has_kink = idx.size > 0, kink_idx.size > 0
        # q where a closed form divides by it: off Quadratic coordinates a
        # zero q becomes 1, whose result is discarded or solved again below
        q_kink = np.where(q > 0, q, 1.0)
        args = self.args = {}
        if self.has_quad:
            args.update(w2c=w2c, den=w2 + np.where(is_quad > 0, q, q_kink))
        if self.has_kink:
            args.update(a=a, kink=kink, q_kink=q_kink, qa=q_kink * a)
            if self.has_quad:
                args.update(is_quad=is_quad)
        args.update(lo=lo, hi=hi)
        self.closed = tuple(args.values())
        # one at a time: the components of other terms (with the term)
        # and the kink coordinates without a quadratic part (with their
        # constants)
        kink0 = kink_idx[q[kink_idx] == 0].tolist()
        self.serial = list(groups.other)
        self.serial += [(-1, (a[t], kink[t], lo[t], hi[t])) for t in kink0]
        self.serial_at = np.full(q.size, -1, dtype=np.intp)
        self.serial_at[[i * n for i, _ in groups.other] + kink0] = \
            np.arange(len(self.serial))

    def solve(self, l, lanes=None, out=None):
        """Minimizers for the tilt ``l``: one entry per coordinate along the
        last axis, one row per point (``(..., N n)``), each row solved as
        the 1-D call would solve it, into ``out`` when given; with ``lanes
        = (args, at)`` lanes instead, each with its coordinate's ``closed``
        arguments (in ``args`` order) and ``serial_at`` entry, of ``l``'s
        shape. It runs :meth:`calls`."""
        args, at = lanes or (self.closed, self.serial_at)
        out = np.empty_like(l) if out is None else out
        for f, a in self.calls(l, args, at, out):
            f(*a)
        return out

    def calls(self, l, args, at, out, work=(None, None)):
        """:meth:`solve` as calls ``(f, args)`` bound to its arrays, run in
        order (the synchronous step's program splices them in): the closed
        forms of the kinds present, then the one-by-one solves, row by row
        and then entry by entry, so the first error raised is the one a
        loop over the rows raises. ``work`` is two scratch arrays of
        ``l``'s shape, or None each; given, the calls make no temporaries."""
        if self.has_quad and self.has_kink:
            w2c, den, a, kink, q, qa, is_quad, lo, hi = args
            quad = np.empty_like(l) if work[1] is None else work[1]
            calls = [(quadratic_prox, (w2c, den, l, lo, hi, quad)),
                     (kink_prox, (a, kink, q, qa, l, lo, hi, out, work[0])),
                     (np.copyto, (out, quad, "same_kind",
                                  is_quad.astype(bool, copy=False)))]
        elif self.has_quad:
            w2c, den, lo, hi = args
            calls = [(quadratic_prox, (w2c, den, l, lo, hi, out))]
        elif self.has_kink:
            a, kink, q, qa, lo, hi = args
            calls = [(kink_prox, (a, kink, q, qa, l, lo, hi, out, work[0]))]
        else:
            # terms of other kinds only; the dummy lane's entry stays zero
            calls = [(out.fill, (0.0,))]
        return calls + ([(self._serial, (out, l, at))] if self.serial else [])

    def _serial(self, u, l, at):
        """The one-by-one solves into ``u``, in row and then entry order."""
        n, at = self.n, np.broadcast_to(at, l.shape)
        for hit in zip(*np.nonzero(at >= 0)):
            i, item = self.serial[at[hit]]
            u_row, l_row, t = u[hit[:-1]], l[hit[:-1]], hit[-1]
            if i < 0:
                a, kink, lo, hi = item
                u_row[t] = _kink_coord(a, kink, l_row[t], lo, hi)
            else:
                u_row[t:t + n] = solve_local_prepared(
                    item, self.q[i], l_row[t:t + n], self.lo[i], self.hi[i])


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


def solve_z_prepared(w, t, pair_i, pair_j):
    """Minimizer of ``||diag(w) z - t||^2`` with ``z[pair_i] = -z[pair_j]``.

    Unpaired coordinates fit exactly (``t / w``); each sum-zero pair takes
    the one-dimensional stationarity closed form with the pairing
    enforced exactly. ``pair_i``/``pair_j`` index the first axis of ``w``
    and ``t``; further axes of ``t`` (with ``w`` broadcast along them, as a
    column) hold more fits, each computed as the 1-D call computes it.
    The block kernel and the synchronous step make these operations in
    place; the tests' reference updates call this fit.
    """
    z = t / w
    if pair_i.size:
        wi, wj, den = pair_weights(w, pair_i, pair_j)
        zi = (wi * t[pair_i] - wj * t[pair_j]) / den
        z[pair_i] = zi
        z[pair_j] = -zi
    return z


def pair_weights(w, pair_i, pair_j):
    """The z pairs' ``w_i``, ``w_j`` and their fit's ``w_i^2 + w_j^2``."""
    wi, wj = w[pair_i], w[pair_j]
    return wi, wj, wi * wi + wj * wj
