"""Problem containers: coupling constraints, separable problems, iterates.

The coupling constraint is ``D x + H z = 0`` where each row of ``D`` has a
single nonzero entry (so every constraint row involves exactly one
component of ``x``) and ``H`` is diagonal and invertible. ``D`` is stored
row-sparse as (row, block, coord, coeff) arrays, one entry per row once
the system validates; this makes the one-entry-per-row structure a
property of the storage rather than a numerical check, while
:func:`validate_constraints` still reports violations for raw entry lists
that break the contract. Building and checking a system takes a few
array passes over its entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, InvalidProblem, UnsupportedSet
from .terms import (AbsDev, Box, FeasibleSet, Free, L1, Quadratic,
                    _first_true, _index_array, term_value)

_INDEX_MAX = int(np.iinfo(np.intp).max)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a structural constraint check. Violations are data."""

    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.ok:
            return "constraints valid"
        return "; ".join(self.violations)


class ConstraintSystem:
    """Row-sparse ``D`` (W x nN) plus diagonal ``H`` (W x W).

    Parameters
    ----------
    n, N, W : int
        Component dimension, number of components, number of rows.
    entries : sequence
        One ``(row, block, coeff)`` or ``(row, block, coord, coeff)``
        tuple per nonzero of ``D``. ``coord`` defaults to 0 and indexes
        within the owning block (only relevant for ``n > 1``).
    h_diag : vector of length W
        Diagonal of ``H``.

    The entries are kept as four arrays in the order given
    (``entry_row``, ``entry_block``, ``entry_coord``, ``entry_coeff``;
    :meth:`from_arrays` takes them directly), and ``entries`` reads them
    back as tuples. When the system satisfies the row contract,
    ``row_block``, ``row_coord``, ``row_coeff`` and ``col_index`` hold
    them by row; otherwise those are ``None``.
    """

    def __init__(self, n: int, N: int, W: int, entries, h_diag):
        rows, blocks, coords, coeffs = [], [], [], []
        bad = None
        for entry in entries:
            if len(entry) == 3:
                row, block, coeff = entry
                coord = 0
            elif len(entry) == 4:
                row, block, coord, coeff = entry
            else:
                bad = entry  # reported unless an earlier entry fails first
                break
            rows.append(int(row))
            blocks.append(int(block))
            coords.append(int(coord))
            coeffs.append(float(coeff))
        self._store(n, N, W, (rows, blocks, coords),
                    np.array(coeffs, dtype=float), h_diag, bad)

    @classmethod
    def from_arrays(cls, n: int, N: int, W: int, row, block, coord, coeff,
                    h_diag) -> "ConstraintSystem":
        """The system with entry ``k`` at ``(row[k], block[k], coord[k])``
        with coefficient ``coeff[k]``, checked as the constructor checks."""
        cs = cls.__new__(cls)
        cs._store(n, N, W, (row, block, coord),
                  np.asarray(coeff, dtype=float), h_diag)
        return cs

    def _store(self, n, N, W, given, coeff, h_diag, bad=None):
        if min(n, N, W) < 1:
            raise InvalidProblem("dimensions n, N, W must be positive")
        # the coupling columns and rows are indexed by intp arrays
        for name, size in (("n * N", n * N), ("W", W)):
            if size > _INDEX_MAX:
                raise InvalidProblem(f"{name} = {size} is more than an index "
                                     f"array can hold ({_INDEX_MAX})")
        self.n, self.N, self.W = n, N, W
        row, block, coord = (_index_array(v) for v in given)
        # the index checks of each entry in order: row, block, coord
        failed = np.stack([(row < 0) | (row >= W), (block < 0) | (block >= N),
                           (coord < 0) | (coord >= n)], axis=1)
        first = _first_true(failed)
        if first >= 0:
            k, check = divmod(first, 3)
            name, size = (("row", W), ("block", N), ("coord", n))[check]
            raise InvalidProblem(f"{name} index {int(given[check][k])} out of "
                                 f"range [0,{size})")
        if bad is not None:
            raise InvalidProblem(f"bad D entry {bad!r}")
        self.entry_row, self.entry_block = row, block
        self.entry_coord, self.entry_coeff = coord, coeff
        self.h_diag = np.asarray(h_diag, dtype=float)
        if self.h_diag.shape != (W,):
            raise InvalidProblem(f"H diagonal must have length {W}")
        self.row_block = self.row_coord = self.row_coeff = None
        self.col_index = None
        if validate_constraints(self).ok:
            # one entry per row: the entries, placed by row
            self.row_block = np.empty(W, dtype=np.intp)
            self.row_coord = np.empty(W, dtype=np.intp)
            self.row_coeff = np.empty(W, dtype=float)
            self.row_block[row] = block
            self.row_coord[row] = coord
            self.row_coeff[row] = coeff
            self.col_index = self.row_block * n + self.row_coord

    @property
    def entries(self) -> tuple:
        """The entries as ``(row, block, coord, coeff)`` tuples, in order."""
        return tuple(zip(self.entry_row.tolist(), self.entry_block.tolist(),
                         self.entry_coord.tolist(), self.entry_coeff.tolist()))

    @property
    def is_valid(self) -> bool:
        return self.row_block is not None

    def require_valid(self):
        if not self.is_valid:
            raise InvalidProblem(str(validate_constraints(self)))

    def rows_of_component(self, i: int) -> np.ndarray:
        self.require_valid()
        return np.flatnonzero(self.row_block == i)

    def dense_d(self) -> np.ndarray:
        """Materialize ``D`` as a dense array (for desk-scale checks)."""
        self.require_valid()
        d = np.zeros((self.W, self.n * self.N))
        d[np.arange(self.W), self.col_index] = self.row_coeff
        return d


def validate_constraints(cs: ConstraintSystem) -> ValidationReport:
    """Check the decoupled-constraint structure of ``D`` and ``H``.

    Reports (never raises): rows of ``D`` carrying more than one entry or
    none at all or a zero coefficient, by ascending row; then component
    blocks never referenced; then zero diagonal entries of ``H``.
    """
    row, block, coeff = cs.entry_row, cs.entry_block, cs.entry_coeff
    count = np.bincount(row, minlength=cs.W)
    lone = np.ones(cs.W)
    lone[row] = coeff  # the coefficient of every row with one entry
    violations = []
    bad_rows = np.flatnonzero((count != 1) | (lone == 0.0))
    if bad_rows.size:
        order = np.argsort(row, kind="stable")
        start = np.cumsum(count) - count
        for r in bad_rows.tolist():
            hits = count[r]
            if hits == 0:
                violations.append(f"row {r} of D has no entry")
            elif hits == 1:
                violations.append(f"row {r} has zero coefficient")
            else:
                blocks = sorted(set(
                    block[order[start[r]:start[r] + hits]].tolist()))
                if len(blocks) > 1:
                    violations.append(
                        f"row {r} couples two components {blocks}")
                else:
                    violations.append(f"row {r} has {hits} entries")
    covered = np.zeros(cs.N, dtype=bool)
    covered[block[coeff != 0.0]] = True
    violations += [f"component {b} has zero column-block in D"
                   for b in np.flatnonzero(~covered).tolist()]
    violations += [f"H not invertible: zero diagonal at row {l}"
                   for l in np.flatnonzero(cs.h_diag == 0.0).tolist()]
    return ValidationReport(tuple(violations))


@dataclass(eq=False)
class SeparableProblem:
    """``min sum_i f_i(x_i) s.t. x_i in X_i, z in Z, D x + H z = 0``."""

    terms: tuple
    x_sets: tuple
    z_set: FeasibleSet
    constraints: ConstraintSystem
    beta: float

    def __post_init__(self):
        self.terms = tuple(self.terms)
        self.x_sets = tuple(self.x_sets)
        cs = self.constraints
        if len(self.terms) != cs.N:
            raise InvalidProblem(f"expected {cs.N} terms, got {len(self.terms)}")
        if len(self.x_sets) != cs.N:
            raise InvalidProblem(f"expected {cs.N} x_sets, got {len(self.x_sets)}")
        for i, (t, s) in enumerate(zip(self.terms, self.x_sets)):
            if t.dim != cs.n:
                raise InvalidProblem(f"term {i} has dim {t.dim}, expected {cs.n}")
            if s.dim != cs.n:
                raise InvalidProblem(f"x_set {i} has dim {s.dim}, expected {cs.n}")
            if not isinstance(s, (Box, Free)):
                # the kernels read x sets as bounds (x_set_bounds) only
                raise UnsupportedSet(f"x_set {i} of kind {type(s).__name__} "
                                     "is not supported: use free or box")
        if self.z_set.dim != cs.W:
            raise InvalidProblem(f"z_set has dim {self.z_set.dim}, expected {cs.W}")
        if isinstance(self.z_set, Box):
            # neither the block kernel nor the reference solve reads z bounds
            raise UnsupportedSet(
                "a box z set is not supported: use free or sum_zero_pairs")
        if not self.beta > 0:
            raise InvalidProblem("beta must be positive")
        cs.require_valid()

    @property
    def num_components(self) -> int:
        return self.constraints.N

    @property
    def dim_x(self) -> int:
        return self.constraints.n * self.constraints.N

    @property
    def dim_z(self) -> int:
        return self.constraints.W

    def component(self, x: np.ndarray, i: int) -> np.ndarray:
        n = self.constraints.n
        return x[i * n:(i + 1) * n]


@dataclass
class PrimalDualState:
    """Iterate triple ``(x, z, p)`` with the iteration counter."""

    x: np.ndarray
    z: np.ndarray
    p: np.ndarray
    k: int = 0

    def copy(self) -> "PrimalDualState":
        return PrimalDualState(self.x.copy(), self.z.copy(), self.p.copy(), self.k)


class XSetBounds:
    """The component sets as stacked bounds ``lo``, ``hi`` of shape (N, n).

    ``Box`` sets give their bounds and ``Free`` sets infinite ones.
    """

    def __init__(self, x_sets, n: int):
        num = len(x_sets)
        self.lo = np.full((num, n), -np.inf)
        self.hi = np.full((num, n), np.inf)
        box = [i for i, s in enumerate(x_sets) if isinstance(s, Box)]
        if box:
            # each distinct set's bounds are gathered once
            first = {}
            which = [first.setdefault(id(x_sets[i]), len(first)) for i in box]
            sets = {id(x_sets[i]): x_sets[i] for i in box}.values()
            self.lo[box] = np.stack([s.lower for s in sets])[which]
            self.hi[box] = np.stack([s.upper for s in sets])[which]


def x_set_bounds(prob) -> XSetBounds:
    """The stacked component bounds of a problem, built once and cached."""
    bounds = getattr(prob, "_x_set_bounds", None)
    if bounds is None:
        bounds = prob._x_set_bounds = XSetBounds(prob.x_sets,
                                                 prob.constraints.n)
    return bounds


def initial_state(prob: SeparableProblem,
                  x0: Optional[np.ndarray] = None,
                  z0: Optional[np.ndarray] = None) -> PrimalDualState:
    """Feasible starting point with ``p = 0``.

    Defaults project the origin onto the feasible sets; explicit starts
    are projected as well so the state invariants hold from step zero.
    The components are projected by one clip over the stacked bounds (a
    clip to infinite bounds is a copy).
    """
    cs = prob.constraints
    if x0 is None:
        x0 = np.zeros(prob.dim_x)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (prob.dim_x,):
        raise DimensionMismatch(f"x0 must have shape ({prob.dim_x},)")
    bounds = x_set_bounds(prob)
    x = np.clip(x0.reshape(cs.N, cs.n), bounds.lo, bounds.hi).reshape(-1)
    if z0 is None:
        z0 = np.zeros(cs.W)
    z0 = np.asarray(z0, dtype=float)
    if z0.shape != (cs.W,):
        raise DimensionMismatch(f"z0 must have shape ({cs.W},)")
    z = prob.z_set.project(z0)
    return PrimalDualState(x=x, z=z, p=np.zeros(cs.W), k=0)


class TermGroups:
    """The problem's terms grouped by kind, for a vectorized objective.

    Quadratic, absolute-deviation and one-norm terms become one gather
    each over the coordinates they own, with per-coordinate centers and
    weights; any other term keeps its own evaluation.
    """

    def __init__(self, terms, n: int):
        def owned(kind):
            return [i for i, t in enumerate(terms) if type(t) is kind]

        def coords(comps):
            return (np.array(comps, dtype=np.intp)[:, None] * n
                    + np.arange(n)).ravel()

        def centers(comps):
            return (np.concatenate([terms[i].center for i in comps])
                    if comps else np.empty(0))

        self.n = n
        quad, absd, l1 = owned(Quadratic), owned(AbsDev), owned(L1)
        self.quad_idx = coords(quad)
        self.quad_center = centers(quad)
        self.quad_weight = np.repeat([terms[i].weight for i in quad], n)
        self.abs_idx = coords(absd)
        self.abs_center = centers(absd)
        self.l1_idx = coords(l1)
        self.l1_gamma = np.repeat([terms[i].gamma for i in l1], n)
        grouped = set(quad + absd + l1)
        self.other = [(i, t) for i, t in enumerate(terms) if i not in grouped]

    def value(self, xs: np.ndarray) -> np.ndarray:
        """The objective of every row of the stack ``xs`` (shape ``(S, nN)``).

        Each kind's sum is one reduction over the last axis of a
        C-contiguous array, so row ``s`` gets the bits of the same sum
        over ``xs[s]`` alone: ``np.vecdot`` for the weighted squares and
        the one-norm (the 1-D ``np.dot``), ``np.add.reduce`` for the
        absolute deviations, and gathers by ``np.take`` along the rows (a
        fancy index ``xs[:, idx]`` is F-ordered and would sum in another
        order). Other terms are evaluated one row at a time, in term order.
        """
        n = self.n
        total = np.zeros(len(xs))
        if self.quad_idx.size:
            d = xs.take(self.quad_idx, axis=1) - self.quad_center
            total += np.vecdot(self.quad_weight * d, d)
        if self.abs_idx.size:
            total += np.add.reduce(np.abs(
                xs.take(self.abs_idx, axis=1) - self.abs_center), axis=-1)
        if self.l1_idx.size:
            total += np.vecdot(self.l1_gamma,
                               np.abs(xs.take(self.l1_idx, axis=1)))
        for i, t in self.other:
            total += [term_value(t, x[i * n:(i + 1) * n]) for x in xs]
        return total


def term_groups(prob: SeparableProblem) -> TermGroups:
    """The problem's terms grouped by kind, built once and cached."""
    groups = getattr(prob, "_term_groups", None)
    if groups is None:
        groups = prob._term_groups = TermGroups(prob.terms,
                                                prob.constraints.n)
    return groups


def objective(prob: SeparableProblem, x: np.ndarray) -> float:
    """Global objective ``F(x) = sum_i f_i(x_i)``: the one-row case of
    :meth:`TermGroups.value`.

    Terms are summed by kind, so the result can differ from the
    term-by-term sum in the last bits.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (prob.dim_x,):
        raise DimensionMismatch(f"x must have shape ({prob.dim_x},)")
    return float(term_groups(prob).value(x[None])[0])


def residual(prob: SeparableProblem, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Constraint residual ``D x + H z``, zero exactly at feasible points.

    ``x`` and ``z`` may also be stacks of rows (``(S, nN)`` and
    ``(S, W)``), giving one residual row each; the rows are C-contiguous.
    """
    cs = prob.constraints
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if (x.ndim > 2 or x.shape[:-1] != z.shape[:-1]
            or x.shape[-1:] != (prob.dim_x,) or z.shape[-1:] != (cs.W,)):
        raise DimensionMismatch("residual: x or z has wrong shape")
    return cs.row_coeff * x.take(cs.col_index, axis=-1) + cs.h_diag * z


def lyapunov_rows(prob: SeparableProblem, w, ref, z, p) -> np.ndarray:
    """``(1/2b)||p - p*||_w^2 + (b/2)||H(z - z*)||_w^2`` against the saddle
    point ``ref`` with row weights ``w``, for one point or each row of a
    stack (``np.vecdot`` norms: a row has the bits of the 1-D call)."""
    dp, hz = p - ref.p, prob.constraints.h_diag * (z - ref.z)
    return (1.0 / (2.0 * prob.beta) * np.vecdot(dp * w, dp)
            + 0.5 * prob.beta * np.vecdot(hz * w, hz))


def lagrangian(prob: SeparableProblem, x: np.ndarray, z: np.ndarray,
               p: np.ndarray) -> float:
    """``F(x) - p'(D x + H z)``."""
    p = np.asarray(p, dtype=float)
    if p.shape != (prob.dim_z,):
        raise DimensionMismatch(f"p must have shape ({prob.dim_z},)")
    return objective(prob, x) - float(np.dot(p, residual(prob, x, z)))
