"""Problem containers: coupling constraints, separable problems, iterates.

The coupling constraint is ``D x + H z = 0`` where each row of ``D`` has a
single nonzero entry (so every constraint row involves exactly one
component of ``x``) and ``H`` is diagonal and invertible. ``D`` is stored
row-sparse as (row, block, coord, coeff) arrays, one entry per row once
the system validates; this makes the one-entry-per-row structure a
property of the storage rather than a numerical check, while
:func:`validate_constraints` still reports violations for raw entry lists
that break the contract. Building and checking a system takes a few
array passes over its entries. A separable problem stores its objective
and its component sets as arrays too (:class:`TermGroups`,
:class:`XSetBounds`); term and set objects are made from them only when
asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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


class SeparableProblem:
    """``min sum_i f_i(x_i) s.t. x_i in X_i, z in Z, D x + H z = 0``.

    The objective is stored as arrays, its :class:`TermGroups`
    (``groups``), and the component sets as their :class:`XSetBounds`
    (``bounds``). ``SeparableProblem(terms, x_sets, z_set, constraints,
    beta)`` turns one term and one set object per component into those
    arrays (:func:`problem_arrays`); :meth:`from_arrays` takes the arrays.
    ``terms`` and ``x_sets`` are the objects given, or objects made from
    the arrays when first asked for.
    """

    def __init__(self, terms, x_sets, z_set: FeasibleSet,
                 constraints: ConstraintSystem, beta: float):
        self._store(*problem_arrays(terms, x_sets, constraints.N,
                                    constraints.n),
                    z_set, constraints, beta)

    @classmethod
    def from_arrays(cls, groups: "TermGroups", bounds: "XSetBounds",
                    z_set: FeasibleSet, constraints: ConstraintSystem,
                    beta: float) -> "SeparableProblem":
        prob = cls.__new__(cls)
        prob._store(groups, bounds, z_set, constraints, beta)
        return prob

    def _store(self, groups, bounds, z_set, cs, beta):
        if (groups.N, groups.n) != (cs.N, cs.n):
            raise InvalidProblem(f"expected {cs.N} terms of dim {cs.n}, got "
                                 f"{groups.N} of dim {groups.n}")
        if bounds.lo.shape != (cs.N, cs.n):
            raise InvalidProblem(f"expected x set bounds of shape "
                                 f"{(cs.N, cs.n)}, got {bounds.lo.shape}")
        if z_set.dim != cs.W:
            raise InvalidProblem(f"z_set has dim {z_set.dim}, expected {cs.W}")
        if isinstance(z_set, Box):
            # neither the block kernel nor the reference solve reads z bounds
            raise UnsupportedSet(
                "a box z set is not supported: use free or sum_zero_pairs")
        if not beta > 0:
            raise InvalidProblem("beta must be positive")
        cs.require_valid()
        self.groups, self.bounds = groups, bounds
        self.z_set, self.constraints, self.beta = z_set, cs, beta

    @property
    def terms(self) -> tuple:
        return self.groups.terms

    @property
    def x_sets(self) -> tuple:
        return self.bounds.sets

    @property
    def num_components(self) -> int:
        return self.constraints.N

    @property
    def dim_x(self) -> int:
        return self.constraints.n * self.constraints.N

    @property
    def dim_z(self) -> int:
        return self.constraints.W


def problem_arrays(terms, x_sets, N: int, n: int):
    """The :class:`TermGroups` and :class:`XSetBounds` of one term and one
    set object per component, after the checks of each component in
    order: its term's dim, its set's dim, its set's kind (the kernels read
    x sets as bounds only, so only ``Box`` and ``Free`` sets are taken)."""
    terms, x_sets = tuple(terms), tuple(x_sets)
    if len(terms) != N:
        raise InvalidProblem(f"expected {N} terms, got {len(terms)}")
    if len(x_sets) != N:
        raise InvalidProblem(f"expected {N} x_sets, got {len(x_sets)}")
    dims = np.array([(t.dim, s.dim) for t, s in zip(terms, x_sets)],
                    dtype=object).reshape(N, 2)
    bounded = np.array([isinstance(s, (Box, Free)) for s in x_sets],
                       dtype=bool)
    first = _first_true(np.column_stack([(dims != n).astype(bool),
                                         ~bounded]))
    if first >= 0:
        i, check = divmod(first, 3)
        if check == 0:
            raise InvalidProblem(f"term {i} has dim {terms[i].dim}, "
                                 f"expected {n}")
        if check == 1:
            raise InvalidProblem(f"x_set {i} has dim {x_sets[i].dim}, "
                                 f"expected {n}")
        raise UnsupportedSet(f"x_set {i} of kind {type(x_sets[i]).__name__} "
                             "is not supported: use free or box")
    return TermGroups.from_terms(terms, n), XSetBounds.from_sets(x_sets, n)


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
    """The component sets as arrays: bounds ``lo``, ``hi`` of shape (N, n)
    and ``box`` (N,), which components are ``Box`` sets. The other
    components are ``Free``, with infinite bounds.

    :meth:`from_sets` takes one set object per component, and ``sets``
    makes set objects from the arrays when first asked for.
    """

    def __init__(self, lo, hi, box):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        self.box = np.asarray(box, dtype=bool)
        if np.any(self.lo > self.hi):
            raise InvalidProblem("Box requires lower <= upper componentwise")

    @classmethod
    def from_sets(cls, x_sets, n: int) -> "XSetBounds":
        """The bounds of ``Box`` and ``Free`` sets of dim ``n``; ``sets``
        returns the objects given."""
        x_sets = tuple(x_sets)
        lo = np.full((len(x_sets), n), -np.inf)
        hi = np.full((len(x_sets), n), np.inf)
        box = np.array([isinstance(s, Box) for s in x_sets], dtype=bool)
        at = np.flatnonzero(box).tolist()
        if at:
            lo[at] = np.stack([x_sets[i].lower for i in at])
            hi[at] = np.stack([x_sets[i].upper for i in at])
        bounds = cls(lo, hi, box)
        bounds.sets = x_sets
        return bounds

    @cached_property
    def sets(self) -> tuple:
        """One set object per component."""
        n = self.lo.shape[1]
        return tuple(Box(lo, hi) if box else Free(n) for lo, hi, box
                     in zip(self.lo, self.hi, self.box.tolist()))


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
    bounds = prob.bounds
    x = np.clip(x0.reshape(cs.N, cs.n), bounds.lo, bounds.hi).reshape(-1)
    if z0 is None:
        z0 = np.zeros(cs.W)
    z0 = np.asarray(z0, dtype=float)
    if z0.shape != (cs.W,):
        raise DimensionMismatch(f"z0 must have shape ({cs.W},)")
    z = prob.z_set.project(z0)
    return PrimalDualState(x=x, z=z, p=np.zeros(cs.W), k=0)


class TermGroups:
    """A problem's objective as arrays: one term per component, grouped by
    kind for a vectorized objective.

    ``TermGroups(kind, center, scale, other)`` takes per component its
    term's kind, an index into ``KINDS`` (``len(KINDS)`` for any other
    kind), its center (``(N, n)``, zero for kinds without one) and its
    weight (``Quadratic``) or gamma (``L1``), and ``other``, the term
    objects of the components of other kinds in component order.
    Quadratic, absolute-deviation and one-norm terms become one gather
    each over the coordinates they own (``quad_idx``, ``abs_idx``,
    ``l1_idx``), with per-coordinate centers, weights and gammas; other
    terms (``Custom``) keep their own evaluation, in ``other`` as
    ``(component, term)`` pairs. :meth:`from_terms` takes one term object
    per component, and ``terms`` makes term objects from the arrays when
    first asked for.
    """

    KINDS = (Quadratic, AbsDev, L1)

    def __init__(self, kind, center, scale, other=()):
        self.kind = np.asarray(kind, dtype=np.intp)
        self.center = np.asarray(center, dtype=float)
        self.scale = np.asarray(scale, dtype=float)
        N, n = self.center.shape
        self.N, self.n = N, n
        quad, absd, l1, rest = (self.kind == k for k in range(4))
        if not np.all(self.scale[quad] > 0):
            raise InvalidProblem("Quadratic weight must be positive")
        if np.any(self.scale[l1] < 0):
            raise InvalidProblem("L1 gamma must be nonnegative")
        coords = np.arange(N * n).reshape(N, n)
        self.quad_idx = coords[quad].ravel()
        self.quad_center = self.center[quad].ravel()
        self.quad_weight = np.repeat(self.scale[quad], n)
        self.abs_idx = coords[absd].ravel()
        self.abs_center = self.center[absd].ravel()
        self.l1_idx = coords[l1].ravel()
        self.l1_gamma = np.repeat(self.scale[l1], n)
        comps, other = np.flatnonzero(rest).tolist(), tuple(other)
        if len(other) != len(comps):
            raise InvalidProblem(f"{len(comps)} components have terms of "
                                 f"other kinds, got {len(other)} such terms")
        self.other = list(zip(comps, other))

    @classmethod
    def from_terms(cls, terms, n: int) -> "TermGroups":
        """The groups of one term object of dim ``n`` per component;
        ``terms`` returns the objects given."""
        terms = tuple(terms)
        codes = {k: c for c, k in enumerate(cls.KINDS)}
        kind = np.array([codes.get(type(t), len(codes)) for t in terms],
                        dtype=np.intp)
        center, scale = np.zeros((len(terms), n)), np.ones(len(terms))
        for of, name, out in ((Quadratic, "center", center),
                              (AbsDev, "center", center),
                              (Quadratic, "weight", scale),
                              (L1, "gamma", scale)):
            at = np.flatnonzero(kind == codes[of]).tolist()
            if at:
                out[at] = [getattr(terms[i], name) for i in at]
        other = np.flatnonzero(kind == len(codes)).tolist()
        groups = cls(kind, center, scale, [terms[i] for i in other])
        groups.terms = terms
        return groups

    @cached_property
    def terms(self) -> tuple:
        """One term object per component."""
        n, other = self.n, dict(self.other)
        make = (lambda c, s: Quadratic(c, s), lambda c, s: AbsDev(c),
                lambda c, s: L1(gamma=s, dim=n))
        return tuple(other[i] if k == len(make) else make[k](c, s)
                     for i, (k, c, s) in enumerate(zip(
                         self.kind.tolist(), self.center,
                         self.scale.tolist())))

    def value(self, xs: np.ndarray) -> np.ndarray:
        """The objective of every row of the stack ``xs`` (shape ``(S, nN)``):
        :meth:`calls` run once."""
        total = np.empty(len(xs))
        replay(self.calls(xs, total))
        return total

    def calls(self, xs, total):
        """The objective of every row of ``xs`` into ``total`` (``(S,)``), as
        calls ``(f, args)`` bound to them and to scratch made here, which
        make no temporaries but in the terms of other kinds: :meth:`value`
        runs them once, a run's recorder at every record point.

        Each kind's sum is one reduction over the last axis of a
        C-contiguous array, so row ``s`` gets the bits of the same sum
        over ``xs[s]`` alone: ``np.vecdot`` for the weighted squares and
        the one-norm (the 1-D ``np.dot``), ``np.add.reduce`` for the
        absolute deviations, and gathers by ``np.take`` along the rows (a
        fancy index ``xs[:, idx]`` is F-ordered and would sum in another
        order); a kind that owns every coordinate reads ``xs`` without a
        gather. The per-coordinate constants are laid out at the rows'
        shape (the one-norm's ``gamma`` stays one row, which ``np.vecdot``
        takes faster). Other terms are evaluated one row at a time, in
        term order.
        """
        S, part = len(xs), np.empty(len(xs))

        def gather(idx):
            """Scratch for a kind's coordinates, the array its first
            operation reads them from and the calls that fill that array:
            ``xs`` itself, with no call, when the kind owns every
            coordinate, else the scratch, which a take fills."""
            kept = np.empty((S, idx.size))
            if idx.size == xs.shape[-1]:
                return kept, xs, []
            return kept, kept, [(xs.take, (idx, 1, kept, "clip"))]

        calls = [(total.fill, (0.0,))]
        if self.quad_idx.size:
            d, src, calls_in = gather(self.quad_idx)
            wd = np.empty_like(d)
            calls += calls_in + [
                (np.subtract, (src, laid_out(self.quad_center, d.shape), d)),
                (np.multiply, (laid_out(self.quad_weight, d.shape), d, wd)),
                (np.vecdot, (wd, d, part)),
                (np.add, (total, part, total))]
        if self.abs_idx.size:
            a, src, calls_in = gather(self.abs_idx)
            calls += calls_in + [
                (np.subtract, (src, laid_out(self.abs_center, a.shape), a)),
                (np.abs, (a, a)),
                (np.add.reduce, (a, -1, None, part)),
                (np.add, (total, part, total))]
        if self.l1_idx.size:
            a, src, calls_in = gather(self.l1_idx)
            calls += calls_in + [(np.abs, (src, a)),
                                 (np.vecdot, (self.l1_gamma, a, part)),
                                 (np.add, (total, part, total))]
        if self.other:
            calls.append((self._add_other, (xs, total)))
        return calls

    def _add_other(self, xs, total):
        """Add the terms of other kinds to ``total``, term by term."""
        n = self.n
        for i, t in self.other:
            total += [term_value(t, x[i * n:(i + 1) * n]) for x in xs]


def replay(calls):
    """Run calls ``(f, args)`` in order."""
    for f, args in calls:
        f(*args)


def laid_out(a, shape):
    """``a`` (one row) at ``shape``, the shape of the rows it meets, each
    row a copy of it (or ``a`` itself, for one row): a ufunc takes such an
    operand faster than one broadcast over a short stack."""
    if a.size == math.prod(shape):
        return a.reshape(shape)
    out = np.empty(shape)
    out[...] = a
    return out


def objective(prob: SeparableProblem, x: np.ndarray) -> float:
    """Global objective ``F(x) = sum_i f_i(x_i)``: the one-row case of
    :meth:`TermGroups.value`.

    Terms are summed by kind, so the result can differ from the
    term-by-term sum in the last bits.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (prob.dim_x,):
        raise DimensionMismatch(f"x must have shape ({prob.dim_x},)")
    return float(prob.groups.value(x[None])[0])


def residual(prob: SeparableProblem, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Constraint residual ``D x + H z``, zero exactly at feasible points.

    ``x`` and ``z`` may also be stacks of rows (``(S, nN)`` and
    ``(S, W)``), giving one residual row each; the rows are C-contiguous.
    It runs :func:`residual_calls` once.
    """
    cs = prob.constraints
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if (x.ndim > 2 or x.shape[:-1] != z.shape[:-1]
            or x.shape[-1:] != (prob.dim_x,) or z.shape[-1:] != (cs.W,)):
        raise DimensionMismatch("residual: x or z has wrong shape")
    r = np.empty(z.shape)
    replay(residual_calls(prob, x, z, r))
    return r


def residual_calls(prob: SeparableProblem, x, z, r):
    """``D x + H z`` into ``r``, of ``z``'s shape, as calls ``(f, args)``
    bound to them and to scratch made here (:func:`residual` runs them
    once, a run's recorder at every record point)."""
    cs, hz = prob.constraints, np.empty_like(r)
    return [(x.take, (cs.col_index, -1, r, "clip")),
            (np.multiply, (laid_out(cs.row_coeff, r.shape), r, r)),
            (np.multiply, (laid_out(cs.h_diag, r.shape), z, hz)),
            (np.add, (r, hz, r))]


def lyapunov_rows(prob: SeparableProblem, w, ref, z, p) -> np.ndarray:
    """``(1/2b)||p - p*||_w^2 + (b/2)||H(z - z*)||_w^2`` against the saddle
    point ``ref`` with row weights ``w``, for one point or each row of a
    stack: :func:`lyapunov_calls` run once."""
    out = np.empty(np.broadcast_shapes(np.shape(z), np.shape(p))[:-1])
    replay(lyapunov_calls(prob, w, ref, z, p, out))
    return out[()]


def lyapunov_calls(prob: SeparableProblem, w, ref, z, p, out):
    """:func:`lyapunov_rows` of ``z`` and ``p`` into ``out`` (their shape
    but the last axis), as calls ``(f, args)`` bound to them and to
    scratch made here, with the ``np.vecdot`` norms: a row has the bits of
    the 1-D call."""
    rows = out.shape + (prob.dim_z,)
    dp, hz, wv, part = np.empty(rows), np.empty(rows), np.empty(rows), \
        np.empty(out.shape)
    w = laid_out(w, rows)
    return [(np.subtract, (p, laid_out(ref.p, rows), dp)),
            (np.subtract, (z, laid_out(ref.z, rows), hz)),
            (np.multiply, (laid_out(prob.constraints.h_diag, rows), hz, hz)),
            (np.multiply, (dp, w, wv)),
            (np.vecdot, (wv, dp, out)),
            (np.multiply, (np.array(1.0 / (2.0 * prob.beta)), out, out)),
            (np.multiply, (hz, w, wv)),
            (np.vecdot, (wv, hz, part)),
            (np.multiply, (np.array(0.5 * prob.beta), part, part)),
            (np.add, (out, part, out))]


def lagrangian(prob: SeparableProblem, x: np.ndarray, z: np.ndarray,
               p: np.ndarray) -> float:
    """``F(x) - p'(D x + H z)``."""
    p = np.asarray(p, dtype=float)
    if p.shape != (prob.dim_z,):
        raise DimensionMismatch(f"p must have shape ({prob.dim_z},)")
    return objective(prob, x) - float(np.dot(p, residual(prob, x, z)))
