"""Convex objective terms and feasible sets.

Terms are the per-component building blocks of the separable objective:
each one evaluates a convex function on a vector of fixed dimension.
Feasible sets describe the per-component constraint sets and the coupling
set for the auxiliary variable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .errors import InvalidProblem


def _index_array(values) -> np.ndarray:
    """Integers as an ``intp`` array. Integers too large for one saturate
    at ``+-2**62``, which lies outside every index range checked here
    (messages quote the value given)."""
    try:
        return np.asarray(values, dtype=np.intp)
    except OverflowError:
        big = 1 << 62
        return np.asarray(values, dtype=object).clip(-big, big).astype(np.intp)


def _index_pairs(values, what) -> np.ndarray:
    """Index pairs, as a sequence or an array, as a ``(P, 2)`` ``intp``
    array (see :func:`_index_array`). Empty input gives ``(0, 2)``; input
    of any other shape, ragged input included, is refused."""
    try:
        index = _index_array(values)
    except (TypeError, ValueError):
        index = np.asarray(values, dtype=object)   # ragged input: (M,)
        if index.shape[1:] == (2,):
            raise   # pairs with an entry that is no integer
    if index.size and index.shape[1:] != (2,):
        raise InvalidProblem(
            f"{what} must have shape (M, 2), got shape {index.shape}")
    return index.reshape(-1, 2)


def _first_true(flags) -> int:
    """Flat index of the first ``True`` of a boolean array, or -1."""
    flat = flags.reshape(-1)
    k = int(np.argmax(flat)) if flat.size else 0
    return k if flat.size and flat[k] else -1


def _repeats(values) -> np.ndarray:
    """Per element: whether an equal element comes before it."""
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    out = np.zeros(values.size, dtype=bool)
    out[order[1:]] = ranked[1:] == ranked[:-1]
    return out


def _as_vector(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise InvalidProblem(f"expected a vector, got shape {arr.shape}")
    return arr


# ---------------------------------------------------------------------------
# Objective terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Quadratic:
    """Weighted squared distance ``weight * ||u - center||^2``."""

    center: np.ndarray
    weight: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "center", _as_vector(self.center))
        if not self.weight > 0:
            raise InvalidProblem("Quadratic weight must be positive")

    @property
    def dim(self) -> int:
        return self.center.size

    def value(self, u: np.ndarray) -> float:
        d = u - self.center
        return float(self.weight * np.dot(d, d))


@dataclass(frozen=True, eq=False)
class AbsDev:
    """Absolute deviation ``||u - center||_1``."""

    center: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "center", _as_vector(self.center))

    @property
    def dim(self) -> int:
        return self.center.size

    def value(self, u: np.ndarray) -> float:
        return float(np.abs(u - self.center).sum())


@dataclass(frozen=True, eq=False)
class L1:
    """Scaled one-norm ``gamma * ||u||_1``."""

    gamma: float
    dim: int = 1

    def __post_init__(self):
        if self.gamma < 0:
            raise InvalidProblem("L1 gamma must be nonnegative")
        if self.dim < 1:
            raise InvalidProblem("L1 dim must be positive")

    def value(self, u: np.ndarray) -> float:
        return float(self.gamma * np.abs(u).sum())


@dataclass(frozen=True, eq=False)
class Custom:
    """User-supplied convex function given by an evaluation oracle.

    ``scalar_convex`` declares that the function is convex on the real
    line; it is required for the one-dimensional bisection fallback and
    is taken on trust (convexity is not verified).
    """

    fn: Callable[[np.ndarray], float]
    dim: int = 1
    scalar_convex: bool = False

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidProblem("Custom dim must be positive")

    def value(self, u: np.ndarray) -> float:
        return float(self.fn(np.asarray(u, dtype=float)))


ConvexTerm = Union[Quadratic, AbsDev, L1, Custom]


def term_value(term: ConvexTerm, u) -> float:
    """Evaluate a term at ``u`` (checked for dimension)."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if u.size != term.dim:
        raise InvalidProblem(f"term expects dim {term.dim}, got {u.size}")
    return term.value(u)


# ---------------------------------------------------------------------------
# Feasible sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Free:
    """The whole space."""

    dim: int

    def contains(self, u: np.ndarray, tol: float = 0.0) -> bool:
        return u.size == self.dim

    def project(self, u: np.ndarray) -> np.ndarray:
        return np.asarray(u, dtype=float).copy()


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned box ``lower <= u <= upper`` componentwise."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", _as_vector(self.lower))
        object.__setattr__(self, "upper", _as_vector(self.upper))
        if self.lower.size != self.upper.size:
            raise InvalidProblem("Box bounds must have equal length")
        if np.any(self.lower > self.upper):
            raise InvalidProblem("Box requires lower <= upper componentwise")

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, u: np.ndarray, tol: float = 0.0) -> bool:
        return bool(np.all(u >= self.lower - tol) and np.all(u <= self.upper + tol))

    def project(self, u: np.ndarray) -> np.ndarray:
        return np.clip(np.asarray(u, dtype=float), self.lower, self.upper)


@dataclass(frozen=True, eq=False)
class SumZeroPairs:
    """Coordinates constrained in disjoint pairs ``u[i] + u[j] = 0``.

    Coordinates not mentioned in any pair are unconstrained. ``pairs``
    may be given as a sequence of index pairs or a ``(P, 2)`` integer
    array; it is kept as a read-only C-contiguous ``(P, 2)`` ``intp``
    array.
    """

    dim: int
    pairs: np.ndarray = field(default=())

    def __post_init__(self):
        index = _index_pairs(self.pairs, "pairs").copy()
        # the checks of each pair in order: a repeated index, then the range
        # and earlier use of its first index, then of its second
        out = (index < 0) | (index >= self.dim)
        again = _repeats(index.reshape(-1)).reshape(-1, 2)
        failed = np.stack([index[:, 0] == index[:, 1], out[:, 0], again[:, 0],
                           out[:, 1], again[:, 1]], axis=1)
        first = _first_true(failed)
        if first >= 0:
            p, check = divmod(first, 5)
            i, j = (int(v) for v in self.pairs[p])
            k = (i, j)[check // 3]
            if check == 0:
                raise InvalidProblem(f"pair ({i},{j}) repeats an index")
            if check in (1, 3):
                raise InvalidProblem(
                    f"pair index {k} out of range [0,{self.dim})")
            raise InvalidProblem(f"index {k} appears in two pairs")
        index.flags.writeable = False
        object.__setattr__(self, "pairs", index)

    def contains(self, u: np.ndarray, tol: float = 0.0) -> bool:
        return bool(np.all(np.abs(u[self.pairs].sum(axis=1)) <= tol))

    def project(self, u: np.ndarray) -> np.ndarray:
        # the pairs are disjoint, so all of them are projected at once
        out = np.asarray(u, dtype=float).copy()
        a, b = out[self.pairs.T]
        with np.errstate(over="ignore"):
            m = 0.5 * (a - b)
        m = np.where(np.isinf(m), 0.5 * a - 0.5 * b, m)  # past the float range
        out[self.pairs.T] = m, -m
        return out


FeasibleSet = Union[Free, Box, SumZeroPairs]
