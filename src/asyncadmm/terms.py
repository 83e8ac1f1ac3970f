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


def _as_vector(values) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(values, dtype=float))
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

    Coordinates not mentioned in any pair are unconstrained.
    """

    dim: int
    pairs: tuple = field(default=())

    def __post_init__(self):
        pairs = tuple((int(i), int(j)) for i, j in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        seen = set()
        for i, j in pairs:
            if i == j:
                raise InvalidProblem(f"pair ({i},{j}) repeats an index")
            for k in (i, j):
                if not 0 <= k < self.dim:
                    raise InvalidProblem(f"pair index {k} out of range [0,{self.dim})")
                if k in seen:
                    raise InvalidProblem(f"index {k} appears in two pairs")
                seen.add(k)
        index = np.array(pairs, dtype=np.intp).reshape(-1, 2)
        object.__setattr__(self, "_first", index[:, 0])
        object.__setattr__(self, "_second", index[:, 1])

    def contains(self, u: np.ndarray, tol: float = 0.0) -> bool:
        return all(abs(u[i] + u[j]) <= tol for i, j in self.pairs)

    def project(self, u: np.ndarray) -> np.ndarray:
        # the pairs are disjoint, so all of them are projected at once
        out = np.asarray(u, dtype=float).copy()
        i, j = self._first, self._second
        m = 0.5 * (out[i] - out[j])
        out[i] = m
        out[j] = -m
        return out


FeasibleSet = Union[Free, Box, SumZeroPairs]
