"""Benchmark problem generators.

Three scalar consensus families over a graph: quadratic data fitting
(optimum is the weighted mean of the local targets), least absolute
deviation (optimum is the median), and a toy sparse-regression split
where one agent holds the one-norm penalty and the rest hold squared
prediction errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .consensus import (EdgeReformulation, Graph, _check_graph,
                        _reformulate, consensus_optimum)
from .diagnostics import ReferenceSolution
from .engine import DIVERGENCE_LIMIT
from .errors import InvalidProblem, UnknownBenchmark
from .problem import TermGroups, XSetBounds
from .terms import AbsDev, L1, Quadratic

BENCHMARK_NAMES = ("consensus-quadratic", "consensus-lad", "lasso-toy")


@dataclass(eq=False)
class BenchmarkSpec:
    """Named benchmark plus its data parameters.

    ``a`` are the per-node targets for the consensus families;
    ``w``/``b``/``pi`` are the regression rows and penalty for lasso-toy.
    ``box_margin`` widens the compact box around the data range.
    """

    name: str
    a: Optional[list] = None
    w: Optional[list] = None
    b: Optional[list] = None
    pi: float = 1.0
    box_margin: Optional[float] = None

    def __post_init__(self):
        if self.name not in BENCHMARK_NAMES:
            raise UnknownBenchmark(
                f"unknown benchmark {self.name!r}; known: {BENCHMARK_NAMES}")


@dataclass(eq=False)
class Benchmark:
    """Generated problem with its centralized reference."""

    spec: BenchmarkSpec
    reform: EdgeReformulation
    reference: np.ndarray
    reference_solution: ReferenceSolution = field(default=None)

    @property
    def problem(self):
        return self.reform.problem


def _data_bounds(values, margin, num_nodes, what) -> XSetBounds:
    """The same compact box for every node, around the data range. Runs
    start each node at its data (``what``), which must lie within the
    divergence guard."""
    far = np.flatnonzero(np.abs(values) > DIVERGENCE_LIMIT)[:1].tolist()
    if far:
        raise InvalidProblem(
            f"{what} of node {far[0]} is {values[far[0]]:g}, past the "
            f"divergence guard ({DIVERGENCE_LIMIT:g}) where runs start")
    lo, hi = float(np.min(values)), float(np.max(values))
    if margin is None:
        margin = (hi - lo) + 1.0
    return XSetBounds(np.full((num_nodes, 1), lo - margin),
                      np.full((num_nodes, 1), hi + margin),
                      np.ones(num_nodes, dtype=bool))


def generate_benchmark(spec: BenchmarkSpec, graph: Graph,
                       beta: float = 1.0) -> Benchmark:
    """Build the edge reformulation of a named benchmark over ``graph``.

    The graph is checked first, so a disconnected one is refused before
    any per-node array is built. The nodes' terms and x sets are built as
    arrays (``TermGroups``, ``XSetBounds``), with no object per node.
    """
    n_nodes = graph.num_nodes
    _check_graph(graph, n_nodes)
    if spec.name in ("consensus-quadratic", "consensus-lad"):
        a = spec.a if spec.a is not None else [float(i + 1) for i in range(n_nodes)]
        a = np.asarray(a, dtype=float)
        if a.shape != (n_nodes,):
            raise InvalidProblem(f"need {n_nodes} data values, got {a.shape}")
        kind = TermGroups.KINDS.index(
            Quadratic if spec.name == "consensus-quadratic" else AbsDev)
        groups = TermGroups(np.full(n_nodes, kind), a[:, None],
                            np.ones(n_nodes))
        bounds = _data_bounds(a, spec.box_margin, n_nodes, f"{spec.name} a")
    else:  # lasso-toy
        w = np.asarray(spec.w if spec.w is not None
                       else np.ones(n_nodes - 1), dtype=float)
        b = np.asarray(spec.b if spec.b is not None
                       else np.arange(1, n_nodes), dtype=float)
        if w.shape != (n_nodes - 1,) or b.shape != (n_nodes - 1,):
            raise InvalidProblem(
                f"lasso-toy on {n_nodes} nodes needs {n_nodes - 1} rows of (w, b)")
        # (w_i x - b_i)^2 = w_i^2 (x - b_i/w_i)^2, so each row is a
        # quadratic; the last node holds the one-norm
        with np.errstate(all="ignore"):
            weight, centers = w * w, np.append(b / w, 0.0)
        bad = ~((0 < weight) & (weight < np.inf) & np.isfinite(centers[:-1]))
        if bad.any():
            i = int(np.argmax(bad))
            raise InvalidProblem(
                f"lasso-toy row {i} (w = {float(w[i])!r}, b = {float(b[i])!r})"
                ": w*w must be finite and positive, and b/w finite")
        if spec.pi < 0:
            raise InvalidProblem("lasso-toy penalty must be nonnegative")
        kind = np.append(np.zeros(n_nodes - 1, dtype=np.intp),
                         TermGroups.KINDS.index(L1))
        groups = TermGroups(kind, centers[:, None],
                            np.append(weight, float(spec.pi)))
        bounds = _data_bounds(centers, spec.box_margin, n_nodes,
                              "lasso-toy b/w")

    reform = _reformulate(graph, groups, bounds, beta, ())
    reference = consensus_optimum(groups)
    cs = reform.problem.constraints
    x_star = np.tile(reference, n_nodes)
    z_star = -(cs.row_coeff * x_star[cs.col_index]) / cs.h_diag
    ref_sol = ReferenceSolution(x=x_star, z=z_star, p=None, source="analytic",
                                prob=reform.problem)
    return Benchmark(spec=spec, reform=reform, reference=reference,
                     reference_solution=ref_sol)
