"""Edge-based consensus over an undirected graph.

Each node i holds a local convex term and a local copy x_i; every edge
(i, j) contributes one constraint row per endpoint and coordinate,
``A_ei x_i = z_ei`` with A entries +1 (low endpoint) and -1 (high
endpoint), and the z set forces ``z_ei + z_ej = 0``. Activating one edge
per iteration updates only the two endpoint copies, the edge's z pair,
and the edge's dual pair, which is the decentralized gossip-style
execution of the asynchronous engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .compiled import _fire_blocks
from .errors import (DisconnectedGraph, InvalidProblem, ParseError,
                     UnsupportedMix)
from .problem import (ConstraintSystem, PrimalDualState, SeparableProblem,
                      TermGroups, XSetBounds, initial_state, problem_arrays)
from .scheduler import ProperPartition, build_partition
from .terms import (Custom, SumZeroPairs, _first_true, _index_pairs,
                    _repeats)


@dataclass(eq=False)
class Graph:
    """Connected undirected graph given as an edge list.

    ``edges`` may be a sequence of pairs or an ``(M, 2)`` integer array.
    It is kept as a read-only C-contiguous ``(M, 2)`` ``intp`` array with
    ``edges[e] = (low, high)``.
    """

    num_nodes: int
    edges: np.ndarray

    def __post_init__(self):
        if self.num_nodes < 1:
            raise InvalidProblem("graph needs at least one node")
        if self.num_nodes > 1 << 31:   # beyond it, the keys below overflow
            raise InvalidProblem(
                f"graph with {self.num_nodes} nodes is too large")
        ends = np.sort(_index_pairs(self.edges, "edges"), axis=1)
        lo, hi = ends[:, 0], ends[:, 1]
        # the checks of each edge in order: a self-loop, an end out of
        # range, an earlier copy (the key is exact for edges in range)
        failed = np.stack([lo == hi, (lo < 0) | (hi >= self.num_nodes),
                           _repeats(lo * self.num_nodes + hi)], axis=1)
        first = _first_true(failed)
        if first >= 0:
            k, check = divmod(first, 3)
            i, j = (int(v) for v in self.edges[k])
            if check == 0:
                raise InvalidProblem(f"self-loop at node {i}")
            if check == 1:
                raise InvalidProblem(f"edge ({i},{j}) out of range")
            raise InvalidProblem(f"duplicate edge {(min(i, j), max(i, j))}")
        ends.flags.writeable = False
        self.edges = ends

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def is_connected(self) -> bool:
        """Whether every node is reachable from node 0.

        Each node points at a node no larger than itself. Every round
        points the root of each tree at the smallest root across the
        edges leaving it, then shortcuts every pointer to its root, until
        no edge joins two trees: array passes, not a walk node by node.
        A graph with fewer than ``N - 1`` edges is refused before any of
        that, in time independent of ``N``.
        """
        if self.num_edges < self.num_nodes - 1:
            return False
        root = np.arange(self.num_nodes)
        lo, hi = self.edges.T
        while True:
            a, b = root[lo], root[hi]
            cut = a != b
            if not cut.any():
                return not root.any()
            a, b = a[cut], b[cut]
            np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
            up = root[root]
            while not np.array_equal(up, root):
                root, up = up, up[up]

    @classmethod
    def cycle(cls, num_nodes: int) -> "Graph":
        i = np.arange(num_nodes)
        edges = np.stack([i, (i + 1) % max(num_nodes, 1)], axis=1)
        return cls(num_nodes, edges[:1] if num_nodes == 2 else edges)

    @classmethod
    def path(cls, num_nodes: int) -> "Graph":
        i = np.arange(max(num_nodes - 1, 0))
        return cls(num_nodes, np.stack([i, i + 1], axis=1))

    @classmethod
    def from_text(cls, text: str) -> "Graph":
        """Parse the plain graph format: first line "N M", then M lines "i j"."""
        lines = [ln for ln in (s.strip() for s in text.splitlines())
                 if ln and not ln.startswith("#")]
        if not lines:
            raise ParseError("empty graph file")
        num_nodes, m = _two_integers(lines[0], "'N M' header", "header")
        if len(lines) - 1 != m:
            raise ParseError(f"header declares {m} edges, found {len(lines) - 1}")
        edges = [_two_integers(ln, "'i j'", "edge") for ln in lines[1:]]
        try:
            return cls(num_nodes, edges)
        except InvalidProblem as exc:
            raise ParseError(str(exc)) from None

    def to_text(self) -> str:
        lines = [f"{self.num_nodes} {self.num_edges}"]
        lines += map("{} {}".format, *self.edges.T.tolist())
        return "\n".join(lines) + "\n"


def _two_integers(line: str, form: str, what: str):
    """The two integers of one line of a graph file."""
    parts = line.split()
    if len(parts) != 2:
        raise ParseError(f"expected {form}, got {line!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"non-integer {what} {line!r}") from None


@dataclass(eq=False)
class EdgeReformulation:
    """Separable problem, per-edge partition, and row bookkeeping for a graph."""

    graph: Graph
    problem: SeparableProblem
    partition: ProperPartition
    signs: np.ndarray       # (M, 2): incidence sign of (low, high) endpoint
    n: int

    def edge_rows(self, e: int, endpoint: int) -> np.ndarray:
        """Constraint rows of edge ``e`` owned by ``endpoint`` (0=low, 1=high)."""
        start = (2 * e + endpoint) * self.n
        return np.arange(start, start + self.n, dtype=np.intp)


def build_reformulation(graph: Graph, terms, x_sets, beta: float,
                        flip_edges: Sequence[int] = ()) -> EdgeReformulation:
    """Edge-based constraint system for consensus over ``graph``, with one
    term and one x set object per node: :func:`reformulate` of their
    arrays."""
    terms = tuple(terms)
    _check_graph(graph, len(terms))
    groups, bounds = problem_arrays(terms, x_sets, graph.num_nodes,
                                    terms[0].dim)
    return _reformulate(graph, groups, bounds, beta, flip_edges)


def reformulate(graph: Graph, groups: TermGroups, bounds: XSetBounds,
                beta: float, flip_edges: Sequence[int] = ()
                ) -> EdgeReformulation:
    """Edge-based constraint system for consensus over ``graph``, with the
    nodes' terms and x sets given as arrays.

    Produces W = 2 M n rows: for edge e = (i, j), endpoint i's rows carry
    coefficient +1 and endpoint j's -1 (flipped for edges listed in
    ``flip_edges``; the orientation does not affect the x trajectory),
    H = -I, a sum-zero pair per edge and coordinate, and one partition
    block per edge.
    """
    _check_graph(graph, groups.N)
    return _reformulate(graph, groups, bounds, beta, flip_edges)


def _check_graph(graph: Graph, num_terms: int):
    if not graph.is_connected():
        raise DisconnectedGraph(
            f"graph with {graph.num_nodes} nodes and {graph.num_edges} edges "
            "is not connected")
    if num_terms != graph.num_nodes:
        raise InvalidProblem(f"need {graph.num_nodes} terms, got {num_terms}")


def _reformulate(graph, groups, bounds, beta, flip_edges):
    n = groups.n
    m = graph.num_edges
    w = 2 * m * n
    sign = np.ones(m)
    sign[[e for e in {int(e) for e in flip_edges} if 0 <= e < m]] = -1.0
    signs = np.stack([sign, -sign], axis=1)
    # entries by edge, coordinate, then endpoint: edge e's low endpoint
    # owns rows 2en..2en+n-1 and its high endpoint the next n rows
    shape = (m, n, 2)
    rows = ((2 * np.arange(m)[:, None, None] + np.arange(2)) * n
            + np.arange(n)[:, None])
    cs = ConstraintSystem.from_arrays(
        n, graph.num_nodes, w, rows.ravel(),
        np.broadcast_to(graph.edges[:, None, :], shape).ravel(),
        np.broadcast_to(np.arange(n)[:, None], shape).ravel(),
        np.broadcast_to(signs[:, None, :], shape).ravel(), -np.ones(w))
    z_set = SumZeroPairs(dim=w, pairs=rows.reshape(-1, 2))
    problem = SeparableProblem.from_arrays(groups, bounds, z_set, cs, beta)
    partition = build_partition(z_set, cs, np.arange(w).reshape(m, 2 * n))
    return EdgeReformulation(graph=graph, problem=problem, partition=partition,
                             signs=signs, n=n)


def edge_initial_state(reform: EdgeReformulation,
                       x0: Optional[np.ndarray] = None) -> PrimalDualState:
    """Start with z as the per-edge sum-zero projection of the coupled x."""
    prob = reform.problem
    cs = prob.constraints
    state = initial_state(prob, x0)
    z_raw = cs.row_coeff * state.x[cs.col_index]
    state.z = prob.z_set.project(z_raw)
    return state


def edge_step(reform: EdgeReformulation, state: PrimalDualState,
              edge: int) -> PrimalDualState:
    """Closed-form activation of one edge.

    Both endpoint copies re-solve their local subproblems against all of
    their incident constraint rows: the block kernel fires the edge's
    block, whose components are its two endpoints, on a row laid out from
    the state (``compiled._fire_blocks``). Then the edge's multiplier,
    auxiliary pair, and dual pair follow in closed form:

        v    = (-p_ei - p_ej)/2 + (beta/2)(A_ei x_i + A_ej x_j)
        z_eq = (-p_eq - v)/beta + A_eq x_q
        p_eq = -v

    which keeps z_ei + z_ej = 0 and makes both dual entries equal.
    """
    prob = reform.problem
    m = reform.graph.num_edges
    if not 0 <= edge < m:
        raise InvalidProblem(f"edge index {edge} out of range [0,{m})")
    i, j = reform.graph.edges[edge].tolist()
    n = reform.n
    beta = prob.beta

    x = _fire_blocks(prob, reform.partition, state, np.array([edge]))[0].copy()

    rows_i = reform.edge_rows(edge, 0)
    rows_j = reform.edge_rows(edge, 1)
    a_i, a_j = reform.signs[edge]
    ax_i = a_i * x[i * n:(i + 1) * n]
    ax_j = a_j * x[j * n:(j + 1) * n]
    p_i = state.p[rows_i]
    p_j = state.p[rows_j]

    v = 0.5 * (-p_i - p_j) + 0.5 * beta * (ax_i + ax_j)
    z = state.z.copy()
    z[rows_i] = (-p_i - v) / beta + ax_i
    z[rows_j] = (-p_j - v) / beta + ax_j
    p = state.p.copy()
    p[rows_i] = -v
    p[rows_j] = -v
    return PrimalDualState(x=x, z=z, p=p, k=state.k + 1)


def consensus_reference(terms) -> np.ndarray:
    """Centralized optimum of ``min_c sum_i f_i(c)`` over term objects of
    one dimension: :func:`consensus_optimum` of their arrays."""
    terms = tuple(terms)
    if not terms:
        raise UnsupportedMix("no terms")
    n = terms[0].dim
    if any(t.dim != n for t in terms):
        raise UnsupportedMix("terms have mixed dimensions")
    return consensus_optimum(TermGroups.from_terms(terms, n))


def consensus_optimum(groups: TermGroups) -> np.ndarray:
    """Centralized optimum of ``min_c sum_i f_i(c)``.

    Weighted mean for quadratic terms, coordinatewise median for absolute
    deviations; other combinations of quadratic, absolute-deviation, and
    one-norm terms are solved by bisection on the summed subgradient.
    """
    n = groups.n
    if groups.quad_idx.size == groups.N * n:
        # running sums from zero, left to right, as the plain sum adds
        weights = np.append(0.0, groups.quad_weight[::n])
        centers = np.append(np.zeros(n), groups.quad_center).reshape(-1, n)
        return (np.cumsum(weights[:, None] * centers, axis=0)[-1]
                / np.cumsum(weights)[-1])
    if groups.abs_idx.size == groups.N * n:
        return _median(groups.abs_center.reshape(-1, n))
    if any(isinstance(t, Custom) for _, t in groups.other):
        raise UnsupportedMix("custom terms have no closed-form reference")
    return np.array([_bisect_total_subgradient(groups, t) for t in range(n)])


def _median(values: np.ndarray) -> np.ndarray:
    """``np.median(values, axis=0)`` bit for bit, without its ``numpy.ma``
    import: the middle element(s) of a sort through ``np.mean``, as numpy
    takes them, and a NaN wherever a column holds one."""
    ranked = np.sort(values, axis=0)
    half = ranked.shape[0] // 2
    first = half - 1 if ranked.shape[0] % 2 == 0 else half
    out = np.mean(ranked[first:half + 1], axis=0)
    np.copyto(out, ranked[-1], where=np.isnan(ranked[-1]))
    return out


def _bisect_total_subgradient(groups: TermGroups, coord: int) -> float:
    """Scalar minimizer of the summed terms along one coordinate.

    The summed right derivative adds the terms' slopes in component order,
    strictly left to right from zero (terms of other kinds add nothing),
    as a loop over the terms adds them.
    """
    n = groups.n
    quad = groups.quad_idx[coord::n] // n + 1
    absd = groups.abs_idx[coord::n] // n + 1
    l1 = groups.l1_idx[coord::n] // n + 1
    weight, gamma = groups.quad_weight[coord::n], groups.l1_gamma[coord::n]
    quad_c, abs_c = groups.quad_center[coord::n], groups.abs_center[coord::n]
    slopes = np.zeros(groups.N + 1)

    def right_derivative(c):
        slopes[quad] = 2.0 * weight * (c - quad_c)
        slopes[absd] = np.where(c >= abs_c, 1.0, -1.0)
        slopes[l1] = np.where(c >= 0, gamma, -gamma)
        return np.add.accumulate(slopes)[-1]

    lo, hi = -1.0, 1.0
    while right_derivative(lo) >= 0 and lo > -1e12:
        lo *= 2.0
    while right_derivative(hi) < 0 and hi < 1e12:
        hi *= 2.0
    if right_derivative(lo) >= 0:
        return lo  # nondecreasing from the far left: kink at the boundary
    for _ in range(200):
        if hi - lo <= 1e-12 * max(1.0, abs(lo), abs(hi)):
            break
        mid = 0.5 * (lo + hi)
        if right_derivative(mid) < 0:
            lo = mid
        else:
            hi = mid
    return hi


def consensus_gap(reform: EdgeReformulation, state: PrimalDualState,
                  reference: np.ndarray) -> float:
    """``max_i || x_i - reference ||_inf`` over the node copies."""
    n = reform.n
    gaps = [np.max(np.abs(state.x[i * n:(i + 1) * n] - reference))
            for i in range(reform.graph.num_nodes)]
    return float(max(gaps))
