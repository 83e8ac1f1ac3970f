"""The array path of a problem equals its term path, bit for bit.

A problem's objective and component sets are stored as arrays
(``TermGroups``, ``XSetBounds``). ``generate_benchmark`` and
``reformulate`` build those arrays directly; ``SeparableProblem(terms=…)``,
``build_reformulation`` and ``consensus_reference`` take one term and one
set object per component and turn them into the same arrays. The
property below builds each benchmark family both ways and compares the
arrays, the objective, the reference solution and the ``dump_problem``
text, and checks the reference against the loop over term objects in
``tests/reference.py``. A run of a generated benchmark makes no term or
set object at all.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from asyncadmm import (AbsDev, Box, BenchmarkSpec, ConstraintSystem, Custom,
                       ExperimentConfig, Free, Graph, L1, ProbeFlags,
                       ProblemSource, Quadratic, SeparableProblem,
                       SumZeroPairs, build_reformulation, consensus_reference,
                       dump_problem, generate_benchmark, load_problem,
                       objective)
from asyncadmm.benchmarks import BENCHMARK_NAMES
from asyncadmm.consensus import reformulate
from asyncadmm.errors import (DisconnectedGraph, InvalidProblem,
                              UnsupportedSet)
from asyncadmm.problem import TermGroups, XSetBounds
from asyncadmm.runner import run_experiment

from reference import GRAPHS, reference_consensus

GROUP_ARRAYS = ("kind", "center", "scale", "quad_idx", "quad_center",
                "quad_weight", "abs_idx", "abs_center", "l1_idx",
                "l1_gamma")


def assert_bytes(got, want, name=""):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype, name
    assert got.shape == want.shape, name
    assert got.tobytes() == want.tobytes(), name


def family_data(family, nodes, n, rng):
    """Per-node centers and weights of a family, as ``generate_benchmark``
    derives them from its data, and the common box around them."""
    if family == "lasso-toy":
        w = rng.uniform(0.5, 2.0, (nodes - 1, 1)) * rng.choice([-1, 1])
        b = rng.uniform(-5.0, 5.0, (nodes - 1, n))
        centers = np.vstack([b / w, np.zeros((1, n))])
        scale = np.append((w * w)[:, 0], float(rng.uniform(0.0, 3.0)))
    else:
        centers = rng.uniform(-5.0, 5.0, (nodes, n))
        scale = np.ones(nodes)
    margin = float(rng.uniform(0.0, 2.0))
    return centers, scale, centers.min() - margin, centers.max() + margin


def term_objects(family, centers, scale):
    """The objects the benchmark used to make, one per node."""
    if family == "consensus-quadratic":
        return tuple(Quadratic(c, 1.0) for c in centers)
    if family == "consensus-lad":
        return tuple(AbsDev(c) for c in centers)
    return tuple(Quadratic(c, w) for c, w in zip(centers[:-1], scale[:-1])) \
        + (L1(gamma=float(scale[-1]), dim=centers.shape[1]),)


def array_problem(family, graph, n, rng, beta):
    """The problem built from arrays, with the data it was built from:
    ``generate_benchmark`` for scalar nodes, ``reformulate`` otherwise."""
    nodes = graph.num_nodes
    centers, scale, lo, hi = family_data(family, nodes, n, rng)
    if n == 1:
        if family == "lasso-toy":
            w = np.sqrt(scale[:-1])
            spec = BenchmarkSpec(family, w=w.tolist(),
                                 b=(centers[:-1, 0] * w).tolist(),
                                 pi=float(scale[-1]))
        else:
            spec = BenchmarkSpec(family, a=centers[:, 0].tolist())
        bench = generate_benchmark(spec, graph, beta=beta)
        prob = bench.problem
        # the data exactly as the generator derived it
        return (prob, prob.groups.center, prob.groups.scale,
                prob.bounds.lo[0], prob.bounds.hi[0], bench)
    kind = TermGroups.KINDS.index(
        Quadratic if family != "consensus-lad" else AbsDev)
    kinds = np.full(nodes, kind)
    if family == "lasso-toy":
        kinds[-1] = TermGroups.KINDS.index(L1)
    groups = TermGroups(kinds, centers, scale)
    lo, hi = np.full(n, lo), np.full(n, hi)
    bounds = XSetBounds(np.tile(lo, (nodes, 1)), np.tile(hi, (nodes, 1)),
                        np.ones(nodes, dtype=bool))
    prob = reformulate(graph, groups, bounds, beta).problem
    return prob, centers, scale, lo, hi, None


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(family=st.sampled_from(BENCHMARK_NAMES),
       kind=st.sampled_from(["cycle", "path", "star"]),
       nodes=st.integers(2, 40),
       n=st.sampled_from([1, 2]),
       beta=st.sampled_from([1.0, 0.3, 1.7]),
       seed=st.integers(0, 2 ** 16))
def test_array_path_equals_term_path(family, kind, nodes, n, beta, seed):
    rng = np.random.default_rng(seed)
    graph = GRAPHS[kind](nodes)
    prob, centers, scale, lo, hi, bench = array_problem(
        family, graph, n, rng, beta)
    terms = term_objects(family, centers, scale)
    box = Box(lo, hi)
    x_sets = (box,) * nodes
    cs = prob.constraints
    by_terms = SeparableProblem(terms=terms, x_sets=x_sets, z_set=prob.z_set,
                                constraints=cs, beta=beta)
    by_reform = build_reformulation(graph, terms, x_sets, beta).problem
    for other in (by_terms, by_reform):
        for name in GROUP_ARRAYS:
            assert_bytes(getattr(prob.groups, name),
                         getattr(other.groups, name), name)
        assert prob.groups.other == other.groups.other == []
        for name in ("lo", "hi", "box"):
            assert_bytes(getattr(prob.bounds, name),
                         getattr(other.bounds, name), name)
        x = rng.uniform(-6.0, 6.0, prob.dim_x)
        assert_bytes(objective(prob, x), objective(other, x), "objective")

    # the reference: the array path, the term path and the loop over terms
    want = reference_consensus(terms)
    got = consensus_reference(terms)
    assert_bytes(got, want, "consensus_reference")
    if bench is not None:
        assert_bytes(bench.reference, want, "generate_benchmark reference")
        x_star = np.tile(want, nodes)
        z_star = -(cs.row_coeff * x_star[cs.col_index]) / cs.h_diag
        assert_bytes(bench.reference_solution.x, x_star, "x*")
        assert_bytes(bench.reference_solution.z, z_star, "z*")

    # the problem file: objects made from the arrays dump as the given ones
    text = dump_problem(prob)
    assert text == dump_problem(by_terms) == dump_problem(by_reform)
    again = load_problem(text)
    assert dump_problem(again) == text
    for name in GROUP_ARRAYS:
        assert_bytes(getattr(again.groups, name), getattr(prob.groups, name),
                     name)


@pytest.mark.parametrize("family", BENCHMARK_NAMES)
def test_run_builds_no_term_or_set_objects(family, tmp_path):
    """A generated benchmark runs, with every probe and a synchronous
    reference solve, without making a term or an x set object."""
    rng = np.random.default_rng(3)
    nodes = 12
    data = (dict(a=list(rng.uniform(-5.0, 5.0, nodes)))
            if family != "lasso-toy" else
            dict(w=list(rng.uniform(0.5, 2.0, nodes - 1)),
                 b=list(rng.uniform(-5.0, 5.0, nodes - 1))))
    bench = generate_benchmark(BenchmarkSpec(family, **data),
                               Graph.cycle(nodes))
    config = ExperimentConfig(
        problem=ProblemSource("object", bench), T=200, seeds=(0, 1),
        stride=10, reference="sync", out=str(tmp_path),
        probes=ProbeFlags(shadow=True, lyapunov=True, ergodic=True))
    assert run_experiment(config, base_dir=tmp_path) == 0
    assert (tmp_path / "summary.json").exists()
    prob = bench.problem
    assert "terms" not in prob.groups.__dict__
    assert "sets" not in prob.bounds.__dict__
    assert "terms" not in prob.__dict__ and "x_sets" not in prob.__dict__


def test_objects_are_made_on_first_use_and_kept():
    bench = generate_benchmark(BenchmarkSpec("lasso-toy"), Graph.cycle(4))
    prob = bench.problem
    terms, sets = prob.terms, prob.x_sets
    assert prob.terms is terms and prob.x_sets is sets
    assert [type(t) for t in terms] == [Quadratic] * 3 + [L1]
    assert all(isinstance(s, Box) for s in sets)


def test_term_built_problem_keeps_its_objects():
    custom = Custom(fn=lambda u: float(u[0] ** 4), scalar_convex=True)
    terms = (Quadratic(np.array([1.0]), 2), custom, L1(gamma=1, dim=1))
    x_sets = (Free(1), Box(np.array([-1.0]), np.array([1.0])), Free(1))
    cs = ConstraintSystem(n=1, N=3, W=3,
                          entries=[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)],
                          h_diag=-np.ones(3))
    prob = SeparableProblem(terms=terms, x_sets=x_sets, z_set=Free(3),
                            constraints=cs, beta=1.0)
    assert prob.terms is terms and prob.x_sets is x_sets
    assert prob.groups.other == [(1, custom)]
    assert_bytes(prob.bounds.box, np.array([False, True, False]))
    # made from the arrays, the objects hold the same values
    made = TermGroups(prob.groups.kind, prob.groups.center,
                      prob.groups.scale, [custom]).terms
    assert made[1] is custom
    assert made[0].weight == 2.0 and made[2].gamma == 1.0
    assert [type(s) for s in XSetBounds(prob.bounds.lo, prob.bounds.hi,
                                        prob.bounds.box).sets] == \
        [Free, Box, Free]


def _cs(N=2, n=1):
    return ConstraintSystem(n=n, N=N, W=N * n,
                            entries=[(i * n + t, i, t, 1.0) for i in range(N)
                                     for t in range(n)],
                            h_diag=-np.ones(N * n))


Q1, Q2 = Quadratic(np.array([1.0])), Quadratic(np.ones(2))
# bad term and set inputs with the messages they gave before the arrays
BAD_INPUTS = [
    ((Q1,), (Free(1), Free(1)), InvalidProblem, "expected 2 terms, got 1"),
    ((Q1, Q1), (Free(1),), InvalidProblem, "expected 2 x_sets, got 1"),
    ((Q1, Q2), (Free(1), Free(1)), InvalidProblem,
     "term 1 has dim 2, expected 1"),
    ((Q1, Q1), (Free(1), Free(3)), InvalidProblem,
     "x_set 1 has dim 3, expected 1"),
    ((Q1, Q1), (SumZeroPairs(1), Free(1)), UnsupportedSet,
     "x_set 0 of kind SumZeroPairs is not supported: use free or box"),
    # component order first, then term before set
    ((Q1, Q2), (Free(2), Free(1)), InvalidProblem,
     "x_set 0 has dim 2, expected 1"),
    ((Q1, L1(gamma=1.0, dim=3)), (Free(1), SumZeroPairs(1)), InvalidProblem,
     "term 1 has dim 3, expected 1"),
    ((Q1, Q1), (Box(np.zeros(1), np.ones(1)), SumZeroPairs(1)),
     UnsupportedSet,
     "x_set 1 of kind SumZeroPairs is not supported: use free or box"),
]


@pytest.mark.parametrize("terms, x_sets, error, message", BAD_INPUTS)
def test_bad_terms_and_sets_keep_their_messages(terms, x_sets, error,
                                                message):
    with pytest.raises(error) as exc:
        SeparableProblem(terms=terms, x_sets=x_sets, z_set=Free(2),
                         constraints=_cs(), beta=1.0)
    assert type(exc.value) is error and str(exc.value) == message
    with pytest.raises(error) as exc:
        build_reformulation(Graph.path(2), terms, x_sets, 1.0)
    if "terms, got" not in message:   # the reformulation counts terms first
        assert type(exc.value) is error and str(exc.value) == message
    with pytest.raises(InvalidProblem, match="term 0 has dim 2, expected 1"):
        SeparableProblem(terms=(Q2, Q1), x_sets=(Free(2), Free(1)),
                         z_set=Free(2), constraints=_cs(), beta=1.0)


@pytest.mark.parametrize("z_set, beta, message", [
    (Free(3), 1.0, "z_set has dim 3, expected 2"),
    (Box(np.zeros(2), np.ones(2)), 1.0,
     "a box z set is not supported: use free or sum_zero_pairs"),
    (Free(2), 0.0, "beta must be positive"),
])
def test_bad_problem_parts_keep_their_messages(z_set, beta, message):
    with pytest.raises((InvalidProblem, UnsupportedSet), match=message):
        SeparableProblem(terms=(Q1, Q1), x_sets=(Free(1), Free(1)),
                         z_set=z_set, constraints=_cs(), beta=beta)


def test_reformulation_checks_the_graph_first():
    disconnected = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraph):
        build_reformulation(disconnected, (Q1,), (SumZeroPairs(1),), 1.0)
    with pytest.raises(InvalidProblem, match="need 3 terms, got 1"):
        build_reformulation(Graph.path(3), (Q2,), (Free(1),), 1.0)
    groups = TermGroups([0], [[1.0]], [1.0])
    with pytest.raises(DisconnectedGraph):
        reformulate(disconnected, groups, XSetBounds([[0.0]], [[1.0]], [True]),
                    1.0)


@pytest.mark.parametrize("kind, center, scale, other, message", [
    ([0, 0], [[1.0], [2.0]], [1.0, 0.0], (),
     "Quadratic weight must be positive"),
    ([0, 0], [[1.0], [2.0]], [1.0, np.nan], (),
     "Quadratic weight must be positive"),
    ([2, 0], [[0.0], [2.0]], [-1.0, 1.0], (), "L1 gamma must be nonnegative"),
    ([3, 0], [[0.0], [2.0]], [1.0, 1.0], (),
     "1 components have terms of other kinds, got 0 such terms"),
])
def test_term_arrays_are_checked(kind, center, scale, other, message):
    with pytest.raises(InvalidProblem, match=message):
        TermGroups(kind, center, scale, other)


def test_bounds_arrays_are_checked():
    with pytest.raises(InvalidProblem,
                       match="Box requires lower <= upper componentwise"):
        XSetBounds([[1.0]], [[0.0]], [True])
    with pytest.raises(InvalidProblem,
                       match="Box requires lower <= upper componentwise"):
        generate_benchmark(BenchmarkSpec("consensus-quadratic",
                                         box_margin=-10.0), Graph.cycle(3))
    with pytest.raises(InvalidProblem, match=r"x set bounds of shape \(2, 1\)"):
        SeparableProblem.from_arrays(
            TermGroups([0, 0], [[1.0], [2.0]], [1.0, 1.0]),
            XSetBounds([[0.0]], [[1.0]], [True]), Free(2), _cs(), 1.0)
    with pytest.raises(InvalidProblem, match="expected 2 terms of dim 1"):
        SeparableProblem.from_arrays(
            TermGroups([0], [[1.0]], [1.0]),
            XSetBounds([[0.0]] * 2, [[1.0]] * 2, [True] * 2), Free(2),
            _cs(), 1.0)


def test_dump_of_a_generated_problem_is_unchanged():
    """The problem file of a generated benchmark is the one written when
    the benchmark made one object per node."""
    bench = generate_benchmark(
        BenchmarkSpec("lasso-toy", w=[1.5, -0.5, 2.0], b=[1.0, 2.0, -3.0],
                      pi=0.7), Graph.cycle(4))
    doc = json.loads(dump_problem(bench.problem))
    lo, hi = -4.0, 1.0 / 1.5
    margin = hi - lo + 1.0
    assert doc["terms"] == [
        {"kind": "quadratic", "center": [1.0 / 1.5], "weight": 2.25},
        {"kind": "quadratic", "center": [-4.0], "weight": 0.25},
        {"kind": "quadratic", "center": [-1.5], "weight": 4.0},
        {"kind": "l1", "gamma": 0.7, "dim": 1}]
    assert doc["x_sets"] == [{"kind": "box", "lower": [lo - margin],
                              "upper": [hi + margin]}] * 4


def test_bisection_adds_the_slopes_in_term_order():
    """At c = -1 the slopes are -1, 1e16, -1e16 and zeros: added left to
    right they cancel to 0 (1e16 - 1 rounds to 1e16), while numpy's
    pairwise sum of nine or more values gives -1. The sign decides the
    bracket, so the reference equals the loop over the terms only when the
    slopes are added in term order."""
    terms = (Quadratic(np.array([0.0]), 0.5),
             Quadratic(np.array([-2.0]), 0.5e16),
             Quadratic(np.array([0.0]), 0.5e16)) + (L1(gamma=0.0),) * 6
    slopes = np.array([0.0, -1.0, 1e16, -1e16] + [-0.0] * 6)
    assert np.add.accumulate(slopes)[-1] == 0.0 and np.sum(slopes) == -1.0
    assert_bytes(consensus_reference(terms), reference_consensus(terms))
