"""The stacked recorder against the plain per-seed records, bit for bit.

``run_batch`` records every seed of a record point with one stacked
evaluation, bound once per run to its ``(S, ·)`` rows
(``engine._Recorder.bind``) and replayed at each point (``add``). Row
``s`` must carry the bits of the 1-D evaluation of seed ``s`` alone, which
``reference.py`` keeps as the plain arithmetic: the objective by kind
through ``np.dot`` and ``.sum()``, ``np.linalg.norm`` of the residual and
the ``np.dot`` Lyapunov value.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from asyncadmm import (AbsDev, ConstraintSystem, Custom, Free, L1, ProbeFlags,
                       Quadratic, SeparableProblem, objective, residual)
from asyncadmm.diagnostics import ReferenceSolution
from asyncadmm.engine import _Recorder
from asyncadmm.errors import DimensionMismatch

from reference import (assert_bits_equal, plain_feasibility, plain_lyapunov,
                       plain_objective)
from test_fullpass import benchmark_problem, random_vector

MIX_KINDS = ("quadratic", "absdev", "l1", "custom")


def mixed_term(kind, n, rng):
    if kind == "quadratic":
        return Quadratic(random_vector(rng, n),
                         weight=float(rng.uniform(0.2, 3.0)))
    if kind == "absdev":
        return AbsDev(random_vector(rng, n))
    if kind == "l1":
        gamma = 0.0 if rng.random() < 0.2 else rng.uniform(0.1, 2.0)
        return L1(float(gamma), dim=n)
    a = float(rng.normal())
    return Custom(fn=lambda u, a=a: float(np.sum((u - a) ** 2)), dim=n)


def mixed_problem(rng, n, N):
    """One coupling row per coordinate; the kinds are drawn with random
    weights, so each grouped kind usually owns a long row of coordinates,
    and at most three terms are Custom (they are evaluated row by row)."""
    share = rng.dirichlet(np.ones(3))
    kinds = list(rng.choice(MIX_KINDS[:3], size=N, p=share))
    for i in rng.choice(N, size=min(N, int(rng.integers(0, 4))),
                        replace=False):
        kinds[i] = "custom"
    W = n * N
    cs = ConstraintSystem.from_arrays(
        n, N, W, np.arange(W), np.repeat(np.arange(N), n),
        np.tile(np.arange(n), N),
        rng.choice([-1.0, 1.0], W) * rng.uniform(0.3, 2.0, W),
        rng.choice([-1.0, 1.0], W) * rng.uniform(0.5, 2.0, W))
    return SeparableProblem(terms=tuple(mixed_term(k, n, rng) for k in kinds),
                            x_sets=(Free(n),) * N, z_set=Free(W),
                            constraints=cs, beta=float(rng.uniform(0.3, 2.0)))


def state_rows(rng, S, width):
    """``S`` random rows as strided views into a wider array, like the
    rows of ``run_batch``'s state; some rows are scaled far up or down."""
    big = np.empty((S, width + 3))
    for s in range(S):
        big[s, :width] = random_vector(rng, width,
                                       scale=10.0 ** rng.integers(-6, 7))
    return big[:, :width]


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(source=st.sampled_from(["consensus-quadratic", "consensus-lad",
                               "lasso-toy", "mix"]),
       S=st.sampled_from([1, 2, 3, 16, 40, 200]),
       n=st.sampled_from([1, 2]),
       size=st.sampled_from([1, 2, 3, 7, 9, 40, 130, 700, 2500])
       | st.integers(1, 2500),
       ergodic=st.booleans(), lyapunov=st.booleans(),
       data_seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_record_equals_plain_records(source, S, n, size, ergodic,
                                             lyapunov, data_seed):
    rng = np.random.default_rng(data_seed)
    if source == "mix":
        prob = mixed_problem(rng, n, size)
    else:
        # a cycle of ``size + 2`` nodes: one coordinate per node, two
        # coupling rows per edge
        prob = benchmark_problem(source, nodes=size + 2, seed=data_seed)
    dim_x, W = prob.dim_x, prob.dim_z
    ref = ReferenceSolution(x=random_vector(rng, dim_x),
                            z=random_vector(rng, W), p=random_vector(rng, W))
    dist = SimpleNamespace(weight_diag=rng.uniform(1.0, 50.0, W))
    probes = ProbeFlags(ergodic=ergodic, lyapunov=lyapunov)
    f_star = objective(prob, ref.x)
    assert_bits_equal(f_star, plain_objective(prob, ref.x), "f_star")

    xs, zs, ps, x_sums, z_sums = views = [state_rows(rng, S, d)
                                          for d in (dim_x, W, W, dim_x, W)]
    rec = _Recorder(prob, dist, probes, ref, f_star, S, 5, 3)
    rec.bind(xs, zs, ps, x_sums, z_sums)
    record_points = (3, 5)
    for j, k in enumerate(record_points):
        if j:
            # the binding reads the views as they are at each record point
            for view in views:
                view[...] = state_rows(rng, S, view.shape[1])
        blocks = rng.integers(0, 9, size=S)
        rec.add(k, blocks)
        assert rec.count == j + 1 and rec.iters[j] == k
        np.testing.assert_array_equal(rec.blocks[:, j], blocks)
        # the ergodic means of the sums over iterations 1..k
        xbs, zbs = x_sums / k, z_sums / k
        for s in range(S):
            obj = plain_objective(prob, xs[s])
            want = [obj, abs(obj - f_star),
                    plain_feasibility(prob, xs[s], zs[s]),
                    np.nan, np.nan, np.nan]
            if ergodic:
                want[3] = abs(plain_objective(prob, xbs[s]) - f_star)
                want[4] = plain_feasibility(prob, xbs[s], zbs[s])
            if lyapunov:
                want[5] = plain_lyapunov(prob, dist, ref, zs[s], ps[s])
            assert_bits_equal(recorded(rec, s)[:, j], np.array(want),
                              f"seed {s}")
            assert_bits_equal(objective(prob, xs[s]), obj, "one-row objective")


def recorded(rec, s):
    """Seed ``s``'s recorded series, in ``RunMetrics`` order."""
    m = rec.metrics(s, 0, 1, *np.zeros((5, 1)), {}, (0.0, 0.0, 0.0))
    return np.array([m.objective, m.objective_error, m.feasibility,
                     m.ergodic_objective_error, m.ergodic_feasibility,
                     m.lyapunov])


@pytest.mark.parametrize("S", [1, 3])
@pytest.mark.parametrize("ergodic, lyapunov", [(False, False), (True, False),
                                               (False, True), (True, True)])
@pytest.mark.parametrize("source", ["consensus-quadratic", "consensus-lad",
                                    "lasso-toy"])
def test_a_bound_record_point_allocates_nothing_of_the_problem_size(
        source, ergodic, lyapunov, S):
    """Once bound, a record point on a 2,000-node cycle makes no array of
    the problem's size: its scratch is made once by the binding, and every
    operation runs on contiguous rows without a buffer. The traced peak
    stays under a quarter of one x row (one x row is 16,000 bytes)."""
    rng = np.random.default_rng(11)
    prob = benchmark_problem(source, nodes=2000, seed=11)
    dim_x, W = prob.dim_x, prob.dim_z
    ref = ReferenceSolution(x=random_vector(rng, dim_x),
                            z=random_vector(rng, W), p=random_vector(rng, W))
    dist = SimpleNamespace(weight_diag=rng.uniform(1.0, 50.0, W))
    rec = _Recorder(prob, dist, ProbeFlags(ergodic=ergodic,
                                           lyapunov=lyapunov),
                    ref, objective(prob, ref.x), S, 10, 1)
    rec.bind(*(state_rows(rng, S, d) for d in (dim_x, W, W, dim_x, W)))
    blocks = np.zeros(S, dtype=np.intp)
    rec.add(1, blocks)
    tracemalloc.start()
    try:
        rec.add(2, blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * dim_x // 4


def test_residual_of_a_stack_is_the_residual_of_each_row():
    rng = np.random.default_rng(3)
    prob = mixed_problem(rng, 2, 6)
    xs = state_rows(rng, 4, prob.dim_x)
    zs = state_rows(rng, 4, prob.dim_z)
    r = residual(prob, xs, zs)
    assert r.flags.c_contiguous
    for s in range(4):
        assert_bits_equal(r[s], residual(prob, xs[s], zs[s]), "residual")


@pytest.mark.parametrize("x_shape,z_shape", [
    ((12,), (11,)), ((11,), (12,)), ((2, 12), (12,)), ((2, 12), (3, 12)),
    ((1, 2, 12), (1, 2, 12))])
def test_residual_refuses_mismatched_shapes(x_shape, z_shape):
    prob = mixed_problem(np.random.default_rng(4), 2, 6)
    with pytest.raises(DimensionMismatch):
        residual(prob, np.zeros(x_shape), np.zeros(z_shape))
