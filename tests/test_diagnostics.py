"""Diagnostics: weighted norms and Lagrangian, the Lyapunov value and its
drift, rate fits, the reference solve and the rate constants.

The rate constants evaluate a stack of directions at once; here they are
compared bit for bit with ``tests/reference.py``'s loop over one
direction, one component and one z pair at a time
(``reference_rate_constants``), and ``lyapunov`` with the recorder's
arithmetic (``plain_lyapunov``). The grid values come from the problem's
term arrays and are compared with one ``term_value`` call per point
(``reference_component_grids``).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from asyncadmm import (AbsDev, BenchmarkSpec, Box, ConstraintSystem, Free,
                       Graph, L1, PrimalDualState, ProbeFlags, Quadratic,
                       ReferenceSolution, SeparableProblem, SumZeroPairs,
                       WeightedNorm, build_partition, build_reformulation,
                       compute_rate_constants, derive_probabilities,
                       edge_initial_state, estimate_rate, generate_benchmark,
                       initial_state, lagrangian, lyapunov, q_value, residual,
                       run_batch, solve_reference, uniform_probs,
                       weighted_lagrangian, weighted_norm_sq)
from asyncadmm.diagnostics import (_component_grids, _grid_gap_estimate,
                                   _q_stack, _weighted_parts, lyapunov_drift)
from asyncadmm.errors import (GridTooLarge, InvalidProblem, MissingReference,
                              NonCompactSets, NonPositiveSeries)
from asyncadmm.terms import term_value

from conftest import random_state_for
from oracles import loglog_slope
from reference import (assert_bits_equal, plain_lyapunov,
                       reference_component_grids, reference_grid_gap,
                       reference_q, reference_rate_constants)
from test_fullpass import make_term, random_constraints
from test_shadow_stack import random_partition


def boxed_cycle(a=(1.0, 2.0, 3.0, 4.0, 5.0), beta=1.0, margin=5.0):
    g = Graph.cycle(len(a))
    lo, hi = min(a) - margin, max(a) + margin
    terms = tuple(Quadratic(np.array([v])) for v in a)
    sets = tuple(Box(np.array([lo]), np.array([hi])) for _ in a)
    return build_reformulation(g, terms, sets, beta)


def free_two_row():
    cs = ConstraintSystem(n=1, N=2, W=2,
                          entries=((0, 0, 1.0), (1, 1, 1.0)),
                          h_diag=np.array([-1.0, -1.0]))
    return SeparableProblem(
        terms=(Quadratic(np.array([1.0])), AbsDev(np.array([-1.0]))),
        x_sets=(Free(1), Free(1)), z_set=Free(2), constraints=cs, beta=1.0)


class TestWeightedNorm:
    def test_unit_weights_are_euclidean(self):
        rng = np.random.default_rng(0)
        wn = WeightedNorm(np.ones(4))
        for _ in range(20):
            v = rng.normal(size=4)
            assert weighted_norm_sq(v, wn) == pytest.approx(v @ v, abs=1e-12)

    def test_direct_substitution(self):
        wn = WeightedNorm(np.array([2.0, 4.0]))
        assert weighted_norm_sq(np.array([1.0, 1.0]), wn) == 6.0
        assert weighted_norm_sq(np.zeros(2), wn) == 0.0

    def test_weights_below_one_rejected(self):
        with pytest.raises(InvalidProblem):
            WeightedNorm(np.array([0.5]))


class TestWeightedLagrangian:
    def test_unit_probabilities_reduce_to_lagrangian(self):
        prob = free_two_row()
        part = build_partition(prob.z_set, prob.constraints, [[0, 1]])
        dist = derive_probabilities(part, [1.0])
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.normal(size=2)
            z = rng.normal(size=2)
            mu = rng.normal(size=2)
            assert weighted_lagrangian(prob, dist, x, z, mu) == \
                pytest.approx(lagrangian(prob, x, z, mu), abs=1e-12)

    def test_zero_multiplier_scales_objective(self):
        prob = free_two_row()
        part = build_partition(prob.z_set, prob.constraints, [[0], [1]])
        dist = derive_probabilities(part, [0.25, 0.75])
        x = np.array([2.0, 1.0])
        expect = (1.0 / 0.25) * 1.0 + (1.0 / 0.75) * 2.0
        assert weighted_lagrangian(prob, dist, x, np.zeros(2),
                                   np.zeros(2)) == pytest.approx(expect)

    def test_half_probabilities_double_everything(self):
        # with alpha = lambda = 1/2, every term carries weight 2
        prob = free_two_row()
        part = build_partition(prob.z_set, prob.constraints, [[0], [1]])
        dist = derive_probabilities(part, [0.5, 0.5])
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.normal(size=2)
            z = rng.normal(size=2)
            mu = rng.normal(size=2)
            assert weighted_lagrangian(prob, dist, x, z, mu) == \
                pytest.approx(2.0 * lagrangian(prob, x, z, mu), abs=1e-12)


class TestLyapunov:
    def setup_method(self):
        self.reform = boxed_cycle()
        self.prob = self.reform.problem
        self.dist = derive_probabilities(self.reform.partition,
                                         uniform_probs(self.reform.partition))
        self.ref = solve_reference(self.prob)
        self.wn = WeightedNorm.from_distribution(self.dist)

    def test_zero_at_reference(self):
        st = PrimalDualState(x=self.ref.x.copy(), z=self.ref.z.copy(),
                             p=self.ref.p.copy())
        assert lyapunov(self.prob, st, self.ref, self.wn) == 0.0

    def test_nonnegative_on_random_states(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            st = random_state_for(self.prob, rng)
            assert lyapunov(self.prob, st, self.ref, self.wn) >= 0.0

    def test_hand_computed_two_row_instance(self):
        prob = free_two_row()
        part = build_partition(prob.z_set, prob.constraints, [[0], [1]])
        dist = derive_probabilities(part, [0.5, 0.5])
        wn = WeightedNorm.from_distribution(dist)
        ref = ReferenceSolution(x=np.zeros(2), z=np.zeros(2), p=np.zeros(2))
        st = PrimalDualState(x=np.zeros(2), z=np.array([1.0, 2.0]),
                             p=np.array([3.0, 0.0]))
        # (1/2) * 2 * 9 + (1/2) * 2 * (1 + 4)
        assert lyapunov(prob, st, ref, wn) == pytest.approx(9.0 + 5.0)

    def test_missing_dual_reference(self):
        ref = ReferenceSolution(x=self.ref.x, z=self.ref.z, p=None)
        st = initial_state(self.prob)
        with pytest.raises(MissingReference):
            lyapunov(self.prob, st, ref, self.wn)

    @pytest.mark.parametrize("beta", [1.0, 0.3, 1.7])
    def test_value_is_the_recorded_arithmetic(self, beta):
        # 1/(2 beta) is inexact at 0.3 and 1.7, where dividing by 2 beta
        # and multiplying by its inverse can round apart
        reform = boxed_cycle(beta=beta)
        prob = reform.problem
        dist = derive_probabilities(reform.partition,
                                    [0.1, 0.2, 0.3, 0.15, 0.25])
        wn = WeightedNorm.from_distribution(dist)
        rng = np.random.default_rng(8)
        ref = ReferenceSolution(x=rng.normal(size=5), z=rng.normal(size=10),
                                p=rng.normal(size=10))
        for _ in range(50):
            st = random_state_for(prob, rng)
            want = plain_lyapunov(prob, dist, ref, st.z, st.p)
            assert_bits_equal(lyapunov(prob, st, ref, wn), want, "lyapunov")

    def test_conditional_drift_never_positive(self):
        rng = np.random.default_rng(4)
        worst = -np.inf
        for _ in range(25):
            st = random_state_for(self.prob, rng)
            worst = max(worst, lyapunov_drift(self.prob, st, self.reform.partition,
                                              self.dist, self.ref, self.wn))
        assert worst <= 1e-9


class TestEstimateRate:
    def test_one_over_t(self):
        t = np.arange(1, 2001, dtype=float)
        fit = estimate_rate(5.0 / t, t)
        assert fit.slope == pytest.approx(-1.0, abs=1e-6)

    def test_inverse_sqrt(self):
        t = np.arange(1, 2001, dtype=float)
        fit = estimate_rate(2.0 / np.sqrt(t), t)
        assert fit.slope == pytest.approx(-0.5, abs=1e-6)

    def test_matches_independent_fit(self):
        rng = np.random.default_rng(6)
        t = np.arange(10, 1000, dtype=float)
        vals = 3.0 / t * np.exp(rng.normal(scale=0.05, size=t.size))
        fit = estimate_rate(vals, t, window=(t[0], t[-1]))
        assert fit.slope == pytest.approx(loglog_slope(t, vals), abs=1e-9)

    def test_nonpositive_rejected(self):
        # the zero sits inside the default tail-half fit window
        with pytest.raises(NonPositiveSeries):
            estimate_rate(np.array([1.0, 2.0, 0.0, 1.0]))

    def test_default_window_is_tail_half(self):
        # first half garbage, tail exactly 1/t
        t = np.arange(1, 101, dtype=float)
        vals = np.where(t <= 50, 17.0, 1.0 / t)
        fit = estimate_rate(vals, t)
        assert fit.slope == pytest.approx(-1.0, abs=1e-6)


class TestRateConstants:
    def setup_method(self):
        self.reform = boxed_cycle()
        self.prob = self.reform.problem
        self.dist = derive_probabilities(self.reform.partition,
                                         uniform_probs(self.reform.partition))
        self.ref = solve_reference(self.prob)
        self.state0 = initial_state(self.prob,
                                    x0=np.array([1.0, 2.0, 3.0, 4.0, 5.0]))

    def test_degenerate_point_sets(self):
        # single-point boxes make -L~ constant, so Q(0) equals it exactly
        g = Graph(2, ((0, 1),))
        terms = (Quadratic(np.array([1.0])), Quadratic(np.array([2.0])))
        sets = (Box(np.array([1.5]), np.array([1.5])),
                Box(np.array([0.5]), np.array([0.5])))
        reform = build_reformulation(g, terms, sets, 1.0)
        dist = derive_probabilities(reform.partition, [1.0])
        x_pt = np.array([1.5, 0.5])
        q0 = q_value(reform.problem, dist, np.zeros(2), grid_resolution=11,
                     z_bound=3.0)
        expect = -weighted_lagrangian(reform.problem, dist, x_pt,
                                      np.zeros(2), np.zeros(2))
        assert q0 == pytest.approx(expect, abs=1e-12)

    def test_two_resolution_agreement(self):
        mu = self.ref.p
        coarse = q_value(self.prob, self.dist, mu, grid_resolution=101,
                         z_bound=10.0)
        fine = q_value(self.prob, self.dist, mu, grid_resolution=4001,
                       z_bound=10.0)
        from asyncadmm.diagnostics import _component_grids, _grid_gap_estimate
        gap = _grid_gap_estimate(self.prob, self.dist, mu,
                                 _component_grids(self.prob, 101, 2_000_000))
        assert fine >= coarse - 1e-9
        assert abs(fine - coarse) <= gap + 1e-9

    def test_grid_budget_guard(self):
        # a 2-dim component grid at high resolution blows the point budget
        g = Graph(2, ((0, 1),))
        terms = tuple(Quadratic(np.zeros(2)) for _ in range(2))
        sets = tuple(Box(-np.ones(2), np.ones(2)) for _ in range(2))
        reform = build_reformulation(g, terms, sets, 1.0)
        dist = derive_probabilities(reform.partition, [1.0])
        from asyncadmm.errors import GridTooLarge
        with pytest.raises(GridTooLarge):
            q_value(reform.problem, dist, np.zeros(4), grid_resolution=2001,
                    z_bound=2.0, point_budget=1_000_000)

    def test_noncompact_rejected(self):
        free = boxed_cycle()
        prob2 = build_reformulation(Graph.cycle(3),
                                    tuple(Quadratic(np.array([float(i)]))
                                          for i in range(3)),
                                    tuple(Free(1) for _ in range(3)), 1.0)
        dist = derive_probabilities(prob2.partition, uniform_probs(prob2.partition))
        ref = solve_reference(prob2.problem)
        st = initial_state(prob2.problem)
        with pytest.raises(NonCompactSets):
            compute_rate_constants(prob2.problem, dist, ref, st,
                                   grid_resolution=51, z_bound=5.0)
        with pytest.raises(NonCompactSets):
            q_value(self.prob, self.dist, self.ref.p, grid_resolution=51,
                    z_bound=None)

    def test_qbar_dominates_sampled_directions(self):
        rc = compute_rate_constants(self.prob, self.dist, self.ref,
                                    self.state0, grid_resolution=201,
                                    z_bound=10.0, num_directions=16)
        rng = np.random.default_rng(7)
        # every sampled direction from the same generator stays below q_bar
        assert rc.q_bar >= rc.q_at_pstar
        for _ in range(8):
            u = rng.normal(size=self.prob.dim_z)
            u /= np.linalg.norm(u)
            q_u = q_value(self.prob, self.dist, self.ref.p - u,
                          grid_resolution=201, z_bound=10.0)
            # fresh directions may beat the sampled max slightly, but the
            # sampled max must dominate its own sample set and sit nearby
            assert q_u <= rc.q_bar + 0.35 * abs(rc.q_bar)

    def test_bound_is_positive_and_assembled(self):
        rc = compute_rate_constants(self.prob, self.dist, self.ref,
                                    self.state0, grid_resolution=201,
                                    z_bound=10.0, num_directions=16)
        assert rc.feasibility_bound == pytest.approx(
            rc.q_bar + rc.l0_tilde + rc.norm_term_theta + rc.norm_term_z)
        assert rc.feasibility_bound > 0


class TestSolveReference:
    def test_quadratic_cycle_reference(self):
        reform = boxed_cycle()
        ref = solve_reference(reform.problem)
        np.testing.assert_allclose(ref.x, 3.0, atol=1e-8)
        assert np.linalg.norm(residual(reform.problem, ref.x, ref.z)) <= 1e-8
        assert ref.source == "long-run"

    def test_reference_validates_feasibility(self):
        reform = boxed_cycle()
        with pytest.raises(InvalidProblem):
            ReferenceSolution(x=np.ones(5) * 7, z=np.zeros(10), p=None,
                              prob=reform.problem)


RC_FIELDS = ("q_at_pstar", "q_bar", "theta_bar", "l0_tilde",
             "norm_term_theta", "norm_term_z", "grid_gap")


def constants_outcome(fn, *args, **kwargs):
    """The rate constants, or the type and message of the first error."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # the error raised first is part of the result
        return type(exc), str(exc)


def assert_same_constants(*args, **kwargs):
    """The stacked rate constants equal the direction loop's bit for bit,
    or raise its first error."""
    got = constants_outcome(compute_rate_constants, *args, **kwargs)
    want = constants_outcome(reference_rate_constants, *args, **kwargs)
    if isinstance(want, tuple):
        assert got == want
        return want
    for name in RC_FIELDS:
        assert_bits_equal(getattr(got, name), getattr(want, name), name)
    assert got.z_bound == want.z_bound
    assert got.num_directions == want.num_directions
    return got


def directions(prob, num_directions, extra=1):
    """How many multipliers the constants evaluate: p*, the zero
    direction, the sampled ones, +-e_l and the extra ones."""
    return 2 + num_directions + 2 * prob.dim_z + extra


class TestStackedRateConstants:
    def test_acceptance_3_problem_with_its_extra_direction(self):
        bench = generate_benchmark(
            BenchmarkSpec("consensus-quadratic", a=[1.0, 2.0, 3.0, 4.0, 5.0]),
            Graph.cycle(5), beta=1.0)
        prob, part = bench.problem, bench.reform.partition
        dist = derive_probabilities(part, uniform_probs(part))
        x0 = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        z0 = edge_initial_state(bench.reform, x0).z
        # the realized mean-residual direction, from a shorter run
        runs = run_batch(prob, part, dist, seeds=range(20), T=1_000,
                         probes=ProbeFlags(ergodic=True),
                         ref=bench.reference_solution, x0=x0, z0=z0,
                         stride=100)
        mean_res = residual(prob, np.mean([m.x_bar for m in runs], axis=0),
                            np.mean([m.z_bar for m in runs], axis=0))
        rc = assert_same_constants(
            prob, dist, solve_reference(prob), initial_state(prob, x0, z0),
            grid_resolution=1001, z_bound=12.0, num_directions=64,
            extra_directions=(mean_res,))
        assert rc.num_directions == 86

    def test_several_passes_on_a_boxed_two_dimensional_problem(self):
        g = Graph.cycle(4)
        rng = np.random.default_rng(9)
        terms = tuple(Quadratic(rng.normal(size=2)) for _ in range(4))
        sets = tuple(Box(-2.0 * np.ones(2), np.array([1.5, 2.5]))
                     for _ in range(4))
        reform = build_reformulation(g, terms, sets, 1.0)
        prob = reform.problem
        dist = derive_probabilities(reform.partition,
                                    uniform_probs(reform.partition))
        ref = solve_reference(prob)
        state0 = initial_state(prob, rng.uniform(-2.0, 1.5, prob.dim_x))
        extra = (rng.normal(size=prob.dim_z) * 3.0,
                 rng.normal(size=prob.dim_z) * 0.1)
        budget = 2_000
        # 21 x 21 grid points per component and 4 directions per pass
        assert directions(prob, 16, extra=2) * 21 ** 2 > budget
        assert_same_constants(prob, dist, ref, state0, grid_resolution=21,
                              z_bound=4.0, num_directions=16,
                              extra_directions=extra, point_budget=budget)

    def test_unpaired_z_rows(self):
        # 12 pairs and the other rows unpaired: both sums have more terms
        # than numpy's unrolled block of 8, so a pairwise sum of the pair
        # terms, or of a column-major gather, would round apart
        rng = np.random.default_rng(10)
        cs = random_constraints(rng, 1, 4, hub_rows=30)
        prob = SeparableProblem(
            terms=(Quadratic(np.array([0.5])), AbsDev(np.array([-1.0])),
                   L1(0.7, dim=1), Quadratic(np.array([2.0]), weight=3.0)),
            x_sets=tuple(Box(np.array([-3.0]), np.array([2.0]))
                         for _ in range(4)),
            z_set=SumZeroPairs(cs.W, rng.permutation(cs.W)[:24]
                               .reshape(-1, 2)),
            constraints=cs, beta=1.0)
        assert cs.W - 24 > 8
        part = random_partition(rng, prob)
        dist = derive_probabilities(part, uniform_probs(part))
        ref = ReferenceSolution(x=rng.normal(size=4), z=rng.normal(size=cs.W),
                                p=rng.normal(size=cs.W))
        state0 = PrimalDualState(x=rng.normal(size=4),
                                 z=rng.normal(size=cs.W),
                                 p=rng.normal(size=cs.W))
        assert_same_constants(prob, dist, ref, state0, grid_resolution=101,
                              z_bound=3.0, num_directions=24)

    def test_beta_and_nonuniform_block_probabilities(self):
        # 12 z pairs: more pair terms than numpy's unrolled block of 8, so
        # a pairwise sum of them would round apart from the loop's
        a = np.linspace(-3.0, 4.0, 12)
        reform = boxed_cycle(a=a, beta=0.3)
        prob = reform.problem
        dist = derive_probabilities(reform.partition, np.arange(1, 13) / 78)
        ref = solve_reference(prob)
        state0 = initial_state(prob, x0=a[::-1].copy())
        # a NaN direction never wins a maximum; an infinite one is scaled
        # to NaN and zeros, which both sides warn of as an invalid divide
        extra = (np.ones(24), -np.ones(24), np.full(24, np.nan),
                 np.r_[np.inf, np.zeros(23)])
        with np.errstate(invalid="ignore"):
            got = assert_same_constants(
                prob, dist, ref, state0, grid_resolution=201, z_bound=10.0,
                num_directions=32, direction_seed=5, extra_directions=extra)
        assert not isinstance(got, tuple), got

    @pytest.mark.parametrize("z_bound", [0.0, -0.0, 3.0])
    @pytest.mark.parametrize("n, budget", [(1, 500), (2, 2_000_000)])
    def test_every_row_is_the_loops_q(self, n, budget, z_bound):
        """The constants read two rows of the stack; here every row equals
        ``reference_q`` at its multiplier (in several passes for n = 1,
        in one for n = 2, where a matrix product over all rows would
        round apart from the loop's matrix-vector products). With a zero
        z bound, Q is the component maxima alone (a -0.0 bound makes
        -0.0 pair terms, which the loop adds to +0.0)."""
        rng = np.random.default_rng(12)
        cs = random_constraints(rng, n, 4, hub_rows=30)
        prob = SeparableProblem(
            terms=(Quadratic(np.full(n, 0.5)), AbsDev(-np.ones(n)),
                   L1(0.7, dim=n), Quadratic(np.full(n, 2.0), weight=3.0)),
            x_sets=tuple(Box(-2.9 * np.ones(n), 2.3 * np.ones(n))
                         for _ in range(4)),
            z_set=SumZeroPairs(cs.W, rng.permutation(cs.W)[:24]
                               .reshape(-1, 2)),
            constraints=cs, beta=0.7)
        part = random_partition(rng, prob)
        probs = rng.uniform(0.5, 2.0, len(part.blocks))
        dist = derive_probabilities(part, probs / probs.sum())
        mus = rng.normal(size=(40, cs.W)) * 2.0
        grids = _component_grids(prob, 23, budget)
        got = _q_stack(prob, dist, mus, grids, z_bound, budget)
        for mu, q in zip(mus, got):
            want = reference_q(prob, dist, mu, grids, z_bound)
            assert_bits_equal(q, want, "q")

    def test_error_cases_raise_the_loops_first_error(self):
        reform = boxed_cycle()
        prob = reform.problem
        dist = derive_probabilities(reform.partition,
                                    uniform_probs(reform.partition))
        ref = solve_reference(prob)
        state0 = initial_state(prob)
        no_dual = ReferenceSolution(x=ref.x, z=ref.z, p=None)
        for ref_, kwargs in ((no_dual, dict(z_bound=1.0)),
                             (ref, dict(z_bound=None)),
                             (ref, dict(z_bound=-1.0)),
                             (ref, dict(z_bound=1.0, grid_resolution=1)),
                             (ref, dict(z_bound=None, point_budget=10))):
            assert isinstance(assert_same_constants(prob, dist, ref_, state0,
                                                    **kwargs), tuple)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([1, 2]),
           N=st.integers(1, 5), hub_rows=st.sampled_from([0, 9]),
           pairs=st.booleans(), free_set=st.sampled_from([False] * 5 + [True]),
           resolution=st.sampled_from([2, 3, 11, 40]),
           budget=st.sampled_from([40, 400, 2_000_000]),
           num_directions=st.integers(0, 12),
           z_bound=st.sampled_from([None, -1.0, 0.0, 2.5, 2.5, 2.5, 7.0]))
    def test_random_problems(self, seed, n, N, hub_rows, pairs, free_set,
                             resolution, budget, num_directions, z_bound):
        rng = np.random.default_rng(seed)
        cs = random_constraints(rng, n, N, hub_rows)
        kinds = rng.integers(0, 3, size=N)
        terms = tuple((Quadratic(rng.normal(size=n), weight=2.0),
                       AbsDev(rng.normal(size=n)), L1(0.5, dim=n))[k]
                      for k in kinds)
        sets = [Box(rng.uniform(-3.0, 0.0, n), rng.uniform(0.0, 3.0, n))
                for _ in range(N)]
        if free_set:
            sets[-1] = Free(n)
        z_set = Free(cs.W)
        if pairs and cs.W > 1:
            pairs = rng.permutation(cs.W)[:cs.W // 2 * 2].reshape(-1, 2)
            z_set = SumZeroPairs(cs.W, pairs[:rng.integers(1, cs.W // 2 + 1)])
        prob = SeparableProblem(terms=terms, x_sets=tuple(sets), z_set=z_set,
                                constraints=cs,
                                beta=float(rng.uniform(0.3, 2.0)))
        part = random_partition(rng, prob) if cs.W > 1 else None
        if part is None:
            part = build_partition(z_set, cs, [[0]])
        probs = rng.uniform(0.5, 2.0, len(part.blocks))
        dist = derive_probabilities(part, probs / probs.sum())
        ref = ReferenceSolution(x=rng.normal(size=prob.dim_x),
                                z=rng.normal(size=cs.W),
                                p=rng.normal(size=cs.W))
        state0 = PrimalDualState(x=rng.normal(size=prob.dim_x),
                                 z=rng.normal(size=cs.W),
                                 p=rng.normal(size=cs.W))
        extra = [rng.normal(size=cs.W) * s for s in (0.0, 0.2, 5.0)]
        assert_same_constants(prob, dist, ref, state0,
                              grid_resolution=resolution, z_bound=z_bound,
                              num_directions=num_directions,
                              direction_seed=seed, extra_directions=extra,
                              point_budget=budget)


def test_q_value_is_the_one_direction_case():
    reform = boxed_cycle(beta=0.3)
    prob = reform.problem
    dist = derive_probabilities(reform.partition, [0.1, 0.2, 0.3, 0.15, 0.25])
    grids = _component_grids(prob, 101, 2_000_000)
    rng = np.random.default_rng(11)
    for _ in range(10):
        mu = rng.normal(size=10) * 3.0
        assert_bits_equal(q_value(prob, dist, mu, grid_resolution=101,
                                  z_bound=5.0),
                          reference_q(prob, dist, mu, grids, 5.0), "q")


# ---------------------------------------------------------------------------
# Grid values from the problem's term arrays
# ---------------------------------------------------------------------------

def grid_problem(kinds, n, seed):
    """One component per kind, each with its own box (one of them a single
    point along its first axis), and a random coupling."""
    rng = np.random.default_rng(seed)
    N = len(kinds)
    cs = random_constraints(rng, n, N)
    terms = tuple(make_term(k, n, rng) for k in kinds)
    lo = rng.uniform(-3.0, 0.0, (N, n))
    hi = rng.uniform(0.0, 3.0, (N, n))
    hi[-1, 0] = lo[-1, 0]
    sets = tuple(Box(a, b) for a, b in zip(lo, hi))
    return SeparableProblem(terms=terms, x_sets=sets, z_set=Free(cs.W),
                            constraints=cs, beta=1.0)


GRID_KINDS = {"quadratic": ["quadratic"] * 3, "absdev": ["absdev"] * 3,
              "l1": ["l1", "l1-zero", "l1"],
              "mixed": ["absdev", "quadratic", "l1", "custom", "quadratic"]}


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("name", GRID_KINDS)
def test_grid_values_equal_the_term_value_loop(name, n):
    kinds = GRID_KINDS[name]
    if n > 1 and "custom" in kinds:
        kinds = [k for k in kinds if k != "custom"]
    for seed in range(4):
        prob = grid_problem(kinds, n, seed)
        resolution = 41 if n == 1 else 17
        got = _component_grids(prob, resolution, 2_000_000)
        want = reference_component_grids(prob, resolution, 2_000_000)
        assert len(got) == len(want)
        for (axes, pts, values), (w_axes, w_pts, w_values) in zip(got, want):
            for a, w in zip(axes, w_axes):
                assert_bits_equal(a, w, "axis")
            assert_bits_equal(pts, w_pts, "points")
            assert_bits_equal(values, w_values, "values")
        mu = np.random.default_rng(seed).normal(size=prob.dim_z)
        dist = derive_probabilities(build_partition(
            prob.z_set, prob.constraints, [list(range(prob.dim_z))]), [1.0])
        assert_bits_equal(_grid_gap_estimate(prob, dist, mu, got),
                          reference_grid_gap(prob, dist, mu, want), "gap")
        # the weighted Lagrangian's objective part: one value per component
        x = np.random.default_rng(seed).uniform(-2.0, 2.0, prob.dim_x)
        want_sum = sum(term_value(t, prob.component(x, i)) / dist.alpha[i]
                       for i, t in enumerate(prob.terms))
        assert_bits_equal(_weighted_parts(prob, dist, x,
                                          np.zeros(prob.dim_z))[0],
                          want_sum, "weighted objective")


@pytest.mark.parametrize("free_at, resolution, budget", [
    (0, 1, 100), (0, 5, 100), (2, 1, 100), (2, 11, 100), (2, 5, 100),
    (None, 1, 100), (None, 11, 100)])
def test_grid_errors_are_the_loops(free_at, resolution, budget):
    prob = grid_problem(["quadratic"] * 4, 2, 0)
    if free_at is not None:
        sets = list(prob.x_sets)
        sets[free_at] = Free(2)
        prob = SeparableProblem(terms=prob.terms, x_sets=tuple(sets),
                                z_set=prob.z_set,
                                constraints=prob.constraints, beta=1.0)

    def error(fn):
        try:
            fn(prob, resolution, budget)
        except (NonCompactSets, GridTooLarge) as exc:
            return type(exc), str(exc)
        return None

    assert error(_component_grids) == error(reference_component_grids)
    assert error(_component_grids) is not None
