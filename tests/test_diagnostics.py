import numpy as np
import pytest

from asyncadmm import (AbsDev, Box, ConstraintSystem, Free,
                       Graph, PrimalDualState, Quadratic, ReferenceSolution,
                       SeparableProblem, WeightedNorm, build_partition,
                       build_reformulation, compute_rate_constants,
                       derive_probabilities, estimate_rate, initial_state,
                       lagrangian, lyapunov, q_value, residual,
                       solve_reference, uniform_probs, weighted_lagrangian,
                       weighted_norm_sq)
from asyncadmm.diagnostics import lyapunov_drift
from asyncadmm.errors import (InvalidProblem, MissingReference, NonCompactSets,
                              NonPositiveSeries)

from conftest import random_state_for
from oracles import loglog_slope


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
