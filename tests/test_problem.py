import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncadmm import (AbsDev, Box, ConstraintSystem, Custom, Free, L1,
                       PrimalDualState, Quadratic, SeparableProblem,
                       SumZeroPairs, initial_state, lagrangian, objective,
                       residual, term_value, validate_constraints)
from asyncadmm.errors import DimensionMismatch, InvalidProblem, UnsupportedSet


def make_problem(terms, h=(-1.0, -1.0), z_set=None):
    n = len(terms)
    cs = ConstraintSystem(n=1, N=n, W=n,
                          entries=tuple((i, i, 1.0) for i in range(n)),
                          h_diag=np.asarray(h, dtype=float))
    return SeparableProblem(terms=tuple(terms),
                            x_sets=tuple(Free(1) for _ in terms),
                            z_set=z_set or Free(n), constraints=cs, beta=1.0)


class TestTerms:
    def test_quadratic_requires_positive_weight(self):
        with pytest.raises(InvalidProblem):
            Quadratic(np.array([0.0]), weight=0.0)

    def test_l1_requires_nonnegative_gamma(self):
        with pytest.raises(InvalidProblem):
            L1(gamma=-0.5)

    def test_values(self):
        assert term_value(Quadratic(np.array([1.0, 2.0]), 2.0),
                          [2.0, 0.0]) == pytest.approx(2 * (1 + 4))
        assert term_value(AbsDev(np.array([1.0, -1.0])), [0.0, 0.0]) == 2.0
        assert term_value(L1(0.5, dim=2), [2.0, -2.0]) == 2.0
        cust = Custom(fn=lambda u: float(u[0] ** 4), dim=1, scalar_convex=True)
        assert term_value(cust, [2.0]) == 16.0

    def test_dimension_checked(self):
        with pytest.raises(InvalidProblem):
            term_value(L1(1.0, dim=2), [1.0])


class TestFeasibleSets:
    def test_box_ordering(self):
        with pytest.raises(InvalidProblem):
            Box(np.array([1.0]), np.array([0.0]))

    def test_box_project(self):
        b = Box(np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
        np.testing.assert_allclose(b.project(np.array([-4.0, 5.0])), [-1.0, 2.0])

    def test_sum_zero_pairs_disjoint(self):
        with pytest.raises(InvalidProblem):
            SumZeroPairs(dim=4, pairs=((0, 1), (1, 2)))
        with pytest.raises(InvalidProblem):
            SumZeroPairs(dim=2, pairs=((0, 5),))

    def test_sum_zero_project(self):
        s = SumZeroPairs(dim=4, pairs=((0, 1),))
        out = s.project(np.array([3.0, 1.0, 7.0, 8.0]))
        np.testing.assert_allclose(out, [1.0, -1.0, 7.0, 8.0])
        assert s.contains(out, tol=0.0)


def project_pairs_one_by_one(pairs, u):
    out = np.asarray(u, dtype=float).copy()
    for i, j in pairs:
        with np.errstate(over="ignore"):
            m = 0.5 * (out[i] - out[j])
        if np.isinf(m) and np.isfinite(out[i]) and np.isfinite(out[j]):
            # past the float range: the exact half-difference, rounded once
            m = float((Fraction(out[i]) - Fraction(out[j])) / 2)
        out[i], out[j] = m, -m
    return out


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dim=st.integers(0, 40))
def test_sum_zero_project_equals_pair_loop(data, dim):
    order = data.draw(st.permutations(range(dim)))
    npairs = data.draw(st.integers(0, dim // 2))
    pairs = tuple((order[2 * t], order[2 * t + 1]) for t in range(npairs))
    u = data.draw(st.lists(
        st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -1.0])
        | st.floats(allow_nan=True, allow_infinity=True, width=64),
        min_size=dim, max_size=dim))
    with np.errstate(invalid="ignore"):
        got = SumZeroPairs(dim=dim, pairs=pairs).project(np.array(u))
        want = project_pairs_one_by_one(pairs, u)
    # equal bytes: signs of zero and NaNs included
    assert got.tobytes() == want.tobytes()


def test_sum_zero_project_of_a_pair_past_the_float_range():
    """A pair whose difference passes the float range projects to its
    finite half-difference, rounded once, without a warning."""
    a, b = -1.7976931348623157e+308, 9.9792015476736e+291
    u = np.zeros(19)
    u[12], u[18] = a, b
    got = SumZeroPairs(dim=19, pairs=((0, 1), (12, 18))).project(u)
    half = float((Fraction(a) - Fraction(b)) / 2)
    assert np.isfinite(half) and half < -8.9e307
    assert got[12] == half and got[18] == -half


class TestInitialState:
    def test_stacked_clip_equals_per_component_projection(self):
        rng = np.random.default_rng(8)
        n, N = 2, 9
        sets = []
        for i in range(N):
            if i % 3 == 0:
                sets.append(Free(n))
            elif i % 3 == 1:
                lo = rng.uniform(-1.0, 0.0, n)
                sets.append(Box(lo, lo + rng.uniform(0.0, 1.0, n)))
            else:
                sets.append(Box(np.array([-np.inf, 0.5]),
                                np.array([0.25, np.inf])))
        cs = ConstraintSystem(n=n, N=N, W=n * N,
                              entries=tuple((i * n + t, i, t, 1.0)
                                            for i in range(N)
                                            for t in range(n)),
                              h_diag=-np.ones(n * N))
        prob = SeparableProblem(
            terms=tuple(Quadratic(np.zeros(n)) for _ in range(N)),
            x_sets=tuple(sets), z_set=Free(n * N), constraints=cs, beta=1.0)
        x0 = rng.normal(size=n * N) * 3.0
        x0[0] = -0.0
        want = np.concatenate([sets[i].project(x0[i * n:(i + 1) * n])
                               for i in range(N)])
        got = initial_state(prob, x0).x
        np.testing.assert_array_equal(got, want)
        assert np.signbit(got[0])
        assert got is not x0

    def test_benchmark_start_equals_per_term_centers(self):
        from asyncadmm.runner import _benchmark_start
        n = 2
        terms = (Quadratic(np.array([1.0, -2.0]), 3.0),
                 AbsDev(np.array([0.5, 4.0])), L1(gamma=0.7, dim=n),
                 Custom(fn=lambda u: float(np.sum(u ** 2)), dim=n),
                 Quadratic(np.array([-1.5, 2.5])))
        N = len(terms)
        cs = ConstraintSystem(n=n, N=N, W=n * N,
                              entries=tuple((i * n + t, i, t, 1.0)
                                            for i in range(N)
                                            for t in range(n)),
                              h_diag=-np.ones(n * N))
        prob = SeparableProblem(terms=terms,
                                x_sets=tuple(Free(n) for _ in terms),
                                z_set=Free(n * N), constraints=cs, beta=1.0)
        want = np.concatenate([getattr(t, "center", np.zeros(n))
                               for t in terms])
        np.testing.assert_array_equal(_benchmark_start(prob), want)


class TestValidateConstraints:
    def test_clean_system_valid(self):
        cs = ConstraintSystem(n=1, N=2, W=2,
                              entries=((0, 0, 1.0), (1, 1, -1.0)),
                              h_diag=np.array([-1.0, -1.0]))
        report = validate_constraints(cs)
        assert report.ok
        assert cs.is_valid

    @pytest.mark.parametrize("n,N,W,what", [
        (2 ** 62, 2, 2, "n * N"), (2, 2 ** 62, 2, "n * N"),
        (1, 2, 2 ** 63, "W")])
    def test_sizes_past_an_index_refused(self, n, N, W, what):
        # n = 2**62 was an OverflowError from the column index before
        entries = ((0, 0, 1.0), (1, 1, 1.0))
        with pytest.raises(InvalidProblem, match=rf"^{re.escape(what)} = \d+ is more"):
            ConstraintSystem(n=n, N=N, W=W, entries=entries,
                             h_diag=np.array([-1.0, -1.0]))
        with pytest.raises(InvalidProblem, match=rf"^{re.escape(what)} = "):
            ConstraintSystem.from_arrays(n, N, W, [0, 1], [0, 1], [0, 0],
                                         [1.0, 1.0], [-1.0, -1.0])

    def test_zero_h_diagonal_reported(self):
        cs = ConstraintSystem(n=1, N=2, W=2,
                              entries=((0, 0, 1.0), (1, 1, 1.0)),
                              h_diag=np.array([1.0, 0.0]))
        report = validate_constraints(cs)
        assert not report.ok
        assert any("H not invertible" in v for v in report.violations)

    def test_row_with_two_blocks_reported(self):
        cs = ConstraintSystem(n=1, N=2, W=1,
                              entries=((0, 0, 1.0), (0, 1, 1.0)),
                              h_diag=np.array([1.0]))
        report = validate_constraints(cs)
        assert any("couples two components" in v for v in report.violations)

    def test_empty_row_and_uncovered_block_reported(self):
        cs = ConstraintSystem(n=1, N=2, W=2,
                              entries=((0, 0, 1.0),),
                              h_diag=np.array([1.0, 1.0]))
        report = validate_constraints(cs)
        assert any("no entry" in v for v in report.violations)
        assert any("zero column-block" in v for v in report.violations)

    def test_box_z_set_rejected_by_problem(self):
        # neither the block kernel nor the reference solve reads z bounds,
        # so a box z set used to run as if it were free
        cs = ConstraintSystem(n=1, N=2, W=2,
                              entries=((0, 0, 1.0), (1, 1, 1.0)),
                              h_diag=np.array([-1.0, -1.0]))
        with pytest.raises(UnsupportedSet, match="box z set"):
            SeparableProblem(terms=(Quadratic(np.array([5.0])),) * 2,
                             x_sets=(Free(1),) * 2,
                             z_set=Box(np.zeros(2), np.ones(2)),
                             constraints=cs, beta=1.0)

    def test_pair_x_set_rejected_by_problem(self):
        # the kernels read x sets as bounds only, so a pair set ran as if
        # it were free: each pair ended summing to 2, not 0
        cs = ConstraintSystem(n=2, N=2, W=2,
                              entries=((0, 0, 0, 1.0), (1, 1, 0, 1.0)),
                              h_diag=np.array([-1.0, -1.0]))
        with pytest.raises(UnsupportedSet,
                           match="x_set 1 of kind SumZeroPairs"):
            SeparableProblem(terms=(Quadratic(np.ones(2)),) * 2,
                             x_sets=(Free(2), SumZeroPairs(2, ((0, 1),))),
                             z_set=Free(2), constraints=cs, beta=1.0)

    def test_invalid_system_rejected_by_problem(self):
        cs = ConstraintSystem(n=1, N=1, W=1, entries=((0, 0, 0.0),),
                              h_diag=np.array([1.0]))
        with pytest.raises(InvalidProblem):
            SeparableProblem(terms=(Quadratic(np.array([0.0])),),
                             x_sets=(Free(1),), z_set=Free(1),
                             constraints=cs, beta=1.0)


class TestObjective:
    def test_quadratic_at_minimum(self):
        prob = make_problem([Quadratic(np.array([1.0])),
                             Quadratic(np.array([1.0]))])
        assert objective(prob, np.array([1.0, 1.0])) == 0.0

    def test_quadratic_off_minimum(self):
        prob = make_problem([Quadratic(np.array([1.0])),
                             Quadratic(np.array([1.0]))])
        assert objective(prob, np.array([0.0, 2.0])) == pytest.approx(2.0)

    def test_lad_terms_match_brute_force(self):
        # oracle: direct evaluation of |2-1| + |2-2| + |2-3|
        a = (1.0, 2.0, 3.0)
        x = np.array([2.0, 2.0, 2.0])
        brute = sum(abs(xi - ai) for xi, ai in zip(x, a))
        prob = make_problem([AbsDev(np.array([ai])) for ai in a],
                            h=(-1.0,) * 3)
        assert objective(prob, x) == pytest.approx(brute)
        assert brute == 2.0

    def test_dimension_mismatch(self):
        prob = make_problem([Quadratic(np.array([1.0]))], h=(-1.0,))
        with pytest.raises(DimensionMismatch):
            objective(prob, np.zeros(3))


class TestResidual:
    def test_identity_case(self):
        prob = make_problem([Quadratic(np.array([1.0])),
                             Quadratic(np.array([2.0]))])
        r = residual(prob, np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        np.testing.assert_allclose(r, [0.0, 0.0])

    def test_direct_substitution(self):
        prob = make_problem([Quadratic(np.array([1.0])),
                             Quadratic(np.array([2.0]))])
        r = residual(prob, np.array([1.0, 2.0]), np.array([0.0, 0.0]))
        np.testing.assert_allclose(r, [1.0, 2.0])

    def test_matches_dense_matrices(self):
        rng = np.random.default_rng(11)
        cs = ConstraintSystem(n=2, N=3, W=4,
                              entries=((0, 0, 0, 2.0), (1, 1, 1, -1.5),
                                       (2, 2, 0, 1.0), (3, 0, 1, 3.0)),
                              h_diag=np.array([2.0, -1.0, 0.5, 1.0]))
        terms = tuple(Quadratic(np.zeros(2)) for _ in range(3))
        prob = SeparableProblem(terms=terms, x_sets=(Free(2),) * 3,
                                z_set=Free(4), constraints=cs, beta=1.0)
        for _ in range(20):
            x = rng.normal(size=6)
            z = rng.normal(size=4)
            dense = cs.dense_d() @ x + np.diag(cs.h_diag) @ z
            np.testing.assert_allclose(residual(prob, x, z), dense, atol=1e-14)


class TestLagrangian:
    def test_zero_multiplier(self):
        prob = make_problem([Quadratic(np.array([1.0])),
                             Quadratic(np.array([1.0]))])
        x = np.array([0.5, 2.0])
        z = np.array([9.0, -3.0])
        assert lagrangian(prob, x, z, np.zeros(2)) == objective(prob, x)

    def test_feasible_point_any_multiplier(self):
        prob = make_problem([Quadratic(np.array([1.0])),
                             Quadratic(np.array([1.0]))])
        x = np.array([0.5, 2.0])
        z = x.copy()  # D x + H z = x - z = 0
        for p in ([1.0, -1.0], [10.0, 3.0]):
            assert lagrangian(prob, x, z, np.array(p)) == \
                pytest.approx(objective(prob, x))

    def test_direct_substitution(self):
        # F(x) = 2 with residual (1, 0) and p = (3, 5) gives 2 - 3 = -1
        prob = make_problem([Quadratic(np.array([1.0])),
                             Quadratic(np.array([1.0]))])
        x = np.array([0.0, 2.0])          # F = 2
        z = np.array([-1.0, 2.0])         # residual = x - z = (1, 0)
        np.testing.assert_allclose(residual(prob, x, z), [1.0, 0.0])
        assert lagrangian(prob, x, z, np.array([3.0, 5.0])) == pytest.approx(-1.0)

    def test_identity_on_random_inputs(self):
        rng = np.random.default_rng(5)
        prob = make_problem([AbsDev(np.array([0.5])), L1(0.7, dim=1),
                             Quadratic(np.array([-2.0]), 1.5)], h=(2.0, -3.0, 0.5))
        for _ in range(50):
            x = rng.normal(size=3)
            z = rng.normal(size=3)
            p = rng.normal(size=3)
            expect = objective(prob, x) - float(p @ residual(prob, x, z))
            assert lagrangian(prob, x, z, p) == pytest.approx(expect, abs=1e-12)


class TestState:
    def test_initial_state_projects(self):
        cs = ConstraintSystem(n=1, N=2, W=2,
                              entries=((0, 0, 1.0), (1, 1, 1.0)),
                              h_diag=np.array([-1.0, -1.0]))
        prob = SeparableProblem(
            terms=(Quadratic(np.array([0.0])), Quadratic(np.array([0.0]))),
            x_sets=(Box(np.array([2.0]), np.array([3.0])), Free(1)),
            z_set=SumZeroPairs(dim=2, pairs=((0, 1),)),
            constraints=cs, beta=1.0)
        st = initial_state(prob, x0=np.array([0.0, 5.0]),
                           z0=np.array([2.0, 4.0]))
        np.testing.assert_allclose(st.x, [2.0, 5.0])
        np.testing.assert_allclose(st.z, [-1.0, 1.0])
        np.testing.assert_allclose(st.p, [0.0, 0.0])
        assert st.k == 0

    def test_copy_is_deep(self):
        st = PrimalDualState(np.zeros(2), np.zeros(2), np.zeros(2))
        c = st.copy()
        c.x[0] = 5.0
        assert st.x[0] == 0.0
