import numpy as np
import pytest

from asyncadmm import (AbsDev, Box, Custom, Free, L1, LocalSubproblem,
                       Quadratic, bisect_convex, solve_local, term_value)
from asyncadmm.errors import (InvalidProblem, NonfiniteInput,
                              UnboundedSubproblem, UnsupportedTerm)

from oracles import grid_min_free, grid_min_pair, scalar_subgrad_bisect
from reference import plain_prox, solve_z_prepared
from test_fullpass import make_set, make_term, outcome, random_vector


def local(term, q, l, fset=None):
    return LocalSubproblem(term=term, quad_diag=np.atleast_1d(np.asarray(q, float)),
                           linear=np.atleast_1d(np.asarray(l, float)),
                           set=fset or Free(term.dim))


def sub_objective(sub, u):
    u = np.atleast_1d(np.asarray(u, dtype=float))
    return (term_value(sub.term, u) + 0.5 * float(u @ (sub.quad_diag * u))
            - float(sub.linear @ u))


class TestSolveLocalClosedForms:
    def test_quadratic_stationarity(self):
        # 2(u - 1) + u = 0 at u = 2/3
        u = solve_local(local(Quadratic(np.array([1.0])), 1.0, 0.0))
        np.testing.assert_allclose(u, [2.0 / 3.0])

    def test_l1_soft_threshold(self):
        u = solve_local(local(L1(1.0, dim=1), 2.0, 3.0))
        np.testing.assert_allclose(u, [1.0])  # sign(3) * max(3 - 1, 0) / 2

    def test_absdev_stays_at_kink(self):
        # oracle confirms 0 is a minimizer of |u| + u^2/2 - 0.4 u
        expect = scalar_subgrad_bisect([("kink", 0.0, 1.0)], 1.0, 0.4)
        assert expect == pytest.approx(0.0, abs=1e-10)
        u = solve_local(local(AbsDev(np.array([0.0])), 1.0, 0.4))
        np.testing.assert_allclose(u, [0.0], atol=1e-12)

    def test_box_clamps(self):
        u = solve_local(local(Quadratic(np.array([5.0])), 1.0, 0.0,
                              Box(np.array([-1.0]), np.array([1.0]))))
        np.testing.assert_allclose(u, [1.0])

    def test_multicoordinate_separates(self):
        term = Quadratic(np.array([1.0, -2.0]), 2.0)
        u = solve_local(local(term, [1.0, 3.0], [0.5, -0.5]))
        # per coordinate: (2 w a + l) / (2 w + q)
        np.testing.assert_allclose(u, [(4.0 + 0.5) / 5.0, (-8.0 - 0.5) / 7.0])

    def test_custom_bisection(self):
        cust = Custom(fn=lambda v: float(v[0] ** 4), dim=1, scalar_convex=True)
        u = solve_local(local(cust, 0.5, 1.0,
                              Box(np.array([-5.0]), np.array([5.0]))))
        # stationarity 4u^3 + 0.5u - 1 = 0, root found by direct bisection
        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if 4 * mid ** 3 + 0.5 * mid - 1 < 0:
                lo = mid
            else:
                hi = mid
        np.testing.assert_allclose(u, [0.5 * (lo + hi)], atol=1e-7)

    def test_vector_custom_rejected(self):
        cust = Custom(fn=lambda v: float(v @ v), dim=2, scalar_convex=True)
        with pytest.raises(UnsupportedTerm):
            solve_local(local(cust, [1.0, 1.0], [0.0, 0.0]))

    def test_undeclared_custom_rejected(self):
        cust = Custom(fn=lambda v: float(v[0] ** 2), dim=1, scalar_convex=False)
        with pytest.raises(UnsupportedTerm):
            solve_local(local(cust, 1.0, 0.0))

    def test_nonfinite_rejected(self):
        with pytest.raises(NonfiniteInput):
            solve_local(local(Quadratic(np.array([0.0])), 1.0, np.nan))

    def test_unbounded_detected(self):
        # first coordinate has no quadratic part, so |u| - 3u has no minimizer
        with pytest.raises(UnboundedSubproblem):
            solve_local(local(AbsDev(np.zeros(2)), [0.0, 1.0], [3.0, 0.0]))

    def test_quad_diag_validated(self):
        with pytest.raises(InvalidProblem):
            LocalSubproblem(term=L1(1.0, dim=1), quad_diag=np.array([0.0]),
                            linear=np.array([0.0]), set=Free(1))
        with pytest.raises(InvalidProblem):
            LocalSubproblem(term=L1(1.0, dim=2), quad_diag=np.array([1.0, -1.0]),
                            linear=np.zeros(2), set=Free(2))


class TestSolveLocalAgainstOracle:
    def test_thousand_random_scalar_instances(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for trial in range(1000):
            kind = trial % 4
            q = float(rng.uniform(0.1, 4.0))
            l = float(rng.uniform(-5.0, 5.0))
            a = float(rng.uniform(-3.0, 3.0))
            if kind == 0:
                w = float(rng.uniform(0.2, 3.0))
                term = Quadratic(np.array([a]), w)
                pieces = [("quad", a, w)]
            elif kind == 1:
                term = AbsDev(np.array([a]))
                pieces = [("kink", a, 1.0)]
            elif kind == 2:
                g = float(rng.uniform(0.0, 3.0))
                term = L1(g, dim=1)
                pieces = [("kink", 0.0, g)]
            else:
                w = float(rng.uniform(0.2, 2.0))
                g = float(rng.uniform(0.1, 2.0))
                term = Custom(
                    fn=lambda v, a=a, w=w, g=g:
                        w * (v[0] - a) ** 2 + g * abs(v[0]),
                    dim=1, scalar_convex=True)
                pieces = [("quad", a, w), ("kink", 0.0, g)]
            expect = scalar_subgrad_bisect(pieces, q, l)
            got = solve_local(local(term, q, l))[0]
            worst = max(worst, abs(got - expect))
        assert worst < 1e-7, f"worst deviation {worst:.3e}"

    def test_first_order_optimality(self):
        rng = np.random.default_rng(7)
        eps = 1e-4
        checked = 0
        for trial in range(25):
            q = rng.uniform(0.2, 3.0, size=2)
            l = rng.uniform(-4.0, 4.0, size=2)
            term = [Quadratic(rng.normal(size=2), float(rng.uniform(0.5, 2))),
                    AbsDev(rng.normal(size=2)),
                    L1(float(rng.uniform(0, 2)), dim=2)][trial % 3]
            box = Box(np.array([-6.0, -6.0]), np.array([6.0, 6.0]))
            sub = local(term, q, l, box)
            u = solve_local(sub)
            base = sub_objective(sub, u)
            for _ in range(100):
                d = rng.normal(size=2)
                cand = box.project(u + eps * d)
                assert sub_objective(sub, cand) >= base - 1e-6
                checked += 1
        assert checked == 2500


def random_local(rng, kind, n):
    """A subproblem of ``kind`` on ``n`` coordinates: signed zeros in the
    center and the tilt, ``q == 0`` on some coordinates when ``n > 1``,
    and a free set or a box with some infinite sides."""
    q = rng.uniform(0.1, 3.0, n)
    if n > 1:
        q[rng.integers(n)] = 0.0 if rng.random() < 0.5 else q[0]
    return local(make_term(kind, n, rng), q, random_vector(rng, n, 3.0),
                 make_set(n, rng))


def bounds_of(fset, n):
    if isinstance(fset, Box):
        return fset.lower, fset.upper
    return np.full(n, -np.inf), np.full(n, np.inf)


class TestSolveLocalIsTheGroupedProx:
    """``solve_local`` runs the grouped prox (``prox._GroupedProx``) on one
    component; it must equal the per-kind closed forms of
    ``reference.plain_prox`` bit for bit, signs of zero and the first
    error included."""

    # a custom term of dimension 2 only raises; see the misuse test
    @pytest.mark.parametrize("kind, n", [
        (kind, n) for kind in ("quadratic", "absdev", "l1", "l1-zero")
        for n in (1, 2)] + [("custom", 1)])
    def test_equals_plain_prox(self, kind, n):
        rng = np.random.default_rng([n, len(kind)])
        solved = unbounded = zero_q = 0
        for _ in range(300):
            sub = random_local(rng, kind, n)
            lo, hi = bounds_of(sub.set, n)
            want = outcome(lambda: plain_prox(sub.term, sub.quad_diag,
                                              sub.linear, lo, hi))
            assert outcome(lambda: solve_local(sub)) == want
            solved += isinstance(want, bytes)
            unbounded += (isinstance(want, tuple)
                          and want[0] is UnboundedSubproblem)
            zero_q += bool(np.any(sub.quad_diag == 0))
        assert solved > 100
        if n > 1:
            # kink coordinates without a quadratic part, solved and refused
            assert zero_q > 50
            if kind in ("absdev", "l1-zero"):
                assert unbounded > 0

    @pytest.mark.parametrize("term, q, l, error, message", [
        (Custom(fn=lambda v: float(v @ v), dim=2, scalar_convex=True),
         [1.0, 1.0], [0.0, 0.0], UnsupportedTerm,
         "custom terms are solvable only when scalar and declared convex"),
        (Custom(fn=lambda v: float(v[0] ** 2), dim=1), [1.0], [0.0],
         UnsupportedTerm,
         "custom terms are solvable only when scalar and declared convex"),
        (Custom(fn=lambda v: float(v[0] ** 2), dim=1), [1.0], [np.nan],
         NonfiniteInput, "subproblem data contains non-finite values"),
        (Custom(fn=lambda v: -float(v[0] ** 2), dim=1, scalar_convex=True),
         [0.5], [0.0], UnboundedSubproblem,
         "no slope sign change toward -inf"),
    ], ids=["dim-2", "undeclared", "non-finite-first", "unbounded"])
    def test_custom_misuse_first_error(self, term, q, l, error, message):
        sub = local(term, q, l)
        with pytest.raises(error) as got:
            solve_local(sub)
        assert str(got.value) == message
        if error is not NonfiniteInput:
            lo, hi = bounds_of(sub.set, term.dim)
            with pytest.raises(error) as want:
                plain_prox(term, sub.quad_diag, sub.linear, lo, hi)
            assert str(want.value) == message


class TestBisectConvex:
    def test_smooth_minimum(self):
        u = bisect_convex(lambda v: (v - 1.7) ** 2)
        assert u == pytest.approx(1.7, abs=1e-8)

    def test_respects_bounds(self):
        u = bisect_convex(lambda v: (v - 5.0) ** 2, lo=-1.0, hi=2.0)
        assert u == pytest.approx(2.0, abs=1e-8)

    def test_unbounded_raises(self):
        with pytest.raises(UnboundedSubproblem):
            bisect_convex(lambda v: -v)


NO_PAIRS = np.empty(0, dtype=np.intp)
ONE_PAIR = (np.array([0]), np.array([1]))


class TestSolveZBlock:
    def test_free_exact_fit(self):
        z = solve_z_prepared(np.array([-1.0, -1.0]), np.array([2.0, -3.0]),
                             NO_PAIRS, NO_PAIRS)
        np.testing.assert_allclose(z, [-2.0, 3.0])

    def test_free_matches_grid_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            w = rng.choice([-2.0, -1.0, 0.5, 1.5], size=3)
            t = rng.uniform(-4, 4, size=3)
            z = solve_z_prepared(w, t, NO_PAIRS, NO_PAIRS)
            oracle = grid_min_free(w, t)
            np.testing.assert_allclose(z, oracle, atol=1e-3)

    def test_pair_closed_form_matches_grid_oracle(self):
        # frozen oracle value: weights (-1,-1), target (1,3) -> z = (1,-1)
        oracle = grid_min_pair(-1.0, -1.0, 1.0, 3.0)
        assert oracle == pytest.approx(1.0, abs=1e-3)
        z = solve_z_prepared(np.array([-1.0, -1.0]), np.array([1.0, 3.0]),
                             *ONE_PAIR)
        np.testing.assert_allclose(z, [1.0, -1.0])

    def test_pair_random_against_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            w = rng.choice([-2.0, -1.0, 1.0, 0.5], size=2)
            t = rng.uniform(-5, 5, size=2)
            z = solve_z_prepared(w, t, *ONE_PAIR)
            z0 = grid_min_pair(w[0], w[1], t[0], t[1])
            assert z[0] == pytest.approx(z0, abs=1e-3)
            assert z[1] == -z[0]

    def test_sum_compatible_target_is_unconstrained_fit(self):
        # unconstrained fit (-2, 2) already sums to zero
        z = solve_z_prepared(np.array([-1.0, -1.0]), np.array([2.0, -2.0]),
                             *ONE_PAIR)
        np.testing.assert_allclose(z, [-2.0, 2.0])

    def test_sum_zero_exact(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            w = rng.choice([-1.0, 1.0], size=2) * rng.uniform(0.5, 2.0)
            t = rng.uniform(-10, 10, size=2)
            z = solve_z_prepared(w, t, *ONE_PAIR)
            assert abs(z[0] + z[1]) <= 1e-12
