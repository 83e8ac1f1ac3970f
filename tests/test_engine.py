import gc

import numpy as np
import pytest

from asyncadmm import (AbsDev, BenchmarkSpec, ConstraintSystem, Custom,
                       Free, Graph, L1, PrimalDualState, ProbeFlags,
                       ProperPartition, Quadratic, RngStream,
                       SeparableProblem, build_partition,
                       build_reformulation, derive_probabilities,
                       generate_benchmark, initial_state, objective, residual,
                       run, sample_block, shadow_step, single_block_partition,
                       solve_reference, step, sync_admm_step, term_value,
                       uniform_probs)
from asyncadmm.compiled import _block_table
from asyncadmm.errors import (DivergenceError, ImproperPartition,
                              MissingReference)

from conftest import kernel_block, random_state_for
from oracles import grid_min_free
from reference import (assert_same_run, block_comps, block_rows,
                       reference_run)


def cycle_bench(n_nodes=4, beta=1.0):
    g = Graph.cycle(n_nodes)
    terms = tuple(Quadratic(np.array([float(i + 1)])) for i in range(n_nodes))
    return build_reformulation(g, terms, tuple(Free(1) for _ in terms), beta)


def one_agent_problem(beta=1.0):
    """Single scalar agent with one row x - z = 0."""
    cs = ConstraintSystem(n=1, N=1, W=1, entries=((0, 0, 1.0),),
                          h_diag=np.array([-1.0]))
    return SeparableProblem(terms=(Quadratic(np.array([3.0])),),
                            x_sets=(Free(1),), z_set=Free(1),
                            constraints=cs, beta=beta)


class TestXUpdate:
    """The kernel's x part: the block's components re-solve."""

    def test_single_agent_stationarity(self):
        # minimize (x-3)^2 + (beta/2) x^2 at p=0, z=0: 2(x-3) + x = 0
        prob = one_agent_problem()
        part = single_block_partition(prob.constraints)
        x = kernel_block(prob, part, initial_state(prob), 0).x
        np.testing.assert_allclose(x, [2.0])

    def test_empty_active_set_is_identity(self):
        # the x of every component outside the block is left as it was
        reform = cycle_bench()
        prob, part = reform.problem, reform.partition
        st = random_state_for(prob, np.random.default_rng(0))
        for b in range(part.num_blocks):
            x = kernel_block(prob, part, st, b).x
            inactive = np.setdiff1d(np.arange(prob.dim_x),
                                    block_comps(part, b))
            np.testing.assert_array_equal(x[inactive], st.x[inactive])

    def test_full_activation_separates(self):
        # each component's solve reads only its own rows: firing it alone
        # or with every other component gives the same value
        reform = cycle_bench(3)
        prob, part = reform.problem, reform.partition
        st = random_state_for(prob, np.random.default_rng(1))
        full = kernel_block(prob, single_block_partition(prob.constraints),
                            st, 0)
        for b in range(part.num_blocks):
            alone = kernel_block(prob, part, st, b)
            for i in block_comps(part, b):
                assert full.x[i] == alone.x[i]


class TestZUpdate:
    """The kernel's z part: the block's rows re-fit to the new x."""

    def test_free_zset_matches_grid_oracle(self, two_row_problem):
        prob = two_row_problem
        rng = np.random.default_rng(2)
        st = random_state_for(prob, rng)
        after = kernel_block(prob, single_block_partition(prob.constraints),
                             st, 0)
        cs = prob.constraints
        t = st.p / prob.beta - cs.row_coeff * after.x[cs.col_index]
        oracle = grid_min_free(cs.h_diag, t)
        np.testing.assert_allclose(after.z, oracle, atol=1e-3)

    def test_empty_active_rows_is_identity(self):
        # the z and p of every row outside the block are left as they were
        reform = cycle_bench()
        prob, part = reform.problem, reform.partition
        st = random_state_for(prob, np.random.default_rng(3))
        for b, rows in enumerate(np.split(part.rows, part.row_ptr[1:-1])):
            after = kernel_block(prob, part, st, b)
            inactive = np.setdiff1d(np.arange(prob.dim_z), rows)
            np.testing.assert_array_equal(after.z[inactive], st.z[inactive])
            np.testing.assert_array_equal(after.p[inactive], st.p[inactive])

    def test_split_pair_rejected(self):
        reform = cycle_bench(3)
        prob = reform.problem
        # row 1 is row 0's partner in the z set
        blocks = (np.array([0]), np.array([1]), np.arange(2, prob.dim_z))
        comps = [np.unique(prob.constraints.row_block[r]) for r in blocks]
        part = ProperPartition(
            rows=np.concatenate(blocks),
            row_ptr=np.array([0, 1, 2, prob.dim_z]),
            comps=np.concatenate(comps),
            comp_ptr=np.cumsum([0] + [c.size for c in comps]),
            num_rows=prob.dim_z, num_components=prob.num_components)
        with pytest.raises(ImproperPartition):
            _block_table(prob, part)

    def test_edge_pair_matches_sum_zero_projection_shape(self):
        reform = cycle_bench(3)
        prob = reform.problem
        rng = np.random.default_rng(4)
        st = random_state_for(prob, rng)
        z = kernel_block(prob, reform.partition, st, 0).z
        rows = block_rows(reform.partition, 0)
        assert abs(z[rows[0]] + z[rows[1]]) <= 1e-12


class TestDualUpdate:
    """The kernel's dual part: ``p <- p - beta (D_phi x+ + H_psi z+)``."""

    def test_feasible_rows_unchanged(self):
        # at a saddle point the refreshed residual is zero on every row
        reform = cycle_bench(3)
        prob, part = reform.problem, reform.partition
        ref = solve_reference(prob)
        st = PrimalDualState(x=ref.x.copy(), z=ref.z.copy(), p=ref.p.copy())
        for b in range(part.num_blocks):
            p = kernel_block(prob, part, st, b).p
            np.testing.assert_allclose(p, st.p, rtol=0, atol=1e-9)

    def test_direct_substitution(self):
        # beta 2, p = 2: x solves 2(x-3) + 2x = 2, so x = 2; z = x - p/beta
        # = 1; the residual x - z = 1 moves p to 2 - 2 * 1 = 0
        prob = one_agent_problem(beta=2.0)
        st = PrimalDualState(x=np.zeros(1), z=np.zeros(1), p=np.array([2.0]))
        after = kernel_block(prob, single_block_partition(prob.constraints),
                             st, 0)
        np.testing.assert_allclose(after.x, [2.0])
        np.testing.assert_allclose(after.z, [1.0])
        np.testing.assert_allclose(after.p, [0.0], atol=1e-15)

    def test_full_activation_matches_baseline_formula(self, two_row_problem):
        prob = two_row_problem
        rng = np.random.default_rng(5)
        st = random_state_for(prob, rng)
        after = kernel_block(prob, single_block_partition(prob.constraints),
                             st, 0)
        expect = st.p - prob.beta * residual(prob, after.x, after.z)
        np.testing.assert_allclose(after.p, expect, atol=1e-15)


class TestStep:
    def test_determinism(self):
        reform = cycle_bench(5)
        prob = reform.problem
        dist = derive_probabilities(reform.partition,
                                    uniform_probs(reform.partition))
        outs = []
        for _ in range(2):
            st = initial_state(prob)
            rng = RngStream(99)
            for _ in range(50):
                st = step(prob, st, reform.partition, dist, rng).after
            outs.append(st)
        np.testing.assert_array_equal(outs[0].x, outs[1].x)
        np.testing.assert_array_equal(outs[0].z, outs[1].z)
        np.testing.assert_array_equal(outs[0].p, outs[1].p)

    def test_matches_composed_updates(self):
        # the block's coordinates are the shadow pass's (x solved by the
        # one-pass solve, z and p over every row), the rest as they were
        reform = cycle_bench(5)
        prob = reform.problem
        part = reform.partition
        dist = derive_probabilities(part, uniform_probs(part))
        rng_state = np.random.default_rng(6)
        st = random_state_for(prob, rng_state)
        rng = RngStream(1)
        probe = RngStream(1)
        for _ in range(25):
            b = sample_block(dist, probe)
            rec = step(prob, st, part, dist, rng)
            assert rec.block == b
            sh = shadow_step(prob, st)
            x, z, p = st.x.copy(), st.z.copy(), st.p.copy()
            comps, rows = block_comps(part, b), block_rows(part, b)
            x[comps] = sh.y[comps]
            z[rows] = sh.v[rows]
            p[rows] = sh.mu[rows]
            np.testing.assert_array_equal(rec.after.x, x)
            np.testing.assert_array_equal(rec.after.z, z)
            np.testing.assert_array_equal(rec.after.p, p)
            st = rec.after

    def test_shadow_identities_and_freeze(self):
        reform = cycle_bench(5)
        prob = reform.problem
        part = reform.partition
        dist = derive_probabilities(part, uniform_probs(part))
        st = initial_state(prob, x0=np.arange(5.0))
        rng = RngStream(17)
        for _ in range(100):
            rec = step(prob, st, part, dist, rng)
            sh = shadow_step(prob, st)
            b = rec.block
            rows = block_rows(part, b)
            for i in block_comps(part, b):
                assert abs(rec.after.x[i] - sh.y[i]) <= 1e-9
            assert np.max(np.abs(rec.after.z[rows] - sh.v[rows])) <= 1e-9
            assert np.max(np.abs(rec.after.p[rows] - sh.mu[rows])) <= 1e-9
            # inactive coordinates bitwise frozen
            mask_x = np.ones(5, dtype=bool)
            mask_x[block_comps(part, b)] = False
            mask_z = np.ones(prob.dim_z, dtype=bool)
            mask_z[rows] = False
            np.testing.assert_array_equal(rec.after.x[mask_x],
                                          rec.before.x[mask_x])
            np.testing.assert_array_equal(rec.after.z[mask_z],
                                          rec.before.z[mask_z])
            np.testing.assert_array_equal(rec.after.p[mask_z],
                                          rec.before.p[mask_z])
            st = rec.after


class TestShadowStep:
    def test_full_activation_step_equals_shadow(self):
        reform = cycle_bench(4)
        prob = reform.problem
        cs = prob.constraints
        part = single_block_partition(cs)
        dist = derive_probabilities(part, [1.0])
        rng_state = np.random.default_rng(8)
        st = random_state_for(prob, rng_state)
        sh = shadow_step(prob, st)
        rec = step(prob, st, part, dist, RngStream(0))
        np.testing.assert_array_equal(rec.after.x, sh.y)
        np.testing.assert_array_equal(rec.after.z, sh.v)
        np.testing.assert_array_equal(rec.after.p, sh.mu)

    def test_residual_definition(self):
        reform = cycle_bench(4)
        prob = reform.problem
        st = random_state_for(prob, np.random.default_rng(9))
        sh = shadow_step(prob, st)
        np.testing.assert_allclose(sh.r, residual(prob, sh.y, sh.v), atol=1e-14)
        np.testing.assert_allclose(sh.mu, st.p - prob.beta * sh.r, atol=1e-14)

    def test_zero_residual_at_saddle_state(self):
        from asyncadmm import solve_reference
        prob = cycle_bench(3).problem
        ref = solve_reference(prob)
        st = PrimalDualState(x=ref.x.copy(), z=ref.z.copy(), p=ref.p.copy())
        sh = shadow_step(prob, st)
        assert np.linalg.norm(sh.r) <= 1e-8

    def test_two_agent_closed_forms(self):
        # y_i = (2 a_i + sum_rows coeff*(p - beta h z)) / (2 + beta deg_i)
        reform = cycle_bench(2)
        prob = reform.problem
        st = random_state_for(prob, np.random.default_rng(10))
        sh = shadow_step(prob, st)
        cs = prob.constraints
        for i in range(2):
            rows = np.flatnonzero(cs.row_block == i)
            gather = float(np.sum(cs.row_coeff[rows] *
                                  (st.p[rows] - prob.beta * cs.h_diag[rows]
                                   * st.z[rows])))
            a = prob.terms[i].center[0]
            expect = (2.0 * a + gather) / (2.0 + prob.beta * rows.size)
            assert sh.y[i] == pytest.approx(expect, abs=1e-12)


class TestSyncEngine:
    def test_full_activation_equivalence(self):
        reform = cycle_bench(5, beta=0.7)
        prob = reform.problem
        part = single_block_partition(prob.constraints)
        dist = derive_probabilities(part, [1.0])
        sa = initial_state(prob, x0=np.arange(5.0))
        sb = initial_state(prob, x0=np.arange(5.0))
        rng = RngStream(2)
        worst = 0.0
        for _ in range(100):
            sa = step(prob, sa, part, dist, rng).after
            sb = sync_admm_step(prob, sb)
            worst = max(worst, float(np.max(np.abs(sa.x - sb.x))),
                        float(np.max(np.abs(sa.z - sb.z))),
                        float(np.max(np.abs(sa.p - sb.p))))
        assert worst <= 1e-10

    def test_fixed_point_stays(self):
        from asyncadmm import solve_reference
        prob = cycle_bench(3).problem
        ref = solve_reference(prob)
        st = PrimalDualState(x=ref.x.copy(), z=ref.z.copy(), p=ref.p.copy())
        nxt = sync_admm_step(prob, st)
        assert np.max(np.abs(nxt.x - st.x)) <= 1e-9
        assert np.max(np.abs(nxt.z - st.z)) <= 1e-9
        assert np.max(np.abs(nxt.p - st.p)) <= 1e-9


class TestRun:
    def test_t_zero_rejected(self):
        reform = cycle_bench(3)
        dist = derive_probabilities(reform.partition,
                                    uniform_probs(reform.partition))
        with pytest.raises(ValueError):
            run(reform.problem, reform.partition, dist, seed=0, T=0)

    def test_t_one_single_record(self):
        reform = cycle_bench(3)
        dist = derive_probabilities(reform.partition,
                                    uniform_probs(reform.partition))
        m = run(reform.problem, reform.partition, dist, seed=0, T=1)
        assert m.iters.tolist() == [1]

    def test_two_node_consensus_feasibility(self):
        # reference optimum is the mean of the local targets
        g = Graph(2, ((0, 1),))
        terms = (Quadratic(np.array([1.0])), Quadratic(np.array([5.0])))
        reform = build_reformulation(g, terms, (Free(1), Free(1)), 1.0)
        dist = derive_probabilities(reform.partition, [1.0])
        m = run(reform.problem, reform.partition, dist, seed=0, T=5000)
        assert m.feasibility[-1] < 1e-4
        np.testing.assert_allclose(m.final_state.x, [3.0, 3.0], atol=1e-4)

    def test_identical_seeds_identical_metrics(self):
        reform = cycle_bench(4)
        dist = derive_probabilities(reform.partition,
                                    uniform_probs(reform.partition))
        m1 = run(reform.problem, reform.partition, dist, seed=3, T=500)
        m2 = run(reform.problem, reform.partition, dist, seed=3, T=500)
        np.testing.assert_array_equal(m1.objective, m2.objective)
        np.testing.assert_array_equal(m1.feasibility, m2.feasibility)
        np.testing.assert_array_equal(m1.active_block, m2.active_block)

    def test_stride_controls_records(self):
        reform = cycle_bench(3)
        dist = derive_probabilities(reform.partition,
                                    uniform_probs(reform.partition))
        m = run(reform.problem, reform.partition, dist, seed=0, T=100,
                stride=10)
        assert m.iters.tolist() == list(range(10, 101, 10))

    def test_lyapunov_requires_reference(self):
        reform = cycle_bench(3)
        dist = derive_probabilities(reform.partition,
                                    uniform_probs(reform.partition))
        with pytest.raises(MissingReference):
            run(reform.problem, reform.partition, dist, seed=0, T=10,
                probes=ProbeFlags(lyapunov=True))

    def test_divergence_guard_fires(self):
        from asyncadmm import Custom
        beta = 1.0
        cs = ConstraintSystem(n=1, N=1, W=1, entries=((0, 0, 1.0),),
                              h_diag=np.array([-1.0]))
        # declared convex but actually nearly cancels the quadratic term,
        # leaving a huge amplification each step
        bad = Custom(fn=lambda u: -0.49 * float(u[0]) ** 2, dim=1,
                     scalar_convex=True)
        prob = SeparableProblem(terms=(bad,), x_sets=(Free(1),),
                                z_set=Free(1), constraints=cs, beta=beta)
        part = single_block_partition(cs)
        dist = derive_probabilities(part, [1.0])
        with pytest.raises(DivergenceError):
            run(prob, part, dist, seed=0, T=100, z0=np.array([1.0]))

    def test_nan_data_stops_the_run(self):
        # max(0.0, nan) is 0.0 in Python, so a guard built on it lets NaN by
        g = Graph.cycle(5)
        terms = tuple(Quadratic(np.array([np.nan if i == 2 else float(i)]))
                      for i in range(5))
        reform = build_reformulation(g, terms, tuple(Free(1) for _ in terms),
                                     1.0)
        dist = derive_probabilities(reform.partition,
                                    uniform_probs(reform.partition))
        with pytest.raises(DivergenceError, match="non-finite"):
            run(reform.problem, reform.partition, dist, seed=0, T=200)


def chained(prob, part, dist, seed, T, x0=None, z0=None):
    """T plain step() calls with eager running sums and maxima."""
    st = initial_state(prob, x0, z0)
    x_sum, z_sum = np.zeros_like(st.x), np.zeros_like(st.z)
    p_max = 0.0
    rng = RngStream(seed)
    for _ in range(T):
        st = step(prob, st, part, dist, rng).after
        x_sum += st.x
        z_sum += st.z
        p_max = max(p_max, float(np.max(np.abs(st.p))))
    return st, x_sum / T, z_sum / T, p_max


def lad_box_bench(n_nodes):
    a = np.random.default_rng(n_nodes).uniform(-5.0, 5.0, n_nodes)
    return generate_benchmark(BenchmarkSpec("consensus-lad", a=list(a),
                                            box_margin=0.05),
                              Graph.cycle(n_nodes))


def vector_cycle(n_nodes, n=2):
    rng = np.random.default_rng(n)
    terms = tuple(Quadratic(rng.normal(size=n)) for _ in range(n_nodes))
    return build_reformulation(Graph.cycle(n_nodes), terms,
                               tuple(Free(n) for _ in terms), 1.0)


class TestFastPath:
    """run() keeps its own state; it must match the plain step() path."""

    CASES = ("cycle5", "cycle50", "lad-box", "single-block", "vector",
             "two-edge-blocks")

    def case(self, name):
        if name == "cycle5":
            reform = cycle_bench(5)
            return reform.problem, reform.partition
        if name == "cycle50":
            reform = cycle_bench(50)
            return reform.problem, reform.partition
        if name == "lad-box":
            bench = lad_box_bench(12)
            return bench.problem, bench.reform.partition
        if name == "single-block":
            prob = cycle_bench(6).problem
            return prob, single_block_partition(prob.constraints)
        if name == "vector":
            reform = vector_cycle(7)
            return reform.problem, reform.partition
        reform = cycle_bench(8)  # two edges per block, rows not contiguous
        prob = reform.problem
        blocks = [[0, 1, 6, 7], [2, 3, 8, 9], [4, 5, 10, 11],
                  [12, 13, 14, 15]]
        return prob, build_partition(prob.z_set, prob.constraints, blocks)

    @pytest.mark.parametrize("name", CASES)
    def test_final_state_bitwise(self, name):
        prob, part = self.case(name)
        dist = derive_probabilities(part, uniform_probs(part))
        x0 = np.random.default_rng(7).uniform(-6.0, 6.0, prob.dim_x)
        T = 400
        probes = ProbeFlags(shadow=True, ergodic=True)
        m = run(prob, part, dist, seed=11, T=T, x0=x0, stride=50,
                probes=probes)
        want = reference_run(prob, part, dist, 11, T, probes=probes, x0=x0,
                             stride=50)
        assert_same_run(m, want)
        st, x_bar, z_bar, p_max = chained(prob, part, dist, 11, T, x0=x0)
        np.testing.assert_array_equal(m.final_state.x, st.x)
        np.testing.assert_array_equal(m.final_state.z, st.z)
        np.testing.assert_array_equal(m.final_state.p, st.p)
        assert m.final_state.k == st.k == T
        assert m.counters["shadow_failures"] == 0 == m.counters["freeze_failures"]
        # lazy ergodic sums against the eager running sums
        np.testing.assert_allclose(m.x_bar, x_bar, rtol=1e-12, atol=0)
        np.testing.assert_allclose(m.z_bar, z_bar, rtol=1e-12, atol=0)
        assert m.p_max_abs == p_max

    def test_lazy_sums_at_every_record(self):
        prob, part = self.case("cycle5")
        dist = derive_probabilities(part, uniform_probs(part))
        m = run(prob, part, dist, seed=4, T=60, stride=1,
                probes=ProbeFlags(ergodic=True))
        st = initial_state(prob)
        x_sum, z_sum = np.zeros_like(st.x), np.zeros_like(st.z)
        rng = RngStream(4)
        for k in range(1, 61):
            st = step(prob, st, part, dist, rng).after
            x_sum += st.x
            z_sum += st.z
            feas = np.linalg.norm(residual(prob, x_sum / k, z_sum / k))
            assert m.ergodic_feasibility[k - 1] == pytest.approx(feas,
                                                                 rel=1e-9)

    def test_pairs_match_restricted_z_set(self):
        # the block's z lanes: its z pairs' rows in z-set order, then their
        # partners, then its other rows, padded with the dummy row W
        reform = cycle_bench(50)
        prob, part = reform.problem, reform.partition
        table = _block_table(prob, part)
        W, P = prob.dim_z, table.P
        for b, rows in enumerate(np.split(part.rows, part.row_ptr[1:-1])):
            lanes = table.idx[table.icol["z"], b] - table.z0
            pairs = [(i, j) for i, j in prob.z_set.pairs if i in set(rows)]
            assert lanes[:P].tolist() == [i for i, _ in pairs]
            assert lanes[P:2 * P].tolist() == [j for _, j in pairs]
            assert sorted(lanes[lanes < W].tolist()) == rows.tolist()

    def test_block_table_cached_per_live_partition(self):
        reform = cycle_bench(5)
        prob = reform.problem
        assert _block_table(prob, reform.partition) is \
            _block_table(prob, reform.partition)
        for _ in range(3):
            _block_table(prob, single_block_partition(prob.constraints))
        gc.collect()
        assert len(prob._block_tables) == 1


class TestGroupedObjective:
    def test_matches_per_term_sum(self):
        rng = np.random.default_rng(21)
        n, N = 3, 12
        kinds = []
        for i in range(N):
            c = rng.normal(size=n)
            kinds.append([Quadratic(c, weight=0.5 + i),
                          AbsDev(c), L1(gamma=0.1 * i, dim=n),
                          Custom(fn=lambda u: float(np.sum(u ** 4)), dim=n)
                          ][i % 4])
        entries = [(i * n + t, i, t, 1.0 + t) for i in range(N)
                   for t in range(n)]
        cs = ConstraintSystem(n=n, N=N, W=n * N, entries=tuple(entries),
                              h_diag=-np.ones(n * N))
        prob = SeparableProblem(terms=tuple(kinds),
                                x_sets=tuple(Free(n) for _ in kinds),
                                z_set=Free(n * N), constraints=cs, beta=1.0)
        for _ in range(5):
            x = rng.normal(size=n * N) * 4.0
            want = sum(term_value(t, x[i * n:(i + 1) * n])
                       for i, t in enumerate(kinds))
            assert objective(prob, x) == pytest.approx(want, rel=1e-12)
