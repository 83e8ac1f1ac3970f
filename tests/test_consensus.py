import numpy as np
import pytest

from asyncadmm import (AbsDev, Custom, Free, Graph, L1, PrimalDualState,
                       Quadratic, RngStream, build_partition,
                       build_reformulation, consensus_gap, consensus_reference,
                       derive_probabilities, edge_initial_state, edge_step,
                       sample_block, step, uniform_probs,
                       validate_constraints)
from asyncadmm.errors import (DisconnectedGraph, InvalidProblem, ParseError,
                              UnsupportedMix)

from conftest import kernel_block, random_state_for
from oracles import scalar_subgrad_bisect
from reference import plain_component, star_graph


def quad_reform(graph, a, beta=1.0, flip=()):
    terms = tuple(Quadratic(np.array([float(v)])) for v in a)
    return build_reformulation(graph, terms,
                               tuple(Free(1) for _ in terms), beta,
                               flip_edges=flip)


class TestGraph:
    def test_rejects_self_loops_and_duplicates(self):
        with pytest.raises(InvalidProblem):
            Graph(3, ((0, 0),))
        with pytest.raises(InvalidProblem):
            Graph(3, ((0, 1), (1, 0)))

    def test_connectivity(self):
        assert Graph.cycle(5).is_connected()
        assert not Graph(4, ((0, 1), (2, 3))).is_connected()
        # too few edges: refused from the counts alone
        assert not Graph(10 ** 6, ((0, 1),)).is_connected()

    def test_text_round_trip(self):
        g = Graph.path(4)
        g2 = Graph.from_text(g.to_text())
        assert g2.num_nodes == 4
        want = np.array([[0, 1], [1, 2], [2, 3]], dtype=np.intp)
        for edges in (g.edges, g2.edges):
            assert edges.dtype == want.dtype and edges.shape == want.shape
            assert edges.tobytes() == want.tobytes()

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            Graph.from_text("")
        with pytest.raises(ParseError):
            Graph.from_text("3\n0 1\n")
        with pytest.raises(ParseError):
            Graph.from_text("3 2\n0 1\n")  # declared 2 edges, found 1
        with pytest.raises(ParseError):
            Graph.from_text("2 1\n0 zero\n")


class TestBuildReformulation:
    def test_two_node_layout(self):
        reform = quad_reform(Graph(2, ((0, 1),)), [1.0, 2.0])
        cs = reform.problem.constraints
        assert cs.W == 2
        # D = [[1, 0], [0, -1]]: one entry per row
        np.testing.assert_array_equal(cs.col_index, [0, 1])
        np.testing.assert_array_equal(cs.row_coeff, [1.0, -1.0])
        np.testing.assert_array_equal(cs.h_diag, [-1.0, -1.0])

    def test_path_three_nodes_counts(self):
        reform = quad_reform(Graph.path(3), [0.0, 0.0, 0.0])
        cs = reform.problem.constraints
        assert reform.graph.num_edges == 2 and cs.W == 4
        # the middle node appears in both edge blocks
        part = reform.partition
        appearing = [set(c.tolist())
                     for c in np.split(part.comps, part.comp_ptr[1:-1])]
        assert appearing == [{0, 1}, {1, 2}]

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraph):
            quad_reform(Graph(4, ((0, 1), (2, 3))), [0.0] * 4)

    def test_passes_validation_and_properness(self):
        for g in (Graph.cycle(6), star_graph(4)):
            reform = quad_reform(g, range(g.num_nodes))
            cs = reform.problem.constraints
            assert validate_constraints(cs).ok
            part = reform.partition
            rebuilt = build_partition(
                reform.problem.z_set, cs,
                [b.tolist() for b in np.split(part.rows, part.row_ptr[1:-1])])
            assert rebuilt.num_blocks == g.num_edges

    def test_vector_valued_nodes(self):
        g = Graph.path(3)
        terms = tuple(Quadratic(np.array([float(i), -float(i)])) for i in range(3))
        reform = build_reformulation(g, terms, tuple(Free(2) for _ in terms), 1.0)
        cs = reform.problem.constraints
        assert cs.W == 2 * 2 * 2
        assert validate_constraints(cs).ok
        for i, j in reform.problem.z_set.pairs:
            assert j - i == 2  # endpoint rows interleave per coordinate


class TestEdgeStep:
    def test_direct_substitution_formulas(self):
        # x updates land on 2 and 0; then v = 1, p = -1, z = (1, -1)
        g = Graph(2, ((0, 1),))
        reform = quad_reform(g, [3.0, 0.0])
        st = PrimalDualState(x=np.zeros(2), z=np.zeros(2), p=np.zeros(2))
        out = edge_step(reform, st, 0)
        np.testing.assert_allclose(out.x, [2.0, 0.0])
        np.testing.assert_allclose(out.p, [-1.0, -1.0])
        np.testing.assert_allclose(out.z, [1.0, -1.0])
        assert out.z[0] + out.z[1] == 0.0

    def test_matches_generic_step_on_random_states(self):
        """The generic step to rounding; the endpoints' x bit for bit as
        the reference solves them one component at a time, the other
        nodes' x untouched."""
        rng = np.random.default_rng(0)
        for g, kind in [(g, kind) for kind in (Quadratic, AbsDev)
                        for g in (Graph.cycle(5), star_graph(5))]:
            terms = tuple(kind(np.array([v]))
                          for v in rng.uniform(-3, 3, size=5))
            reform = build_reformulation(g, terms, [Free(1)] * 5, 1.3)
            prob = reform.problem
            part = reform.partition
            worst = 0.0
            for _ in range(100):
                st = random_state_for(prob, rng)
                e = int(rng.integers(0, g.num_edges))
                got = edge_step(reform, st, e)
                want = kernel_block(prob, part, st, e)
                worst = max(worst, float(np.max(np.abs(got.x - want.x))),
                            float(np.max(np.abs(got.z - want.z))),
                            float(np.max(np.abs(got.p - want.p))))
                x = st.x.copy()
                for i in g.edges[e].tolist():
                    x[i:i + 1] = plain_component(prob, i, st.p, st.z)
                assert got.x.tobytes() == x.tobytes()
            assert worst <= 1e-10

    def test_pair_invariants_after_step(self):
        rng = np.random.default_rng(1)
        reform = quad_reform(Graph.cycle(4), [0.5, -1.0, 2.0, 4.0])
        for _ in range(50):
            st = random_state_for(reform.problem, rng)
            e = int(rng.integers(0, 4))
            out = edge_step(reform, st, e)
            ri = reform.edge_rows(e, 0)[0]
            rj = reform.edge_rows(e, 1)[0]
            assert abs(out.z[ri] + out.z[rj]) <= 1e-12
            assert out.p[ri] == out.p[rj]

    def test_other_coordinates_frozen(self):
        rng = np.random.default_rng(2)
        reform = quad_reform(Graph.cycle(4), [1.0, 2.0, 3.0, 4.0])
        st = random_state_for(reform.problem, rng)
        out = edge_step(reform, st, 1)
        i, j = reform.graph.edges[1]
        mask_x = np.ones(4, dtype=bool)
        mask_x[[i, j]] = False
        rows = np.concatenate([reform.edge_rows(1, 0), reform.edge_rows(1, 1)])
        mask_z = np.ones(reform.problem.dim_z, dtype=bool)
        mask_z[rows] = False
        np.testing.assert_array_equal(out.x[mask_x], st.x[mask_x])
        np.testing.assert_array_equal(out.z[mask_z], st.z[mask_z])
        np.testing.assert_array_equal(out.p[mask_z], st.p[mask_z])

    def test_flip_invariance_of_x_trajectory(self):
        # orientation signs cannot change the x iterates
        g = Graph.cycle(4)
        a = [1.0, -2.0, 0.5, 3.0]
        plain = quad_reform(g, a)
        flipped = quad_reform(g, a, flip=(0, 2))
        s1 = edge_initial_state(plain, np.array(a))
        s2 = edge_initial_state(flipped, np.array(a))
        dist = derive_probabilities(plain.partition, uniform_probs(plain.partition))
        rng1, rng2 = RngStream(5), RngStream(5)
        for _ in range(200):
            s1 = step(plain.problem, s1, plain.partition, dist, rng1).after
            s2 = step(flipped.problem, s2, flipped.partition, dist, rng2).after
        np.testing.assert_allclose(s1.x, s2.x, atol=1e-10)

    def test_consensus_on_cycle(self):
        reform = quad_reform(Graph.cycle(5), [1.0, 2.0, 3.0, 4.0, 5.0])
        st = edge_initial_state(reform, np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        rng = RngStream(0)
        dist = derive_probabilities(reform.partition,
                                    uniform_probs(reform.partition))
        for _ in range(4000):
            e = sample_block(dist, rng)
            st = edge_step(reform, st, e)
        assert consensus_gap(reform, st, np.array([3.0])) < 1e-3


class TestConsensusReference:
    def test_quadratic_mean(self):
        terms = tuple(Quadratic(np.array([v])) for v in (1.0, 2.0, 3.0))
        np.testing.assert_allclose(consensus_reference(terms), [2.0])

    def test_weighted_mean(self):
        terms = (Quadratic(np.array([0.0]), 3.0), Quadratic(np.array([4.0]), 1.0))
        np.testing.assert_allclose(consensus_reference(terms), [1.0])

    def test_median_robust_to_outlier(self):
        terms = tuple(AbsDev(np.array([v])) for v in (1.0, 2.0, 100.0))
        np.testing.assert_allclose(consensus_reference(terms), [2.0])
        terms = tuple(AbsDev(np.array([v])) for v in (0.0, 0.0, 10.0))
        np.testing.assert_allclose(consensus_reference(terms), [0.0])

    def test_lasso_mix_matches_subgradient_oracle(self):
        terms = (Quadratic(np.array([2.0]), 1.0), Quadratic(np.array([-1.0]), 0.5),
                 L1(1.0, dim=1))
        expect = scalar_subgrad_bisect(
            [("quad", 2.0, 1.0), ("quad", -1.0, 0.5), ("kink", 0.0, 1.0)],
            0.0, 0.0)
        got = consensus_reference(terms)
        np.testing.assert_allclose(got, [expect], atol=1e-9)

    def test_large_penalty_kills_coefficient(self):
        terms = (Quadratic(np.array([1.0]), 1.0), L1(10.0, dim=1))
        np.testing.assert_allclose(consensus_reference(terms), [0.0],
                                   atol=1e-10)

    def test_custom_mix_rejected(self):
        terms = (Quadratic(np.array([1.0])),
                 Custom(fn=lambda u: 0.0, dim=1, scalar_convex=True))
        with pytest.raises(UnsupportedMix):
            consensus_reference(terms)
