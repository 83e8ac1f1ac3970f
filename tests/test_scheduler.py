import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncadmm import (ConstraintSystem, Free, Graph, Quadratic, RngStream,
                       build_partition, build_reformulation,
                       derive_probabilities, sample_block,
                       single_block_partition, uniform_probs)
from asyncadmm.scheduler import blocks_for, draw_uniforms
from asyncadmm.errors import (ImproperPartition, NonCoveringPartition,
                              ZeroProbabilityBlock)

from reference import block_comps, reference_blocks, star_graph


def edge_problem(num_nodes=3, graph=None):
    g = graph or Graph.path(num_nodes)
    terms = tuple(Quadratic(np.array([float(i)])) for i in range(g.num_nodes))
    return build_reformulation(g, terms, tuple(Free(1) for _ in terms), 1.0)


class TestBuildPartition:
    def test_per_edge_blocks_are_proper(self):
        reform = edge_problem(3)
        part = reform.partition
        assert part.num_blocks == 2
        # edge blocks own exactly their two endpoints
        for e, (i, j) in enumerate(reform.graph.edges):
            assert set(block_comps(part, e).tolist()) == {i, j}

    def test_single_block_is_proper(self):
        reform = edge_problem(4)
        cs = reform.problem.constraints
        part = build_partition(reform.problem.z_set, cs, [range(cs.W)])
        assert part.num_blocks == 1
        assert block_comps(part, 0).tolist() == [0, 1, 2, 3]

    def test_coupled_rows_split_rejected(self):
        reform = edge_problem(2, graph=Graph(2, ((0, 1),)))
        cs = reform.problem.constraints
        with pytest.raises(ImproperPartition):
            build_partition(reform.problem.z_set, cs, [[0], [1]])

    def test_non_cover_rejected(self):
        reform = edge_problem(3)
        cs = reform.problem.constraints
        with pytest.raises(NonCoveringPartition):
            build_partition(reform.problem.z_set, cs, [[0, 1]])
        with pytest.raises(NonCoveringPartition):
            build_partition(reform.problem.z_set, cs, [[0, 1], [1, 2, 3]])

    def test_row_twice_in_one_block_rejected(self, two_row_problem):
        # accepted before, and the block table then failed to broadcast
        prob = two_row_problem
        with pytest.raises(NonCoveringPartition,
                           match="row 0 appears twice in block 0"):
            build_partition(prob.z_set, prob.constraints, [[0, 0], [1]])

    def test_component_union_covers_everything(self):
        for g in (Graph.cycle(6), star_graph(5), Graph.path(4)):
            reform = edge_problem(graph=g)
            part = reform.partition
            union = set()
            union.update(part.comps.tolist())
            assert union == set(range(g.num_nodes))


class TestDeriveProbabilities:
    def test_two_blocks_half_each(self):
        cs = ConstraintSystem(n=1, N=2, W=2,
                              entries=((0, 0, 1.0), (1, 1, 1.0)),
                              h_diag=np.array([-1.0, -1.0]))
        part = build_partition(Free(2), cs, [[0], [1]])
        dist = derive_probabilities(part, [0.5, 0.5])
        np.testing.assert_allclose(dist.alpha, [0.5, 0.5])
        np.testing.assert_allclose(dist.lam, [0.5, 0.5])

    def test_single_block_full_activation(self):
        reform = edge_problem(3)
        cs = reform.problem.constraints
        part = single_block_partition(cs)
        dist = derive_probabilities(part, [1.0])
        np.testing.assert_allclose(dist.lam, 1.0)
        np.testing.assert_allclose(dist.alpha, 1.0)
        np.testing.assert_allclose(dist.weight_diag, 1.0)

    def test_star_center_always_active(self):
        # enumeration oracle: alpha_i = sum of probs of blocks containing i
        m = 4
        reform = edge_problem(graph=star_graph(m + 1))
        part = reform.partition
        probs = uniform_probs(part)
        expect = np.zeros(m + 1)
        for b, comps in enumerate(np.split(part.comps, part.comp_ptr[1:-1])):
            for i in comps:
                expect[i] += probs[b]
        dist = derive_probabilities(part, probs)
        np.testing.assert_allclose(dist.alpha, expect)
        assert dist.alpha[0] == pytest.approx(1.0)
        np.testing.assert_allclose(dist.alpha[1:], 1.0 / m)

    def test_weight_times_lambda_is_one(self):
        reform = edge_problem(graph=Graph.cycle(5))
        dist = derive_probabilities(reform.partition,
                                    [0.1, 0.2, 0.3, 0.25, 0.15])
        np.testing.assert_array_equal(dist.weight_diag * dist.lam, 1.0)

    def test_zero_probability_rejected(self):
        reform = edge_problem(3)
        with pytest.raises(ZeroProbabilityBlock):
            derive_probabilities(reform.partition, [1.0, 0.0])
        with pytest.raises(ZeroProbabilityBlock):
            derive_probabilities(reform.partition, [0.6, 0.6])


class TestRngStream:
    def test_same_seed_same_sequence(self):
        a = RngStream(42)
        b = RngStream(42)
        assert [a.next_u64() for _ in range(10)] == \
            [b.next_u64() for _ in range(10)]
        assert a.next_u64() == b.next_u64()

    def test_known_splitmix64_values(self):
        # published SplitMix64 outputs for seed 1234567
        r = RngStream(1234567)
        assert r.next_u64() == 6457827717110365317
        assert r.next_u64() == 3203168211198807973

    def test_doubles_in_unit_interval(self):
        r = RngStream(9)
        us = [r.next_double() for _ in range(1000)]
        assert min(us) >= 0.0 and max(us) < 1.0

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 63, 2 ** 64 - 1, -1])
    def test_vectorized_draws_equal_sequential(self, seed):
        vec, seq = RngStream(seed), RngStream(seed)
        # start mid-stream, and cross a chunk of draws
        vec.next_double()
        seq.next_double()
        got = np.concatenate([draw_uniforms([vec], 5)[:, 0],
                              draw_uniforms([vec], 300)[:, 0]])
        want = np.array([seq.next_double() for _ in range(305)])
        np.testing.assert_array_equal(got, want)
        assert vec.next_u64() == seq.next_u64()

    def test_stream_matrix_matches_each_stream(self):
        seeds = [0, 5, 2 ** 64 - 1, -1]
        streams = [RngStream(s) for s in seeds]
        draws = draw_uniforms(streams, 40)
        assert draws.shape == (40, 4)
        for col, seed in enumerate(seeds):
            r = RngStream(seed)
            np.testing.assert_array_equal(
                draws[:, col], [r.next_double() for _ in range(40)])
            assert streams[col].next_u64() == r.next_u64()


class TestSampleBlock:
    def test_blocks_for_matches_sample_block(self):
        """Both give the plain inverse CDF's blocks (``reference_blocks``)."""
        reform = edge_problem(graph=star_graph(6))
        dist = derive_probabilities(reform.partition, [0.1, 0.4, 0.2, 0.2,
                                                       0.1])
        u = draw_uniforms([RngStream(3)], 500)[:, 0]
        want = reference_blocks(dist, u)
        rng = RngStream(3)
        assert [sample_block(dist, rng) for _ in range(500)] == want.tolist()
        got = blocks_for(dist, u)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_degenerate_distribution(self):
        reform = edge_problem(2, graph=Graph(2, ((0, 1),)))
        dist = derive_probabilities(reform.partition, [1.0])
        rng = RngStream(0)
        assert all(sample_block(dist, rng) == 0 for _ in range(100))

    def test_empirical_frequencies(self):
        cs = ConstraintSystem(n=1, N=2, W=2,
                              entries=((0, 0, 1.0), (1, 1, 1.0)),
                              h_diag=np.array([-1.0, -1.0]))
        part = build_partition(Free(2), cs, [[0], [1]])
        dist = derive_probabilities(part, [0.5, 0.5])
        rng = RngStream(123)
        draws = 100_000
        ones = sum(sample_block(dist, rng) for _ in range(draws))
        assert abs(ones / draws - 0.5) < 0.01

    def test_row_frequency_within_three_sigma(self):
        reform = edge_problem(graph=Graph.cycle(5))
        probs = np.array([0.1, 0.15, 0.2, 0.25, 0.3])
        dist = derive_probabilities(reform.partition, probs)
        rng = RngStream(77)
        draws = 100_000
        counts = np.zeros(len(probs))
        for _ in range(draws):
            counts[sample_block(dist, rng)] += 1
        for b, prob in enumerate(probs):
            sigma = np.sqrt(prob * (1 - prob) / draws)
            assert abs(counts[b] / draws - prob) < 3.0 * sigma

    def test_determinism_across_streams(self):
        reform = edge_problem(graph=Graph.cycle(4))
        dist = derive_probabilities(reform.partition, uniform_probs(reform.partition))
        seq1 = [sample_block(dist, RngStream(5)) for _ in range(1)]
        a, b = RngStream(5), RngStream(5)
        s1 = [sample_block(dist, a) for _ in range(50)]
        s2 = [sample_block(dist, b) for _ in range(50)]
        assert s1 == s2


def one_row_blocks(probs):
    """``derive_probabilities`` over ``len(probs)`` blocks of one row each."""
    m = len(probs)
    cs = ConstraintSystem(n=1, N=m, W=m,
                          entries=tuple((r, r, 1.0) for r in range(m)),
                          h_diag=-np.ones(m))
    return derive_probabilities(build_partition(Free(m), cs,
                                                [[r] for r in range(m)]),
                                probs)


def skewed(m, at):
    """Block ``at`` has probability 1 - 1e-9; the rest share 1e-9, so one
    bucket holds nearly every boundary."""
    probs = np.full(m, 1e-9 / (m - 1))
    probs[at] = 1.0 - 1e-9
    return probs


def edge_uniforms(dist):
    """Every cumulative probability and bucket edge ``b/m`` with both
    neighbours, 0 and the largest uniform below 1."""
    m = dist.block_probs.size
    points = np.concatenate([dist.cum_probs, np.arange(m + 1) / m])
    return np.concatenate([points, np.nextafter(points, -1.0),
                           np.nextafter(points, 2.0), [0.0, 1 - 2 ** -53]])


def assert_bucket_map(dist, u):
    """``blocks_for`` equals the plain inverse CDF on ``u`` as given and
    as the columns of an ``(n, 3)`` draw array, dtype and bytes."""
    u = np.asarray(u, dtype=float)
    n = u.size - u.size % 3
    for draws in (u, u[:n].reshape(-1, 3)):
        got, want = blocks_for(dist, draws), reference_blocks(dist, draws)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def largest_bucket(dist):
    """The most cumulative probabilities in one bucket ``min(floor(c m),
    m)``, counted one entry at a time."""
    m = dist.block_probs.size
    counts = {}
    for c in dist.cum_probs.tolist():
        b = min(math.floor(c * m), m)
        counts[b] = counts.get(b, 0) + 1
    return max(counts.values())


class TestBucketMap:
    @pytest.mark.parametrize("m", [1, 2, 5, 2000])
    def test_uniform_probabilities(self, m):
        dist = one_row_blocks(np.full(m, 1.0 / m))
        assert len(dist.steps) == math.ceil(math.log2(largest_bucket(dist)
                                                      + 1))
        rng = np.random.default_rng(m)
        assert_bucket_map(dist, np.concatenate([edge_uniforms(dist),
                                                rng.random(3000)]))

    @pytest.mark.parametrize("at", [0, 1000, 1999])
    def test_skewed_probabilities(self, at):
        dist = one_row_blocks(skewed(2000, at))
        rng = np.random.default_rng(at)
        near = rng.random(3000) * 2e-9   # the crowded ends
        assert_bucket_map(dist, np.concatenate([edge_uniforms(dist), near,
                                                1.0 - near,
                                                rng.random(3000)]))

    def test_rounds_are_bounded_by_the_largest_bucket(self):
        """A skewed distribution puts 1,999 boundaries in one bucket; the
        bisection reads ``cum_probs`` once per round, 11 times, not once
        per boundary in the bucket."""
        dist = one_row_blocks(skewed(2000, 0))
        widest = largest_bucket(dist)
        assert widest == 1999
        reads = []

        class Counting(np.ndarray):
            def take(self, *args, **kwargs):
                reads.append(1)
                return np.asarray(self).take(*args, **kwargs)

        u = np.concatenate([edge_uniforms(dist), [1.0 - 1e-10]])
        want = reference_blocks(dist, u)
        dist.cum_probs = dist.cum_probs.view(Counting)
        got = blocks_for(dist, u)
        assert got.tobytes() == want.tobytes()
        assert len(reads) == len(dist.steps) \
            == math.ceil(math.log2(widest + 1)) == 11

    def test_sums_past_one_are_cut_to_one(self):
        """Rounding can take a running sum past 1 before the last block;
        ``cum_probs`` stays sorted, so the map holds at ``u = 1`` too."""
        probs = np.array([0.875, 0.9375, 0.0625, 0.09375, 1.0, 1.0, 0.25,
                          0.015625]) ** 9
        probs /= probs.sum()
        assert np.cumsum(probs)[-2] > 1.0
        dist = one_row_blocks(probs)
        assert np.all(np.diff(dist.cum_probs) >= 0)
        assert dist.cum_probs[-2:].tolist() == [1.0, 1.0]
        assert_bucket_map(dist, edge_uniforms(dist))

    @settings(max_examples=60, deadline=None)
    @given(weights=st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=300),
           power=st.integers(1, 12), data=st.data())
    def test_derived_probabilities(self, weights, power, data):
        """Random distributions as ``derive_probabilities`` makes them
        (``cum_probs[-1] = 1``), at their edges and random uniforms."""
        probs = np.asarray(weights) ** power
        dist = one_row_blocks(probs / probs.sum())
        assert dist.cum_probs[-1] == 1.0
        assert len(dist.steps) == math.ceil(math.log2(largest_bucket(dist)
                                                      + 1))
        edges = edge_uniforms(dist)
        picked = data.draw(st.lists(st.sampled_from(edges.tolist())
                                    | st.floats(0.0, 1.0, exclude_max=True),
                                    min_size=1, max_size=60))
        assert_bucket_map(dist, np.concatenate([edges, picked]))
