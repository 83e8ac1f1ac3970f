"""Every caller of the block kernel against the plain reference, bit for bit.

``run_batch`` (one seed by dependency level, several in lockstep),
``step`` and ``lyapunov_drift`` all fire blocks through
``engine._fire_lanes``. Each is
compared here with ``tests/reference.py``, which updates one block at a
time, one component and one z fit at a time (``fire_block``): runs with
``reference_run``, steps with ``fire_block`` on the drawn block, the drift
with ``reference_drift``. Problems mix Quadratic, AbsDev, L1 and Custom
terms, with kink coordinates that have no coupling row (solved one by one
inside the kernel) and hub components whose tilt sums are long; the
partitions have uneven blocks. A star past the lane limit
(``test_shadow_stack.star_hub``) runs with tilt rows gathered per kernel
call. Results are compared as bytes, or as the first error raised.
``consensus.edge_step``, which takes its endpoints' x from the kernel, is
checked against ``reference.plain_component`` in ``test_consensus``.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from asyncadmm import (BenchmarkSpec, Custom, Free, Graph, PrimalDualState,
                       ProbeFlags, Quadratic, RngStream, build_reformulation,
                       derive_probabilities, generate_benchmark, run_batch,
                       sample_block, step, uniform_probs)
from asyncadmm.diagnostics import WeightedNorm, lyapunov_drift

from reference import (assert_same_run, fire_block, reference_drift,
                       reference_run)
from test_batch import outcome, random_reference
from test_fullpass import KINDS, random_problem, random_vector
from test_shadow_stack import random_partition, star_hub

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
PROBLEMS = dict(n=st.sampled_from([1, 2]), N=st.integers(2, 6),
                hub_rows=st.sampled_from([0, 9]), uncoupled=st.booleans(),
                z_pairs=st.booleans(),
                kinds=st.lists(st.sampled_from(KINDS), min_size=6,
                               max_size=6))


def problem_case(data_seed, n, N, hub_rows, uncoupled, z_pairs, kinds):
    """A random problem (a Custom term only where ``n = 1``; with
    ``uncoupled``, a component whose second coordinate has no row) on a
    random partition into uneven blocks, and its distribution."""
    rng = np.random.default_rng(data_seed)
    if n > 1:
        kinds = [k if k != "custom" else "absdev" for k in kinds]
    prob = random_problem(rng, n, N, kinds, hub_rows, uncoupled and n > 1,
                          z_pairs)
    part = random_partition(rng, prob)
    return rng, prob, part, derive_probabilities(part, uniform_probs(part))


def random_state(rng, prob):
    return PrimalDualState(x=random_vector(rng, prob.dim_x),
                           z=random_vector(rng, prob.dim_z),
                           p=random_vector(rng, prob.dim_z))


def state_bytes(state):
    return [v.tobytes() for v in (state.x, state.z, state.p)]


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@SETTINGS
@given(data_seed=st.integers(0, 2 ** 32 - 1),
       S=st.sampled_from([1, 2, 3, 16]), probes=st.booleans(),
       T=st.integers(1, 40), stride=st.integers(1, 7), **PROBLEMS)
def test_run_batch_equals_reference(data_seed, S, probes, T, stride, n, N,
                                    hub_rows, uncoupled, z_pairs, kinds):
    """One seed fires by level, several in lockstep; probes all off or all
    on (the shadow probe makes one seed fire one lane per call)."""
    rng, prob, part, dist = problem_case(data_seed, n, N, hub_rows,
                                         uncoupled, z_pairs, kinds)
    flags = ProbeFlags(shadow=probes, lyapunov=probes, ergodic=probes)
    ref = random_reference(prob, rng)
    x0 = rng.uniform(-4.0, 4.0, prob.dim_x)
    seeds = rng.integers(0, 2 ** 63, size=S).tolist()
    want = [outcome(lambda: reference_run(prob, part, dist, seed, T,
                                          probes=flags, ref=ref, x0=x0,
                                          stride=stride))
            for seed in seeds]
    got = outcome(lambda: run_batch(prob, part, dist, seeds, T, probes=flags,
                                    ref=ref, x0=x0, stride=stride))
    if all(not isinstance(w, tuple) for w in want):
        for g, w in zip(got, want):
            assert_same_run(g, w)
    elif S == 1:
        assert got == want[0]
    else:
        # a lockstep batch raises the first error of its first failing
        # iteration, which is one of the failing seeds' errors
        assert got in [w for w in want if isinstance(w, tuple)]


@SETTINGS
@given(data_seed=st.integers(0, 2 ** 32 - 1), seed=st.integers(0, 2 ** 64 - 1),
       **PROBLEMS)
def test_step_equals_reference(data_seed, seed, n, N, hub_rows, uncoupled,
                               z_pairs, kinds):
    """One lane on a one-row copy: the drawn block's update, and the input
    state left as it was."""
    rng, prob, part, dist = problem_case(data_seed, n, N, hub_rows,
                                         uncoupled, z_pairs, kinds)
    state = random_state(rng, prob)
    before = state_bytes(state)
    b = sample_block(dist, RngStream(seed))

    def stepped():
        out = step(prob, state, part, dist, RngStream(seed))
        assert out.block == b and out.before is state
        return state_bytes(out.after)

    want = outcome(lambda: state_bytes(fire_block(prob, part, state, b)))
    assert outcome(stepped) == want
    assert state_bytes(state) == before


@SETTINGS
@given(data_seed=st.integers(0, 2 ** 32 - 1), **PROBLEMS)
def test_drift_equals_reference(data_seed, n, N, hub_rows, uncoupled,
                                z_pairs, kinds):
    rng, prob, part, dist = problem_case(data_seed, n, N, hub_rows,
                                         uncoupled, z_pairs, kinds)
    state = random_state(rng, prob)
    ref = random_reference(prob, rng)
    wn = WeightedNorm.from_distribution(dist)
    want = outcome(lambda: reference_drift(prob, state, part, dist, ref, wn))
    got = outcome(lambda: lyapunov_drift(prob, state, part, dist, ref, wn))
    if isinstance(want, tuple):
        assert got == want
    else:
        assert same_bits(got, want)


def test_custom_term_of_dim_two_raises_as_reference():
    """A Custom component of dimension 2 has no solver: the kernel raises
    the error of the component-by-component update."""
    custom = Custom(fn=lambda u: float(u @ u), dim=2, scalar_convex=True)
    terms = (Quadratic(np.zeros(2)), custom, Quadratic(np.ones(2)))
    reform = build_reformulation(Graph.cycle(3), terms,
                                 tuple(Free(2) for _ in terms), 1.0)
    prob, part = reform.problem, reform.partition
    dist = derive_probabilities(part, uniform_probs(part))
    want = outcome(lambda: reference_run(prob, part, dist, 3, 20))
    assert want[0].__name__ == "UnsupportedTerm"
    assert outcome(lambda: run_batch(prob, part, dist, [3], 20)) == want
    assert outcome(lambda: run_batch(prob, part, dist, [3, 4], 20)) == want


@pytest.mark.parametrize("probes", [ProbeFlags(),
                                    ProbeFlags(shadow=True, lyapunov=True,
                                               ergodic=True)],
                         ids=["no-probes", "all-probes"])
def test_one_seed_on_a_star_hub_past_the_lane_limit(probes):
    """Tilt rows gathered per kernel call; the shadow-probed three-seed
    run is in ``test_shadow_stack``."""
    prob, part = star_hub()
    dist = derive_probabilities(part, uniform_probs(part))
    rng = np.random.default_rng(2)
    ref = random_reference(prob, rng)
    # a random z0, so that the hub's tilt sums 725 nonzero rows
    start = dict(x0=rng.normal(size=prob.dim_x),
                 z0=prob.z_set.project(rng.normal(size=prob.dim_z)))
    got, = run_batch(prob, part, dist, [4], 10, probes=probes, ref=ref,
                     stride=3, **start)
    assert_same_run(got, reference_run(prob, part, dist, 4, 10,
                                       probes=probes, ref=ref, stride=3,
                                       **start))


def test_drift_on_a_star_hub_past_the_lane_limit():
    prob, part = star_hub()
    dist = derive_probabilities(part, uniform_probs(part))
    rng = np.random.default_rng(3)
    state = random_state(rng, prob)
    ref = random_reference(prob, rng)
    wn = WeightedNorm.from_distribution(dist)
    assert same_bits(lyapunov_drift(prob, state, part, dist, ref, wn),
                     reference_drift(prob, state, part, dist, ref, wn))


def test_drift_on_a_2000_node_cycle_in_bounded_memory():
    """The blocks fire in chunks of rows under the lane limit, so one call
    holds a few copies of the state, not one per block (2,000 here)."""
    a = np.random.default_rng(9).uniform(-5.0, 5.0, 2000)
    bench = generate_benchmark(BenchmarkSpec("consensus-quadratic",
                                             a=a.tolist()), Graph.cycle(2000))
    prob, part = bench.problem, bench.reform.partition
    dist = derive_probabilities(part, uniform_probs(part))
    rng = np.random.default_rng(10)
    state = random_state(rng, prob)
    ref = random_reference(prob, rng)
    wn = WeightedNorm.from_distribution(dist)
    want = reference_drift(prob, state, part, dist, ref, wn)
    lyapunov_drift(prob, state, part, dist, ref, wn)    # builds the tables
    tracemalloc.start()
    try:
        got = lyapunov_drift(prob, state, part, dist, ref, wn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert same_bits(got, want)
    assert peak <= 64 * 2 ** 20
