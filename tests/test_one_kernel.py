"""Every caller of the block kernel against the plain reference, bit for bit.

``run_batch`` (one seed by dependency level, several in lockstep),
``step`` and ``lyapunov_drift`` all fire blocks through
``compiled._fire_lanes``. Each is
compared here with ``tests/reference.py``, which updates one block at a
time, one component and one z fit at a time (``fire_block``): runs with
``reference_run``, steps with ``fire_block`` on the drawn block, the drift
with ``reference_drift``. Problems mix Quadratic, AbsDev, L1 and Custom
terms, with kink coordinates that have no coupling row (solved one by one
inside the kernel) and hub components whose tilt sums are long; the
partitions have uneven blocks. A star past the lane limit
(``test_shadow_stack.star_hub``) runs with the hub's tail rows gathered
per kernel call. Results are compared as bytes, or as the first error raised.
The drift is also compared, within rounding, with the probability-
weighted mean of every block's Lyapunov value (``per_block_drift``),
and spies check that ``step``, ``edge_step`` and the drift fire on one
row in the runs' layout, the drift every block in one call.
``consensus.edge_step``, which takes its endpoints' x from the kernel, is
checked against ``reference.plain_component`` in ``test_consensus``.
A lockstep run fires the kernel through its binding (``compiled._Lanes``),
which is compared with ``_fire_lanes`` byte for byte on every kind of
table, and is made once per run.
"""

from functools import lru_cache

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from asyncadmm import (BenchmarkSpec, Custom, Free, Graph, PrimalDualState,
                       ProbeFlags, Quadratic, RngStream, build_reformulation,
                       derive_probabilities, generate_benchmark, run_batch,
                       sample_block, step, uniform_probs)
from asyncadmm import compiled, diagnostics, engine
from asyncadmm.consensus import edge_step
from asyncadmm.diagnostics import lyapunov_drift

from reference import (assert_same_run, fire_block, per_block_drift,
                       plain_lyapunov, reference_drift, reference_run,
                       star_graph, weighted_norm)
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
    wn = weighted_norm(dist)
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
    """The hub's tail rows gathered per kernel call; the shadow-probed
    three-seed run is in ``test_shadow_stack``."""
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


@SETTINGS
@given(data_seed=st.integers(0, 2 ** 32 - 1), **PROBLEMS)
def test_drift_is_the_mean_of_the_blocks_values(data_seed, n, N, hub_rows,
                                                uncoupled, z_pairs, kinds):
    """The drift summed by rows equals the probability-weighted mean of
    every block's Lyapunov value less the value now, within rounding."""
    rng, prob, part, dist = problem_case(data_seed, n, N, hub_rows,
                                         uncoupled, z_pairs, kinds)
    state = random_state(rng, prob)
    ref = random_reference(prob, rng)
    wn = weighted_norm(dist)
    want = outcome(lambda: per_block_drift(prob, state, part, dist, ref, wn))
    got = outcome(lambda: lyapunov_drift(prob, state, part, dist, ref, wn))
    if isinstance(want, tuple):
        assert got == want
    else:
        scale = max(1.0, abs(plain_lyapunov(prob, dist, ref, state.z,
                                            state.p)))
        assert abs(got - want) <= 1e-12 * scale


def drift_case(prob, part, seed):
    dist = derive_probabilities(part, uniform_probs(part))
    rng = np.random.default_rng(seed)
    state = random_state(rng, prob)
    return state, dist, random_reference(prob, rng), \
        weighted_norm(dist)


def peak_of(fn):
    """``fn()`` and the peak of the memory it traced."""
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def cycle_2000():
    a = np.random.default_rng(9).uniform(-5.0, 5.0, 2000)
    bench = generate_benchmark(BenchmarkSpec("consensus-quadratic",
                                             a=a.tolist()), Graph.cycle(2000))
    return bench.problem, bench.reform.partition


def test_drift_on_a_star_hub_past_the_lane_limit():
    """The blocks fire in chunks of lanes, each chunk from the state, and
    the chunk bound counts the arrays each call makes from its tail rows."""
    prob, part = star_hub()
    state, dist, ref, wn = drift_case(prob, part, 3)
    want = reference_drift(prob, state, part, dist, ref, wn)
    lyapunov_drift(prob, state, part, dist, ref, wn)    # builds the tables
    got, peak = peak_of(lambda: lyapunov_drift(prob, state, part, dist, ref,
                                               wn))
    assert same_bits(got, want)
    assert peak <= 16 * 2 ** 20


def test_drift_on_a_2000_node_cycle_in_bounded_memory():
    """Every block fires once on one row: no copy of the state per block
    (2,000 here), no Lyapunov value per block."""
    prob, part = cycle_2000()
    state, dist, ref, wn = drift_case(prob, part, 10)
    want = reference_drift(prob, state, part, dist, ref, wn)
    lyapunov_drift(prob, state, part, dist, ref, wn)    # builds the tables
    got, peak = peak_of(lambda: lyapunov_drift(prob, state, part, dist, ref,
                                               wn))
    assert same_bits(got, want)
    assert peak <= 4 * 2 ** 20


def chord_cycle(chords, nodes=40):
    """A cycle whose node 0 is also joined to nodes 2, 3, ... by ``chords``
    more edges: a hub of ``chords + 2`` rows."""
    edges = np.array([(0, j) for j in range(2, 2 + chords)],
                     dtype=np.intp).reshape(-1, 2)
    a = np.random.default_rng(chords).uniform(-5.0, 5.0, nodes)
    bench = generate_benchmark(
        BenchmarkSpec("consensus-quadratic", a=a.tolist()),
        Graph(nodes, np.concatenate([Graph.cycle(nodes).edges, edges])))
    return bench.problem, bench.reform.partition


# a lane limit that holds two tilt terms per lane on every chord cycle, so
# that the hub's rows past them, and a chord's third row, are tails
CHORD_LIMIT = 280


class CountingRow(np.ndarray):
    """A flat state that records the size of every gather from it."""

    def take(self, indices, *args, **kwargs):
        self.gathers.append(np.size(indices))
        return self.view(np.ndarray).take(indices, *args, **kwargs)


def test_tilt_terms_do_not_grow_with_the_hub(monkeypatch):
    """The blocks whose lanes have at most K rows fire with one gather of
    their table columns (without ergodic sums, the tilt and moved rows),
    K tilt terms per lane, whatever the hub's degree; the others add one
    gather of their lanes' rows past K, padded."""
    monkeypatch.setattr(compiled, "_BATCH_LANE_LIMIT", CHORD_LIMIT)
    columns = set()
    for chords in (0, 8, 30):
        prob, part = chord_cycle(chords)
        bt = compiled._block_table(prob, part)
        rows = np.append(engine._ops(prob).counts, 0)[bt.tails[2]]
        short = (rows <= bt.K).all(axis=0)
        columns.add((bt.K, len(bt.idx)))
        for blocks in (np.flatnonzero(short), np.flatnonzero(~short)):
            if not blocks.size:
                continue
            flat = bt.layout(np.zeros(prob.dim_x), np.zeros(prob.dim_z),
                             np.zeros(prob.dim_z)).reshape(-1)
            flat = flat.view(CountingRow)
            flat.gathers = []
            compiled._fire_lanes(bt, flat, blocks)
            tails = rows[:, blocks] - bt.K
            want = [bt.plain * blocks.size]
            if tails.max() > 0:
                want.append(2 * tails.max() * (tails > 0).sum())
            assert flat.gathers == want
        assert short.all() == (chords == 0)
    assert columns == {(2, len(bt.idx))}


@pytest.mark.parametrize("kind", ["quadratic-cycle", "custom-lanes",
                                  "star-hub-tails"])
def test_a_plain_call_gathers_only_the_rows_it_reads(kind):
    """The table's rows are the tilt lanes, the moved slots, then their
    since and acc: a call without ``k`` gathers the first ``plain`` rows
    per lane, none of the sums; with ``k``, every row."""
    prob, bt = table_of(kind)
    ic = bt.icol
    assert (ic["tilt_p"].start, ic["tilt_z"].stop, ic["p"].stop,
            ic["acc"].stop) == (0, bt.m0, bt.plain, len(bt.idx))
    assert ic["since"].start == bt.plain == bt.m0 + bt.M
    blocks = np.arange(min(bt.idx.shape[1], 16))
    for k, rows in ((None, bt.plain), (7, len(bt.idx))):
        flat = bt.layout(np.zeros(prob.dim_x), np.zeros(prob.dim_z),
                         np.zeros(prob.dim_z)).reshape(-1).view(CountingRow)
        flat.gathers = []
        outcome(lambda: compiled._fire_lanes(bt, flat, blocks, k))
        assert flat.gathers[0] == rows * blocks.size


def test_tilt_width_follows_the_row_counts():
    """Under the default lane limit: 2 on a 2,000-cycle, without tails; 3
    once node 0 is also joined to 64 nodes, with tails on the hub's lanes
    only; a 100-leaf star's whole degree, where padding every lane costs
    less than a gather per block."""
    star = generate_benchmark(BenchmarkSpec("consensus-quadratic"),
                              star_graph(101))
    for (prob, part), K, hub in [(chord_cycle(0, 2000), 2, False),
                                 (chord_cycle(64, 2000), 3, True),
                                 ((star.problem, star.reform.partition), 100,
                                  False)]:
        bt = compiled._block_table(prob, part)
        count, _, x = bt.tails
        assert bt.K == K and set(x[count > 0].tolist()) == ({0} if hub
                                                             else set())


@pytest.mark.parametrize("chords", [0, 8, 30])
def test_runs_on_a_chord_hub_equal_reference(monkeypatch, chords):
    """With the hub's rows past K in tails: one seed by level, three seeds
    in lockstep with the shadow probe, and the drift (fired in chunks)."""
    monkeypatch.setattr(compiled, "_BATCH_LANE_LIMIT", CHORD_LIMIT)
    prob, part = chord_cycle(chords)
    assert (compiled._block_table(prob, part).tail_terms > 0) == (chords > 0)
    state, dist, ref, wn = drift_case(prob, part, chords)
    assert same_bits(lyapunov_drift(prob, state, part, dist, ref, wn),
                     reference_drift(prob, state, part, dist, ref, wn))
    start = dict(x0=state.x, z0=prob.z_set.project(state.z), ref=ref,
                 stride=7)
    for seeds, probes in (([4], ProbeFlags(lyapunov=True, ergodic=True)),
                          ([0, 5, 2 ** 64 - 1],
                           ProbeFlags(shadow=True, lyapunov=True,
                                      ergodic=True))):
        got = run_batch(prob, part, dist, seeds, 150, probes=probes, **start)
        for seed, m in zip(seeds, got):
            assert_same_run(m, reference_run(prob, part, dist, seed, 150,
                                             probes=probes, **start))


def kernel_rows(monkeypatch, caller):
    """Every kernel call that code of the module ``caller`` makes: its
    table, row (as the call left it), blocks and iteration."""
    calls = []
    fire = compiled._fire_lanes

    def spy(bt, flat, blocks, k=None):
        out = fire(bt, flat, blocks, k)
        calls.append((bt, flat.copy(), blocks.tolist(), k))
        return out

    monkeypatch.setattr(caller, "_fire_lanes", spy)
    return calls


@pytest.mark.parametrize("graph", ["cycle5", "cycle2000"])
def test_drift_fires_every_block_in_one_kernel_call(monkeypatch, graph):
    """Within the lane limit: one call whose lanes are every block, on one
    row in the runs' layout, and the Lyapunov value of two points."""
    if graph == "cycle5":
        bench = generate_benchmark(BenchmarkSpec(
            "consensus-lad", a=[1.0, -2.0, 3.0, 0.5, 4.0]), Graph.cycle(5))
        prob, part = bench.problem, bench.reform.partition
    else:
        prob, part = cycle_2000()
    state, dist, ref, wn = drift_case(prob, part, 5)
    calls = kernel_rows(monkeypatch, compiled)
    values = []
    rows = diagnostics.lyapunov_rows

    def lyapunov_spy(prob, w, ref, z, p):
        values.append(np.shape(z))
        return rows(prob, w, ref, z, p)

    monkeypatch.setattr(diagnostics, "lyapunov_rows", lyapunov_spy)
    lyapunov_drift(prob, state, part, dist, ref, wn)
    (bt, row, blocks, k), = calls
    assert blocks == list(range(part.num_blocks)) and k is None
    assert_laid_out(bt, row, state)
    assert values == [(prob.dim_z,)] * 2


def assert_laid_out(bt, row, state):
    """``row`` is one row of ``bt``'s layout (``_BlockTable.layout``) of
    ``state`` after a call without ergodic sums: the sums empty, the
    dummy slots zero."""
    assert row.shape == (bt.width,)
    want = bt.layout(state.x, state.z, state.p)
    live = np.zeros(bt.width, dtype=bool)
    for view in bt.views(live):
        view[...] = True
    assert row[~live].tobytes() == want[~live].tobytes()


def test_step_and_edge_step_fire_one_lane_on_one_row(monkeypatch):
    bench = generate_benchmark(BenchmarkSpec(
        "consensus-quadratic", a=[1.0, -2.0, 3.0, 0.5, 4.0]), Graph.cycle(5))
    prob, part = bench.problem, bench.reform.partition
    state, dist, _, _ = drift_case(prob, part, 6)
    calls = kernel_rows(monkeypatch, compiled)
    out = step(prob, state, part, dist, RngStream(1))
    edge_step(bench.reform, state, 3)
    (bt, row, blocks, k), (bt2, row2, blocks2, k2) = calls
    assert (blocks, k, blocks2, k2) == ([out.block], None, [3], None)
    assert bt2 is bt
    assert_laid_out(bt, row, state)
    assert_laid_out(bt, row2, state)


def cycle_table(name):
    bench = generate_benchmark(BenchmarkSpec(name), Graph.cycle(5))
    return bench.problem, bench.reform.partition


def random_table(seed, n, kinds, uncoupled):
    rng = np.random.default_rng(seed)
    prob = random_problem(rng, n, len(kinds), kinds, 9, uncoupled, True)
    return prob, random_partition(rng, prob)


# every kind of table a lockstep run meets: quadratic and kink lanes alone
# and mixed, Custom lanes and kink lanes without a coupling row (solved
# one by one), hub tails at K = 3 and at K = 1
TABLES = {
    "quadratic-cycle": lambda: cycle_table("consensus-quadratic"),
    "lad-cycle": lambda: cycle_table("consensus-lad"),
    "custom-lanes": lambda: random_table(
        5, 1, ["quadratic", "custom", "absdev", "l1", "custom", "quadratic"],
        False),
    "kink-lanes-without-rows": lambda: random_table(
        6, 2, ["absdev", "l1", "quadratic", "absdev", "l1"], True),
    "chord-hub-tails": lambda: chord_cycle(64, 2000),
    "star-hub-tails": star_hub,
}


@lru_cache(maxsize=None)
def table_of(kind):
    prob, part = TABLES[kind]()
    bt = compiled._block_table(prob, part)
    prox = bt.prox
    assert {"custom-lanes": any(i >= 0 for i, _ in prox.serial)
            and "is_quad" in prox.args,
            "kink-lanes-without-rows": any(i < 0 for i, _ in prox.serial),
            "chord-hub-tails": bt.K == 3 and bt.tail_terms > 0,
            "star-hub-tails": bt.K == 1 and bt.tail_terms > 0}.get(kind, True)
    return prob, bt


@pytest.mark.parametrize("k", ["none", "one", "per-lane"])
@pytest.mark.parametrize("L", [1, 3, 16])
@pytest.mark.parametrize("kind", TABLES)
def test_the_binding_fires_as_the_kernel(kind, L, k):
    """Two calls of one binding on ``L`` stacked lanes (lane ``l`` on row
    ``l``; with the ergodic sums when there is a ``k``) against
    ``_fire_lanes`` on each row alone, with the same blocks: the same
    magnitudes or error, and the same rows, byte for byte (every slot
    written, the rest untouched); the second call reads nothing the first
    left in the scratch. The binding's running maxima, reduced by the
    table's groups, are the maxima of each call's reduced magnitudes, and
    its ``top`` the call's largest magnitude."""
    prob, bt = table_of(kind)
    rng = np.random.default_rng(L)
    want = bt.layout(*(random_vector(rng, (L, d))
                       for d in (prob.dim_x, prob.dim_z, prob.dim_z)))
    want[:, bt.seg:] = rng.integers(1, 9, size=(L, 2 * bt.seg))
    got = want.copy()
    k = {"none": None, "one": 12, "per-lane": np.arange(12, 12 + L)}[k]
    maxima, top = np.zeros((bt.M, L)), np.zeros((3, L))
    kernel = compiled._Lanes(bt, got.reshape(-1), L, maxima, k is not None)
    for _ in range(2):
        blocks = rng.integers(0, bt.idx.shape[1], size=L)
        mag = outcome(lambda: np.concatenate([
            compiled._fire_lanes(bt, want[l], blocks[l:l + 1],
                               k if np.ndim(k) == 0 else k[l:l + 1])
            for l in range(L)], axis=1))
        fired = outcome(lambda: kernel.fire(blocks, k).tobytes())
        if isinstance(mag, tuple):
            assert fired == mag
        else:
            assert fired == mag.tobytes()
            # the guard's maximum, read after the call
            assert kernel.top.tobytes() == mag.max().tobytes()
            np.maximum(top, np.maximum.reduceat(mag, bt.cuts), out=top)
        assert got.tobytes() == want.tobytes()
        assert np.maximum.reduceat(maxima, bt.cuts).tobytes() == top.tobytes()


@pytest.mark.parametrize("seeds, stride", [([3], 9), ([3], 7),
                                           ([0, 5, 2 ** 64 - 1], 7)],
                         ids=["by-level", "lone-lockstep", "lockstep"])
def test_a_run_without_the_ergodic_probe_keeps_no_sums(monkeypatch, seeds,
                                                       stride):
    """Without the ergodic probe no kernel call gets a ``k`` and the record
    at ``T`` flushes nothing: every row keeps the ``since`` and ``acc``
    that ``layout`` made, and ``x_bar`` and ``z_bar`` are NaN of the
    usual shapes."""
    prob, part = cycle_table("consensus-lad")
    dist = derive_probabilities(part, uniform_probs(part))
    rows, bind = [], compiled._Lanes.__init__

    def binding(self, bt, flat, L, maxima, ergodic):
        bind(self, bt, flat, L, maxima, ergodic)
        rows.append((bt, flat))

    monkeypatch.setattr(compiled._Lanes, "__init__", binding)
    calls = kernel_rows(monkeypatch, engine)
    got = run_batch(prob, part, dist, seeds, 300, stride=stride)
    assert all(k is None for *_, k in calls)
    rows += [(bt, row) for bt, row, _, _ in calls]
    by_level = len(seeds) == 1 and stride >= 8
    assert len(rows) == (len(calls) if by_level else 1) > 0
    for bt, row in rows:
        sums = row.reshape(-1, bt.width)[:, bt.seg:]
        empty = bt.layout(np.zeros(prob.dim_x), np.zeros(prob.dim_z),
                          np.zeros(prob.dim_z))[bt.seg:]
        assert sums.tobytes() == np.tile(empty, (len(seeds), 1)).tobytes()
    for m in got:
        assert m.x_bar.shape == (prob.dim_x,) and np.isnan(m.x_bar).all()
        assert m.z_bar.shape == (prob.dim_z,) and np.isnan(m.z_bar).all()


def test_a_lockstep_run_binds_the_kernel_once(monkeypatch):
    """One binding per lockstep run, of the seed count, whatever its
    chunks and record points; none for one seed by level (record segments
    of 8 draws or more); one of one lane for a lone seed with shorter
    segments or with the shadow probe."""
    prob, part = cycle_table("consensus-quadratic")
    dist = derive_probabilities(part, uniform_probs(part))
    made = []
    bind = compiled._Lanes.__init__

    def counting(self, bt, flat, L, maxima, ergodic):
        made.append(L)
        bind(self, bt, flat, L, maxima, ergodic)

    monkeypatch.setattr(compiled._Lanes, "__init__", counting)
    for seeds, probes, stride, want in (
            (range(16), ProbeFlags(), 7, [16]), ([3], ProbeFlags(), 8, []),
            ([3], ProbeFlags(), 7, [1]), ([3], ProbeFlags(), 300, []),
            ([3], ProbeFlags(shadow=True), 7, [1])):
        made.clear()
        run_batch(prob, part, dist, seeds, 300, probes=probes, stride=stride)
        assert made == want
