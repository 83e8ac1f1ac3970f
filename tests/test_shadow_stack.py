"""The stacked shadow probe against the per-seed reference, bit for bit.

``run_batch`` takes one shadow pass (:func:`asyncadmm.shadow_step` on the
``(n S, ·)`` rows of every seed's pre-step states) and one tally
(``engine._tally_shadow``) per block of ``n`` iterations for all seeds.
Each is compared here with the per-seed reference
of ``tests/reference.py``: its 1-D pass (``plain_shadow``) and its tally
(``plain_tally``), seed by seed. The pass is compared as bytes, or as the
first error raised; the tally counter for counter, on lane tables with
every kind of x lane: closed forms only, one-by-one lanes (``Custom``
terms, kink coordinates without a coupling row), and a star hub past
``engine._BATCH_LANE_LIMIT``, whose tail rows each kernel call gathers.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from asyncadmm import (BenchmarkSpec, Custom, Graph, PrimalDualState,
                       ProbeFlags, StepRecord, SumZeroPairs, build_partition,
                       derive_probabilities, generate_benchmark, run_batch,
                       shadow_step, uniform_probs)
from asyncadmm import engine
from asyncadmm.errors import UnboundedSubproblem

from reference import (assert_same_run, fire_block, moved_groups,
                       plain_shadow, plain_tally, reference_run, stacked)
from test_fullpass import (KINDS, TAMPERS, Q, engine_tally, random_problem,
                           random_vector, scalar_problem, tamper)

STACKS = st.sampled_from([1, 2, 3, 16])
SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def point(rng, prob, parked):
    """A random state, or the zero state a guard failure parks a row at."""
    if parked:
        return PrimalDualState(x=np.zeros(prob.dim_x), z=np.zeros(prob.dim_z),
                               p=np.zeros(prob.dim_z))
    return PrimalDualState(x=random_vector(rng, prob.dim_x),
                           z=random_vector(rng, prob.dim_z),
                           p=random_vector(rng, prob.dim_z))


def outcome(fn):
    """The bytes of every array returned, or the type and message of the
    error raised."""
    try:
        return [a.tobytes() for a in fn()]
    except RuntimeWarning:
        raise
    except Exception as exc:  # the error raised first is part of the result
        return type(exc), str(exc)


@SETTINGS
@given(data_seed=st.integers(0, 2 ** 32 - 1), S=STACKS,
       n=st.sampled_from([1, 2]), N=st.integers(1, 6),
       hub_rows=st.sampled_from([0, 9]), uncoupled=st.booleans(),
       z_pairs=st.booleans(),
       kinds=st.lists(st.sampled_from(KINDS), min_size=6, max_size=6))
def test_stacked_shadow_equals_per_seed(data_seed, S, n, N, hub_rows,
                                        uncoupled, z_pairs, kinds):
    """Every kind mix, kink coordinates without a coupling row (which can
    raise), z pairs, and rows parked at zero."""
    rng = np.random.default_rng(data_seed)
    if n > 1:
        # a Custom term of dimension 2 only raises
        kinds = [k if k != "custom" else "absdev" for k in kinds]
    prob = random_problem(rng, n, N, kinds, hub_rows, uncoupled and n > 1,
                          z_pairs)
    rows = [point(rng, prob, rng.random() < 0.2) for _ in range(S)]

    def per_seed():
        passes = [plain_shadow(prob, row) for row in rows]
        return [np.stack(part) for part in zip(*passes)]

    def stacked_pass():
        sh = shadow_step(prob, PrimalDualState(
            x=np.stack([r.x for r in rows]), z=np.stack([r.z for r in rows]),
            p=np.stack([r.p for r in rows])))
        return sh.y, sh.v, sh.mu, sh.r

    assert outcome(stacked_pass) == outcome(per_seed)


def one_sided(u):
    """Zero on [-1.5, 1.5]; past either end an error naming the side."""
    if u[0] < -1.5:
        raise ValueError("left")
    if u[0] > 1.5:
        raise ValueError("right")
    return 0.0


@pytest.mark.parametrize("tilts,error", [
    ((1.0, -1.0), "right"), ((-1.0, 1.0), "left"), ((0.0, 0.0, -1.0), "left"),
    ((0.0,) * 15 + (1.0,), "right")])
def test_first_error_is_the_first_rows(tilts, error):
    """Each row's bisection leaves the safe range on the side its tilt
    points to, so the error raised names the first row that raises."""
    prob = scalar_problem([Q, Custom(fn=one_sided, dim=1, scalar_convex=True),
                           Q])
    p = np.zeros((len(tilts), prob.dim_z))
    p[:, 3] = tilts    # the tilt of component 1, with q = 0.02
    rows = [PrimalDualState(x=np.zeros(prob.dim_x), z=np.zeros(prob.dim_z),
                            p=row) for row in p]
    with pytest.raises(ValueError, match=error):
        for row in rows:
            plain_shadow(prob, row)
    with pytest.raises(ValueError, match=error):
        shadow_step(prob, PrimalDualState(x=np.zeros((len(tilts), 3)),
                                          z=np.zeros_like(p), p=p))


def random_partition(rng, prob):
    """The rows in random blocks (at least two when there are two rows or
    pairs), each z pair inside one block."""
    W = prob.dim_z
    group = np.arange(W)
    if isinstance(prob.z_set, SumZeroPairs):
        for i, j in prob.z_set.pairs:
            group[j] = i
    nb = int(rng.integers(2, W + 1))
    block_of = rng.integers(0, nb, size=W)[group]
    blocks = [np.flatnonzero(block_of == b) for b in range(nb)]
    return build_partition(prob.z_set, prob.constraints,
                           [b for b in blocks if b.size])


def check_tally(prob, part, rng, S, kind, parked):
    """One step per seed, one row tampered ``kind``; the engine's one
    stacked tally against the reference tally of each seed."""
    n, N, W = prob.constraints.n, prob.num_components, prob.dim_z
    blocks = rng.integers(0, len(part.blocks), size=S)
    # a tamper of a frozen coordinate needs a component and a row that the
    # block leaves alone
    open_rows = [s for s, b in enumerate(blocks)
                 if len(part.component_map[b]) < N and len(part.blocks[b]) < W]
    assume(kind == "none" or open_rows)
    hit = open_rows[int(rng.integers(len(open_rows)))] if open_rows else -1
    befores, afters, shadows, want = [], [], [], []
    for s, b in enumerate(blocks):
        before = point(rng, prob, parked and s % 2 == 0)
        try:
            after = fire_block(prob, part, before, b)
            shadow = plain_shadow(prob, before)
        except UnboundedSubproblem:
            # a kink coordinate without a coupling row, tilted past its kink
            assume(False)
        if s == hit:
            before, after = tamper(kind, StepRecord(block=int(b), before=before,
                                                    after=after), part, n)
        counters = dict.fromkeys(engine._TALLY, 0)
        plain_tally(moved_groups(prob, part, b), stacked(before),
                    stacked(after), shadow, counters)
        befores.append(before)
        afters.append(after)
        shadows.append(shadow)
        want.append(counters)
    assert engine_tally(prob, part, blocks, befores, afters, shadows) == want
    if kind == "none":
        assert not any(c["shadow_failures"] or c["freeze_failures"]
                       for c in want)
    return want


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data_seed=st.integers(0, 2 ** 32 - 1), S=STACKS,
       n=st.sampled_from([1, 2]), N=st.integers(3, 6), z_pairs=st.booleans(),
       kinds=st.lists(st.sampled_from(KINDS[:-1]), min_size=6, max_size=6),
       custom=st.booleans(), kind=st.sampled_from(TAMPERS),
       parked=st.booleans())
def test_stacked_tally_equals_per_seed(data_seed, S, n, N, z_pairs, kinds,
                                       custom, kind, parked):
    """Quadratic, AbsDev and L1 mixes, with a Custom term or without, so
    lane tables with and without one-by-one lanes (a Custom term, or a
    coordinate without a coupling row with ``n = 2``)."""
    rng = np.random.default_rng(data_seed)
    if custom and n == 1:
        kinds = ["custom"] + kinds
    prob = random_problem(rng, n, N, kinds, z_pairs=z_pairs)
    check_tally(prob, random_partition(rng, prob), rng, S, kind, parked)


@lru_cache(maxsize=None)
def star_hub():
    """A star whose lanes padded to the hub's degree would pass the lane
    limit, so its table holds each lane's first row and each kernel call
    gathers the hub's other rows, its tail."""
    leaves = int(np.sqrt(engine._BATCH_LANE_LIMIT / 2)) + 1
    rng = np.random.default_rng(11)
    bench = generate_benchmark(
        BenchmarkSpec("consensus-quadratic",
                      a=list(rng.uniform(-5.0, 5.0, leaves + 1))),
        Graph.star(leaves + 1))
    prob, part = bench.problem, bench.reform.partition
    table = engine._block_table(prob, part)
    count, _, x = table.tails
    assert table.K == 1 and len(table.idx[table.icol["tilt_p"]]) == table.Cn
    # one tail per block: the hub's (component 0), its rows past the first
    assert (x[count > 0] == 0).all() and (count > 0).sum(axis=0).tolist() \
        == [1] * leaves and set(count[count > 0].tolist()) == {leaves - 1}
    return prob, part


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data_seed=st.integers(0, 2 ** 32 - 1), S=STACKS,
       kind=st.sampled_from(TAMPERS), parked=st.booleans())
def test_stacked_tally_on_a_hub_past_the_lane_limit(data_seed, S, kind,
                                                     parked):
    prob, part = star_hub()
    check_tally(prob, part, np.random.default_rng(data_seed), S, kind, parked)


def test_shadow_probed_run_on_a_hub_past_the_lane_limit():
    """The whole loop, stacked pass and tally included, with the hub's
    tail rows gathered per call."""
    prob, part = star_hub()
    dist = derive_probabilities(part, uniform_probs(part))
    probes = ProbeFlags(shadow=True, ergodic=True)
    seeds = [0, 5, 2 ** 64 - 1]
    got = run_batch(prob, part, dist, seeds, 12, probes=probes, stride=5)
    for seed, m in zip(seeds, got):
        assert_same_run(m, reference_run(prob, part, dist, seed, 12,
                                         probes=probes, stride=5))
        assert m.counters["shadow_checks"] == m.counters["freeze_checks"] == 12
        assert m.counters["shadow_failures"] == m.counters["freeze_failures"] \
            == 0


def planting_kernel(monkeypatch, at, lane, moved):
    """After the kernel call of iteration ``at``, add 1e-6 to one slot of
    lane ``lane``'s row: its first moved slot (``moved``), or else the
    first x slot of its row that the step does not write."""
    fire = engine._fire_lanes

    def kernel(bt, flat, lanes, k=None):
        hot = fire(bt, flat, lanes, k)
        if k == at:
            idx = lanes[0][:, lane]
            row = lane * bt.width + np.arange(bt.dim_x)
            flat[idx[0] if moved else
                 np.setdiff1d(row, idx[:3 * bt.M])[0]] += 1e-6
        return hot

    monkeypatch.setattr(engine, "_fire_lanes", kernel)


@pytest.mark.parametrize("at", [15, 20, 11, 341],
                         ids=["middle", "last", "first", "after-a-chunk"])
@pytest.mark.parametrize("moved", [True, False], ids=["moved", "frozen"])
def test_a_planted_mismatch_inside_a_block_is_counted_once(monkeypatch, at,
                                                          moved):
    """Blocks of ten iterations (``stride = 10``; draw chunks of 340, so
    that chunks end at record points): one pass per block. A slot written
    at iteration ``at`` fails exactly one check of that seed: the shadow
    check when the step moves it, the freeze check when it does not."""
    rng = np.random.default_rng(3)
    bench = generate_benchmark(
        BenchmarkSpec("consensus-lad", a=list(rng.uniform(-5.0, 5.0, 20))),
        Graph.cycle(20))
    prob, part = bench.problem, bench.reform.partition
    dist = derive_probabilities(part, uniform_probs(part))
    passes = []
    monkeypatch.setattr(engine, "shadow_step",
                        lambda *args: passes.append(1) or shadow_step(*args))
    planting_kernel(monkeypatch, at, 1, moved)
    got = run_batch(prob, part, dist, [0, 1, 2], 400, stride=10,
                    probes=ProbeFlags(shadow=True))
    assert len(passes) == 40
    for s, m in enumerate(got):
        failed = int(s == 1)
        assert m.counters == {
            "steps": 400, "shadow_checks": 400, "freeze_checks": 400,
            "shadow_failures": failed if moved else 0,
            "freeze_failures": 0 if moved else failed}
