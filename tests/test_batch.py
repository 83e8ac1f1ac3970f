"""The one run loop (run_batch; run is its one-seed form) against chained
step() calls (``reference.reference_run``), bit for bit."""

import bisect
import json
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from asyncadmm import (BenchmarkSpec, Custom, ExperimentConfig, Free, Graph,
                       ProbeFlags, ProblemSource, Quadratic, RngStream,
                       build_partition, build_reformulation,
                       derive_probabilities, generate_benchmark,
                       initial_state, prepare_experiment, run_batch,
                       run_experiment, sample_block, single_block_partition,
                       step, uniform_probs)
from asyncadmm import engine, runner
from asyncadmm.diagnostics import ReferenceSolution
from asyncadmm.errors import DivergenceError

from reference import assert_same_run, reference_levels, reference_run
from test_fullpass import random_problem
from test_shadow_stack import random_partition

def check_batch(prob, part, seeds, T, stride, probes, ref=None, x0=None,
                z0=None):
    dist = derive_probabilities(part, uniform_probs(part))
    batch = run_batch(prob, part, dist, seeds, T, probes=probes, ref=ref,
                      x0=x0, z0=z0, stride=stride)
    assert len(batch) == len(seeds)
    for seed, got in zip(seeds, batch):
        want = reference_run(prob, part, dist, seed, T, probes=probes,
                             ref=ref, x0=x0, z0=z0, stride=stride)
        assert_same_run(got, want)
    return batch


def random_reference(prob, rng):
    return ReferenceSolution(x=rng.normal(size=prob.dim_x),
                             z=rng.normal(size=prob.dim_z),
                             p=rng.normal(size=prob.dim_z))


GRAPHS = {"cycle": Graph.cycle, "path": Graph.path, "star": Graph.star}


def bench_spec(problem, nodes, rng):
    if problem == "lasso-toy":
        w = rng.uniform(0.5, 2.0, nodes - 1) * rng.choice([-1.0, 1.0],
                                                         nodes - 1)
        return BenchmarkSpec(problem, w=list(w),
                             b=list(rng.uniform(-3.0, 3.0, nodes - 1)),
                             pi=float(rng.uniform(0.1, 2.0)))
    # a narrow box around the data so that the lad bounds bind
    return BenchmarkSpec(problem, a=list(rng.uniform(-5.0, 5.0, nodes)),
                         box_margin=0.05 if problem == "consensus-lad"
                         else None)


def make_bench(problem, graph, nodes, rng):
    return generate_benchmark(bench_spec(problem, nodes, rng),
                              GRAPHS[graph](nodes))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(problem=st.sampled_from(["consensus-quadratic", "consensus-lad",
                                "lasso-toy"]),
       graph=st.sampled_from(sorted(GRAPHS)),
       nodes=st.integers(3, 12),
       seeds=st.lists(st.sampled_from([0, 1, 7, 2 ** 63, 2 ** 64 - 1])
                      | st.integers(0, 2 ** 64 - 1), min_size=1, max_size=8),
       T=st.integers(1, 300), stride=st.integers(1, 7),
       ergodic=st.booleans(), lyapunov=st.booleans(),
       data_seed=st.integers(0, 2 ** 32 - 1))
def test_batch_equals_serial(problem, graph, nodes, seeds, T, stride,
                             ergodic, lyapunov, data_seed):
    rng = np.random.default_rng(data_seed)
    bench = make_bench(problem, graph, nodes, rng)
    prob = bench.problem
    x0 = rng.uniform(-6.0, 6.0, prob.dim_x)
    check_batch(prob, bench.reform.partition, seeds, T, stride,
                ProbeFlags(ergodic=ergodic, lyapunov=lyapunov),
                ref=random_reference(prob, rng), x0=x0)


def vector_cycle(nodes, n=2):
    rng = np.random.default_rng(n)
    terms = tuple(Quadratic(rng.normal(size=n)) for _ in range(nodes))
    return build_reformulation(Graph.cycle(nodes), terms,
                               tuple(Free(n) for _ in terms), 1.0)


def partition_case(name):
    if name == "vector":
        reform = vector_cycle(6)
        return reform.problem, reform.partition
    bench = generate_benchmark(BenchmarkSpec("consensus-quadratic"),
                               Graph.cycle(8))
    prob = bench.problem
    if name == "single-block":
        return prob, single_block_partition(prob.constraints)
    # blocks of one, two and three edges; rows not contiguous
    blocks = [[0, 1, 6, 7], [2, 3], [4, 5, 8, 9, 10, 11], [12, 13],
              [14, 15]]
    return prob, build_partition(prob.z_set, prob.constraints, blocks)


@pytest.mark.parametrize("name", ["vector", "single-block", "uneven-blocks"])
def test_batch_equals_serial_on_other_partitions(name):
    prob, part = partition_case(name)
    rng = np.random.default_rng(5)
    check_batch(prob, part, [3, 0, 3, 2 ** 64 - 1], T=250, stride=3,
                probes=ProbeFlags(ergodic=True, lyapunov=True),
                ref=random_reference(prob, rng),
                x0=rng.uniform(-4.0, 4.0, prob.dim_x))


def test_draws_cross_chunk_boundaries(monkeypatch):
    # a tiny chunk makes the loop draw its blocks over many chunks
    bench = generate_benchmark(BenchmarkSpec("consensus-quadratic"),
                               Graph.cycle(5))
    prob, part = bench.problem, bench.reform.partition
    dist = derive_probabilities(part, uniform_probs(part))
    seeds = [2, 9, 2 ** 64 - 1]
    probes = ProbeFlags(ergodic=True)
    monkeypatch.setattr(engine, "_DRAW_CHUNK", 7)
    check_batch(prob, part, seeds, T=60, stride=1, probes=probes)
    for seed in seeds:
        got, = check_batch(prob, part, [seed], T=60, stride=1, probes=probes)
        rng = RngStream(seed)
        assert got.active_block.tolist() == [sample_block(dist, rng)
                                             for _ in range(60)]


def test_padding_keeps_signed_zeros():
    # a leaf of a star has one row with coefficient -1, so from a zero
    # state its tilt is -0.0; padded to the hub's degree it must stay so
    bench = generate_benchmark(BenchmarkSpec("consensus-quadratic",
                                             a=[-0.0] * 10), Graph.star(10))
    check_batch(bench.problem, bench.reform.partition, [0, 1, 2], T=3,
                stride=1, probes=ProbeFlags(ergodic=True))


def test_seed_minus_one_is_masked_like_run():
    bench = generate_benchmark(BenchmarkSpec("consensus-quadratic"),
                               Graph.cycle(5))
    check_batch(bench.problem, bench.reform.partition, [-1, 2 ** 64 - 1],
                T=50, stride=5, probes=ProbeFlags(ergodic=True))


@pytest.mark.parametrize("seeds", [[4], [0, 1, 2 ** 64 - 1]],
                         ids=["one-seed", "three-seeds"])
def test_shadow_probe_equals_reference(seeds):
    rng = np.random.default_rng(8)
    bench = make_bench("consensus-lad", "cycle", 7, rng)
    prob = bench.problem
    batch = check_batch(prob, bench.reform.partition, seeds, T=120, stride=7,
                        probes=ProbeFlags(shadow=True, lyapunov=True,
                                          ergodic=True),
                        ref=random_reference(prob, rng),
                        x0=rng.uniform(-6.0, 6.0, prob.dim_x))
    for m in batch:
        assert m.counters["shadow_checks"] == m.counters["freeze_checks"] \
            == 120


def custom_cycle():
    custom = Custom(fn=lambda u: float(u[0] ** 2), dim=1, scalar_convex=True)
    terms = (custom,) + tuple(Quadratic(np.array([1.0])) for _ in range(3))
    return build_reformulation(Graph.cycle(4), terms,
                               tuple(Free(1) for _ in terms), 1.0)


@pytest.mark.parametrize("seeds", [[3], [0, 1, 2]],
                         ids=["one-seed", "three-seeds"])
def test_custom_terms_take_the_serial_lanes(seeds):
    # the Custom component's x lanes are solved one by one in the kernel
    reform = custom_cycle()
    prob, part = reform.problem, reform.partition
    rng = np.random.default_rng(4)
    check_batch(prob, part, seeds, T=150, stride=4,
                probes=ProbeFlags(shadow=True, lyapunov=True, ergodic=True),
                ref=random_reference(prob, rng),
                x0=rng.uniform(-3.0, 3.0, prob.dim_x))
    table = engine._block_table(prob, part)
    assert (table.serial_at == 0).sum() == 2    # two blocks hold component 0


@pytest.mark.parametrize("seeds", [[7], [0, 1, 2]],
                         ids=["one-seed", "three-seeds"])
def test_tables_over_the_lane_limit_gather_tilts_per_call(monkeypatch,
                                                          seeds):
    def cycle4():
        bench = generate_benchmark(BenchmarkSpec("consensus-quadratic"),
                                   Graph.cycle(4))
        return bench.problem, bench.reform.partition

    # 4 blocks x 2 components x 2 rows each = 16 padded tilt terms
    monkeypatch.setattr(engine, "_BATCH_LANE_LIMIT", 16)
    table = engine._block_table(*cycle4())
    assert table.K == 2 and not table.tails[0].any()
    monkeypatch.setattr(engine, "_BATCH_LANE_LIMIT", 15)
    prob, part = cycle4()
    rng = np.random.default_rng(6)
    check_batch(prob, part, seeds, T=200, stride=9,
                probes=ProbeFlags(ergodic=True, lyapunov=True),
                ref=random_reference(prob, rng),
                x0=rng.uniform(-4.0, 4.0, prob.dim_x))
    # one row of each lane in the table, the other its tail
    table = engine._block_table(prob, part)
    assert table.K == 1 and (table.tails[0] == 1).all()


def cycle_config(tmp_path, out, seeds, nodes=5, T=120,
                 probes=ProbeFlags(ergodic=True, lyapunov=True)):
    (tmp_path / "g.txt").write_text(Graph.cycle(nodes).to_text())
    return ExperimentConfig(
        problem=ProblemSource("benchmark",
                              {"name": "consensus-quadratic", "graph": "g.txt",
                               "a": [float(i + 1) for i in range(nodes)]}),
        T=T, seeds=seeds, stride=7, out=out, probes=probes)


def assert_outputs_equal_serial_bytes(tmp_path, monkeypatch, cfg):
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs["seeds"])
        return run_batch(*args, **kwargs)

    monkeypatch.setattr(runner, "run_batch", counted)
    assert run_experiment(cfg, base_dir=tmp_path) == 0
    assert calls == [cfg.seeds]

    # the same artifacts written from chained step() calls per seed
    prepared = prepare_experiment(cfg, base_dir=tmp_path)
    serial = tmp_path / "serial"
    serial.mkdir()
    metrics = [reference_run(prepared.problem, prepared.partition,
                             prepared.dist, s, cfg.T, probes=cfg.probes,
                             ref=prepared.ref, x0=prepared.x0, z0=prepared.z0,
                             stride=cfg.stride) for s in cfg.seeds]
    for m in metrics:
        runner.write_metrics_csv(serial / f"seed_{m.seed}.csv", m)
    if len(metrics) > 1:
        runner.write_mean_csv(serial / "mean.csv", metrics)
    (serial / "summary.json").write_text(json.dumps(
        runner.build_summary(prepared, metrics), indent=2,
        sort_keys=True) + "\n")
    names = sorted(p.name for p in serial.iterdir())
    assert names == sorted(p.name for p in (tmp_path / "batch").iterdir())
    for name in names:
        assert (tmp_path / "batch" / name).read_bytes() == \
            (serial / name).read_bytes(), name


def test_run_experiment_outputs_equal_serial_bytes(tmp_path, monkeypatch):
    assert_outputs_equal_serial_bytes(
        tmp_path, monkeypatch, cycle_config(tmp_path, "batch", (4, 0, 9)))


def test_run_experiment_shadow_outputs_equal_serial_bytes(tmp_path,
                                                          monkeypatch):
    cfg = cycle_config(tmp_path, "batch", (4, 0, 9),
                       probes=ProbeFlags(shadow=True, ergodic=True))
    assert_outputs_equal_serial_bytes(tmp_path, monkeypatch, cfg)


def nan_cycle(nodes=5, bad=(2,)):
    terms = tuple(Quadratic(np.array([np.nan if i in bad else float(i)]))
                  for i in range(nodes))
    return build_reformulation(Graph.cycle(nodes), terms,
                               tuple(Free(1) for _ in terms), 1.0)


def serial_failure(reform, dist, seed):
    with pytest.raises(DivergenceError) as info:
        reference_run(reform.problem, reform.partition, dist, seed, T=200)
    return str(info.value)


def test_divergence_names_first_seed_in_config_order(tmp_path, capsys):
    reform = nan_cycle()
    dist = derive_probabilities(reform.partition,
                                uniform_probs(reform.partition))
    # order the seeds so that a later one diverges at an earlier iteration
    first_bad = {}
    for seed in range(12):
        msg = serial_failure(reform, dist, seed)
        first_bad[seed] = int(msg.split("iteration ")[1].split()[0])
    by_iter = sorted(first_bad, key=first_bad.get)
    seeds = [by_iter[-1], by_iter[0], by_iter[1]]
    assert first_bad[seeds[0]] > first_bad[seeds[1]]
    want = serial_failure(reform, dist, seeds[0])
    with pytest.raises(DivergenceError) as info:
        run_batch(reform.problem, reform.partition, dist, seeds, T=200)
    assert str(info.value) == want
    assert f"seed {seeds[0]}," in want

    blocks = tuple(tuple(b.tolist()) for b in reform.partition.blocks)
    cfg = ExperimentConfig(problem=ProblemSource("object", reform.problem),
                           T=200, seeds=tuple(seeds), blocks=blocks,
                           out="out", reference="none")
    capsys.readouterr()
    assert run_experiment(cfg, base_dir=tmp_path) == 1
    assert capsys.readouterr().err == f"divergence: {want}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seeds", [[3], [7, 3, 11], list(range(16))])
def test_a_rerun_gathers_lanes_for_about_the_draws_it_fires(monkeypatch,
                                                            seeds):
    """The serial rerun's chunks of draws start at one and double, so the
    first seed, failing at iteration k, passes fewer than 2k draws to the
    lane tables, not a whole chunk; the error is its serial one."""
    reform = nan_cycle()
    dist = derive_probabilities(reform.partition,
                                uniform_probs(reform.partition))
    want = serial_failure(reform, dist, seeds[0])
    k = int(want.split("iteration ")[1].split()[0])
    draws, lanes = [], engine._BlockTable.lanes

    def counted(self, blocks, stacked=False):
        draws.append(blocks.shape)
        return lanes(self, blocks, stacked)

    monkeypatch.setattr(engine._BlockTable, "lanes", counted)
    with pytest.raises(DivergenceError) as info:
        run_batch(reform.problem, reform.partition, dist, seeds, T=10_000)
    assert str(info.value) == want
    # the rerun fires one seed in lockstep, (draws, 1) per call; the
    # attempt fires several seeds in lockstep, or one seed by level (1-D)
    rerun = [shape[0] for shape in draws if shape[1:] == (1,)]
    assert 0 < sum(rerun) < 2 * k


# ---------------------------------------------------------------------------
# One seed: dependency levels of commuting blocks
#
# A lone seed fires its draws between two record points one dependency
# level per kernel call: a draw's level is one more than the highest level
# among the earlier draws whose blocks share a component with its own.
# ---------------------------------------------------------------------------

def merged_partition(prob, part, rng):
    """The per-edge blocks dealt at random into blocks of one to three
    edges, so blocks are uneven and their rows far apart."""
    edges = rng.permutation(len(part.blocks))
    cuts = np.cumsum(rng.integers(1, 4, size=edges.size))
    groups = np.split(edges, cuts[cuts < edges.size])
    blocks = [np.concatenate([part.blocks[e] for e in g]).tolist()
              for g in groups]
    return build_partition(prob.z_set, prob.constraints, blocks)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(problem=st.sampled_from(["consensus-quadratic", "consensus-lad",
                                "lasso-toy"]),
       graph=st.sampled_from(["cycle", "path"]),
       nodes=st.integers(8, 60),
       blocks=st.sampled_from(["per-edge", "merged"]),
       seed=st.sampled_from([0, 1, 2 ** 64 - 1]) | st.integers(0, 2 ** 64 - 1),
       T=st.sampled_from([1, 1023, 1024, 1025, 3000]) | st.integers(1, 3000),
       stride=st.integers(1, 7), ergodic=st.booleans(),
       lyapunov=st.booleans(), data_seed=st.integers(0, 2 ** 32 - 1))
def test_one_seed_waves_equal_serial(problem, graph, nodes, blocks, seed, T,
                                     stride, ergodic, lyapunov, data_seed):
    """One seed fired level by level, on cycles and paths in per-edge and
    merged blocks, against the serial reference."""
    rng = np.random.default_rng(data_seed)
    bench = make_bench(problem, graph, nodes, rng)
    prob, part = bench.problem, bench.reform.partition
    if blocks == "merged":
        part = merged_partition(prob, part, rng)
    x0 = rng.uniform(-6.0, 6.0, prob.dim_x)
    check_batch(prob, part, [seed], T, stride,
                ProbeFlags(ergodic=ergodic, lyapunov=lyapunov),
                ref=random_reference(prob, rng), x0=x0)


def random_graph(rng, nodes):
    """A random connected graph: a random tree and up to ``nodes`` more
    edges; half the time one node is also joined to every other, a hub."""
    edges = {(int(rng.integers(i)), i) for i in range(1, nodes)}
    for _ in range(int(rng.integers(0, nodes + 1))):
        i, j = sorted(rng.choice(nodes, size=2, replace=False).tolist())
        edges.add((i, j))
    if rng.integers(2):
        hub = int(rng.integers(nodes))
        edges |= {(min(hub, i), max(hub, i)) for i in range(nodes) if i != hub}
    return Graph(nodes, sorted(edges))


def outcome(fn):
    """The result, or the type and message of the error raised; a numpy
    warning is raised, so that its values are never skipped."""
    try:
        return fn()
    except RuntimeWarning:
        raise
    except Exception as exc:  # the error raised first is part of the result
        return type(exc), str(exc)


def raising_custom(i):
    """A Custom term that is 0 at u = 0 and raises its own error anywhere
    else: its prox raises, but a record of a component it never moved
    does not."""
    def fn(u):
        if u[0] != 0.0:
            raise ValueError(f"component {i}")
        return 0.0
    return Custom(fn=fn, dim=1, scalar_convex=True)


def random_graph_case(problem, nodes, data_seed, probes, stride):
    """A random connected graph in a random user partition (each z pair in
    one block), and the arguments of its runs; ``nan-quadratic`` puts NaN
    data on one or two nodes, and ``raising-custom`` a Custom term whose
    prox raises its own error, so that a run ends in its first error."""
    rng = np.random.default_rng(data_seed)
    graph = random_graph(rng, nodes)
    bad = rng.choice(nodes, size=min(2, nodes), replace=False)
    bad = bad[:int(rng.integers(1, bad.size + 1))]
    if problem == "nan-quadratic":
        centers = rng.uniform(-5.0, 5.0, nodes)
        centers[bad] = np.nan
        terms = tuple(Quadratic(np.array([c])) for c in centers)
    elif problem == "raising-custom":
        terms = tuple(raising_custom(i) if i in bad else
                      Quadratic(np.array([rng.uniform(-5.0, 5.0)]))
                      for i in range(nodes))
    if problem in ("nan-quadratic", "raising-custom"):
        prob = build_reformulation(graph, terms, tuple(Free(1) for _ in terms),
                                   1.0).problem
    else:
        prob = generate_benchmark(bench_spec(problem, nodes, rng),
                                  graph).problem
    part = random_partition(rng, prob)
    dist = derive_probabilities(part, uniform_probs(part))
    args = dict(probes=probes, ref=random_reference(prob, rng),
                x0=rng.uniform(-6.0, 6.0, prob.dim_x), stride=stride)
    if problem == "raising-custom":
        # the raising components start, and are referenced, at 0
        args["x0"][bad] = args["ref"].x[bad] = 0.0
    return prob, part, dist, args


PROBLEMS = st.sampled_from(["consensus-quadratic", "consensus-lad",
                            "lasso-toy", "nan-quadratic", "raising-custom"])


@contextmanager
def lane_limit(low):
    """With ``low``, ``engine._BATCH_LANE_LIMIT`` at 1, so that the block
    tables built inside hold one tilt term per lane and the rest in tails
    (the tables are per partition, and each case draws a new one)."""
    with pytest.MonkeyPatch.context() as patch:
        if low:
            patch.setattr(engine, "_BATCH_LANE_LIMIT", 1)
        yield


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(problem=PROBLEMS, nodes=st.integers(3, 40),
       seed=st.sampled_from([0, 1, 2 ** 64 - 1]) | st.integers(0, 2 ** 64 - 1),
       T=st.integers(1, 1500), stride=st.sampled_from([1, 2, 1500])
       | st.integers(1, 400), probes=st.booleans(),
       data_seed=st.integers(0, 2 ** 32 - 1), low_limit=st.booleans())
def test_one_seed_levels_equal_serial_on_random_graphs(problem, nodes, seed,
                                                       T, stride, probes,
                                                       data_seed, low_limit):
    """One seed by level on random graphs (:func:`random_graph_case`); with
    ``low_limit``, every lane's rows past its first in a tail."""
    flags = ProbeFlags(ergodic=True, lyapunov=True) if probes else \
        ProbeFlags()
    prob, part, dist, args = random_graph_case(problem, nodes, data_seed,
                                               flags, stride)
    want = outcome(lambda: reference_run(prob, part, dist, seed, T, **args))
    with lane_limit(low_limit):
        got = outcome(lambda: run_batch(prob, part, dist, [seed], T,
                                        **args)[0])
    if isinstance(want, tuple):
        assert got == want
    else:
        assert_same_run(got, want)


def serial_outcome(prob, part, dist, seeds, T, **args):
    """What ``run_batch`` of ``seeds`` must give: every seed's serial run,
    or the first error of the first seed that fails alone."""
    runs = []
    for seed in seeds:
        want = outcome(lambda: reference_run(prob, part, dist, seed, T,
                                             **args))
        if isinstance(want, tuple):
            return want
        runs.append(want)
    return runs


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(problem=PROBLEMS, nodes=st.integers(3, 16),
       seeds=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=3,
                      unique=True),
       T=st.integers(1, 100), stride=st.sampled_from([1, 7, 100])
       | st.integers(1, 60), data_seed=st.integers(0, 2 ** 32 - 1),
       low_limit=st.booleans())
def test_shadow_probe_equals_serial_on_random_graphs(problem, nodes, seeds, T,
                                                     stride, data_seed,
                                                     low_limit):
    """The shadow probe on random graphs, with one seed and with several:
    its counters and every other field of each run, or the first error
    (the NaN data diverge, the Custom terms raise in the kernel or in the
    pass), against the serial run's; ``low_limit`` as above."""
    flags = ProbeFlags(shadow=True, ergodic=True, lyapunov=True)
    prob, part, dist, args = random_graph_case(problem, nodes, data_seed,
                                               flags, stride)
    want = serial_outcome(prob, part, dist, seeds, T, **args)
    with lane_limit(low_limit):
        got = outcome(lambda: run_batch(prob, part, dist, seeds, T, **args))
    if isinstance(want, tuple):
        assert got == want
        return
    for g, w in zip(got, want, strict=True):
        assert_same_run(g, w)


def chained_steps(prob, part, dist, seed, T, x0):
    """``T`` chained ``step`` calls with the shadow pass."""
    state, rng = initial_state(prob, x0), RngStream(seed)
    for _ in range(T):
        state = step(prob, state, part, dist, rng, with_shadow=True).after
    return state


def six_cycle(center):
    """A 6-cycle whose node 1 raises (:func:`raising_custom`), starting at
    0, and whose node 4 has the given Quadratic center, or raises too."""
    terms = tuple(raising_custom(i) if i == 1 or (i == 4 and center is None)
                  else Quadratic(np.array([center if i == 4 else float(i)]))
                  for i in range(6))
    reform = build_reformulation(Graph.cycle(6), terms,
                                 tuple(Free(1) for _ in terms), 1.0)
    prob, part = reform.problem, reform.partition
    x0 = np.random.default_rng(0).uniform(-6.0, 6.0, prob.dim_x)
    x0[[1, 4]] = 0.0
    return prob, part, derive_probabilities(part, uniform_probs(part)), x0


def assert_shadow_errors_are_serial(prob, part, dist, x0, seeds, stride):
    """Seeds 0..39, alone or each with one more seed: the first error of
    ``run_batch`` (whose probe takes blocks of ``stride`` iterations) and
    of chained ``step`` calls with the shadow probe is the serial run's.
    Returns the errors seen."""
    args = dict(probes=ProbeFlags(shadow=True), x0=x0, stride=stride)
    errors = set()
    for seed in range(40):
        want = outcome(lambda: reference_run(prob, part, dist, seed, 5,
                                             **args))
        errors.add(want)
        assert outcome(lambda: run_batch(prob, part, dist,
                                         [seed, seed + 40][:seeds], 5,
                                         **args)) == want
        assert outcome(lambda: chained_steps(prob, part, dist, seed, 5,
                                             x0)) == want
    return errors


STRIDES = pytest.mark.parametrize("stride", [1, 5],
                                  ids=["blocks-of-1", "blocks-of-5"])
SEEDS = pytest.mark.parametrize("seeds", [1, 2], ids=["one-seed",
                                                      "two-seeds"])


@STRIDES
@SEEDS
def test_shadow_probe_first_error_is_the_serial_one(seeds, stride):
    """Iteration k's kernel runs before its shadow pass, as in the serial
    run. On a 6-cycle whose nodes 1 and 4 raise, every pass raises
    'component 1' at iteration 1; the kernel raises first when the first
    block holds node 4 (or node 1), and in blocks of 5 iterations a later
    kernel error must not pre-empt the pending pass of iteration 1."""
    errors = assert_shadow_errors_are_serial(*six_cycle(None), seeds,
                                             stride)
    assert errors == {(ValueError, "component 1"),
                      (ValueError, "component 4")}


@STRIDES
@SEEDS
def test_shadow_probe_pass_runs_before_the_guard(seeds, stride):
    """Iteration k's shadow pass runs before its guard: node 4's data is
    NaN, so a first block that holds node 4 but not node 1 fails the guard
    at iteration 1, yet the pass of iteration 1 raises 'component 1'
    first."""
    prob, part, dist, x0 = six_cycle(np.nan)
    errors = assert_shadow_errors_are_serial(prob, part, dist, x0, seeds,
                                             stride)
    assert errors == {(ValueError, "component 1")}
    plain = [outcome(lambda: reference_run(prob, part, dist, seed, 1, x0=x0))
             for seed in range(40)]
    assert any(isinstance(e, tuple) and e[0] is DivergenceError
               for e in plain)


def component_sets(part):
    return [set(c.tolist()) for c in part.component_map]


def cycle200(merged):
    bench = generate_benchmark(BenchmarkSpec("consensus-quadratic"),
                               Graph.cycle(200))
    prob, part = bench.problem, bench.reform.partition
    if merged:
        part = merged_partition(prob, part, np.random.default_rng(3))
    return prob, part


def assert_minimal_levels(part, draws, levels):
    """Every draw in one level, each level in draw order; no two draws of
    one level share a component; each draw one level above its highest
    earlier clashing draw (0 when there is none), so no plan has fewer
    levels."""
    comps = component_sets(part)
    level = {}
    for n, at in enumerate(levels):
        at = at.tolist()
        assert at == sorted(at)
        for i, j in enumerate(at):
            assert not any(comps[draws[j]] & comps[draws[a]] for a in at[:i])
        level.update((j, n) for j in at)
    assert sorted(level) == list(range(len(draws)))
    for j, b in enumerate(draws):
        below = [level[i] for i in range(j) if comps[draws[i]] & comps[b]]
        assert level[j] == max(below, default=-1) + 1


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([1, 2]), N=st.integers(2, 8),
       hub_rows=st.sampled_from([0, 5]), z_pairs=st.booleans(),
       L=st.integers(1, 300), data_seed=st.integers(0, 2 ** 32 - 1))
def test_levels_are_minimal_on_random_user_partitions(n, N, hub_rows, z_pairs,
                                                      L, data_seed):
    rng = np.random.default_rng(data_seed)
    prob = random_problem(rng, n, N, ["quadratic"] * N, hub_rows,
                          z_pairs=z_pairs)
    part = random_partition(rng, prob)
    draws = rng.integers(0, len(part.blocks), size=L)
    assert_minimal_levels(part, draws.tolist(), engine._levels(part, draws))


def spy_calls(monkeypatch):
    """Every kernel call a run makes, as its blocks and their iterations."""
    calls = []
    fire = engine._fire_lanes

    def spy(bt, flat, lanes, k=None):
        blocks = np.asarray(lanes[3]).reshape(-1)
        its = np.broadcast_to(k, len(blocks))
        calls.append((blocks.tolist(), its.tolist()))
        return fire(bt, flat, lanes, k)

    monkeypatch.setattr(engine, "_fire_lanes", spy)
    return calls


def consecutive_waves(comps, draws, records):
    """How many maximal runs of consecutive draws that share no component
    (cut at every record iteration too) the draws make."""
    waves, wave = 0, set()
    for it, b in enumerate(draws, 1):
        if wave & comps[b]:
            waves, wave = waves + 1, set()
        wave |= comps[b]
        if it in records:
            waves, wave = waves + 1, set()
    return waves + bool(wave)


@pytest.mark.parametrize("merged", [False, True])
def test_levels_are_minimal_conflict_free_calls(monkeypatch, merged):
    prob, part = cycle200(merged)
    dist = derive_probabilities(part, uniform_probs(part))
    T, stride = 1000, 300
    records = [300, 600, 900, 1000]
    calls = spy_calls(monkeypatch)
    run_batch(prob, part, dist, [11], T, stride=stride)
    rng = RngStream(11)
    draws = [sample_block(dist, rng) for _ in range(T)]
    starts = [0] + records[:-1]
    segments = [[] for _ in records]
    for blocks, its in calls:
        assert blocks == [draws[it - 1] for it in its]
        # no level spans a record iteration
        seg, = {bisect.bisect_left(records, it) for it in its}
        segments[seg].append(np.array(its) - 1 - starts[seg])
    for lo, hi, levels in zip(starts, records, segments):
        assert_minimal_levels(part, draws[lo:hi], levels)
    comps = component_sets(part)
    assert len(calls) * 2 <= consecutive_waves(comps, draws, records)


@pytest.mark.parametrize("graph, L, dense", [
    ("cycle-5", 1024, True), ("cycle-5", 100, True), ("cycle-5", 31, True),
    ("star-50", 1024, True), ("cycle-200", 1024, False),
    ("cycle-2000", 1024, False), ("cycle-2000", 256, False)])
def test_levels_skip_rounds_they_cannot_finish(graph, L, dense):
    """The draws on one component form a chain, so when the longest chain
    already needs more levels than the rounds allow (one per 32 draws),
    ``_levels`` goes straight to the pass in draw order. Dense and sparse
    segments give the level lists of rounds, then the pass."""
    kind, nodes = graph.split("-")
    part = generate_benchmark(BenchmarkSpec("consensus-quadratic"),
                              getattr(Graph, kind)(int(nodes))
                              ).reform.partition
    rng = np.random.default_rng(L)
    for _ in range(5):
        draws = rng.integers(0, len(part.blocks), size=L)
        chain = np.bincount(np.concatenate(
            [part.component_map[b] for b in draws])).max()
        assert (chain > L // 32) == dense
        got, want = engine._levels(part, draws), reference_levels(part, draws)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def plan_levels(part, draws):
    """The level of each draw in a one-segment plan."""
    level = np.empty(len(draws), dtype=np.intp)
    for n, at in enumerate(engine._levels(part, np.asarray(draws))):
        level[at] = n
    return level


def failing_draw(msg):
    return int(msg.split("iteration ")[1].split()[0]) - 1


def test_divergence_mid_level_names_serial_iteration_and_block():
    reform = nan_cycle(40, {17})
    prob, part = reform.problem, reform.partition
    dist = derive_probabilities(part, uniform_probs(part))
    for seed in range(50):
        msg = serial_failure(reform, dist, seed)
        j = failing_draw(msg)
        rng = RngStream(seed)
        draws = [sample_block(dist, rng) for _ in range(200)]
        level = plan_levels(part, draws)
        peers = np.flatnonzero(level == level[j])
        # the failing draw is neither first nor last in its level
        if peers[0] < j < peers[-1]:
            break
    else:
        pytest.fail("no seed diverges inside a level")
    with pytest.raises(DivergenceError) as info:
        run_batch(prob, part, dist, [seed], T=200, stride=200)
    assert str(info.value) == msg
    assert f"block {draws[j]})" in msg


def test_divergence_at_a_later_level_and_earlier_iteration_is_reported():
    """Two NaN components far apart: the first level that fails holds a
    later draw than the serial run's failing one, which sits one level
    up. The run reports the smallest failing iteration, not the first
    failing level."""
    reform = nan_cycle(40, {5, 25})
    prob, part = reform.problem, reform.partition
    dist = derive_probabilities(part, uniform_probs(part))
    comps = component_sets(part)
    for seed in range(200):
        msg = serial_failure(reform, dist, seed)
        j = failing_draw(msg)
        rng = RngStream(seed)
        draws = [sample_block(dist, rng) for _ in range(200)]
        level = plan_levels(part, draws)
        nan = [i for i, b in enumerate(draws) if comps[b] & {5, 25}]
        assert nan[0] == j
        if min(level[nan]) < level[j]:
            break
    else:
        pytest.fail("no seed fails first at a later iteration's level")
    with pytest.raises(DivergenceError) as info:
        run_batch(prob, part, dist, [seed], T=200, stride=200)
    assert str(info.value) == msg
    assert f"block {draws[j]})" in msg


def test_an_error_raised_at_a_later_level_names_the_serial_draw():
    """Two Custom components whose terms raise, each its own message: the
    first level to raise holds a later draw than the serial run's first
    error, so the segment is fired again one draw at a time."""
    def raising(i):
        def fn(u):
            raise ValueError(f"component {i}")
        return Custom(fn=fn, dim=1, scalar_convex=True)

    bad = {5, 25}
    terms = tuple(raising(i) if i in bad else Quadratic(np.array([float(i)]))
                  for i in range(40))
    reform = build_reformulation(Graph.cycle(40), terms,
                                 tuple(Free(1) for _ in terms), 1.0)
    prob, part = reform.problem, reform.partition
    dist = derive_probabilities(part, uniform_probs(part))
    comps = component_sets(part)
    for seed in range(200):
        want = outcome(lambda: reference_run(prob, part, dist, seed, 200,
                                             stride=200))
        rng = RngStream(seed)
        draws = [sample_block(dist, rng) for _ in range(200)]
        level = plan_levels(part, draws)
        hits = [i for i, b in enumerate(draws) if comps[b] & bad]
        first = min(hits, key=lambda i: (level[i], i))
        # the first call to raise names the other component
        if comps[draws[first]] & bad != comps[draws[hits[0]]] & bad:
            break
    else:
        pytest.fail("no seed raises first at a later iteration's level")
    assert want[0] is ValueError
    assert outcome(lambda: run_batch(prob, part, dist, [seed], 200,
                                     stride=200)) == want


def test_an_error_with_several_seeds_names_the_first_seed_in_seeds_order():
    """Two Custom components whose terms raise, each its own message, and
    two seeds whose first errors differ: the second seed raises at an
    earlier iteration, which lockstep meets first, but the run raises the
    first seed's error, the one a serial run of it reports."""
    bad = {5, 25}
    terms = tuple(raising_custom(i) if i in bad else
                  Quadratic(np.array([float(i)])) for i in range(40))
    reform = build_reformulation(Graph.cycle(40), terms,
                                 tuple(Free(1) for _ in terms), 1.0)
    prob, part = reform.problem, reform.partition
    dist = derive_probabilities(part, uniform_probs(part))
    comps = component_sets(part)
    first = {}
    for seed in range(20):
        want = outcome(lambda: reference_run(prob, part, dist, seed, 200,
                                             stride=200))
        assert want[0] is ValueError
        rng = RngStream(seed)
        draws = [sample_block(dist, rng) for _ in range(200)]
        first[seed] = (min(i for i, b in enumerate(draws) if comps[b] & bad),
                       want)
    pairs = [(a, b) for a in first for b in first
             if first[b][0] < first[a][0] and first[b][1] != first[a][1]]
    assert pairs, "no two seeds raise different errors"
    for a, b in pairs[:3]:
        assert outcome(lambda: run_batch(prob, part, dist, [a, b], 200,
                                         stride=200)) == first[a][1]


def test_run_experiment_one_seed_outputs_equal_serial_bytes(tmp_path,
                                                            monkeypatch):
    assert_outputs_equal_serial_bytes(
        tmp_path, monkeypatch,
        cycle_config(tmp_path, "batch", (4,), nodes=60, T=1500))
