"""The one run loop (run_batch; run is its one-seed form) against chained
step() calls (``reference.reference_run``), bit for bit."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from asyncadmm import (BenchmarkSpec, Custom, ExperimentConfig, Free, Graph,
                       ProbeFlags, ProblemSource, Quadratic, RngStream,
                       build_partition, build_reformulation,
                       derive_probabilities, generate_benchmark,
                       prepare_experiment, run_batch, run_experiment,
                       sample_block, single_block_partition, uniform_probs)
from asyncadmm import engine, runner
from asyncadmm.diagnostics import ReferenceSolution
from asyncadmm.errors import DivergenceError

from reference import assert_same_run, reference_run

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


def make_bench(problem, graph, nodes, rng):
    if problem == "lasso-toy":
        w = rng.uniform(0.5, 2.0, nodes - 1) * rng.choice([-1.0, 1.0],
                                                         nodes - 1)
        spec = BenchmarkSpec(problem, w=list(w),
                             b=list(rng.uniform(-3.0, 3.0, nodes - 1)),
                             pi=float(rng.uniform(0.1, 2.0)))
    else:
        # a narrow box around the data so that the lad bounds bind
        spec = BenchmarkSpec(problem, a=list(rng.uniform(-5.0, 5.0, nodes)),
                             box_margin=0.05 if problem == "consensus-lad"
                             else None)
    return generate_benchmark(spec, GRAPHS[graph](nodes))


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

    # 4 blocks x 2 components x 2 rows each = 16 padded tilt lanes
    monkeypatch.setattr(engine, "_BATCH_LANE_LIMIT", 16)
    table = engine._block_table(*cycle4())
    assert table.D == 2 and "tilt_p" in table.icol
    monkeypatch.setattr(engine, "_BATCH_LANE_LIMIT", 15)
    prob, part = cycle4()
    rng = np.random.default_rng(6)
    check_batch(prob, part, seeds, T=200, stride=9,
                probes=ProbeFlags(ergodic=True, lyapunov=True),
                ref=random_reference(prob, rng),
                x0=rng.uniform(-4.0, 4.0, prob.dim_x))
    table = engine._block_table(prob, part)
    assert table.D is None and "tilt_p" not in table.icol


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


def nan_cycle():
    terms = tuple(Quadratic(np.array([np.nan if i == 2 else float(i)]))
                  for i in range(5))
    return build_reformulation(Graph.cycle(5), terms,
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


# ---------------------------------------------------------------------------
# One seed: waves of commuting blocks
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
    rng = np.random.default_rng(data_seed)
    bench = make_bench(problem, graph, nodes, rng)
    prob, part = bench.problem, bench.reform.partition
    if blocks == "merged":
        part = merged_partition(prob, part, rng)
    x0 = rng.uniform(-6.0, 6.0, prob.dim_x)
    check_batch(prob, part, [seed], T, stride,
                ProbeFlags(ergodic=ergodic, lyapunov=lyapunov),
                ref=random_reference(prob, rng), x0=x0)


def component_rows(prob, part, b):
    """The rows owned by block b's components: what its tilts read."""
    owners = prob.constraints.row_block
    return set(np.flatnonzero(np.isin(owners, part.component_map[b])).tolist())


@pytest.mark.parametrize("merged", [False, True])
def test_waves_are_maximal_conflict_free_runs(merged):
    bench = generate_benchmark(BenchmarkSpec("consensus-quadratic"),
                               Graph.cycle(200))
    prob, part = bench.problem, bench.reform.partition
    if merged:
        part = merged_partition(prob, part, np.random.default_rng(3))
    dist = derive_probabilities(part, uniform_probs(part))
    rng = RngStream(11)
    draws = [sample_block(dist, rng) for _ in range(1000)]
    k, stride, T = 40, 300, 1100
    ends = engine._wave_ends(engine._block_table(prob, part), draws, k,
                             stride, T)
    assert ends[-1] == len(draws)
    records = {j for j in range(1, len(draws) + 1)
               if (k + j) % stride == 0 or k + j == T}
    assert records <= set(ends)
    rows = [set(part.blocks[b].tolist()) for b in range(len(part.blocks))]
    lo = 0
    for hi in ends:
        wave = draws[lo:hi]
        for i, b in enumerate(wave):
            reads = component_rows(prob, part, b)
            assert all(not reads & rows[a] for a in wave[:i])
        # a cut that is not a record or the chunk's end is forced by a clash
        if hi not in records and hi < len(draws):
            reads = component_rows(prob, part, draws[hi])
            assert any(reads & rows[a] for a in wave)
        lo = hi
    assert len(draws) / len(ends) > (2.0 if merged else 5.0)


def test_divergence_mid_wave_names_serial_iteration_and_block():
    nodes = 40
    terms = tuple(Quadratic(np.array([np.nan if i == 17 else float(i)]))
                  for i in range(nodes))
    reform = build_reformulation(Graph.cycle(nodes), terms,
                                 tuple(Free(1) for _ in terms), 1.0)
    prob, part = reform.problem, reform.partition
    dist = derive_probabilities(part, uniform_probs(part))
    table = engine._block_table(prob, part)
    for seed in range(50):
        msg = serial_failure(reform, dist, seed)
        k = int(msg.split("iteration ")[1].split()[0])
        rng = RngStream(seed)
        draws = [sample_block(dist, rng) for _ in range(200)]
        starts = [0] + engine._wave_ends(table, draws, 0, 200, 200)
        # the failing draw (index k - 1) is neither first nor last in its wave
        if k - 1 not in starts and k not in starts:
            break
    else:
        pytest.fail("no seed diverges inside a wave")
    with pytest.raises(DivergenceError) as info:
        run_batch(prob, part, dist, [seed], T=200, stride=200)
    assert str(info.value) == msg
    assert f"block {draws[k - 1]})" in msg


def test_run_experiment_one_seed_outputs_equal_serial_bytes(tmp_path,
                                                            monkeypatch):
    assert_outputs_equal_serial_bytes(
        tmp_path, monkeypatch,
        cycle_config(tmp_path, "batch", (4,), nodes=60, T=1500))
