"""The seed-batched engine against the plain per-seed run(), bit for bit."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from asyncadmm import (BenchmarkSpec, Custom, ExperimentConfig, Free, Graph,
                       ProbeFlags, ProblemSource, Probes, Quadratic, RngStream,
                       batch_supports, build_partition, build_reformulation,
                       derive_probabilities, generate_benchmark,
                       prepare_experiment, run, run_batch, run_experiment,
                       sample_block, single_block_partition, uniform_probs)
from asyncadmm import engine, runner
from asyncadmm.diagnostics import ReferenceSolution
from asyncadmm.errors import DivergenceError

ARRAY_FIELDS = ("iters", "objective", "objective_error", "feasibility",
                "ergodic_objective_error", "ergodic_feasibility", "lyapunov",
                "active_block", "x_bar", "z_bar")


def assert_bits_equal(got, want, name):
    """Equal values, and equal signs of zero (which == does not see)."""
    np.testing.assert_array_equal(got, want, err_msg=name)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want),
                                  err_msg=name)


def assert_same_run(got, want):
    assert got.seed == want.seed
    for name in ARRAY_FIELDS:
        assert_bits_equal(getattr(got, name), getattr(want, name), name)
    for name in ("x", "z", "p"):
        assert_bits_equal(getattr(got.final_state, name),
                          getattr(want.final_state, name), name)
    assert got.final_state.k == want.final_state.k
    assert got.x_max_abs == want.x_max_abs
    assert got.z_max_abs == want.z_max_abs
    assert got.p_max_abs == want.p_max_abs
    assert got.counters == want.counters


def check_batch(prob, part, seeds, T, stride, probes, ref=None, x0=None,
                z0=None):
    dist = derive_probabilities(part, uniform_probs(part))
    assert batch_supports(prob, part, probes)
    batch = run_batch(prob, part, dist, seeds, T, probes=probes, ref=ref,
                      x0=x0, z0=z0, stride=stride)
    assert len(batch) == len(seeds)
    for seed, got in zip(seeds, batch):
        want = run(prob, part, dist, seed, T, probes=probes, ref=ref, x0=x0,
                   z0=z0, stride=stride)
        assert_same_run(got, want)


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
                Probes(ergodic=ergodic, lyapunov=lyapunov),
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
                probes=Probes(ergodic=True, lyapunov=True),
                ref=random_reference(prob, rng),
                x0=rng.uniform(-4.0, 4.0, prob.dim_x))


def test_draws_cross_chunk_boundaries(monkeypatch):
    # a tiny chunk makes both engines draw their blocks over many chunks
    bench = generate_benchmark(BenchmarkSpec("consensus-quadratic"),
                               Graph.cycle(5))
    prob, part = bench.problem, bench.reform.partition
    dist = derive_probabilities(part, uniform_probs(part))
    seeds = [2, 9, 2 ** 64 - 1]
    serial = [run(prob, part, dist, s, T=60, probes=Probes(), stride=1)
              for s in seeds]
    monkeypatch.setattr(engine, "_DRAW_CHUNK", 7)
    check_batch(prob, part, seeds, T=60, stride=1, probes=Probes())
    for seed, want in zip(seeds, serial):
        got = run(prob, part, dist, seed, T=60, probes=Probes(), stride=1)
        assert_same_run(got, want)
        rng = RngStream(seed)
        assert got.active_block.tolist() == [sample_block(dist, rng)
                                             for _ in range(60)]


def test_padding_keeps_signed_zeros():
    # a leaf of a star has one row with coefficient -1, so from a zero
    # state its tilt is -0.0; padded to the hub's degree it must stay so
    bench = generate_benchmark(BenchmarkSpec("consensus-quadratic",
                                             a=[-0.0] * 10), Graph.star(10))
    check_batch(bench.problem, bench.reform.partition, [0, 1, 2], T=3,
                stride=1, probes=Probes())


def test_seed_minus_one_is_masked_like_run():
    bench = generate_benchmark(BenchmarkSpec("consensus-quadratic"),
                               Graph.cycle(5))
    check_batch(bench.problem, bench.reform.partition, [-1, 2 ** 64 - 1],
                T=50, stride=5, probes=Probes())


def test_unsupported_runs_are_refused(monkeypatch):
    bench = generate_benchmark(BenchmarkSpec("consensus-quadratic"),
                               Graph.cycle(4))
    prob, part = bench.problem, bench.reform.partition
    dist = derive_probabilities(part, uniform_probs(part))
    assert batch_supports(prob, part, Probes())
    assert not batch_supports(prob, part, Probes(shadow=True))
    # 4 blocks x 2 components x 2 rows each = 16 padded tilt lanes
    monkeypatch.setattr(engine, "_BATCH_LANE_LIMIT", 15)
    assert not batch_supports(prob, part, Probes())
    monkeypatch.undo()
    with pytest.raises(ValueError):
        run_batch(prob, part, dist, [0, 1], 10, probes=Probes(shadow=True))
    custom = Custom(fn=lambda u: float(u[0] ** 2), dim=1, scalar_convex=True)
    terms = (custom,) + tuple(Quadratic(np.array([1.0])) for _ in range(3))
    reform = build_reformulation(Graph.cycle(4), terms,
                                 tuple(Free(1) for _ in terms), 1.0)
    assert not batch_supports(reform.problem, reform.partition, Probes())


def cycle_config(tmp_path, out, seeds):
    (tmp_path / "g.txt").write_text(Graph.cycle(5).to_text())
    return ExperimentConfig(
        problem=ProblemSource("benchmark",
                              {"name": "consensus-quadratic", "graph": "g.txt",
                               "a": [1.0, 2.0, 3.0, 4.0, 5.0]}),
        T=120, seeds=seeds, stride=7, out=out,
        probes=ProbeFlags(ergodic=True, lyapunov=True))


def test_run_experiment_outputs_equal_serial_bytes(tmp_path, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs["seeds"])
        return run_batch(*args, **kwargs)

    monkeypatch.setattr(runner, "run_batch", counted)
    cfg = cycle_config(tmp_path, "batch", (4, 0, 9))
    assert run_experiment(cfg, base_dir=tmp_path) == 0
    assert calls == [cfg.seeds]

    # the same artifacts written from one plain run() per seed
    prepared = prepare_experiment(cfg, base_dir=tmp_path)
    serial = tmp_path / "serial"
    serial.mkdir()
    metrics = [run(prepared.problem, prepared.partition, prepared.dist,
                   seed=s, T=cfg.T,
                   probes=Probes(ergodic=True, lyapunov=True),
                   ref=prepared.ref, x0=prepared.x0, z0=prepared.z0,
                   stride=cfg.stride) for s in cfg.seeds]
    for m in metrics:
        runner.write_metrics_csv(serial / f"seed_{m.seed}.csv", m)
    runner.write_mean_csv(serial / "mean.csv", metrics)
    (serial / "summary.json").write_text(json.dumps(
        runner.build_summary(prepared, metrics), indent=2,
        sort_keys=True) + "\n")
    names = sorted(p.name for p in serial.iterdir())
    assert names == sorted(p.name for p in (tmp_path / "batch").iterdir())
    for name in names:
        assert (tmp_path / "batch" / name).read_bytes() == \
            (serial / name).read_bytes(), name


def nan_cycle():
    terms = tuple(Quadratic(np.array([np.nan if i == 2 else float(i)]))
                  for i in range(5))
    return build_reformulation(Graph.cycle(5), terms,
                               tuple(Free(1) for _ in terms), 1.0)


def serial_failure(reform, dist, seed):
    with pytest.raises(DivergenceError) as info:
        run(reform.problem, reform.partition, dist, seed, T=200)
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
