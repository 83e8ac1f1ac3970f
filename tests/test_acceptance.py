"""Acceptance suite.

Each test exercises one release criterion end to end at its stated
tolerance and prints a PASS/FAIL line (run with ``pytest -s`` to see
them). The heavy Monte Carlo cases share module-scoped fixtures.
"""

import json
import time

import numpy as np
import pytest

from asyncadmm import (AbsDev, BenchmarkSpec, Custom, Graph, ProbeFlags,
                       Quadratic, RngStream,
                       compute_rate_constants, consensus_gap,
                       derive_probabilities, edge_initial_state, edge_step,
                       estimate_rate, generate_benchmark, initial_state,
                       residual, run, run_batch, run_experiment,
                       single_block_partition, solve_local, solve_reference,
                       step, sync_admm_step, uniform_probs)
from asyncadmm.diagnostics import lyapunov_drift
from asyncadmm.prox import LocalSubproblem
from asyncadmm.terms import Free, L1

from conftest import kernel_block, random_state_for
from oracles import scalar_subgrad_bisect
from reference import weighted_norm


def _report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def five_cycle_quadratic():
    bench = generate_benchmark(
        BenchmarkSpec("consensus-quadratic", a=[1.0, 2.0, 3.0, 4.0, 5.0]),
        Graph.cycle(5), beta=1.0)
    dist = derive_probabilities(bench.reform.partition,
                                uniform_probs(bench.reform.partition))
    x0 = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    z0 = edge_initial_state(bench.reform, x0).z
    return bench, dist, x0, z0


def test_criterion_1_synchronous_equivalence():
    bench = generate_benchmark(
        BenchmarkSpec("consensus-quadratic", a=[1.0, 5.0]),
        Graph(2, ((0, 1),)), beta=1.0)
    prob = bench.problem
    part = single_block_partition(prob.constraints)
    dist = derive_probabilities(part, [1.0])
    x0 = np.array([1.0, 5.0])
    z0 = edge_initial_state(bench.reform, x0).z
    t0 = time.perf_counter()
    sa = initial_state(prob, x0, z0)
    sb = initial_state(prob, x0, z0)
    rng = RngStream(0)
    worst = 0.0
    for _ in range(100):
        sa = step(prob, sa, part, dist, rng).after
        sb = sync_admm_step(prob, sb)
        worst = max(worst, float(np.max(np.abs(sa.x - sb.x))),
                    float(np.max(np.abs(sa.z - sb.z))),
                    float(np.max(np.abs(sa.p - sb.p))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    assert _report(1, "synchronous-equivalence", ok,
                   f"max coord diff {worst:.2e} over 100 iters, {elapsed:.2f}s")


def test_criterion_2_consensus_correctness():
    budget = 20_000
    results = []
    for name, target, tol in (("consensus-quadratic", 3.0, 1e-3),
                              ("consensus-lad", 3.0, 1e-2)):
        bench = generate_benchmark(
            BenchmarkSpec(name, a=[1.0, 2.0, 3.0, 4.0, 5.0]),
            Graph.cycle(5), beta=1.0)
        assert bench.reference[0] == pytest.approx(target)
        dist = derive_probabilities(bench.reform.partition,
                                    uniform_probs(bench.reform.partition))
        x0 = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        z0 = edge_initial_state(bench.reform, x0).z
        # the 10 seeds as one batch, each seed's run bit for bit its own
        # serial run; 5 s for the batch is at least as strict as 5 s a seed
        t0 = time.perf_counter()
        runs = run_batch(bench.problem, bench.reform.partition, dist,
                         seeds=range(10), T=budget, probes=ProbeFlags(),
                         x0=x0, z0=z0, stride=budget)
        elapsed = time.perf_counter() - t0
        worst_gap = max(consensus_gap(bench.reform, m.final_state,
                                      np.array([target])) for m in runs)
        worst_feas = max(float(m.feasibility[-1]) for m in runs)
        ok = worst_gap < tol and worst_feas < tol and elapsed < 5.0
        results.append(ok)
        _report(2, name, ok,
                f"max gap {worst_gap:.2e}, max feas {worst_feas:.2e}, "
                f"{elapsed:.2f}s for seeds 0..9 in one batch")
    assert all(results)


def test_criterion_3_ergodic_rate(five_cycle_quadratic):
    bench, dist, x0, z0 = five_cycle_quadratic
    prob = bench.problem
    t0 = time.perf_counter()
    seeds = range(200)
    efeas = []
    z_seen = 0.0
    xbars, zbars = [], []
    # all seeds in one lockstep batch
    for m in run_batch(prob, bench.reform.partition, dist, seeds=seeds,
                       T=10_000, probes=ProbeFlags(ergodic=True),
                       ref=bench.reference_solution, x0=x0, z0=z0, stride=10):
        efeas.append(m.ergodic_feasibility)
        z_seen = max(z_seen, m.z_max_abs)
        xbars.append(m.x_bar)
        zbars.append(m.z_bar)
    iters = m.iters.astype(float)
    mean_efeas = np.mean(efeas, axis=0)
    fit = estimate_rate(mean_efeas, iters, window=(1e3, 1e4))

    # constants of the feasibility bound, sampled around p*; include the
    # realized mean-residual direction among the sampled ones
    ref = solve_reference(prob)
    state0 = initial_state(prob, x0, z0)
    mean_res = residual(prob, np.mean(xbars, axis=0), np.mean(zbars, axis=0))
    z_bound = 12.0
    rc = compute_rate_constants(prob, dist, ref, state0,
                                grid_resolution=1001, z_bound=z_bound,
                                num_directions=64,
                                extra_directions=(mean_res,))
    t_times_feas = 10_000 * float(mean_efeas[-1])
    elapsed = time.perf_counter() - t0

    ok_slope = fit.slope <= -0.8
    ok_zbox = z_seen <= z_bound
    ok_bound = t_times_feas <= 1.1 * rc.feasibility_bound
    ok_time = elapsed < 600.0
    ok = ok_slope and ok_zbox and ok_bound and ok_time
    assert _report(
        3, "ergodic-rate", ok,
        f"slope {fit.slope:.3f} (<= -0.8), T*feas {t_times_feas:.1f} vs "
        f"1.1*bound {1.1 * rc.feasibility_bound:.1f}, z range {z_seen:.1f} "
        f"within {z_bound}, {elapsed:.0f}s over 200 seeds")


def test_criterion_4_supermartingale(five_cycle_quadratic):
    bench, dist, x0, z0 = five_cycle_quadratic
    prob = bench.problem
    part = bench.reform.partition
    ref = solve_reference(prob)
    wn = weighted_norm(dist)
    worst = -np.inf
    checks = 0
    for seed in range(200):
        st = initial_state(prob, x0, z0)
        rng = RngStream(seed)
        for k in range(2000):
            if k % 10 == 0:
                worst = max(worst, lyapunov_drift(prob, st, part, dist, ref, wn))
                checks += 1
            st = step(prob, st, part, dist, rng).after
    ok = worst <= 1e-6
    assert _report(4, "supermartingale", ok,
                   f"max conditional one-step mean increment {worst:.2e} "
                   f"over {checks} states from 200 paths")


def test_criterion_5_shadow_identities(five_cycle_quadratic):
    bench, dist, x0, z0 = five_cycle_quadratic
    prob = bench.problem
    total_checks = 0
    failures = 0
    freeze_failures = 0
    for seed in (11, 22, 33, 44, 55, 66, 77, 88, 99, 110):
        m = run(prob, bench.reform.partition, dist, seed=seed, T=100,
                probes=ProbeFlags(shadow=True), x0=x0, z0=z0,
                stride=100)
        total_checks += m.counters["shadow_checks"]
        failures += m.counters["shadow_failures"]
        freeze_failures += m.counters["freeze_failures"]
    ok = total_checks == 1000 and failures == 0 and freeze_failures == 0
    assert _report(5, "shadow-identities", ok,
                   f"{total_checks} probed steps, {failures} identity "
                   f"failures at 1e-9, {freeze_failures} freeze violations")


def test_criterion_6_closed_form_edge_step(five_cycle_quadratic):
    bench, dist, x0, z0 = five_cycle_quadratic
    prob = bench.problem
    part = bench.reform.partition
    rng = np.random.default_rng(606)
    worst = 0.0
    worst_pair = 0.0
    p_equal = True
    for _ in range(100):
        st = random_state_for(prob, rng)
        e = int(rng.integers(0, bench.reform.graph.num_edges))
        got = edge_step(bench.reform, st, e)
        want = kernel_block(prob, part, st, e)
        worst = max(worst, float(np.max(np.abs(got.x - want.x))),
                    float(np.max(np.abs(got.z - want.z))),
                    float(np.max(np.abs(got.p - want.p))))
        ri = bench.reform.edge_rows(e, 0)[0]
        rj = bench.reform.edge_rows(e, 1)[0]
        worst_pair = max(worst_pair, abs(got.z[ri] + got.z[rj]))
        p_equal = p_equal and (got.p[ri] == got.p[rj])
    ok = worst <= 1e-10 and worst_pair <= 1e-12 and p_equal
    assert _report(6, "closed-form-edge-step", ok,
                   f"max diff vs generic {worst:.2e}, max pair sum "
                   f"{worst_pair:.2e}, duals exactly equal: {p_equal}")


def test_criterion_7_prox_oracle_equivalence():
    rng = np.random.default_rng(1000)
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
            term = Custom(fn=lambda v, a=a, w=w, g=g:
                          w * (v[0] - a) ** 2 + g * abs(v[0]),
                          dim=1, scalar_convex=True)
            pieces = [("quad", a, w), ("kink", 0.0, g)]
        expect = scalar_subgrad_bisect(pieces, q, l)
        got = solve_local(LocalSubproblem(term=term,
                                          quad_diag=np.array([q]),
                                          linear=np.array([l]),
                                          set=Free(1)))[0]
        worst = max(worst, abs(got - expect))
    ok = worst < 1e-7
    assert _report(7, "prox-oracle-equivalence", ok,
                   f"max |closed form - bisection oracle| {worst:.2e} "
                   "over 1000 instances of all term kinds")


def test_criterion_8_determinism(tmp_path):
    (tmp_path / "g.txt").write_text(Graph.cycle(5).to_text())
    cfg_doc = {
        "problem": {"benchmark": {"name": "consensus-quadratic",
                                  "graph": "g.txt",
                                  "a": [1.0, 2.0, 3.0, 4.0, 5.0]}},
        "T": 500, "seeds": [0, 1, 2],
        "probes": {"ergodic": True, "lyapunov": True},
    }
    from asyncadmm import parse_config
    identical = True
    paths = []
    for out in ("run_a", "run_b"):
        cfg = parse_config(json.dumps(dict(cfg_doc, out=out)))
        assert run_experiment(cfg, base_dir=tmp_path) == 0
        paths.append(tmp_path / out)
    names = sorted(p.name for p in paths[0].iterdir())
    for name in names:
        if (paths[0] / name).read_bytes() != (paths[1] / name).read_bytes():
            identical = False
    ok = identical and len(names) >= 5
    assert _report(8, "determinism", ok,
                   f"{len(names)} artifacts byte-identical across repeated "
                   "runs" if identical else "outputs differ")
