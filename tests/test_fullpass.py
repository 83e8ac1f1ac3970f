"""The one-pass x solve against the per-component solves, bit for bit.

``_CompiledOps.solve_all`` solves every x component at once for the shadow
pass, the synchronous engine and the reference solve. The loops it
replaced (a ``solve_component`` call per component, a ``LocalSubproblem``
per z coordinate, the three-maximum settle test and the per-component
shadow tally) are kept here as the reference, and results are compared
as bytes, so signs of zero count too.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from asyncadmm import (AbsDev, Box, BenchmarkSpec, ConstraintSystem, Custom,
                       Free, Graph, L1, PrimalDualState, Quadratic, RngStream,
                       SeparableProblem, StandardProblem, derive_probabilities,
                       generate_benchmark, initial_state, residual,
                       shadow_step, solve_reference, step, sync_admm_step,
                       uniform_probs)
from asyncadmm import diagnostics, engine
from asyncadmm.errors import UnboundedSubproblem, UnsupportedTerm
from asyncadmm.problem import x_set_bounds
from asyncadmm.prox import LocalSubproblem, solve_local, solve_z_prepared

KINDS = ("quadratic", "absdev", "l1", "l1-zero", "custom")


def make_term(kind, n, rng):
    center = rng.choice([-1.5, -0.0, 0.0, 0.7, 2.0], size=n)
    if kind == "quadratic":
        return Quadratic(center, weight=float(rng.uniform(0.2, 3.0)))
    if kind == "absdev":
        return AbsDev(center)
    if kind == "l1":
        return L1(float(rng.uniform(0.1, 2.0)), dim=n)
    if kind == "l1-zero":
        return L1(0.0, dim=n)
    a = float(center[0])
    return Custom(fn=lambda u, a=a: float((u[0] - a) ** 2 + abs(u[0])),
                  dim=1, scalar_convex=True)


def make_set(n, rng):
    if rng.random() < 0.4:
        return Free(n)
    lo = rng.uniform(-3.0, 0.0, n)
    hi = rng.uniform(0.0, 3.0, n)
    lo[rng.random(n) < 0.2] = -np.inf
    hi[rng.random(n) < 0.2] = np.inf
    return Box(lo, hi)


def random_constraints(rng, n, N, hub_rows=0, uncoupled=False):
    """Rows in shuffled order, each owned by one (component, coordinate).

    Component 0 gets ``hub_rows`` rows when given; with ``uncoupled`` all
    of its rows sit on coordinate 0, so its other coordinates have none.
    """
    counts = rng.integers(1, 4, size=N)
    if hub_rows:
        counts[0] = hub_rows
    W = int(counts.sum())
    owner = np.repeat(np.arange(N), counts)
    coord = rng.integers(0, n, size=W)
    if uncoupled:
        coord[owner == 0] = 0
    row = rng.permutation(W)
    coeff = rng.choice([-1.0, 1.0], W) * rng.uniform(0.3, 2.0, W)
    entries = tuple((int(row[k]), int(owner[k]), int(coord[k]),
                     float(coeff[k])) for k in range(W))
    h = rng.choice([-1.0, 1.0], W) * rng.uniform(0.5, 2.0, W)
    return ConstraintSystem(n=n, N=N, W=W, entries=entries, h_diag=h)


def random_problem(rng, n, N, kinds, hub_rows=0, uncoupled=False):
    cs = random_constraints(rng, n, N, hub_rows, uncoupled)
    terms = tuple(make_term(k, n, rng) for k in kinds[:N])
    x_sets = tuple(make_set(n, rng) for _ in range(N))
    return SeparableProblem(terms=terms, x_sets=x_sets, z_set=Free(cs.W),
                            constraints=cs, beta=float(rng.uniform(0.3, 2.0)))


def random_vector(rng, size, scale=2.0):
    """Normal entries, with some set to +0.0 and some to -0.0."""
    v = rng.normal(size=size) * scale
    v[rng.random(size) < 0.2] = 0.0
    v[rng.random(size) < 0.2] = -0.0
    return v


def per_component(ops, p, z, c=None):
    """The loop ``solve_all`` replaced."""
    n = ops.n
    x = np.empty(ops.N * n)
    for i in range(ops.N):
        x[i * n:(i + 1) * n] = ops.solve_component(i, p, z, c=c)
    return x


def outcome(fn):
    """The bytes of the result, or the type and message of the error."""
    try:
        return fn().tobytes()
    except Exception as exc:  # the error raised first is part of the result
        return type(exc), str(exc)


def assert_same_solves(ops, p, z, c=None):
    want = outcome(lambda: per_component(ops, p, z, c))
    assert outcome(lambda: ops.solve_all(p, z, c)) == want


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([1, 2]),
       N=st.integers(1, 7), hub_rows=st.sampled_from([0, 8, 12]),
       uncoupled=st.booleans(), with_c=st.booleans(),
       kinds=st.lists(st.sampled_from(KINDS), min_size=7, max_size=7))
def test_solve_all_equals_component_loop(seed, n, N, hub_rows, uncoupled,
                                         with_c, kinds):
    rng = np.random.default_rng(seed)
    if n > 1:
        # a Custom term of dimension 2 only raises; see the error tests
        kinds = [k if k != "custom" else "quadratic" for k in kinds]
    prob = random_problem(rng, n, N, kinds, hub_rows, uncoupled and n > 1)
    ops = engine._ops(prob)
    W = prob.dim_z
    for _ in range(3):
        c = random_vector(rng, W) if with_c else None
        assert_same_solves(ops, random_vector(rng, W), random_vector(rng, W),
                           c)


def test_uncoupled_coordinate():
    """n = 2, coordinate 1 of component 0 has no row, so its q is 0."""
    rng = np.random.default_rng(3)
    for kinds in (["absdev"] * 3, ["l1"] * 3, ["l1-zero"] * 3,
                  ["quadratic"] * 3):
        prob = random_problem(rng, 2, 3, kinds, uncoupled=True)
        ops = engine._ops(prob)
        assert ops.quad[0, 1] == 0.0
        for _ in range(5):
            assert_same_solves(ops, random_vector(rng, prob.dim_z),
                               random_vector(rng, prob.dim_z))


def test_star_hub_sums_left_to_right():
    """A hub of 22 rows, where np.sum would add pairwise and differ."""
    rng = np.random.default_rng(5)
    bench = generate_benchmark(
        BenchmarkSpec("consensus-lad", a=list(rng.uniform(-5.0, 5.0, 12))),
        Graph.star(12))
    ops = engine._ops(bench.problem)
    assert ops.counts.max() >= 8
    r0, r1 = ops.comp_ptr[0], ops.comp_ptr[1]
    rows = ops.rows[r0:r1]
    pairwise_differs = 0
    for _ in range(40):
        p = rng.normal(size=ops.W) * 3.0
        z = rng.normal(size=ops.W) * 3.0
        c = rng.normal(size=ops.W)
        assert_same_solves(ops, p, z)
        assert_same_solves(ops, p, z, c)
        g = ops.coeffs_sorted[r0:r1] * (p[rows] - ops.beta * (
            ops.h_sorted[r0:r1] * z[rows]))
        pairwise_differs += np.sum(g) != np.add.accumulate(g)[-1]
    assert pairwise_differs > 0


class Cubic:
    """A term kind no solver knows."""

    dim = 1

    def value(self, u):
        return float(u[0] ** 3)


def scalar_problem(terms):
    """Component i owns rows 2i and 2i + 1; every component is scalar."""
    N = len(terms)
    entries = tuple((2 * i + k, i, 1.0 if k else -1.0)
                    for i in range(N) for k in range(2))
    cs = ConstraintSystem(n=1, N=N, W=2 * N, entries=entries,
                          h_diag=np.ones(2 * N))
    return SeparableProblem(terms=tuple(terms),
                            x_sets=tuple(Free(1) for _ in terms),
                            z_set=Free(2 * N), constraints=cs, beta=0.01)


def failing(i):
    def fn(u):
        raise ValueError(f"component {i}")
    return Custom(fn=fn, dim=1, scalar_convex=True)


UNBOUNDED = Custom(fn=lambda u: -10.0 * u[0] ** 2, dim=1, scalar_convex=True)
NOT_CONVEX = Custom(fn=lambda u: float(u[0] ** 2), dim=1)
Q = Quadratic(np.array([1.0]))


@pytest.mark.parametrize("terms,error", [
    ([Q, failing(1), Q, failing(3)], ValueError),
    ([Q, UNBOUNDED, NOT_CONVEX, Q], UnboundedSubproblem),
    ([Q, NOT_CONVEX, UNBOUNDED, Q], UnsupportedTerm),
    ([AbsDev(np.zeros(1)), Cubic(), failing(2)], UnsupportedTerm),
    ([AbsDev(np.zeros(1)), failing(1), Cubic()], ValueError),
], ids=["custom-errors", "unbounded-first", "unsupported-first",
        "unknown-kind-first", "custom-before-unknown"])
def test_first_error_is_unchanged(terms, error):
    prob = scalar_problem(terms)
    ops = engine._ops(prob)
    rng = np.random.default_rng(0)
    p, z = rng.normal(size=prob.dim_z), rng.normal(size=prob.dim_z)
    with pytest.raises(error) as want:
        per_component(ops, p, z)
    with pytest.raises(error) as got:
        ops.solve_all(p, z)
    assert str(got.value) == str(want.value)


def test_custom_of_dimension_two_raises_first():
    rng = np.random.default_rng(1)
    prob = random_problem(rng, 2, 4, ["absdev", "l1", "quadratic", "absdev"],
                          uncoupled=True)
    terms = list(prob.terms)
    terms[2] = Custom(fn=lambda u: 0.0, dim=2, scalar_convex=True)
    prob = SeparableProblem(terms=tuple(terms), x_sets=prob.x_sets,
                            z_set=prob.z_set, constraints=prob.constraints,
                            beta=prob.beta)
    ops = engine._ops(prob)
    p, z = rng.normal(size=prob.dim_z), rng.normal(size=prob.dim_z)
    want = outcome(lambda: per_component(ops, p, z))
    assert want[0] is UnsupportedTerm
    assert outcome(lambda: ops.solve_all(p, z)) == want


# ---------------------------------------------------------------------------
# The synchronous engine and the reference solve
# ---------------------------------------------------------------------------

def reference_ops(std):
    ops = engine._CompiledOps(std.constraints, std.x_terms,
                              x_set_bounds(std), std.beta)
    ops.set_pairs(std.z_set)
    return ops


def reference_sync_step(std, state, ops):
    """The synchronous step as one solve per component and z coordinate."""
    c = std.c
    x = per_component(ops, state.p, state.z, c=c)
    q = state.p - ops.beta * (ops.coeff * x[ops.col] - c)
    if std.z_terms is None:
        z = solve_z_prepared(ops.h, q / ops.beta, ops.pair_i, ops.pair_j)
    else:
        z = np.empty(ops.W)
        for l in range(ops.W):
            if isinstance(std.z_set, Box):
                coord_set = Box(std.z_set.lower[l:l + 1],
                                std.z_set.upper[l:l + 1])
            else:
                coord_set = Free(1)
            sub = LocalSubproblem(term=std.z_terms[l],
                                  quad_diag=np.array([ops.beta * ops.h[l] ** 2]),
                                  linear=np.array([q[l] * ops.h[l]]),
                                  set=coord_set)
            z[l] = solve_local(sub)[0]
    p = state.p - ops.beta * (ops.coeff * x[ops.col] + ops.h * z - c)
    return PrimalDualState(x=x, z=z, p=p, k=state.k + 1)


def stacked(state):
    return np.concatenate([state.x, state.z, state.p])


def assert_same_trajectory(std, start, steps=25):
    ops = reference_ops(std)
    got, want = start, start
    for _ in range(steps):
        want_next = outcome(lambda: stacked(reference_sync_step(std, want,
                                                                ops)))
        got_next = outcome(lambda: stacked(sync_admm_step(std, got)))
        assert got_next == want_next
        if isinstance(want_next, tuple):
            return
        want = reference_sync_step(std, want, ops)
        got = sync_admm_step(std, got)
        assert got.k == want.k


def benchmark_problem(name, nodes=6, seed=0):
    rng = np.random.default_rng(seed)
    if name == "lasso-toy":
        spec = BenchmarkSpec(name, w=list(rng.uniform(0.5, 2.0, nodes - 1)),
                             b=list(rng.uniform(-3.0, 3.0, nodes - 1)),
                             pi=0.7)
    else:
        spec = BenchmarkSpec(name, a=list(rng.uniform(-5.0, 5.0, nodes)),
                             box_margin=0.05 if name == "consensus-lad"
                             else None)
    return generate_benchmark(spec, Graph.cycle(nodes)).problem


@pytest.mark.parametrize("name", ["consensus-quadratic", "consensus-lad",
                                  "lasso-toy"])
def test_sync_trajectory_separable_branch(name):
    prob = benchmark_problem(name)
    rng = np.random.default_rng(1)
    start = initial_state(prob, x0=rng.normal(size=prob.dim_x))
    start.p[:] = random_vector(rng, prob.dim_z)
    assert_same_trajectory(StandardProblem.from_separable(prob), start)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("z_box", [True, False], ids=["z-box", "z-free"])
@pytest.mark.parametrize("seed", range(4))
def test_sync_trajectory_z_terms_branch(n, z_box, seed):
    rng = np.random.default_rng(seed)
    kinds = [str(k) for k in rng.choice(KINDS, 5)]
    if n > 1:
        kinds = [k if k != "custom" else "absdev" for k in kinds]
    prob = random_problem(rng, n, 5, kinds, hub_rows=9 if seed % 2 else 0)
    W = prob.dim_z
    z_terms = tuple(make_term(str(k), 1, rng) for k in rng.choice(KINDS, W))
    z_set = Free(W)
    if z_box:
        z_set = make_set(W, rng)
        while not isinstance(z_set, Box):
            z_set = make_set(W, rng)
    std = StandardProblem(x_terms=prob.terms, x_sets=prob.x_sets,
                          z_terms=z_terms, z_set=z_set,
                          constraints=prob.constraints,
                          c=random_vector(rng, W), beta=prob.beta)
    start = PrimalDualState(x=random_vector(rng, prob.dim_x),
                            z=random_vector(rng, W), p=random_vector(rng, W))
    assert_same_trajectory(std, start)


def reference_solve(prob, tol=1e-10, max_iters=200_000):
    """The reference solve with three maxima per settle test."""
    std = StandardProblem.from_separable(prob)
    ops = reference_ops(std)
    state = initial_state(prob)
    for k in range(1, max_iters + 1):
        nxt = reference_sync_step(std, state, ops)
        delta = max(float(np.max(np.abs(nxt.x - state.x))),
                    float(np.max(np.abs(nxt.z - state.z))),
                    float(np.max(np.abs(nxt.p - state.p))))
        state = nxt
        if delta < tol:
            if float(np.linalg.norm(residual(prob, state.x, state.z))) < 1e-6:
                return state, k
    raise AssertionError("reference did not settle")


@pytest.mark.parametrize("name", ["consensus-quadratic", "consensus-lad",
                                  "lasso-toy"])
def test_solve_reference_equals_reference_loop(name, monkeypatch):
    prob = benchmark_problem(name, nodes=5)
    want, iters = reference_solve(prob)
    calls = []

    def counted(std, state):
        calls.append(1)
        return sync_admm_step(std, state)

    monkeypatch.setattr(diagnostics, "sync_admm_step", counted)
    ref = solve_reference(prob)
    assert len(calls) == iters
    for name in ("x", "z", "p"):
        assert getattr(ref, name).tobytes() == getattr(want, name).tobytes()


# ---------------------------------------------------------------------------
# The shadow pass and its tally
# ---------------------------------------------------------------------------

def reference_shadow(prob, state):
    ops = engine._ops(prob)
    y = per_component(ops, state.p, state.z)
    t = state.p / ops.beta - ops.coeff * y[ops.col]
    v = solve_z_prepared(ops.h, t, ops.pair_i, ops.pair_j)
    r = ops.coeff * y[ops.col] + ops.h * v
    return y, v, state.p - ops.beta * r, r


def old_tally(prob, partition, rec, counters):
    """The per-component shadow tally the stacked one replaced."""
    n = prob.constraints.n
    comps = partition.component_map[rec.block]
    rows = partition.blocks[rec.block]
    sh = rec.shadow
    ok = True
    for i in comps:
        sl = slice(i * n, (i + 1) * n)
        if np.max(np.abs(rec.after.x[sl] - sh.y[sl])) > engine.SHADOW_TOL:
            ok = False
    if np.max(np.abs(rec.after.z[rows] - sh.v[rows]),
              initial=0.0) > engine.SHADOW_TOL:
        ok = False
    if np.max(np.abs(rec.after.p[rows] - sh.mu[rows]),
              initial=0.0) > engine.SHADOW_TOL:
        ok = False
    counters["shadow_checks"] += 1
    if not ok:
        counters["shadow_failures"] += 1
    comp_mask = np.zeros(prob.dim_x, dtype=bool)
    for i in comps:
        comp_mask[i * n:(i + 1) * n] = True
    row_mask = np.zeros(prob.dim_z, dtype=bool)
    row_mask[rows] = True
    frozen = (np.array_equal(rec.after.x[~comp_mask], rec.before.x[~comp_mask])
              and np.array_equal(rec.after.z[~row_mask],
                                 rec.before.z[~row_mask])
              and np.array_equal(rec.after.p[~row_mask],
                                 rec.before.p[~row_mask]))
    counters["freeze_checks"] += 1
    if not frozen:
        counters["freeze_failures"] += 1


def shadow_case(name):
    rng = np.random.default_rng(2)
    if name == "lad-box":
        bench = generate_benchmark(
            BenchmarkSpec("consensus-lad", a=list(rng.uniform(-5, 5, 6)),
                          box_margin=0.05), Graph.cycle(6))
        return bench.problem, bench.reform.partition
    from asyncadmm import build_reformulation
    terms = tuple(Quadratic(rng.normal(size=2)) for _ in range(5))
    reform = build_reformulation(Graph.cycle(5), terms,
                                 tuple(Free(2) for _ in terms), 1.0)
    return reform.problem, reform.partition


def shadow_records(prob, partition, steps=40):
    dist = derive_probabilities(partition, uniform_probs(partition))
    rng = RngStream(9)
    state = initial_state(prob)
    for _ in range(steps):
        rec = step(prob, state, partition, dist, rng, with_shadow=True)
        yield rec
        state = rec.after


@pytest.mark.parametrize("case", ["lad-box", "vector"])
def test_shadow_step_equals_component_loop(case):
    prob, partition = shadow_case(case)
    for rec in shadow_records(prob, partition):
        got = shadow_step(prob, rec.before)
        want = reference_shadow(prob, rec.before)
        for a, b in zip((got.y, got.v, got.mu, got.r), want):
            assert a.tobytes() == b.tobytes()


def tamper(kind, rec, partition, n):
    """A copy of ``rec.after`` changed one way, and the matching before."""
    after, before = rec.after.copy(), rec.before.copy()
    comps = partition.component_map[rec.block]
    rows = partition.blocks[rec.block]
    moved_x = int(comps[-1]) * n
    still_x = [i for i in range(after.x.size // n) if i not in set(comps)]
    still_row = [r for r in range(after.z.size) if r not in set(rows)]
    if kind == "moved-x-large":
        after.x[moved_x] += 1e-6
    elif kind == "moved-x-tiny":
        after.x[moved_x] += 1e-12
    elif kind == "moved-z-nan":
        after.z[rows[0]] = np.nan
    elif kind == "nan-hides-large":
        # the group's largest difference is NaN, which passes the check
        after.x[moved_x] = np.nan
        after.x[moved_x + n - 1] += 1.0
        after.z[rows[0]] = np.nan
        after.z[rows[-1]] += 1.0
    elif kind == "nan-and-other-component":
        after.x[int(comps[0]) * n] = np.nan
        after.x[moved_x] += 1.0
    elif kind == "nan-and-other-group":
        after.z[rows[0]] = np.nan
        after.p[rows[0]] += 1.0
    elif kind == "frozen-p-moved":
        after.p[still_row[0]] += 1.0
    elif kind == "frozen-x-moved":
        after.x[still_x[0] * n] += 1.0
    elif kind == "frozen-nan-both":
        after.z[still_row[-1]] = before.z[still_row[-1]] = np.nan
    elif kind == "frozen-signed-zero":
        before.p[still_row[0]], after.p[still_row[0]] = 0.0, -0.0
    return before, after


TAMPERS = ("none", "moved-x-large", "moved-x-tiny", "moved-z-nan",
           "nan-hides-large", "nan-and-other-component", "nan-and-other-group",
           "frozen-p-moved", "frozen-x-moved", "frozen-nan-both",
           "frozen-signed-zero")


@pytest.mark.parametrize("case", ["lad-box", "vector"])
@pytest.mark.parametrize("kind", TAMPERS)
def test_tally_equals_old_tally(case, kind):
    prob, partition = shadow_case(case)
    table = engine._block_table(prob, partition)
    n = prob.constraints.n
    got, want = engine._new_counters(0), engine._new_counters(0)
    for rec in shadow_records(prob, partition):
        before, after = tamper(kind, rec, partition, n)
        old_tally(prob, partition,
                  engine.StepRecord(block=rec.block, before=before,
                                    after=after, shadow=rec.shadow), want)
        engine._tally_shadow(table, rec.block, stacked(before),
                             stacked(after), rec.shadow, got)
    assert got == want
    assert want["shadow_checks"] == 40
    if kind == "none":
        assert want["shadow_failures"] == want["freeze_failures"] == 0
