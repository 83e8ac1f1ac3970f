"""The one-pass x solve against the per-component solves, bit for bit.

The synchronous step's program solves every x component at once for the
shadow pass, the synchronous engine and the reference solve
(``_CompiledOps.solve_all`` returns that x). The loops it replaced are
the reference: one ``reference.plain_component`` solve per
component (``reference.per_component``), and here the three-maximum
settle test and the per-component shadow tally, which the engine's
stacked tally must match. Results are compared as bytes, so signs of zero count too.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from asyncadmm import (AbsDev, Box, BenchmarkSpec, ConstraintSystem, Custom,
                       Free, Graph, L1, PrimalDualState, ProbeFlags, Quadratic,
                       RngStream, SeparableProblem, SumZeroPairs,
                       derive_probabilities, generate_benchmark,
                       initial_state, residual, run, shadow_step,
                       solve_reference, step, sync_admm_step, uniform_probs)
from asyncadmm import compiled, engine
from asyncadmm.errors import (MissingReference, UnboundedSubproblem,
                             UnsupportedTerm)
from asyncadmm.problem import TermGroups
from asyncadmm.prox import _GroupedProx, solve_z_prepared
from reference import per_component, plain_shadow

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


def random_problem(rng, n, N, kinds, hub_rows=0, uncoupled=False,
                   z_pairs=False):
    """With ``z_pairs``, the z set ties disjoint pairs of rows."""
    cs = random_constraints(rng, n, N, hub_rows, uncoupled)
    terms = tuple(make_term(k, n, rng) for k in kinds[:N])
    x_sets = tuple(make_set(n, rng) for _ in range(N))
    z_set = Free(cs.W)
    if z_pairs:
        z_set = SumZeroPairs(cs.W, rng.permutation(cs.W)[:cs.W // 2 * 2]
                             .reshape(-1, 2))
    return SeparableProblem(terms=terms, x_sets=x_sets, z_set=z_set,
                            constraints=cs, beta=float(rng.uniform(0.3, 2.0)))


def random_vector(rng, size, scale=2.0):
    """Normal entries, with some set to +0.0 and some to -0.0."""
    v = rng.normal(size=size) * scale
    v[rng.random(size) < 0.2] = 0.0
    v[rng.random(size) < 0.2] = -0.0
    return v


def outcome(fn):
    """The bytes of the result, or the type and message of the error; a
    numpy warning is raised, so that its values are never skipped."""
    try:
        return fn().tobytes()
    except RuntimeWarning:
        raise
    except Exception as exc:  # the error raised first is part of the result
        return type(exc), str(exc)


def assert_same_solves(prob, p, z):
    want = outcome(lambda: per_component(prob, p, z))
    assert outcome(lambda: engine._ops(prob).solve_all(p, z)) == want


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([1, 2]),
       N=st.integers(1, 7), hub_rows=st.sampled_from([0, 8, 12]),
       uncoupled=st.booleans(),
       kinds=st.lists(st.sampled_from(KINDS), min_size=7, max_size=7))
def test_solve_all_equals_component_loop(seed, n, N, hub_rows, uncoupled,
                                         kinds):
    rng = np.random.default_rng(seed)
    if n > 1:
        # a Custom term of dimension 2 only raises; see the error tests
        kinds = [k if k != "custom" else "quadratic" for k in kinds]
    prob = random_problem(rng, n, N, kinds, hub_rows, uncoupled and n > 1)
    W = prob.dim_z
    for _ in range(3):
        assert_same_solves(prob, random_vector(rng, W), random_vector(rng, W))


def test_uncoupled_coordinate():
    """n = 2, coordinate 1 of component 0 has no row, so its q is 0."""
    rng = np.random.default_rng(3)
    for kinds in (["absdev"] * 3, ["l1"] * 3, ["l1-zero"] * 3,
                  ["quadratic"] * 3):
        prob = random_problem(rng, 2, 3, kinds, uncoupled=True)
        ops = engine._ops(prob)
        assert ops.quad[0, 1] == 0.0
        for _ in range(5):
            assert_same_solves(prob, random_vector(rng, prob.dim_z),
                               random_vector(rng, prob.dim_z))


def test_star_hub_sums_left_to_right():
    """A hub of 22 rows, where np.sum would add pairwise and differ."""
    rng = np.random.default_rng(5)
    bench = generate_benchmark(
        BenchmarkSpec("consensus-lad", a=list(rng.uniform(-5.0, 5.0, 12))),
        Graph.star(12))
    prob = bench.problem
    cs = prob.constraints
    rows = np.flatnonzero(cs.row_block == 0)
    assert rows.size >= 8
    pairwise_differs = 0
    for _ in range(40):
        p = rng.normal(size=cs.W) * 3.0
        z = rng.normal(size=cs.W) * 3.0
        assert_same_solves(prob, p, z)
        g = cs.row_coeff[rows] * (p[rows] - prob.beta * (
            cs.h_diag[rows] * z[rows]))
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
        per_component(prob, p, z)
    with pytest.raises(error) as got:
        ops.solve_all(p, z)
    assert str(got.value) == str(want.value)
    # through the program: one point, and a stack whose rows all raise
    with pytest.raises(error) as got:
        sync_admm_step(prob, PrimalDualState(x=np.zeros(prob.dim_x), z=z, p=p))
    assert str(got.value) == str(want.value)
    stack = PrimalDualState(x=np.zeros((3, prob.dim_x)),
                            z=np.stack([z, -z, 2.0 * z]),
                            p=np.stack([p, 2.0 * p, -p]))
    with pytest.raises(error) as got:
        shadow_step(prob, stack)
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
    want = outcome(lambda: per_component(prob, p, z))
    assert want[0] is UnsupportedTerm
    assert outcome(lambda: ops.solve_all(p, z)) == want


# ---------------------------------------------------------------------------
# The synchronous engine and the reference solve
# ---------------------------------------------------------------------------

def reference_sync_step(prob, state, ops):
    """The synchronous step as one solve per component, with the dual
    arithmetic of a right-hand side ``c``, here zero: z fits
    ``p / beta - (D x - c)``."""
    c = np.zeros(ops.W)
    x = per_component(prob, state.p, state.z)
    target = state.p / ops.beta - (ops.coeff * x[ops.col] - c)
    z = solve_z_prepared(ops.h, target, ops.pair_i, ops.pair_j)
    p = state.p - ops.beta * (ops.coeff * x[ops.col] + ops.h * z - c)
    return PrimalDualState(x=x, z=z, p=p, k=state.k + 1)


def stacked(state):
    return np.concatenate([state.x, state.z, state.p])


def assert_same_trajectory(prob, start, steps=25):
    ops = engine._CompiledOps(prob)   # built apart from the engine's cache
    got, want = start, start
    for _ in range(steps):
        want_next = outcome(lambda: stacked(reference_sync_step(prob, want,
                                                                ops)))
        got_next = outcome(lambda: stacked(sync_admm_step(prob, got)))
        assert got_next == want_next
        if isinstance(want_next, tuple):
            return
        want = reference_sync_step(prob, want, ops)
        got = sync_admm_step(prob, got)
        assert got.k == want.k


def benchmark_problem(name, nodes=6, seed=0, beta=1.0):
    rng = np.random.default_rng(seed)
    if name == "lasso-toy":
        spec = BenchmarkSpec(name, w=list(rng.uniform(0.5, 2.0, nodes - 1)),
                             b=list(rng.uniform(-3.0, 3.0, nodes - 1)),
                             pi=0.7)
    else:
        spec = BenchmarkSpec(name, a=list(rng.uniform(-5.0, 5.0, nodes)),
                             box_margin=0.05 if name == "consensus-lad"
                             else None)
    return generate_benchmark(spec, Graph.cycle(nodes), beta=beta).problem


def random_state(rng, prob, S=None):
    """A random state, or a stack of ``S`` of them."""
    shape = () if S is None else (S,)
    return PrimalDualState(
        x=random_vector(rng, shape + (prob.dim_x,)),
        z=random_vector(rng, shape + (prob.dim_z,)),
        p=random_vector(rng, shape + (prob.dim_z,)))


def row(state, i):
    return PrimalDualState(x=state.x[i], z=state.z[i], p=state.p[i])


def triple(st, i=None):
    """The bytes of a state's (x, z, p) or a shadow pass's (y, v, mu, r),
    or of row ``i`` of a stacked pass."""
    if isinstance(st, PrimalDualState):
        return [a.tobytes() for a in (st.x, st.z, st.p)]
    return [(a if i is None else a[i]).tobytes()
            for a in (st.y, st.v, st.mu, st.r)]


@pytest.mark.parametrize("beta", [0.7, 1.0, 1.7])
@pytest.mark.parametrize("name", ["consensus-quadratic", "consensus-lad",
                                  "lasso-toy"])
def test_sync_step_is_the_shadow_pass(name, beta):
    """The synchronous step is the shadow pass's program, so from one state
    its (x, z, p) is the shadow's (y, v, mu) bit for bit, and so is each
    row of the pass on a stack of those states."""
    prob = benchmark_problem(name, beta=beta)
    rng = np.random.default_rng(3)
    stack = random_state(rng, prob, S=20)
    passes = shadow_step(prob, stack)
    for i in range(20):
        got = sync_admm_step(prob, row(stack, i))
        sh = shadow_step(prob, row(stack, i))
        assert triple(got) == triple(sh)[:3]
        assert triple(sh) == triple(passes, i)


@pytest.mark.parametrize("name", ["consensus-lad", "lasso-toy"])
def test_results_are_never_the_scratch(name):
    """A second call of either step, on one point or on a stack of the
    same shape, leaves the bytes of the first call's result as they were."""
    prob = benchmark_problem(name)
    rng = np.random.default_rng(4)
    first, second = random_state(rng, prob), random_state(rng, prob)
    kept = [sync_admm_step(prob, first), shadow_step(prob, first)]
    want = [triple(a) for a in kept]
    sync_admm_step(prob, second)
    shadow_step(prob, second)
    assert [triple(a) for a in kept] == want
    first, second = random_state(rng, prob, 3), random_state(rng, prob, 3)
    kept = shadow_step(prob, first)
    want = triple(kept)
    shadow_step(prob, second)
    assert triple(kept) == want


def test_integer_states_step_as_floats():
    prob = benchmark_problem("consensus-lad")
    ints = PrimalDualState(x=np.zeros(prob.dim_x, dtype=int),
                           z=np.arange(prob.dim_z) % 3 - 1,
                           p=np.arange(prob.dim_z) % 5 - 2)
    floats = PrimalDualState(*(a.astype(float) for a in (ints.x, ints.z,
                                                         ints.p)))
    assert triple(sync_admm_step(prob, ints)) == \
        triple(sync_admm_step(prob, floats))
    assert triple(shadow_step(prob, ints)) == triple(shadow_step(prob, floats))


@pytest.mark.parametrize("z_pairs", [True, False], ids=["z-pairs", "z-free"])
def test_stacks_of_changing_shape_keep_every_row(z_pairs):
    """Stacks of 3, then 5, then 3 rows again: each shape's scratch gives
    every row the 1-D pass bit for bit."""
    rng = np.random.default_rng(6)
    prob = random_problem(rng, 2, 5, ["quadratic", "absdev", "l1", "absdev",
                                      "quadratic"], hub_rows=9,
                          z_pairs=z_pairs)
    for S in (3, 5, 3):
        stack = random_state(rng, prob, S)
        passes = shadow_step(prob, stack)
        for i in range(S):
            want = plain_shadow(prob, row(stack, i))
            assert triple(passes, i) == [a.tobytes() for a in want]


def hub_problem(hub_rows, z_pairs=False):
    """Three components, one of them a hub of ``hub_rows`` rows."""
    return random_problem(np.random.default_rng(1), 1, 3,
                          ["quadratic", "absdev", "l1"], hub_rows=hub_rows,
                          z_pairs=z_pairs)


@pytest.mark.parametrize("z_pairs", [True, False], ids=["z-pairs", "z-free"])
def test_hub_step_equals_reference_step(z_pairs):
    """The rows of a 2,500-row hub past the ranks the other components
    reach are summed by one accumulate, from the hub's partial sum."""
    prob = hub_problem(2500, z_pairs)
    rng = np.random.default_rng(2)
    assert_same_trajectory(prob, random_state(rng, prob), steps=5)
    stack = random_state(rng, prob, S=3)
    passes = shadow_step(prob, stack)
    for i in range(3):
        assert triple(passes, i) == \
            [a.tobytes() for a in plain_shadow(prob, row(stack, i))]


def built_programs(monkeypatch):
    """The programs of the synchronous step built, as they are built."""
    built, program = [], compiled._Stacked.program

    def counted(self, src, out):
        built.append(self.shape)
        return program(self, src, out)

    monkeypatch.setattr(compiled._Stacked, "program", counted)
    return built


def test_programs_are_built_once(monkeypatch):
    """A reference solve binds one program per pair of history rows, not
    one per step; passes and steps of one shape replay one program."""
    prob = benchmark_problem("consensus-lad", nodes=5)
    built, calls = built_programs(monkeypatch), counting_steps(monkeypatch)
    ref = solve_reference(prob)
    assert built == [()] * SETTLE_BLOCK
    assert len(calls) >= ref.iters > 10 * SETTLE_BLOCK
    del built[:], calls[:]
    rng = np.random.default_rng(8)
    for _ in range(40):
        shadow_step(prob, random_state(rng, prob, S=3))
        sync_admm_step(prob, random_state(rng, prob))
    assert built == [(3,), ()]
    assert len(calls) == 80


def test_program_length_does_not_grow_with_the_stack_or_the_hub():
    """The bound calls of a step are as many for a hub of 50, 500 or 2,500
    rows, and for one point or a stack of 1, 3 or 20."""
    lengths = set()
    for hub_rows in (50, 500, 2500):
        ops = engine._ops(hub_problem(hub_rows))
        for shape in ((), (1,), (3,), (20,)):
            lengths.add(len(ops.stacked(shape).own))
    assert len(lengths) == 1


def serial_case(kind, z_pairs):
    """A problem whose x solve has one-by-one solves: ``custom``, n = 1
    with a ``Custom`` term among the closed-form kinds; ``kink-q0``, n = 2
    with a kink component of which one coordinate has no row (``q ==
    0``); ``both``, the two at n = 2, where the ``Custom`` term (of
    dimension 2) raises. A ``Custom`` term solves only at n = 1 and a
    coordinate without a row needs n > 1."""
    rng = np.random.default_rng(11)
    if kind == "custom":
        return random_problem(rng, 1, 5, ["quadratic", "custom", "absdev",
                                          "l1", "custom"], z_pairs=z_pairs)
    prob = random_problem(rng, 2, 4, ["absdev", "quadratic", "l1", "absdev"],
                          uncoupled=True, z_pairs=z_pairs)
    if kind == "both":
        terms = list(prob.terms)
        terms[2] = Custom(fn=lambda u: 0.0, dim=2, scalar_convex=True)
        prob = SeparableProblem(terms=tuple(terms), x_sets=prob.x_sets,
                                z_set=prob.z_set, constraints=prob.constraints,
                                beta=prob.beta)
    return prob


@pytest.mark.parametrize("z_pairs", [True, False], ids=["z-pairs", "z-free"])
@pytest.mark.parametrize("kind", ["custom", "kink-q0", "both"])
def test_serial_solves_inside_the_program(kind, z_pairs):
    """``sync_admm_step`` and each row of a stacked ``shadow_step`` equal
    the per-component step, or raise its first error."""
    prob = serial_case(kind, z_pairs)
    ops = engine._CompiledOps(prob)
    kinds = {i < 0 for i, _ in ops.prox.serial}
    assert kinds == {"custom": {False}, "kink-q0": {True},
                     "both": {False, True}}[kind]
    rng = np.random.default_rng(12)
    assert_same_trajectory(prob, random_state(rng, prob), steps=5)
    stack = random_state(rng, prob, S=4)
    want = [outcome(lambda: stacked(reference_sync_step(prob, row(stack, i),
                                                        ops)))
            for i in range(4)]
    if kind == "both":
        assert want[0][0] is UnsupportedTerm
        assert outcome(lambda: shadow_step(prob, stack).y) == want[0]
    else:
        passes = shadow_step(prob, stack)
        for i in range(4):
            assert np.concatenate([passes.y[i], passes.v[i],
                                   passes.mu[i]]).tobytes() == want[i]


def test_tilt_passes_do_not_grow_with_the_hub():
    """The tilt adds one slice per rank the short components reach and
    accumulates the hub's rows past them in one pass of its own."""
    passes = set()
    for hub_rows in (50, 500, 2500):
        s = engine._ops(hub_problem(hub_rows)).stacked(())
        passes.add((len(s.ranks), len(s.tails)))
    assert len(passes) == 1 and sum(passes.pop()) <= 4


@pytest.mark.parametrize("name", ["consensus-quadratic", "consensus-lad",
                                  "lasso-toy"])
def test_sync_trajectory_separable_branch(name):
    prob = benchmark_problem(name)
    rng = np.random.default_rng(1)
    start = initial_state(prob, x0=rng.normal(size=prob.dim_x))
    start.p[:] = random_vector(rng, prob.dim_z)
    assert_same_trajectory(prob, start)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("z_pairs", [True, False], ids=["z-pairs", "z-free"])
@pytest.mark.parametrize("seed", range(4))
def test_sync_trajectory_random_problem(n, z_pairs, seed):
    """Every term kind, hub components and signed zeros in the start."""
    rng = np.random.default_rng(seed)
    kinds = [str(k) for k in rng.choice(KINDS, 5)]
    if n > 1:
        kinds = [k if k != "custom" else "absdev" for k in kinds]
    prob = random_problem(rng, n, 5, kinds, hub_rows=9 if seed % 2 else 0,
                          z_pairs=z_pairs)
    W = prob.dim_z
    start = PrimalDualState(x=random_vector(rng, prob.dim_x),
                            z=random_vector(rng, W), p=random_vector(rng, W))
    assert_same_trajectory(prob, start)


def reference_solve(prob, tol=1e-10, max_iters=200_000, feasible=1e-6):
    """The reference solve with three maxima per settle test, one
    iteration at a time. Returns the state and its iteration count; with
    ``feasible = inf``, the first iteration that settles."""
    ops = engine._CompiledOps(prob)
    state = initial_state(prob)
    for k in range(1, max_iters + 1):
        nxt = reference_sync_step(prob, state, ops)
        delta = max(float(np.max(np.abs(nxt.x - state.x))),
                    float(np.max(np.abs(nxt.z - state.z))),
                    float(np.max(np.abs(nxt.p - state.p))))
        state = nxt
        if delta < tol:
            if float(np.linalg.norm(residual(prob, state.x,
                                             state.z))) < feasible:
                return state, k
    raise AssertionError("reference did not settle")


# the reference solve's history: rows per settle test, and bytes at most
SETTLE_BLOCK, HISTORY_BYTES = 32, 1 << 20


def assert_same_reference(prob, **kwargs):
    """``solve_reference`` returns the loop's iterate, bit for bit, at its
    iteration; returns that count."""
    want, iters = reference_solve(prob, **kwargs)
    ref = solve_reference(prob, **kwargs)
    assert ref.iters == iters
    for name in ("x", "z", "p"):
        assert getattr(ref, name).tobytes() == getattr(want, name).tobytes()
    return iters


def counting_steps(monkeypatch, fail_at=None):
    """Count the synchronous steps taken; step ``fail_at`` raises."""
    calls, sync_step = [], engine._CompiledOps.sync_step

    def counted(self, program):
        calls.append(1)
        if len(calls) == fail_at:
            raise ValueError(f"step {fail_at}")
        sync_step(self, program)

    monkeypatch.setattr(engine._CompiledOps, "sync_step", counted)
    return calls


@pytest.mark.parametrize("name", ["consensus-quadratic", "consensus-lad",
                                  "lasso-toy"])
def test_solve_reference_equals_reference_loop(name):
    assert_same_reference(benchmark_problem(name, nodes=5))


def test_solve_reference_settles_on_the_first_iteration():
    """A free z set makes the first iterate feasible; a large tolerance
    makes it settle."""
    prob = random_problem(np.random.default_rng(0), 1, 5, ["quadratic"] * 5)
    assert assert_same_reference(prob, tol=1e3) == 1


def test_solve_reference_settles_on_the_last_row_of_a_block():
    iters = assert_same_reference(benchmark_problem("consensus-quadratic",
                                                    nodes=5),
                                  tol=10 ** -10.75)
    assert iters == 2 * SETTLE_BLOCK


@pytest.mark.parametrize("tol", [0.1, 1e-5])
def test_solve_reference_passes_settled_but_infeasible_iterates(tol):
    """With a loose tolerance the iterates settle before they are
    feasible: the loop goes on to the first feasible one, past blocks."""
    prob = benchmark_problem("consensus-lad", nodes=5)
    _, first = reference_solve(prob, tol=tol, feasible=np.inf)
    assert first < assert_same_reference(prob, tol=tol)


def test_solve_reference_on_a_wide_problem_uses_fewer_rows():
    """A hub of 2,500 rows: the history holds fewer rows than a block, and
    the settle falls in its second block."""
    prob = random_problem(np.random.default_rng(0), 1, 3,
                          ["quadratic", "absdev", "l1"], hub_rows=2500,
                          z_pairs=True)
    rows = HISTORY_BYTES // (8 * engine._ops(prob).width) - 1
    assert rows < SETTLE_BLOCK
    assert rows < assert_same_reference(prob) <= 2 * rows


@pytest.mark.parametrize("max_iters", [1, 5, SETTLE_BLOCK + 3])
def test_solve_reference_stops_after_max_iters(max_iters, monkeypatch):
    prob = benchmark_problem("consensus-lad", nodes=5)
    calls = counting_steps(monkeypatch)
    with pytest.raises(MissingReference) as err:
        solve_reference(prob, max_iters=max_iters)
    assert str(err.value) == ("synchronous baseline did not settle to 1e-10 "
                              f"in {max_iters} iters")
    assert len(calls) == max_iters


@pytest.mark.parametrize("late", [1, 0])
def test_a_step_that_raises_lets_the_rows_before_it_settle(late,
                                                           monkeypatch):
    """A loop testing each iteration returns before a later step raises,
    and raises when the step comes first."""
    prob = benchmark_problem("consensus-quadratic", nodes=5)
    want, iters = reference_solve(prob)
    counting_steps(monkeypatch, fail_at=iters + late)
    if late:
        ref = solve_reference(prob)
        assert ref.iters == iters
        assert ref.p.tobytes() == want.p.tobytes()
    else:
        with pytest.raises(ValueError, match=f"step {iters}"):
            solve_reference(prob)


def test_reference_solve_and_run_share_the_compiled_problem(monkeypatch):
    """One compile of the problem serves the reference solve and a
    shadow-probed run: the ops, their grouped prox and the term groups
    are each built once."""
    built = {cls: [] for cls in (engine._CompiledOps, _GroupedProx,
                                 TermGroups)}
    for cls, calls in built.items():
        def counted(self, *args, init=cls.__init__, calls=calls):
            calls.append(self)
            init(self, *args)
        monkeypatch.setattr(cls, "__init__", counted)
    rng = np.random.default_rng(4)
    bench = generate_benchmark(
        BenchmarkSpec("consensus-lad", a=list(rng.uniform(-5.0, 5.0, 6)),
                      box_margin=0.05), Graph.cycle(6))
    prob, partition = bench.problem, bench.reform.partition
    ref = solve_reference(prob)
    ops = engine._ops(prob)
    dist = derive_probabilities(partition, uniform_probs(partition))
    run(prob, partition, dist, seed=0, T=30, ref=ref,
        probes=ProbeFlags(shadow=True, lyapunov=True, ergodic=True))
    assert engine._ops(prob) is ops
    assert built[engine._CompiledOps] == [ops]
    assert built[_GroupedProx] == [ops.prox]
    assert built[TermGroups] == [ops.groups]


# ---------------------------------------------------------------------------
# The shadow pass and its tally
# ---------------------------------------------------------------------------

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
        want = plain_shadow(prob, rec.before)
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


def engine_tally(prob, partition, blocks, befores, afters, shadows):
    """The engine's tally of one step per seed, as one stacked call.

    Seed ``s`` fired block ``blocks[s]`` from state ``befores[s]`` to
    ``afters[s]``, and ``shadows[s]`` is the ``(y, v, mu)`` pass from
    ``befores[s]``. Each is laid out in a state row of the run's table,
    as ``run_batch`` lays it out, as a block of one iteration. Returns
    each seed's counters.
    """
    bt = engine._block_table(prob, partition)
    S = len(blocks)

    def rows(triples):
        return np.stack([bt.layout(x, z, p) for x, z, p in triples])

    idx = bt.lanes(np.asarray(blocks), stacked=True)[0]
    tally = np.zeros((S, len(engine._TALLY)), dtype=np.intp)
    engine._tally_shadow(bt, idx[None],
                         np.stack([rows((b.x, b.z, b.p) for b in befores),
                                   rows((a.x, a.z, a.p) for a in afters)]),
                         rows(sh[:3] for sh in shadows)[None], tally)
    return [dict(zip(engine._TALLY, row)) for row in tally.tolist()]


@pytest.mark.parametrize("case", ["lad-box", "vector"])
@pytest.mark.parametrize("kind", TAMPERS)
def test_tally_equals_old_tally(case, kind):
    """Every step of a path, tampered, as one row of one stacked tally."""
    prob, partition = shadow_case(case)
    n = prob.constraints.n
    blocks, befores, afters, shadows, want = [], [], [], [], []
    for rec in shadow_records(prob, partition):
        before, after = tamper(kind, rec, partition, n)
        want.append(dict.fromkeys(engine._TALLY, 0))
        old_tally(prob, partition,
                  engine.StepRecord(block=rec.block, before=before,
                                    after=after, shadow=rec.shadow), want[-1])
        blocks.append(rec.block)
        befores.append(before)
        afters.append(after)
        shadows.append((rec.shadow.y, rec.shadow.v, rec.shadow.mu))
    assert engine_tally(prob, partition, blocks, befores, afters,
                        shadows) == want
    assert len(want) == 40
    if kind == "none":
        assert not any(c["shadow_failures"] or c["freeze_failures"]
                       for c in want)
