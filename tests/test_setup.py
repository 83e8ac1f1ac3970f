"""Set-up built in array passes equals the per-row construction, bit for bit.

The oracle is ``tests/reference.py``: the loops that built graphs, the
edge reformulation, constraint systems, z pairs, partitions and
activation probabilities before. Valid inputs must give the same fields
(arrays compared as bytes, with dtype and shape); malformed ones the
same exception class and message.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from asyncadmm import (AbsDev, ConstraintSystem, Free, Graph, L1, Quadratic,
                       SumZeroPairs, build_partition, build_reformulation,
                       consensus_reference, derive_probabilities,
                       generate_benchmark, BenchmarkSpec, validate_constraints)
from asyncadmm.benchmarks import BENCHMARK_NAMES
from asyncadmm.consensus import _median
from asyncadmm.errors import AsyncAdmmError

from reference import (reference_consensus, reference_constraints,
                       reference_graph_edges, reference_is_connected,
                       reference_pairs, reference_partition,
                       reference_probabilities, reference_reformulation)

SRC = Path(__file__).resolve().parent.parent / "src"


def assert_bytes(got, want, name=""):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype, name
    assert got.shape == want.shape, name
    assert got.tobytes() == want.tobytes(), name


def raw_edges(kind, nodes):
    """The edge list the old ``Graph`` class methods passed in."""
    if kind == "cycle":
        edges = [(i, (i + 1) % nodes) for i in range(nodes)]
        return [(0, 1)] if nodes == 2 else edges
    if kind == "path":
        return [(i, i + 1) for i in range(nodes - 1)]
    return [(0, i) for i in range(1, nodes)]


def family_terms(family, nodes, n, rng):
    centers = rng.uniform(-5.0, 5.0, (nodes, n))
    if family == "consensus-quadratic":
        return tuple(Quadratic(c, 1.0) for c in centers)
    if family == "consensus-lad":
        return tuple(AbsDev(c) for c in centers)
    weights = rng.uniform(0.5, 2.0, nodes - 1)
    return tuple(Quadratic(c, w) for c, w in zip(centers, weights)) + (
        L1(gamma=1.0, dim=n),)


def outcome(fn, *args):
    """``fn(*args)``, or the class and message of the library error raised."""
    try:
        return "ok", fn(*args)
    except AsyncAdmmError as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kind=st.sampled_from(["cycle", "path", "star"]),
       nodes=st.integers(2, 60),
       family=st.sampled_from(BENCHMARK_NAMES),
       n=st.sampled_from([1, 2]),
       flip=st.sets(st.integers(-2, 70), max_size=6),
       seed=st.integers(0, 2 ** 16))
def test_setup_equals_per_row_construction(kind, nodes, family, n, flip,
                                           seed):
    rng = np.random.default_rng(seed)
    graph = getattr(Graph, kind)(nodes)
    edges = reference_graph_edges(nodes, raw_edges(kind, nodes))
    assert graph.edges == edges
    assert Graph(nodes, raw_edges(kind, nodes)).edges == edges
    assert graph.is_connected() == reference_is_connected(nodes, edges)

    if n == 1 and not flip:
        spec = BenchmarkSpec(family, a=list(rng.uniform(-5.0, 5.0, nodes)))
        reform = generate_benchmark(spec, graph).reform
        terms = reform.problem.terms
    else:
        terms = family_terms(family, nodes, n, rng)
        reform = build_reformulation(graph, terms,
                                     tuple(Free(n) for _ in terms), 1.0,
                                     flip_edges=tuple(flip))
    entries, pairs, signs, blocks = reference_reformulation(edges, n, flip)
    assert_bytes(reform.signs, signs, "signs")

    prob = reform.problem
    cs = prob.constraints
    W = 2 * len(edges) * n
    want = reference_constraints(n, nodes, W, entries, -np.ones(W))
    assert (cs.n, cs.N, cs.W) == (n, nodes, W)
    assert cs.entries == want["entries"]
    assert validate_constraints(cs).violations == want["violations"] == ()
    for name in ("h_diag", "row_block", "row_coord", "row_coeff",
                 "col_index"):
        assert_bytes(getattr(cs, name), want[name], name)
    # the same system through the tuple constructor
    again = ConstraintSystem(n=n, N=nodes, W=W, entries=entries,
                             h_diag=-np.ones(W))
    assert again.entries == want["entries"]
    for name in ("row_block", "row_coord", "row_coeff", "col_index"):
        assert_bytes(getattr(again, name), want[name], name)

    assert prob.z_set.pairs == reference_pairs(W, pairs)
    assert SumZeroPairs(W, pairs).pairs == prob.z_set.pairs

    want_blocks, want_map = reference_partition(pairs, W, want["row_block"],
                                                blocks)
    for part in (reform.partition,
                 build_partition(prob.z_set, cs, [b.tolist() for b in blocks])):
        assert (part.num_rows, part.num_components) == (W, nodes)
        assert len(part.blocks) == len(want_blocks) == part.num_blocks
        for got_b, want_b in zip(part.blocks, want_blocks):
            assert_bytes(got_b, want_b, "blocks")
        for got_c, want_c in zip(part.component_map, want_map):
            assert_bytes(got_c, want_c, "component_map")

    probs = rng.uniform(0.1, 1.0, len(blocks))
    probs = probs / probs.sum()
    dist = derive_probabilities(reform.partition, probs)
    lam, alpha, weight = reference_probabilities(want_blocks, want_map, W,
                                                 nodes, dist.block_probs)
    assert_bytes(dist.lam, lam, "lam")
    assert_bytes(dist.alpha, alpha, "alpha")
    assert_bytes(dist.weight_diag, weight, "weight_diag")

    assert_bytes(consensus_reference(terms), reference_consensus(terms),
                 "consensus_reference")


index = st.integers(-2, 9)


@st.composite
def entry_lists(draw):
    def entry():
        row, block, coord = (draw(st.integers(-1, 3)) for _ in range(3))
        coeff = draw(st.sampled_from([1.0, -2.0, 0.0, -0.0]))
        full = (row, block, coord, coeff)
        return draw(st.sampled_from([full, full, (row, block, coeff),
                                     (row, block)]))
    return [entry() for _ in range(draw(st.integers(0, 10)))]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_malformed_input_raises_as_the_per_row_loops(data):
    """Edges, entries, pairs and blocks with errors raise the same class
    and message as the oracle; the ones without give the same result."""
    draw = data.draw
    nodes = draw(st.integers(0, 6))
    end = st.integers(-1, max(nodes, 1))
    edges = draw(st.lists(st.tuples(end, end), max_size=8))
    got = outcome(lambda: Graph(nodes, tuple(edges)).edges)
    event(f"graph: {got[0] if got[0] == 'ok' else got[1].split()[0]}")
    assert got == outcome(reference_graph_edges, nodes, edges)
    if got[0] == "ok":
        g = Graph(nodes, tuple(edges))
        assert g.is_connected() == reference_is_connected(nodes, got[1])
        assert Graph(nodes, np.array(edges, dtype=np.intp).reshape(-1, 2)
                     ).edges == got[1]

    n, N, W = (draw(st.sampled_from([0, 1, 1, 2, 2, 3, 3, 3]))
               for _ in range(3))
    entries = draw(entry_lists())
    h = np.array(draw(st.lists(st.sampled_from([1.0, -1.0, 0.0]),
                               min_size=W, max_size=W)))
    got = outcome(ConstraintSystem, n, N, W, tuple(entries), h)
    want = outcome(reference_constraints, n, N, W, entries, h)
    event(f"entries: {got[0] if got[0] == 'ok' else got[1].split()[0]}")
    if got[0] != "ok" or want[0] != "ok":
        assert got == want
    else:
        cs, ref = got[1], want[1]
        assert cs.entries == ref["entries"]
        assert validate_constraints(cs).violations == ref["violations"]
        assert cs.is_valid == (not ref["violations"])
        for name in ("h_diag", "row_block", "row_coord", "row_coeff",
                     "col_index"):
            if ref[name] is None:
                assert getattr(cs, name) is None
            else:
                assert_bytes(getattr(cs, name), ref[name], name)

    dim = draw(st.integers(1, 8))
    pairs = draw(st.lists(st.tuples(index, index), max_size=5))
    got = outcome(lambda: SumZeroPairs(dim, tuple(pairs)).pairs)
    event(f"pairs: {got[0] if got[0] == 'ok' else got[1].split()[0]}")
    assert got == outcome(reference_pairs, dim, pairs)

    # blocks over a valid system: a path of three or four nodes, n = 1
    graph = Graph.path(draw(st.integers(3, 4)))
    reform = build_reformulation(
        graph, tuple(Quadratic(np.zeros(1)) for _ in range(graph.num_nodes)),
        tuple(Free(1) for _ in range(graph.num_nodes)), 1.0)
    cs = reform.problem.constraints
    z_set = draw(st.sampled_from([reform.problem.z_set, Free(cs.W)]))
    # a cover of the rows, the same with one row added, or any lists
    perm = draw(st.permutations(range(cs.W)))
    cuts = sorted(draw(st.sets(st.integers(1, cs.W - 1), max_size=4)))
    blocks = [list(perm[a:b]) for a, b in zip([0] + cuts, cuts + [cs.W])]
    mode = draw(st.sampled_from(["cover", "cover+row", "lists"]))
    if mode == "cover+row":
        blocks[draw(st.integers(0, len(blocks) - 1))].append(
            draw(st.integers(-1, cs.W)))
    elif mode == "lists":
        blocks = draw(st.lists(st.lists(st.integers(-1, cs.W), max_size=4),
                               max_size=5))
    got = outcome(build_partition, z_set, cs, blocks)
    want = outcome(reference_partition,
                   z_set.pairs if isinstance(z_set, SumZeroPairs) else (),
                   cs.W, cs.row_block, blocks)
    event(f"blocks: {got[0] if got[0] == 'ok' else got[0].__name__}")
    if got[0] != "ok" or want[0] != "ok":
        assert got == want
    else:
        part, (want_blocks, want_map) = got[1], want[1]
        assert len(part.blocks) == len(want_blocks)
        for got_b, want_b in zip(part.blocks, want_blocks):
            assert_bytes(got_b, want_b, "blocks")
        for got_c, want_c in zip(part.component_map, want_map):
            assert_bytes(got_c, want_c, "component_map")


finite = st.floats(allow_nan=False, width=64) | st.sampled_from(
    [0.0, -0.0, np.inf, -np.inf])


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 9), cols=st.integers(1, 3), data=st.data())
def test_median_equals_numpy_median(rows, cols, data):
    values = np.array(data.draw(st.lists(finite, min_size=rows * cols,
                                         max_size=rows * cols)),
                      dtype=float).reshape(rows, cols)
    with np.errstate(invalid="ignore"):  # inf - inf in a middle pair
        want = np.median(values, axis=0)
        got = _median(values)
    assert_bytes(got, want, f"{rows} rows")


def test_median_keeps_a_nan_column():
    values = np.array([[1.0, 2.0], [np.nan, 3.0], [0.5, 1.0]])
    with np.errstate(invalid="ignore"):
        want = np.median(values, axis=0)
    got = _median(values)
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    assert got[1] == want[1]


# Each family in a fresh interpreter: prepare, then run, then check that
# nothing imported numpy.ma (its import costs about 15 ms).
NO_MA = """
import sys
from pathlib import Path
from asyncadmm.config import parse_config
from asyncadmm.runner import prepare_experiment, run_experiment
base = Path(sys.argv[1])
config = parse_config((base / "exp.json").read_text())
prepare_experiment(config, base_dir=base)
assert run_experiment(config, base_dir=base) == 0
assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
"""

INLINE_PROBLEM = {
    "n": 1, "N": 2, "W": 2, "beta": 1.0,
    "terms": [{"kind": "quadratic", "center": [1.0], "weight": 2.0},
              {"kind": "absdev", "center": [-1.0]}],
    "x_sets": [{"kind": "box", "lower": [-1.0], "upper": [3.0]},
               {"kind": "free", "dim": 1}],
    "z_set": {"kind": "sum_zero_pairs", "dim": 2, "pairs": [[0, 1]]},
    "D_rows": [[0, 0, 1.0], [1, 1, -1.0]],
    "H_diag": [-1.0, -1.0]}


@pytest.mark.parametrize("source", list(BENCHMARK_NAMES) + ["problem-file"])
def test_no_numpy_ma_in_setup(tmp_path, source):
    probes = {"ergodic": True}
    if source == "problem-file":
        (tmp_path / "p.json").write_text(json.dumps(INLINE_PROBLEM))
        problem = {"file": "p.json"}
        probes.update(shadow=True, lyapunov=True)
    else:
        (tmp_path / "g.txt").write_text(Graph.cycle(7).to_text())
        problem = {"benchmark": {"name": source, "graph": "g.txt"}}
    (tmp_path / "exp.json").write_text(json.dumps({
        "problem": problem, "T": 40, "seeds": [0, 1], "stride": 5,
        "probes": probes, "out": "out",
        "reference": "sync" if source == "consensus-lad" else "auto"}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", NO_MA, str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "summary.json").exists()
