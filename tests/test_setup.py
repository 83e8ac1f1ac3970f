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

from asyncadmm import (AbsDev, ConstraintSystem, ExperimentConfig, Free,
                       Graph, L1, ProbeFlags, ProblemSource, Quadratic,
                       SumZeroPairs, build_partition, build_reformulation,
                       consensus_reference, derive_probabilities,
                       generate_benchmark, BenchmarkSpec, run_experiment,
                       validate_constraints)
from asyncadmm.benchmarks import BENCHMARK_NAMES
from asyncadmm.consensus import _median
from asyncadmm.errors import AsyncAdmmError, InvalidProblem

from reference import (GRAPHS, reference_consensus, reference_constraints,
                       reference_graph_edges, reference_is_connected,
                       reference_pairs, reference_partition,
                       reference_probabilities, reference_reformulation)

SRC = Path(__file__).resolve().parent.parent / "src"


def assert_bytes(got, want, name=""):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype, name
    assert got.shape == want.shape, name
    assert got.tobytes() == want.tobytes(), name


def assert_same_blocks(part, want_blocks, want_map):
    """The partition's rows and components, split into blocks, equal the
    oracle's, byte for byte."""
    assert len(want_blocks) == part.num_blocks
    for got_b, want_b in zip(np.split(part.rows, part.row_ptr[1:-1]),
                             want_blocks):
        assert_bytes(got_b, want_b, "blocks")
    for got_c, want_c in zip(np.split(part.comps, part.comp_ptr[1:-1]),
                             want_map):
        assert_bytes(got_c, want_c, "component_map")


def as_pairs(pairs):
    """The oracle's pairs as the ``(P, 2)`` ``intp`` array the library
    keeps."""
    return np.array(pairs, dtype=np.intp).reshape(-1, 2)


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


def assert_same_pairs(got, want):
    """Outcomes of the library and of the oracle: the same error, or the
    oracle's pairs as the library's array."""
    if got[0] == want[0] == "ok":
        assert_bytes(got[1], as_pairs(want[1]), "pairs")
    else:
        assert got == want


@st.composite
def pair_input(draw, entry):
    """Index pairs as a tuple or an array, or input of another shape (rows
    of width 1 or 3, a flat list, a ragged list) with the shape error
    expected of it (``None`` for pairs)."""
    pairs = draw(st.lists(st.tuples(entry, entry), max_size=8))
    form = draw(st.sampled_from(["pairs", "pairs", "wide", "flat", "ragged"]))
    if form == "pairs":
        shape = None
    elif form == "wide":
        width = draw(st.sampled_from([1, 3]))
        pairs = draw(st.lists(st.tuples(*[entry] * width), min_size=1,
                              max_size=5))
        shape = (len(pairs), width)
    elif form == "flat":
        pairs = draw(st.lists(entry, min_size=1, max_size=8))
        shape = (len(pairs),)
    else:
        pairs = draw(st.lists(st.tuples(entry, entry), min_size=1,
                              max_size=5))
        odd = draw(st.sampled_from([(0,), (0, 1, 2)]))
        pairs.insert(draw(st.integers(0, len(pairs))), odd)
        shape = (len(pairs),)
    if draw(st.booleans()):
        return tuple(pairs), shape
    if form == "ragged":
        return np.array(pairs, dtype=object), shape
    return np.array(pairs, dtype=np.intp).reshape(shape or (-1, 2)), shape


def shape_error(what, shape):
    return InvalidProblem, f"{what} must have shape (M, 2), got shape {shape}"


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
    graph = GRAPHS[kind](nodes)
    edges = reference_graph_edges(nodes, raw_edges(kind, nodes))
    assert_bytes(graph.edges, as_pairs(edges), "edges")
    assert_bytes(Graph(nodes, raw_edges(kind, nodes)).edges, as_pairs(edges),
                 "edges")
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

    assert_bytes(prob.z_set.pairs, as_pairs(reference_pairs(W, pairs)),
                 "pairs")
    assert_bytes(SumZeroPairs(W, pairs).pairs, prob.z_set.pairs, "pairs")

    want_blocks, want_map = reference_partition(pairs, W, want["row_block"],
                                                blocks)
    for part in (reform.partition,
                 build_partition(prob.z_set, cs, [b.tolist() for b in blocks])):
        assert (part.num_rows, part.num_components) == (W, nodes)
        assert_same_blocks(part, want_blocks, want_map)

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
    edges, shape = draw(pair_input(end))
    got = outcome(lambda: Graph(nodes, edges).edges)
    event(f"graph: {got[0] if got[0] == 'ok' else got[1].split()[0]}")
    if shape is not None and nodes >= 1:
        assert got == shape_error("edges", shape)
    else:
        assert_same_pairs(got, outcome(reference_graph_edges, nodes, edges))
    if got[0] == "ok":
        assert Graph(nodes, edges).is_connected() == reference_is_connected(
            nodes, got[1].tolist())
        # the same pairs in the other form
        other = (np.array(edges, dtype=np.intp).reshape(-1, 2)
                 if isinstance(edges, tuple) else tuple(map(tuple, edges)))
        assert_bytes(Graph(nodes, other).edges, got[1], "edges")

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
    pairs, shape = draw(pair_input(index))
    got = outcome(lambda: SumZeroPairs(dim, pairs).pairs)
    event(f"pairs: {got[0] if got[0] == 'ok' else got[1].split()[0]}")
    if shape is not None:
        assert got == shape_error("pairs", shape)
    else:
        assert_same_pairs(got, outcome(reference_pairs, dim, pairs))

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
        assert_same_blocks(got[1], *want[1])


@pytest.mark.parametrize("form", [list, lambda v: np.array(v, dtype=object)],
                         ids=["list", "object array"])
def test_indices_past_intp_are_quoted_as_given(form):
    """Integers too large for ``intp`` saturate on the one input path, and
    the messages quote them as given; a node count past ``2**31`` (where
    the edge keys would overflow) is refused."""
    big = 2 ** 70
    for make, want in (
            (lambda: Graph(4, form([(1, 2), (-big, 1)])),
             f"edge ({-big},1) out of range"),
            (lambda: Graph(4, form([(big, 0)])), f"edge ({big},0) out of range"),
            (lambda: SumZeroPairs(6, form([(0, 1), (2, big)])),
             f"pair index {big} out of range [0,6)"),
            (lambda: Graph(big, form([(0, 1)])),
             f"graph with {big} nodes is too large")):
        with pytest.raises(InvalidProblem) as info:
            make()
        assert str(info.value) == want


@pytest.mark.parametrize("family", BENCHMARK_NAMES)
def test_a_run_keeps_edges_and_pairs_as_one_array_each(tmp_path, family):
    """After set-up and a run with every probe on, the graph holds its
    edges and the z set its pairs only as one read-only C-contiguous
    ``(·, 2)`` ``intp`` array each."""
    graph = Graph.cycle(6)
    bench = generate_benchmark(BenchmarkSpec(family), graph)
    cfg = ExperimentConfig(
        problem=ProblemSource("object", bench), T=30, seeds=(0, 1), stride=5,
        probes=ProbeFlags(shadow=True, lyapunov=True, ergodic=True),
        out="out")
    assert run_experiment(cfg, base_dir=tmp_path) == 0
    z_set = bench.problem.z_set
    assert bench.reform.graph is graph
    assert vars(graph).keys() == {"num_nodes", "edges"}
    assert vars(z_set).keys() == {"dim", "pairs"}
    for pairs, count in ((graph.edges, 6), (z_set.pairs, 6)):
        assert pairs.dtype == np.intp and pairs.shape == (count, 2)
        assert pairs.flags.c_contiguous and not pairs.flags.writeable


finite = st.floats(allow_nan=False, width=64) | st.sampled_from(
    [0.0, -0.0, np.inf, -np.inf])


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 9), cols=st.integers(1, 3), data=st.data())
def test_median_equals_numpy_median(rows, cols, data):
    values = np.array(data.draw(st.lists(finite, min_size=rows * cols,
                                         max_size=rows * cols)),
                      dtype=float).reshape(rows, cols)
    # inf - inf in a middle pair; a middle pair whose sum passes the float
    # range overflows to inf in np.median and in _median alike
    with np.errstate(invalid="ignore", over="ignore"):
        want = np.median(values, axis=0)
        got = _median(values)
    assert_bytes(got, want, f"{rows} rows")


def test_median_of_a_pair_past_the_float_range():
    values = np.array([[8.988465674311579e+307], [8.98846567431158e+307]])
    with np.errstate(over="ignore"):
        want = np.median(values, axis=0)
        got = _median(values)
    assert_bytes(got, want, "2 rows")


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
