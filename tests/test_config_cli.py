import contextlib
import copy
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from asyncadmm import (BenchmarkSpec, Custom, ExperimentConfig, Free, Graph,
                       ProbeFlags, ProblemSource, Quadratic, SeparableProblem,
                       ConstraintSystem, build_reformulation, dump_problem,
                       generate_benchmark,
                       load_problem, parse_config, render_config,
                       run_experiment)
from asyncadmm.cli import main as cli_main
from asyncadmm.errors import (ParseError, UnknownBenchmark, ValidationError)


MINIMAL = """
{
  "problem": {"benchmark": {"name": "consensus-quadratic", "graph": "g.txt"}},
  "T": 50
}
"""


def write_cycle_graph(path: Path, n=5):
    path.write_text(Graph.cycle(n).to_text())


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.beta == 1.0
        assert cfg.seeds == (0,)
        assert cfg.stride == 1
        assert cfg.probes == ProbeFlags(False, False, False)
        assert cfg.workers == 1

    def test_unknown_field_named(self):
        bad = json.dumps({"problem": {"file": "p.json"}, "T": 5, "betta": 2.0})
        with pytest.raises(ParseError, match="betta"):
            parse_config(bad)

    def test_unknown_nested_field_named(self):
        bad = json.dumps({"problem": {"file": "p.json"}, "T": 5,
                          "probes": {"shadwo": True}})
        with pytest.raises(ParseError, match="shadwo"):
            parse_config(bad)

    def test_block_probs_must_sum_to_one(self):
        bad = json.dumps({"problem": {"file": "p.json"}, "T": 5,
                          "block_probs": [0.5, 0.4]})
        with pytest.raises(ValidationError, match="sum"):
            parse_config(bad)

    @pytest.mark.parametrize("value", ["false", 0, 1, None, [True]])
    def test_probe_flags_must_be_booleans(self, value):
        # bool("false") is True, so a lenient parse would switch probes on
        bad = json.dumps({"problem": {"file": "p.json"}, "T": 5,
                          "probes": {"ergodic": value}})
        with pytest.raises(ParseError, match="probes.ergodic"):
            parse_config(bad)

    def test_seed_range_string(self):
        cfg = parse_config(json.dumps(
            {"problem": {"file": "p.json"}, "T": 5, "seeds": "0..9"}))
        assert cfg.seeds == tuple(range(10))

    def test_seeds_span_the_sampler_range(self):
        cfg = parse_config(json.dumps(
            {"problem": {"file": "p.json"}, "T": 5,
             "seeds": [0, 2 ** 64 - 1]}))
        assert cfg.seeds == (0, 2 ** 64 - 1)

    def test_bad_json_position_reported(self):
        with pytest.raises(ParseError, match="JSON"):
            parse_config("{nope}")

    def test_t_required(self):
        with pytest.raises(ParseError, match="T"):
            parse_config(json.dumps({"problem": {"file": "p.json"}}))

    def test_round_trip(self):
        cfg = parse_config(json.dumps({
            "problem": {"benchmark": {"name": "consensus-lad", "graph": "g.txt",
                                      "a": [1.0, 2.0, 3.0]}},
            "T": 123, "seeds": [3, 1, 4], "beta": 0.5,
            "blocks": [[0, 1], [2, 3], [4, 5]],
            "block_probs": [0.25, 0.5, 0.25],
            "probes": {"shadow": True, "ergodic": True},
            "stride": 7, "out": "results", "workers": 2,
            "reference": "none"}))
        assert parse_config(render_config(cfg)) == cfg


class TestProblemFile:
    def make_problem(self):
        cs = ConstraintSystem(n=1, N=2, W=2,
                              entries=((0, 0, 1.0), (1, 1, -1.0)),
                              h_diag=np.array([-1.0, -2.0]))
        return SeparableProblem(
            terms=(Quadratic(np.array([1.0]), 2.0), Quadratic(np.array([0.0]))),
            x_sets=(Free(1), Free(1)), z_set=Free(2), constraints=cs, beta=1.5)

    def test_round_trip(self):
        prob = self.make_problem()
        text = dump_problem(prob)
        prob2 = load_problem(text)
        assert prob2.beta == prob.beta
        assert prob2.constraints.entries == prob.constraints.entries
        np.testing.assert_array_equal(prob2.constraints.h_diag,
                                      prob.constraints.h_diag)
        assert prob2.terms[0].weight == 2.0

    def test_missing_field(self):
        doc = json.loads(dump_problem(self.make_problem()))
        doc.pop("H_diag")
        with pytest.raises(ParseError, match="H_diag"):
            load_problem(json.dumps(doc))

    def test_unknown_field(self):
        doc = json.loads(dump_problem(self.make_problem()))
        doc["extra"] = 1
        with pytest.raises(ParseError, match="extra"):
            load_problem(json.dumps(doc))

    def test_custom_terms_not_serializable(self):
        cs = ConstraintSystem(n=1, N=1, W=1, entries=((0, 0, 1.0),),
                              h_diag=np.array([1.0]))
        prob = SeparableProblem(
            terms=(Custom(fn=lambda u: 0.0, dim=1, scalar_convex=True),),
            x_sets=(Free(1),), z_set=Free(1), constraints=cs, beta=1.0)
        with pytest.raises(ValidationError, match="code-only"):
            dump_problem(prob)


class TestBenchmarks:
    def test_quadratic_triangle_reference(self):
        bench = generate_benchmark(BenchmarkSpec("consensus-quadratic",
                                                 a=[1.0, 2.0, 3.0]),
                                   Graph.cycle(3))
        np.testing.assert_allclose(bench.reference, [2.0])

    def test_lad_reference(self):
        bench = generate_benchmark(BenchmarkSpec("consensus-lad",
                                                 a=[0.0, 0.0, 10.0]),
                                   Graph.cycle(3))
        np.testing.assert_allclose(bench.reference, [0.0])

    def test_lasso_large_penalty(self):
        bench = generate_benchmark(BenchmarkSpec("lasso-toy", w=[1.0, 1.0],
                                                 b=[1.0, 2.0], pi=10.0),
                                   Graph.cycle(3))
        np.testing.assert_allclose(bench.reference, [0.0], atol=1e-10)

    def test_unknown_name(self):
        with pytest.raises(UnknownBenchmark):
            BenchmarkSpec("consensus-mean")


class TestRunExperiment:
    def config_for(self, tmp_path, T=40, stride=1, seeds=(0,), probes=None,
                   out="out"):
        write_cycle_graph(tmp_path / "g.txt")
        return ExperimentConfig(
            problem=ProblemSource("benchmark",
                                  {"name": "consensus-quadratic",
                                   "graph": "g.txt",
                                   "a": [1.0, 2.0, 3.0, 4.0, 5.0]}),
            T=T, seeds=tuple(seeds), stride=stride,
            probes=probes or ProbeFlags(ergodic=True), out=out)

    def test_artifacts_and_row_counts(self, tmp_path):
        cfg = self.config_for(tmp_path, T=40, stride=4, seeds=(0, 1))
        assert run_experiment(cfg, base_dir=tmp_path) == 0
        for seed in (0, 1):
            lines = (tmp_path / "out" / f"seed_{seed}.csv").read_text().splitlines()
            assert lines[0] == ("iter,objective,objective_error,"
                                "feasibility_violation,ergodic_objective_error,"
                                "ergodic_feasibility,lyapunov,active_block")
            assert len(lines) == 1 + 40 // 4
        assert (tmp_path / "out" / "mean.csv").exists()
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["invariants"]["steps"] == 80
        assert summary["seeds"] == [0, 1]

    def test_deterministic_outputs(self, tmp_path):
        cfg = self.config_for(tmp_path, T=60, seeds=(0, 1, 2), out="a")
        assert run_experiment(cfg, base_dir=tmp_path) == 0
        cfg2 = self.config_for(tmp_path, T=60, seeds=(0, 1, 2), out="b")
        assert run_experiment(cfg2, base_dir=tmp_path) == 0
        for name in ("seed_0.csv", "seed_1.csv", "seed_2.csv", "mean.csv",
                     "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_shadow_probe_counters(self, tmp_path):
        cfg = self.config_for(tmp_path, T=25,
                              probes=ProbeFlags(shadow=True, ergodic=True))
        assert run_experiment(cfg, base_dir=tmp_path) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        inv = summary["invariants"]
        assert inv["shadow_checks"] == 25 == inv["freeze_checks"]
        assert inv["shadow_failures"] == 0 == inv["freeze_failures"]

    def test_missing_graph_is_config_error(self, tmp_path):
        cfg = ExperimentConfig(
            problem=ProblemSource("benchmark", {"name": "consensus-quadratic",
                                                "graph": "missing.txt"}),
            T=5, out="out")
        assert run_experiment(cfg, base_dir=tmp_path) == 2

    def test_divergence_exit_code(self, tmp_path):
        # pathological custom term nearly cancels the huge-beta quadratic
        beta = 1e9
        cs = ConstraintSystem(n=1, N=1, W=1, entries=((0, 0, 1.0),),
                              h_diag=np.array([-1.0]))
        bad = Custom(fn=lambda u: -(0.5 * beta - 5.0) * float(u[0]) ** 2,
                     dim=1, scalar_convex=True)
        prob = SeparableProblem(terms=(bad,), x_sets=(Free(1),),
                                z_set=Free(1), constraints=cs, beta=beta)
        cfg = ExperimentConfig(problem=ProblemSource("object", prob),
                               T=500, out="out", z0=(1.0,),
                               reference="none")
        assert run_experiment(cfg, base_dir=tmp_path) == 1

    def test_nan_data_is_divergence(self, tmp_path):
        g = Graph.cycle(5)
        terms = tuple(Quadratic(np.array([np.nan if i == 2 else float(i)]))
                      for i in range(5))
        reform = build_reformulation(g, terms, tuple(Free(1) for _ in terms),
                                     1.0)
        cfg = ExperimentConfig(problem=ProblemSource("object", reform.problem),
                               T=200, out="out", reference="none")
        assert run_experiment(cfg, base_dir=tmp_path) == 1
        assert not (tmp_path / "out").exists()

    def test_summary_reports_dual_maximum(self, tmp_path):
        cfg = self.config_for(tmp_path, T=40, seeds=(0, 1))
        assert run_experiment(cfg, base_dir=tmp_path) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        for seed in ("0", "1"):
            entry = summary["per_seed"][seed]
            assert entry["p_max_abs"] > 0.0
            assert entry["x_max_abs"] >= 5.0

    def test_worker_pool_matches_serial(self, tmp_path):
        cfg = self.config_for(tmp_path, T=30, seeds=(0, 1), out="serial")
        assert run_experiment(cfg, base_dir=tmp_path) == 0
        cfg_par = ExperimentConfig(problem=cfg.problem, T=30, seeds=(0, 1),
                                   probes=cfg.probes, out="parallel",
                                   workers=2)
        assert run_experiment(cfg_par, base_dir=tmp_path) == 0
        for name in ("seed_0.csv", "seed_1.csv", "mean.csv"):
            assert (tmp_path / "serial" / name).read_bytes() == \
                (tmp_path / "parallel" / name).read_bytes()

    def test_lyapunov_auto_reference(self, tmp_path):
        cfg = self.config_for(tmp_path, T=10,
                              probes=ProbeFlags(lyapunov=True, ergodic=True))
        assert run_experiment(cfg, base_dir=tmp_path) == 0
        lines = (tmp_path / "out" / "seed_0.csv").read_text().splitlines()
        header = lines[0].split(",")
        vals = [float(ln.split(",")[header.index("lyapunov")])
                for ln in lines[1:]]
        assert all(np.isfinite(vals))


def inline_doc():
    """Two scalar components, each tied to its own z row (loads cleanly)."""
    return {"n": 1, "N": 2, "W": 2, "beta": 1.0,
            "terms": [{"kind": "quadratic", "center": [1.0], "weight": 2.0},
                      {"kind": "l1", "gamma": 0.5}],
            "x_sets": [{"kind": "box", "lower": [-1.0], "upper": [3.0]},
                       {"kind": "free", "dim": 1}],
            "z_set": {"kind": "free", "dim": 2},
            "D_rows": [[0, 0, 1.0], [1, 1, 1.0]],
            "H_diag": [-1.0, -1.0]}


class TestNonFiniteData:
    BAD = [
        (("terms", 0, "center"), [float("nan")]),
        (("terms", 0, "weight"), float("inf")),
        (("terms", 1, "gamma"), float("nan")),
        (("x_sets", 0, "lower"), [float("nan")]),
        (("x_sets", 0, "upper"), [float("nan")]),
        (("D_rows", 1), [1, 1, float("inf")]),
        (("H_diag",), [-1.0, float("nan")]),
        (("beta",), float("inf")),
    ]

    @pytest.mark.parametrize("path,value", BAD,
                             ids=[".".join(map(str, p)) for p, _ in BAD])
    def test_problem_data_rejected_at_load(self, tmp_path, capsys, path,
                                           value):
        doc = inline_doc()
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        cfg = ExperimentConfig(problem=ProblemSource("inline", doc), T=20,
                               out="out", reference="none")
        capsys.readouterr()
        assert run_experiment(cfg, base_dir=tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "non-finite" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_infinite_box_bounds_stay_legal(self, tmp_path):
        doc = inline_doc()
        doc["x_sets"][0] = {"kind": "box", "lower": [float("-inf")],
                            "upper": [float("inf")]}
        prob = load_problem(json.dumps(doc))
        assert np.isinf(prob.x_sets[0].lower[0])
        cfg = ExperimentConfig(problem=ProblemSource("inline", doc), T=20,
                               out="out", reference="none")
        assert run_experiment(cfg, base_dir=tmp_path) == 0

    def test_nan_center_from_json_text(self):
        text = json.dumps(inline_doc()).replace('"center": [1.0]',
                                                '"center": [NaN]')
        with pytest.raises(ValidationError, match="center"):
            load_problem(text)

    @pytest.mark.parametrize("field,value", [
        ("x0", (0.0, float("nan"))), ("z0", (float("inf"), 0.0)),
        ("block_probs", (float("nan"),)), ("beta", float("inf"))])
    def test_config_values_rejected(self, field, value):
        with pytest.raises(ValidationError, match="finite"):
            ExperimentConfig(problem=ProblemSource("inline", inline_doc()),
                             T=5, **{field: value})

    def test_config_text_with_nan_start_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({
            "problem": {"inline": inline_doc()}, "T": 5,
            "x0": [0.0, float("nan")]}))
        assert cli_main(["run", str(cfg_path)]) == 2
        assert "x0" in capsys.readouterr().err


class TestMalformedInput:
    """Malformed fields end in a one-line config error (exit 2), not a
    traceback with the divergence code 1."""

    BAD_CONFIG = [
        ("blocks", [["a"]]), ("blocks", 3), ("blocks", [[0.5]]),
        ("block_probs", ["1"]), ("x0", ["a", 1.0]), ("z0", 3),
    ]

    @pytest.mark.parametrize("field,value", BAD_CONFIG,
                             ids=[f"{f}={v!r}" for f, v in BAD_CONFIG])
    def test_bad_config_field_exits_2(self, tmp_path, capsys, field, value):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"problem": {"inline": inline_doc()},
                                        "T": 5, field: value}))
        for command in ("run", "validate"):
            assert cli_main([command, str(cfg_path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and field in err
            assert err.count("\n") == 1

    def test_row_twice_in_one_block_exits_2(self, tmp_path, capsys):
        # a traceback from the block table before
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"problem": {"inline": inline_doc()},
                                        "T": 5, "blocks": [[0, 0], [1]],
                                        "out": "out"}))
        for command in ("run", "validate"):
            assert cli_main([command, str(cfg_path)]) == 2
            err = capsys.readouterr().err
            assert err == "config error: row 0 appears twice in block 0\n"
        assert not (tmp_path / "out").exists()

    HUGE = [
        ("blocks", [[0, 2 ** 70], [1]], "block 0 has out-of-range rows"),
        ("D_rows", [[2 ** 70, 0, 1.0], [1, 1, 1.0]],
         "row index 1180591620717411303424 out of range [0,2)"),
        ("z_set", {"kind": "sum_zero_pairs", "dim": 2,
                   "pairs": [[0, -2 ** 70]]},
         "pair index -1180591620717411303424 out of range [0,2)"),
    ]

    @pytest.mark.parametrize("field,value,message", HUGE,
                             ids=[f for f, _, _ in HUGE])
    def test_huge_index_exits_2(self, tmp_path, capsys, field, value,
                                message):
        # a blocks entry past 2**63 was an OverflowError traceback before
        doc = inline_doc()
        cfg = {"problem": {"inline": doc}, "T": 5, "out": "out"}
        (cfg if field == "blocks" else doc)[field] = value
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        for command in ("run", "validate"):
            assert cli_main([command, str(cfg_path)]) == 2
            assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_box_z_set_exits_2(self, tmp_path, capsys):
        # ran with exit 0 before, ignoring the bounds
        doc = inline_doc()
        doc["z_set"] = {"kind": "box", "lower": [0.0, 0.0],
                        "upper": [1.0, 1.0]}
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"problem": {"inline": doc}, "T": 5,
                                        "out": "out"}))
        for command in ("run", "validate"):
            assert cli_main([command, str(cfg_path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and "box z set" in err
            assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_pair_x_set_exits_2(self, tmp_path, capsys):
        # ran with exit 0 before, ending with x = (1, 1, 1, 1)
        doc = inline_doc()
        doc.update(n=2, D_rows=[[0, 0, 0, 1.0], [1, 1, 0, 1.0]],
                   terms=[{"kind": "quadratic", "center": [1.0, 1.0]}] * 2,
                   x_sets=[{"kind": "sum_zero_pairs", "dim": 2,
                            "pairs": [[0, 1]]}] * 2)
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"problem": {"inline": doc}, "T": 5,
                                        "out": "out"}))
        for command in ("run", "validate"):
            assert cli_main([command, str(cfg_path)]) == 2
            assert capsys.readouterr().err == (
                "config error: x_set 0 of kind SumZeroPairs is not "
                "supported: use free or box\n")
        assert not (tmp_path / "out").exists()

    # sizes far past any document: "n" was an OverflowError traceback and
    # "N" a ValueError traceback from array constructors
    HUGE_SIZE = [
        ("n", "problem.terms[0] has dim 1, expected n = 10**30"),
        ("N", "problem.N is 10**30 but problem.terms has 2 entries"),
        ("W", "problem.W is 10**30 but problem.H_diag has 2 entries"),
    ]

    @pytest.mark.parametrize("field,message", HUGE_SIZE,
                             ids=[f for f, _ in HUGE_SIZE])
    def test_huge_size_exits_2(self, tmp_path, capsys, field, message):
        doc = inline_doc()
        doc[field] = 10 ** 30
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"problem": {"inline": doc}, "T": 5,
                                        "out": "out"}))
        for command in ("run", "validate"):
            assert cli_main([command, str(cfg_path)]) == 2
            assert capsys.readouterr().err == "config error: {}\n".format(
                message.replace("10**30", str(10 ** 30)))
        assert not (tmp_path / "out").exists()

    def test_component_dim_past_an_index_exits_2(self, tmp_path, capsys):
        # every term and x set of dim n = 10**30: an OverflowError
        # traceback from the column index before
        doc = inline_doc()
        big = 10 ** 30
        doc.update(n=big, D_rows=[[0, 0, 0, 1.0], [1, 1, 0, 1.0]],
                   terms=[{"kind": "l1", "gamma": 1.0, "dim": big}] * 2,
                   x_sets=[{"kind": "free", "dim": big}] * 2)
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"problem": {"inline": doc}, "T": 5,
                                        "out": "out"}))
        for command in ("run", "validate"):
            assert cli_main([command, str(cfg_path)]) == 2
            assert capsys.readouterr().err == (
                f"config error: n * N = {2 * big} is more than an index "
                f"array can hold ({np.iinfo(np.intp).max})\n")
        assert not (tmp_path / "out").exists()

    # coerced with int()/float() before: "T": 2.7 ran 2 steps, exit 0;
    # seeds [1.7, true] ran seed 1 twice, and -1 ran seed 2**64 - 1;
    # seeds [1, 1] ran seed 1 twice too, and wrote one summary entry for it
    BAD_NUMBER = [
        ("T", 2.7), ("T", True), ("T", "5"), ("stride", 1.9),
        ("workers", 1.5), ("beta", "2"), ("seeds", [1.7, True]),
        ("seeds", True), ("seeds", 2.0), ("seeds", -1), ("seeds", 2 ** 64),
        ("seeds", [0, 2 ** 64 - 1, -3]), ("seeds", [1, 1]),
        ("seeds", [0, 1, 2, 1]),
    ]

    @pytest.mark.parametrize("field,value", BAD_NUMBER,
                             ids=[f"{f}={v!r}" for f, v in BAD_NUMBER])
    def test_non_integer_count_exits_2(self, tmp_path, capsys, field, value):
        write_cycle_graph(tmp_path / "g.txt", n=3)
        doc = {"problem": {"benchmark": {"name": "consensus-quadratic",
                                         "graph": "g.txt"}},
               "T": 5, "out": "out"}
        doc[field] = value
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(doc))
        assert cli_main(["run", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def run_huge_T(self, tmp_path, capsys, T):
        write_cycle_graph(tmp_path / "g.txt", n=3)
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({
            "problem": {"benchmark": {"name": "consensus-quadratic",
                                      "graph": "g.txt"}},
            "T": T, "stride": 1, "out": "out"}))
        assert cli_main(["run", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (
            f"config error: T = {T} with stride 1 records {T} points per "
            "seed, more than memory holds: raise stride or lower T\n")
        assert not (tmp_path / "out").exists()

    def test_huge_T_exits_2(self, tmp_path, capsys):
        # numpy refuses to size the record array, so nothing is allocated
        self.run_huge_T(tmp_path, capsys, 10 ** 18)

    def test_T_past_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        # T = 10**11 asks for 4.37 TiB of records; the failed allocation is
        # simulated, so that no test asks for that much memory
        full = np.full

        def failing_full(shape, *args, **kwargs):
            if np.prod(shape, dtype=float) >= 6e11:
                raise MemoryError("Unable to allocate 4.37 TiB")
            return full(shape, *args, **kwargs)

        monkeypatch.setattr(np, "full", failing_full)
        self.run_huge_T(tmp_path, capsys, 10 ** 11)

    BAD_BENCHMARK = [
        ("a", "xy"), ("a", [1.0, "x", 3.0]), ("a", [1.0, float("nan"), 3.0]),
        ("w", 3), ("b", [True, 1.0]), ("pi", "1"), ("pi", None),
        ("pi", float("inf")), ("box_margin", [0.5]),
    ]

    @pytest.mark.parametrize("field,value", BAD_BENCHMARK,
                             ids=[f"{f}={v!r}" for f, v in BAD_BENCHMARK])
    def test_bad_benchmark_data_exits_2(self, tmp_path, capsys, field,
                                        value):
        write_cycle_graph(tmp_path / "g.txt", n=3)
        bench = {"name": "consensus-quadratic", "graph": "g.txt", field: value}
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"problem": {"benchmark": bench},
                                        "T": 5, "out": "out"}))
        for command in ("run", "validate"):
            assert cli_main([command, str(cfg_path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: problem.benchmark." + field)
            assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_integer_benchmark_data_is_accepted(self, tmp_path):
        write_cycle_graph(tmp_path / "g.txt", n=3)
        bench = {"name": "consensus-quadratic", "graph": "g.txt",
                 "a": [1, 2, 3], "box_margin": 2, "pi": 1, "w": None}
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"problem": {"benchmark": bench},
                                        "T": 5, "out": "out"}))
        assert cli_main(["run", str(cfg_path)]) == 0

    BAD_PROBLEM = [
        (("terms", 0), {"kind": "quadratic"}, "terms[0]: missing"),
        (("terms", 1), {"kind": "l1"}, "terms[1]: missing"),
        (("terms", 0, "center"), ["a"], "terms[0].center[0]"),
        (("x_sets", 1), {"kind": "free"}, "x_sets[1]: missing"),
        (("x_sets", 0), {"kind": "box", "lower": [0.0]}, "x_sets[0]: missing"),
        (("D_rows", 0), [0, 0, "x"], "D_rows[0]"),
        (("D_rows", 0), ["0", 0, 1.0], "D_rows[0]"),
        (("D_rows",), 5, "D_rows"),
        (("H_diag",), "x", "H_diag"),
        (("n",), "1", "problem.n"),
    ]

    @pytest.mark.parametrize("path,value,where", BAD_PROBLEM,
                             ids=[".".join(map(str, p)) + f"={v!r}"
                                  for p, v, _ in BAD_PROBLEM])
    def test_bad_problem_exits_2(self, tmp_path, capsys, path, value, where):
        doc = inline_doc()
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"problem": {"inline": doc}, "T": 5,
                                        "out": "out"}))
        for command in ("run", "validate"):
            assert cli_main([command, str(cfg_path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and where in err
            assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()


class TestCli:
    @pytest.mark.parametrize("seeds", ["x", "3..1", "1,,2", "-1..2",
                                       "0,18446744073709551616", "1,1",
                                       "0,1,2,1"])
    def test_bad_seeds_exit_2(self, tmp_path, capsys, seeds):
        write_cycle_graph(tmp_path / "g.txt", n=3)
        rc = cli_main(["bench", "consensus-quadratic",
                       "--graph", str(tmp_path / "g.txt"), f"--seeds={seeds}",
                       "--T", "5", "--out", str(tmp_path / "res")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    def test_run_and_validate(self, tmp_path, capsys):
        write_cycle_graph(tmp_path / "g.txt")
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({
            "problem": {"benchmark": {"name": "consensus-quadratic",
                                      "graph": "g.txt"}},
            "T": 30, "probes": {"ergodic": True}, "out": "res"}))
        assert cli_main(["validate", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert out == ("problem: N=5 W=10 n=1\nblocks: 5, seeds: 1, T: 30\n"
                       "constraints valid\n")
        assert cli_main(["run", str(cfg_path)]) == 0
        assert (tmp_path / "res" / "seed_0.csv").exists()

    def test_lyapunov_probe_without_reference_is_a_config_error(
            self, tmp_path, capsys):
        """Refused where the config is built, so ``run`` writes nothing and
        both commands exit 2 with one line (``run`` was a divergence)."""
        write_cycle_graph(tmp_path / "g.txt")
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({
            "problem": {"benchmark": {"name": "consensus-quadratic",
                                      "graph": "g.txt"}},
            "T": 10, "probes": {"lyapunov": True}, "reference": "none",
            "out": "res"}))
        for command in ("run", "validate"):
            capsys.readouterr()
            assert cli_main([command, str(cfg_path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == ("config error: the lyapunov probe needs "
                                    "a dual reference, and reference is "
                                    "\"none\"\n")
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("source", ["file", "inline"])
    def test_summary_reports_the_problem_beta(self, tmp_path, source):
        """A problem document carries its own beta; the config's beta sets
        generated benchmarks only, and the summary reports the run's."""
        doc = dict(inline_doc(), beta=2.5)
        (tmp_path / "p.json").write_text(json.dumps(doc))
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({
            "problem": {"file": "p.json"} if source == "file"
            else {"inline": doc},
            "T": 5, "beta": 0.7, "reference": "none", "out": "res"}))
        assert cli_main(["run", str(cfg_path)]) == 0
        summary = json.loads((tmp_path / "res" / "summary.json").read_text())
        assert summary["beta"] == 2.5

    def test_module_entry_point(self, tmp_path):
        # "python -m asyncadmm" had no __main__ module
        write_cycle_graph(tmp_path / "g.txt", n=3)
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({
            "problem": {"benchmark": {"name": "consensus-quadratic",
                                      "graph": "g.txt"}},
            "T": 10, "out": "res"}))
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-m", "asyncadmm", "run",
                               str(cfg_path)], env=env, capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "res" / "seed_0.csv").exists()

    def test_bench_subcommand(self, tmp_path):
        write_cycle_graph(tmp_path / "g.txt", n=3)
        out = tmp_path / "res"
        rc = cli_main(["bench", "consensus-quadratic",
                       "--graph", str(tmp_path / "g.txt"),
                       "--seeds", "0..2", "--T", "25",
                       "--out", str(out)])
        assert rc == 0
        assert sorted(p.name for p in out.glob("seed_*.csv")) == \
            ["seed_0.csv", "seed_1.csv", "seed_2.csv"]

    def test_slope_subcommand(self, tmp_path, capsys):
        rows = ["iter,objective,objective_error,feasibility_violation,"
                "ergodic_objective_error,ergodic_feasibility,lyapunov,"
                "active_block"]
        for t in range(1, 301):
            rows.append(f"{t},1.0,nan,{1.0 / t!r},nan,{2.0 / t!r},nan,0")
        csv = tmp_path / "m.csv"
        csv.write_text("\n".join(rows) + "\n")
        assert cli_main(["slope", str(csv),
                         "--column", "ergodic_feasibility"]) == 0
        out = capsys.readouterr().out
        slope = float(out.split("slope=")[1].split()[0])
        assert slope == pytest.approx(-1.0, abs=1e-6)

    def test_validate_reports_violations(self, tmp_path, capsys):
        doc = {"n": 1, "N": 1, "W": 1, "beta": 1.0,
               "terms": [{"kind": "quadratic", "center": [0.0]}],
               "x_sets": [{"kind": "free", "dim": 1}],
               "z_set": {"kind": "free", "dim": 1},
               "D_rows": [[0, 0, 1.0]],
               "H_diag": [0.0]}
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"problem": {"inline": doc}, "T": 5}))
        assert cli_main(["validate", str(cfg_path)]) == 2
        assert "H not invertible" in capsys.readouterr().err

    def test_config_error_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"problem": {"file": "p.json"}, "T": 5, "oops": 1}')
        assert cli_main(["run", str(bad)]) == 2
        assert "oops" in capsys.readouterr().err

    def test_string_probe_flag_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"problem": {"file": "p.json"}, "T": 5, '
                       '"probes": {"ergodic": "false"}}')
        assert cli_main(["run", str(bad)]) == 2
        assert "probes.ergodic" in capsys.readouterr().err

    def test_missing_file_exit(self, tmp_path):
        assert cli_main(["run", str(tmp_path / "nope.json")]) == 3

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        write_cycle_graph(tmp_path / "g.txt", n=3)
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({
            "problem": {"benchmark": {"name": "consensus-quadratic",
                                      "graph": "g.txt"}},
            "T": 10}))
        monkeypatch.setenv("ASYNCADMM_OUT", str(tmp_path / "envout"))
        assert cli_main(["run", str(cfg_path)]) == 0
        assert (tmp_path / "envout" / "seed_0.csv").exists()


class TestInputErrors:
    """Inputs that once ended in a traceback or in the wrong exit code."""

    def bench_argv(self, tmp_path, *extra):
        write_cycle_graph(tmp_path / "g.txt", n=3)
        return ["bench", "consensus-quadratic", "--graph",
                str(tmp_path / "g.txt"), "--T", "5",
                "--out", str(tmp_path / "res"), *extra]

    @pytest.mark.parametrize("arg", ["--a=1,x,3", "--a=,,", "--a=1,nan,2",
                                     "--a=1,inf,2", "--a=1,-inf,2"])
    def test_bench_node_data_is_checked_as_config_data(self, tmp_path, capsys,
                                                       arg):
        # the same check as a config file's benchmark data
        assert cli_main(self.bench_argv(tmp_path, arg)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: problem.benchmark.a")
        assert err.count("\n") == 1
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("text, shown", [("nan", "nan"), ("inf", "inf"),
                                             ("-inf", "-inf")])
    def test_non_finite_value_is_named_plainly(self, tmp_path, capsys, text,
                                               shown):
        want = f"config error: problem.benchmark.a: non-finite value {shown}\n"
        assert cli_main(self.bench_argv(tmp_path, f"--a=1,{text},2")) == 2
        assert capsys.readouterr().err == want
        # the same value in a config file's benchmark data
        doc = json.loads(MINIMAL)
        doc["problem"]["benchmark"]["a"] = [1.0, float(text), 2.0]
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(doc))
        for command in ("run", "validate"):
            assert cli_main([command, str(cfg_path)]) == 2
            assert capsys.readouterr().err == want

    @pytest.mark.parametrize("beta", [1e308, 8e307])
    def test_a_beta_that_overflows_the_x_update_exits_2(self, tmp_path,
                                                        capsys, beta):
        # these printed numpy overflow warnings; 1e308 then diverged (exit
        # 1), 8e307 exited 0 with x at the box edges
        want = (f"config error: beta = {beta:g} is too large: an x update "
                "from a state inside the divergence guard (1e+12) would "
                "overflow\n")
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({
            "problem": {"benchmark": {"name": "consensus-lad",
                                      "graph": "g.txt"}},
            "T": 5, "beta": beta, "out": "res"}))
        for argv in (self.bench_argv(tmp_path, f"--beta={beta}"),
                     ["run", str(cfg_path)], ["validate", str(cfg_path)]):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert cli_main(argv) == 2
            assert [str(c.message) for c in caught] == []
            assert capsys.readouterr().err == want
        assert not (tmp_path / "res").exists()

    def test_a_large_beta_inside_the_float_range_diverges(self, tmp_path,
                                                          capsys):
        argv = self.bench_argv(tmp_path, "--beta=1e100")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli_main(argv) == 1
        assert [str(c.message) for c in caught] == []
        assert capsys.readouterr().err == (
            "divergence: iterate magnitude 2.500e+99 exceeded guard at "
            "iteration 1 (seed 0, block 2)\n")

    @pytest.mark.parametrize("w, b", [(1e155, 1.0), (-2e154, 3.0),
                                      (1e-300, 1e300), (1e-200, 0.0)])
    def test_lasso_row_past_the_float_range_exits_2(self, tmp_path, capsys,
                                                    w, b):
        # w*w = inf was taken as a Quadratic weight, after two numpy
        # warnings, and ended in a divergence (exit 1); w = 1e-300 with
        # b = 1e300 printed an overflow warning, then a nonpositive weight
        write_cycle_graph(tmp_path / "g.txt", n=3)
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({
            "problem": {"benchmark": {"name": "lasso-toy", "graph": "g.txt",
                                      "w": [1.0, w], "b": [2.0, b]}},
            "T": 5, "out": "res"}))
        want = (f"config error: lasso-toy row 1 (w = {w!r}, b = {b!r}): w*w "
                "must be finite and positive, and b/w finite\n")
        for command in ("run", "validate"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert cli_main([command, str(cfg_path)]) == 2
            assert [str(c.message) for c in caught] == []
            assert capsys.readouterr().err == want
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("name, data, node, value", [
        ("lasso-toy", {"w": [1.0, 1.0], "b": [1e308, -1e308]}, 0, "1e+308"),
        ("lasso-toy", {"w": [1e150, 1e-150], "b": [1.0, 1.0]}, 1, "1e+150"),
        ("consensus-quadratic", {"a": [1.0, -2e12, 3.0]}, 1, "-2e+12")])
    def test_data_past_the_divergence_guard_exits_2(self, tmp_path, capsys,
                                                    name, data, node, value):
        # runs start every node at its data: these printed numpy warnings
        # (lasso-toy), then "divergence: initial state magnitude ...", exit 1
        write_cycle_graph(tmp_path / "g.txt", n=3)
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({
            "problem": {"benchmark": {"name": name, "graph": "g.txt", **data}},
            "T": 5, "out": "res"}))
        what = "lasso-toy b/w" if name == "lasso-toy" else f"{name} a"
        want = (f"config error: {what} of node {node} is {value}, past the "
                "divergence guard (1e+12) where runs start\n")
        for command in ("run", "validate"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert cli_main([command, str(cfg_path)]) == 2
            assert [str(c.message) for c in caught] == []
            assert capsys.readouterr().err == want
        assert not (tmp_path / "res").exists()

    def test_sparse_graph_is_refused_before_per_node_work(self, tmp_path,
                                                          capsys):
        # a million nodes and one edge: refused by the edge count, before
        # the generator builds an array per node
        graph = tmp_path / "g.txt"
        graph.write_text("1000000 1\n0 1\n")
        argv = ["bench", "consensus-quadratic", "--graph", str(graph),
                "--T", "1", "--out", str(tmp_path / "res")]
        tracemalloc.start()
        try:
            rc = cli_main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert capsys.readouterr().err == (
            "config error: graph with 1000000 nodes and 1 edges is not "
            "connected\n")
        assert peak < 4 << 20, f"peak {peak / 2 ** 20:.1f} MiB"
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("window", ["5", "a:b", "1:2:3", ""])
    def test_slope_window_must_be_lo_hi(self, tmp_path, capsys, window):
        csv = tmp_path / "m.csv"
        csv.write_text("iter,ergodic_feasibility\n"
                       + "".join(f"{t},{1.0 / t!r}\n" for t in range(1, 9)))
        rc = cli_main(["slope", str(csv), f"--window={window}"])
        err = capsys.readouterr().err
        if window:
            assert rc == 2
            assert "lo:hi" in err and err.count("\n") == 1
        else:
            assert rc == 0 and not err   # an empty window is no window

    @pytest.mark.parametrize("field,value", [("out", 5), ("out", []),
                                             ("out", {}), ("graph", 5),
                                             ("graph", None),
                                             ("graph", ["g.txt"])])
    def test_paths_must_be_strings(self, tmp_path, capsys, field, value):
        write_cycle_graph(tmp_path / "g.txt", n=3)
        doc = json.loads(MINIMAL)
        if field == "out":
            doc["out"] = value
        else:
            doc["problem"]["benchmark"]["graph"] = value
        with pytest.raises(ParseError, match=field):
            parse_config(json.dumps(doc))
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(doc))
        for command in ("run", "validate"):
            assert cli_main([command, str(cfg_path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and field in err
            assert err.count("\n") == 1

    def test_null_out_is_unset(self):
        doc = json.loads(MINIMAL)
        doc["out"] = None
        assert parse_config(json.dumps(doc)).out is None

    def configs_naming(self, tmp_path, path):
        """A benchmark config with ``path`` as its graph, and a file config
        with ``path`` as its problem."""
        for i, problem in enumerate(
                ({"benchmark": {"name": "consensus-quadratic",
                                "graph": str(path)}},
                 {"file": str(path)})):
            cfg_path = tmp_path / f"exp{i}.json"
            cfg_path.write_text(json.dumps({"problem": problem, "T": 5,
                                            "out": "out"}))
            yield cfg_path

    def test_a_directory_is_an_io_error(self, tmp_path, capsys):
        (tmp_path / "d").mkdir()
        configs = [tmp_path / "d", *self.configs_naming(tmp_path,
                                                        tmp_path / "d")]
        for cfg_path in configs:
            for command in ("run", "validate"):
                assert cli_main([command, str(cfg_path)]) == 3
                err = capsys.readouterr().err
                assert err.startswith("i/o error: ") and "directory" in err
                assert err.count("\n") == 1
        assert cli_main(["slope", str(tmp_path / "d")]) == 3
        assert not (tmp_path / "out").exists()

    def test_text_that_is_not_utf8_is_a_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b'{"T": 5, "\xff": 1}\n')
        configs = [bad, *self.configs_naming(tmp_path, bad)]
        for cfg_path in configs:
            for command in ("run", "validate"):
                assert cli_main([command, str(cfg_path)]) == 2
                err = capsys.readouterr().err
                assert err.startswith("config error: ") and "UTF-8" in err
                assert err.count("\n") == 1
        assert cli_main(["slope", str(bad)]) == 2
        assert not (tmp_path / "out").exists()

    def test_argument_errors_are_one_line(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(self.bench_argv(tmp_path, "--T", "x"))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# The CLI in-process on mutated inputs
# ---------------------------------------------------------------------------

JSON_KINDS = {type(None): None, bool: True, float: 7.5, int: 7, str: "x",
              list: [], dict: {}}
NON_FINITE = (float("nan"), float("inf"), float("-inf"))
BAD_ARGS = ("", "x", "nan", "inf", "-inf", "-3", "5", "a:b", "1:2:3", ":",
            "nan:inf", "1,x,3", "=,,", "1,nan,2", "0..", ".")


def fuzz_inputs(tmp):
    """The valid inputs the mutations start from, written under ``tmp``: a
    benchmark config, a problem file and a config naming it (3 nodes,
    T <= 20, every probe on), and ``bench`` and ``slope`` argument lists."""
    write_cycle_graph(tmp / "g.txt", n=3)
    bench = generate_benchmark(BenchmarkSpec("consensus-quadratic",
                                             a=[1.0, 2.0, 3.0],
                                             box_margin=2.0),
                               Graph.cycle(3), beta=1.0)
    part = bench.reform.partition
    common = {"T": 12, "seeds": [0, 1], "beta": 1.0, "stride": 5,
              "probes": {"shadow": True, "lyapunov": True, "ergodic": True},
              "workers": 1, "reference": "auto", "out": "out"}
    bench_config = dict(common, problem={"benchmark": {
        "name": "consensus-quadratic", "graph": "g.txt", "a": [1.0, 2.0, 3.0],
        "box_margin": 2.0}}, x0=[1.0, 2.0, 3.0], z0=[0.0] * 6)
    file_config = dict(common, problem={"file": "p.json"},
                       blocks=[list(map(int, b)) for b in np.split(
                           part.rows, part.row_ptr[1:-1])],
                       block_probs=[0.25, 0.25, 0.5])
    problem = json.loads(dump_problem(bench.problem))
    csv = tmp / "m.csv"
    csv.write_text("iter,ergodic_feasibility\n"
                   + "".join(f"{t},{1.0 / t!r}\n" for t in range(1, 21)))
    bench_argv = ["bench", "consensus-quadratic", "--graph", "g.txt",
                  "--seeds", "0..1", "--T", "12", "--beta", "1.0",
                  "--stride", "5", "--a", "1,2,3", "--out", "res",
                  "--probe-shadow", "--probe-lyapunov"]
    slope_argv = ["slope", "m.csv", "--column", "ergodic_feasibility",
                  "--window", "2:20"]
    return bench_config, file_config, problem, bench_argv, slope_argv


def json_paths(doc, path=()):
    """The path of every field and list element below the root."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from json_paths(value, path + (key,))


def mutate_json(data, doc):
    """``doc`` with one field dropped, or set to a value of another JSON
    type, to NaN or to +-inf."""
    doc = copy.deepcopy(doc)
    path = data.draw(st.sampled_from(list(json_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    how = data.draw(st.sampled_from(["drop", "type", "non-finite"]))
    if how == "drop":
        del parent[path[-1]]
    elif how == "type":
        parent[path[-1]] = data.draw(st.sampled_from(
            [v for t, v in JSON_KINDS.items() if not isinstance(old, t)]))
    else:
        parent[path[-1]] = data.draw(st.sampled_from(NON_FINITE))
    return doc


def mutate_argv(data, argv):
    """``argv`` with one option dropped, or its value replaced."""
    argv = list(argv)
    options = [i for i, a in enumerate(argv) if a.startswith("--")]
    i = data.draw(st.sampled_from(options))
    takes_value = i + 1 < len(argv) and not argv[i + 1].startswith("--")
    if data.draw(st.booleans()) or not takes_value:
        del argv[i:i + 1 + takes_value]
    else:
        argv[i] = f"{argv[i]}={data.draw(st.sampled_from(BAD_ARGS))}"
        del argv[i + 1]
    return argv


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), target=st.sampled_from(
    ["bench config", "file config", "problem", "bench", "slope"]))
def test_cli_exits_0_2_or_3_with_one_line(data, target):
    """Mutated configs, problem files and ``bench``/``slope`` arguments,
    driven through ``cli.main`` in this process: the exit code is 0, 2 or
    3 (an argument error is ``SystemExit(2)``), no exception escapes, and
    a failure writes one line to stderr."""
    with tempfile.TemporaryDirectory() as name, \
            pytest.MonkeyPatch.context() as mp:
        tmp = Path(name)
        mp.chdir(tmp)
        mp.setenv("ASYNCADMM_OUT", str(tmp / "env-out"))
        bench_config, file_config, problem, bench_argv, slope_argv = \
            fuzz_inputs(tmp)
        (tmp / "p.json").write_text(json.dumps(problem))
        if target in ("bench config", "file config"):
            doc = bench_config if target == "bench config" else file_config
            (tmp / "exp.json").write_text(json.dumps(mutate_json(data, doc)))
        elif target == "problem":
            (tmp / "p.json").write_text(json.dumps(mutate_json(data,
                                                               problem)))
            (tmp / "exp.json").write_text(json.dumps(file_config))
        commands = ([["run", "exp.json"], ["validate", "exp.json"]]
                    if target not in ("bench", "slope") else
                    [mutate_argv(data, bench_argv if target == "bench"
                                 else slope_argv)])
        for argv in commands:
            assert_exit_0_2_or_3_with_one_line(argv)


def assert_exit_0_2_or_3_with_one_line(argv):
    """``cli.main(argv)`` in this process exits 0, 2 or 3 (an argument
    error is ``SystemExit(2)``), and a failure writes one line to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
    event(f"{argv[0]}: exit {code}")
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert err.getvalue().count("\n") == (code != 0), (argv, err.getvalue())


GRAPH_TOKENS = ("", "x", "-1", "0", "1", "2", "3", "4", "1000000000",
                "99999999999999999999", "2.5", "1e3", "nan", "+1", "1_0",
                "\u0663", "0x1")
GRAPH_LINES = ("", "#", "# note", "0 1 2", "0", "x y", "1 0", "2 2", "\t")
CSV_TOKENS = ("", "x", "nan", "inf", "-inf", "0", "-0.0", "-1", "1", "20",
              "1e308", "1e-320", "iter", "ergodic_feasibility")
CSV_LINES = ("", ",", "iter", "1,2,3", "a,b", "iter,ergodic_feasibility",
             "5,0.2", "5,0.2,7")


def mutate_text(data, text, tokens, lines):
    """``text`` after up to three edits: a line dropped, doubled, or
    inserted from ``lines``; one token (a run between spaces or commas)
    replaced from ``tokens``; a blank or comment line inserted; or the
    whole text replaced by bytes that are no valid UTF-8 or by nothing."""
    rows = text.splitlines()
    for _ in range(data.draw(st.integers(0, 3))):
        how = data.draw(st.sampled_from(
            ["drop", "double", "insert", "token", "token", "blank", "whole"]))
        k = data.draw(st.integers(0, max(len(rows) - 1, 0)))
        if how == "whole":
            return data.draw(st.sampled_from([b"", b"\n", b"\xff\xfe 0 1\n"]))
        if not rows:
            rows = [data.draw(st.sampled_from(lines))]
        elif how == "drop":
            del rows[k]
        elif how == "double":
            rows.insert(k, rows[k])
        elif how == "insert":
            rows.insert(k, data.draw(st.sampled_from(lines)))
        elif how == "blank":
            rows.insert(k, data.draw(st.sampled_from(["", "  ", "# c"])))
        else:
            parts = re.split(r"([ ,])", rows[k])
            t = data.draw(st.integers(0, len(parts) - 1)) // 2 * 2
            parts[t] = data.draw(st.sampled_from(tokens))
            rows[k] = "".join(parts)
    return "\n".join(rows).encode()


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), target=st.sampled_from(["graph", "csv"]))
def test_cli_on_mutated_graph_and_csv_files(data, target):
    """Mutated graph files, read by ``run``, ``validate`` and ``bench``
    (through ``Graph.from_text``), and mutated metrics CSVs, read by
    ``slope`` with and without a window: each command exits 0, 2 or 3
    with one line on stderr for a failure."""
    with tempfile.TemporaryDirectory() as name, \
            pytest.MonkeyPatch.context() as mp:
        tmp = Path(name)
        mp.chdir(tmp)
        mp.setenv("ASYNCADMM_OUT", str(tmp / "env-out"))
        bench_config, _, _, bench_argv, slope_argv = fuzz_inputs(tmp)
        (tmp / "exp.json").write_text(json.dumps(bench_config))
        if target == "graph":
            path = tmp / "g.txt"
            path.write_bytes(mutate_text(data, path.read_text(),
                                         GRAPH_TOKENS, GRAPH_LINES))
            commands = [["run", "exp.json"], ["validate", "exp.json"],
                        bench_argv]
        else:
            path = tmp / "m.csv"
            path.write_bytes(mutate_text(data, path.read_text(),
                                         CSV_TOKENS, CSV_LINES))
            commands = [slope_argv, slope_argv[:-2],
                        slope_argv[:2] + ["--column", "iter"]]
        for argv in commands:
            assert_exit_0_2_or_3_with_one_line(argv)
