"""Experiment orchestration: build, run per seed, emit CSVs and a summary.

Outputs are deterministic for a given config: the sampler is a fixed
counter-based generator, floats are written with round-trip repr, and
JSON keys are sorted, so repeated runs produce byte-identical files.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .benchmarks import Benchmark, BenchmarkSpec, generate_benchmark
from .config import ExperimentConfig, load_problem, read_text
from .consensus import Graph, edge_initial_state
from .diagnostics import ReferenceSolution, estimate_rate, solve_reference
from .engine import RunMetrics, run_batch
from .errors import (AsyncAdmmError, DivergenceError, NonPositiveSeries,
                     ParseError, ValidationError)
from .problem import SeparableProblem, initial_state, term_groups
from .scheduler import (build_partition, derive_probabilities,
                        single_block_partition, uniform_probs)

OUT_ENV_VAR = "ASYNCADMM_OUT"

EXIT_OK = 0
EXIT_DIVERGENCE = 1
EXIT_CONFIG = 2
EXIT_IO = 3


@dataclass(eq=False)
class PreparedExperiment:
    """Problem, schedule, reference, and starts resolved from a config."""

    config: ExperimentConfig
    problem: SeparableProblem
    partition: object
    dist: object
    ref: Optional[ReferenceSolution]
    x0: Optional[np.ndarray]
    z0: Optional[np.ndarray]
    benchmark: Optional[Benchmark] = None


def _load_source(config: ExperimentConfig, base_dir: Path):
    src = config.problem
    if src.kind == "object":
        if isinstance(src.value, Benchmark):
            return src.value.problem, src.value
        return src.value, None
    if src.kind == "file":
        path = base_dir / src.value
        if not path.exists():
            raise ValidationError(f"problem file not found: {path}")
        return load_problem(read_text(path)), None
    if src.kind == "inline":
        return load_problem(src.value), None
    # benchmark
    doc = dict(src.value)
    name = doc.pop("name")
    graph_ref = doc.pop("graph")
    graph_path = base_dir / graph_ref
    if not graph_path.exists():
        raise ValidationError(f"graph file not found: {graph_path}")
    graph = Graph.from_text(read_text(graph_path))
    spec = BenchmarkSpec(name=name, **doc)
    bench = generate_benchmark(spec, graph, beta=config.beta)
    return bench.problem, bench


def prepare_experiment(config: ExperimentConfig,
                       base_dir: Optional[Path] = None) -> PreparedExperiment:
    """Materialize everything a run needs; raises config-class errors, and
    ``OSError`` for a problem or graph file that cannot be read."""
    base_dir = Path(base_dir) if base_dir is not None else Path.cwd()
    prob, bench = _load_source(config, base_dir)
    cs = prob.constraints

    if config.blocks is not None:
        partition = build_partition(prob.z_set, cs, config.blocks)
    elif bench is not None:
        partition = bench.reform.partition
    else:
        partition = single_block_partition(cs)
    probs = (np.asarray(config.block_probs, dtype=float)
             if config.block_probs is not None else uniform_probs(partition))
    dist = derive_probabilities(partition, probs)

    x0 = np.asarray(config.x0, dtype=float) if config.x0 is not None else None
    z0 = np.asarray(config.z0, dtype=float) if config.z0 is not None else None
    initial_state(prob, x0, z0)   # a start of the wrong size is refused
    if bench is not None and x0 is None:
        # decentralized start: every agent at its own data anchor
        x0 = _benchmark_start(prob)
    if bench is not None and z0 is None:
        z0 = edge_initial_state(bench.reform, x0).z

    ref = None
    if config.reference == "sync" or (config.reference == "auto"
                                      and config.probes.lyapunov):
        ref = solve_reference(prob)
    elif config.reference == "auto" and bench is not None:
        ref = bench.reference_solution
    return PreparedExperiment(config=config, problem=prob, partition=partition,
                              dist=dist, ref=ref, x0=x0, z0=z0,
                              benchmark=bench)


def _benchmark_start(prob: SeparableProblem) -> np.ndarray:
    """Start each component at the minimizer-ish anchor of its own term."""
    n = prob.constraints.n
    groups = term_groups(prob)
    x0 = np.zeros(prob.dim_x)
    x0[groups.quad_idx] = groups.quad_center
    x0[groups.abs_idx] = groups.abs_center
    for i, term in groups.other:
        center = getattr(term, "center", None)
        if center is not None:
            x0[i * n:(i + 1) * n] = center
    return x0


def _csv_text(header, columns) -> str:
    """CSV of equal-length columns: integer columns by ``str``, float
    columns by round-trip ``repr``, one conversion per column."""
    cells = [map(str if col.dtype.kind in "iu" else repr, col.tolist())
             for col in columns]
    return "\n".join([",".join(header)]
                     + [",".join(row) for row in zip(*cells)]) + "\n"


# the recorded series, in RunMetrics.COLUMNS order between iter and
# active_block
_SERIES = ("objective", "objective_error", "feasibility",
           "ergodic_objective_error", "ergodic_feasibility", "lyapunov")


def write_metrics_csv(path: Path, metrics: RunMetrics):
    path.write_text(_csv_text(
        RunMetrics.COLUMNS, [metrics.iters]
        + [getattr(metrics, name) for name in _SERIES]
        + [metrics.active_block]))


def write_mean_csv(path: Path, all_metrics):
    """Across-seed mean of every numeric column, on the shared record grid."""
    means = [np.mean([getattr(m, name) for m in all_metrics], axis=0)
             for name in _SERIES]
    path.write_text(_csv_text(RunMetrics.COLUMNS[:-1],
                              [all_metrics[0].iters] + means))


def _run_seeds(prepared: PreparedExperiment) -> list:
    """Metrics of every seed, run as one batch."""
    cfg = prepared.config
    return run_batch(prepared.problem, prepared.partition, prepared.dist,
                     seeds=cfg.seeds, T=cfg.T, probes=cfg.probes,
                     ref=prepared.ref, x0=prepared.x0, z0=prepared.z0,
                     stride=cfg.stride)


def run_experiment(config: ExperimentConfig,
                   base_dir: Optional[Path] = None) -> int:
    """Run all seeds, write artifacts, and return the process exit code."""
    base_dir = Path(base_dir) if base_dir is not None else Path.cwd()
    try:
        prepared = prepare_experiment(config, base_dir)
    except (ParseError, ValidationError, AsyncAdmmError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO

    out_dir = Path(config.out) if config.out else \
        Path(os.environ.get(OUT_ENV_VAR, base_dir))
    if not out_dir.is_absolute():
        out_dir = base_dir / out_dir

    try:
        all_metrics = _run_seeds(prepared)
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except ValidationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AsyncAdmmError as exc:
        print(f"divergence: run aborted: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for metrics in all_metrics:
            write_metrics_csv(out_dir / f"seed_{metrics.seed}.csv", metrics)
        if len(all_metrics) > 1:
            write_mean_csv(out_dir / "mean.csv", all_metrics)
        summary = build_summary(prepared, all_metrics)
        (out_dir / "summary.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _finite_or_none(value):
    value = float(value)
    return value if np.isfinite(value) else None


def build_summary(prepared: PreparedExperiment, all_metrics) -> dict:
    cfg = prepared.config
    per_seed = {}
    for m in all_metrics:
        per_seed[str(m.seed)] = {
            "final_objective": _finite_or_none(m.objective[-1]),
            "final_objective_error": _finite_or_none(m.objective_error[-1]),
            "final_feasibility": _finite_or_none(m.feasibility[-1]),
            "final_ergodic_feasibility": _finite_or_none(m.ergodic_feasibility[-1]),
            "x_max_abs": m.x_max_abs,
            "z_max_abs": m.z_max_abs,
            "p_max_abs": m.p_max_abs,
        }
    invariants = {
        "steps": sum(m.counters.get("steps", 0) for m in all_metrics),
        "shadow_checks": sum(m.counters.get("shadow_checks", 0) for m in all_metrics),
        "shadow_failures": sum(m.counters.get("shadow_failures", 0) for m in all_metrics),
        "freeze_checks": sum(m.counters.get("freeze_checks", 0) for m in all_metrics),
        "freeze_failures": sum(m.counters.get("freeze_failures", 0) for m in all_metrics),
    }
    slopes = {}
    if cfg.probes.ergodic:
        mean_efeas = np.mean([m.ergodic_feasibility for m in all_metrics], axis=0)
        iters = all_metrics[0].iters.astype(float)
        try:
            fit = estimate_rate(mean_efeas, iters)
            slopes["ergodic_feasibility"] = {"slope": fit.slope,
                                             "intercept": fit.intercept}
        except (NonPositiveSeries, AsyncAdmmError):
            slopes["ergodic_feasibility"] = None
    return {
        "T": cfg.T,
        "seeds": list(cfg.seeds),
        "beta": cfg.beta,
        "stride": cfg.stride,
        "per_seed": per_seed,
        "invariants": invariants,
        "slopes": slopes,
        "reference_source": prepared.ref.source if prepared.ref else None,
    }
