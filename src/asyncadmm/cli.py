"""Command line interface.

Subcommands:
  run <config>          execute an experiment config
  validate <config>     parse a config and validate the problem it names
  bench <name> ...      shorthand for running a named benchmark
  slope <csv> ...       log-log rate fit on a metrics CSV column

Exit codes: 0 ok, 1 divergence, 2 config error, 3 i/o error. The
ASYNCADMM_OUT environment variable supplies the default output directory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import (ExperimentConfig, ProbeFlags, ProblemSource,
                     parse_config, parse_seeds, read_text)
from .engine import RunMetrics
from .diagnostics import estimate_rate
from .errors import AsyncAdmmError, ParseError
from .problem import validate_constraints
from .runner import (EXIT_CONFIG, EXIT_IO, EXIT_OK, prepare_experiment,
                     run_experiment)


def _read_config(path_str: str):
    path = Path(path_str)
    return parse_config(read_text(path)), path.parent


def _cmd_run(args) -> int:
    config, base_dir = _read_config(args.config)
    return run_experiment(config, base_dir=base_dir)


def _cmd_validate(args) -> int:
    config, base_dir = _read_config(args.config)
    prepared = prepare_experiment(config, base_dir=base_dir)
    report = validate_constraints(prepared.problem.constraints)
    print(f"problem: N={prepared.problem.constraints.N} "
          f"W={prepared.problem.constraints.W} n={prepared.problem.constraints.n}")
    print(f"blocks: {prepared.partition.num_blocks}, seeds: {len(config.seeds)}, "
          f"T: {config.T}")
    print(str(report))
    return EXIT_OK if report.ok else EXIT_CONFIG


def _number_or_text(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _cmd_bench(args) -> int:
    bench_doc = {"name": args.name, "graph": args.graph}
    if args.a is not None:
        # text that is not a number stays text, for the benchmark data
        # check to refuse as a config file's would be
        bench_doc["a"] = [_number_or_text(v) for v in args.a.split(",")]
    probes = ProbeFlags(shadow=args.probe_shadow, lyapunov=args.probe_lyapunov,
                        ergodic=not args.no_ergodic)
    config = ExperimentConfig(
        problem=ProblemSource(kind="benchmark", value=bench_doc),
        T=args.T, seeds=parse_seeds(args.seeds), beta=args.beta,
        probes=probes, stride=args.stride, out=args.out,
        workers=args.workers)
    return run_experiment(config, base_dir=Path.cwd())


def _cmd_slope(args) -> int:
    lines = [ln for ln in read_text(args.csv).splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty csv")
    header = lines[0].split(",")
    if args.column not in header:
        raise ParseError(f"no column {args.column!r} in {header}")
    cidx = header.index(args.column)
    iidx = header.index("iter") if "iter" in header else None
    vals, its = [], []
    try:
        for ln in lines[1:]:
            parts = ln.split(",")
            vals.append(float(parts[cidx]))
            its.append(float(parts[iidx]) if iidx is not None else len(its) + 1.0)
    except (ValueError, IndexError) as exc:
        raise ParseError(f"malformed csv row: {exc}") from None
    window = None
    if args.window:
        try:
            lo, hi = args.window.split(":")
            window = (float(lo), float(hi))
        except ValueError:
            raise ParseError("--window must be lo:hi (two numbers), "
                             f"got {args.window!r}") from None
    fit = estimate_rate(np.asarray(vals), np.asarray(its), window=window)
    print(f"slope={fit.slope!r} intercept={fit.intercept!r}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Argument errors as one line on stderr, with exit code 2."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"config error: {self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="asyncadmm",
        description="Asynchronous ADMM experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.set_defaults(fn=_cmd_run)

    p_val = sub.add_parser("validate", help="validate a config and its problem")
    p_val.add_argument("config")
    p_val.set_defaults(fn=_cmd_validate)

    p_bench = sub.add_parser("bench", help="run a named benchmark")
    p_bench.add_argument("name")
    p_bench.add_argument("--graph", required=True)
    p_bench.add_argument("--seeds", default="0", help="e.g. 0..9 or 0,3,7")
    p_bench.add_argument("--T", type=int, default=1000)
    p_bench.add_argument("--beta", type=float, default=1.0)
    p_bench.add_argument("--out", default=None)
    p_bench.add_argument("--stride", type=int, default=1)
    p_bench.add_argument("--workers", type=int, default=1,
                         help="accepted for compatibility; has no effect")
    p_bench.add_argument("--a", default=None, help="comma-separated node data")
    p_bench.add_argument("--probe-shadow", action="store_true")
    p_bench.add_argument("--probe-lyapunov", action="store_true")
    p_bench.add_argument("--no-ergodic", action="store_true")
    p_bench.set_defaults(fn=_cmd_bench)

    p_slope = sub.add_parser("slope", help="fit a log-log rate to a CSV column")
    p_slope.add_argument("csv")
    p_slope.add_argument("--column", default="ergodic_feasibility",
                         choices=list(RunMetrics.COLUMNS[1:]))
    p_slope.add_argument("--window", default=None, help="lo:hi iteration window")
    p_slope.set_defaults(fn=_cmd_slope)
    return parser


def main(argv=None) -> int:
    """Run one subcommand. Bad input is a config error (exit 2) and a file
    that cannot be read an i/o error (exit 3), each one line on stderr."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except AsyncAdmmError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
