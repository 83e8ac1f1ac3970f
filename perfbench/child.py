"""One call of one workload, in a fresh process started by ``run.py``.

Usage: ``python3 child.py '<spec>'`` where the spec is a JSON object with
``workload``, ``seed``, ``size``, ``trace`` and ``out``. The program is
imported before the clock starts, so import cost stays out of the timings.
Prints one JSON object: wall and set-up time of the call, its exit code,
the process's peak resident memory, the median time of a calibration kernel
run just before and just after the call, and with ``trace`` the span
statistics.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

from tracer import Tracer
from workloads import SIZES, make_inputs


def calibrate(np, times: list, samples: int = 7):
    """Append timings of a fixed kernel of small numpy and Python operations.

    The kernel uses nothing from the program, so its time tracks only how
    fast the host runs this kind of code at the moment.
    """
    a, b = np.arange(8.0), np.ones(8)
    for _ in range(samples):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(2000):
            acc += float(np.max(np.abs(a * b + 1.0))) + {"k": i}["k"] * 0.5
        times.append(time.perf_counter() - t0)


def main(argv) -> int:
    spec = json.loads(argv[1])
    w = SIZES[spec["size"]][spec["workload"]]
    a, run_seeds = make_inputs(w, spec["seed"])
    out = Path(spec["out"])

    import numpy as np
    import asyncadmm
    from asyncadmm import benchmarks, runner
    from asyncadmm.config import ExperimentConfig, ProbeFlags, ProblemSource
    from asyncadmm.consensus import Graph

    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()

    # set-up ends when prepare_experiment returns; the steps follow it
    prepared_at = []
    prepare = runner.prepare_experiment

    def timed_prepare(*args, **kwargs):
        try:
            return prepare(*args, **kwargs)
        finally:
            prepared_at.append(time.perf_counter())

    runner.prepare_experiment = timed_prepare

    def workload():
        bench = benchmarks.generate_benchmark(
            benchmarks.BenchmarkSpec(name=w.benchmark, a=a), Graph.cycle(w.nodes))
        config = ExperimentConfig(
            problem=ProblemSource(kind="object", value=bench), T=w.T,
            seeds=tuple(run_seeds), stride=w.stride, out=str(out), workers=1,
            probes=ProbeFlags(shadow=w.shadow, lyapunov=w.lyapunov,
                              ergodic=w.ergodic),
            reference=w.reference)
        return runner.run_experiment(config, base_dir=out)

    cal = []
    calibrate(np, cal)
    t0 = time.perf_counter()
    code = tracer.wrap("workload", workload)() if tracer else workload()
    t1 = time.perf_counter()
    calibrate(np, cal)

    result = {
        "exit_code": code,
        "wall_s": t1 - t0,
        "setup_s": prepared_at[0] - t0 if prepared_at else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cal_s": statistics.median(cal),
        "program": asyncadmm.__file__,
    }
    if tracer is not None:
        result["spans"] = tracer.stats
        result["missing"] = tracer.missing
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
