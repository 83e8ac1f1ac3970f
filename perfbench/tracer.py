"""Span tracer that wraps the program's functions from outside.

A traced function is wrapped wherever a module of the package binds it by
name: ``asyncadmm.engine.objective`` as well as ``asyncadmm.problem.objective``,
because ``engine`` imported the name and calls it through its own globals.
Spans nest through a stack of child-time accumulators, so a span's self time
excludes the spans it encloses. Statistics are aggregated per span name
(calls, total, self) and never stored per call, so memory stays constant
however many steps a traced run takes.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

PACKAGE = "asyncadmm"

# Span names are "<module>.<function>" with the module the function is
# defined in. Order is only the order of the report.
TRACED = (
    "benchmarks.generate_benchmark",
    "runner.prepare_experiment",
    "diagnostics.solve_reference",
    "engine.sync_admm_step",
    "engine.run",
    "engine.step",
    "scheduler.sample_block",
    "engine.shadow_step",
    "engine._tally_shadow",
    "prox.solve_local_prepared",
    "prox.solve_z_prepared",
    "problem.objective",
    "problem.residual",
    "runner.write_metrics_csv",
    "runner.write_mean_csv",
    "runner.build_summary",
)


class Tracer:
    """Per-name span statistics: ``stats[name] = [calls, total_ns, self_ns]``."""

    def __init__(self):
        self.stats = {}
        self.missing = []
        self._stack = []

    def wrap(self, name, fn):
        entry = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                entry[0] += 1
                entry[1] += dt
                entry[2] += dt - child
                if stack:
                    stack[-1] += dt

        return traced

    def install(self, names=TRACED):
        """Wrap every binding of each named function in the loaded package.

        A name whose function no longer exists is recorded in ``missing``
        rather than raised, so the benchmark outlives refactors it does not
        know about.
        """
        for name in names:
            mod_name, attr = name.rsplit(".", 1)
            try:
                module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                self.missing.append(name)
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(name)
                continue
            wrapped = self.wrap(name, fn)
            for mod in list(sys.modules.values()):
                if mod is None or not (mod.__name__ == PACKAGE or
                                       mod.__name__.startswith(PACKAGE + ".")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)
