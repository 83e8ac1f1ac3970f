"""The benchmark's workloads and the inputs each draws from a workload seed.

Every workload is one closed-loop call of ``asyncadmm.runner.run_experiment``
in one process and one thread (``workers=1``). The node data ``a`` and the
run seeds come from the workload seed alone, through Python's string-seeded
``random.Random``, so they do not depend on the numpy version. This module
imports nothing from ``asyncadmm``: the parent process uses it to rebuild
the inputs for the output checks without loading the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

# The seed used when none is given, and one seed kept out of tuning so that
# a later claim can be re-checked on inputs its author did not tune on.
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919


@dataclass(frozen=True)
class Workload:
    name: str
    benchmark: str       # name understood by asyncadmm.benchmarks
    nodes: int           # cycle length
    seeds: int           # run seeds per workload call
    T: int
    stride: int
    shadow: bool
    lyapunov: bool
    ergodic: bool
    reference: str       # ExperimentConfig.reference
    why: str

    @property
    def steps(self) -> int:
        return self.seeds * self.T


def _table(rows):
    return {w.name: w for w in rows}


# Each call takes about 1-3 s on a 2-core host, so a 20 s run gets
# several fresh-process repetitions to take medians over.
FULL = _table([
    Workload("mc-cycle5", "consensus-quadratic", 5, 16, 1000, 10,
             False, False, True, "auto",
             "many seeds on a 5-cycle: per-call overhead of sampling, prox "
             "and step dominates; seed batching shows here"),
    Workload("cycle2000-bare", "consensus-quadratic", 2000, 1, 10000, 10000,
             False, False, False, "auto",
             "one seed on a 2000-cycle, no recording: full-array copies in "
             "step and run dominate; an O(block) kernel shows here"),
    Workload("cycle2000-record", "consensus-quadratic", 2000, 1, 60, 1,
             False, False, True, "auto",
             "2000-cycle recording every step with ergodic sums: the "
             "per-component objective loop dominates"),
    Workload("lad-audit", "consensus-lad", 20, 3, 400, 10,
             True, True, False, "sync",
             "absolute-deviation prox with shadow and Lyapunov probes and a "
             "sync reference solve in set-up: full pass and sync baseline"),
])

# Tiny sizes for the smoke test: same shapes, a fraction of a second each.
SMOKE = _table([
    replace(w, nodes=nodes, seeds=seeds, T=T, stride=stride)
    for w, (nodes, seeds, T, stride) in zip(FULL.values(), [
        (5, 3, 600, 10), (50, 1, 400, 400), (50, 1, 20, 1), (8, 2, 40, 10)])
])

SIZES = {"full": FULL, "smoke": SMOKE}


def make_inputs(w: Workload, seed: int):
    """Node data and run seeds of workload ``w`` drawn from ``seed``."""
    rng = random.Random(f"{w.name}/{seed}")
    a = [rng.uniform(-5.0, 5.0) for _ in range(w.nodes)]
    run_seeds = rng.sample(range(2 ** 32), w.seeds)
    return a, run_seeds
