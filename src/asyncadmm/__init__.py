"""Asynchronous ADMM for separable problems with linear coupling constraints.

Library layout:

- ``terms`` / ``problem``: objective terms, feasible sets, the separable
  problem container, and its evaluation operations.
- ``prox``: closed-form component and block subproblem solvers.
- ``scheduler``: proper partitions, activation probabilities, seeded RNG.
- ``engine``: the asynchronous block kernel and step, full-information
  shadow passes, the synchronous baseline, and the one metric-recording
  run loop (many seeds in lockstep, one seed by dependency level).
- ``consensus``: edge-based reformulation of multi-agent consensus and
  the closed-form per-edge step.
- ``diagnostics``: weighted norms and Lagrangian, the Lyapunov value and
  its drift, rate fits, and rate-bound constants.
- ``benchmarks`` / ``config`` / ``runner`` / ``cli``: named benchmark
  generators and the deterministic experiment pipeline.
"""

from .terms import AbsDev, Box, Custom, Free, L1, Quadratic, SumZeroPairs, term_value
from .problem import (ConstraintSystem, PrimalDualState, SeparableProblem,
                      ValidationReport, initial_state, lagrangian, objective,
                      residual, validate_constraints)
from .prox import LocalSubproblem, bisect_convex, soft_threshold, solve_local
from .scheduler import (ActivationDistribution, ProperPartition, RngStream,
                        build_partition, derive_probabilities, sample_block,
                        single_block_partition, uniform_probs)
from .engine import (ProbeFlags, RunMetrics, ShadowIterates, StepRecord, run,
                     run_batch, shadow_step, step, sync_admm_step)
from .consensus import (EdgeReformulation, Graph, build_reformulation,
                        consensus_gap, consensus_reference, edge_initial_state,
                        edge_step)
from .diagnostics import (RateConstants, RateFit, ReferenceSolution,
                          WeightedNorm, compute_rate_constants, estimate_rate,
                          lyapunov, q_value, solve_reference,
                          weighted_lagrangian, weighted_norm_sq)
from .benchmarks import Benchmark, BenchmarkSpec, generate_benchmark
from .config import (ExperimentConfig, ProblemSource, dump_problem,
                     load_problem, parse_config, render_config)
from .runner import prepare_experiment, run_experiment

__version__ = "0.1.0"
