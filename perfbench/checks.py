"""Output checks and the output digest of one workload call.

Checks read only what ``run_experiment`` writes (``seed_<s>.csv``,
``mean.csv``, ``summary.json``), so they hold however a later change
organises the engine. A seed fails when the call exits non-zero or when a
check on that seed's outputs fails; a check on the shared files fails every
seed of the call.

The consensus-quadratic workloads are replayed by an independent closed
form of per-edge asynchronous ADMM on a cycle (below), which draws the same
blocks from the same SplitMix64 stream; every recorded objective and
feasibility value must match it to a relative 1e-9, which allows sums taken
in another order.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

COLUMNS = ("iter", "objective", "objective_error", "feasibility_violation",
           "ergodic_objective_error", "ergodic_feasibility", "lyapunov",
           "active_block")
MEAN_COLUMNS = COLUMNS[:-1]
REL_TOL = 1e-9
# mc-cycle5 converges: feasibility and objective error at or below this
# bound every copy's spread and common offset from the analytic mean.
CONVERGED_TOL = 1e-8
MAX_SLOPE = -0.8


def output_digest(out_dir: Path) -> str:
    """SHA-256 over the names and bytes of every output file, in name order."""
    h = hashlib.sha256()
    for path in sorted(Path(out_dir).iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def output_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in Path(out_dir).iterdir())


def _read_csv(path: Path, columns):
    lines = path.read_text().splitlines()
    if not lines or tuple(lines[0].split(",")) != columns:
        raise ValueError(f"{path.name}: header is not {','.join(columns)}")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    if rows.shape[0] == 0 or rows.shape[1] != len(columns):
        raise ValueError(f"{path.name}: no rows or wrong row width")
    return {c: rows[:, j] for j, c in enumerate(columns)}


def _record_iters(T: int, stride: int) -> np.ndarray:
    iters = list(range(stride, T + 1, stride))
    if not iters or iters[-1] != T:
        iters.append(T)
    return np.array(iters, dtype=float)


def _finite_columns(w):
    cols = ["objective", "objective_error", "feasibility_violation"]
    if w.ergodic:
        cols += ["ergodic_objective_error", "ergodic_feasibility"]
    if w.lyapunov:
        cols.append("lyapunov")
    return cols


def _close(got, want) -> bool:
    return bool(np.all(np.abs(np.asarray(got) - np.asarray(want))
                       <= REL_TOL * np.maximum(1.0, np.abs(want))))


def check_call(w, a, run_seeds, out_dir: Path, exit_code: int) -> dict:
    """Problems found in one call's outputs: ``{seed or "all": [message]}``."""
    problems = {}

    def fail(key, msg):
        problems.setdefault(key, []).append(msg)

    if exit_code != 0:
        fail("all", f"exit code {exit_code}")
        return problems
    try:
        summary = json.loads((out_dir / "summary.json").read_text())
        if sorted(summary["seeds"]) != sorted(run_seeds):
            fail("all", "summary.json lists other seeds")
        if summary.get("reference_source") != (
                "long-run" if w.reference == "sync" else "analytic"):
            fail("all", f"reference_source {summary.get('reference_source')!r}")
        if w.seeds > 1:
            mean = _read_csv(out_dir / "mean.csv", MEAN_COLUMNS)
            if not all(math.isfinite(mean[c][-1]) for c in _finite_columns(w)):
                fail("all", "mean.csv: non-finite final value")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        fail("all", f"unreadable outputs: {exc}")
        return problems

    iters = _record_iters(w.T, w.stride)
    csvs = {}
    for s in run_seeds:
        try:
            csv = _read_csv(out_dir / f"seed_{s}.csv", COLUMNS)
        except (OSError, ValueError) as exc:
            fail(s, str(exc))
            continue
        csvs[s] = csv
        if not np.array_equal(csv["iter"], iters):
            fail(s, "recorded iterations differ from the stride grid")
        elif not all(math.isfinite(csv[c][-1]) for c in _finite_columns(w)):
            fail(s, "non-finite final value")

    if w.name == "mc-cycle5":
        _check_converged(summary, mean, run_seeds, fail)
    if w.benchmark == "consensus-quadratic":
        for s, csv in csvs.items():
            want = replay_cycle_quadratic(a, s, w.T, w.stride, w.ergodic)
            for col, values in want.items():
                if not _close(csv[col], values):
                    fail(s, f"{col} differs from the closed-form replay")
    if w.shadow:
        inv = summary["invariants"]
        if inv["shadow_failures"] or inv["freeze_failures"]:
            fail("all", f"probe failures: {inv}")
        if inv["shadow_checks"] != w.steps or inv["freeze_checks"] != w.steps:
            fail("all", f"probe check counts {inv} for {w.steps} steps")
    return problems


def _check_converged(summary, mean, run_seeds, fail):
    for s in run_seeds:
        rec = summary["per_seed"][str(s)]
        if not (rec["final_feasibility"] <= CONVERGED_TOL
                and rec["final_objective_error"] <= CONVERGED_TOL):
            fail(s, f"not converged to the analytic mean: {rec}")
    efeas = mean["ergodic_feasibility"]
    if not efeas[-1] < efeas[0]:
        fail("all", "mean ergodic feasibility did not fall")
    fit = summary["slopes"].get("ergodic_feasibility")
    if fit is None or not fit["slope"] <= MAX_SLOPE:
        fail("all", f"ergodic feasibility slope {fit} above {MAX_SLOPE}")


_MASK64 = (1 << 64) - 1


def _uniforms(seed: int):
    """SplitMix64 doubles in [0, 1), as the program's RngStream draws them."""
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield ((z ^ (z >> 31)) >> 11) * 2.0 ** -53


def replay_cycle_quadratic(a, seed: int, T: int, stride: int,
                           ergodic: bool) -> dict:
    """Recorded values of per-edge asynchronous ADMM on a cycle, beta = 1.

    Node q holds (x_q - a_q)^2 on the box [min a - m, max a + m] with
    m = max a - min a + 1. Edge e joins q = e and r = e + 1 (mod N); its
    rows carry +x_q and -x_r, H = -I, and its z pair is (u_e, -u_e).
    Every node starts at its own a_q with zero multipliers. Edges fire
    uniformly, chosen by inverse CDF on one uniform per step.
    """
    a = np.asarray(a, dtype=float)
    n = a.size
    if n < 3:
        raise ValueError("the replay covers cycles of three or more nodes")
    lo, hi = a.min(), a.max()
    lo, hi = lo - (hi - lo + 1.0), hi + (hi - lo + 1.0)
    x = a.copy()
    u = 0.5 * (x + np.roll(x, -1))
    p0 = np.zeros(n)     # multiplier of row +x_q of each edge
    p1 = np.zeros(n)     # multiplier of row -x_r of each edge
    cum = np.cumsum(np.full(n, 1.0 / n))
    cum[-1] = 1.0
    x_sum = np.zeros(n)
    u_sum = np.zeros(n)

    def feas(xv, uv):
        return float(np.sqrt(np.sum((xv - uv) ** 2)
                             + np.sum((uv - np.roll(xv, -1)) ** 2)))

    out = {"objective": [], "feasibility_violation": []}
    if ergodic:
        out["ergodic_feasibility"] = []
    draws = _uniforms(seed)
    for k in range(1, T + 1):
        e = min(int(np.searchsorted(cum, next(draws), side="right")), n - 1)
        q, r = e, (e + 1) % n
        # each endpoint re-solves against both incident edges, old state
        xq = (2.0 * a[q] + p0[q] + u[q] - p1[q - 1] + u[q - 1]) / 4.0
        xr = (2.0 * a[r] + p0[r] + u[r] - p1[e] + u[e]) / 4.0
        x[q] = min(max(xq, lo), hi)
        x[r] = min(max(xr, lo), hi)
        ue = 0.5 * (x[q] - p0[e] + p1[e] + x[r])
        u[e] = ue
        p0[e] -= x[q] - ue
        p1[e] -= ue - x[r]
        if ergodic:
            x_sum += x
            u_sum += u
        if k % stride == 0 or k == T:
            out["objective"].append(float(np.sum((x - a) ** 2)))
            out["feasibility_violation"].append(feas(x, u))
            if ergodic:
                out["ergodic_feasibility"].append(feas(x_sum / k, u_sum / k))
    return {c: np.array(v) for c, v in out.items()}
