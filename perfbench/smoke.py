"""Smoke test of the benchmark, at tiny sizes.

Usage: ``python3 perfbench/smoke.py``; exits 1 and names each failure.

Runs every workload of ``BENCHMARK.json`` once untraced and once traced with
``--size smoke`` and checks that each result line is correct and names every
metric of ``BENCHMARK.json`` with its unit, that every traced span's self time
is at most the traced call's ``wall_s``, and that the output digest is equal
across the two invocations.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def invoke(workload: str, trace: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace),
           "--size", "smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} trace={trace}: exit {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    record = next(json.loads(ln[len("record "):]) for ln in lines
                  if ln.startswith("record "))
    return json.loads(lines[-1]), record


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for wl in bench["workloads"]:
        name = wl["name"]
        before = len(errors)
        digests = []
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            try:
                result, record = invoke(name, trace)
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                errors.append(str(exc))
                continue
            digests.append(record["digest"])
            if not result["correct"] or result["failed"]:
                errors.append(f"{name} trace={trace}: outputs failed checks: "
                              f"{record['problems']}")
            for metric in bench[key]:
                got = result["metrics"].get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    errors.append(f"{name} trace={trace}: metric "
                                  f"{metric['name']} missing or unit differs")
            extra = set(result["metrics"]) - {m["name"] for m in bench[key]}
            if extra:
                errors.append(f"{name} trace={trace}: unlisted metrics {extra}")
            if trace:
                rep = record["trace_rep"]
                for span, self_s in rep["self_s"].items():
                    if self_s > rep["wall_s"]:
                        errors.append(f"{name}: {span} self time {self_s} s "
                                      f"exceeds wall_s {rep['wall_s']} s")
        if len(digests) == 2 and digests[0] != digests[1]:
            errors.append(f"{name}: output digest differs between invocations")
        print(f"{name}: {'ok' if len(errors) == before else 'FAILED'}",
              flush=True)
    for err in errors:
        print(f"FAIL {err}")
    print("smoke: " + ("ok" if not errors else f"{len(errors)} failures"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
