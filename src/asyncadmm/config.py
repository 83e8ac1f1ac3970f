"""Experiment configuration and on-disk problem format.

Configs and problem files are JSON documents with a fixed field set;
unknown fields are parse errors so typos fail loudly. Problem files
carry the constraint system as explicit ``D_rows`` triples
``[row, block, coeff]`` (optionally ``[row, block, coord, coeff]`` for
vector-valued components) plus the ``H_diag`` vector.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Any, Optional

import numpy as np

from .benchmarks import BENCHMARK_NAMES
from .engine import ProbeFlags
from .errors import ParseError, ValidationError
from .problem import ConstraintSystem, SeparableProblem
from .terms import AbsDev, Box, Custom, Free, L1, Quadratic, SumZeroPairs

CONFIG_FIELDS = ("problem", "T", "seeds", "beta", "blocks", "block_probs",
                 "probes", "stride", "out", "workers", "x0", "z0", "reference")
PROBE_FIELDS = ("shadow", "lyapunov", "ergodic")
PROBLEM_SOURCE_KINDS = ("file", "inline", "benchmark", "object")
BENCHMARK_FIELDS = ("name", "graph", "a", "w", "b", "pi", "box_margin")
PROBLEM_FIELDS = ("n", "N", "W", "beta", "terms", "x_sets", "z_set",
                  "D_rows", "H_diag")


@dataclass(frozen=True)
class ProblemSource:
    """Where the problem comes from: a file, an inline document, a named
    benchmark, or an in-memory object (API only, not renderable)."""

    kind: str
    value: Any

    def __post_init__(self):
        if self.kind not in PROBLEM_SOURCE_KINDS:
            raise ValidationError(f"unknown problem source kind {self.kind!r}")
        if self.kind == "benchmark":
            _check_benchmark_data(self.value)


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemSource
    T: int
    seeds: tuple = (0,)
    beta: float = 1.0
    blocks: Optional[tuple] = None        # None: per-edge / single block
    block_probs: Optional[tuple] = None   # None: uniform
    probes: ProbeFlags = field(default_factory=ProbeFlags)
    stride: int = 1
    out: Optional[str] = None
    workers: int = 1                      # accepted and checked; no effect
    x0: Optional[tuple] = None
    z0: Optional[tuple] = None
    reference: str = "auto"               # auto | sync | none

    def __post_init__(self):
        if self.T < 1:
            raise ValidationError("T must be >= 1")
        if not self.seeds:
            raise ValidationError("seeds must be nonempty")
        if self.stride < 1:
            raise ValidationError("stride must be >= 1")
        if self.workers < 1:
            raise ValidationError("workers must be >= 1")
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ValidationError("beta must be positive and finite")
        if self.reference not in ("auto", "sync", "none"):
            raise ValidationError(f"unknown reference mode {self.reference!r}")
        for name in ("x0", "z0", "block_probs"):
            _require_finite(getattr(self, name), name)
        if self.block_probs is not None:
            total = float(sum(self.block_probs))
            if abs(total - 1.0) > 1e-12:
                raise ValidationError(
                    f"block_probs sum to {total!r}, expected 1")
            if any(p <= 0 for p in self.block_probs):
                raise ValidationError("block_probs must be positive")


def _require_finite(values, where: str, nan_only=False):
    """Reject NaN (and, unless ``nan_only``, infinite) values."""
    if values is None:
        return
    arr = np.asarray(values, dtype=float)
    bad = np.isnan(arr) if nan_only else ~np.isfinite(arr)
    if np.any(bad):
        raise ValidationError(f"{where}: non-finite value "
                              f"{arr.reshape(-1)[np.flatnonzero(bad)[0]]!r}")


def _number(value, where: str) -> float:
    """A JSON number (not a bool, not a string) as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _integer(value, where: str) -> int:
    """A JSON integer (not a bool, not a float, not a string)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where}: expected an integer, got {value!r}")
    return value


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a list, got {value!r}")
    return value


def _numbers(value, where: str) -> tuple:
    """A JSON list of numbers as a tuple of floats."""
    return tuple(_number(v, f"{where}[{i}]")
                 for i, v in enumerate(_list(value, where)))


def _required(doc: dict, key: str, where: str):
    if key not in doc:
        raise ParseError(f"{where}: missing required field {key!r}")
    return doc[key]


def _check_fields(obj: dict, allowed, where: str):
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object, got {type(obj).__name__}")
    for key in obj:
        if key not in allowed:
            raise ParseError(f"{where}: unknown field {key!r}")


def _seed(value) -> int:
    """One seed: a JSON integer in ``[0, 2**64)``."""
    if not 0 <= _integer(value, "seeds") < 1 << 64:
        raise ParseError(f"seeds: {value!r} is outside [0, 2**64)")
    return value


def parse_seeds(raw) -> tuple:
    """Seeds from an int, a list, or a string ``"lo..hi"`` or ``"a,b,c"``.

    Each seed is an integer in ``[0, 2**64)``: the sampler reads a seed
    modulo 2**64, so any other integer would repeat another seed's run.
    """
    if isinstance(raw, str):
        if ".." in raw:
            lo, hi = raw.split("..", 1)
            try:
                lo, hi = int(lo), int(hi)
            except ValueError:
                raise ParseError(f"bad seed range {raw!r}") from None
            if hi < lo:
                raise ValidationError(f"empty seed range {raw!r}")
            return tuple(range(_seed(lo), _seed(hi) + 1))
        try:
            raw = [int(s) for s in raw.split(",")]
        except ValueError:
            raise ParseError(f"bad seed list {raw!r}") from None
    return tuple(_seed(s) for s in (raw if isinstance(raw, list) else [raw]))


def read_text(path) -> str:
    """A config, problem, graph or metrics file's text (``OSError`` if it
    cannot be read); text that is not UTF-8 is a ``ParseError``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from None


def _check_benchmark_data(doc: dict):
    """Benchmark data must be finite JSON numbers: ``a``, ``w`` and ``b``
    lists of them, ``pi`` and ``box_margin`` one each. A null keeps the
    default of a field whose default is null (all but ``pi``)."""
    for key in ("a", "w", "b", "pi", "box_margin"):
        if key not in doc or (doc[key] is None and key != "pi"):
            continue
        where = f"problem.benchmark.{key}"
        values = (_number(doc[key], where) if key in ("pi", "box_margin")
                  else _numbers(doc[key], where))
        _require_finite(values, where)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON experiment config.

    Defaults: beta 1.0, single seed 0, stride 1, all probes off.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config is not valid JSON: {exc}") from None
    _check_fields(raw, CONFIG_FIELDS, "config")
    if "problem" not in raw:
        raise ParseError("config: missing required field 'problem'")
    if "T" not in raw:
        raise ParseError("config: missing required field 'T'")

    src_raw = raw["problem"]
    _check_fields(src_raw, ("file", "inline", "benchmark"), "problem")
    if len(src_raw) != 1:
        raise ParseError("problem: give exactly one of file/inline/benchmark")
    kind, value = next(iter(src_raw.items()))
    if kind == "benchmark":
        _check_fields(value, BENCHMARK_FIELDS, "problem.benchmark")
        if "name" not in value:
            raise ParseError("problem.benchmark: missing field 'name'")
        if value["name"] not in BENCHMARK_NAMES:
            raise ValidationError(
                f"problem.benchmark: unknown name {value['name']!r}")
        if "graph" not in value:
            raise ParseError("problem.benchmark: missing field 'graph'")
        if not isinstance(value["graph"], str):
            raise ParseError("problem.benchmark.graph must be a path string, "
                             f"got {value['graph']!r}")
    elif kind == "inline":
        _check_fields(value, PROBLEM_FIELDS, "problem.inline")
    elif not isinstance(value, str):
        raise ParseError("problem.file must be a path string")
    source = ProblemSource(kind=kind, value=value)

    probes_raw = raw.get("probes", {})
    _check_fields(probes_raw, PROBE_FIELDS, "probes")
    for k, v in probes_raw.items():
        if not isinstance(v, bool):
            raise ParseError(f"probes.{k} must be true or false, got {v!r}")
    probes = ProbeFlags(**probes_raw)

    blocks = raw.get("blocks")
    if blocks is not None:
        blocks = tuple(
            tuple(_integer(r, f"blocks[{b}][{j}]")
                  for j, r in enumerate(_list(blk, f"blocks[{b}]")))
            for b, blk in enumerate(_list(blocks, "blocks")))
    block_probs, x0, z0 = (
        _numbers(raw[key], key) if raw.get(key) is not None else None
        for key in ("block_probs", "x0", "z0"))
    out = raw.get("out")
    if out is not None and not isinstance(out, str):
        raise ParseError(f"out must be a path string, got {out!r}")

    try:
        return ExperimentConfig(
            problem=source, T=_integer(raw["T"], "T"),
            seeds=parse_seeds(raw.get("seeds", 0)),
            beta=_number(raw.get("beta", 1.0), "beta"), blocks=blocks,
            block_probs=block_probs, probes=probes,
            stride=_integer(raw.get("stride", 1), "stride"),
            out=out,
            workers=_integer(raw.get("workers", 1), "workers"), x0=x0, z0=z0,
            reference=raw.get("reference", "auto"))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"config: {exc}") from None


def render_config(config: ExperimentConfig) -> str:
    """Canonical JSON for a config; parse(render(c)) == c."""
    if config.problem.kind == "object":
        raise ValidationError("in-memory problem objects are not renderable")
    doc = {
        "problem": {config.problem.kind: config.problem.value},
        "T": config.T,
        "seeds": list(config.seeds),
        "beta": config.beta,
        "probes": asdict(config.probes),
        "stride": config.stride,
        "workers": config.workers,
        "reference": config.reference,
    }
    if config.blocks is not None:
        doc["blocks"] = [list(b) for b in config.blocks]
    if config.block_probs is not None:
        doc["block_probs"] = list(config.block_probs)
    if config.out is not None:
        doc["out"] = config.out
    if config.x0 is not None:
        doc["x0"] = list(config.x0)
    if config.z0 is not None:
        doc["z0"] = list(config.z0)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Problem files
# ---------------------------------------------------------------------------

def _vector(value, where) -> np.ndarray:
    """A number, or a list of numbers, as a float array."""
    return np.asarray(_numbers(value, where) if isinstance(value, list)
                      else _number(value, where), dtype=float)


def _finite_array(value, where):
    arr = _vector(value, where)
    _require_finite(arr, where)
    return arr


def _finite_number(value, where) -> float:
    value = _number(value, where)
    _require_finite(value, where)
    return value


def _term_from_json(doc, n, where):
    _check_fields(doc, ("kind", "center", "weight", "gamma", "dim"), where)
    kind = doc.get("kind")
    if kind == "quadratic":
        return Quadratic(_finite_array(_required(doc, "center", where),
                                       f"{where}.center"),
                         _finite_number(doc.get("weight", 1.0),
                                        f"{where}.weight"))
    if kind == "absdev":
        return AbsDev(_finite_array(_required(doc, "center", where),
                                    f"{where}.center"))
    if kind == "l1":
        return L1(gamma=_finite_number(_required(doc, "gamma", where),
                                       f"{where}.gamma"),
                  dim=_integer(doc.get("dim", n), f"{where}.dim"))
    raise ParseError(f"{where}: unknown term kind {kind!r}")


def _term_to_json(term, where):
    if isinstance(term, Quadratic):
        return {"kind": "quadratic", "center": term.center.tolist(),
                "weight": term.weight}
    if isinstance(term, AbsDev):
        return {"kind": "absdev", "center": term.center.tolist()}
    if isinstance(term, L1):
        return {"kind": "l1", "gamma": term.gamma, "dim": term.dim}
    if isinstance(term, Custom):
        raise ValidationError(f"{where}: custom terms are code-only")
    raise ValidationError(f"{where}: unknown term {type(term).__name__}")


def _set_from_json(doc, where):
    _check_fields(doc, ("kind", "dim", "lower", "upper", "pairs"), where)
    kind = doc.get("kind")
    if kind == "free":
        return Free(dim=_integer(_required(doc, "dim", where), f"{where}.dim"))
    if kind == "box":
        # infinite bounds are legal (an unbounded side), NaN is not
        lower, upper = (_vector(_required(doc, side, where),
                                f"{where}.{side}")
                        for side in ("lower", "upper"))
        _require_finite(lower, f"{where}.lower", nan_only=True)
        _require_finite(upper, f"{where}.upper", nan_only=True)
        return Box(lower, upper)
    if kind == "sum_zero_pairs":
        pairs = _list(doc.get("pairs", []), f"{where}.pairs")
        return SumZeroPairs(
            dim=_integer(_required(doc, "dim", where), f"{where}.dim"),
            pairs=tuple(_pair(pair, f"{where}.pairs[{k}]")
                        for k, pair in enumerate(pairs)))
    raise ParseError(f"{where}: unknown set kind {kind!r}")


def _pair(value, where):
    if len(_list(value, where)) != 2:
        raise ParseError(f"{where}: expected two row indices, got {value!r}")
    return tuple(_integer(v, f"{where}[{k}]") for k, v in enumerate(value))


def _set_to_json(fset):
    if isinstance(fset, Free):
        return {"kind": "free", "dim": fset.dim}
    if isinstance(fset, Box):
        return {"kind": "box", "lower": fset.lower.tolist(),
                "upper": fset.upper.tolist()}
    if isinstance(fset, SumZeroPairs):
        return {"kind": "sum_zero_pairs", "dim": fset.dim,
                "pairs": [list(p) for p in fset.pairs]}
    raise ValidationError(f"unknown set {type(fset).__name__}")


def load_problem(doc) -> SeparableProblem:
    """Build a separable problem from a parsed problem document."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise ParseError(f"problem file is not valid JSON: {exc}") from None
    _check_fields(doc, PROBLEM_FIELDS, "problem")
    for key in PROBLEM_FIELDS:
        if key not in doc:
            raise ParseError(f"problem: missing required field {key!r}")
    n, num, w = (_integer(doc[key], f"problem.{key}")
                 for key in ("n", "N", "W"))
    entries = []
    for k, row in enumerate(_list(doc["D_rows"], "problem.D_rows")):
        where = f"problem.D_rows[{k}]"
        if len(_list(row, where)) not in (3, 4):
            raise ParseError(f"{where}: bad entry {row!r}")
        # [row, block, coeff] or [row, block, coord, coeff]
        index = [_integer(v, where) for v in row[:-1]] + [0]
        entries.append((*index[:3], _number(row[-1], where)))
    _require_finite([e[-1] for e in entries], "problem.D_rows")
    h_diag = _finite_array(doc["H_diag"], "problem.H_diag")
    terms = tuple(_term_from_json(t, n, f"problem.terms[{i}]")
                  for i, t in enumerate(_list(doc["terms"], "problem.terms")))
    x_sets = tuple(_set_from_json(s, f"problem.x_sets[{i}]")
                   for i, s in enumerate(_list(doc["x_sets"],
                                               "problem.x_sets")))
    # the sizes must agree with the document before any array is sized
    # from them
    for key, size, field, count in (("N", num, "terms", len(terms)),
                                    ("N", num, "x_sets", len(x_sets)),
                                    ("W", w, "H_diag", h_diag.size)):
        if size != count:
            raise ValidationError(f"problem.{key} is {size} but "
                                  f"problem.{field} has {count} entries")
    for field, items in (("terms", terms), ("x_sets", x_sets)):
        for i, item in enumerate(items):
            if item.dim != n:
                raise ValidationError(f"problem.{field}[{i}] has dim "
                                      f"{item.dim}, expected n = {n}")
    cs = ConstraintSystem(n=n, N=num, W=w, entries=tuple(entries),
                          h_diag=h_diag)
    z_set = _set_from_json(doc["z_set"], "problem.z_set")
    return SeparableProblem(terms=terms, x_sets=x_sets, z_set=z_set,
                            constraints=cs,
                            beta=_finite_number(doc["beta"], "problem.beta"))


def dump_problem(prob: SeparableProblem) -> str:
    """Serialize a separable problem to the JSON problem format."""
    cs = prob.constraints
    doc = {
        "n": cs.n, "N": cs.N, "W": cs.W, "beta": prob.beta,
        "terms": [_term_to_json(t, f"terms[{i}]")
                  for i, t in enumerate(prob.terms)],
        "x_sets": [_set_to_json(s) for s in prob.x_sets],
        "z_set": _set_to_json(prob.z_set),
        "D_rows": [[row, blk, coord, coeff] if cs.n > 1 else [row, blk, coeff]
                   for (row, blk, coord, coeff) in cs.entries],
        "H_diag": cs.h_diag.tolist(),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
