"""Random activation of constraint blocks.

A run activates one block of constraint rows per iteration, drawn i.i.d.
from a fixed distribution over a proper partition: rows whose z
coordinates are coupled by the z set must share a block. The derived
per-row and per-component activation probabilities feed the weighted
norms used by the diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import (ImproperPartition, NonCoveringPartition,
                     ZeroProbabilityBlock)
from .problem import ConstraintSystem
from .terms import (FeasibleSet, SumZeroPairs, _first_true, _index_array,
                    _repeats)

PROB_SUM_TOL = 1e-12


def _offsets(sizes) -> np.ndarray:
    """Start of each of consecutive segments of the given sizes, then the end."""
    ptr = np.zeros(len(sizes) + 1, dtype=np.intp)
    np.cumsum(sizes, out=ptr[1:])
    return ptr


@dataclass(eq=False)
class ProperPartition:
    """Disjoint cover of the constraint rows, closed under z coupling.

    Block ``b`` owns the rows ``rows[row_ptr[b]:row_ptr[b+1]]`` and the
    components ``comps[comp_ptr[b]:comp_ptr[b+1]]``, those owning its
    rows; exactly those components are updated when the block fires.
    """

    rows: np.ndarray
    row_ptr: np.ndarray
    comps: np.ndarray
    comp_ptr: np.ndarray
    num_rows: int
    num_components: int

    @property
    def num_blocks(self) -> int:
        return self.row_ptr.size - 1


def build_partition(z_set: FeasibleSet, cs: ConstraintSystem,
                    blocks) -> ProperPartition:
    """Validate a user-specified row partition and derive its component map.

    ``blocks`` is a sequence of row lists, or a 2-D integer array with one
    block per line. Raises :class:`NonCoveringPartition` when the blocks
    are not a disjoint cover of ``0..W-1`` (naming the first offending
    block: empty, with a row out of range, with a row of an earlier block,
    or with a row listed twice; else the first row not covered) and
    :class:`ImproperPartition` when two rows coupled through the z set land
    in different blocks. A few sorts over all rows; nothing per block.
    """
    cs.require_valid()
    W = cs.W
    if isinstance(blocks, np.ndarray) and blocks.ndim == 2:
        sizes = np.full(blocks.shape[0], blocks.shape[1], dtype=np.intp)
        flat = _index_array(blocks).reshape(-1)
    else:
        lists = [[int(r) for r in rows] for rows in blocks]
        sizes = np.array([len(rows) for rows in lists], dtype=np.intp)
        flat = _index_array(list(chain.from_iterable(lists)))
    m = sizes.size
    blk = np.repeat(np.arange(m), sizes)
    rows = flat[np.lexsort((flat, blk))]  # ascending within each block
    # a row met before is in an earlier block or listed twice in its own
    # (the key is exact for rows in range)
    twice = _repeats(blk * W + rows)
    again = np.stack([_repeats(rows) & ~twice, twice])
    # the checks of each block in order: empty, out of range, a row of an
    # earlier block, a row listed twice
    failed = np.zeros((m, 4), dtype=bool)
    failed[:, 0] = sizes == 0
    failed[blk[(rows < 0) | (rows >= W)], 1] = True
    failed[blk[again[0]], 2] = True
    failed[blk[again[1]], 3] = True
    first = _first_true(failed)
    if first >= 0:
        b, check = divmod(first, 4)
        if check == 0:
            raise NonCoveringPartition(f"block {b} is empty")
        if check == 1:
            raise NonCoveringPartition(f"block {b} has out-of-range rows")
        dup = int(rows[np.flatnonzero(again[check - 2] & (blk == b))[0]])
        if check == 2:
            raise NonCoveringPartition(f"row {dup} appears in two blocks")
        raise NonCoveringPartition(f"row {dup} appears twice in block {b}")
    owner = np.full(W, -1, dtype=np.intp)
    owner[rows] = blk
    missing = _first_true(owner < 0)
    if missing >= 0:
        raise NonCoveringPartition(f"row {missing} not covered by any block")
    if isinstance(z_set, SumZeroPairs):
        i, j = z_set.pairs.T
        split = _first_true(owner[i] != owner[j])
        if split >= 0:
            i, j = int(i[split]), int(j[split])
            raise ImproperPartition(
                f"rows {i} and {j} are coupled by the z set but split "
                f"across blocks {int(owner[i])} and {int(owner[j])}")
    # the component map: each block's components, sorted and deduplicated
    comp = cs.row_block[rows]
    comp = comp[np.lexsort((comp, blk))]
    keep = np.ones(comp.size, dtype=bool)
    keep[1:] = (comp[1:] != comp[:-1]) | (blk[1:] != blk[:-1])
    return ProperPartition(rows, _offsets(sizes), comp[keep],
                           _offsets(np.bincount(blk[keep], minlength=m)),
                           W, cs.N)


def single_block_partition(cs: ConstraintSystem) -> ProperPartition:
    """The trivial partition: every row in one block (full activation)."""
    comps = np.flatnonzero(np.bincount(cs.row_block, minlength=cs.N))
    return ProperPartition(np.arange(cs.W, dtype=np.intp), _offsets([cs.W]),
                           comps, _offsets([comps.size]), cs.W, cs.N)


@dataclass(eq=False)
class ActivationDistribution:
    """Block sampling distribution with derived row/component probabilities
    and the inverse CDF of :func:`blocks_for`, built once."""

    block_probs: np.ndarray
    lam: np.ndarray          # per-row activation probability
    alpha: np.ndarray        # per-component activation probability
    weight_diag: np.ndarray  # 1 / lam, the diagonal of the weighting matrix
    cum_probs: np.ndarray = field(default=None, repr=False)
    buckets: np.ndarray = field(init=False, repr=False)
    steps: list = field(init=False, repr=False)

    def __post_init__(self):
        if self.cum_probs is None:
            # rounding can take a sum past 1 before the end: cut it, so sorted
            cum = np.minimum(np.cumsum(self.block_probs), 1.0)
            cum[-1] = 1.0
            self.cum_probs = cum
        m = self.block_probs.size
        # the entries in each bucket, found as blocks_for finds a uniform's
        count = np.bincount((self.cum_probs * m).astype(np.intp),
                            minlength=m + 1)
        self.buckets = np.cumsum(count) - count
        rounds = int(count.max()).bit_length()
        self.steps = [1 << i for i in reversed(range(rounds))]


def derive_probabilities(partition: ProperPartition,
                         block_probs) -> ActivationDistribution:
    """Per-row and per-component activation probabilities.

    Each row belongs to exactly one block, so its probability is that
    block's; a component's probability sums over the blocks whose
    component map contains it. Every block needs strictly positive
    probability so that all rows fire infinitely often.
    """
    probs = np.asarray(block_probs, dtype=float)
    m = partition.num_blocks
    if probs.shape != (m,):
        raise ZeroProbabilityBlock(
            f"need {m} block probabilities, got {probs.size}")
    if np.any(probs <= 0):
        bad = int(np.flatnonzero(probs <= 0)[0])
        raise ZeroProbabilityBlock(f"block {bad} has probability <= 0")
    if abs(probs.sum() - 1.0) > PROB_SUM_TOL:
        raise ZeroProbabilityBlock(
            f"block probabilities sum to {probs.sum()!r}, expected 1")
    lam = np.empty(partition.num_rows)
    lam[partition.rows] = np.repeat(probs, np.diff(partition.row_ptr))
    # each component's blocks add up in block order, from zero
    alpha = np.bincount(partition.comps,
                        weights=np.repeat(probs, np.diff(partition.comp_ptr)),
                        minlength=partition.num_components)
    return ActivationDistribution(block_probs=probs, lam=lam, alpha=alpha,
                                  weight_diag=1.0 / lam)


def uniform_probs(partition: ProperPartition) -> np.ndarray:
    m = partition.num_blocks
    return np.full(m, 1.0 / m)


_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_U64 = np.uint64


def _splitmix_doubles(states, count: int) -> np.ndarray:
    """Draws 1..count of SplitMix64 streams with the given current states.

    The generator is counter based: draw k of a stream is a function of
    ``state + k * gamma`` alone, so all draws of all streams come from one
    array expression on ``uint64`` (which wraps modulo 2**64). Returns
    shape ``(count, len(states))``, as ``RngStream.next_double`` draws.
    """
    steps = np.arange(1, count + 1, dtype=_U64)[:, None]
    z = np.asarray(states, dtype=_U64)[None, :] + steps * _U64(_GAMMA)
    z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
    z ^= z >> _U64(31)
    # 53 uniform mantissa bits in [0, 1), exact in float64
    return (z >> _U64(11)).astype(np.float64) * 1.1102230246251565e-16


def draw_uniforms(streams, count: int) -> np.ndarray:
    """The next ``count`` draws of every stream, shape ``(count, S)``.

    Equal to ``count`` calls of ``next_double`` on each stream, and
    advances each stream as those calls would.
    """
    out = _splitmix_doubles([r._state for r in streams], count)
    for r in streams:
        r._state = (r._state + count * _GAMMA) & _MASK64
    return out


class RngStream:
    """SplitMix64 stream: counter-based, identical on every platform.

    The generator is fixed (not numpy's) so that sampled trajectories,
    and therefore emitted CSV files, are reproducible bit for bit.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._state = self.seed

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_double(self) -> float:
        # 53 uniform mantissa bits in [0, 1)
        return (self.next_u64() >> 11) * 1.1102230246251565e-16  # 2**-53

    def normals(self, size: int) -> np.ndarray:
        """Standard normals via Box-Muller on fixed-order uniform draws."""
        out = np.empty(size)
        for i in range(0, size, 2):
            u1 = self.next_double()
            u2 = self.next_double()
            r = np.sqrt(-2.0 * np.log(1.0 - u1))
            out[i] = r * np.cos(2.0 * np.pi * u2)
            if i + 1 < size:
                out[i + 1] = r * np.sin(2.0 * np.pi * u2)
        return out


def sample_block(dist: ActivationDistribution, rng: RngStream) -> int:
    """Draw one block index by inverse CDF on a single uniform: the
    one-draw form of :func:`blocks_for`."""
    return int(blocks_for(dist, rng.next_double()))


def blocks_for(dist: ActivationDistribution, u) -> np.ndarray:
    """Block indices for uniforms ``u`` in ``[0, 1)`` (any shape), equal to
    ``min(searchsorted(cum_probs, u, "right"), m - 1)``. ``u`` falls in
    bucket ``b = min(floor(u m), m)``, as each entry of ``cum_probs``
    does; buckets are monotone, so ``u``'s block is ``buckets[b]`` (the
    entries in earlier buckets) plus the entries of bucket ``b`` at most
    ``u``, which every draw bisects at once in ``len(steps)`` rounds,
    ``ceil(log2(largest bucket + 1))``."""
    m = dist.block_probs.size
    idx = dist.buckets.take(np.multiply(u, m).astype(np.intp), mode="clip")
    for step in dist.steps:
        # a probe past the end reads cum_probs[-1] = 1, above every u < 1
        go = dist.cum_probs[step - 1:].take(idx, mode="clip") <= u
        idx += go * step if step > 1 else go
    return np.minimum(idx, m - 1)
