"""The row layout the block kernel reads and writes.

A seed's row is three segments of equal length: its state, then for each
state slot the iteration its lazy ergodic sum has reached (``since``),
then that sum (``acc``). After one call of the block kernel
(``compiled._fire_lanes``, or its binding ``compiled._Lanes``) with an
iteration ``k``, every slot of every row that no lane moves keeps its
bits, in all three segments; every moved slot has ``since == k`` (its
lane's ``k``) and ``acc == old acc + (k - old since) * old value``, signs
of zero included. Without ``k`` the ``since`` and ``acc`` segments keep
their bits. A call that raises writes nothing.

The moved slots come from the partition (a block moves its components'
x and its rows' z and p), not from the kernel's tables, so a table whose
``since`` or ``acc`` columns point at other slots fails here. The dummy
slots that padding lanes move must keep a zero state. Calls are made as
their callers make them: in lockstep (through the binding, one lane per
seed, lane ``l`` on row ``l``, a chunk of iterations at a time, as in
``run_batch``), by
dependency level (one seed's draws that share no component, each at its
own iteration, on one row), without sums (as ``step`` calls it), and
every block at once on one row without sums (as ``lyapunov_drift`` calls
it, lanes that share components), on tables as the row counts lay
them out and, with ``_BATCH_LANE_LIMIT`` patched low, on tables that hold
each lane's first row and leave the rest to its tail.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from asyncadmm import compiled, engine
from asyncadmm.errors import AsyncAdmmError

from reference import assert_bits_equal, levels_of
from test_fullpass import KINDS, random_problem, random_vector
from test_shadow_stack import random_partition

MODES = ("lockstep", "level", "no-sums", "every-block")


def layout_slots(bt, prob, part):
    """Each block's moved state slots (from the partition), and the dummy
    state slots, of a row in the table's layout."""
    n, N = prob.constraints.n, prob.num_components
    xs, zs, ps = bt.views(np.arange(bt.width))
    xs = xs.reshape(N, n)
    moved = [np.concatenate([xs[comps].reshape(-1), zs[rows], ps[rows]])
             for comps, rows in zip(np.split(part.comps, part.comp_ptr[1:-1]),
                                    np.split(part.rows, part.row_ptr[1:-1]))]
    live = np.concatenate([xs.reshape(-1), zs, ps])
    return moved, np.setdiff1d(np.arange(bt.width // 3), live), live


def random_rows(rng, bt, live, S, k_max):
    """Random states (zero dummy slots), ``since`` in ``1..k_max`` and
    ``acc`` with signed zeros."""
    seg = bt.width // 3
    rows = np.zeros((S, bt.width))
    rows[:, live] = random_vector(rng, (S, live.size))
    rows[:, seg:2 * seg] = rng.integers(1, k_max + 1, size=(S, seg))
    rows[:, 2 * seg:] = random_vector(rng, (S, seg))
    return rows


def check_call(bt, before, after, lanes, dummy):
    """``lanes`` holds ``(row, moved slots, k)`` per lane; ``k`` None
    means a call without sums."""
    seg = bt.width // 3
    want = before.copy()
    free = np.ones(before.shape, dtype=bool)
    free[:, dummy] = free[:, seg + dummy] = free[:, 2 * seg + dummy] = False
    for row, slots, k in lanes:
        free[row, slots] = False
        if k is not None:
            old = before[row]
            want[row, seg + slots] = k
            want[row, 2 * seg + slots] = (old[2 * seg + slots]
                                          + (k - old[seg + slots])
                                          * old[slots])
    moved_sums = ~free
    moved_sums[:, :seg] = False
    moved_sums[:, seg + dummy] = moved_sums[:, 2 * seg + dummy] = False
    assert_bits_equal(after[free], want[free], "slots no lane moves")
    assert_bits_equal(after[moved_sums], want[moved_sums], "since and acc")
    assert np.all(after[:, dummy] == 0.0), "dummy state slots"


def fire(call, before, after):
    """One kernel call, ``call()``; False when a solve raised (and then it
    wrote nothing)."""
    try:
        call()
    except AsyncAdmmError:
        assert_bits_equal(after, before, "a call that raised")
        return False
    return True


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data_seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([1, 2]),
       N=st.integers(2, 6), hub_rows=st.sampled_from([0, 9]),
       uncoupled=st.booleans(), z_pairs=st.booleans(),
       kinds=st.lists(st.sampled_from(KINDS), min_size=6, max_size=6),
       mode=st.sampled_from(MODES), low_limit=st.booleans(),
       S=st.sampled_from([1, 2, 5]))
def test_kernel_writes_only_its_slots(data_seed, n, N, hub_rows, uncoupled,
                                      z_pairs, kinds, mode, low_limit, S):
    rng = np.random.default_rng(data_seed)
    if n > 1:
        kinds = [k if k != "custom" else "absdev" for k in kinds]
    prob = random_problem(rng, n, N, kinds, hub_rows, uncoupled and n > 1,
                          z_pairs)
    part = random_partition(rng, prob)
    with pytest.MonkeyPatch.context() as patch:
        if low_limit:
            patch.setattr(compiled, "_BATCH_LANE_LIMIT", 1)
        bt = compiled._block_table(prob, part)
    # the table holds each lane's first K rows, its tail the rest
    count, _, x = bt.tails
    rows = np.append(engine._ops(prob).counts, np.zeros(n, int))[x]
    assert np.array_equal(count, np.maximum(rows - bt.K, 0))
    assert bt.K == 1 or not low_limit
    assert bt.width % 3 == 0
    moved, dummy, live = layout_slots(bt, prob, part)
    assert live.max() < bt.width // 3
    m, k0 = part.num_blocks, int(rng.integers(1, 50))

    if mode == "level":
        # one seed's draws, one call per dependency level
        rows = random_rows(rng, bt, live, 1, k0)
        flat = rows.reshape(-1)
        draws = rng.integers(0, m, size=int(rng.integers(1, 12)))
        for level in levels_of(engine._levels(part, draws)):
            before = rows.copy()
            ks = k0 + 1 + level
            if not fire(lambda: compiled._fire_lanes(bt, flat, draws[level],
                                                   ks), before, rows):
                return
            check_call(bt, before, rows,
                       [(0, moved[draws[d]], k)
                        for d, k in zip(level.tolist(), ks.tolist())], dummy)
        return

    if mode == "every-block":
        # every block from one state, as the lanes of one call on one row
        rows = random_rows(rng, bt, live, 1, k0)
        before = rows.copy()
        if fire(lambda: compiled._fire_lanes(bt, rows.reshape(-1),
                                           np.arange(m)), before, rows):
            check_call(bt, before, rows, [(0, slots, None) for slots in moved],
                       dummy)
        return

    # lockstep: a chunk of iterations, one lane per seed on its own row
    rows = random_rows(rng, bt, live, S, k0)
    flat = rows.reshape(-1)
    blocks = rng.integers(0, m, size=(3, S))
    kernel = compiled._Lanes(bt, flat, S, np.zeros((bt.M, S)),
                             mode != "no-sums")
    for j in range(len(blocks)):
        before = rows.copy()
        k = None if mode == "no-sums" else k0 + j
        if not fire(lambda: kernel.fire(blocks[j], k), before, rows):
            return
        check_call(bt, before, rows,
                   [(s, moved[b], k) for s, b in enumerate(blocks[j])],
                   dummy)


def test_layout_starts_empty_sums():
    """A laid-out row holds the state, ``since`` 1 and ``acc`` 0."""
    rng = np.random.default_rng(5)
    prob = random_problem(rng, 2, 4, ["quadratic", "absdev"] * 2)
    part = random_partition(rng, prob)
    bt = compiled._block_table(prob, part)
    x, z, p = (random_vector(rng, size)
               for size in (prob.dim_x, prob.dim_z, prob.dim_z))
    row = bt.layout(x, z, p)
    seg = bt.width // 3
    for got, want in zip(bt.views(row), (x, z, p)):
        assert_bits_equal(got, want, "state")
    assert np.all(row[seg:2 * seg] == 1.0)
    assert np.all(row[2 * seg:] == 0.0) and not np.signbit(row[2 * seg:]).any()
