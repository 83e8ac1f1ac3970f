"""The plain reference the run loop is checked against, bit for bit.

``reference_run`` is ``T`` chained :func:`asyncadmm.step` calls (each
works on a copy of the state), recorded through the engine's recorder.
It keeps its own lazy ergodic sums over the coordinates each block
moves, taken from the partition (``component_map[b]`` and
``blocks[b]``): a coordinate's sum gains its value times the iterations
it held it just before it moves and at each flush. That is the order of
additions the engine uses, so the means agree bit for bit, not only to
rounding. The shadow and freeze checks are counted here from the step
records, independently of the engine's tally.
"""

import numpy as np

from asyncadmm import PrimalDualState, ProbeFlags, RngStream, initial_state
from asyncadmm import objective, step
from asyncadmm.engine import (SHADOW_TOL, _apply_block, _block_table,
                              _guard_message, _ops, _Recorder)
from asyncadmm.errors import DivergenceError, MissingReference


ARRAY_FIELDS = ("iters", "objective", "objective_error", "feasibility",
                "ergodic_objective_error", "ergodic_feasibility", "lyapunov",
                "active_block", "x_bar", "z_bar")


def assert_bits_equal(got, want, name):
    """Equal values, and equal signs of zero (which == does not see)."""
    np.testing.assert_array_equal(got, want, err_msg=name)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want),
                                  err_msg=name)


def assert_same_run(got, want):
    assert got.seed == want.seed
    for name in ARRAY_FIELDS:
        assert_bits_equal(getattr(got, name), getattr(want, name), name)
    for name in ("x", "z", "p"):
        assert_bits_equal(getattr(got.final_state, name),
                          getattr(want.final_state, name), name)
    assert got.final_state.k == want.final_state.k
    assert got.x_max_abs == want.x_max_abs
    assert got.z_max_abs == want.z_max_abs
    assert got.p_max_abs == want.p_max_abs
    assert got.counters == want.counters


def fire_block(prob, part, st, b):
    """The kernel's step of block ``b`` from ``st``, on a copy, as
    :func:`asyncadmm.step` applies it to the block it samples."""
    after = PrimalDualState(x=st.x.copy(), z=st.z.copy(), p=st.p.copy(),
                            k=st.k + 1)
    _apply_block(_ops(prob), _block_table(prob, part).block(b), after.x,
                 after.z, after.p)
    return after


def moved_groups(prob, part, b):
    """Indices into ``[x, z, p]`` of block ``b``'s moved coordinates: one
    group per component's x, then the z rows, then the p rows."""
    n, dim_x, W = prob.constraints.n, prob.dim_x, prob.dim_z
    rows = np.asarray(part.blocks[b], dtype=np.intp)
    return ([np.arange(i * n, (i + 1) * n) for i in part.component_map[b]]
            + [dim_x + rows, dim_x + W + rows])


def stacked(st):
    return np.concatenate([st.x, st.z, st.p])


def reference_run(prob, part, dist, seed, T, probes=None, ref=None, x0=None,
                  z0=None, stride=1):
    """The metrics ``run(prob, part, dist, seed, T, ...)`` must equal."""
    probes = probes or ProbeFlags()
    if probes.lyapunov and (ref is None or ref.p is None):
        raise MissingReference("lyapunov probe requires a dual reference")
    st = initial_state(prob, x0, z0)
    x_max, z_max, p_max = (float(np.max(np.abs(v), initial=0.0))
                           for v in (st.x, st.z, st.p))
    dim_x, W = prob.dim_x, prob.dim_z
    acc = np.zeros(dim_x + 2 * W)
    since = np.ones_like(acc)
    f_star = objective(prob, ref.x) if ref is not None else np.nan
    rec = _Recorder(prob, dist, probes, ref, f_star, T, stride)
    counters = {"steps": T, "shadow_checks": 0, "shadow_failures": 0,
                "freeze_checks": 0, "freeze_failures": 0}
    groups = [moved_groups(prob, part, b) for b in range(len(part.blocks))]
    rng = RngStream(seed)
    for k in range(1, T + 1):
        out = step(prob, st, part, dist, rng, with_shadow=probes.shadow)
        b = out.block
        before, after = stacked(out.before), stacked(out.after)
        idx = np.concatenate(groups[b])
        acc[idx] += (k - since[idx]) * before[idx]
        since[idx] = k
        if probes.shadow:
            sh = out.shadow
            target = np.concatenate([sh.y, sh.v, sh.mu])
            counters["shadow_checks"] += 1
            if any(np.max(np.abs(after[g] - target[g])) > SHADOW_TOL
                   for g in groups[b]):
                counters["shadow_failures"] += 1
            frozen = np.ones(after.size, dtype=bool)
            frozen[idx] = False
            counters["freeze_checks"] += 1
            if np.any(after[frozen] != before[frozen]):
                counters["freeze_failures"] += 1
        *xg, zg, pg = groups[b]
        hot = np.array([np.max(np.abs(after[np.concatenate(xg)])),
                        np.max(np.abs(after[zg])), np.max(np.abs(after[pg]))])
        failure = _guard_message(hot, k, seed, b)
        if failure is not None:
            raise DivergenceError(failure)
        x_hot, z_hot, p_hot = hot.tolist()
        x_max, z_max, p_max = (x_hot if x_hot > x_max else x_max,
                               z_hot if z_hot > z_max else z_max,
                               p_hot if p_hot > p_max else p_max)
        st = out.after
        if k % stride and k != T:
            continue
        if probes.ergodic or k == T:
            acc += (k + 1 - since) * after
            since.fill(k + 1)
        if probes.ergodic:
            rec.add(k, b, st.x, st.z, st.p, acc[:dim_x] / k,
                    acc[dim_x:dim_x + W] / k)
        else:
            rec.add(k, b, st.x, st.z, st.p)
    return rec.metrics(seed, T, st.x, st.z, st.p, acc[:dim_x],
                       acc[dim_x:dim_x + W], counters, (x_max, z_max, p_max))
