"""The plain references the run loop and the set-up are checked against,
bit for bit.

``reference_run`` is ``T`` chained block updates (``fire_block``, each
on a copy of the state, of the block :func:`asyncadmm.sample_block`
draws), recorded one point at a time by
``PlainRecorder``: the 1-D arithmetic the engine's stacked recorder must
match bit for bit (the objective by kind through ``np.dot`` and
``.sum()``, ``np.linalg.norm`` of the residual, the ``np.dot`` Lyapunov
value), kept here rather than read from the engine. It keeps its own
lazy ergodic sums over the coordinates each block moves, taken from the
partition (``component_map[b]`` and ``blocks[b]``): a coordinate's sum
gains its value times the iterations it held it just before it moves and
at each flush. That is the order of additions the engine uses, so the
means agree bit for bit, not only to rounding. The shadow pass
(``plain_shadow``: one ``solve_component`` call per component and the
1-D z fit) and the shadow and freeze checks (``plain_tally``: one seed,
one group at a time) are computed here, independently of the engine's
stacked pass and tally. ``fire_block`` is the block update one
component and one z fit at a time, with its own copy of the arithmetic
the engine's lane kernel must match, and ``reference_drift`` the
Lyapunov drift as one such update per block.

The ``reference_*`` set-up functions are the per-row and per-block
loops that built graphs, constraint systems, z pairs, partitions and
activation probabilities before those became array passes.
``reference_rate_constants`` is the rate constants one direction at a
time (``reference_q``: one component's coefficients by ``np.add.at``,
its grid maximum, then the z part one pair at a time), the loop that
``compute_rate_constants``' direction stack must match bit for bit.
"""

import numpy as np

from asyncadmm import (PrimalDualState, ProbeFlags, Quadratic, RngStream,
                       RunMetrics, initial_state, sample_block)
from asyncadmm.diagnostics import (RateConstants, WeightedNorm, _component_grids,
                                   weighted_norm_sq)
from asyncadmm.engine import SHADOW_TOL, _guard_message, _ops
from asyncadmm.problem import term_groups
from asyncadmm.prox import solve_z_prepared
from asyncadmm.terms import term_value
from asyncadmm.errors import (DivergenceError, ImproperPartition,
                              InvalidProblem, MissingReference,
                              NonCompactSets, NonCoveringPartition)
from asyncadmm.terms import SumZeroPairs


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


def plain_objective(prob, x):
    """The objective of one point by kind, one 1-D sum per kind."""
    g = term_groups(prob)
    n = g.n
    total = 0.0
    if g.quad_idx.size:
        d = x[g.quad_idx] - g.quad_center
        total += float(np.dot(g.quad_weight * d, d))
    if g.abs_idx.size:
        total += float(np.abs(x[g.abs_idx] - g.abs_center).sum())
    if g.l1_idx.size:
        total += float(np.dot(g.l1_gamma, np.abs(x[g.l1_idx])))
    for i, t in g.other:
        total += term_value(t, x[i * n:(i + 1) * n])
    return total


def plain_feasibility(prob, x, z):
    """``‖D x + H z‖`` of one point."""
    cs = prob.constraints
    return float(np.linalg.norm(cs.row_coeff * x[cs.col_index]
                                + cs.h_diag * z))


def plain_lyapunov(prob, dist, ref, z, p):
    """The Lyapunov value of one point against the reference ``ref``."""
    wd = dist.weight_diag
    dp = p - ref.p
    hz = prob.constraints.h_diag * (z - ref.z)
    return (1.0 / (2.0 * prob.beta) * float(np.dot(dp * wd, dp))
            + 0.5 * prob.beta * float(np.dot(hz * wd, hz)))


class PlainRecorder:
    """One seed's records, one point at a time (``RunMetrics`` order)."""

    def __init__(self, prob, dist, probes, ref):
        self.prob, self.dist, self.probes, self.ref = prob, dist, probes, ref
        self.f_star = (plain_objective(prob, ref.x) if ref is not None
                       else np.nan)
        self.rows, self.iters, self.blocks = [], [], []

    def add(self, k, b, x, z, p, xb=None, zb=None):
        prob, f_star = self.prob, self.f_star
        obj = plain_objective(prob, x)
        row = [obj, abs(obj - f_star), plain_feasibility(prob, x, z),
               np.nan, np.nan, np.nan]
        if self.probes.ergodic:
            row[3] = abs(plain_objective(prob, xb) - f_star)
            row[4] = plain_feasibility(prob, xb, zb)
        if self.probes.lyapunov:
            row[5] = plain_lyapunov(prob, self.dist, self.ref, z, p)
        self.rows.append(row)
        self.iters.append(k)
        self.blocks.append(b)

    def metrics(self, seed, T, st, x_sum, z_sum, counters, maxima):
        obj, objerr, feas, eobj, efeas, lyap = np.array(self.rows).T
        x_max, z_max, p_max = maxima
        return RunMetrics(
            seed=seed, iters=np.array(self.iters, dtype=np.intp),
            objective=obj, objective_error=objerr, feasibility=feas,
            ergodic_objective_error=eobj, ergodic_feasibility=efeas,
            lyapunov=lyap, active_block=np.array(self.blocks, dtype=np.intp),
            final_state=PrimalDualState(x=st.x.copy(), z=st.z.copy(),
                                        p=st.p.copy(), k=T),
            x_bar=x_sum / T, z_bar=z_sum / T, counters=counters,
            x_max_abs=x_max, z_max_abs=z_max, p_max_abs=p_max)


def fire_block(prob, part, st, b):
    """Block ``b``'s update from ``st``, on a copy: each of its components
    solved in turn against the current p and z, then the z fit of its rows
    (with their z pairs, in z-set order) against the new x, then the dual
    step of its rows."""
    ops = _ops(prob)
    n, beta = ops.n, ops.beta
    x, z, p = st.x.copy(), st.z.copy(), st.p.copy()
    for i in part.component_map[b].tolist():
        x[i * n:(i + 1) * n] = ops.solve_component(i, p, z)
    rows = np.asarray(part.blocks[b], dtype=np.intp)
    local = {r: a for a, r in enumerate(rows.tolist())}
    pairs = np.array([(local[i], local[j]) for i, j in zip(
        ops.pair_i.tolist(), ops.pair_j.tolist()) if i in local],
        dtype=np.intp).reshape(-1, 2)
    w, coeff, col = ops.h[rows], ops.coeff[rows], ops.col[rows]
    t = p[rows] / beta - coeff * x[col]
    z_rows = solve_z_prepared(w, t, pairs[:, 0], pairs[:, 1])
    z[rows] = z_rows
    p[rows] -= beta * (coeff * x[col] + w * z_rows)
    return PrimalDualState(x=x, z=z, p=p, k=st.k + 1)


def reference_drift(prob, st, part, dist, ref, wn):
    """The Lyapunov drift from ``st``: every block's update on its own
    copy, one at a time, its 1-D Lyapunov value (``plain_lyapunov``)
    weighted by the block's probability."""
    v_now = plain_lyapunov(prob, dist, ref, st.z, st.p)
    expected = 0.0
    for b, prob_b in enumerate(dist.block_probs):
        after = fire_block(prob, part, st, b)
        expected += float(prob_b) * plain_lyapunov(prob, dist, ref, after.z,
                                                   after.p)
    return expected - v_now


def moved_groups(prob, part, b):
    """Indices into ``[x, z, p]`` of block ``b``'s moved coordinates: one
    group per component's x, then the z rows, then the p rows."""
    n, dim_x, W = prob.constraints.n, prob.dim_x, prob.dim_z
    rows = np.asarray(part.blocks[b], dtype=np.intp)
    return ([np.arange(i * n, (i + 1) * n) for i in part.component_map[b]]
            + [dim_x + rows, dim_x + W + rows])


def stacked(st):
    return np.concatenate([st.x, st.z, st.p])


def per_component(ops, p, z):
    """Every x component solved on its own, in component order."""
    n = ops.n
    x = np.empty(ops.N * n)
    for i in range(ops.N):
        x[i * n:(i + 1) * n] = ops.solve_component(i, p, z)
    return x


def plain_shadow(prob, st):
    """The full-information iterates ``(y, v, mu, r)`` from one state."""
    ops = _ops(prob)
    y = per_component(ops, st.p, st.z)
    t = st.p / ops.beta - ops.coeff * y[ops.col]
    v = solve_z_prepared(ops.h, t, ops.pair_i, ops.pair_j)
    r = ops.coeff * y[ops.col] + ops.h * v
    return y, v, st.p - ops.beta * r, r


def plain_tally(groups, before, after, shadow, counters):
    """One seed's shadow and freeze checks of one step.

    ``before`` and ``after`` are the stacked ``[x, z, p]`` states around
    the step, ``shadow`` the ``(y, v, mu, ...)`` pass from ``before`` and
    ``groups`` the fired block's :func:`moved_groups`.
    """
    target = np.concatenate(shadow[:3])
    counters["shadow_checks"] += 1
    if any(np.max(np.abs(after[g] - target[g])) > SHADOW_TOL for g in groups):
        counters["shadow_failures"] += 1
    frozen = np.ones(after.size, dtype=bool)
    frozen[np.concatenate(groups)] = False
    counters["freeze_checks"] += 1
    if np.any(after[frozen] != before[frozen]):
        counters["freeze_failures"] += 1


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
    rec = PlainRecorder(prob, dist, probes, ref)
    counters = {"steps": T, "shadow_checks": 0, "shadow_failures": 0,
                "freeze_checks": 0, "freeze_failures": 0}
    groups = [moved_groups(prob, part, b) for b in range(len(part.blocks))]
    rng = RngStream(seed)
    for k in range(1, T + 1):
        b = sample_block(dist, rng)
        nxt = fire_block(prob, part, st, b)
        before, after = stacked(st), stacked(nxt)
        idx = np.concatenate(groups[b])
        acc[idx] += (k - since[idx]) * before[idx]
        since[idx] = k
        if probes.shadow:
            plain_tally(groups[b], before, after, plain_shadow(prob, st),
                        counters)
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
        st = nxt
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
    return rec.metrics(seed, T, st, acc[:dim_x], acc[dim_x:dim_x + W],
                       counters, (x_max, z_max, p_max))


# ---------------------------------------------------------------------------
# Set-up reference: the per-row construction the array passes replace
# ---------------------------------------------------------------------------
#
# Each function below is the plain loop the set-up code used to run, kept
# as the oracle for the array passes: the same normalised data, the same
# arrays, and the same exception class and message for the first
# offending edge, entry, pair or block. ``reference_partition`` also
# refuses a row listed twice in one block, which the loop used to accept.


def reference_graph_edges(num_nodes, edges):
    """``Graph.edges`` after normalisation, or the error it raises."""
    if num_nodes < 1:
        raise InvalidProblem("graph needs at least one node")
    norm = []
    seen = set()
    for i, j in edges:
        i, j = int(i), int(j)
        if i == j:
            raise InvalidProblem(f"self-loop at node {i}")
        if not (0 <= i < num_nodes and 0 <= j < num_nodes):
            raise InvalidProblem(f"edge ({i},{j}) out of range")
        e = (min(i, j), max(i, j))
        if e in seen:
            raise InvalidProblem(f"duplicate edge {e}")
        seen.add(e)
        norm.append(e)
    return tuple(norm)


def reference_is_connected(num_nodes, edges):
    if num_nodes == 1:
        return True
    adj = [[] for _ in range(num_nodes)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == num_nodes


def reference_reformulation(edges, n, flip_edges=()):
    """Entries, pairs, signs and blocks of the edge reformulation."""
    m = len(edges)
    flip = set(int(e) for e in flip_edges)
    entries = []
    pairs = []
    signs = np.empty((m, 2))
    for e, (i, j) in enumerate(edges):
        s = -1.0 if e in flip else 1.0
        signs[e] = (s, -s)
        for t in range(n):
            row_i = (2 * e) * n + t
            row_j = (2 * e + 1) * n + t
            entries.append((row_i, i, t, s))
            entries.append((row_j, j, t, -s))
            pairs.append((row_i, row_j))
    blocks = [np.arange(2 * e * n, 2 * (e + 1) * n, dtype=np.intp)
              for e in range(m)]
    return tuple(entries), tuple(pairs), signs, blocks


def reference_violations(n, N, W, entries, h_diag):
    violations = []
    per_row = {}
    for row, block, coord, coeff in entries:
        per_row.setdefault(row, []).append((block, coord, coeff))
    for row in range(W):
        hits = per_row.get(row, [])
        if not hits:
            violations.append(f"row {row} of D has no entry")
        elif len(hits) > 1:
            blocks = sorted({b for b, _, _ in hits})
            if len(blocks) > 1:
                violations.append(f"row {row} couples two components {blocks}")
            else:
                violations.append(f"row {row} has {len(hits)} entries")
        elif hits[0][2] == 0.0:
            violations.append(f"row {row} has zero coefficient")
    covered = {b for _, b, _, c in entries if c != 0.0}
    for b in range(N):
        if b not in covered:
            violations.append(f"component {b} has zero column-block in D")
    for l in range(W):
        if h_diag[l] == 0.0:
            violations.append(f"H not invertible: zero diagonal at row {l}")
    return tuple(violations)


def reference_constraints(n, N, W, entries, h_diag):
    """A constraint system's normalised entries, H, violations and per-row
    arrays (``None`` when it breaks the row contract)."""
    if min(n, N, W) < 1:
        raise InvalidProblem("dimensions n, N, W must be positive")
    norm = []
    for entry in entries:
        if len(entry) == 3:
            row, block, coeff = entry
            coord = 0
        elif len(entry) == 4:
            row, block, coord, coeff = entry
        else:
            raise InvalidProblem(f"bad D entry {entry!r}")
        row, block, coord = int(row), int(block), int(coord)
        if not 0 <= row < W:
            raise InvalidProblem(f"row index {row} out of range [0,{W})")
        if not 0 <= block < N:
            raise InvalidProblem(f"block index {block} out of range [0,{N})")
        if not 0 <= coord < n:
            raise InvalidProblem(f"coord index {coord} out of range [0,{n})")
        norm.append((row, block, coord, float(coeff)))
    entries = tuple(norm)
    h_diag = np.asarray(h_diag, dtype=float)
    if h_diag.shape != (W,):
        raise InvalidProblem(f"H diagonal must have length {W}")
    out = {"entries": entries, "h_diag": h_diag,
           "violations": reference_violations(n, N, W, entries, h_diag),
           "row_block": None, "row_coord": None, "row_coeff": None,
           "col_index": None}
    if out["violations"]:
        return out
    row_block = np.empty(W, dtype=np.intp)
    row_coord = np.empty(W, dtype=np.intp)
    row_coeff = np.empty(W, dtype=float)
    for row, block, coord, coeff in entries:
        row_block[row] = block
        row_coord[row] = coord
        row_coeff[row] = coeff
    out.update(row_block=row_block, row_coord=row_coord, row_coeff=row_coeff,
               col_index=row_block * n + row_coord)
    return out


def reference_pairs(dim, pairs):
    """``SumZeroPairs.pairs`` after normalisation, or the error it raises."""
    pairs = tuple((int(i), int(j)) for i, j in pairs)
    seen = set()
    for i, j in pairs:
        if i == j:
            raise InvalidProblem(f"pair ({i},{j}) repeats an index")
        for k in (i, j):
            if not 0 <= k < dim:
                raise InvalidProblem(f"pair index {k} out of range [0,{dim})")
            if k in seen:
                raise InvalidProblem(f"index {k} appears in two pairs")
            seen.add(k)
    return pairs


def reference_partition(pairs, W, row_block, blocks):
    """Sorted blocks and component map of a partition, or its error."""
    norm_blocks = []
    owner = np.full(W, -1, dtype=np.intp)
    for b, rows in enumerate(blocks):
        rows = np.asarray(sorted(int(r) for r in rows), dtype=np.intp)
        if rows.size == 0:
            raise NonCoveringPartition(f"block {b} is empty")
        if rows[0] < 0 or rows[-1] >= W:
            raise NonCoveringPartition(f"block {b} has out-of-range rows")
        if np.any(owner[rows] >= 0):
            dup = int(rows[owner[rows] >= 0][0])
            raise NonCoveringPartition(f"row {dup} appears in two blocks")
        if np.any(rows[1:] == rows[:-1]):
            dup = int(rows[1:][rows[1:] == rows[:-1]][0])
            raise NonCoveringPartition(f"row {dup} appears twice in block {b}")
        owner[rows] = b
        norm_blocks.append(rows)
    if np.any(owner < 0):
        missing = int(np.flatnonzero(owner < 0)[0])
        raise NonCoveringPartition(f"row {missing} not covered by any block")
    for i, j in pairs:
        if owner[i] != owner[j]:
            raise ImproperPartition(
                f"rows {i} and {j} are coupled by the z set but split "
                f"across blocks {int(owner[i])} and {int(owner[j])}")
    component_map = tuple(np.unique(row_block[rows]) for rows in norm_blocks)
    return tuple(norm_blocks), component_map


def reference_probabilities(blocks, component_map, W, N, probs):
    """Per-row and per-component activation probabilities."""
    lam = np.empty(W)
    for b, rows in enumerate(blocks):
        lam[rows] = probs[b]
    alpha = np.zeros(N)
    for b, comps in enumerate(component_map):
        alpha[comps] += probs[b]
    return lam, alpha, 1.0 / lam


def reference_consensus(terms):
    """The closed-form consensus optimum as a plain sum and ``np.median``."""
    if all(isinstance(t, Quadratic) for t in terms):
        wsum = sum(t.weight for t in terms)
        return sum(t.weight * t.center for t in terms) / wsum
    centers = np.stack([t.center for t in terms])
    return np.median(centers, axis=0)


def reference_q(prob, dist, mu, grids, z_bound):
    """Q at one multiplier: each component's grid maximum, one component at
    a time, then the z part one pair at a time."""
    total = 0.0
    for i, (_, pts, values) in enumerate(grids):
        c = reference_coefficients(prob, mu, i)
        vals = c[0] * pts - values if pts.ndim == 1 else pts @ c - values
        total += float(np.max(vals)) / dist.alpha[i]
    total += reference_z_part(prob, dist, mu, z_bound)
    return total


def reference_coefficients(prob, mu, i):
    """Linear coefficient of x_i in mu' D x: sums mu over the rows of i."""
    cs = prob.constraints
    rows = cs.rows_of_component(i)
    c = np.zeros(cs.n)
    np.add.at(c, cs.row_coord[rows], mu[rows] * cs.row_coeff[rows])
    return c


def reference_grid_gap(prob, dist, mu, grids):
    """The grid-gap estimate with one component's coefficients at a time."""
    gap = 0.0
    cs = prob.constraints
    for i, (axes, _, values) in enumerate(grids):
        box = prob.x_sets[i]
        c = reference_coefficients(prob, mu, i)
        for t, u in enumerate(axes):
            if u[1] == u[0]:
                continue
            if cs.n == 1:
                vals = c[t] * u - values
            else:
                point = np.array([0.5 * (box.lower[s] + box.upper[s])
                                  for s in range(cs.n)])
                vals = []
                for ut in u:
                    point[t] = ut
                    vals.append(c[t] * ut - term_value(prob.terms[i], point))
                vals = np.asarray(vals)
            h = u[1] - u[0]
            lip = float(np.max(np.abs(np.diff(vals)))) / h
            gap += 0.5 * lip * h / dist.alpha[i]
    return gap


def reference_z_part(prob, dist, mu, z_bound):
    """The z part of Q, one pair at a time, then the unpaired rows."""
    cs = prob.constraints
    d = dist.weight_diag * mu * cs.h_diag
    zs = prob.z_set
    if z_bound is None:
        raise NonCompactSets(
            "z set is unbounded; provide z_bound to compactify the maximization")
    b = float(z_bound)
    if b < 0:
        raise InvalidProblem("z_bound must be nonnegative")
    total = 0.0
    paired = np.zeros(cs.W, dtype=bool)
    if isinstance(zs, SumZeroPairs):
        for i, j in zs.pairs:
            total += abs(d[i] - d[j]) * b
            paired[i] = paired[j] = True
    total += float(np.sum(np.abs(d[~paired])) * b)
    return total


def reference_rate_constants(prob, dist, ref, state0, grid_resolution=1001,
                             z_bound=None, num_directions=64,
                             direction_seed=0, extra_directions=(),
                             point_budget=2_000_000):
    """The rate constants one direction at a time: Q at each multiplier by
    ``reference_q``, the running maxima of Q and of the theta norm kept by
    ``if v > best``, and the weighted Lagrangian at the start summed here."""
    if ref.p is None:
        raise MissingReference("rate constants need a dual reference p*")
    cs = prob.constraints
    w = dist.weight_diag
    beta = prob.beta
    p0, z0, x0 = state0.p, state0.z, state0.x

    rng = RngStream(direction_seed)
    dirs = [np.zeros(cs.W)]
    for _ in range(num_directions):
        u = rng.normals(cs.W)
        norm = float(np.linalg.norm(u))
        if norm > 0:
            dirs.append(u / norm)
    for l in range(cs.W):
        e = np.zeros(cs.W)
        e[l] = 1.0
        dirs.append(e)
        dirs.append(-e)
    for u in extra_directions:
        u = np.asarray(u, dtype=float)
        norm = float(np.linalg.norm(u))
        if norm > 1.0:
            u = u / norm
        dirs.append(u)

    grids = _component_grids(prob, grid_resolution, point_budget)
    q_at_pstar = reference_q(prob, dist, ref.p, grids, z_bound)
    q_bar = q_at_pstar
    best_theta_val = -np.inf
    theta_bar = ref.p.copy()
    for u in dirs:
        mu = ref.p - u
        q_bar = max(q_bar, reference_q(prob, dist, mu, grids, z_bound))
        val = float(np.dot((p0 - mu) * w, p0 - mu))
        if val > best_theta_val:
            best_theta_val = val
            theta_bar = mu

    alpha_row = dist.alpha[cs.row_block]
    coupled0 = (cs.row_coeff * x0[cs.col_index] / alpha_row
                + cs.h_diag * z0 * w)
    s0 = sum(term_value(t, prob.component(x0, i)) / dist.alpha[i]
             for i, t in enumerate(prob.terms))
    l0_tilde = (s0 - float(np.dot(ref.p, coupled0))
                + float(np.linalg.norm(coupled0)))

    wn = WeightedNorm(w)
    norm_term_theta = weighted_norm_sq(p0 - theta_bar, wn) / (2.0 * beta)
    norm_term_z = 0.5 * beta * weighted_norm_sq(cs.h_diag * (z0 - ref.z), wn)
    gap = reference_grid_gap(prob, dist, ref.p, grids)
    return RateConstants(q_at_pstar=q_at_pstar, q_bar=q_bar,
                         theta_bar=theta_bar, l0_tilde=l0_tilde,
                         norm_term_theta=norm_term_theta,
                         norm_term_z=norm_term_z, grid_gap=gap,
                         z_bound=z_bound, num_directions=len(dirs))
