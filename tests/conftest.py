import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from asyncadmm import ConstraintSystem, Free, Quadratic, SeparableProblem


@pytest.fixture
def two_row_problem():
    """N=2 scalar components, D = I, H = -I, quadratic terms (x_i - 1)^2."""
    cs = ConstraintSystem(n=1, N=2, W=2,
                          entries=((0, 0, 1.0), (1, 1, 1.0)),
                          h_diag=np.array([-1.0, -1.0]))
    terms = (Quadratic(np.array([1.0])), Quadratic(np.array([1.0])))
    x_sets = (Free(1), Free(1))
    return SeparableProblem(terms=terms, x_sets=x_sets, z_set=Free(2),
                            constraints=cs, beta=1.0)


def random_state_for(prob, rng, scale=3.0):
    """Feasible random state (x projected into X, z into Z)."""
    from asyncadmm import PrimalDualState
    n = prob.constraints.n
    x = np.concatenate([
        prob.x_sets[i].project(rng.normal(size=n) * scale)
        for i in range(prob.num_components)])
    z = prob.z_set.project(rng.normal(size=prob.dim_z) * scale)
    p = rng.normal(size=prob.dim_z) * scale
    return PrimalDualState(x=x, z=z, p=p, k=0)


def kernel_block(prob, part, st, b):
    """The engine's update of block ``b`` from ``st``, on a row laid out
    from it, as ``step`` fires the block it draws."""
    from asyncadmm import PrimalDualState
    from asyncadmm.compiled import _fire_blocks
    x, z, p = _fire_blocks(prob, part, st, np.array([b]))
    return PrimalDualState(x=x, z=z, p=p, k=st.k + 1)
