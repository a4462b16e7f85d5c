"""The partner potentials and the shape-invariance residual as the package
computed them before the four hyperbolic arrays were shared across calls:
each call evaluates W and W' itself.  The memoized route must match these
bit for bit."""

import numpy as np

from susywell.params import ladder, shift_constant
from susywell.potential import SINGULAR_CUTOFF, superpotential, superpotential_derivative


def partner(x, rung, p, plus):
    arr = np.asarray(x, dtype=float)
    pf = float(p)
    safe = np.maximum(arr, SINGULAR_CUTOFF / pf)
    w = superpotential(safe, rung, p)
    wp = superpotential_derivative(safe, rung, p)
    val = w * w + wp if plus else w * w - wp
    return np.where(pf * arr < SINGULAR_CUTOFF, np.inf, val)


def shape_invariance_residual(x, params, k):
    vp = partner(x, ladder(params, k), params.p, True)
    vm = partner(x, ladder(params, k + 1), params.p, False)
    return vp - vm - float(shift_constant(params, k))


def shape_invariance_detail(params, n_max):
    """(passed, detail) of the shape-invariance check, rung by rung."""
    p = float(params.p)
    xs = np.geomspace(1e-3 / p, 30.0 / p, 10_000)
    worst, worst_k = 0.0, 0
    for k in range(n_max):
        res = shape_invariance_residual(xs, params, k)
        scale = np.maximum(1.0, np.abs(partner(xs, ladder(params, k), params.p, True)))
        m = float(np.max(np.abs(res) / scale))
        if m > worst:
            worst, worst_k = m, k
    return worst <= 1e-9, (f"max scaled residual {worst:.3e} at rung k={worst_k} "
                           f"(tolerance {1e-9:.0e})")
