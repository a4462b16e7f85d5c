"""The one-pass Thomas solve with clamped pivots, as the package ran it
before the factorization was split from the sweeps: the reference that
kernels.shifted_tridiag_factor and kernels.shifted_tridiag_solve must
match bit for bit."""

import numpy as np

from susywell.kernels import pivot_floor


def thomas_solve(diag, off, shift, rhs):
    diag = np.ascontiguousarray(diag, dtype=np.float64)
    off = np.ascontiguousarray(off, dtype=np.float64)
    rhs = np.ascontiguousarray(rhs, dtype=np.float64)
    n = diag.shape[0]
    pivmin = pivot_floor(off * off)
    cp = np.empty(n, dtype=np.float64)
    x = np.empty(n, dtype=np.float64)
    cpv, xv = memoryview(cp), memoryview(x)
    e = c = y = 0.0
    up = np.append(off, 0.0)
    rows = zip(memoryview(diag - float(shift)), memoryview(up), memoryview(rhs))
    for i, (d, u, r) in enumerate(rows):
        den = d - e * c
        if abs(den) < pivmin:
            den = pivmin if den >= 0.0 else -pivmin
        c = cpv[i] = u / den
        y = xv[i] = (r - e * y) / den
        e = u
    for i in range(n - 2, -1, -1):
        y = xv[i] = xv[i] - cpv[i] * y
    return x
