"""Hot numeric kernels: Sturm-sequence counts and shifted tridiagonal solves.

The Sturm count vectorizes across the batch of shifts (the recurrence
itself is sequential in the matrix index); the Thomas solve is a straight
Python sweep.
"""

from __future__ import annotations

import numpy as np

# No compiled backend: kept for the benchmark's environment record.
NUMBA_ENABLED = False

_SAFE_MIN = float(np.finfo(np.float64).tiny)


def pivot_floor(off_squared: np.ndarray) -> float:
    """Minimum pivot magnitude for the Sturm recurrence (LAPACK-style)."""
    top = float(off_squared.max()) if off_squared.size else 1.0
    return _SAFE_MIN * max(1.0, top)


def sturm_counts(diag, off_squared, shifts, pivmin=None):
    """Number of eigenvalues of the symmetric tridiagonal matrix strictly
    below each shift, via the sign count of the Sturm pivot sequence."""
    diag = np.ascontiguousarray(diag, dtype=np.float64)
    off_squared = np.ascontiguousarray(off_squared, dtype=np.float64)
    shifts = np.atleast_1d(np.ascontiguousarray(shifts, dtype=np.float64))
    if pivmin is None:
        pivmin = pivot_floor(off_squared)
    d = diag[0] - shifts
    d = np.where(np.abs(d) < pivmin, -pivmin, d)
    counts = (d < 0.0).astype(np.int64)
    for i in range(1, diag.shape[0]):
        d = (diag[i] - shifts) - off_squared[i - 1] / d
        d = np.where(np.abs(d) < pivmin, -pivmin, d)
        counts += d < 0.0
    return counts


def shifted_tridiag_solve(diag, off, shift, rhs, pivmin=None):
    """Solve (T - shift*I) x = rhs for symmetric tridiagonal T.

    Thomas sweep with magnitude-clamped pivots: inverse iteration drives
    the shift onto an eigenvalue by design.
    """
    diag = np.ascontiguousarray(diag, dtype=np.float64)
    off = np.ascontiguousarray(off, dtype=np.float64)
    rhs = np.ascontiguousarray(rhs, dtype=np.float64)
    n = diag.shape[0]
    if n < 2:
        raise ValueError("tridiagonal solve needs at least two rows")
    if pivmin is None:
        pivmin = pivot_floor(off * off)
    shift = float(shift)
    cp = np.empty(n - 1, dtype=np.float64)
    x = np.empty(n, dtype=np.float64)
    den = diag[0] - shift
    if abs(den) < pivmin:
        den = pivmin if den >= 0.0 else -pivmin
    cp[0] = off[0] / den
    x[0] = rhs[0] / den
    for i in range(1, n - 1):
        den = (diag[i] - shift) - off[i - 1] * cp[i - 1]
        if abs(den) < pivmin:
            den = pivmin if den >= 0.0 else -pivmin
        cp[i] = off[i] / den
        x[i] = (rhs[i] - off[i - 1] * x[i - 1]) / den
    den = (diag[n - 1] - shift) - off[n - 2] * cp[n - 2]
    if abs(den) < pivmin:
        den = pivmin if den >= 0.0 else -pivmin
    x[n - 1] = (rhs[n - 1] - off[n - 2] * x[n - 2]) / den
    for i in range(n - 2, -1, -1):
        x[i] -= cp[i] * x[i + 1]
    return x
