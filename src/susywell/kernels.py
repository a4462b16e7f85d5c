"""Hot numeric kernels: Sturm-sequence counts and shifted tridiagonal solves.

The Sturm count vectorizes across the batch of shifts; the recurrence
itself is sequential in the matrix index, so it walks the rows in blocks:
each block's `diag - shift` entries are filled by one broadcast subtract,
the pivots are updated in place one row at a time, and the negative
pivots of the whole block are counted at once.  The scratch block is
`_BLOCK_ROWS` rows by at most `SHIFT_BATCH` shifts; wider batches are
counted in column chunks.  The Thomas solve is one Python sweep over
the rows.
"""

from __future__ import annotations

import numpy as np

# No compiled backend: kept for the benchmark's environment record.
NUMBA_ENABLED = False

_SAFE_MIN = float(np.finfo(np.float64).tiny)

# A bisection pass sends at most SHIFT_BATCH shifts per count; with
# _BLOCK_ROWS rows the count's scratch block stays near 256 KB.
SHIFT_BATCH = 256
_BLOCK_ROWS = 128


def pivot_floor(off_squared: np.ndarray) -> float:
    """Minimum pivot magnitude for the Sturm recurrence (LAPACK-style)."""
    top = float(off_squared.max()) if off_squared.size else 1.0
    return _SAFE_MIN * max(1.0, top)


def sturm_counts(diag, off_squared, shifts):
    """Number of eigenvalues of the symmetric tridiagonal matrix strictly
    below each shift, via the sign count of the Sturm pivot sequence.

    Each shift's count depends on that shift alone, so batching shifts
    never changes a count."""
    diag = np.ascontiguousarray(diag, dtype=np.float64)
    off_squared = np.ascontiguousarray(off_squared, dtype=np.float64)
    shifts = np.atleast_1d(np.ascontiguousarray(shifts, dtype=np.float64))
    pivmin = pivot_floor(off_squared)
    return np.concatenate([
        _count_below(diag, off_squared, shifts[c:c + SHIFT_BATCH], pivmin)
        for c in range(0, max(shifts.shape[0], 1), SHIFT_BATCH)
    ])


def _count_below(diag, off_squared, shifts, pivmin):
    """sturm_counts for at most SHIFT_BATCH shifts; every pivot is
    d_i = (diag_i - shift) - off_squared_{i-1} / d_{i-1}, and any pivot
    smaller than pivmin in magnitude is replaced by -pivmin."""
    n, width = diag.shape[0], shifts.shape[0]
    pivots = np.empty((_BLOCK_ROWS + 1, width))  # row 0: the pivot before the block
    rows = list(pivots)
    floor = np.full(width, pivmin)
    off_rows = np.broadcast_to(off_squared[:, None], (max(n - 1, 0), width))
    tmp = np.empty(width)
    small = np.empty(width, dtype=bool)
    carry = rows[0]
    np.subtract(diag[0], shifts, out=carry)
    np.less(np.abs(carry, out=tmp), floor, out=small)
    carry[small] = -pivmin
    counts = (carry < 0.0).astype(np.int64)
    for start in range(1, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        block = pivots[1:stop - start + 1]
        np.subtract(diag[start:stop, None], shifts, out=block)
        for prev, cur, off in zip(rows, rows[1:], off_rows[start - 1:stop - 1]):
            np.divide(off, prev, out=tmp)
            np.subtract(cur, tmp, out=cur)
            np.abs(cur, out=tmp)
            np.less(tmp, floor, out=small)
            cur[small] = -pivmin
        counts += np.count_nonzero(block < 0.0, axis=0)
        carry[...] = block[-1]
    return counts


def shifted_tridiag_solve(diag, off, shift, rhs):
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
    pivmin = pivot_floor(off * off)
    cp = np.empty(n, dtype=np.float64)
    x = np.empty(n, dtype=np.float64)
    # one sweep over all rows: row -1 and the superdiagonal entry past the
    # last row are 0.0, and x - 0.0 * 0.0 == x exactly; the memoryviews read
    # and write the entries as Python floats, not numpy scalars
    cpv, xv = memoryview(cp), memoryview(x)
    e = c = y = 0.0  # the previous row's superdiagonal entry, cp and x
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
