"""The Sturm count one row at a time, independent of the blocked kernel."""

import numpy as np

from susywell import kernels


def reference_counts(diag, off_squared, shifts):
    # the row-at-a-time recurrence the blocked count must reproduce exactly
    pivmin = kernels.pivot_floor(off_squared)
    d = diag[0] - shifts
    d = np.where(np.abs(d) < pivmin, -pivmin, d)
    counts = (d < 0.0).astype(np.int64)
    for i in range(1, diag.shape[0]):
        d = (diag[i] - shifts) - off_squared[i - 1] / d
        d = np.where(np.abs(d) < pivmin, -pivmin, d)
        counts += d < 0.0
    return counts
