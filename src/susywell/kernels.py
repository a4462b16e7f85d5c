"""Hot numeric kernels: Sturm-sequence counts and shifted tridiagonal solves.

The Sturm count vectorizes across the batch of shifts; the recurrence
itself is sequential in the matrix index, so it walks the rows in blocks:
each block's `diag - shift` entries are filled by one broadcast subtract,
the pivots are updated in place one row at a time, two ufunc calls a row
(divide, subtract), and the negative pivots of the whole block are
counted at once.  That walk leaves out the pivot clamp of Demmel,
Dhillon & Ren (1995); one vectorized test per block then looks for a
pivot below pivmin in magnitude, and only a block that has one is walked
again, with the clamp on every row, from the row after the first such
pivot, which is clamped.  By induction on the rows, every pivot before it
is already the clamped recurrence's, so the counts are those of the
row-at-a-time clamped walk, bit for bit.  The scratch block is
`_BLOCK_ROWS` rows by at most `SHIFT_BATCH` shifts; wider batches are
counted in column chunks.  A count stops early, with the count of the
full walk, once every later row is diagonally dominant for the batch's
largest shift and every carried pivot is at least the off-diagonal
entry it meets (the Gershgorin argument behind tridiagonal bisection:
Barth, Martin & Wilkinson 1967; Kahan 1966): then no later pivot can be
negative or clamped.  A row of the blocked walk costs about as much
whatever the batch width, about a dozen rows of the scalar walk (the clamped
recurrence on Python floats), so a narrow batch, and a shift that can never
stop early in a batch that could, are walked one shift at a time, with the
same early exit per shift: the same counts, bit for bit, for less time.
A shifted tridiagonal solve is a Thomas factorization
with clamped pivots, one Python loop over the rows made once per shift, and
then a forward and a back substitution sweep per right-hand side.
"""

from __future__ import annotations

import numpy as np

# No compiled backend: kept for the benchmark's environment record.
NUMBA_ENABLED = False

_SAFE_MIN = float(np.finfo(np.float64).tiny)

# A bisection pass sends at most SHIFT_BATCH shifts per count; with
# _BLOCK_ROWS rows each scratch block of the count stays near 256 KB.
SHIFT_BATCH = 256
_BLOCK_ROWS = 128
# At most this many shifts are walked one at a time.  On validate's
# 12000-row matrices (2-core x86-64 VM) the blocked walk took 11-12 ms over
# every row and the scalar walk 0.95 ms a shift, so the two cross at 12-14
# shifts that walk every row, and at 18-24 that stop early; 8 full walks
# took 7.7-7.9 ms.
_SCALAR_WIDTH = 8
# relative margin of the early-exit tests; see _dominance
_MARGIN = 1e-9


def pivot_floor(off_squared: np.ndarray) -> float:
    """Minimum pivot magnitude for the Sturm recurrence (LAPACK-style)."""
    top = float(off_squared.max()) if off_squared.size else 1.0
    return _SAFE_MIN * max(1.0, top)


def sturm_counts(diag, off_squared, shifts):
    """Number of eigenvalues of the symmetric tridiagonal matrix below each
    shift, via the sign count of the Sturm pivot sequence.  A pivot below
    pivmin in magnitude counts as negative, so an eigenvalue equal to the
    shift can be counted: on the 1x1 matrix [3.0] the count at 3.0 is 1.

    Each shift's count depends on that shift alone, so batching shifts
    never changes a count.  A shift that can never stop early (above tail
    at the last block edge, or NaN) is walked alone while there are at most
    _SCALAR_WIDTH such shifts, and so is every shift once at most
    _SCALAR_WIDTH are left; the rest go to the blocked walk."""
    diag = np.ascontiguousarray(diag, dtype=np.float64)
    off_squared = np.ascontiguousarray(off_squared, dtype=np.float64)
    shifts = np.atleast_1d(np.ascontiguousarray(shifts, dtype=np.float64))
    pivmin = pivot_floor(off_squared)
    edge, tail = _dominance(diag, off_squared, pivmin)
    last = max(diag.shape[0] - 1, 0) // _BLOCK_ROWS * _BLOCK_ROWS  # 0: no block edge
    alone = ~(shifts <= tail[last]) if last else np.ones(shifts.shape[0], dtype=bool)
    if np.count_nonzero(alone) > _SCALAR_WIDTH:
        alone[:] = False  # the blocked walk goes to the last row anyway
    if np.count_nonzero(~alone) <= _SCALAR_WIDTH:
        alone[:] = True
    # row i meets off_rows[i]; row -1 carries +inf and meets 0.0, so row 0's
    # pivot is (diag_0 - shift) - 0.0 / inf, exactly diag_0 - shift
    off_rows = np.append(0.0, off_squared)
    counts = np.empty(shifts.shape[0], dtype=np.int64)
    views = memoryview(diag), memoryview(off_rows), memoryview(edge), memoryview(tail)
    counts[alone] = [_count_alone(s, pivmin, *views) for s in shifts[alone].tolist()]
    batch = shifts[~alone]
    if batch.shape[0]:
        counts[~alone] = np.concatenate([
            _count_below(diag, off_rows, batch[c:c + SHIFT_BATCH], pivmin, edge, tail)
            for c in range(0, batch.shape[0], SHIFT_BATCH)
        ])
    return counts


def _dominance(diag, off_squared, pivmin):
    """The early-exit bounds of the Sturm count: no pivot at row r or later
    is negative or clamped when the pivot carried from row r-1 is at least
    edge[r-1] and every shift is at most tail[r].

    With a_j = sqrt(off_squared_j), a_{-1} = a_{n-1} = 0 and u = 2**-53:
    if the computed pivot q_{j-1} >= a_{j-1} (so q_{j-1} >= pivmin, since a
    pivot below pivmin is clamped to -pivmin), the computed pivot
    q_j = fl(fl(diag_j - s) - fl(a_{j-1}**2 / q_{j-1})) is at least
    (1 - 2u)(diag_j - s) - a_{j-1} - 2**-1074, and so at least a_j + pivmin
    when diag_j - s - a_{j-1} - a_j >= 2u (diag_j - s) + pivmin + 2**-1074.
    By induction every later pivot is then positive and above the clamp,
    also on the last row and wherever a_j = 0.  tail asks for more, a
    margin of _MARGIN (1e-9) times |diag_j| + a_{j-1} + a_j plus 2 pivmin:
    2 pivmin covers pivmin + 2**-1074, and the roundings of the sqrt and
    of the sums in the test, with the 2u term at s = tail (a lower shift
    adds more slack than 2u term), stay below 8u times that sum, under a
    millionth of the relative margin.  edge asks for
    fl(sqrt(off_squared_j)) (1 + _MARGIN), at least a_j however the sqrt
    rounds."""
    e = np.sqrt(off_squared)
    reach = np.zeros_like(diag)  # a_{j-1} + a_j
    reach[:-1] += e
    reach[1:] += e
    slack = diag - reach - (_MARGIN * (np.abs(diag) + reach) + 2.0 * pivmin)
    return e * (1.0 + _MARGIN), np.minimum.accumulate(slack[::-1])[::-1]


@np.errstate(all="ignore")  # only the signs of the pivots leave the walk
def _count_below(diag, off_rows, shifts, pivmin, edge, tail):
    """sturm_counts for at most SHIFT_BATCH shifts; every pivot is
    d_i = (diag_i - shift) - off_rows_i / d_{i-1}, and any pivot
    smaller than pivmin in magnitude is replaced by -pivmin.  The walk
    stops at a block edge where _dominance shows that no later pivot
    counts (a NaN shift or bound never stops it).

    Each block is walked first without the clamp, two ufunc calls a row.
    Up to the first row r where a stored pivot is below pivmin in
    magnitude, the clamp would not have changed a pivot, so those rows
    already hold the clamped recurrence's pivots; row r does too once its
    small pivots are clamped.  Only rows r+1.. are then walked again, with
    the clamp on every row, so a block makes at most one fallback pass."""
    n, width = diag.shape[0], shifts.shape[0]
    top = shifts.max(initial=-np.inf)
    pivots = np.empty((_BLOCK_ROWS + 1, width))  # row 0: the pivot before the block
    rows = list(pivots)
    clamped = np.full(width, -pivmin)
    off_rows = np.broadcast_to(off_rows[:, None], (n, width))
    tmp = np.empty(width)
    small = np.empty(width, dtype=bool)
    magnitude = np.empty((_BLOCK_ROWS, width))
    low = np.empty((_BLOCK_ROWS, width), dtype=bool)
    carry = rows[0]
    carry.fill(np.inf)
    counts = np.zeros(width, dtype=np.int64)
    for start in range(0, n, _BLOCK_ROWS):
        if start and top <= tail[start] and (carry >= edge[start - 1]).all():
            break
        stop = min(start + _BLOCK_ROWS, n)
        size = stop - start
        block = pivots[1:size + 1]
        np.subtract(diag[start:stop, None], shifts, out=block)
        for prev, cur, off in zip(rows, rows[1:], off_rows[start:stop]):
            np.divide(off, prev, tmp)
            np.subtract(cur, tmp, cur)
        below = low[:size]
        np.less(np.abs(block, out=magnitude[:size]), pivmin, out=below)
        if below.any():
            r = int(below.any(axis=1).argmax())
            np.copyto(block[r], clamped, where=below[r])
            np.subtract(diag[start + r + 1:stop, None], shifts, out=block[r + 1:])
            for prev, cur, off in zip(rows[r + 1:], rows[r + 2:], off_rows[start + r + 1:stop]):
                np.divide(off, prev, tmp)
                np.subtract(cur, tmp, cur)
                np.less(np.abs(cur, tmp), pivmin, small)
                np.copyto(cur, clamped, where=small)
        counts += np.count_nonzero(block < 0.0, axis=0)
        carry[...] = block[-1]
    return counts


def _count_alone(shift, pivmin, diag, off_rows, edge, tail):
    """sturm_counts of one shift: the clamped recurrence one row at a time
    on Python floats, from row -1 (pivot +inf, off_rows[0] = 0.0), stopping
    at the first block edge where _count_below's test holds for this shift
    alone.  IEEE divide and subtract round alike on Python floats and
    float64 arrays, so the count is _count_below's, bit for bit.  No pivot
    is 0.0 once clamped, so no divide raises."""
    count, pivot = 0, np.inf
    for start in range(0, len(diag), _BLOCK_ROWS):
        if start and shift <= tail[start] and pivot >= edge[start - 1]:
            break
        stop = start + _BLOCK_ROWS
        for d, e in zip(diag[start:stop], off_rows[start:stop]):
            pivot = (d - shift) - e / pivot
            if pivot < pivmin:  # negative, or clamped to -pivmin: counts
                if pivot > -pivmin:
                    pivot = -pivmin
                count += 1
    return count


def shifted_tridiag_factor(diag, off, shift):
    """The Thomas factorization of T - shift*I for symmetric tridiagonal T:
    (pivots, ratios), pivots_i = (diag_i - shift) - off_(i-1) ratios_(i-1)
    and ratios_i = off_i / pivots_i (0.0 past the last row).  A pivot below
    pivmin in magnitude is clamped to +-pivmin, keeping its sign: inverse
    iteration drives the shift onto an eigenvalue by design."""
    diag = np.ascontiguousarray(diag, dtype=np.float64)
    off = np.ascontiguousarray(off, dtype=np.float64)
    if diag.shape[0] == 0:
        raise ValueError("the matrix needs at least one row")
    pivmin = pivot_floor(off * off)
    pivots, ratios = np.empty_like(diag), np.empty_like(diag)
    # row -1's off-diagonal entry and ratio are 0.0, and d - 0.0 * 0.0 == d
    # exactly; the memoryviews read and write the entries as Python floats,
    # not numpy scalars
    pv, cv = memoryview(pivots), memoryview(ratios)
    e = c = 0.0
    rows = zip(memoryview(diag - float(shift)), memoryview(np.append(off, 0.0)))
    for i, (d, u) in enumerate(rows):
        den = d - e * c
        if -pivmin < den < pivmin:
            den = pivmin if den >= 0.0 else -pivmin
        pv[i] = den
        c = cv[i] = u / den
        e = u
    return pivots, ratios


def shifted_tridiag_solve(pivots, ratios, off, rhs):
    """Solve (T - shift*I) x = rhs, given shifted_tridiag_factor's
    (pivots, ratios) of T - shift*I and T's off-diagonal: one forward and
    one back substitution sweep, y_i = (rhs_i - off_(i-1) y_(i-1)) / pivots_i
    and x_i = y_i - ratios_i x_(i+1), each a Python loop over the rows."""
    off = np.ascontiguousarray(off, dtype=np.float64)
    rhs = np.ascontiguousarray(rhs, dtype=np.float64)
    # row -1's off-diagonal entry and y are 0.0, and r - 0.0 * 0.0 == r
    # exactly; the memoryviews read the entries as Python floats
    y = 0.0
    ys = [y := (r - e * y) / den for den, e, r in
          zip(memoryview(pivots), memoryview(np.append(0.0, off)), memoryview(rhs))]
    xs = [y := z - c * y for c, z in zip(memoryview(ratios)[-2::-1], ys[-2::-1])]
    xs.reverse()
    xs.append(ys[-1])
    return np.fromiter(xs, np.float64, len(xs))
