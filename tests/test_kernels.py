from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susywell import kernels, oracle
from susywell.params import make_params
from susywell.spectrum import full_spectrum
from sturm_reference import reference_counts
from thomas_reference import thomas_solve


def _random_tridiag(rng, n):
    diag = rng.standard_normal(n) * 3.0
    off = rng.standard_normal(n - 1)
    return diag, off


def _dense(diag, off):
    m = np.diag(diag)
    m += np.diag(off, 1) + np.diag(off, -1)
    return m


_N = kernels._SCALAR_WIDTH


def _by_path(diag, off_squared, shifts):
    # the counts as routed, with every shift in the blocked walk, and with
    # every shift walked alone
    routes = (_N, 0, 10**9)  # 0: none is walked alone; 10**9: every one is
    out = []
    for width in routes:
        with mock.patch.object(kernels, "_SCALAR_WIDTH", width):
            out.append(kernels.sturm_counts(diag, off_squared, shifts))
    return out


def test_counts_two_by_two():
    # [[2,-1],[-1,2]] has eigenvalues {1, 3}
    diag = np.array([2.0, 2.0])
    off2 = np.array([1.0])
    counts = kernels.sturm_counts(diag, off2, np.array([0.5, 2.0, 3.5]))
    assert counts.tolist() == [0, 1, 2]


def test_an_eigenvalue_at_the_shift_is_counted():
    # the pivot that lands on 0 is clamped to -pivmin and counts as negative
    assert kernels.sturm_counts(np.array([3.0]), np.array([]), np.array([3.0])).tolist() == [1]
    H = oracle.DiscretizedHamiltonian(grid=None, diag=np.array([3.0]), offdiag=np.array([]))
    assert oracle.count_cuts(H, [2.5, 3.0, 3.5]).counts.tolist() == [0, 1, 1]
    # [[2,-1],[-1,2]] at its eigenvalues 1 and 3
    counts = kernels.sturm_counts(np.array([2.0, 2.0]), np.array([1.0]), np.array([1.0, 3.0]))
    assert counts.tolist() == [1, 2]


def test_counts_match_dense_eigenvalues():
    rng = np.random.default_rng(42)
    for _ in range(10):
        diag, off = _random_tridiag(rng, 60)
        eigs = np.linalg.eigvalsh(_dense(diag, off))
        shifts = rng.uniform(eigs[0] - 1, eigs[-1] + 1, size=7)
        counts = kernels.sturm_counts(diag, off * off, shifts)
        expect = [int(np.sum(eigs < s)) for s in shifts]
        assert counts.tolist() == expect


@pytest.mark.parametrize("n_shifts", [1, 300])
@pytest.mark.parametrize(
    "n",
    [1, 2, kernels._BLOCK_ROWS - 1, kernels._BLOCK_ROWS, kernels._BLOCK_ROWS + 1,
     kernels._BLOCK_ROWS + 2, 4 * kernels._BLOCK_ROWS + 3],
)
def test_blocked_counts_match_reference(n, n_shifts):
    rng = np.random.default_rng(n * 1000 + n_shifts)
    diag = rng.integers(-3, 4, size=n).astype(float)
    off2 = rng.integers(0, 3, size=n - 1).astype(float)
    # integer entries and integer shifts land pivots exactly on zero
    shifts = rng.integers(-6, 7, size=n_shifts).astype(float)
    if n_shifts > 1:
        shifts[: n_shifts // 2] += rng.uniform(-0.5, 0.5, size=n_shifts // 2)
    got = kernels.sturm_counts(diag, off2, shifts)
    assert got.dtype == np.int64
    assert np.array_equal(got, reference_counts(diag, off2, shifts))


def _batched_counts(diag, off_squared, batches):
    # one kernel call per batch: the walk stops for a batch only when it
    # stops for the batch's largest shift
    return np.concatenate([kernels.sturm_counts(diag, off_squared, b) for b in batches])


@pytest.mark.parametrize("b, p", [("7", "1/2"), ("10", "1/4"), ("3/5", "1/2")])
def test_early_exit_counts_match_reference_on_validate_hamiltonians(b, p):
    # validate's own matrices; a shift just above an eigenvalue changes sign
    # deep in the tail, where only the pivot test keeps the walk going
    params = make_params(Fraction(b), Fraction(p))
    H = oracle.build_hamiltonian(params, oracle.default_grid(params))
    off2 = H.offdiag * H.offdiag
    levels = np.array(oracle.lowest_eigenvalues(H, 4))
    rng = np.random.default_rng(11)
    spread = np.logspace(-3, -12, 10)
    near = levels[:, None] * (1.0 + np.concatenate((spread, -spread)))
    top = float(full_spectrum(params).asymptote)
    batches = [*near, *np.sort(rng.uniform(levels[0] - 1.0, top, size=40)).reshape(10, 4)]
    expect = reference_counts(H.diag, off2, np.concatenate(batches))
    assert np.array_equal(_batched_counts(H.diag, off2, batches), expect)


def _count_steps(diag, off2, lo, hi):
    # adjacent floats lo_j < hi_j with count(lo_j) <= j < count(hi_j), for
    # each j, by bisection from brackets with that property
    want = np.arange(1, lo.shape[0] + 1)
    while True:
        mid = 0.5 * (lo + hi)
        live = (lo < mid) & (mid < hi)
        if not live.any():
            return hi
        up = kernels.sturm_counts(diag, off2, mid) >= want
        hi = np.where(live & up, mid, hi)
        lo = np.where(live & ~up, mid, lo)


@pytest.mark.parametrize("b, p", [("7", "1/2"), ("3/5", "1/2"), ("20", "1/4")])
def test_counts_never_decrease_at_sorted_shifts_on_validate_hamiltonians(b, p):
    # monotone counts are the premise of the bisection's table of known
    # counts, which validate seeds with its cuts; Demmel, Dhillon & Ren
    # (1995) show when the count of this recurrence is monotone in
    # correctly rounded arithmetic.  Two parts of this kernel must keep
    # it so: the clamp of a pivot smaller than pivmin to -pivmin, which is a
    # nondecreasing map of the pivot, and the early exit, which returns the
    # count of the full walk.  The shifts run over every float next to the
    # shift where the count steps up at E_0, E_1 and E_2, and next to the
    # asymptote, and spread out from there geometrically
    params = make_params(Fraction(b), Fraction(p))
    H = oracle.build_hamiltonian(params, oracle.default_grid(params))
    off2 = H.offdiag * H.offdiag
    levels = np.array(oracle.lowest_eigenvalues(H, 4))
    margin = oracle._BISECT_REL_TOL * H.norm_bound()  # at least the bracket width
    steps = _count_steps(H.diag, off2, levels[:3] - margin, levels[:3] + margin)
    assert list(kernels.sturm_counts(H.diag, off2, steps)) == [1, 2, 3]
    spread = np.geomspace(1e-15, 1.0, 128) * (levels[3] - levels[0])
    shifts = np.sort(np.concatenate([
        np.concatenate((c + np.spacing(c) * np.arange(-128, 128), c - spread, c + spread))
        for c in (*steps, float(full_spectrum(params).asymptote))
    ]))
    assert np.all(np.diff(kernels.sturm_counts(H.diag, off2, shifts)) >= 0)


def test_early_exit_counts_match_reference_with_zero_off_diagonals():
    rng = np.random.default_rng(5)
    n = 6 * kernels._BLOCK_ROWS + 17
    off = rng.uniform(-2.0, 2.0, size=n - 1)
    off[rng.random(n - 1) < 0.15] = 0.0
    reach = np.zeros(n)
    reach[:-1] += np.abs(off)
    reach[1:] += np.abs(off)
    # random head, then a tail that is barely diagonally dominant up to
    # shift 1, so that a small pivot carried into it can turn the next negative
    diag = np.where(np.arange(n) < 2 * kernels._BLOCK_ROWS,
                    rng.uniform(-4.0, 4.0, size=n), 1.0 + reach + rng.uniform(0.0, 0.05, size=n))
    off2 = off * off
    shifts = np.concatenate((rng.uniform(0.0, 1.0, size=200), rng.uniform(-8.0, 8.0, size=40)))
    batches = [*shifts[:200, None], *shifts[200:].reshape(4, 10)]
    expect = reference_counts(diag, off2, shifts)
    assert np.array_equal(_batched_counts(diag, off2, batches), expect)


def test_walk_goes_on_past_a_dominant_tail_when_the_edge_pivot_is_small():
    # rows from 2 * _BLOCK_ROWS + 1 on are dominant for shift 0, but the
    # pivot carried into them is 0.25 < |e| = 1, so the next pivot is
    # 3 - 1 / 0.25 = -1 and counts
    edge = 2 * kernels._BLOCK_ROWS
    n = edge + kernels._BLOCK_ROWS + 9
    rng = np.random.default_rng(3)
    diag = np.full(n, 3.0)
    diag[:edge] = rng.uniform(-3.0, 3.0, size=edge)
    off2 = np.ones(n - 1)
    off2[:edge - 1] = rng.uniform(0.5, 2.0, size=edge - 1)
    pivot = diag[0]
    for i in range(1, edge):
        pivot = diag[i] - off2[i - 1] / pivot
    diag[edge] = off2[edge - 1] / pivot + 0.25
    shifts = np.array([0.0, -0.5])
    expect = reference_counts(diag, off2, shifts)
    head = reference_counts(diag[:edge + 1], off2[:edge], shifts)
    assert expect[0] == head[0] + 1  # the tail does count at shift 0
    for got in _by_path(diag, off2, shifts):
        assert np.array_equal(got, expect)


@pytest.mark.parametrize("case", ["path-laplacian", "zero-tail", "rounding"])
def test_shift_on_the_dominance_bound_walks_to_the_last_row(case):
    # Only the margin keeps the walk going in each case.  Path-graph
    # Laplacian at shift 0: every row sum d_j - |e_{j-1}| - |e_j| is exactly
    # 0 and every pivot is 1 but the last, which is exactly 0 and is clamped
    # and counted.  A zero matrix but for diag_0 = 1, at a shift just below
    # 0: every later pivot is a positive 1e-310, below pivmin, so each is
    # clamped and counted.  Rounding: the first pivot exceeds |e_0| = 1 by
    # 1e-8, which the second pivot, near |e_1| = 1e10, rounds away; the last
    # row sum is exactly 0 and the last pivot is 1e10 - 1e20 / 1e10 = 0 (the
    # shift lies below -2 pivmin = -4.5e-288, the absolute margin).
    n = 3 * kernels._BLOCK_ROWS + 5
    if case == "path-laplacian":
        diag, off2, shift, count = np.full(n, 2.0), np.ones(n - 1), 0.0, 1
        diag[[0, -1]] = 1.0
    elif case == "zero-tail":
        diag, off2, shift, count = np.zeros(n), np.zeros(n - 1), -1e-310, n - 1
        diag[0] = 1.0
    else:
        diag, off2 = np.array([1.0 + 1e-8, 1.0 + 1e10, 1e10]), np.array([1.0, 1e20])
        shift, count = -1e-280, 1
    shifts = np.array([shift])
    expect = reference_counts(diag, off2, shifts)
    assert expect.tolist() == [count]
    for got in _by_path(diag, off2, shifts):
        assert np.array_equal(got, expect)


def test_counts_clamp_exact_pivot():
    # shift 1 on diag [1, 1] makes the first pivot exactly zero
    diag = np.array([1.0, 1.0])
    off2 = np.array([0.25])
    shifts = np.array([1.0, 0.25, 2.0])
    for got in _by_path(diag, off2, shifts):
        assert np.array_equal(got, reference_counts(diag, off2, shifts))
        assert got.tolist() == [1, 0, 2]  # eigenvalues 0.5 and 1.5


# a batch of shifts around 0 that a clamp at shift 0 must not disturb
_MIXED_SHIFTS = np.array([0.0, np.nan, -0.75, np.inf, 0.0, 1.5, -np.inf, 3.0, np.nan])


def _zero_pivots_at(rows, n, seed, lift=0.0, tiny=()):
    # a random matrix whose pivot at shift 0 is exactly 0.0 at each of the
    # given rows: diag_i = off_squared_{i-1} / d_{i-1} there, with d_{i-1}
    # the clamped pivot before it, and fl(x - x) = 0.  Row -1 has pivot +inf
    # and off-diagonal entry 0.0, as in the kernel, so row 0 gets diag_0 = 0.0.
    # At the rows tiny (and not in rows) the pivot is exactly +pivmin, which
    # is not clamped: off_squared_{i-1} = 0.0 there, so the pivot is diag_i.
    # lift shifts the diagonal entries of the rows not planted
    rng = np.random.default_rng(seed)
    diag = rng.uniform(-3.0, 3.0, size=n) + lift
    off2 = rng.uniform(0.5, 2.0, size=n - 1)
    tiny = set(tiny) - set(rows)
    off2[[i - 1 for i in tiny if i]] = 0.0
    pivmin = kernels.pivot_floor(off2)
    d = np.inf
    for i, e in enumerate(np.append(0.0, off2)):
        if i in rows:
            diag[i] = e / d
        elif i in tiny:
            diag[i] = pivmin
        d = diag[i] - e / d
        assert (d == 0.0) == (i in rows) and (d == pivmin) == (i in tiny)
        d = -pivmin if abs(d) < pivmin else d
    return diag, off2


_B = kernels._BLOCK_ROWS  # block k walks rows k B .. (k + 1) B - 1


@pytest.mark.parametrize("rows", [
    pytest.param({0}, id="row-0"),
    pytest.param({_B}, id="first-row-of-a-block"),
    pytest.param({2 * _B - 1}, id="last-row-of-a-block"),
    pytest.param({3 * _B + 40}, id="last-row-of-the-matrix"),
    pytest.param({_B + 5, _B + 60}, id="two-rows-of-one-block"),
    pytest.param({7, 2 * _B - 1, 2 * _B, 3 * _B + 40}, id="rows-of-four-blocks"),
])
def test_clamped_pivots_match_reference(rows):
    # without the clamp a zero pivot turns the next one into -inf (or NaN
    # where off_squared is 0), so the count goes wrong from that row on
    # unless the walk restarts there
    diag, off2 = _zero_pivots_at(rows, 3 * _B + 41, seed=min(rows))
    expect = reference_counts(diag, off2, _MIXED_SHIFTS)
    for got in _by_path(diag, off2, _MIXED_SHIFTS):
        assert np.array_equal(got, expect)
    assert np.array_equal(kernels.sturm_counts(diag, off2, np.zeros(1)), expect[:1])


@pytest.mark.parametrize("width", [1, _N + 1])
def test_a_pivot_of_exactly_pivmin_is_not_clamped(width):
    # the clamp takes pivots strictly below pivmin in magnitude; a pivot of
    # +pivmin stays positive and does not count, at row 0 and at block edges
    n = 3 * _B + 41
    tiny = {0, _B - 1, _B, 3 * _B + 40}
    diag, off2 = _zero_pivots_at(set(), n, seed=4, tiny=tiny)
    shifts = np.zeros(width)
    expect = reference_counts(diag, off2, shifts)
    clamped = diag.copy()
    clamped[sorted(tiny)] = 0.0  # the same rows with pivot 0.0, which counts
    assert np.all(reference_counts(clamped, off2, shifts) > expect)
    for got in _by_path(diag, off2, shifts):
        assert np.array_equal(got, expect)


# the first and last row of the first four blocks
_EDGES = [r for k in range(1, 5) for r in (k * _B - 1, k * _B)]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4 * _B + 3),
       rows=st.sets(st.one_of(st.sampled_from([0, *_EDGES]), st.integers(0, 4 * _B + 2)),
                    max_size=6),
       width=st.integers(kernels.SHIFT_BATCH + 1, 3 * kernels.SHIFT_BATCH),
       lift=st.sampled_from([0.0, 8.0]),
       specials=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_counts_match_reference_with_planted_zero_pivots(n, rows, width, lift, specials, seed):
    # exact zero pivots at shift 0 at random rows, row 0 and block edges
    # among them, in batches of more than SHIFT_BATCH shifts; a NaN or
    # infinite shift keeps the walk from stopping early, and a lifted
    # diagonal lets it stop past the last planted row
    diag, off2 = _zero_pivots_at({r for r in rows if r < n}, n, seed, lift)
    rng = np.random.default_rng([seed, 1])
    shifts = rng.uniform(-6.0, 2.0, size=width)
    shifts[rng.random(width) < 0.2] = 0.0
    if specials:
        shifts[rng.choice(width, size=3, replace=False)] = [np.nan, np.inf, -np.inf]
    expect = reference_counts(diag, off2, shifts)
    assert np.array_equal(kernels.sturm_counts(diag, off2, shifts), expect)


@pytest.mark.parametrize("shifts", [
    pytest.param(np.zeros(256), id="zeros"),
    pytest.param(np.array([0.0, 1e-310, np.nan, -1e-310, np.inf, 0.0, -np.inf]), id="mixed"),
])
def test_every_pivot_clamped_matches_reference(shifts):
    # the zero matrix at shift 0: every pivot is 0.0 - 0.0 / -pivmin = 0.0,
    # is clamped to -pivmin and counts; unclamped, 0.0 / 0.0 is NaN.  At a
    # shift of +-1e-310 every pivot is below pivmin also unclamped, so a
    # block's first small pivot is in its first row and its last in its last
    n = 4 * _B + 3
    diag, off2 = np.zeros(n), np.zeros(n - 1)
    expect = reference_counts(diag, off2, shifts)
    assert expect[0] == n
    for got in _by_path(diag, off2, shifts):
        assert np.array_equal(got, expect)


@settings(max_examples=80, deadline=None)
@given(n=st.one_of(st.integers(1, _B - 1), st.integers(1, 4).map(lambda k: k * _B),
                   st.integers(1, 4).map(lambda k: k * _B + 1)),
       rows=st.sets(st.one_of(st.sampled_from([0, *_EDGES]), st.integers(0, 4 * _B + 2)),
                    max_size=4),
       tiny=st.sets(st.one_of(st.sampled_from([0, *_EDGES]), st.integers(0, 4 * _B + 2)),
                    max_size=4),
       width=st.integers(1, _N + 1),
       long=st.integers(0, _N + 1),
       lift=st.sampled_from([0.0, 8.0]),
       seed=st.integers(0, 2**32 - 1))
def test_scalar_and_blocked_paths_match_reference(n, rows, tiny, width, long, lift, seed):
    # pivots of exactly 0.0 and +pivmin at shift 0 at random rows, row 0 and
    # block edges among them.  A lifted diagonal lets the shifts in [-6, 2]
    # stop early, and -inf stops at the first block edge; NaN, +inf and 1e6,
    # above the whole spectrum, never can.  Each kind comes up to _N + 1
    # times, so each side of both routing bounds is drawn
    diag, off2 = _zero_pivots_at({r for r in rows if r < n}, n, seed, lift,
                                 {r for r in tiny if r < n})
    rng = np.random.default_rng([seed, 2])
    short = rng.uniform(-6.0, 2.0, size=width)
    short[rng.random(width) < 0.3] = 0.0
    far = np.array([np.nan, np.inf, -np.inf, 1e6])[rng.integers(0, 4, size=long)]
    shifts = rng.permutation(np.concatenate((short, far)))
    expect = reference_counts(diag, off2, shifts)
    for got in _by_path(diag, off2, shifts):
        assert np.array_equal(got, expect)


@pytest.mark.parametrize("b, p", [("7", "1/2"), ("20", "1/4")])
def test_asymptote_mixed_with_short_shifts_matches_reference(b, p):
    # validate's own matrix: the asymptote (and NaN) walks every row, the
    # shifts next to the lowest levels stop past their turning points
    params = make_params(b, p)
    H = oracle.build_hamiltonian(params, oracle.default_grid(params))
    off2 = H.offdiag * H.offdiag
    levels = np.array(oracle.lowest_eigenvalues(H, 3))
    asym = float(full_spectrum(params).asymptote)
    batches = []
    for width in (1, 2, _N, _N + 1, 3 * _N):
        near = np.resize(np.concatenate((levels - 1e-9, levels + 1e-9)), width)
        batches += [near, np.append(near, asym), np.concatenate(([asym, np.nan], near))]
    expect = reference_counts(H.diag, off2, np.concatenate(batches))
    for width in (_N, 0, 10**9):  # as routed, none walked alone, every one
        with mock.patch.object(kernels, "_SCALAR_WIDTH", width):
            assert np.array_equal(_batched_counts(H.diag, off2, batches), expect)


def test_long_walkers_are_the_shifts_above_tail_at_the_last_edge(monkeypatch):
    # a shift equal to tail there can stop at the last edge, so it stays in
    # the blocked walk; the next float up, or NaN, is walked alone
    n = 3 * _B + 5
    diag, off2 = np.linspace(4.0, 5.0, n), np.ones(n - 1)
    tail = kernels._dominance(diag, off2, kernels.pivot_floor(off2))[1][3 * _B]
    shifts = np.concatenate((np.linspace(-1.0, 1.0, _N + 1),
                             [tail, np.nextafter(tail, np.inf), np.nan]))
    batches, alone = [], []
    below, by_one = kernels._count_below, kernels._count_alone
    monkeypatch.setattr(kernels, "_count_below",
                        lambda *a: batches.append(a[2].tolist()) or below(*a))
    monkeypatch.setattr(kernels, "_count_alone",
                        lambda *a: alone.append(a[0]) or by_one(*a))
    counts = kernels.sturm_counts(diag, off2, shifts)
    assert np.array_equal(counts, reference_counts(diag, off2, shifts))
    assert batches == [shifts[:_N + 2].tolist()]
    assert alone[0] == np.nextafter(tail, np.inf) and np.isnan(alone[1]) and len(alone) == 2


@pytest.mark.parametrize("width", [1, _N + 1])
def test_exit_reads_the_edge_entry_the_carried_pivot_meets(width):
    # the pivot carried out of row _B - 1 is 0.25 at shift 0 and meets
    # |e| = 1; every row from _B on is dominant for shifts <= 0 with
    # |e| = 0.01, so a test that read the entry past the edge would stop
    # there, where row _B's pivot, 3 - 1 / 0.25 = -1 at shift 0 and still
    # negative at shift -0.05, counts
    n = 2 * _B + 9
    off2 = np.full(n - 1, 1e-4)
    off2[:_B] = 1.0
    diag = np.full(n, 3.0)
    pivot = diag[0]
    for i in range(1, _B - 1):
        pivot = diag[i] - off2[i - 1] / pivot
    diag[_B - 1] = off2[_B - 2] / pivot + 0.25
    shifts = -np.linspace(0.0, 0.05, width)
    expect = reference_counts(diag, off2, shifts)
    head = reference_counts(diag[:_B], off2[:_B - 1], shifts)
    assert np.all(expect == head + 1)
    for got in _by_path(diag, off2, shifts):
        assert np.array_equal(got, expect)


@pytest.mark.parametrize("width", [1, _N + 1, kernels.SHIFT_BATCH + 1])
def test_zero_rows_count_nothing(width):
    for got in _by_path(np.zeros(0), np.zeros(0), np.linspace(-1.0, 1.0, width)):
        assert got.tolist() == [0] * width


def test_factor_rejects_zero_rows():
    with pytest.raises(ValueError, match="at least one row"):
        kernels.shifted_tridiag_factor(np.zeros(0), np.zeros(0), 0.0)


def _solve(diag, off, shift, rhs):
    return kernels.shifted_tridiag_solve(*kernels.shifted_tridiag_factor(diag, off, shift),
                                         off, rhs)


def test_solve_residual():
    rng = np.random.default_rng(7)
    diag, off = _random_tridiag(rng, 200)
    rhs = rng.standard_normal(200)
    shift = 0.37
    x = _solve(diag, off, shift, rhs)
    m = _dense(diag, off) - shift * np.eye(200)
    assert np.linalg.norm(m @ x - rhs) / np.linalg.norm(rhs) < 1e-9


def test_solve_survives_singular_shift():
    # inverse iteration solves at (near-)eigenvalue shifts on purpose; the
    # clamped pivot must yield a finite, eigenvector-dominated solution
    diag = np.array([2.0, 2.0, 2.0])
    off = np.array([-1.0, -1.0])
    eigs = np.linalg.eigvalsh(_dense(diag, off))
    rhs = np.ones(3)
    x = _solve(diag, off, float(eigs[0]), rhs)
    assert np.all(np.isfinite(x))
    v = x / np.linalg.norm(x)
    m = _dense(diag, off)
    assert np.linalg.norm(m @ v - eigs[0] * v) < 1e-6


def test_solve_clamps_first_and_last_pivot():
    # the shift zeroes the first and the last pivot exactly; the last row is
    # decoupled and its right-hand side is 0, so the system stays consistent
    shift = 1.0
    diag = np.array([1.0, 3.0, 3.5, 3.0, 2.5, 1.0])
    off = np.array([1.0, -1.0, 0.5, 1.0, 0.0])
    rhs = np.array([0.0, 1.0, -2.0, 3.0, 4.0, 0.0])
    x = _solve(diag, off, shift, rhs)
    assert np.all(np.isfinite(x))
    m = _dense(diag, off) - shift * np.eye(6)
    assert np.linalg.norm(m @ x - rhs) / np.linalg.norm(rhs) < 1e-12
    assert np.allclose(x[:5], np.linalg.solve(m[:5, :5], rhs[:5]), rtol=1e-12, atol=1e-12)


# the tests above: a random system, a singular shift, and zero first and last pivots
_CLAMPED = (np.array([1.0, 3.0, 3.5, 3.0, 2.5, 1.0]), np.array([1.0, -1.0, 0.5, 1.0, 0.0]), 1.0,
            np.array([0.0, 1.0, -2.0, 3.0, 4.0, 0.0]))


def test_factored_solve_matches_one_pass_thomas_bit_for_bit():
    rng = np.random.default_rng(11)
    diag, off = _random_tridiag(rng, 500)
    cases = [(diag, off, 0.37, rng.standard_normal(500)), _CLAMPED,
             (np.full(3, 2.0), np.full(2, -1.0), 2.0 - np.sqrt(2.0), np.ones(3)),
             (np.zeros(4), np.zeros(3), 0.0, np.array([1.0, -2.0, 0.0, -0.0]))]
    for d, e, shift, rhs in cases:
        factor = kernels.shifted_tridiag_factor(d, e, shift)
        # a factorization serves every right-hand side, as in inverse iteration
        for b in (rhs, rhs[::-1], 3.0 * rhs):
            x = kernels.shifted_tridiag_solve(*factor, e, b)
            assert np.array_equal(x.view(np.int64), thomas_solve(d, e, shift, b).view(np.int64))


def test_factor_clamps_first_and_last_pivot():
    diag, off, shift, _ = _CLAMPED
    pivots, ratios = kernels.shifted_tridiag_factor(diag, off, shift)
    pivmin = kernels.pivot_floor(off * off)
    assert pivots[0] == pivots[-1] == pivmin  # 0.0 keeps the + sign
    assert ratios[-1] == 0.0


@pytest.mark.parametrize("shift, pivot", [(0.5, 2.5), (3.0, kernels._SAFE_MIN)])
def test_factor_and_solve_one_row(shift, pivot):
    # rows -1 and 1 are virtual, so one row is an ordinary case: x = r / (d - s),
    # with the pivot d - s clamped like any other (to pivmin, float64's tiny here)
    off = np.zeros(0)
    pivots, ratios = kernels.shifted_tridiag_factor(np.array([3.0]), off, shift)
    assert pivots.tolist() == [pivot] and ratios.tolist() == [0.0]
    x = kernels.shifted_tridiag_solve(pivots, ratios, off, np.ones(1))
    assert x.tolist() == [1.0 / pivot]
