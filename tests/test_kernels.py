import numpy as np
import pytest

from susywell import kernels


def _random_tridiag(rng, n):
    diag = rng.standard_normal(n) * 3.0
    off = rng.standard_normal(n - 1)
    return diag, off


def _dense(diag, off):
    m = np.diag(diag)
    m += np.diag(off, 1) + np.diag(off, -1)
    return m


def test_counts_two_by_two():
    # [[2,-1],[-1,2]] has eigenvalues {1, 3}
    diag = np.array([2.0, 2.0])
    off2 = np.array([1.0])
    counts = kernels.sturm_counts(diag, off2, np.array([0.5, 2.0, 3.5]))
    assert counts.tolist() == [0, 1, 2]


def test_counts_match_dense_eigenvalues():
    rng = np.random.default_rng(42)
    for _ in range(10):
        diag, off = _random_tridiag(rng, 60)
        eigs = np.linalg.eigvalsh(_dense(diag, off))
        shifts = rng.uniform(eigs[0] - 1, eigs[-1] + 1, size=7)
        counts = kernels.sturm_counts(diag, off * off, shifts)
        expect = [int(np.sum(eigs < s)) for s in shifts]
        assert counts.tolist() == expect


def _reference_counts(diag, off_squared, shifts):
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
    assert np.array_equal(got, _reference_counts(diag, off2, shifts))


def test_counts_clamp_exact_pivot():
    # shift 1 on diag [1, 1] makes the first pivot exactly zero
    diag = np.array([1.0, 1.0])
    off2 = np.array([0.25])
    shifts = np.array([1.0, 0.25, 2.0])
    got = kernels.sturm_counts(diag, off2, shifts)
    assert np.array_equal(got, _reference_counts(diag, off2, shifts))
    assert got.tolist() == [1, 0, 2]  # eigenvalues 0.5 and 1.5


def test_solve_residual():
    rng = np.random.default_rng(7)
    diag, off = _random_tridiag(rng, 200)
    rhs = rng.standard_normal(200)
    shift = 0.37
    x = kernels.shifted_tridiag_solve(diag, off, shift, rhs)
    m = _dense(diag, off) - shift * np.eye(200)
    assert np.linalg.norm(m @ x - rhs) / np.linalg.norm(rhs) < 1e-9


def test_solve_survives_singular_shift():
    # inverse iteration solves at (near-)eigenvalue shifts on purpose; the
    # clamped pivot must yield a finite, eigenvector-dominated solution
    diag = np.array([2.0, 2.0, 2.0])
    off = np.array([-1.0, -1.0])
    eigs = np.linalg.eigvalsh(_dense(diag, off))
    rhs = np.ones(3)
    x = kernels.shifted_tridiag_solve(diag, off, float(eigs[0]), rhs)
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
    x = kernels.shifted_tridiag_solve(diag, off, shift, rhs)
    assert np.all(np.isfinite(x))
    m = _dense(diag, off) - shift * np.eye(6)
    assert np.linalg.norm(m @ x - rhs) / np.linalg.norm(rhs) < 1e-12
    assert np.allclose(x[:5], np.linalg.solve(m[:5, :5], rhs[:5]), rtol=1e-12, atol=1e-12)
