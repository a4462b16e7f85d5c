import numpy as np

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

