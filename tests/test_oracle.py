import math

import numpy as np
import pytest

from susywell import kernels, oracle
from susywell.hyperpoly import eigenfunction, evaluate, ground_form
from susywell.oracle import (
    DiscretizedHamiltonian,
    RadialGrid,
    _bisect_lowest,
    apply_ladder_numeric,
    build_hamiltonian,
    count_nodes,
    default_grid,
    eigenvector_for,
    inner_product,
    lowest_eigenvalues,
)
from susywell.params import ladder, make_params

PR = make_params(7, 0.5)
ACCEPT_GRID = RadialGrid(x_min=0.01, x_max=24.0, n_points=12000)

# converged reference levels of the actual well (mesh-refined, Richardson
# extrapolated, cross-checked against LAPACK); only n=0 and n=1 agree with
# the closed-form ladder values
TRUE_LEVELS = [0.0, 58.0, 105.1179, 142.6092, 171.8352, 194.1682, 210.8754, 223.0293]


@pytest.fixture(scope="module")
def reference_solution():
    H = build_hamiltonian(PR, ACCEPT_GRID)
    vals = lowest_eigenvalues(H, 9)
    return H, vals


def test_grid_invariants():
    with pytest.raises(ValueError):
        RadialGrid(x_min=0.0, x_max=1.0, n_points=500)
    with pytest.raises(ValueError):
        RadialGrid(x_min=2.0, x_max=1.0, n_points=500)
    with pytest.raises(ValueError):
        RadialGrid(x_min=0.1, x_max=1.0, n_points=50)
    g = RadialGrid(x_min=1.0, x_max=2.0, n_points=100)
    pts = g.points()
    assert len(pts) == 100
    assert pts[0] == pytest.approx(1.0 + g.h)
    assert pts[-1] == pytest.approx(2.0 - g.h)


def test_default_grid_shape():
    g = default_grid(PR)
    assert g.x_min == pytest.approx(0.02)
    assert g.x_max == pytest.approx(20.0)  # clamped at 10/p
    soft = default_grid(make_params("3/5", "1/2"))
    assert soft.x_min == pytest.approx(2e-4)


def test_build_hamiltonian_rejects_singular_grid():
    # every interior point sits below the p*x = 1e-8 wall
    with pytest.raises(ValueError, match="singular wall"):
        build_hamiltonian(PR, RadialGrid(x_min=1e-10, x_max=1e-8, n_points=100))


def test_particle_in_a_box_levels():
    # V = 0 on (0, pi): eigenvalues k^2 up to O(h^2)
    vals = lowest_eigenvalues(_box_hamiltonian(), 4)
    for k, v in enumerate(vals, start=1):
        assert v == pytest.approx(k * k, abs=5e-3 * k**4)


def _box_hamiltonian(n=4000):
    grid = RadialGrid(x_min=1e-9, x_max=math.pi + 1e-9, n_points=n)
    inv_h2 = 1.0 / grid.h**2
    return DiscretizedHamiltonian(
        grid=grid, diag=np.full(n, 2.0 * inv_h2), offdiag=np.full(n - 1, -inv_h2)
    )


def _reference_lowest(H, m):
    # one bisection level per count: the loop multisection must reproduce
    off2 = H.offdiag * H.offdiag
    radius = np.abs(H.offdiag)
    reach = np.zeros_like(H.diag)
    reach[:-1] += radius
    reach[1:] += radius
    lo_bound = float(np.min(H.diag - reach))
    hi_bound = float(np.max(H.diag + reach))
    tol = oracle._BISECT_REL_TOL * max(abs(lo_bound), abs(hi_bound), 1.0)
    lo = np.full(m, lo_bound)
    hi = np.full(m, hi_bound)
    want = np.arange(1, m + 1)
    while not np.all(hi - lo <= tol):
        mid = 0.5 * (lo + hi)
        below = kernels.sturm_counts(H.diag, off2, mid) >= want
        hi = np.where(below, mid, hi)
        lo = np.where(below, lo, mid)
    return [float(v) for v in 0.5 * (lo + hi)]


@pytest.mark.parametrize(
    "well, m",
    [("box", 1), ("box", 4), (("7", "1/2"), 11), (("10", "1/4"), 24)],
    ids=["box-m1", "box-m4", "7,1/2-m11", "10,1/4-m24"],
)
def test_multisection_matches_plain_bisection(well, m):
    if well == "box":
        H = _box_hamiltonian()
    else:
        params = make_params(*well)
        H = build_hamiltonian(params, default_grid(params))
    assert lowest_eigenvalues(H, m) == _reference_lowest(H, m)


def test_bisection_solve_makes_few_counts(monkeypatch):
    # one count call per multisection pass: 9 for this solve, 44 with one
    # bisection level per call
    calls = []
    count = kernels.sturm_counts

    def counting(*args, **kwargs):
        calls.append(np.size(args[2]))
        return count(*args, **kwargs)

    monkeypatch.setattr(kernels, "sturm_counts", counting)
    H = build_hamiltonian(PR, default_grid(PR))
    lowest_eigenvalues(H, 11)
    assert len(calls) <= 10
    assert max(calls) <= kernels.SHIFT_BATCH


def test_bisection_iteration_limit(monkeypatch):
    # a zero tolerance never closes the bracket of an eigenvalue that falls
    # between two floats
    monkeypatch.setattr(oracle, "_BISECT_REL_TOL", 0.0)
    with pytest.raises(RuntimeError, match="iteration limit"):
        lowest_eigenvalues(_box_hamiltonian(200), 2)


def test_two_by_two_bisection():
    vals = _bisect_lowest(np.array([2.0, 2.0]), np.array([-1.0]), 2)
    assert vals == pytest.approx([1.0, 3.0], abs=1e-9)


def test_matvec_matches_dense():
    rng = np.random.default_rng(3)
    n = 200
    grid = RadialGrid(x_min=0.1, x_max=5.0, n_points=n)
    diag = rng.standard_normal(n)
    off = rng.standard_normal(n - 1)
    H = DiscretizedHamiltonian(grid=grid, diag=diag, offdiag=off)
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    for _ in range(5):
        v = rng.standard_normal(n)
        assert np.allclose(H.matvec(v), dense @ v, rtol=1e-12, atol=1e-12)


def test_reference_well_first_two_levels(reference_solution):
    _, vals = reference_solution
    assert abs(vals[0]) <= 0.05
    assert vals[1] == pytest.approx(58.0, abs=0.05)


def test_reference_well_true_levels(reference_solution):
    _, vals = reference_solution
    for n, expect in enumerate(TRUE_LEVELS):
        assert vals[n] == pytest.approx(expect, abs=0.05)


def test_higher_ladder_values_are_not_eigenvalues(reference_solution):
    # the closed-form ladder and the well part ways from n=2 on
    _, vals = reference_solution
    ladder_values = [108.0, 150.0, 184.0, 210.0, 228.0, 238.0]
    for n, lv in enumerate(ladder_values, start=2):
        assert abs(vals[n] - lv) > 1.0


def test_more_levels_below_threshold_than_the_ladder_retains():
    H = build_hamiltonian(PR, RadialGrid(x_min=0.01, x_max=30.0, n_points=9000))
    vals = lowest_eigenvalues(H, 13)
    below = [v for v in vals if v < 240.25]
    assert len(below) == 11


def test_lapack_cross_check():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    grid = RadialGrid(x_min=0.01, x_max=24.0, n_points=4000)
    H = build_hamiltonian(PR, grid)
    ours = lowest_eigenvalues(H, 6)
    ref = scipy_linalg.eigh_tridiagonal(
        H.diag, H.offdiag, select="i", select_range=(0, 5), eigvals_only=True
    )
    assert np.allclose(ours, ref, atol=1e-6, rtol=0.0)


def test_grid_convergence_second_order():
    # E_1 = 58 exactly, so the error itself is usable
    errs = []
    for n in (3000, 6001):
        H = build_hamiltonian(PR, RadialGrid(x_min=0.01, x_max=24.0, n_points=n))
        errs.append(abs(lowest_eigenvalues(H, 2)[1] - 58.0))
    assert 3.4 < errs[0] / errs[1] < 4.6


def test_eigenvector_results(reference_solution):
    H, vals = reference_solution
    norm = H.norm_bound()
    for n in (0, 1, 3):
        res = eigenvector_for(H, vals[n])
        assert res.index == n
        assert res.node_count == n
        assert res.residual <= 1e-8 * norm
        assert H.grid.h * np.dot(res.eigenvector, res.eigenvector) == pytest.approx(1.0)


def test_eigenvector_matches_exact_form(reference_solution):
    H, vals = reference_solution
    xs = ACCEPT_GRID.points()
    for n in (0, 1):
        res = eigenvector_for(H, vals[n])
        sym = evaluate(eigenfunction(n, PR), xs)
        sym = sym / math.sqrt(inner_product(sym, sym, ACCEPT_GRID))
        num = res.eigenvector
        if inner_product(sym, num, ACCEPT_GRID) < 0:
            num = -num
        # sup difference relative to amplitude; pointwise ratios blow up in
        # the O(h^2)-shifted node neighborhoods
        rel = np.max(np.abs(sym - num)) / np.max(np.abs(sym))
        assert rel < 1e-3


def test_annihilation_kills_ground_state():
    xs = ACCEPT_GRID.points()
    psi0 = evaluate(eigenfunction(0, PR), xs)
    out = apply_ladder_numeric(PR, 0, "annihilation", psi0, ACCEPT_GRID)
    assert np.linalg.norm(out) / np.linalg.norm(psi0) < 1e-5


def test_creation_reproduces_first_excited_up_to_constant():
    grid = RadialGrid(x_min=0.01, x_max=24.0, n_points=12000)
    xs = grid.points()
    src = evaluate(ground_form(ladder(PR, 1), PR.p), xs)
    made = apply_ladder_numeric(PR, 0, "creation", src, grid)
    target = evaluate(eigenfunction(1, PR), xs)
    mask = (np.abs(target) > 1e-3 * np.max(np.abs(target))) & (xs > 0.4)
    ratio = made[mask] / target[mask]
    spread = (np.max(ratio) - np.min(ratio)) / abs(np.mean(ratio))
    assert spread < 1e-6


def test_apply_ladder_rejects_bad_sign():
    xs = ACCEPT_GRID.points()
    with pytest.raises(ValueError, match="creation"):
        apply_ladder_numeric(PR, 0, "lowering", np.zeros_like(xs), ACCEPT_GRID)


def test_inner_product_and_nodes():
    grid = RadialGrid(x_min=0.01, x_max=24.0, n_points=5000)
    xs = grid.points()
    v = np.sin(xs)
    v = v / math.sqrt(inner_product(v, v, grid))
    assert inner_product(v, v, grid) == pytest.approx(1.0)
    w = np.cos(xs)
    assert oracle.dot(v, w) == pytest.approx(float(np.dot(v, w)), rel=1e-12)
    assert oracle.norm2(w) == pytest.approx(float(np.linalg.norm(w)), rel=1e-12)
    # cosh(4px) - 2 cosh(2px) has exactly one sign change for x > 0;
    # sample it scaled by exp(-4px) so the noise floor (relative to the
    # sample maximum) stays meaningful across the exponential range
    series = (np.cosh(2.0 * xs) - 2.0 * np.cosh(xs)) * np.exp(-2.0 * xs)
    assert count_nodes(series) == 1
    assert count_nodes(np.zeros(10)) == 0
    with pytest.raises(ValueError):
        inner_product(v[:-1], v, grid)


def test_lowest_eigenvalues_argument_check(reference_solution):
    H, _ = reference_solution
    with pytest.raises(ValueError):
        lowest_eigenvalues(H, 0)
    with pytest.raises(ValueError):
        lowest_eigenvalues(H, H.diag.size + 1)
