"""Independent grid eigensolver for -psi'' + V psi = E psi on the half line.

Second-order central differences on a truncated interval with Dirichlet
ends give a symmetric tridiagonal matrix; the lowest eigenvalues are
isolated by Sturm-sequence bisection and eigenvectors recovered by shifted
inverse iteration.  Also hosts the grid utilities (trapezoid quadrature,
node counting, first-order ladder operators) used for cross-validation.

Bisection runs in multisection passes (Lo, Philippe & Sameh 1987): one
Sturm count call evaluates every midpoint that plain bisection could reach
from the live brackets in the next few levels, and the levels are then
walked exactly as plain bisection would walk them.  A count at one shift
does not depend on the others in its batch, so the bisection path and
every eigenvalue are those of one level per count, with far fewer calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .params import ModelParams, ladder
from .potential import potential_closed_form, superpotential
from .spectrum import max_bound_states, state_decay_rate

# documented contract is 1e-10 * ||H||; running tighter costs ~10 extra
# bisection rounds and keeps inverse-iteration tails below the node floor
_BISECT_REL_TOL = 1e-13
_MAX_BISECT_ITER = 200
_MAX_INVERSE_ITER = 60
# largest grid: one float64 sample array stays at 80 MB
_MAX_GRID_POINTS = 10_000_000


class GridError(ValueError):
    """A grid the finite-difference problem cannot be posed on."""


@dataclass(frozen=True)
class RadialGrid:
    """Uniform interior points x_i = x_min + i*h, i = 1..n_points, with
    Dirichlet boundaries at x_min and x_max."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not (0.0 < self.x_min < self.x_max < np.inf):
            raise GridError("grid requires 0 < x_min < x_max < inf")
        if self.n_points < 100:
            raise GridError("grid requires at least 100 interior points")
        if self.n_points > _MAX_GRID_POINTS:
            raise GridError(f"grid allows at most {_MAX_GRID_POINTS} interior points")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points + 1)

    def points(self) -> np.ndarray:
        return self.x_min + self.h * np.arange(1, self.n_points + 1)


@dataclass(frozen=True)
class DiscretizedHamiltonian:
    grid: RadialGrid
    diag: np.ndarray
    offdiag: np.ndarray

    def norm_bound(self) -> float:
        """Infinity-norm bound, the scale for all tolerance schedules."""
        return float(np.max(np.abs(self.diag)) + 2.0 * np.max(np.abs(self.offdiag)))

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        out[:-1] += self.offdiag * v[1:]
        out[1:] += self.offdiag * v[:-1]
        return out


@dataclass(frozen=True)
class EigenResult:
    index: int
    eigenvalue: float
    eigenvector: np.ndarray  # unit L2 norm under the trapezoid weight
    node_count: int
    residual: float


def default_grid(params: ModelParams, n_points: int = 12000) -> RadialGrid:
    """Grid defaults tuned to the state geometry.

    x_min = 1e-2/p when the origin exponent B/p is comfortably large,
    tightened to 1e-4/p when B/p < 3 (the Dirichlet error at x_min scales
    like x_min^(2B/p - 1), which becomes the dominant error for soft
    origin exponents).  x_max covers six decay lengths of the slowest
    bound state, clamped to [10/p, 200/p].
    """
    p = float(params.p)
    tau = float(params.B / params.p)
    x_min = (1e-2 if tau >= 3.0 else 1e-4) / p
    n_max = max_bound_states(params)
    slowest = -float(state_decay_rate(params, n_max))
    x_max = 6.0 / slowest
    x_max = min(max(x_max, 10.0 / p), 200.0 / p)
    return RadialGrid(x_min=x_min, x_max=x_max, n_points=n_points)


def build_hamiltonian(params: ModelParams, grid: RadialGrid) -> DiscretizedHamiltonian:
    """2/h^2 + V(x_i) on the diagonal, -1/h^2 off it, Dirichlet ends."""
    x = grid.points()
    v = potential_closed_form(x, params)
    if not np.all(np.isfinite(v)):
        raise GridError(
            "potential is not representable on this grid "
            f"(x_min = {grid.x_min} reaches the singular wall)"
        )
    inv_h2 = 1.0 / grid.h**2
    diag = 2.0 * inv_h2 + v
    offdiag = np.full(grid.n_points - 1, -inv_h2)
    return DiscretizedHamiltonian(grid=grid, diag=diag, offdiag=offdiag)


def _bisect_lowest(diag: np.ndarray, offdiag: np.ndarray, m: int) -> list[float]:
    off2 = offdiag * offdiag
    radius = np.abs(offdiag)
    reach = np.zeros_like(diag)
    reach[:-1] += radius
    reach[1:] += radius
    lo_bound = float(np.min(diag - reach))
    hi_bound = float(np.max(diag + reach))
    norm = max(abs(lo_bound), abs(hi_bound), 1.0)
    tol = _BISECT_REL_TOL * norm

    lo = np.full(m, lo_bound)
    hi = np.full(m, hi_bound)
    want = np.arange(1, m + 1)  # eigenvalue j is below x iff count(x) >= j+1
    levels_left = 0
    for _ in range(_MAX_BISECT_ITER):
        if np.all(hi - lo <= tol):
            break
        if levels_left == 0:
            shifts, counts, levels_left = _multisection_pass(diag, off2, lo, hi)
        mid = 0.5 * (lo + hi)
        below = counts[np.searchsorted(shifts, mid)] >= want
        hi = np.where(below, mid, hi)
        lo = np.where(below, lo, mid)
        levels_left -= 1
    else:
        raise RuntimeError("Sturm bisection hit the iteration limit (pathological grid?)")
    return [float(v) for v in 0.5 * (lo + hi)]


def _multisection_pass(diag, off2, lo, hi):
    """Sturm counts, from one kernel call, at every midpoint that plain
    bisection can reach from the brackets (lo, hi) within the returned
    number of levels: as many levels (at least one) as keep the midpoints
    within kernels.SHIFT_BATCH for the distinct brackets.

    The midpoints are built with the same 0.5 * (lo + hi) arithmetic as
    the bisection that looks them up, so every lookup hits exactly.
    Brackets are monotone in the eigenvalue index, so equal brackets are
    neighbours; a bracket is expanded once however many eigenvalues share it.
    """
    fresh = np.ones(lo.shape[0], dtype=bool)
    fresh[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    a, b = lo[fresh], hi[fresh]
    depth = max(1, (kernels.SHIFT_BATCH // a.shape[0] + 1).bit_length() - 1)
    points = []
    for _ in range(depth):
        mid = 0.5 * (a + b)
        points.append(mid)
        a, b = np.concatenate((a, mid)), np.concatenate((mid, b))
    shifts = np.sort(np.concatenate(points))
    keep = np.ones(shifts.shape[0], dtype=bool)
    keep[1:] = shifts[1:] != shifts[:-1]
    shifts = shifts[keep]
    return shifts, kernels.sturm_counts(diag, off2, shifts), depth


def lowest_eigenvalues(H: DiscretizedHamiltonian, m: int) -> list[float]:
    """The m smallest eigenvalues, each isolated by Sturm bisection to
    absolute tolerance 1e-10 * ||H||; deterministic for fixed inputs."""
    n = H.diag.shape[0]
    if not (1 <= m <= n):
        raise ValueError(f"need 1 <= m <= {n}, got {m}")
    return _bisect_lowest(H.diag, H.offdiag, m)


def eigenvector_for(H: DiscretizedHamiltonian, eigenvalue: float) -> EigenResult:
    """Inverse iteration at the given (isolated) eigenvalue.

    Returns the trapezoid-unit-norm vector, its node count, the Rayleigh
    refined eigenvalue, and the 2-norm residual ||Hv - lambda v|| for a
    unit 2-norm v.
    """
    n = H.diag.shape[0]
    norm = H.norm_bound()
    tol = 1e-8 * norm
    rng = np.random.default_rng(20240811)  # fixed seed: deterministic output
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    rayleigh = float(eigenvalue)
    residual = np.inf
    previous = np.inf
    for _ in range(_MAX_INVERSE_ITER):
        w = kernels.shifted_tridiag_solve(H.diag, H.offdiag, eigenvalue, v)
        nrm = np.linalg.norm(w)
        if not np.isfinite(nrm) or nrm == 0.0:
            raise RuntimeError("inverse iteration produced a degenerate vector")
        w /= nrm
        hv = H.matvec(w)
        rayleigh = float(np.dot(w, hv))
        residual = float(np.linalg.norm(hv - rayleigh * w))
        v = w
        # run to the roundoff floor, not just below tol: clean tails are
        # what the node counter needs
        if residual <= tol and residual > 0.25 * previous:
            break
        previous = residual
    else:
        raise RuntimeError(
            f"inverse iteration failed to converge (residual {residual:.3e}, "
            f"tolerance {tol:.3e})"
        )
    if v[int(np.argmax(np.abs(v)))] < 0.0:
        v = -v
    index = int(
        kernels.sturm_counts(
            H.diag, H.offdiag * H.offdiag, np.array([rayleigh - 1e-9 * norm])
        )[0]
    )
    nodes = count_nodes(v)
    v_unit = v / np.sqrt(H.grid.h)  # trapezoid-weight unit norm
    return EigenResult(
        index=index,
        eigenvalue=rayleigh,
        eigenvector=v_unit,
        node_count=nodes,
        residual=residual,
    )


def inner_product(values_a: np.ndarray, values_b: np.ndarray, grid: RadialGrid) -> float:
    """Trapezoid quadrature with the Dirichlet zeros at both ends implied."""
    if values_a.shape != values_b.shape or values_a.shape[0] != grid.n_points:
        raise ValueError("values must both be sampled on the grid's interior points")
    return float(grid.h * np.dot(values_a, values_b))


def count_nodes(values: np.ndarray) -> int:
    """Strict sign changes, ignoring entries below 1e-12 * max|values|."""
    scale = float(np.max(np.abs(values)))
    if scale == 0.0:
        return 0
    kept = values[np.abs(values) > 1e-12 * scale]
    if kept.size < 2:
        return 0
    signs = np.sign(kept)
    return int(np.sum(signs[1:] * signs[:-1] < 0))


def _derivative_5pt(values: np.ndarray, h: float) -> np.ndarray:
    """Five-point-stencil first derivative, second-order one-sided ends."""
    n = values.shape[0]
    if n < 5:
        raise ValueError("need at least 5 samples for the 5-point stencil")
    out = np.empty_like(values)
    out[2:-2] = (values[:-4] - 8.0 * values[1:-3] + 8.0 * values[3:-1] - values[4:]) / (12.0 * h)
    out[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * h)
    out[1] = (values[2] - values[0]) / (2.0 * h)
    out[-2] = (values[-1] - values[-3]) / (2.0 * h)
    out[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * h)
    return out


def apply_ladder_numeric(
    params: ModelParams, k: int, sign: str, values: np.ndarray, grid: RadialGrid
) -> np.ndarray:
    """Apply (-d/dx + W(x, a_k)) ("creation") or (+d/dx + W(x, a_k))
    ("annihilation") to grid samples, with a 5-point-stencil derivative."""
    if sign not in ("creation", "annihilation"):
        raise ValueError('sign must be "creation" or "annihilation"')
    x = grid.points()
    w = superpotential(x, ladder(params, k), params.p)
    dv = _derivative_5pt(values, grid.h)
    return w * values - dv if sign == "creation" else w * values + dv
