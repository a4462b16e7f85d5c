"""Cross-validation of every closed-form claim against the grid eigensolver.

Each check is independent and reports a measured number next to its
threshold, so a failure says *how far off* the claim is, not just that it
failed.  Every check reads one record of the well, built once, and returns
(passed, detail); `_CHECKS` names each check once, in report order.  The
suite is deterministic for fixed inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations

import numpy as np

from . import analysis, hyperpoly, oracle
from .params import ModelParams, ladder, ladder_offset, shift_constant
from .potential import partner_plus, potential_closed_form, shape_invariance_residual
from .spectrum import Spectrum, full_spectrum, max_bound_states, state_decay_rate

ENERGY_ABS_TOL = 0.05
ENERGY_REL_TOL = 1e-4
SHAPE_TOL = 1e-9
RESIDUAL_TOL = 1e-6
OVERLAP_TOL = 1e-6
ANNIHILATION_TOL = 1e-5
INTERTWINING_TOL = 1e-4
MINIMUM_DERIV_TOL = 1e-8


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass
class ValidationReport:
    checks: list[CheckResult] = field(default_factory=list)
    # energy_comparison, levels_below_asymptote, minimum (an analysis.MinimumReport)
    extras: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def first_failure(self) -> "CheckResult | None":
        for c in self.checks:
            if not c.passed:
                return c
        return None


@dataclass(frozen=True)
class _Well:
    params: ModelParams
    spec: Spectrum
    H: oracle.DiscretizedHamiltonian  # on the report's grid, H.grid
    numeric: list[float]  # the n_max + 1 lowest levels of H
    # levels of H below the asymptote, counted up to n_max + 4
    levels_below_asymptote: int
    forms: list[hyperpoly.HyperbolicForm]  # the exact forms n = 0..n_max
    psi01: tuple[np.ndarray, np.ndarray]  # forms 0 and 1 sampled on H.grid
    # H.grid points at x >= 0.2/p, where the stencil norms are taken: the
    # x^tau cusp at the origin is outside its accuracy range for soft exponents
    bulk: np.ndarray
    extras: dict


def _check_telescoping(well: _Well) -> tuple[bool, str]:
    params = well.params
    a0 = ladder_offset(ladder(params, 0))
    running = Fraction(0)
    for n, closed in well.spec.levels:
        telescoped = ladder_offset(ladder(params, n)) - a0
        if not closed == telescoped == running:
            return False, (f"energy routes disagree at n={n}: closed {closed}, "
                           f"telescoped {telescoped}, summed {running}")
        running += shift_constant(params, n)
    return True, f"sum of shift constants equals closed form for n<=n_max={well.spec.n_max}"


def _check_cutoff(well: _Well) -> tuple[bool, str]:
    n_max = well.spec.n_max
    last = state_decay_rate(well.params, n_max)
    beyond = state_decay_rate(well.params, n_max + 1)
    ok = last < 0 <= beyond
    return ok, f"decay rate {float(last):+g} at n_max={n_max}, {float(beyond):+g} beyond"


def _check_prefactor(well: _Well) -> tuple[bool, str]:
    params = well.params
    sigma_expect = -(params.B + params.p) / params.p
    tau_expect = params.B / params.p
    for n, form in enumerate(well.forms):
        if form.sigma != sigma_expect or form.tau != tau_expect:
            return False, f"n={n}: got (sigma, tau) = ({form.sigma}, {form.tau})"
        if form.top_index != 2 * n:
            return False, f"n={n}: series length {form.top_index + 1} != {2 * n + 1}"
    return True, f"sigma = {sigma_expect}, tau = {tau_expect}, 2n+1 coefficients for every n"


def _check_first_excited(well: _Well) -> tuple[bool, str]:
    c = 2 * well.params.B + well.params.p
    expect = (Fraction(0), -2 * c, c)
    got = well.forms[1].coeffs
    ok = len(got) == 3 and got[0] == 0 and got[1] * expect[2] == got[2] * expect[1]
    return ok, (f"coefficients {tuple(str(Fraction(g, well.forms[1].den)) for g in got)} "
                f"vs proportional (0, {-2 * c}, {c})")


def _check_shape_invariance(well: _Well) -> tuple[bool, str]:
    # scan exactly the rungs the eigenfunction construction uses; n_max >= 1
    # for every admissible well, since r = B/(2p) + 3/4 > 5/4
    params = well.params
    p = float(params.p)
    xs = np.geomspace(1e-3 / p, 30.0 / p, 10_000)
    worst = 0.0
    worst_k = 0
    for k in range(well.spec.n_max):
        res = shape_invariance_residual(xs, params, k)
        scale = np.maximum(1.0, np.abs(partner_plus(xs, ladder(params, k), params.p)))
        m = float(np.max(np.abs(res) / scale))
        if m > worst:
            worst, worst_k = m, k
    return worst <= SHAPE_TOL, (f"max scaled residual {worst:.3e} at rung k={worst_k} "
                                f"(tolerance {SHAPE_TOL:.0e})")


def _check_energies(well: _Well) -> tuple[bool, str]:
    asym = float(well.spec.asymptote)
    tol = max(ENERGY_ABS_TOL, ENERGY_REL_TOL * asym)
    table = []
    worst = 0.0
    worst_n = 0
    for n, e in well.spec.levels:
        diff = well.numeric[n] - float(e)
        table.append(
            {"n": n, "closed": float(e), "numeric": well.numeric[n], "difference": diff}
        )
        if abs(diff) > worst:
            worst, worst_n = abs(diff), n
    well.extras["energy_comparison"] = table
    well.extras["levels_below_asymptote"] = well.levels_below_asymptote
    return worst <= tol, (f"max |E_num - E_closed| = {worst:.4g} at n={worst_n} "
                          f"(tolerance {tol:.3g})")


def _check_convergence(well: _Well) -> tuple[bool, str]:
    # difference ratio on E_1 across h, h/2, h/4; immune to the constant
    # truncation offset, isolates the h^2 order of the stencil.  Each solve
    # is seeded with cuts halfway between the main solve's E_0, E_1 and the
    # next level up, or the asymptote when n_max = 1: the refinements move
    # the levels far less, and no cut reaches the asymptote, so every count
    # stops early
    e0, e1 = well.numeric[:2]
    top = well.numeric[2] if len(well.numeric) > 2 else float(well.spec.asymptote)
    shifts = (0.5 * (e0 + e1), 0.5 * (e1 + top))
    e = []
    for n_points in (2999, 5999, 11999):
        H = oracle.build_hamiltonian(well.params, replace(well.H.grid, n_points=n_points))
        e.append(oracle.lowest_eigenvalues(H, 2, oracle.count_cuts(H, shifts))[1])
    d1, d2 = e[0] - e[1], e[1] - e[2]
    if d2 == 0.0:
        return False, "degenerate refinement differences"
    ratio = d1 / d2
    # ~4 for smooth states; the x^(B/p) cusp at the origin drags soft
    # exponents below clean second order, so accept a band around 4
    return 2.5 <= ratio <= 5.5, f"refinement ratio {ratio:.3f} (expect ~4 for order 2)"


def _norm_ratio(a: np.ndarray, b: np.ndarray) -> float:
    """|a| / |b|, both scaled by one power of two, exactly, so that neither
    sum of squares under- or overflows where b is finite and nonzero."""
    shift = -math.frexp(float(np.max(np.abs(b))))[1]
    return float(oracle.norm2(np.ldexp(a, shift)) / oracle.norm2(np.ldexp(b, shift)))


def _check_residuals(well: _Well) -> tuple[bool, str]:
    params = well.params
    p = float(params.p)
    xs = np.linspace(0.05 / p, 24.0 / p, 4000)
    v = potential_closed_form(xs, params)
    scale = float((params.A - params.B) ** 2)
    worst, worst_n = 0.0, 0
    for (n, e), form in zip(well.spec.levels, well.forms):
        psi, _, d2 = hyperpoly.evaluate_derivatives(form, xs)
        r = -d2 + (v - float(e)) * psi
        rel = _norm_ratio(r, scale * psi)
        if rel > worst:
            worst, worst_n = rel, n
    return worst <= RESIDUAL_TOL, (f"max relative H-residual {worst:.3e} at n={worst_n} "
                                   f"(tolerance {RESIDUAL_TOL:.0e})")


def _check_nodes(well: _Well) -> tuple[bool, str]:
    counts = hyperpoly.node_counts(well.forms)
    bad = [(n, nodes) for n, nodes in enumerate(counts) if nodes != n]
    return not bad, "every form has exactly n interior zeros" if not bad else f"mismatches {bad}"


def _check_orthogonality(well: _Well) -> tuple[bool, str]:
    p = float(well.params.p)
    grid = oracle.RadialGrid(x_min=0.005 / p, x_max=30.0 / p, n_points=60_000)
    vecs = hyperpoly.sample_forms(well.forms, grid.points())
    for v in vecs:
        v /= np.sqrt(oracle.inner_product(v, v, grid))
    worst, pair = 0.0, (0, 0)
    for i, j in combinations(range(len(vecs)), 2):
        ov = abs(oracle.inner_product(vecs[i], vecs[j], grid))
        if ov > worst:
            worst, pair = ov, (i, j)
    return worst <= OVERLAP_TOL, (f"max |overlap| = {worst:.3e} at pair {pair} "
                                  f"(tolerance {OVERLAP_TOL:.0e})")


def _check_annihilation(well: _Well) -> tuple[bool, str]:
    psi0 = well.psi01[0]
    out = oracle.apply_ladder_numeric(well.params, 0, "annihilation", psi0, well.H.grid)
    ratio = _norm_ratio(out[well.bulk], psi0[well.bulk])
    return ratio <= ANNIHILATION_TOL, (f"|A psi_0| / |psi_0| = {ratio:.3e} "
                                       f"(tolerance {ANNIHILATION_TOL:.0e})")


def _check_intertwining(well: _Well) -> tuple[bool, str]:
    # A psi_1 must be an eigenvector of the plus-partner at the same level
    params, grid = well.params, well.H.grid
    xs = grid.points()
    down = oracle.apply_ladder_numeric(params, 0, "annihilation", well.psi01[1], grid)
    e1 = float(well.spec.levels[1][1])
    vplus = partner_plus(xs, ladder(params, 0), params.p)
    h = grid.h
    lap = np.zeros_like(down)
    lap[1:-1] = (down[:-2] - 2.0 * down[1:-1] + down[2:]) / (h * h)
    r = -lap + (vplus - e1) * down
    # norm over the smooth bulk: near the origin the stencil error has
    # grid-scale structure the Laplacian amplifies by 1/h^2, and the end
    # rows, which the stencil does not reach, are dropped
    keep = well.bulk.copy()
    keep[:2] = False
    keep[-2:] = False
    rel = _norm_ratio(r[keep], e1 * down[keep])
    return rel <= INTERTWINING_TOL, (f"relative residual of H_plus on (A psi_1) = {rel:.3e} "
                                     f"(tolerance {INTERTWINING_TOL:.0e})")


def _check_oracle_self(well: _Well) -> tuple[bool, str]:
    # eigenvector_for returns only at a residual of at most 1e-8 * H.norm_bound()
    grid = well.H.grid
    issues = []
    for n, sym in enumerate(well.psi01):
        res = oracle.eigenvector_for(well.H, well.numeric[n])
        if res.node_count != n:
            issues.append(f"n={n} node count {res.node_count}")
        if res.index != n:
            issues.append(f"n={n} index {res.index}")
        sym = sym / np.sqrt(oracle.inner_product(sym, sym, grid))
        num = res.eigenvector
        if oracle.inner_product(sym, num, grid) < 0:
            num = -num
        # sup-difference relative to the state's amplitude: pointwise ratios
        # diverge in node neighborhoods shifted by O(h^2)
        rel = float(np.max(np.abs(sym - num)) / np.max(np.abs(sym)))
        if rel > 1e-3:
            issues.append(f"n={n} wavefunction mismatch {rel:.2e}")
    return not issues, ("eigenvectors converge, indices and nodes agree, ground/first states "
                        "match the exact forms" if not issues else "; ".join(issues))


def _check_minimum(well: _Well) -> tuple[bool, str]:
    params = well.params
    report = analysis.find_minimum(params)
    well.extras["minimum"] = report
    scale = float(params.p) * float((params.A - params.B) ** 2)
    issues = []
    if not report.v_min < 0.0:
        issues.append(f"V_min = {report.v_min:.6g} not negative")
    if abs(report.derivative_residual) > MINIMUM_DERIV_TOL * scale:
        issues.append(f"|V'(x0)| = {abs(report.derivative_residual):.3e}")
    # palindrome: P(t) = t^20 P(1/t) exactly, spot-checked at a rational point
    t = Fraction(7, 5)
    lhs = analysis.min_polynomial(t, params.B, params.p)
    rhs = t**20 * analysis.min_polynomial(1 / t, params.B, params.p)
    if lhs != rhs:
        issues.append("palindrome identity violated")
    return not issues, (f"x0 = {report.x0:.6g}, V_min = {report.v_min:.6g}, probe "
                        f"(exp(p*x0), exp(x0)) = ({report.poly_root_probe[0]:.3e}, "
                        f"{report.poly_root_probe[1]:.3e})" if not issues else "; ".join(issues))


# (name, check) in report order: it fixes the JSON/CSV bytes and first_failure
_CHECKS = (
    ("telescoping", _check_telescoping),
    ("normalizability-cutoff", _check_cutoff),
    ("prefactor-exponents", _check_prefactor),
    ("first-excited-coefficients", _check_first_excited),
    ("shape-invariance", _check_shape_invariance),
    ("spectrum-vs-oracle", _check_energies),
    ("convergence-order", _check_convergence),
    ("eigenfunction-residual", _check_residuals),
    ("node-count", _check_nodes),
    ("orthogonality", _check_orthogonality),
    ("annihilation", _check_annihilation),
    ("intertwining", _check_intertwining),
    ("oracle-selfcheck", _check_oracle_self),
    ("minimum-and-polynomial", _check_minimum),
)


def _bound_levels(H: oracle.DiscretizedHamiltonian, spec: Spectrum) -> tuple[list[float], int]:
    """The n_max + 1 lowest levels of H, and the number of its levels below
    the asymptote.  One kernel call counts the cuts: halfway between
    consecutive closed-form levels, and the asymptote on top."""
    closed = [float(e) for _, e in spec.levels]
    cuts = oracle.count_cuts(
        H, [0.5 * (x + y) for x, y in zip(closed, closed[1:])] + [float(spec.asymptote)]
    )
    return oracle.lowest_eigenvalues(H, spec.n_max + 1, cuts), int(cuts.counts[-1])


def run_validation(
    params: ModelParams, grid: "oracle.RadialGrid | None" = None
) -> ValidationReport:
    """Run every check; deterministic, all tolerances fixed here.  grid=None
    means oracle.default_grid(params); GridError when it is too coarse or
    psi_0 or psi_1 has no finite nonzero norm at x >= 0.2/p on it,
    Float64RangeError when the exact forms do not fit float64."""
    grid = oracle.default_grid(params) if grid is None else grid
    n_max = max_bound_states(params)
    # levels below the asymptote are counted up to a few beyond the cutoff:
    # exposes extra true levels, if any
    m = n_max + 4
    if m > grid.n_points:
        raise oracle.GridError(
            f"{grid.n_points} points are too few: the oracle solve "
            f"needs at least n_max + 4 = {m} grid points"
        )
    # the checks evaluate psi, psi' and psi''
    forms = list(hyperpoly.ladder_forms(params, range(n_max + 1), order=2))
    H = oracle.build_hamiltonian(params, grid)
    xs = grid.points()
    psi01 = tuple(hyperpoly.sample_forms(forms[:2], xs))
    bulk = xs >= 0.2 / float(params.p)
    for n, psi in enumerate(psi01):
        norm = oracle.norm2(psi[bulk])
        if not 0.0 < norm < math.inf:
            raise oracle.GridError(
                f"state {n} cannot be normalized on it (sampled norm {norm} at x >= 0.2/p: "
                "the samples underflow to 0 or overflow float64, or none lie there)"
            )
    spec = full_spectrum(params)
    numeric, below = _bound_levels(H, spec)
    well = _Well(
        params=params,
        spec=spec,
        H=H,
        numeric=numeric,
        levels_below_asymptote=min(below, m),
        forms=forms,
        psi01=psi01,
        bulk=bulk,
        extras={},
    )
    return ValidationReport(
        checks=[CheckResult(name, *check(well)) for name, check in _CHECKS], extras=well.extras)
