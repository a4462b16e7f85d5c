"""Cross-validation of every closed-form claim against the grid eigensolver.

Each check is independent and reports a measured number next to its
threshold, so a failure says *how far off* the claim is, not just that it
failed.  Every check reads one record of the well, built once.  The suite
is deterministic for fixed inputs.
"""

from __future__ import annotations

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
    params: ModelParams
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
    perturb: float
    spec: Spectrum
    H: oracle.DiscretizedHamiltonian  # on the report's grid, H.grid
    numeric: list[float]  # the n_max + 4 lowest levels of H
    forms: list[hyperpoly.HyperbolicForm]  # the exact forms n = 0..n_max
    extras: dict


def _hamiltonian(params, grid, perturb) -> oracle.DiscretizedHamiltonian:
    H = oracle.build_hamiltonian(params, grid)
    if perturb != 0.0:
        H = replace(H, diag=H.diag + perturb * potential_closed_form(grid.points(), params))
    return H


def _check_telescoping(well: _Well) -> CheckResult:
    params = well.params
    a0 = ladder_offset(ladder(params, 0))
    running = Fraction(0)
    for n, closed in well.spec.levels:
        telescoped = ladder_offset(ladder(params, n)) - a0
        if not closed == telescoped == running:
            return CheckResult(
                "telescoping", False,
                f"energy routes disagree at n={n}: closed {closed}, "
                f"telescoped {telescoped}, summed {running}",
            )
        running += shift_constant(params, n)
    return CheckResult(
        "telescoping", True,
        f"sum of shift constants equals closed form for n<=n_max={well.spec.n_max}",
    )


def _check_cutoff(well: _Well) -> CheckResult:
    n_max = well.spec.n_max
    last = state_decay_rate(well.params, n_max)
    beyond = state_decay_rate(well.params, n_max + 1)
    ok = last < 0 <= beyond
    return CheckResult(
        "normalizability-cutoff",
        ok,
        f"decay rate {float(last):+g} at n_max={n_max}, {float(beyond):+g} beyond",
    )


def _check_prefactor(well: _Well) -> CheckResult:
    params = well.params
    sigma_expect = -(params.B + params.p) / params.p
    tau_expect = params.B / params.p
    for n, form in enumerate(well.forms):
        if form.sigma != sigma_expect or form.tau != tau_expect:
            return CheckResult(
                "prefactor-exponents", False,
                f"n={n}: got (sigma, tau) = ({form.sigma}, {form.tau})",
            )
        if form.top_index != 2 * n:
            return CheckResult(
                "prefactor-exponents", False,
                f"n={n}: series length {form.top_index + 1} != {2 * n + 1}",
            )
    return CheckResult(
        "prefactor-exponents", True,
        f"sigma = {sigma_expect}, tau = {tau_expect}, 2n+1 coefficients for every n",
    )


def _check_first_excited(well: _Well) -> CheckResult:
    c = 2 * well.params.B + well.params.p
    expect = (Fraction(0), -2 * c, c)
    got = well.forms[1].coeffs
    ok = len(got) == 3 and got[0] == 0 and got[1] * expect[2] == got[2] * expect[1]
    return CheckResult(
        "first-excited-coefficients",
        ok,
        f"coefficients {tuple(str(g) for g in got)} vs proportional (0, {-2 * c}, {c})",
    )


def _check_shape_invariance(well: _Well) -> CheckResult:
    # scan exactly the rungs the eigenfunction construction uses
    params = well.params
    p = float(params.p)
    xs = np.geomspace(1e-3 / p, 30.0 / p, 10_000)
    worst = 0.0
    worst_k = 0
    for k in range(max(1, well.spec.n_max)):
        res = shape_invariance_residual(xs, params, k)
        scale = np.maximum(1.0, np.abs(partner_plus(xs, ladder(params, k), params.p)))
        m = float(np.max(np.abs(res) / scale))
        if m > worst:
            worst, worst_k = m, k
    return CheckResult(
        "shape-invariance",
        worst <= SHAPE_TOL,
        f"max scaled residual {worst:.3e} at rung k={worst_k} (tolerance {SHAPE_TOL:.0e})",
    )


def _check_energies(well: _Well) -> CheckResult:
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
    well.extras["levels_below_asymptote"] = int(sum(1 for v in well.numeric if v < asym))
    return CheckResult(
        "spectrum-vs-oracle",
        worst <= tol,
        f"max |E_num - E_closed| = {worst:.4g} at n={worst_n} (tolerance {tol:.3g})",
    )


def _check_convergence(well: _Well) -> CheckResult:
    # difference ratio on E_1 across h, h/2, h/4; immune to the constant
    # truncation offset, isolates the h^2 order of the stencil
    e = []
    for n_points in (2999, 5999, 11999):
        H = _hamiltonian(well.params, replace(well.H.grid, n_points=n_points), well.perturb)
        e.append(oracle.lowest_eigenvalues(H, 2)[1])
    d1, d2 = e[0] - e[1], e[1] - e[2]
    if d2 == 0.0:
        return CheckResult("convergence-order", False, "degenerate refinement differences")
    ratio = d1 / d2
    # ~4 for smooth states; the x^(B/p) cusp at the origin drags soft
    # exponents below clean second order, so accept a band around 4
    ok = 2.5 <= ratio <= 5.5
    return CheckResult(
        "convergence-order", ok, f"refinement ratio {ratio:.3f} (expect ~4 for order 2)"
    )


def _check_residuals(well: _Well) -> CheckResult:
    params = well.params
    p = float(params.p)
    xs = np.linspace(0.05 / p, 24.0 / p, 4000)
    v = potential_closed_form(xs, params)
    scale = float((params.A - params.B) ** 2)
    worst, worst_n = 0.0, 0
    for (n, e), form in zip(well.spec.levels, well.forms):
        psi, _, d2 = hyperpoly.evaluate_derivatives(form, xs)
        r = -d2 + (v - float(e)) * psi
        rel = float(oracle.norm2(r) / oracle.norm2(scale * psi))
        if rel > worst:
            worst, worst_n = rel, n
    return CheckResult(
        "eigenfunction-residual",
        worst <= RESIDUAL_TOL,
        f"max relative H-residual {worst:.3e} at n={worst_n} (tolerance {RESIDUAL_TOL:.0e})",
    )


def _check_nodes(well: _Well) -> CheckResult:
    counts = hyperpoly.node_counts(well.forms)
    bad = [(n, nodes) for n, nodes in enumerate(counts) if nodes != n]
    return CheckResult(
        "node-count",
        not bad,
        "every form has exactly n interior zeros" if not bad else f"mismatches {bad}",
    )


def _check_orthogonality(well: _Well) -> CheckResult:
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
    return CheckResult(
        "orthogonality",
        worst <= OVERLAP_TOL,
        f"max |overlap| = {worst:.3e} at pair {pair} (tolerance {OVERLAP_TOL:.0e})",
    )


def _check_annihilation(well: _Well) -> CheckResult:
    # norms exclude x < 0.2/p: the x^tau cusp at the origin is outside the
    # derivative stencil's accuracy range for soft exponents
    xs = well.H.grid.points()
    keep = xs >= 0.2 / float(well.params.p)
    psi0 = hyperpoly.evaluate(well.forms[0], xs)
    out = oracle.apply_ladder_numeric(well.params, 0, "annihilation", psi0, well.H.grid)
    ratio = float(oracle.norm2(out[keep]) / oracle.norm2(psi0[keep]))
    return CheckResult(
        "annihilation",
        ratio <= ANNIHILATION_TOL,
        f"|A psi_0| / |psi_0| = {ratio:.3e} (tolerance {ANNIHILATION_TOL:.0e})",
    )


def _check_intertwining(well: _Well) -> CheckResult:
    # A psi_1 must be an eigenvector of the plus-partner at the same level
    params, grid = well.params, well.H.grid
    xs = grid.points()
    psi1 = hyperpoly.evaluate(well.forms[1], xs)
    down = oracle.apply_ladder_numeric(params, 0, "annihilation", psi1, grid)
    e1 = float(well.spec.levels[1][1])
    vplus = partner_plus(xs, ladder(params, 0), params.p)
    h = grid.h
    lap = np.empty_like(down)
    lap[1:-1] = (down[:-2] - 2.0 * down[1:-1] + down[2:]) / (h * h)
    lap[0] = (down[1] - 2.0 * down[0]) / (h * h)
    lap[-1] = (down[-2] - 2.0 * down[-1]) / (h * h)
    r = -lap + (vplus - e1) * down
    # norm over the smooth bulk: near the origin the stencil error has
    # grid-scale structure the Laplacian amplifies by 1/h^2, and the end
    # rows assume Dirichlet values this sampled function does not satisfy
    keep = xs >= 0.2 / float(params.p)
    keep[:2] = False
    keep[-2:] = False
    rel = float(oracle.norm2(r[keep]) / oracle.norm2(e1 * down[keep]))
    return CheckResult(
        "intertwining",
        rel <= INTERTWINING_TOL,
        f"relative residual of H_plus on (A psi_1) = {rel:.3e} (tolerance {INTERTWINING_TOL:.0e})",
    )


def _check_oracle_self(well: _Well) -> CheckResult:
    grid = well.H.grid
    norm = well.H.norm_bound()
    issues = []
    xs = grid.points()
    for n, form in enumerate(well.forms[:2]):
        res = oracle.eigenvector_for(well.H, well.numeric[n])
        if res.residual > 1e-8 * norm:
            issues.append(f"n={n} residual {res.residual:.2e}")
        if res.node_count != n:
            issues.append(f"n={n} node count {res.node_count}")
        if res.index != n:
            issues.append(f"n={n} index {res.index}")
        sym = hyperpoly.evaluate(form, xs)
        sym = sym / np.sqrt(oracle.inner_product(sym, sym, grid))
        num = res.eigenvector
        if oracle.inner_product(sym, num, grid) < 0:
            num = -num
        # sup-difference relative to the state's amplitude: pointwise ratios
        # diverge in node neighborhoods shifted by O(h^2)
        rel = float(np.max(np.abs(sym - num)) / np.max(np.abs(sym)))
        if rel > 1e-3:
            issues.append(f"n={n} wavefunction mismatch {rel:.2e}")
    return CheckResult(
        "oracle-selfcheck",
        not issues,
        "eigenvectors converge, indices and nodes agree, ground/first states "
        "match the exact forms" if not issues else "; ".join(issues),
    )


def _check_minimum(well: _Well) -> CheckResult:
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
    return CheckResult(
        "minimum-and-polynomial",
        not issues,
        f"x0 = {report.x0:.6g}, V_min = {report.v_min:.6g}, probe "
        f"(exp(p*x0), exp(x0)) = ({report.poly_root_probe[0]:.3e}, "
        f"{report.poly_root_probe[1]:.3e})" if not issues else "; ".join(issues),
    )


# report order: it fixes the JSON/CSV bytes and first_failure
_CHECKS = (
    _check_telescoping, _check_cutoff, _check_prefactor, _check_first_excited,
    _check_shape_invariance, _check_energies, _check_convergence, _check_residuals,
    _check_nodes, _check_orthogonality, _check_annihilation, _check_intertwining,
    _check_oracle_self, _check_minimum,
)


def run_validation(
    params: ModelParams,
    grid: "oracle.RadialGrid | None" = None,
    perturb: float = 0.0,
) -> ValidationReport:
    """Run every check; deterministic, all tolerances fixed here.  grid=None
    means oracle.default_grid(params); GridError when it is too coarse,
    Float64RangeError when the exact forms do not fit float64."""
    grid = oracle.default_grid(params) if grid is None else grid
    n_max = max_bound_states(params)
    m = n_max + 4  # a few beyond the cutoff: exposes extra true levels, if any
    if m > grid.n_points:
        raise oracle.GridError(
            f"{grid.n_points} points are too few: the oracle solve "
            f"needs at least n_max + 4 = {m} grid points"
        )
    forms = [hyperpoly.eigenfunction(n, params) for n in range(n_max + 1)]
    hyperpoly.check_float64(forms)  # the checks evaluate psi, psi' and psi''
    H = _hamiltonian(params, grid, perturb)
    well = _Well(
        params=params,
        perturb=perturb,
        spec=full_spectrum(params),
        H=H,
        numeric=oracle.lowest_eigenvalues(H, m),
        forms=forms,
        extras={},
    )
    return ValidationReport(
        params=params, checks=[check(well) for check in _CHECKS], extras=well.extras
    )
