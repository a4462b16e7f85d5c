"""Cross-validation of every closed-form claim against the grid eigensolver.

Each check is independent and reports a measured number next to its
threshold, so a failure says *how far off* the claim is, not just that it
failed.  The suite is deterministic for fixed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import analysis, hyperpoly, oracle
from .params import ModelParams, ladder
from .potential import partner_plus, potential_closed_form, shape_invariance_residual
from .spectrum import full_spectrum, max_bound_states, state_decay_rate

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
    extras: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def first_failure(self) -> "CheckResult | None":
        for c in self.checks:
            if not c.passed:
                return c
        return None

    def to_json_dict(self) -> dict:
        return {
            "B": str(self.params.B),
            "p": str(self.params.p),
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
            "extras": self.extras,
        }


def _check_telescoping(params: ModelParams) -> CheckResult:
    # full_spectrum compares the closed, telescoped and summed routes
    # exactly and raises on any disagreement
    n_max = full_spectrum(params).n_max
    return CheckResult(
        "telescoping", True, f"sum of shift constants equals closed form for n<=n_max={n_max}"
    )


def _check_cutoff(params: ModelParams) -> CheckResult:
    n_max = max_bound_states(params)
    last = state_decay_rate(params, n_max)
    beyond = state_decay_rate(params, n_max + 1)
    ok = last < 0 <= beyond
    return CheckResult(
        "normalizability-cutoff",
        ok,
        f"decay rate {float(last):+g} at n_max={n_max}, {float(beyond):+g} beyond",
    )


def _check_prefactor(params: ModelParams) -> CheckResult:
    n_max = max_bound_states(params)
    sigma_expect = -(params.B + params.p) / params.p
    tau_expect = params.B / params.p
    for n in range(n_max + 1):
        form = hyperpoly.eigenfunction(n, params)
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


def _check_first_excited(params: ModelParams) -> CheckResult:
    form = hyperpoly.apply_creation(
        hyperpoly.ground_form(ladder(params, 1), params.p), ladder(params, 0)
    )
    c = 2 * params.B + params.p
    expect = (Fraction(0), -2 * c, c)
    got = form.coeffs
    ok = len(got) == 3 and got[0] == 0 and got[1] * expect[2] == got[2] * expect[1]
    return CheckResult(
        "first-excited-coefficients",
        ok,
        f"coefficients {tuple(str(g) for g in got)} vs proportional (0, {-2 * c}, {c})",
    )


def _check_shape_invariance(params: ModelParams) -> CheckResult:
    # scan exactly the rungs the eigenfunction construction uses
    n_max = max_bound_states(params)
    p = float(params.p)
    xs = np.geomspace(1e-3 / p, 30.0 / p, 10_000)
    worst = 0.0
    worst_k = 0
    for k in range(max(1, n_max)):
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


def _solve_levels(params, x_min, x_max, n_points, m, perturb):
    grid = oracle.RadialGrid(x_min=x_min, x_max=x_max, n_points=n_points)
    H = oracle.build_hamiltonian(params, grid)
    if perturb != 0.0:
        v = potential_closed_form(grid.points(), params)
        H = oracle.DiscretizedHamiltonian(
            grid=grid, diag=H.diag + perturb * v, offdiag=H.offdiag
        )
    return grid, H, oracle.lowest_eigenvalues(H, m)


def _check_energies(params, grid, H, numeric, extras) -> CheckResult:
    spec = full_spectrum(params)
    asym = float(spec.asymptote)
    tol = max(ENERGY_ABS_TOL, ENERGY_REL_TOL * asym)
    table = []
    worst = 0.0
    worst_n = 0
    for n, e in spec.levels:
        diff = numeric[n] - float(e)
        table.append(
            {"n": n, "closed": float(e), "numeric": numeric[n], "difference": diff}
        )
        if abs(diff) > worst:
            worst, worst_n = abs(diff), n
    extras["energy_comparison"] = table
    extras["levels_below_asymptote"] = int(sum(1 for v in numeric if v < asym))
    return CheckResult(
        "spectrum-vs-oracle",
        worst <= tol,
        f"max |E_num - E_closed| = {worst:.4g} at n={worst_n} (tolerance {tol:.3g})",
    )


def _check_convergence(params, x_min, x_max, perturb) -> CheckResult:
    # difference ratio on E_1 across h, h/2, h/4; immune to the constant
    # truncation offset, isolates the h^2 order of the stencil
    e = []
    for n_points in (2999, 5999, 11999):
        _, _, vals = _solve_levels(params, x_min, x_max, n_points, 2, perturb)
        e.append(vals[1])
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


def _residual_norm(params, form, energy_value, xs) -> float:
    psi, _, d2 = hyperpoly.evaluate_derivatives(form, xs)
    v = potential_closed_form(xs, params)
    r = -d2 + (v - energy_value) * psi
    scale = float((params.A - params.B) ** 2)
    denom = np.linalg.norm(scale * psi)
    return float(np.linalg.norm(r) / denom)


def _check_residuals(params) -> CheckResult:
    n_max = max_bound_states(params)
    spec = full_spectrum(params)
    p = float(params.p)
    xs = np.linspace(0.05 / p, 24.0 / p, 4000)
    worst, worst_n = 0.0, 0
    for n in range(n_max + 1):
        form = hyperpoly.eigenfunction(n, params)
        rel = _residual_norm(params, form, float(spec.levels[n][1]), xs)
        if rel > worst:
            worst, worst_n = rel, n
    return CheckResult(
        "eigenfunction-residual",
        worst <= RESIDUAL_TOL,
        f"max relative H-residual {worst:.3e} at n={worst_n} (tolerance {RESIDUAL_TOL:.0e})",
    )


def _check_nodes(params) -> CheckResult:
    n_max = max_bound_states(params)
    p = float(params.p)
    xs = np.linspace(1e-3 / p, 30.0 / p, 200_001)
    bad = []
    for n in range(n_max + 1):
        mant, _ = hyperpoly.evaluate_scaled(hyperpoly.eigenfunction(n, params), xs)
        nodes = oracle.count_nodes(mant)
        if nodes != n:
            bad.append((n, nodes))
    return CheckResult(
        "node-count",
        not bad,
        "every form has exactly n interior zeros" if not bad else f"mismatches {bad}",
    )


def _check_orthogonality(params) -> CheckResult:
    n_max = max_bound_states(params)
    p = float(params.p)
    grid = oracle.RadialGrid(x_min=0.005 / p, x_max=30.0 / p, n_points=60_000)
    xs = grid.points()
    vecs = []
    for n in range(n_max + 1):
        v = hyperpoly.evaluate(hyperpoly.eigenfunction(n, params), xs)
        v = v / np.sqrt(oracle.inner_product(v, v, grid))
        vecs.append(v)
    worst, pair = 0.0, (0, 0)
    for i in range(n_max + 1):
        for j in range(i + 1, n_max + 1):
            ov = abs(oracle.inner_product(vecs[i], vecs[j], grid))
            if ov > worst:
                worst, pair = ov, (i, j)
    return CheckResult(
        "orthogonality",
        worst <= OVERLAP_TOL,
        f"max |overlap| = {worst:.3e} at pair {pair} (tolerance {OVERLAP_TOL:.0e})",
    )


def _check_annihilation(params, grid) -> CheckResult:
    # norms exclude x < 0.2/p: the x^tau cusp at the origin is outside the
    # derivative stencil's accuracy range for soft exponents
    xs = grid.points()
    keep = xs >= 0.2 / float(params.p)
    psi0 = hyperpoly.evaluate(hyperpoly.eigenfunction(0, params), xs)
    out = oracle.apply_ladder_numeric(params, 0, "annihilation", psi0, grid)
    ratio = float(np.linalg.norm(out[keep]) / np.linalg.norm(psi0[keep]))
    return CheckResult(
        "annihilation",
        ratio <= ANNIHILATION_TOL,
        f"|A psi_0| / |psi_0| = {ratio:.3e} (tolerance {ANNIHILATION_TOL:.0e})",
    )


def _check_intertwining(params, grid) -> CheckResult:
    # A psi_1 must be an eigenvector of the plus-partner at the same level
    xs = grid.points()
    psi1 = hyperpoly.evaluate(hyperpoly.eigenfunction(1, params), xs)
    down = oracle.apply_ladder_numeric(params, 0, "annihilation", psi1, grid)
    e1 = float(full_spectrum(params).levels[1][1])
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
    rel = float(np.linalg.norm(r[keep]) / np.linalg.norm(e1 * down[keep]))
    return CheckResult(
        "intertwining",
        rel <= INTERTWINING_TOL,
        f"relative residual of H_plus on (A psi_1) = {rel:.3e} (tolerance {INTERTWINING_TOL:.0e})",
    )


def _check_oracle_self(params, grid, H, numeric) -> CheckResult:
    n_max = max_bound_states(params)
    norm = H.norm_bound()
    issues = []
    xs = grid.points()
    for n in range(min(n_max, 1) + 1):
        res = oracle.eigenvector_for(H, numeric[n])
        if res.residual > 1e-8 * norm:
            issues.append(f"n={n} residual {res.residual:.2e}")
        if res.node_count != n:
            issues.append(f"n={n} node count {res.node_count}")
        if res.index != n:
            issues.append(f"n={n} index {res.index}")
        sym = hyperpoly.evaluate(hyperpoly.eigenfunction(n, params), xs)
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


def _check_minimum(params, extras) -> CheckResult:
    report = analysis.find_minimum(params)
    extras["minimum"] = report.to_json_dict()
    extras["poly_root_probe"] = report.to_json_dict()["poly_root_probe"]
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


def run_validation(
    params: ModelParams,
    n_points: int = 12000,
    x_min: "float | None" = None,
    x_max: "float | None" = None,
    perturb: float = 0.0,
) -> ValidationReport:
    """Run every check; deterministic, all tolerances fixed here."""
    report = ValidationReport(params=params)
    if x_min is None or x_max is None:
        base = oracle.default_grid(params, n_points)
        x_min = base.x_min if x_min is None else x_min
        x_max = base.x_max if x_max is None else x_max

    n_max = max_bound_states(params)
    m = n_max + 4  # a few beyond the cutoff: exposes extra true levels, if any
    grid, H, numeric = _solve_levels(params, x_min, x_max, n_points, m, perturb)

    report.checks.append(_check_telescoping(params))
    report.checks.append(_check_cutoff(params))
    report.checks.append(_check_prefactor(params))
    report.checks.append(_check_first_excited(params))
    report.checks.append(_check_shape_invariance(params))
    report.checks.append(_check_energies(params, grid, H, numeric, report.extras))
    report.checks.append(_check_convergence(params, x_min, x_max, perturb))
    report.checks.append(_check_residuals(params))
    report.checks.append(_check_nodes(params))
    report.checks.append(_check_orthogonality(params))
    report.checks.append(_check_annihilation(params, grid))
    report.checks.append(_check_intertwining(params, grid))
    report.checks.append(_check_oracle_self(params, grid, H, numeric))
    report.checks.append(_check_minimum(params, report.extras))
    return report
