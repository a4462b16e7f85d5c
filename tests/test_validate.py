import json
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner

from susywell import analysis, hyperpoly, kernels, oracle, validate
from susywell.cli import main
from susywell.params import make_params
from susywell.spectrum import full_spectrum, max_bound_states
from susywell.validate import run_validation

# the ladder construction is exact only through its first rung, so for any
# parameter set with n_max >= 2 exactly these four checks fail
BROKEN_FOR_DEEP_WELLS = {
    "shape-invariance",
    "spectrum-vs-oracle",
    "eigenfunction-residual",
    "orthogonality",
}

# report order, which fixes the JSON/CSV bytes and first_failure
CHECK_NAMES = [
    "telescoping",
    "normalizability-cutoff",
    "prefactor-exponents",
    "first-excited-coefficients",
    "shape-invariance",
    "spectrum-vs-oracle",
    "convergence-order",
    "eigenfunction-residual",
    "node-count",
    "orthogonality",
    "annihilation",
    "intertwining",
    "oracle-selfcheck",
    "minimum-and-polynomial",
]


@pytest.fixture(scope="module")
def deep_report():
    return run_validation(make_params(7, 0.5))


@pytest.fixture(scope="module")
def small_report():
    return run_validation(make_params("3/5", "1/2"))


def test_small_well_passes_everything(small_report):
    failed = [c.name for c in small_report.checks if not c.passed]
    assert failed == []
    assert small_report.passed
    assert small_report.first_failure() is None



def test_telescoping_reports_the_first_disagreement(monkeypatch):
    pr = make_params(7, "1/2")
    well = SimpleNamespace(params=pr, spec=full_spectrum(pr))
    passed, detail = validate._check_telescoping(well)
    assert passed
    assert detail == "sum of shift constants equals closed form for n<=n_max=7"
    # break the summed route at the step from rung 3 to rung 4
    exact = validate.shift_constant
    monkeypatch.setattr(validate, "shift_constant", lambda params, k: exact(params, k) + (k == 3))
    passed, detail = validate._check_telescoping(well)
    assert not passed
    assert detail == (
        "energy routes disagree at n=4: closed 184, telescoped 184, summed 185"
    )

def test_validation_sums_without_blas(monkeypatch):
    # OpenBLAS spreads a dot of more than 10000 entries over its threads, so
    # each call waits on a second core; the checks sum through oracle.dot
    def blas(*args, **kwargs):
        raise AssertionError("validate called a BLAS reduction")

    monkeypatch.setattr(np, "dot", blas)
    monkeypatch.setattr(np.linalg, "norm", blas)
    assert run_validation(make_params("3/5", "1/2")).passed


def test_deep_well_fails_exactly_the_hierarchy_checks(deep_report):
    failed = {c.name for c in deep_report.checks if not c.passed}
    assert failed == BROKEN_FOR_DEEP_WELLS
    assert not deep_report.passed
    assert deep_report.first_failure().name == "shape-invariance"


def test_deep_well_energy_table(deep_report):
    table = deep_report.extras["energy_comparison"]
    assert [row["n"] for row in table] == list(range(8))
    assert abs(table[0]["difference"]) < 0.05
    assert abs(table[1]["difference"]) < 0.05
    for row in table[2:]:
        assert abs(row["difference"]) > 1.0
    # the true well holds more levels below the threshold than the ladder
    assert deep_report.extras["levels_below_asymptote"] == 11


def test_probe_is_recorded(deep_report):
    # the probe's output names are checked in test_cli
    exp_p_x0, exp_x0 = deep_report.extras["minimum"].poly_root_probe
    assert exp_p_x0 < 1e-4
    assert exp_x0 > 1.0


def test_perturbation_is_detected(perturbed_oracle):
    report = run_validation(make_params("3/5", "1/2"))
    assert not report.passed
    failed = {c.name for c in report.checks if not c.passed}
    assert "spectrum-vs-oracle" in failed


def test_report_serialization():
    # ValidationReport keeps plain values; the CLI writes its JSON
    result = CliRunner().invoke(main, ["validate", "--B", "3/5", "--p", "1/2", "--format", "json"])
    assert result.exit_code == 0
    d = json.loads(result.output)
    assert d["passed"] is True
    assert d["B"] == "3/5" and d["p"] == "1/2"
    names = [c["name"] for c in d["checks"]]
    assert "spectrum-vs-oracle" in names and "minimum-and-polynomial" in names
    assert "poly_root_probe" in d["extras"]


@pytest.mark.parametrize("b, p", [(10, "1/4"), (20, "1/4")])
def test_node_count_passes_on_deep_wells(b, p):
    # the float64 sampling this check replaced failed here from n = 11 on
    params = make_params(b, p)
    forms = [hyperpoly.eigenfunction(n, params) for n in range(max_bound_states(params) + 1)]
    passed, detail = validate._check_nodes(SimpleNamespace(forms=forms))
    assert passed and detail == "every form has exactly n interior zeros"


def test_residuals_measure_every_state_where_the_sums_of_squares_overflow(monkeypatch):
    # B/p = 60: from n = 27 on, psi is finite (up to 3.6e166) but the sums
    # of squares of the residual and of scale * psi overflow float64
    B = Fraction(2**61 - 1, 2**40)
    params = make_params(B, B / 60)
    forms = [hyperpoly.eigenfunction(n, params) for n in range(31)]
    norms = []
    norm2 = oracle.norm2

    def recording(v):
        norms.append(norm2(v))
        return norms[-1]

    monkeypatch.setattr(oracle, "norm2", recording)
    _, detail = validate._check_residuals(
        SimpleNamespace(params=params, spec=full_spectrum(params), forms=forms))
    assert len(norms) == 2 * 31
    assert all(0.0 < norm < np.inf for norm in norms)
    assert detail == "max relative H-residual 2.203e-01 at n=22 (tolerance 1e-06)"


@pytest.mark.parametrize("scale", [-530, 0, 520])
def test_norm_ratio_is_the_same_at_any_power_of_two(scale):
    # at (7, 1/35), |A psi_0| peaks near 4.9e-165 on the bulk: its sum of
    # squares underflows, and the unscaled ratio read 0.0, a vacuous PASS
    xs = np.linspace(0.0, 8.0, 2000)
    b = np.exp(-xs * xs)
    a = 1e-7 * xs * b
    ratio = validate._norm_ratio(np.ldexp(a, scale), np.ldexp(b, scale))
    assert ratio == validate._norm_ratio(a, b) == pytest.approx(
        np.linalg.norm(a) / np.linalg.norm(b), rel=1e-14)
    unscaled = float(oracle.norm2(np.ldexp(a, scale)) / oracle.norm2(np.ldexp(b, scale)))
    assert unscaled == (ratio if scale == 0 else 0.0)


def test_node_count_fails_on_an_extra_root():
    params = make_params(7, 0.5)
    forms = [hyperpoly.eigenfunction(n, params) for n in range(8)]
    # a small T_5 coefficient on the n = 2 form: far out it outgrows the
    # series, with the opposite sign, so one more real root appears
    f = forms[2]
    forms[2] = hyperpoly.HyperbolicForm(
        f.sigma, f.tau, f.p, tuple(1000 * c for c in f.coeffs) + (-f.den,), 1000 * f.den)
    xs = np.linspace(1e-3, 30.0, 200_001)  # float64 sampling is exact enough at n = 2
    assert oracle.count_nodes(hyperpoly.evaluate_scaled(forms[2], xs)[0]) == 3
    passed, detail = validate._check_nodes(SimpleNamespace(forms=forms))
    assert not passed and detail == "mismatches [(2, 3)]"


def test_check_order(deep_report, small_report):
    assert [c.name for c in deep_report.checks] == CHECK_NAMES
    assert [c.name for c in small_report.checks] == CHECK_NAMES


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_builds_each_form_and_spectrum_once(monkeypatch, deep_report):
    params = make_params(7, 0.5)  # n_max = 7
    forms = _counting(monkeypatch, hyperpoly, "candidate_form")
    spectra = _counting(monkeypatch, validate, "full_spectrum")
    report = run_validation(params, oracle.default_grid(params))
    assert sorted(n for n, _ in forms) == list(range(8))
    assert len(spectra) == 1
    # an explicit default grid is the same run as grid=None
    assert report == deep_report


def test_too_few_points_fail_before_any_work(monkeypatch):
    def fail(params):
        raise AssertionError("full_spectrum ran before the grid-size guard")

    monkeypatch.setattr(validate, "full_spectrum", fail)
    params = make_params(1000, "1/1000")  # n_max = 500000
    with pytest.raises(oracle.GridError, match="n_max \\+ 4 = 500004 grid points"):
        run_validation(params)


@pytest.mark.parametrize(
    "b, p, cap_binds", [("7", "1/2", False), ("3/5", "1/2", False), ("20", "1/4", True)]
)
def test_one_count_at_the_asymptote_gives_the_levels_below_it(monkeypatch, b, p, cap_binds):
    # levels_below_asymptote keeps its rule, the levels among the n_max + 4
    # lowest that lie below the asymptote, though validate solves only the
    # n_max + 1 bound levels; at (20, 1/4) 58 levels lie below it
    params = make_params(b, p)
    spec = full_spectrum(params)
    asym = float(spec.asymptote)
    H = oracle.build_hamiltonian(params, oracle.default_grid(params))
    expect = sum(v < asym for v in oracle.lowest_eigenvalues(H, spec.n_max + 4))
    assert (oracle.count_cuts(H, [asym]).counts[0] > spec.n_max + 4) == cap_binds
    # every check that solves on a grid; the others count no eigenvalues
    monkeypatch.setattr(validate, "_CHECKS", (
        ("spectrum-vs-oracle", validate._check_energies),
        ("convergence-order", validate._check_convergence),
        ("oracle-selfcheck", validate._check_oracle_self),
    ))
    shifts = _counting(monkeypatch, kernels, "sturm_counts")
    report = run_validation(params)
    assert report.extras["levels_below_asymptote"] == expect
    assert sum(np.count_nonzero(np.asarray(s[2]) >= asym) for s in shifts) == 1


# negative controls: each failure branch of a check, on a well record built
# by hand
PR = make_params(7, "1/2")  # sigma = -15, tau = 14, n_max = 7


def test_prefactor_fails_on_a_wrong_exponent_and_a_wrong_length():
    forms = [hyperpoly.eigenfunction(n, PR) for n in range(3)]
    wrong_sigma = forms[:1] + [replace(forms[1], sigma=forms[1].sigma + 1)] + forms[2:]
    assert validate._check_prefactor(SimpleNamespace(params=PR, forms=wrong_sigma)) == (
        False, "n=1: got (sigma, tau) = (-14, 14)")
    too_short = forms[:2] + [forms[1]]
    assert validate._check_prefactor(SimpleNamespace(params=PR, forms=too_short)) == (
        False, "n=2: series length 3 != 5")


def test_convergence_fails_on_equal_refined_levels(monkeypatch):
    monkeypatch.setattr(oracle, "lowest_eigenvalues", lambda H, m, cuts=None: [0.0, 1.0])
    well = SimpleNamespace(params=PR, spec=full_spectrum(PR), numeric=[0.0, 1.0, 2.0],
                           H=SimpleNamespace(grid=oracle.default_grid(PR)))
    assert validate._check_convergence(well) == (False, "degenerate refinement differences")


def test_oracle_selfcheck_fails_on_a_wrong_node_count_and_index(monkeypatch):
    grid = oracle.RadialGrid(x_min=0.1, x_max=5.0, n_points=200)
    xs = grid.points()
    psi01 = (xs * np.exp(-xs * xs), (xs * xs - 1.0) * np.exp(-xs * xs))

    def shifted(H, eigenvalue):
        # the exact state, so only the counts are off: one node and two
        # levels too many
        n = int(eigenvalue)
        sym = psi01[n] / np.sqrt(oracle.inner_product(psi01[n], psi01[n], grid))
        return oracle.EigenResult(index=n + 2, eigenvector=sym, node_count=n + 1, residual=0.0)

    monkeypatch.setattr(oracle, "eigenvector_for", shifted)
    well = SimpleNamespace(H=SimpleNamespace(grid=grid), psi01=psi01, numeric=[0.0, 1.0])
    assert validate._check_oracle_self(well) == (
        False, "n=0 node count 1; n=0 index 2; n=1 node count 2; n=1 index 3")


def test_minimum_fails_on_each_broken_claim(monkeypatch):
    # V_min not below 0, |V'(x0)| far above 1e-8 p (A - B)^2 = 1.2e-6, and a
    # polynomial that is no palindrome
    report = analysis.MinimumReport(x0=1.0, v_min=0.0, derivative_residual=-1.0,
                                    poly_root_probe=(0.0, 0.0))
    monkeypatch.setattr(analysis, "find_minimum", lambda params: report)
    monkeypatch.setattr(analysis, "min_polynomial", lambda t, B, p: t)
    well = SimpleNamespace(params=PR, extras={})
    assert validate._check_minimum(well) == (
        False, "V_min = 0 not negative; |V'(x0)| = 1.000e+00; palindrome identity violated")
    assert well.extras["minimum"] is report
