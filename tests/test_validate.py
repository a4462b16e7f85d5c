import json
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner

from susywell import hyperpoly, oracle, validate
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
    check = validate._check_telescoping(well)
    assert check.passed
    assert check.detail == "sum of shift constants equals closed form for n<=n_max=7"
    # break the summed route at the step from rung 3 to rung 4
    exact = validate.shift_constant
    monkeypatch.setattr(validate, "shift_constant", lambda params, k: exact(params, k) + (k == 3))
    check = validate._check_telescoping(well)
    assert not check.passed
    assert check.detail == (
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


def test_perturbation_is_detected():
    report = run_validation(make_params("3/5", "1/2"), perturb=0.1)
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
    check = validate._check_nodes(SimpleNamespace(forms=forms))
    assert check.passed and check.detail == "every form has exactly n interior zeros"


def test_node_count_fails_on_an_extra_root():
    params = make_params(7, 0.5)
    forms = [hyperpoly.eigenfunction(n, params) for n in range(8)]
    # a small T_5 coefficient on the n = 2 form: far out it outgrows the
    # series, with the opposite sign, so one more real root appears
    f = forms[2]
    forms[2] = hyperpoly.HyperbolicForm(f.sigma, f.tau, f.p, f.coeffs + (Fraction(-1, 1000),))
    xs = np.linspace(1e-3, 30.0, 200_001)  # float64 sampling is exact enough at n = 2
    assert oracle.count_nodes(hyperpoly.evaluate_scaled(forms[2], xs)[0]) == 3
    check = validate._check_nodes(SimpleNamespace(forms=forms))
    assert not check.passed and check.detail == "mismatches [(2, 3)]"


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
