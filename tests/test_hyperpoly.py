import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from susywell import hyperpoly
from susywell.cli import main
from susywell.hyperpoly import (
    HyperbolicForm,
    apply_creation,
    candidate_form,
    decay_exponent,
    eigenfunction,
    evaluate,
    evaluate_derivatives,
    evaluate_scaled,
    ground_form,
    node_counts,
    sample_forms,
)
from susywell.params import LadderParams, ladder, make_params
from susywell.potential import potential_closed_form, superpotential
from susywell.spectrum import full_spectrum, max_bound_states

PR = make_params(7, 0.5)


def test_ground_form_reference_exponents():
    f0 = ground_form(ladder(PR, 0), PR.p)
    assert (f0.sigma, f0.tau, f0.coeffs) == (-15, 14, (Fraction(1),))
    f1 = ground_form(ladder(PR, 1), PR.p)
    assert (f1.sigma, f1.tau) == (-14, 15)


def test_ground_form_positive_everywhere():
    f0 = ground_form(ladder(PR, 0), PR.p)
    xs = np.geomspace(1e-5, 40, 500)
    assert np.all(evaluate(f0, xs) >= 0.0)
    assert np.all(evaluate_scaled(f0, xs)[0] > 0.0)


def test_first_excited_exact_coefficients():
    form = apply_creation(ground_form(ladder(PR, 1), PR.p), ladder(PR, 0))
    assert form.sigma == -15 and form.tau == 14
    assert form.coeffs == (0, Fraction(-29), Fraction(29, 2))


def test_first_excited_proportionality_for_random_rationals():
    rng = random.Random(3)
    for _ in range(30):
        b = Fraction(rng.randint(1, 40), rng.randint(1, 8))
        p = b * Fraction(rng.randint(1, 99), 100)
        pr = make_params(b, p)
        form = apply_creation(ground_form(ladder(pr, 1), pr.p), ladder(pr, 0))
        c = 2 * b + p
        # proportional to (0, -2c, c)
        assert form.coeffs[0] == 0
        assert form.coeffs[1] * c == form.coeffs[2] * (-2 * c)


def test_series_grows_by_two_per_application():
    form = ground_form(ladder(PR, 3), PR.p)
    for k in (2, 1, 0):
        before = len(form.coeffs)
        form = apply_creation(form, ladder(PR, k))
        assert len(form.coeffs) == before + 2


def test_apply_creation_matches_numeric_operator():
    # independent route: 5-point-stencil derivative of the input samples
    rng = random.Random(5)
    for trial in range(4):
        k = rng.randint(0, 3)
        src = eigenfunction(trial % 3, PR) if trial else ground_form(ladder(PR, k + 1), PR.p)
        target = ladder(PR, k)
        out = apply_creation(src, target)
        xs = np.linspace(0.5, 12, 200)
        h = 1e-5
        f = lambda t: evaluate(src, t)
        deriv = (f(xs - 2 * h) - 8 * f(xs - h) + 8 * f(xs + h) - f(xs + 2 * h)) / (12 * h)
        w = superpotential(xs, target, PR.p)
        numeric = -deriv + w * f(xs)
        exact = evaluate(out, xs)
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(numeric - exact)) / scale < 1e-8


def _creation_four_term(form, target):
    """apply_creation's coefficients by the plain four-term formula."""
    p = form.p
    u = target.A - 3 * p * form.sigma
    v = target.B + p * form.tau
    out = [Fraction(0)] * (len(form.coeffs) + 2)
    for k, a in enumerate(form.coeffs):
        ua, va, w = u * a, v * a, 2 * k * p * a
        out[k + 2] += (ua - va - w) / 4
        out[abs(k - 2)] += (ua - va + w) / 4
        out[k + 1] += (-ua - va + w) / 4
        out[abs(k - 1)] += (-ua - va - w) / 4
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


@pytest.mark.parametrize("b, p", [(7, "1/2"), ("51/16", "1/3"), (10, "1/4")])
def test_apply_creation_matches_four_term_formula(b, p):
    params = make_params(b, p)
    for n in range(13):  # past n_max too: the recursion has no cutoff
        form = ground_form(ladder(params, n), params.p)
        for k in range(n - 1, -1, -1):
            expect = _creation_four_term(form, ladder(params, k))
            form = apply_creation(form, ladder(params, k))
            assert form.coeffs == expect


def test_eigenfunction_low_indices():
    f0 = eigenfunction(0, PR)
    assert f0 == ground_form(ladder(PR, 0), PR.p)
    f1 = eigenfunction(1, PR)
    assert f1.coeffs == (0, Fraction(-29), Fraction(29, 2))


def test_eigenfunction_second_state_exact_recursion():
    f2 = eigenfunction(2, PR)
    assert f2.coeffs == (
        Fraction(4079, 8),
        Fraction(-795, 2),
        Fraction(399),
        Fraction(-371),
        Fraction(675, 8),
    )


def test_prefactor_universality_and_length():
    for n in range(8):
        f = eigenfunction(n, PR)
        assert f.sigma == -(PR.B + PR.p) / PR.p == -15
        assert f.tau == PR.B / PR.p == 14
        assert len(f.coeffs) == 2 * n + 1
        assert f.coeffs[-1] != 0


def test_eigenfunction_index_error_beyond_cutoff():
    with pytest.raises(IndexError, match="n_max = 7"):
        eigenfunction(8, PR)


def test_regularity_guard_on_soft_tau():
    form = ground_form(LadderParams(k=0, A=Fraction(3), B=Fraction(1, 2)), Fraction(1, 2))
    assert form.tau == 1
    with pytest.raises(ValueError, match="regularity"):
        apply_creation(form, LadderParams(k=0, A=Fraction(3), B=Fraction(1, 2)))


def test_decay_exponents():
    assert decay_exponent(eigenfunction(0, PR)) == Fraction(-31, 2)
    assert decay_exponent(eigenfunction(7, PR)) == Fraction(-3, 2)
    assert decay_exponent(candidate_form(8, PR)) == Fraction(1, 2)


def test_evaluate_small_x_power_law():
    f0 = eigenfunction(0, PR)
    x = 1e-6
    expect = (0.5 * x) ** 14  # sinh(px)^tau with cosh factors -> 1
    assert evaluate(f0, x) == pytest.approx(expect, rel=1e-6)


def test_evaluate_far_field_log_slope():
    # p*x = 390..400: raw values underflow, the scaled pair keeps the slope
    f0 = eigenfunction(0, PR)
    m1, e1 = evaluate_scaled(f0, 780.0)
    m2, e2 = evaluate_scaled(f0, 800.0)
    assert np.isfinite(m1) and np.isfinite(e1) and np.isfinite(m2) and np.isfinite(e2)
    slope = ((math.log(abs(m2)) + e2) - (math.log(abs(m1)) + e1)) / 20.0
    assert slope == pytest.approx(float(decay_exponent(f0)), rel=1e-9)
    f3 = eigenfunction(3, PR)
    m1, e1 = evaluate_scaled(f3, 780.0)
    m2, e2 = evaluate_scaled(f3, 800.0)
    slope = ((math.log(abs(m2)) + e2) - (math.log(abs(m1)) + e1)) / 20.0
    assert slope == pytest.approx(float(decay_exponent(f3)), rel=1e-9)


def test_log_derivative_of_ground_is_minus_superpotential():
    f0 = eigenfunction(0, PR)
    xs = np.geomspace(0.01, 20, 200)
    psi, dpsi, _ = evaluate_derivatives(f0, xs)
    ld = dpsi / psi
    w = superpotential(xs, ladder(PR, 0), PR.p)
    assert np.max(np.abs(ld + w)) < 1e-9 * np.max(np.abs(w))


def test_derivatives_match_finite_differences():
    f2 = eigenfunction(2, PR)
    xs = np.linspace(0.5, 10, 50)
    psi, dpsi, d2psi = evaluate_derivatives(f2, xs)
    h = 1e-5
    fd1 = (evaluate(f2, xs + h) - evaluate(f2, xs - h)) / (2 * h)
    fd2 = (evaluate(f2, xs + h) - 2 * psi + evaluate(f2, xs - h)) / (h * h)
    assert np.max(np.abs(dpsi - fd1)) / np.max(np.abs(dpsi)) < 1e-8
    assert np.max(np.abs(d2psi - fd2)) / np.max(np.abs(d2psi)) < 1e-4


def test_schrodinger_residual_exact_for_first_two_states():
    spec = full_spectrum(PR)
    xs = np.linspace(0.1, 30, 3000)
    v = potential_closed_form(xs, PR)
    for n in (0, 1):
        form = eigenfunction(n, PR)
        psi, _, d2 = evaluate_derivatives(form, xs)
        r = -d2 + (v - float(spec.levels[n][1])) * psi
        assert np.linalg.norm(r) / np.linalg.norm(240.25 * psi) < 1e-12


def test_second_state_is_not_an_eigenfunction_of_the_well():
    # the ladder identity breaks beyond the first rung, so the recursion
    # form at n=2 leaves an O(1e-2) relative operator residual at E=108
    xs = np.linspace(0.1, 30, 3000)
    v = potential_closed_form(xs, PR)
    form = eigenfunction(2, PR)
    psi, _, d2 = evaluate_derivatives(form, xs)
    r = -d2 + (v - 108.0) * psi
    rel = np.linalg.norm(r) / np.linalg.norm(240.25 * psi)
    assert 1e-3 < rel < 1e-1


def test_node_counts_match_index():
    from susywell.oracle import count_nodes

    xs = np.linspace(1e-3, 30, 200001)
    for n in range(8):
        mant, _ = evaluate_scaled(eigenfunction(n, PR), xs)
        assert count_nodes(mant) == n
    # the exact count also holds where float64 sampling loses every digit (n >= 11)
    for params in (PR, make_params(10, "1/4")):
        n_max = max_bound_states(params)
        forms = [eigenfunction(n, params) for n in range(n_max + 1)]
        assert node_counts(forms) == list(range(n_max + 1))


def test_node_counts_agree_with_high_precision_sampling():
    # independent route: sum_k a_k cosh(2ku) at 120 digits, sampled every
    # 0.005 in u = px; the zeros lie in 0.3 < u < 2.3, at least 0.04 apart
    import mpmath

    params = make_params(10, "1/4")
    forms = [eigenfunction(n, params) for n in (11, 14, 20)]
    assert node_counts(forms) == [11, 14, 20]
    with mpmath.workdps(120):
        for n, form in zip((11, 14, 20), forms):
            a = [mpmath.mpf(c.numerator) / c.denominator for c in form.coeffs]
            signs = []
            for i in range(1, 801):
                e = mpmath.exp(mpmath.mpf(i) / 100)  # exp(2u) at u = i/200
                total, up, down = 0, 1, 1  # up, down = exp(+-2ku)
                for ak in a:
                    total += ak * (up + down)
                    up, down = up * e, down / e
                signs.append(total > 0)
            assert sum(s != t for s, t in zip(signs, signs[1:])) == n


def _form(coeffs):
    return HyperbolicForm(sigma=Fraction(-1), tau=Fraction(1), p=Fraction(1, 2),
                          coeffs=tuple(Fraction(c) for c in coeffs))


def test_node_counts_report_a_repeated_root():
    # (c - 2)^2 (c - 3) = T_3/4 - 7 T_2/2 + 67 T_1/4 - 31/2 in c = cosh(2px)
    squared = _form(["-31/2", "67/4", "-7/2", "1/4"])
    # the square of the n = 4 series: four double roots in c > 1
    a = eigenfunction(4, PR).coeffs
    product = [Fraction(0)] * (2 * len(a) - 1)
    for j, aj in enumerate(a):
        for k, ak in enumerate(a):  # T_j T_k = (T_{j+k} + T_{|j-k|}) / 2
            product[j + k] += aj * ak / 2
            product[abs(j - k)] += aj * ak / 2
    # (c - 2)(c - 3) = T_2/2 - 5 T_1 + 13/2, times the modulus of the quick
    # square-free test, so the exact test alone decides
    simple = _form([Fraction(13, 2) * hyperpoly._PRIME, -5 * hyperpoly._PRIME,
                    Fraction(1, 2) * hyperpoly._PRIME])
    assert node_counts([squared, _form(product), simple]) == [None, None, 2]


@pytest.mark.parametrize("b, p", [(7, "1/2"), (10, "1/4")])
def test_sample_forms_match_evaluate_bit_for_bit(b, p):
    # the orthogonality grid; its exponential table takes 4 and 10 blocks here
    params = make_params(b, p)
    forms = [eigenfunction(n, params) for n in range(max_bound_states(params) + 1)]
    xs = np.linspace(0.005, 30.0, 60_000) / float(params.p)
    for form, values in zip(forms, sample_forms(forms, xs)):
        assert np.array_equal(values.view(np.int64), evaluate(form, xs).view(np.int64))


def test_orthogonality_exact_only_through_first_rung():
    from susywell.oracle import RadialGrid, inner_product

    grid = RadialGrid(x_min=0.005, x_max=30.0, n_points=40000)
    xs = grid.points()
    vecs = []
    for n in range(6):
        v = evaluate(eigenfunction(n, PR), xs)
        vecs.append(v / math.sqrt(inner_product(v, v, grid)))
    # any pair touching n<=1 is orthogonal at quadrature accuracy
    for n in range(1, 6):
        assert abs(inner_product(vecs[0], vecs[n], grid)) < 1e-9
    for n in range(2, 6):
        assert abs(inner_product(vecs[1], vecs[n], grid)) < 1e-9
    # pairs with both indices >= 2 are measurably non-orthogonal
    worst = max(
        abs(inner_product(vecs[m], vecs[n], grid))
        for m in range(2, 6)
        for n in range(m + 1, 6)
    )
    assert worst > 1e-4


def test_json_serialization_shape():
    # HyperbolicForm keeps plain Fractions; the CLI writes them as [num, den] pairs
    result = CliRunner().invoke(
        main, ["eigenfunction", "--B", "7", "--p", "0.5", "-n", "1", "--grid-points", "150"]
    )
    assert result.exit_code == 0
    d = json.loads(result.output)["form"]
    assert d["sigma"] == [-15, 1]
    assert d["tau"] == [14, 1]
    assert d["p"] == [1, 2]
    assert d["coeffs"] == [[0, 1], [-29, 1], [29, 2]]


def test_form_invariants_enforced():
    with pytest.raises(ValueError):
        HyperbolicForm(sigma=Fraction(-1), tau=Fraction(0), p=Fraction(1, 2),
                       coeffs=(Fraction(1),))
    with pytest.raises(ValueError):
        HyperbolicForm(sigma=Fraction(-1), tau=Fraction(1), p=Fraction(1, 2),
                       coeffs=(Fraction(1), Fraction(0)))


def test_domain_errors():
    f0 = eigenfunction(0, PR)
    for fn in (evaluate, evaluate_scaled, evaluate_derivatives):
        with pytest.raises(ValueError):
            fn(f0, 0.0)
        with pytest.raises(ValueError):
            fn(f0, np.array([1.0, -2.0]))
