import hashlib
import json
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from susywell import hyperpoly
from susywell.cli import main
from susywell.hyperpoly import (
    HyperbolicForm,
    _top_bits,
    apply_creation,
    candidate_form,
    decay_exponent,
    eigenfunction,
    evaluate,
    evaluate_derivatives,
    evaluate_scaled,
    ground_form,
    ladder_forms,
    node_counts,
    sample_forms,
)
from susywell.params import Float64RangeError, LadderParams, ladder, make_params
from susywell.potential import potential_closed_form, superpotential
from susywell.spectrum import full_spectrum, max_bound_states
from closed_form_reference import log2_exact, reference_top
from series_reference import reference_samples

PR = make_params(7, 0.5)


def test_ground_form_reference_exponents():
    f0 = ground_form(ladder(PR, 0), PR.p)
    assert (f0.sigma, f0.tau, f0.coeffs, f0.den) == (-15, 14, (1,), 1)
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
    assert (form.coeffs, form.den) == ((0, -58, 29), 2)  # (0, -29, 29/2)


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


def _fractions(form):
    """The series coefficients of `form`, each a reduced Fraction."""
    return tuple(Fraction(c, form.den) for c in form.coeffs)


def _creation_four_term(form, target, coeffs):
    """apply_creation's coefficients, as Fractions, by the plain four-term
    formula applied to the series `coeffs` under the exponents of `form`."""
    p = form.p
    u = target.A - 3 * p * form.sigma
    v = target.B + p * form.tau
    out = [Fraction(0)] * (len(coeffs) + 2)
    for k, a in enumerate(coeffs):
        ua, va, w = u * a, v * a, 2 * k * p * a
        out[k + 2] += (ua - va - w) / 4
        out[abs(k - 2)] += (ua - va + w) / 4
        out[k + 1] += (-ua - va + w) / 4
        out[abs(k - 1)] += (-ua - va - w) / 4
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


# (1261/64, 1/4): n_max = 40, and coefficient denominators up to 2^k
@pytest.mark.parametrize("b, p", [(7, "1/2"), ("51/16", "1/3"), (10, "1/4"), ("1261/64", "1/4")])
def test_apply_creation_matches_four_term_formula(b, p):
    params = make_params(b, p)
    # past n_max on the shallow wells: the recursion has no cutoff
    for n in range(max(13, max_bound_states(params) + 1)):
        form = ground_form(ladder(params, n), params.p)
        for k in range(n - 1, -1, -1):
            expect = _creation_four_term(form, ladder(params, k), _fractions(form))
            form = apply_creation(form, ladder(params, k))
            assert _fractions(form) == expect


@pytest.mark.parametrize("b, p, n_max", [("158/3", "2/3", 40), ("1111/16", 1, 35)])
def test_candidate_form_matches_four_term_recursion_on_deep_wells(b, p, n_max):
    params = make_params(b, p)
    assert max_bound_states(params) == n_max
    ground = form = ground_form(ladder(params, n_max), params.p)
    coeffs = _fractions(form)  # the reference recursion, on Fractions throughout
    for k in range(n_max - 1, -1, -1):
        coeffs = _creation_four_term(form, ladder(params, k), coeffs)
        form = apply_creation(form, ladder(params, k))
        assert form.den > 0 and math.gcd(form.den, *form.coeffs) == 1
    assert candidate_form(n_max, params) == form
    assert (form.sigma, form.tau) == (ground.sigma - n_max, ground.tau - n_max)
    assert _fractions(form) == coeffs


def _positive(fraction):
    return fraction.filter(lambda f: f > 0)


# any rational exponents, p and target couplings, on a series that need not
# come from the ladder or be reduced; tau <= 1 must hit the regularity guard
@settings(max_examples=300, deadline=None)
@given(sigma=st.fractions(-60, 60, max_denominator=48),
       tau=_positive(st.fractions(0, 60, max_denominator=48)),
       p=_positive(st.fractions(0, 20, max_denominator=48)),
       A=st.fractions(-200, 200, max_denominator=96),
       B=st.fractions(-200, 200, max_denominator=96),
       coeffs=st.lists(st.integers(-10**40, 10**40), min_size=1, max_size=9)
       .filter(lambda c: len(c) == 1 or c[-1] != 0),
       den=st.integers(1, 10**20))
@example(sigma=Fraction(-15), tau=Fraction(14), p=Fraction(1, 2), A=Fraction(45, 2),
         B=Fraction(7), coeffs=[1], den=1)
@example(sigma=Fraction(0), tau=Fraction(3), p=Fraction(1), A=Fraction(0),
         B=Fraction(0), coeffs=[0], den=1)
@example(sigma=Fraction(1), tau=Fraction(1), p=Fraction(1), A=Fraction(1),
         B=Fraction(1), coeffs=[1], den=1)
def test_apply_creation_matches_four_term_formula_on_any_rationals(
        sigma, tau, p, A, B, coeffs, den):
    form = HyperbolicForm(sigma=sigma, tau=tau, p=p, coeffs=tuple(coeffs), den=den)
    target = LadderParams(A=A, B=B)
    if tau <= 1:
        with pytest.raises(ValueError, match=r"regularity at the origin \(tau - 1 <= 0\)"):
            apply_creation(form, target)
        return
    expect = _creation_four_term(form, target, _fractions(form))
    if expect == (0,):
        with pytest.raises(ValueError, match="annihilated"):
            apply_creation(form, target)
        return
    out = apply_creation(form, target)
    assert _fractions(out) == expect
    assert out.den > 0 and math.gcd(out.den, *out.coeffs) == 1
    assert (out.sigma, out.tau, out.p) == (sigma - 1, tau - 1, p)


@pytest.mark.parametrize("b, p, n", [
    (7, "1/2", 0), (7, "1/2", 3), ("3/5", "1/2", 1), ("1143/40", "3/5", 24),
    ("1261/64", "1/4", 40), (7, "1/40", 140),
])
def test_top_coefficient_closed_form_matches_the_built_form(b, p, n):
    params = make_params(b, p)
    form = eigenfunction(n, params)
    top = Fraction(form.coeffs[-1], form.den)
    assert top == reference_top(n, params)
    # the ground form's 1 reads as the empty product's 2
    bits = log2_exact(top) + (n == 0)
    assert abs(_top_bits(n, params) - bits) < 1e-9


def test_top_coefficient_check_raises_exactly_past_the_one_bit_band(monkeypatch):
    # d0 = 20k and p = k give form 3 the top 420 k^3: k = 2^338 c puts it
    # just below 2^1024 (c = 1.3458) and just above 2^1025 (c = 1.6958)
    cases = [(make_params(17 * k / 2, k), 3)
             for k in (2**338 * Fraction(13458, 10000), 2**338 * Fraction(16958, 10000))]
    # and wells whose tops cross 2^1024 near n = N <= 1500, scanned at
    # n <= 2N: log2 of the top is about N log2(d0/4) there, so
    # d0 = 4 * 2^(1024/N) puts the crossing mid-scan; small denominators keep
    # the exact product, which each n is tested against, cheap
    rng = random.Random(23)
    for _ in range(40):
        N = round(5 * 300 ** rng.random())
        d0 = Fraction(4 * 2 ** (1024 / N) * rng.uniform(0.5, 2)).limit_denominator(1000)
        p = d0 / 4 / (N * Fraction(rng.randint(120, 300), 100))  # level ratio 1.2N..3N
        params = make_params((d0 - 3 * p) / 2, p)
        n_max = max_bound_states(params)
        cases += [(params, n) for n in
                  sorted({min(n_max, round(N * 2 ** rng.uniform(-1, 1))) for _ in range(5)})]
    # a case that raises does so before its chain of up to 3000 steps is built
    def unbuilt(n, params):
        raise AssertionError(f"form {n} was built")

    monkeypatch.setattr(hyperpoly, "eigenfunction", unbuilt)
    seen = {"over": 0, "under": 0}
    for params, n in cases:
        top = reference_top(n, params)
        raised = _top_bits(n, params) > 1025
        if raised:
            with pytest.raises(Float64RangeError) as exc:
                next(ladder_forms(params, [n]))
            assert str(exc.value) == (f"coefficients of the exact form with top index {2 * n} "
                                      "overflow float64")
        if top >= 2**1025:
            assert raised, (params, n)
            seen["over"] += 1
        elif top < 2**1024:
            assert not raised, (params, n)
            seen["under"] += 1
    assert seen["over"] > 40 and seen["under"] > 40


# sha256 of the reduced coefficients of the forms n = 0..n_max, each
# "num/den", joined by ";", one form per line: pure integer arithmetic, so
# the digests cannot move with the platform's libm
@pytest.mark.parametrize("b, p, digest", [
    (20, "1/4", "75e83a62ced4d4e25236111fc0419590a4ecc2e2e07fd799956fa14a3e67bf90"),
    ("1261/64", "1/4", "ab4834782d16302ce58654c431f0da20c9ccf8a8f09b9f95b6d5770eaa9d9517"),
    ("158/3", "2/3", "5483d98cfa7ee2958ed957aa59b319ed680da24c3aae551adb2a49aa9eb36d72"),
    ("1111/16", 1, "38a3687e62218ee6b025a315afcffaa140dbced5a5da22715357bd5c48ce4815"),
])
def test_exact_forms_are_pinned(b, p, digest):
    params = make_params(b, p)
    text = "".join(
        ";".join(f"{a.numerator}/{a.denominator}" for a in _fractions(eigenfunction(n, params)))
        + "\n"
        for n in range(max_bound_states(params) + 1)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_eigenfunction_low_indices():
    f0 = eigenfunction(0, PR)
    assert f0 == ground_form(ladder(PR, 0), PR.p)
    f1 = eigenfunction(1, PR)
    assert (f1.coeffs, f1.den) == ((0, -58, 29), 2)


def test_eigenfunction_second_state_exact_recursion():
    f2 = eigenfunction(2, PR)
    assert f2.den == 8
    assert _fractions(f2) == (
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
    form = ground_form(LadderParams(A=Fraction(3), B=Fraction(1, 2)), Fraction(1, 2))
    assert form.tau == 1
    with pytest.raises(ValueError, match="regularity"):
        apply_creation(form, LadderParams(A=Fraction(3), B=Fraction(1, 2)))


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
            a = [mpmath.mpf(c) / form.den for c in form.coeffs]
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
    """The form with series coeffs (rationals), as integers over their lcm."""
    coeffs = [Fraction(c) for c in coeffs]
    den = math.lcm(*(c.denominator for c in coeffs))
    return HyperbolicForm(sigma=Fraction(-1), tau=Fraction(1), p=Fraction(1, 2),
                          coeffs=tuple(int(c * den) for c in coeffs), den=den)


def test_node_counts_report_a_repeated_root():
    # (c - 2)^2 (c - 3) = T_3/4 - 7 T_2/2 + 67 T_1/4 - 31/2 in c = cosh(2px)
    squared = _form(["-31/2", "67/4", "-7/2", "1/4"])
    # the square of the n = 4 series: four double roots in c > 1
    a = _fractions(eigenfunction(4, PR))
    product = [Fraction(0)] * (2 * len(a) - 1)
    for j, aj in enumerate(a):
        for k, ak in enumerate(a):  # T_j T_k = (T_{j+k} + T_{|j-k|}) / 2
            product[j + k] += aj * ak / 2
            product[abs(j - k)] += aj * ak / 2
    # (c - 2)(c - 3) = T_2/2 - 5 T_1 + 13/2 times the prime 2^61 - 1: a large
    # common factor of the coefficients moves no root, nor does one that the
    # numerators share with the denominator (a form that is not canonical)
    simple = _form([Fraction(13, 2) * (2**61 - 1), -5 * (2**61 - 1),
                    Fraction(1, 2) * (2**61 - 1)])
    not_canonical = replace(simple, den=simple.den * (2**61 - 1))
    assert node_counts([squared, _form(product), simple, not_canonical]) == [None, None, 2, 2]


def _from_roots(roots):
    """The form whose series is prod (c - r) in c = cosh(2px), in the T_k basis."""
    coeffs = [Fraction(1)]
    for r in roots:
        out = [Fraction(0)] * (len(coeffs) + 1)
        for k, a in enumerate(coeffs):  # c T_k = (T_{k+1} + T_{|k-1|}) / 2
            out[k + 1] += a / 2
            out[abs(k - 1)] += a / 2
            out[k] -= r * a
        coeffs = out
    return _form(coeffs)


def test_node_counts_separate_roots_far_below_float64_spacing():
    # distinct, non-dyadic roots 2^-200 apart: the bisection depth cap never
    # cuts off two distinct roots
    near = Fraction(10, 7)
    assert node_counts([_from_roots([near, near + Fraction(1, 3 * 2**200), 3])]) == [3]


def test_node_counts_ignore_repeated_roots_off_the_half_line():
    # double roots at c = -1 and c = 1/2 lie below c = 1, so off x > 0;
    # only the simple roots c = 2 and c = 5 are nodes
    forms = [_from_roots([-1, -1, 2, 5]), _from_roots([Fraction(1, 2), Fraction(1, 2), 2, 5])]
    assert node_counts(forms) == [2, 2]


def test_node_counts_skip_zeros_at_the_origin():
    # c = cosh(2px) = 1 is x = 0, a zero of the series there is no node:
    # 2(c - 1)(c - 2) has one, 1 - c none, the double root of 2(c - 1)^2
    # none, and 4(c - 1)(c - 2)(c - 3) two, isolated by bisection
    forms = [HyperbolicForm(sigma=Fraction(-3), tau=Fraction(2), p=Fraction(1, 2),
                            coeffs=coeffs, den=1)
             for coeffs in ((5, -6, 1), (1, -1), (3, -4, 1), (-36, 47, -12, 1))]
    assert node_counts(forms) == [1, 0, 0, 2]


def test_node_counts_finish_where_coefficients_carry_a_large_prime():
    # B = (2^61 - 1)/2^40 and B/p = 60: from n = 1 on, the top series
    # coefficient of each form is a multiple of the prime 2^61 - 1
    B = Fraction(2**61 - 1, 2**40)
    params = make_params(B, B / 60)
    assert max_bound_states(params) == 30
    forms = [eigenfunction(n, params) for n in range(31)]
    assert node_counts(forms) == list(range(31))


@pytest.mark.parametrize("b, p", [(7, "1/2"), (10, "1/4")])
def test_sample_forms_match_evaluate_bit_for_bit(b, p):
    # the orthogonality grid; its exponential table takes 4 and 10 blocks here
    params = make_params(b, p)
    forms = [eigenfunction(n, params) for n in range(max_bound_states(params) + 1)]
    xs = np.linspace(0.005, 30.0, 60_000) / float(params.p)
    for form, values in zip(forms, sample_forms(forms, xs)):
        assert np.array_equal(values.view(np.int64), evaluate(form, xs).view(np.int64))


# grids out to x = 200/p, where the table's entries underflow to subnormals
# and to 0; 8000 points take two table blocks at both wells
@pytest.mark.parametrize("b, p, n_top", [("1261/64", "1/4", 40), (7, "1/40", 60)])
def test_sample_forms_match_the_per_term_reference_bit_for_bit(b, p, n_top):
    params = make_params(b, p)
    forms = [eigenfunction(n, params) for n in range(n_top + 1)]
    xs = np.linspace(0.005, 200.0, 8000) / float(params.p)
    for got, expect in zip(sample_forms(forms, xs), reference_samples(forms, xs)):
        assert np.array_equal(got.view(np.int64), expect.view(np.int64))


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
    # HyperbolicForm keeps integer numerators over one denominator; the CLI
    # writes each coefficient reduced, as a [num, den] pair
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
                       coeffs=(1,), den=1)
    with pytest.raises(ValueError):
        HyperbolicForm(sigma=Fraction(-1), tau=Fraction(1), p=Fraction(1, 2),
                       coeffs=(1, 0), den=1)


def test_domain_errors():
    f0 = eigenfunction(0, PR)
    for fn in (evaluate, evaluate_scaled, evaluate_derivatives,
               lambda f, x: sample_forms([f], x)):
        with pytest.raises(ValueError):
            fn(f0, 0.0)
        with pytest.raises(ValueError):
            fn(f0, np.array([1.0, -2.0]))


def test_sample_forms_needs_forms_with_one_p():
    xs = np.array([1.0, 2.0])
    with pytest.raises(ValueError, match="one p"):
        sample_forms([], xs)
    with pytest.raises(ValueError, match="one p"):
        sample_forms([eigenfunction(1, PR), eigenfunction(1, make_params(10, "1/4"))], xs)


def test_derivative_psi_matches_evaluate_bit_for_bit():
    # the eigenfunction-residual grid of validate at a deep well
    params = make_params(20, "1/4")
    p = float(params.p)
    xs = np.linspace(0.05 / p, 24.0 / p, 4000)
    for n in range(max_bound_states(params) + 1):
        form = eigenfunction(n, params)
        psi = evaluate_derivatives(form, xs)[0]
        assert np.array_equal(psi.view(np.int64), evaluate(form, xs).view(np.int64))
