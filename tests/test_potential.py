import math
import warnings

import numpy as np
import pytest

import partner_reference
from susywell.params import ladder, make_params, shift_constant
from susywell.spectrum import max_bound_states
from susywell.potential import (
    csch_squared,
    partner_minus,
    partner_plus,
    potential_closed_form,
    potential_derivative,
    sech_squared,
    shape_invariance_residual,
    superpotential,
    superpotential_derivative,
)

PR = make_params(7, 0.5)
A0 = ladder(PR, 0)
# shallow, reference, deep and steep wells; the last is a perfbench validate-deep well
SIX_WELLS = [("3/5", "1/2"), ("7", "1/2"), ("10", "1/4"), ("20", "1/4"), ("1143/40", "3/5"),
             ("2139/32", "3/2")]


def test_superpotential_large_x_limit():
    assert superpotential(100.0, A0, PR.p) == pytest.approx(15.5, abs=1e-12)


def test_superpotential_reference_point():
    expect = 22.5 * math.tanh(1.5) - 7.0 / math.tanh(0.5)
    assert superpotential(1.0, A0, PR.p) == pytest.approx(expect, rel=1e-14)


def test_superpotential_monotone_with_single_zero():
    # strictly increasing until tanh/coth saturate in double precision
    xs = np.geomspace(1e-3, 15, 4000)
    w = superpotential(xs, A0, PR.p)
    assert np.all(np.diff(w) > 0)
    # bisect the unique sign change
    lo, hi = 1e-3, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if superpotential(mid, A0, PR.p) < 0:
            lo = mid
        else:
            hi = mid
    x_node = 0.5 * (lo + hi)
    assert abs(superpotential(x_node, A0, PR.p)) < 1e-9
    assert int(np.sum((w[:-1] < 0) & (w[1:] >= 0))) == 1


def test_superpotential_derivative_matches_finite_differences():
    xs = np.linspace(0.05, 20, 300)
    step = 1e-5
    fd = (superpotential(xs + step, A0, PR.p) - superpotential(xs - step, A0, PR.p)) / (2 * step)
    an = superpotential_derivative(xs, A0, PR.p)
    # the difference quotient itself carries ~|W|*eps/step of cancellation
    # noise, which dominates in the exponentially dead tail
    fd_floor = 16.0 * np.finfo(float).eps / step
    assert np.all(np.abs(an - fd) <= 1e-6 * np.abs(an) + fd_floor)
    assert np.all(an > 0)
    assert superpotential_derivative(500.0, A0, PR.p) == pytest.approx(0.0, abs=1e-200)


def test_partner_difference_is_twice_derivative():
    xs = np.geomspace(0.01, 30, 500)
    lhs = partner_plus(xs, A0, PR.p) - partner_minus(xs, A0, PR.p)
    rhs = 2.0 * superpotential_derivative(xs, A0, PR.p)
    assert np.allclose(lhs, rhs, rtol=1e-12)


def test_partner_minus_large_x_asymptote():
    assert partner_minus(200.0, A0, PR.p) == pytest.approx(240.25, abs=1e-10)


def test_partner_minus_equals_closed_form():
    xs = np.geomspace(1e-3, 30, 1000)
    vm = partner_minus(xs, A0, PR.p)
    vc = potential_closed_form(xs, PR)
    assert np.max(np.abs(vm - vc) / np.maximum(np.abs(vc), 1.0)) < 1e-10


def test_small_x_wall_coefficient():
    # V ~ (B/p)(B/p - 1) / x^2 as x -> 0+, i.e. V*x^2 -> B(B-p)/p^2 = 182
    expect = float(PR.B * (PR.B - PR.p) / PR.p**2)
    assert expect == 182.0
    f4 = float(potential_closed_form(1e-4, PR)) * 1e-8
    f5 = float(potential_closed_form(1e-5, PR)) * 1e-10
    assert f5 == pytest.approx(expect, abs=1e-3)
    # the x^2 correction shrinks a hundredfold between the two probes
    assert abs(f5 - expect) < 0.05 * abs(f4 - expect) + 1e-9


def test_overflow_safe_far_field():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = potential_closed_form(800.0, PR)  # p*x = 400
        w = superpotential(800.0, A0, PR.p)
    assert np.isfinite(v) and v == pytest.approx(240.25, abs=1e-12)
    assert np.isfinite(w)


@pytest.mark.parametrize("fn", [sech_squared, csch_squared])
def test_squared_reciprocals_past_the_tail_region(fn):
    # the plain reciprocal runs up to the overflow of cosh^2 / sinh^2 and
    # agrees there with the asymptotic tail 4 exp(-2z)
    for z in (300.5, 320.0, 354.0):
        v = fn(z)
        assert 0.0 < v < math.inf
        assert v == pytest.approx(4.0 * math.exp(-2.0 * z), rel=1e-12)
    # past it the reciprocal of inf is exactly 0, with no overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [fn(z) for z in (356.0, 1e3, 1e6)] == [0.0, 0.0, 0.0]
        assert np.all(fn(np.array([356.0, 1e3, 1e6])) == 0.0)


def test_singular_sentinel_near_origin():
    assert potential_closed_form(1e-9, PR) == np.inf
    assert partner_minus(1e-9, A0, PR.p) == np.inf
    out = potential_closed_form(np.array([1e-9, 1.0]), PR)
    assert out[0] == np.inf and np.isfinite(out[1])


@pytest.mark.parametrize("fn", [
    lambda x: superpotential(x, A0, PR.p),
    lambda x: superpotential_derivative(x, A0, PR.p),
    lambda x: partner_minus(x, A0, PR.p),
    lambda x: partner_plus(x, A0, PR.p),
    lambda x: potential_closed_form(x, PR),
    lambda x: potential_derivative(x, PR),
    lambda x: shape_invariance_residual(x, PR, 0),
])
def test_domain_errors(fn):
    with pytest.raises(ValueError):
        fn(0.0)
    with pytest.raises(ValueError):
        fn(-1.0)
    with pytest.raises(ValueError):
        fn(np.array([1.0, -0.5]))
    with pytest.raises(ValueError):
        fn(np.nan)
    with pytest.raises(ValueError):
        fn(np.array([1.0, np.nan]))


def test_shape_invariance_closes_at_first_rung_only():
    xs = np.geomspace(0.1, 10, 2000)
    res0 = shape_invariance_residual(xs, PR, 0)
    scale = np.maximum(1.0, np.abs(partner_plus(xs, ladder(PR, 0), PR.p)))
    assert np.max(np.abs(res0) / scale) < 1e-9

    # beyond the first rung the pair does not close: the residual is exactly
    # -24 k p^2 / (2 cosh(2px) - 1), an O(1) mismatch, not roundoff
    p = float(PR.p)
    for k in (1, 3, 6):
        res = shape_invariance_residual(xs, PR, k)
        predicted = -24.0 * k * p * p / (2.0 * np.cosh(2.0 * p * xs) - 1.0)
        assert np.max(np.abs(res - predicted)) < 1e-8
        assert np.max(np.abs(res)) > 1.0


def test_shape_invariance_sensitivity_control():
    # shifting C by one unit must move the residual by exactly -1
    xs = np.geomspace(0.1, 10, 200)
    vp = partner_plus(xs, ladder(PR, 0), PR.p)
    vm = partner_minus(xs, ladder(PR, 1), PR.p)
    wrong = vp - vm - (float(shift_constant(PR, 0)) + 1.0)
    assert np.allclose(wrong, -1.0, atol=1e-9)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("b, p", SIX_WELLS)
def test_partner_potentials_match_the_unshared_route_bit_for_bit(b, p):
    # the shape-invariance grid, where the four hyperbolic arrays are shared
    # by every rung, and a grid reaching into the singular wall
    params = make_params(b, p)
    pf = float(params.p)
    shape_grid = np.geomspace(1e-3 / pf, 30.0 / pf, 10_000)
    for xs in (shape_grid, np.geomspace(1e-12, 40.0 / pf, 500)):
        for k in range(max_bound_states(params)):
            rung, up = ladder(params, k), ladder(params, k + 1)
            assert np.array_equal(_bits(partner_plus(xs, rung, params.p)),
                                  _bits(partner_reference.partner(xs, rung, params.p, True)))
            assert np.array_equal(_bits(partner_minus(xs, up, params.p)),
                                  _bits(partner_reference.partner(xs, up, params.p, False)))
            if xs is shape_grid:  # in the wall the residual is inf - inf
                assert np.array_equal(
                    _bits(shape_invariance_residual(xs, params, k)),
                    _bits(partner_reference.shape_invariance_residual(xs, params, k)))


def test_shared_hyperbolic_arrays_follow_p_and_the_points():
    # the same array at another p, and the same array after an in-place
    # change of its points, must not reuse the last call's terms
    xs = np.geomspace(0.01, 20.0, 300)
    for p in (PR.p, 2 * PR.p, PR.p):
        assert np.array_equal(_bits(partner_plus(xs, A0, p)),
                              _bits(partner_reference.partner(xs, A0, p, True)))
    xs *= 1.5
    assert np.array_equal(_bits(partner_minus(xs, A0, PR.p)),
                          _bits(partner_reference.partner(xs, A0, PR.p, False)))
    assert partner_plus(2.0, A0, PR.p) == partner_reference.partner(2.0, A0, PR.p, True)
