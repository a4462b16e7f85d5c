import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susywell import analysis
from susywell.analysis import (
    find_minimum,
    min_polynomial,
    minimum_polynomial_coefficients,
)
from susywell.params import make_params
from susywell.potential import potential_closed_form
from susywell.spectrum import max_bound_states

PR = make_params(7, 0.5)


def test_find_minimum_reference():
    rep = find_minimum(PR)
    assert 0.0 < rep.x0 < 5.0
    assert rep.v_min < 0.0
    scale = float(PR.p) * 240.25
    assert abs(rep.derivative_residual) <= 1e-8 * scale
    # local minimum, not a saddle
    assert potential_closed_form(rep.x0 - 0.01, PR) > rep.v_min
    assert potential_closed_form(rep.x0 + 0.01, PR) > rep.v_min


def test_find_minimum_against_golden_section():
    # independent route: golden-section minimization of V itself
    rep = find_minimum(PR)
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.1, 5.0
    c, d = b - gr * (b - a), a + gr * (b - a)
    for _ in range(200):
        if potential_closed_form(c, PR) < potential_closed_form(d, PR):
            b, d = d, c
            c = b - gr * (b - a)
        else:
            a, c = c, d
            d = a + gr * (b - a)
    x_golden = 0.5 * (a + b)
    assert rep.x0 == pytest.approx(x_golden, abs=1e-5)
    assert rep.v_min == pytest.approx(potential_closed_form(x_golden, PR), abs=1e-9)


def test_minimum_scaling_law():
    # V with (cB, cp) is c^2 V(cx), so x0 -> x0/c and V_min -> c^2 V_min
    rep1 = find_minimum(PR)
    rep2 = find_minimum(make_params(14, 1))
    assert rep2.x0 == pytest.approx(rep1.x0 / 2.0, rel=1e-8)
    assert rep2.v_min == pytest.approx(4.0 * rep1.v_min, rel=1e-10)
    # the same law down to the smallest couplings whose V' tolerance is
    # still a nonzero float64
    rep3 = find_minimum(make_params(10, 1))
    rep4 = find_minimum(make_params(1e-104, 1e-105))
    assert rep4.x0 == pytest.approx(rep3.x0 * 1e105, rel=1e-8)
    assert rep4.v_min == pytest.approx(rep3.v_min * 1e-210, rel=1e-10)


def test_polynomial_palindrome_coefficients():
    rng = random.Random(23)
    for _ in range(30):
        b = Fraction(rng.randint(1, 40), rng.randint(1, 8))
        p = b * Fraction(rng.randint(1, 99), 100)
        cs = minimum_polynomial_coefficients(b, p)
        assert len(cs) == 11
        for j in range(11):
            assert cs[j] == cs[10 - j]


def test_polynomial_reflection_identity_exact():
    rng = random.Random(29)
    for _ in range(30):
        b = Fraction(rng.randint(1, 40), rng.randint(1, 8))
        p = b * Fraction(rng.randint(1, 99), 100)
        t = Fraction(rng.randint(1, 50), rng.randint(1, 50))
        if t == 0:
            continue
        lhs = min_polynomial(t, b, p)
        rhs = t**20 * min_polynomial(1 / t, b, p)
        assert lhs == rhs


@settings(max_examples=200, deadline=None)
@given(st.floats(1.0, 1e150), st.sampled_from([(7, 0.5), (Fraction(1143, 40), Fraction(3, 5))]))
def test_float_polynomial_is_the_float_coefficient_horner_loop(t, well):
    # float t: each Fraction coefficient enters the loop as float(c)
    coeffs = [float(c) for c in minimum_polynomial_coefficients(*well)]
    t2 = t ** 2
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t2 + c
    got = min_polynomial(t, *well)
    assert type(got) is float and got.hex() == acc.hex()


def test_polynomial_overflow_reads_as_an_infinite_probe():
    with pytest.raises(OverflowError):
        min_polynomial(1e155, PR.B, PR.p)
    assert analysis._probe(400.0, PR.B, PR.p) == math.inf


def test_root_probe_identifies_exponential_convention():
    # the minimum satisfies P(exp(p*x0)) = 0; the unscaled exp(x0) does not
    rep = find_minimum(PR)
    probe_p, probe_raw = rep.poly_root_probe
    norm = max(abs(float(c)) for c in minimum_polynomial_coefficients(PR.B, PR.p))
    assert probe_p <= 1e-6 * norm
    assert probe_raw > 1.0


def test_polynomial_single_root_beyond_one():
    ts = np.linspace(1.0001, 6.0, 200001)
    vals = np.array([min_polynomial(float(t), 7, 0.5) for t in ts[:: 400]])
    signs = np.sign(vals)
    changes = int(np.sum(signs[1:] * signs[:-1] < 0))
    assert changes == 1
    rep = find_minimum(PR)
    assert 1.0 < math.exp(float(PR.p) * rep.x0) < 6.0


def test_deeper_wells_hold_more_states():
    wells = [make_params(b, 0.5) for b in (3, 5, 7, 9)]
    depths = [float((pr.A - pr.B) ** 2) - find_minimum(pr).v_min for pr in wells]
    assert depths == sorted(depths)
    # floor((2B + 3p) / (4p)) = B at p = 1/2
    assert [max_bound_states(pr) for pr in wells] == [3, 5, 7, 9]
