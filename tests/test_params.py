import random
from fractions import Fraction

import pytest

from susywell.params import (
    MAX_LEVEL_RATIO,
    ladder,
    ladder_offset,
    level_ratio,
    make_params,
    shift_constant,
)


def test_make_params_reference_values():
    pr = make_params(7, 0.5)
    assert pr.A == Fraction(45, 2)
    assert pr.B == 7
    assert pr.p == Fraction(1, 2)

    pr = make_params(2, 0.25)
    assert pr.A == Fraction(27, 4)


def test_make_params_rejects_boundary_and_sign():
    with pytest.raises(ValueError, match="strictly less than B"):
        make_params(1, 1)
    with pytest.raises(ValueError, match="p must be positive"):
        make_params(1, 0)
    with pytest.raises(ValueError, match="p must be positive"):
        make_params(1, -2)
    with pytest.raises(ValueError, match="B must be positive"):
        make_params(0, Fraction(1, 2))
    with pytest.raises(ValueError, match="B must be positive"):
        make_params(-3, Fraction(1, 2))
    with pytest.raises(ValueError, match="strictly less than B"):
        make_params(1, 2)
    with pytest.raises(ValueError, match="B overflows float64"):
        make_params(Fraction(10**309), Fraction(10**308))
    with pytest.raises(ValueError, match="p underflows float64 to 0"):
        make_params(7, Fraction(1, 10**400))
    with pytest.raises(ValueError, match="must be a finite real"):
        make_params(float("inf"), 1)
    pr = make_params(Fraction(1, 10**300), Fraction(1, 10**301))  # tiny but representable
    assert pr.A == 3 * (pr.B + pr.p)


def test_make_params_caps_threshold_and_level_count():
    with pytest.raises(ValueError, match=r"threshold \(2B\+3p\)\^2 overflows float64"):
        make_params(1e200, 1e199)
    with pytest.raises(ValueError, match=r"\(2B\+3p\)/\(4p\) exceeds 1000000"):
        make_params(7, 1e-300)
    with pytest.raises(ValueError, match=r"exceeds 1000000"):
        make_params(2 * 10**6, 1)  # r = 1000000.75
    assert level_ratio(make_params(Fraction(3999997, 2), 1)) == MAX_LEVEL_RATIO
    assert level_ratio(make_params(1000, Fraction(1, 1000))) == Fraction(2000003, 4)


def test_float_inputs_promote_exactly():
    pr = make_params(0.5, 0.25)
    assert pr.B == Fraction(1, 2)
    assert pr.p == Fraction(1, 4)
    assert pr.A == Fraction(9, 4)


def test_ladder_rungs():
    pr = make_params(7, 0.5)
    a0 = ladder(pr, 0)
    assert (a0.A, a0.B) == (Fraction(45, 2), 7)
    a1 = ladder(pr, 1)
    assert (a1.A, a1.B) == (21, Fraction(15, 2))
    a7 = ladder(pr, 7)
    assert (a7.A, a7.B) == (12, Fraction(21, 2))
    assert a7.A - a7.B == Fraction(3, 2)
    with pytest.raises(ValueError):
        ladder(pr, -1)


def test_ladder_one_step_map():
    rng = random.Random(7)
    for _ in range(50):
        b = Fraction(rng.randint(2, 40), rng.randint(1, 6))
        p = b * Fraction(rng.randint(1, 99), 100)
        pr = make_params(b, p)
        k = rng.randint(0, 12)
        cur, nxt = ladder(pr, k), ladder(pr, k + 1)
        assert nxt.A == cur.A - 3 * pr.p
        assert nxt.B == cur.B + pr.p


def test_ladder_offset_values():
    pr = make_params(7, 0.5)
    assert ladder_offset(ladder(pr, 0)) == Fraction(-961, 4)  # -240.25
    assert ladder_offset(ladder(pr, 1)) - ladder_offset(ladder(pr, 0)) == 58


def test_ladder_offset_zero_at_symmetry_point():
    from susywell.params import LadderParams

    assert ladder_offset(LadderParams(k=0, A=Fraction(5), B=Fraction(5))) == 0


def test_shift_constant_reference():
    pr = make_params(7, 0.5)
    assert shift_constant(pr, 0) == 58
    assert sum(shift_constant(pr, k) for k in range(7)) == 238


def test_shift_constant_closed_form_first_step():
    # C(a_0) = 8p(2B + p), exact, over randomized admissible rationals
    rng = random.Random(11)
    for _ in range(100):
        b = Fraction(rng.randint(1, 50), rng.randint(1, 10))
        p = b * Fraction(rng.randint(1, 99), 100)
        pr = make_params(b, p)
        assert shift_constant(pr, 0) == 8 * p * (2 * b + p)


def test_shift_constant_vanishes_at_ladder_midpoint():
    # A_k - B_k = 2p makes the telescoping step symmetric: C(a_k) = 0
    pr = make_params(Fraction(7, 2), 1)
    k = 2  # A_k - B_k = 2B + 3p - 4kp = 10 - 8 = 2 = 2p
    assert ladder(pr, k).A - ladder(pr, k).B == 2 * pr.p
    assert shift_constant(pr, k) == 0


def test_telescoping_is_exact():
    rng = random.Random(13)
    for _ in range(100):
        b = Fraction(rng.randint(1, 50), rng.randint(1, 10))
        p = b * Fraction(rng.randint(1, 99), 100)
        pr = make_params(b, p)
        n = rng.randint(1, 10)
        total = sum(shift_constant(pr, k) for k in range(n))
        assert total == ladder_offset(ladder(pr, n)) - ladder_offset(ladder(pr, 0))
