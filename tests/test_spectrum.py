import json
import random
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from susywell.cli import main
from susywell.params import ladder, ladder_offset, level_ratio, make_params
from susywell.spectrum import full_spectrum, max_bound_states, state_decay_rate
from closed_form_reference import reference_level

PR = make_params(7, 0.5)


def test_reference_levels():
    levels = full_spectrum(PR).levels
    assert [n for n, _ in levels] == list(range(8))
    assert [float(e) for _, e in levels] == [0, 58, 108, 150, 184, 210, 228, 238]


def test_max_bound_states_branches():
    assert max_bound_states(PR) == 7  # r = 7.75
    assert max_bound_states(make_params(Fraction(25, 4), Fraction(1, 2))) == 6  # r = 7 exact
    assert max_bound_states(make_params(Fraction(3, 5), Fraction(1, 2))) == 1  # r = 1.35


def test_integer_branch_is_exact_not_epsilon():
    # r integer must be detected in rational arithmetic
    pr = make_params(Fraction(25, 4), Fraction(1, 2))
    r = (2 * pr.B + 3 * pr.p) / (4 * pr.p)
    assert r == 7 and r.denominator == 1
    assert max_bound_states(pr) == 6
    # marginal state beyond the cutoff sits exactly at zero decay
    assert state_decay_rate(pr, 7) == 0


@settings(max_examples=300, deadline=None)
@example(r=Fraction(3), p=Fraction(1))  # (B, p) = (9/2, 1)
@example(r=Fraction(7), p=Fraction(1, 2))
@given(
    # r > 5/4 is B > p
    r=st.one_of(st.integers(2, 10**6).map(Fraction),
                st.fractions(Fraction(5, 4), 10**6, max_denominator=10**4)
                .filter(lambda r: r > Fraction(5, 4))),
    p=st.fractions(Fraction(1, 10**4), 10**4, max_denominator=10**4),
)
def test_cutoff_is_floor_or_one_below_an_integer_ratio(r, p):
    pr = make_params(p * (4 * r - 3) / 2, p)
    assert level_ratio(pr) == r
    expect = r.numerator - 1 if r.denominator == 1 else r.numerator // r.denominator
    assert max_bound_states(pr) == expect


def test_full_spectrum_reference():
    spec = full_spectrum(PR)
    assert spec.n_max == 7
    assert spec.asymptote == Fraction(961, 4)
    assert [float(e) for _, e in spec.levels] == [0, 58, 108, 150, 184, 210, 228, 238]
    diffs = [spec.levels[i + 1][1] - spec.levels[i][1] for i in range(7)]
    assert all(d > 0 for d in diffs)
    assert all(e < spec.asymptote for _, e in spec.levels)


def test_small_well_spectrum():
    # E_1 = 8p(2B + p) for the first step: 8*(1/2)*(17/10) = 34/5
    spec = full_spectrum(make_params(Fraction(3, 5), Fraction(1, 2)))
    assert spec.n_max == 1
    assert [e for _, e in spec.levels] == [0, Fraction(34, 5)]
    assert float(spec.levels[1][1]) == pytest.approx(6.8)


def test_count_bounds_random():
    rng = random.Random(17)
    for _ in range(100):
        b = Fraction(rng.randint(1, 50), rng.randint(1, 10))
        p = b * Fraction(rng.randint(1, 99), 100)
        pr = make_params(b, p)
        n_max = max_bound_states(pr)
        r = (2 * b + 3 * p) / (4 * p)
        loose = (2 * b + 5 * p) / (4 * p)
        assert n_max < r <= loose
        assert n_max >= 1
        assert state_decay_rate(pr, n_max) < 0 <= state_decay_rate(pr, n_max + 1)


def test_energy_equals_offset_difference():
    rng = random.Random(19)
    for _ in range(100):
        b = Fraction(rng.randint(1, 50), rng.randint(1, 10))
        p = b * Fraction(rng.randint(1, 99), 100)
        pr = make_params(b, p)
        a0 = ladder_offset(ladder(pr, 0))
        for n, e in full_spectrum(pr).levels:
            assert e == ladder_offset(ladder(pr, n)) - a0


@settings(max_examples=40, deadline=None)
@example(r=Fraction(31, 4), p=Fraction(1, 2))  # (7, 1/2)
@example(r=Fraction(3000), p=Fraction(1, 10**4))  # the marginal state, at n_max = 2999
@given(
    r=st.fractions(Fraction(5, 4), 3000, max_denominator=10**6).filter(lambda r: r > Fraction(5, 4)),
    p=st.one_of(st.fractions(Fraction(1, 10**6), 10**6, max_denominator=10**6),
                st.floats(1e-150, 1e150).map(Fraction)),
)
def test_levels_equal_the_closed_quadratic(r, p):
    pr = make_params(p * (4 * r - 3) / 2, p)
    assert full_spectrum(pr).levels == tuple(
        (n, reference_level(n, pr)) for n in range(max_bound_states(pr) + 1))


def test_levels_of_a_capped_well_equal_the_closed_quadratic():
    pr = make_params(2, 1e-5)  # n_max = 100000, p a binary fraction
    levels = full_spectrum(pr).levels
    assert len(levels) == max_bound_states(pr) + 1 == 100001
    for n, e in levels[:500] + levels[-500:]:
        assert e == reference_level(n, pr)


def test_serialization():
    # the output contract lives in the CLI: check its JSON and CSV for this well
    runner = CliRunner()
    result = runner.invoke(main, ["spectrum", "--B", "7", "--p", "0.5", "--format", "json"])
    assert result.exit_code == 0
    d = json.loads(result.output)
    assert d["n_max"] == 7
    assert d["asymptote"] == 240.25
    assert d["asymptote_exact"] == "961/4"
    assert d["levels"][0] == {"n": 0, "E": 0.0, "E_exact": "0"}
    assert d["levels"][-1]["E"] == 238.0
    result = runner.invoke(main, ["spectrum", "--B", "7", "--p", "0.5", "--format", "csv"])
    assert result.exit_code == 0
    lines = result.output.strip().split("\n")
    assert lines[0] == "n,E"
    assert lines[-1] == "7,238"
    assert len(lines) == 9
