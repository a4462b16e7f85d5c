"""Closed-form ladder energies and bound-state counting."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .params import ModelParams, ladder, ladder_offset, shift_constant


def raw_energy_formula(n: int, params: ModelParams) -> Fraction:
    """(A-B)^2 - (A-B-4np)^2 = 8np(2B+3p-2np), with no cap on n.

    Escape hatch for plotting and analysis; beyond max_bound_states the
    value no longer corresponds to a normalizable state.
    """
    if n < 0:
        raise ValueError("state index n must be nonnegative")
    d0 = params.A - params.B
    dn = d0 - 4 * n * params.p
    return d0 * d0 - dn * dn


def max_bound_states(params: ModelParams) -> int:
    """Largest n with negative decay exponent: r = (2B+3p)/(4p), floor(r),
    minus one more when r is exactly an integer (the marginal state has
    decay exponent exactly zero).

    The integer test is exact rational arithmetic, never an epsilon compare.
    """
    r = (2 * params.B + 3 * params.p) / (4 * params.p)
    if r.denominator == 1:
        return int(r) - 1
    return r.numerator // r.denominator


def state_decay_rate(params: ModelParams, n: int) -> Fraction:
    """Large-x exponential rate 4np - (2B + 3p) of the n-th ladder form."""
    return 4 * n * params.p - (2 * params.B + 3 * params.p)


def energy(n: int, params: ModelParams) -> Fraction:
    """Closed-form level E_n for a retained bound state.

    IndexError for n beyond max_bound_states; use raw_energy_formula to
    evaluate the bare quadratic there.
    """
    n_max = max_bound_states(params)
    if n > n_max:
        raise IndexError(f"state index {n} exceeds the bound-state cutoff n_max = {n_max}")
    return raw_energy_formula(n, params)


@dataclass(frozen=True)
class Spectrum:
    """All retained levels plus the continuum threshold (2B+3p)^2."""

    params: ModelParams
    levels: tuple[tuple[int, Fraction], ...]
    n_max: int
    asymptote: Fraction


def full_spectrum(params: ModelParams) -> Spectrum:
    """Levels n = 0..n_max computed two ways (closed quadratic and the
    telescoped sum of shift constants); the routes must agree exactly."""
    n_max = max_bound_states(params)
    a0 = ladder_offset(ladder(params, 0))
    levels = []
    running = Fraction(0)
    for n in range(n_max + 1):
        closed = raw_energy_formula(n, params)
        telescoped = ladder_offset(ladder(params, n)) - a0
        if not (closed == telescoped == running):
            raise RuntimeError(
                f"energy routes disagree at n={n}: closed {closed}, "
                f"telescoped {telescoped}, summed {running}"
            )
        levels.append((n, closed))
        running += shift_constant(params, n)
    d0 = params.A - params.B
    return Spectrum(params=params, levels=tuple(levels), n_max=n_max, asymptote=d0 * d0)
