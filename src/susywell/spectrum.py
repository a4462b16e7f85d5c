"""Closed-form ladder energies and bound-state counting."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .params import ModelParams, level_ratio


def max_bound_states(params: ModelParams) -> int:
    """Largest n with negative decay exponent 4np - (2B+3p): ceil(r) - 1 for
    r = level_ratio = (2B+3p)/(4p), which is floor(r), or r - 1 when r is
    an integer (the marginal state has decay exponent exactly zero).

    Exact: math.ceil of the Fraction, never a float or an epsilon compare.
    """
    return math.ceil(level_ratio(params)) - 1


def state_decay_rate(params: ModelParams, n: int) -> Fraction:
    """Large-x exponential rate 4np - (2B + 3p) of the n-th ladder form."""
    return 4 * n * params.p - (2 * params.B + 3 * params.p)


@dataclass(frozen=True)
class Spectrum:
    """All retained levels plus the continuum threshold (2B+3p)^2."""

    levels: tuple[tuple[int, Fraction], ...]
    n_max: int
    asymptote: Fraction


def full_spectrum(params: ModelParams) -> Spectrum:
    """Levels n = 0..n_max from the closed quadratic
    E_n = d0^2 - (d0 - 4np)^2 = 8np(d0 - 2np), d0 = A - B: with d0 = a/b
    and p = c/e, one integer fraction per level.  validate's telescoping
    check compares them with the telescoped and summed routes."""
    n_max = max_bound_states(params)
    d0 = params.A - params.B
    a, b, c, e = d0.numerator, d0.denominator, params.p.numerator, params.p.denominator
    ae, cb, be2 = a * e, c * b, b * e * e
    levels = tuple((n, Fraction(8 * n * c * (ae - 2 * n * cb), be2)) for n in range(n_max + 1))
    return Spectrum(levels=levels, n_max=n_max, asymptote=d0 * d0)
