"""Closed-form ladder energies and bound-state counting."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .params import ModelParams, level_ratio


def raw_energy_formula(n: int, params: ModelParams) -> Fraction:
    """(A-B)^2 - (A-B-4np)^2 = 8np(2B+3p-2np), with no cap on n.

    The level E_n for n <= max_bound_states; beyond it the value no longer
    corresponds to a normalizable state.
    """
    if n < 0:
        raise ValueError("state index n must be nonnegative")
    d0 = params.A - params.B
    dn = d0 - 4 * n * params.p
    return d0 * d0 - dn * dn


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
    """Levels n = 0..n_max from the closed quadratic; validate's telescoping
    check compares them with the telescoped and summed routes."""
    n_max = max_bound_states(params)
    levels = tuple((n, raw_energy_formula(n, params)) for n in range(n_max + 1))
    d0 = params.A - params.B
    return Spectrum(levels=levels, n_max=n_max, asymptote=d0 * d0)
