"""Model couplings and the shape-invariance parameter ladder.

Units are hbar = 2m = 1, so B and p are inverse lengths.  The admissible
domain is 0 < p < B, and A is tied to B by the initial constraint
A = 3(B + p).  All parameters are kept as exact rationals: floating-point
inputs are promoted by exact binary-fraction reading so the symbolic
recursion downstream never loses exactness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

RationalInput = Union[int, float, str, Fraction]

# Largest accepted level_ratio: the bound-state count n_max is its floor, and
# spectrum, figure and validate do work for every bound state.
MAX_LEVEL_RATIO = 10**6


class Float64RangeError(ValueError):
    """An admissible well whose numbers do not fit float64."""


def as_fraction(value: RationalInput, name: str = "value") -> Fraction:
    """Promote an input to an exact Fraction (floats read bit-exactly)."""
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"{name} must be a finite real or rational, got {value!r}") from exc


@dataclass(frozen=True)
class ModelParams:
    """The coupling triple (A, B, p) with A = 3(B + p), as exact rationals."""

    B: Fraction
    p: Fraction
    A: Fraction


@dataclass(frozen=True)
class LadderParams:
    """Rung k of the parameter sequence: (A_k, B_k) = (A_0 - 3kp, B_0 + kp)."""

    k: int
    A: Fraction
    B: Fraction


def make_params(B: RationalInput, p: RationalInput) -> ModelParams:
    """Validate (B, p) and derive A = 3(B + p).

    Raises ValueError naming the violated constraint when p <= 0, B <= 0,
    B or p overflows float64 or underflows it to 0, p >= B, the continuum
    threshold (2B+3p)^2 overflows float64, or level_ratio exceeds
    MAX_LEVEL_RATIO.
    """
    B = as_fraction(B, "B")
    p = as_fraction(p, "p")
    if p <= 0:
        raise ValueError("p must be positive")
    if B <= 0:
        raise ValueError("B must be positive")
    for name, value in (("B", B), ("p", p)):
        try:
            if float(value) == 0.0:
                raise ValueError(f"{name} underflows float64 to 0")
        except OverflowError:
            raise ValueError(f"{name} overflows float64") from None
    if p >= B:
        raise ValueError("admissibility requires 0 < p < B: p must be strictly less than B")
    params = ModelParams(B=B, p=p, A=3 * (B + p))
    try:
        float((params.A - params.B) ** 2)
    except OverflowError:
        raise ValueError("the continuum threshold (2B+3p)^2 overflows float64") from None
    if level_ratio(params) > MAX_LEVEL_RATIO:
        raise ValueError(f"(2B+3p)/(4p) exceeds {MAX_LEVEL_RATIO}, the cap on n_max")
    return params


def level_ratio(params: ModelParams) -> Fraction:
    """r = (2B+3p)/(4p): the n-th ladder form is square integrable iff n < r."""
    return (2 * params.B + 3 * params.p) / (4 * params.p)


def ladder(params: ModelParams, k: int) -> LadderParams:
    """Rung k of the parameter ladder (pure arithmetic, no cap on k)."""
    if k < 0:
        raise ValueError("rung index k must be nonnegative")
    kp = k * params.p
    return LadderParams(k=k, A=params.A - 3 * kp, B=params.B + kp)


def ladder_offset(rung: LadderParams) -> Fraction:
    """Vertical-shift generator h(a) = -(A - B)^2.

    Only differences of h are ever used, so the additive constant is fixed
    by choosing h = 0 at A = B.
    """
    d = rung.A - rung.B
    return -(d * d)


def shift_constant(params: ModelParams, k: int) -> Fraction:
    """Level spacing C(a_k) = h(a_{k+1}) - h(a_k) between rungs k and k+1.

    Equals (A_k - B_k)^2 - (A_{k+1} - B_{k+1})^2; for k = 0 this reduces
    to 8p(2B + p).
    """
    return ladder_offset(ladder(params, k + 1)) - ladder_offset(ladder(params, k))
