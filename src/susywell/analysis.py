"""Well geometry: the minimum's location and the degree-20 minimum
polynomial."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .params import Float64RangeError, ModelParams, as_fraction
from .potential import potential_closed_form, potential_derivative

_SCAN_POINTS = 400
_MAX_BISECT = 200


@dataclass(frozen=True)
class MinimumReport:
    """Location and value of the well minimum plus the polynomial probe.

    poly_root_probe records |P(t)| for both readings of the minimum's
    exponential coordinate, t = exp(p*x0) first and t = exp(x0) second;
    empirically the first is the root (see min_polynomial).
    """

    x0: float
    v_min: float
    derivative_residual: float
    poly_root_probe: tuple[float, float]


def minimum_polynomial_coefficients(B, p) -> tuple:
    """Coefficients of the even-degree minimum polynomial, powers 0..20.

    The vector is palindromic: the coefficient of t^(2j) equals that of
    t^(20-2j).  Exact Fractions when (B, p) are rational.
    """
    B = as_fraction(B, "B")
    p = as_fraction(p, "p")
    b2p = B * B * p
    bp2 = B * p * p
    p3 = p * p * p
    half = (
        b2p + 2 * bp2,
        -2 * b2p - bp2,
        9 * b2p + 36 * bp2 + 27 * p3,
        -36 * b2p - 114 * bp2 - 81 * p3,
        42 * b2p + 126 * bp2 + 81 * p3,
    )
    middle = -36 * b2p - 90 * bp2 - 54 * p3
    return half + (middle,) + half[::-1]


def min_polynomial(t, B, p):
    """Evaluate the degree-20 minimum polynomial at t (even powers only).

    Exact when t, B, p are all rational; float otherwise.  The positive
    real root > 1 satisfies t = exp(p*x0) with x0 the well minimum.
    """
    coeffs = minimum_polynomial_coefficients(B, p)
    if isinstance(t, Fraction) or isinstance(t, int):
        t2 = Fraction(t) ** 2
        acc = Fraction(0)
    else:
        t2 = float(t) ** 2
        acc = 0.0
        coeffs = tuple(float(c) for c in coeffs)
    for c in reversed(coeffs):
        acc = acc * t2 + c
    return acc


def find_minimum(params: ModelParams) -> MinimumReport:
    """Bracket the sign change of V' by geometric scan, then bisect.

    The first-order condition is driven to |V'| <= 1e-10 * p * (2B+3p)^2.
    Raises Float64RangeError if no bracket exists because V' overflows
    float64 on the scan, RuntimeError if no bracket exists otherwise (which
    would contradict the admissibility assumption 0 < p < B).
    """
    p = float(params.p)
    scale = p * float((params.A - params.B) ** 2)
    tol = 1e-10 * scale
    xs = np.geomspace(1e-3 / p, 50.0 / p, _SCAN_POINTS)
    with np.errstate(over="ignore", invalid="ignore"):
        dv = potential_derivative(xs, params)
    sign_change = np.where((dv[:-1] < 0.0) & (dv[1:] >= 0.0))[0]
    if sign_change.size == 0:
        if not np.all(np.isfinite(dv)):
            raise Float64RangeError("V' overflows float64 on the minimum scan")
        raise RuntimeError(
            "no bracketing interval for V' = 0 on the scan range; "
            "the well has no interior minimum for these parameters"
        )
    lo, hi = float(xs[sign_change[0]]), float(xs[sign_change[0] + 1])
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        d = float(potential_derivative(mid, params))
        if abs(d) <= tol or (hi - lo) < 1e-15 / p:
            break
        if d < 0.0:
            lo = mid
        else:
            hi = mid
    x0 = 0.5 * (lo + hi)
    v_min = float(potential_closed_form(x0, params))
    resid = float(potential_derivative(x0, params))
    probe = (_probe(p * x0, params.B, params.p), _probe(x0, params.B, params.p))
    return MinimumReport(x0=x0, v_min=v_min, derivative_residual=resid, poly_root_probe=probe)


def _probe(log_t: float, B, p) -> float:
    """|P(exp(log_t))| in float64; inf where exp(log_t) or its square
    overflows (deep, narrow wells put x0 at hundreds of length units)."""
    try:
        return abs(float(min_polynomial(math.exp(log_t), B, p)))
    except OverflowError:
        return math.inf
