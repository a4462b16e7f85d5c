"""Superpotential, partner potentials, and the closed-form well.

Evaluators take numpy arrays on the half line x > 0 and return arrays; a
scalar x is read as a 0-d array.  Large arguments (p*x beyond ~300) are
routed through asymptotic forms so cosh and sinh never overflow double
precision; below p*x = 1e-8 the 1/x^2 wall is reported as +inf instead of
a garbage float.
"""

from __future__ import annotations

import numpy as np

from .params import LadderParams, ModelParams, ladder, shift_constant

# cosh(z)**2 overflows for z above ~355; switch to asymptotics well before.
_LARGE_ARG = 300.0
# below this p*x the potential is reported as the +inf singular wall
SINGULAR_CUTOFF = 1e-8

_LN2 = float(np.log(2.0))


def _positive_x(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("x must be positive (domain is the half line x > 0)")
    return arr


def coth(z):
    """coth(z) = 1/tanh(z); saturates to 1.0 for large z without overflow."""
    return 1.0 / np.tanh(z)


def sech_squared(z):
    """sech(z)^2 with the 4*exp(-2z) tail used once cosh would overflow."""
    z = np.asarray(z, dtype=float)
    safe = np.minimum(z, _LARGE_ARG)
    out = 1.0 / np.cosh(safe) ** 2
    return np.where(z > _LARGE_ARG, 4.0 * np.exp(-2.0 * np.abs(z)), out)


def csch_squared(z):
    """csch(z)^2 for z > 0 with the 4*exp(-2z) tail for large z."""
    z = np.asarray(z, dtype=float)
    safe = np.minimum(z, _LARGE_ARG)
    out = 1.0 / np.sinh(safe) ** 2
    return np.where(z > _LARGE_ARG, 4.0 * np.exp(-2.0 * z), out)


def log_cosh(z):
    """log(cosh(z)) for z >= 0, stable for arbitrarily large z."""
    z = np.asarray(z, dtype=float)
    return z - _LN2 + np.log1p(np.exp(-2.0 * z))


def log_sinh(z):
    """log(sinh(z)) for z > 0, stable for both tiny and huge z."""
    z = np.asarray(z, dtype=float)
    return z - _LN2 + np.log(-np.expm1(-2.0 * z))


def superpotential(x, rung: LadderParams, p) -> np.ndarray:
    """W(x) = A_k tanh(3px) - B_k coth(px); diverges like -B/(px) at 0+."""
    arr = _positive_x(x)
    p = float(p)
    A, B = float(rung.A), float(rung.B)
    return A * np.tanh(3.0 * p * arr) - B * coth(p * arr)


def superpotential_derivative(x, rung: LadderParams, p) -> np.ndarray:
    """W'(x) = 3pA_k sech(3px)^2 + pB_k csch(px)^2, analytic and positive."""
    arr = _positive_x(x)
    p = float(p)
    A, B = float(rung.A), float(rung.B)
    return 3.0 * p * A * sech_squared(3.0 * p * arr) + p * B * csch_squared(p * arr)


def superpotential_second_derivative(x, rung: LadderParams, p) -> np.ndarray:
    """W''(x), used by the analytic first-order condition at the well minimum."""
    arr = _positive_x(x)
    p = float(p)
    A, B = float(rung.A), float(rung.B)
    u = p * arr
    return (-18.0 * p * p * A * sech_squared(3.0 * u) * np.tanh(3.0 * u)
            - 2.0 * p * p * B * csch_squared(u) * coth(u))


def _partner(x, rung: LadderParams, p, plus: bool):
    arr = _positive_x(x)
    pf = float(p)
    u = pf * arr
    # evaluate at clipped x so the masked singular branch never overflows
    safe = np.maximum(arr, SINGULAR_CUTOFF / pf)
    w = superpotential(safe, rung, p)
    wp = superpotential_derivative(safe, rung, p)
    val = w * w + wp if plus else w * w - wp
    return np.where(u < SINGULAR_CUTOFF, np.inf, val)


def partner_minus(x, rung: LadderParams, p) -> np.ndarray:
    """V_-(x) = W^2 - W' at the given rung."""
    return _partner(x, rung, p, plus=False)


def partner_plus(x, rung: LadderParams, p) -> np.ndarray:
    """V_+(x) = W^2 + W' at the given rung."""
    return _partner(x, rung, p, plus=True)


def potential_closed_form(x, params: ModelParams) -> np.ndarray:
    """The well in closed form,

        V(x) = -Bp csch(px)^2 - 9p(B+p) sech(3px)^2
               + (B coth(px) - 3(B+p) tanh(3px))^2,

    identical to V_- at rung 0.  Below p*x = 1e-8 the singular wall is
    reported as +inf.
    """
    arr = _positive_x(x)
    p = float(params.p)
    B = float(params.B)
    u = p * arr
    # clip keeps the masked singular branch from spraying overflow warnings
    uc = np.maximum(u, SINGULAR_CUTOFF)
    val = (-B * p * csch_squared(uc)
           - 9.0 * p * (B + p) * sech_squared(3.0 * uc)
           + (B * coth(uc) - 3.0 * (B + p) * np.tanh(3.0 * uc)) ** 2)
    return np.where(u < SINGULAR_CUTOFF, np.inf, val)


def potential_derivative(x, params: ModelParams) -> np.ndarray:
    """Analytic V'(x) = 2WW' - W'' at rung 0 (for minimum finding)."""
    rung = ladder(params, 0)
    arr = _positive_x(x)
    w = superpotential(arr, rung, params.p)
    wp = superpotential_derivative(arr, rung, params.p)
    wpp = superpotential_second_derivative(arr, rung, params.p)
    return 2.0 * w * wp - wpp


def shape_invariance_residual(x, params: ModelParams, k: int) -> np.ndarray:
    """V_+(x, a_k) - V_-(x, a_{k+1}) - C(a_k).

    Zero identically at k = 0.  For k >= 1 the partner pair fails to close:
    the residual equals -24 k p^2 / (2 cosh(2px) - 1) exactly, so callers
    should expect an O(k p^2) mismatch rather than roundoff.
    """
    arr = _positive_x(x)
    vp = partner_plus(arr, ladder(params, k), params.p)
    vm = partner_minus(arr, ladder(params, k + 1), params.p)
    return vp - vm - float(shift_constant(params, k))
