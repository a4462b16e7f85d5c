"""Exact eigenfunction forms and the creation-operator recursion.

Every state in this family is cosh(3px)^sigma * sinh(px)^tau * P(x) with P
a finite series sum_k a_k cosh(2kpx).  Applying the creation operator
(-d/dx + W) maps the family to itself: the exponents drop by one and the
series picks up two more terms.  Coefficients are exact Fractions all the
way through; numeric evaluation factors out the dominant exponential so
values, ratios and residuals stay computable where the raw numbers would
under- or overflow.  Evaluators take numpy arrays of x > 0 and return
arrays; a scalar x is read as a 0-d array.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .params import LadderParams, ModelParams, ladder
from .potential import _positive_x, coth, csch_squared, log_cosh, log_sinh, sech_squared
from .spectrum import max_bound_states


@dataclass(frozen=True)
class HyperbolicForm:
    """cosh(3px)^sigma * sinh(px)^tau * sum_k coeffs[k] cosh(2kpx).

    Invariants: tau > 0 (the form vanishes like x^tau at the origin), the
    top coefficient is nonzero, and trailing zeros are trimmed.
    """

    sigma: Fraction
    tau: Fraction
    p: Fraction
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive for regularity at the origin")
        if not self.coeffs:
            raise ValueError("coefficient list must be nonempty")
        if len(self.coeffs) > 1 and self.coeffs[-1] == 0:
            raise ValueError("top coefficient must be nonzero (trim trailing zeros)")

    @property
    def top_index(self) -> int:
        return len(self.coeffs) - 1


def _trim(coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def ground_form(rung: LadderParams, p) -> HyperbolicForm:
    """exp(-integral W) at the given rung: sigma = -A_k/(3p), tau = B_k/p.

    The cosh exponent is negative; that sign is what makes the large-x
    decay rate come out as -(A_k - B_k) < 0.
    """
    p = Fraction(p)
    return HyperbolicForm(
        sigma=Fraction(-rung.A, 1) / (3 * p),
        tau=Fraction(rung.B, 1) / p,
        p=p,
        coeffs=(Fraction(1),),
    )


def apply_creation(form: HyperbolicForm, target: LadderParams) -> HyperbolicForm:
    """Exact form of (-d/dx + W(x, target)) applied to `form`.

    Writing the input as (sigma, tau, P), the output is (sigma-1, tau-1, Q)
    with

        Q = (A - 3p sigma) sinh(3px)sinh(px) P
          - (B + p tau)    cosh(3px)cosh(px) P
          -                cosh(3px)sinh(px) P'

    folded back onto the cosh(2kpx) basis by product-to-sum identities.
    The series grows by exactly two coefficients per application.
    """
    p = form.p
    u = target.A - 3 * p * form.sigma
    v = target.B + p * form.tau
    if form.tau - 1 <= 0:
        raise ValueError(
            "creation operator would break regularity at the origin "
            "(tau - 1 <= 0); the form is already past the physical ladder"
        )
    # each product-to-sum image carries a factor 1/4
    alpha = (u - v) / 4
    beta = -(u + v) / 4
    half_p = p / 2
    out = [Fraction(0)] * (len(form.coeffs) + 2)
    for k, a in enumerate(form.coeffs):
        if a == 0:
            continue
        aa = alpha * a
        ba = beta * a
        g = k * half_p * a  # a quarter of 2kp a_k, from P' = sum 2kp a_k sinh(2kpx)
        out[k + 2] += aa - g
        out[abs(k - 2)] += aa + g
        out[k + 1] += ba + g
        out[abs(k - 1)] += ba - g
    coeffs = _trim(out)
    if coeffs == (Fraction(0),):
        raise ValueError("creation operator annihilated the form")
    return HyperbolicForm(sigma=form.sigma - 1, tau=form.tau - 1, p=p, coeffs=coeffs)


def candidate_form(n: int, params: ModelParams) -> HyperbolicForm:
    """The n-th ladder form, built with no normalizability cap.

    Starts from the rung-n ground form and applies the creation operator
    with targets a_{n-1}, ..., a_0.  Beyond the bound-state cutoff the
    result is a perfectly good form, just not square integrable (its
    decay_exponent is >= 0).
    """
    if n < 0:
        raise ValueError("state index n must be nonnegative")
    form = ground_form(ladder(params, n), params.p)
    for k in range(n - 1, -1, -1):
        form = apply_creation(form, ladder(params, k))
    return form


def eigenfunction(n: int, params: ModelParams) -> HyperbolicForm:
    """Unnormalized n-th bound-state form; IndexError beyond the cutoff."""
    n_max = max_bound_states(params)
    if n > n_max:
        raise IndexError(
            f"state index {n} exceeds the bound-state cutoff n_max = {n_max} "
            "(the decay exponent is nonnegative, so the state is not normalizable)"
        )
    return candidate_form(n, params)


def decay_exponent(form: HyperbolicForm) -> Fraction:
    """Exponential growth rate at large x: 3p*sigma + p*tau + 2p*top_index.

    Negative means square integrable on the half line.
    """
    return 3 * form.p * form.sigma + form.p * form.tau + 2 * form.p * form.top_index


def _series_parts(form: HyperbolicForm, x):
    """u = p*x, the series P, P', P'' scaled by exp(-2*K*p*x) with K the top
    index, and the log of the factored-out scale.

    cosh(2kpx)*exp(-2Ku) = (exp(-2(K-k)u) + exp(-2(K+k)u)) / 2 keeps every
    exponent nonpositive, so nothing overflows regardless of x; the
    form is (P scaled) * exp(log_scale).
    """
    K = form.top_index
    p = float(form.p)
    u = p * _positive_x(x)
    pm = np.zeros_like(u)
    p1m = np.zeros_like(u)
    p2m = np.zeros_like(u)
    for k, frac in enumerate(form.coeffs):
        a = float(frac)
        if a == 0.0:
            continue
        lo = np.exp(-2.0 * (K - k) * u)
        hi = np.exp(-2.0 * (K + k) * u)
        c = 0.5 * (lo + hi)
        s = 0.5 * (lo - hi)
        rate = 2.0 * k * p
        pm += a * c
        p1m += a * rate * s
        p2m += a * rate * rate * c
    log_scale = (float(form.sigma) * log_cosh(3.0 * u)
                 + float(form.tau) * log_sinh(u)
                 + 2.0 * K * u)
    return u, pm, p1m, p2m, log_scale


def evaluate_scaled(form: HyperbolicForm, x) -> tuple[np.ndarray, ...]:
    """Value as (mantissa, exponent) with form(x) = mantissa * exp(exponent).

    The mantissa carries the sign (and the zeros) of the series; the
    exponent absorbs the full dynamic range.
    """
    _, pm, _, _, log_scale = _series_parts(form, x)
    return pm, log_scale


def evaluate(form: HyperbolicForm, x) -> np.ndarray:
    """Plain float value; gracefully under/overflows to 0 or inf at extremes."""
    mant, log_scale = evaluate_scaled(form, x)
    with np.errstate(over="ignore"):
        return mant * np.exp(log_scale)


def evaluate_derivatives(form: HyperbolicForm, x) -> tuple[np.ndarray, ...]:
    """(psi, psi', psi'') evaluated analytically from the form.

    Used for operator residuals: no stencil error, only roundoff.
    """
    p = float(form.p)
    sigma, tau = float(form.sigma), float(form.tau)
    u, pm, p1m, p2m, log_scale = _series_parts(form, x)
    # logarithmic derivative of the prefactor and its derivative
    m = 3.0 * p * sigma * np.tanh(3.0 * u) + p * tau * coth(u)
    mp = 9.0 * p * p * sigma * sech_squared(3.0 * u) - p * p * tau * csch_squared(u)
    with np.errstate(over="ignore"):
        scale = np.exp(log_scale)
    psi = pm * scale
    dpsi = (m * pm + p1m) * scale
    d2psi = ((m * m + mp) * pm + 2.0 * m * p1m + p2m) * scale
    return psi, dpsi, d2psi


def evaluate_log_derivative(form: HyperbolicForm, x) -> np.ndarray:
    """d/dx log|form(x)|; for the rung-k ground form this equals -W(x, a_k)."""
    p = float(form.p)
    u, pm, p1m, _, _ = _series_parts(form, x)
    m = 3.0 * p * float(form.sigma) * np.tanh(3.0 * u) + p * float(form.tau) * coth(u)
    with np.errstate(divide="ignore", invalid="ignore"):
        return m + p1m / pm
