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

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .params import Float64RangeError, LadderParams, ModelParams, ladder
from .potential import _positive_x, coth, csch_squared, log_cosh, log_sinh, sech_squared
from .spectrum import max_bound_states

# float64 entries in sample_forms' exponential table; it is built a block of
# points at a time, so it never holds (2K_max + 1) x N floats
_TABLE_ENTRIES = 2**19
# a Mersenne prime: gcd(Q, Q') modulo it proves most Q square-free cheaply
_PRIME = 2**61 - 1


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


def _float_terms(form: HyperbolicForm, order: int) -> list[tuple]:
    """The nonzero coefficients as float64 rows (k, a_k, a_k r_k, a_k r_k^2)
    with r_k = 2kp, cut after the derivative `order`.

    The one place the exact coefficients become floats.  Every scaled
    exponential is at most 1, so each series stays below the sum of its
    column; Float64RangeError when a coefficient or a column sum overflows.
    """
    p = float(form.p)
    rows = []
    for k, frac in enumerate(form.coeffs):
        try:
            a = float(frac)
        except OverflowError:
            a = math.inf
        if a == 0.0:
            continue
        rate = 2.0 * k * p
        rows.append((k, a, a * rate, a * rate * rate)[:order + 2])
    for column in list(zip(*rows))[1:]:
        if not math.isfinite(sum(map(abs, column))):
            raise Float64RangeError(
                f"coefficients of the exact form with top index {form.top_index} "
                "overflow float64"
            )
    return rows


def check_float64(forms) -> None:
    """Float64RangeError unless every form and its first two derivatives
    can be evaluated in float64; lets a caller fail before other work."""
    for form in forms:
        _float_terms(form, 2)


def _sum_series(rows, K: int, exps, sums: list) -> None:
    """Add the series scaled by exp(-2Ku), and its first len(sums) - 1
    derivatives, into `sums`.

    exps(j) is exp(-2ju) at the points.  cosh(2kpx)*exp(-2Ku) =
    (exp(-2(K-k)u) + exp(-2(K+k)u)) / 2 keeps every exponent nonpositive,
    so nothing overflows regardless of x.
    """
    for k, *terms in rows:
        lo = exps(K - k)
        hi = exps(K + k)
        c = 0.5 * (lo + hi)
        sums[0] += terms[0] * c
        if len(sums) > 1:
            sums[1] += terms[1] * (0.5 * (lo - hi))
        if len(sums) > 2:
            sums[2] += terms[2] * c


def _log_scale(form: HyperbolicForm, u, log_cosh_3u, log_sinh_u):
    """Log of the factor taken out of the series: the prefactor times exp(2Ku)."""
    return (float(form.sigma) * log_cosh_3u
            + float(form.tau) * log_sinh_u
            + 2.0 * form.top_index * u)


def _series_parts(form: HyperbolicForm, x, order: int):
    """u = p*x, [P, P', ...] up to the derivative `order`, each scaled by
    exp(-2*K*p*x) with K the top index, and the log of the factored-out
    scale: the form is (P scaled) * exp(log_scale)."""
    u = float(form.p) * _positive_x(x)
    sums = [np.zeros_like(u) for _ in range(order + 1)]
    _sum_series(_float_terms(form, order), form.top_index,
                lambda j: np.exp(-2.0 * j * u), sums)
    return u, sums, _log_scale(form, u, log_cosh(3.0 * u), log_sinh(u))


def evaluate_scaled(form: HyperbolicForm, x) -> tuple[np.ndarray, ...]:
    """Value as (mantissa, exponent) with form(x) = mantissa * exp(exponent).

    The mantissa carries the sign (and the zeros) of the series; the
    exponent absorbs the full dynamic range.
    """
    _, (pm,), log_scale = _series_parts(form, x, 0)
    return pm, log_scale


def evaluate(form: HyperbolicForm, x) -> np.ndarray:
    """Plain float value; gracefully under/overflows to 0 or inf at extremes."""
    mant, log_scale = evaluate_scaled(form, x)
    with np.errstate(over="ignore"):
        return mant * np.exp(log_scale)


def sample_forms(forms, x) -> list[np.ndarray]:
    """The values of forms that share p at the points x (1-d), one array
    per form, bit for bit as `evaluate` gives them.

    exp(-2ju) for j = 0..2K_max is computed once for all forms instead of
    twice per coefficient per form, a block of points at a time, so the
    table holds at most _TABLE_ENTRIES floats.
    """
    if len({form.p for form in forms}) != 1:
        raise ValueError("sample_forms needs a nonempty list of forms with one p")
    u = float(forms[0].p) * _positive_x(x)
    rows = [_float_terms(form, 0) for form in forms]
    width = 2 * max(form.top_index for form in forms) + 1
    block = max(1, _TABLE_ENTRIES // width)
    table = np.empty((width, min(block, u.size)))
    values = [np.zeros_like(u) for _ in forms]
    for start in range(0, u.size, block):
        ub = u[start:start + block]
        tb = table[:, :ub.size]
        for j in range(width):
            np.exp(-2.0 * j * ub, out=tb[j])
        for form, r, v in zip(forms, rows, values):
            _sum_series(r, form.top_index, tb.__getitem__, [v[start:start + block]])
    log_cosh_3u, log_sinh_u = log_cosh(3.0 * u), log_sinh(u)
    with np.errstate(over="ignore"):
        for form, v in zip(forms, values):
            v *= np.exp(_log_scale(form, u, log_cosh_3u, log_sinh_u))
    return values


def evaluate_derivatives(form: HyperbolicForm, x) -> tuple[np.ndarray, ...]:
    """(psi, psi', psi'') evaluated analytically from the form.

    Used for operator residuals: no stencil error, only roundoff.
    """
    p = float(form.p)
    sigma, tau = float(form.sigma), float(form.tau)
    u, (pm, p1m, p2m), log_scale = _series_parts(form, x, 2)
    # logarithmic derivative of the prefactor and its derivative
    m = 3.0 * p * sigma * np.tanh(3.0 * u) + p * tau * coth(u)
    mp = 9.0 * p * p * sigma * sech_squared(3.0 * u) - p * p * tau * csch_squared(u)
    with np.errstate(over="ignore"):
        scale = np.exp(log_scale)
    psi = pm * scale
    dpsi = (m * pm + p1m) * scale
    d2psi = ((m * m + mp) * pm + 2.0 * m * p1m + p2m) * scale
    return psi, dpsi, d2psi


def node_counts(forms) -> list["int | None"]:
    """The number of zeros of each form on x > 0, counted exactly.

    On x > 0 the prefactor is positive and cosh(2kpx) = T_k(c) with
    c = cosh(2px) > 1, so the zeros are the roots of P(c) = sum a_k T_k(c)
    in c > 1: the positive roots of the integer polynomial
    Q(y) = den * P(1 + y).  They are isolated in Python ints by Descartes'
    rule of signs with bisection (Vincent; Collins and Akritas 1976).  The
    count is None where Q is not square-free: a repeated root is no sign
    change, and bisection would never separate it.
    """
    shifted = _shifted_chebyshev(max(form.top_index for form in forms))
    counts = []
    for form in forms:
        den = math.lcm(*(a.denominator for a in form.coeffs))
        q = [0] * len(form.coeffs)
        for a, t in zip(form.coeffs, shifted):
            a = a.numerator * (den // a.denominator)
            for i, c in enumerate(t):
                q[i] += a * c
        counts.append(_positive_roots(q))
    return counts


def _shifted_chebyshev(K: int) -> list[list[int]]:
    """Integer coefficients (lowest power first) of T_k(1 + y), k = 0..K,
    from T_{k+1} = 2(1 + y) T_k - T_{k-1}."""
    ts = [[1], [1, 1]]
    for k in range(1, K):
        nxt = [0] * (k + 2)
        for i, c in enumerate(ts[k]):
            nxt[i] += 2 * c
            nxt[i + 1] += 2 * c
        for i, c in enumerate(ts[k - 1]):
            nxt[i] -= c
        ts.append(nxt)
    return ts[:K + 1]


def _sign_changes(q) -> int:
    signs = [c > 0 for c in q if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _taylor_shift(q) -> list[int]:
    """Coefficients of q(y + 1)."""
    q = list(q)
    for i in range(len(q) - 1):
        for j in range(len(q) - 2, i - 1, -1):
            q[j] += q[j + 1]
    return q


def _drop_twos(q) -> list[int]:
    """q divided by the largest power of two that divides every coefficient."""
    z = min((c & -c).bit_length() - 1 for c in q if c)
    return [c >> z for c in q]


def _gcd_degree(a, b, inverse, reduce) -> int:
    """Degree of gcd(a, b) by Euclid's algorithm in the field whose
    elements `reduce` normalizes and `inverse` inverts."""
    a, b = [reduce(c) for c in a], [reduce(c) for c in b]
    while any(b):
        while not b[-1]:
            b.pop()
        inv = inverse(b[-1])
        for top in range(len(a) - 1, len(b) - 2, -1):
            f = reduce(a[top] * inv)
            for i, c in enumerate(b, start=top - len(b) + 1):
                a[i] = reduce(a[i] - f * c)
        a, b = b, a[:len(b) - 1]
    return len(a) - 1


def _square_free(q) -> bool:
    """Whether gcd(q, q') is constant: first modulo _PRIME, where degree 0
    is a proof when the prime does not divide the top coefficient, then
    exactly in Fractions."""
    dq = [i * c for i, c in enumerate(q)][1:]
    if q[-1] % _PRIME and _gcd_degree(q, dq, lambda c: pow(c, -1, _PRIME),
                                      lambda c: c % _PRIME) == 0:
        return True
    return _gcd_degree(q, dq, lambda c: 1 / Fraction(c), Fraction) == 0


def _positive_roots(q) -> "int | None":
    """Number of distinct roots y > 0 of the integer polynomial q, or None
    when q is not square-free."""
    while not q[0]:
        q = q[1:]  # a root at y = 0 is the origin, not a node
    d = len(q) - 1
    changes = _sign_changes(q)
    if changes <= 1:  # Descartes: 0 or 1 positive roots, exactly
        return changes
    if not _square_free(q):
        return None
    # every positive root lies below 2^m (Kioustelidis' bound); y = 2^m z
    # maps them into 0 < z < 1
    top = abs(q[-1]).bit_length()
    m = 0
    for i, c in enumerate(q[:-1]):
        if c and (c > 0) != (q[-1] > 0):
            m = max(m, -((top - 1 - abs(c).bit_length()) // (d - i)) + 1)
    count = 0
    pending = [_drop_twos([c << (m * i) for i, c in enumerate(q)])]
    while pending:
        q = pending.pop()
        d = len(q) - 1
        # sign changes of (z+1)^d q(1/(z+1)) bound the roots in (0, 1)
        bound = _sign_changes(_taylor_shift(q[::-1]))
        if bound <= 1:
            count += bound
            continue
        left = _drop_twos([c << (d - i) for i, c in enumerate(q)])  # 2^d q(z/2)
        right = _taylor_shift(left)  # 2^d q((z+1)/2)
        if not right[0]:  # a root at z = 1/2
            count += 1
            right = right[1:]
        pending += (left, right)
    return count
