"""Exact eigenfunction forms and the creation-operator recursion.

Every state in this family is cosh(3px)^sigma * sinh(px)^tau * P(x) with P
a finite series sum_k a_k cosh(2kpx).  Applying the creation operator
(-d/dx + W) maps the family to itself: the exponents drop by one and the
series picks up two more terms.  Coefficients are exact: integer numerators
over one positive denominator per form.  Every command that builds
bound-state forms draws them from `ladder_forms`, which decides whether
they fit float64.  Numeric evaluation factors out the dominant exponential
so values, ratios and residuals stay computable where the raw numbers
would under- or overflow.  Every evaluator sums the series through one
table of exp(-2jpx) (`_scaled_series`), for one form or for many that
share p.  Evaluators take numpy arrays of x > 0 and return arrays; a
scalar x is read as a 0-d array.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .params import Float64RangeError, LadderParams, ModelParams, ladder, level_ratio
from .potential import _positive_x, coth, csch_squared, log_cosh, log_sinh, sech_squared
from .spectrum import max_bound_states

# float64 entries in _scaled_series' exponential table; it is built a block
# of points at a time, so it never holds (2K_max + 1) x N floats
_TABLE_ENTRIES = 2**19


@dataclass(frozen=True)
class HyperbolicForm:
    """cosh(3px)^sigma * sinh(px)^tau * sum_k (coeffs[k] / den) cosh(2kpx).

    Invariants: tau > 0 (the form vanishes like x^tau at the origin), the
    top coefficient is nonzero, and trailing zeros are trimmed.  The integer
    numerators share den > 0; gcd(den, *coeffs) = 1 on every form built here.
    """

    sigma: Fraction
    tau: Fraction
    p: Fraction
    coeffs: tuple[int, ...]
    den: int

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
        coeffs=(1,),
        den=1,
    )


def apply_creation(form: HyperbolicForm, target: LadderParams) -> HyperbolicForm:
    """Exact form of (-d/dx + W(x, target)) applied to `form`.

    Writing the input as (sigma, tau, P), the output is (sigma-1, tau-1, Q)
    with

        Q = (A - 3p sigma) sinh(3px)sinh(px) P
          - (B + p tau)    cosh(3px)cosh(px) P
          -                cosh(3px)sinh(px) P'

    folded back onto the cosh(2kpx) basis by product-to-sum identities.
    The series grows by exactly two coefficients per application.  Exact:
    the sums run on the integer numerators, and the output is reduced by
    one gcd over its new denominator.
    """
    p, sigma, tau, A, B = form.p, form.sigma, form.tau, target.A, target.B
    if tau - 1 <= 0:
        raise ValueError(
            "creation operator would break regularity at the origin "
            "(tau - 1 <= 0); the form is already past the physical ladder"
        )
    # each product-to-sum image carries a factor 1/4; alpha = (u - v)/4,
    # beta = -(u + v)/4 and p/2 go over one integer denominator `step`, the
    # coefficients over form.den.  u = A - 3p sigma and v = B + p tau are
    # numerators over `step`/4, cut by one gcd to the lcm of the three's own
    # denominators
    pd_sigma = p.denominator * sigma.denominator
    pd_tau = p.denominator * tau.denominator
    AB = A.denominator * B.denominator
    u = (A.numerator * B.denominator * pd_sigma
         - 3 * p.numerator * sigma.numerator * AB) * pd_tau
    v = (B.numerator * A.denominator * pd_tau + p.numerator * tau.numerator * AB) * pd_sigma
    half_p = 2 * p.numerator * AB * sigma.denominator * pd_tau
    step = 4 * AB * pd_sigma * pd_tau
    g = math.gcd(step, u - v, u + v, half_p)
    alpha, beta, half_p, step = (u - v) // g, -(u + v) // g, half_p // g, step // g
    out = [0] * (len(form.coeffs) + 2)
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
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    if out == [0]:
        raise ValueError("creation operator annihilated the form")
    g = math.gcd(form.den * step, *out)
    return HyperbolicForm(sigma=form.sigma - 1, tau=form.tau - 1, p=p,
                          coeffs=tuple(c // g for c in out), den=form.den * step // g)


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


def _top_bits(n: int, params: ModelParams) -> float:
    """log2 of the top coefficient of the n-th ladder form, n <= n_max, as a
    float64 sum off by under n * 1e-12 bits; no form is built.

    Only the k = K term of a creation step feeds out[K + 2], so down the
    ladder from rung n the top gains the factors (d0 - 2mp)/2 = (p/2)(q - 2m),
    m = 2n-1, ..., n, with d0 = A - B and q = d0/p, twice at the first step,
    whose k + 2 and |k - 2| images both land on index 2.  q - 2m > 2 for
    n <= n_max, so no factor underflows, even where p is subnormal.
    """
    p, q = params.p, float(4 * level_ratio(params))
    half_p = math.log2(p.numerator) - math.log2(p.denominator) - 1
    return 1 + n * half_p + math.fsum(math.log2(q - 2 * m) for m in range(n, 2 * n))


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
    for k, c in enumerate(form.coeffs):
        try:
            a = c / form.den
        except OverflowError:
            a = math.inf
        if a == 0.0:
            continue
        rate = 2.0 * k * p
        rows.append((k, a, a * rate, a * rate * rate)[:order + 2])
    for column in list(zip(*rows))[1:]:
        if not math.isfinite(sum(map(abs, column))):
            raise _overflow(form.top_index)
    return rows


def _overflow(top_index: int) -> Float64RangeError:
    return Float64RangeError(
        f"coefficients of the exact form with top index {top_index} overflow float64"
    )


def ladder_forms(params: ModelParams, ns, order: int = 0) -> Iterator[HyperbolicForm]:
    """The bound-state forms n in ns, built one at a time as they are drawn,
    each tested against float64 with its derivatives up to `order`.

    Float64RangeError, as `_float_terms` raises it: before the chain is
    built when the top coefficient has more than 1025 bits, and so surely
    overflows; otherwise from the built form's own test, which also decides
    the one-bit band below.  A top past 2^1025 fails that test too, with the
    same message, so the first form that fails is the same either way, and
    no form past it is built.
    """
    n_max = max_bound_states(params)
    for n in ns:
        if n <= n_max and _top_bits(n, params) > 1025:  # _top_bits needs n <= n_max
            raise _overflow(2 * n)
        form = eigenfunction(n, params)  # IndexError past the cutoff
        _float_terms(form, order)
        yield form


def _log_scale(form: HyperbolicForm, u, log_cosh_3u, log_sinh_u):
    """Log of the factor taken out of the series: the prefactor times exp(2Ku)."""
    return (float(form.sigma) * log_cosh_3u
            + float(form.tau) * log_sinh_u
            + 2.0 * form.top_index * u)


def _scaled_series(forms, x, order: int):
    """u = p*x, the forms that share p, and for each [P, P', ...] up to the
    derivative `order`, scaled by exp(-2Ku) with K the form's top index:
    the form is the scaled P times exp(_log_scale).

    `forms` may be an iterator: each form is tested against float64 when it
    is drawn, so a Float64RangeError comes before any later form is built.
    cosh(2kpx)*exp(-2Ku) = (exp(-2(K-k)u) + exp(-2(K+k)u)) / 2 keeps every
    exponent nonpositive, so nothing overflows regardless of x.  One table
    of exp(-2ju), j = 0..2K_max, serves every form.
    """
    x = _positive_x(x)
    rows = [(form, _float_terms(form, order)) for form in forms]
    if len({form.p for form, _ in rows}) != 1:
        raise ValueError("sample_forms needs a nonempty list of forms with one p")
    u = float(rows[0][0].p) * x
    flat = u.reshape(-1)
    width = 2 * max(form.top_index for form, _ in rows) + 1
    block = max(1, _TABLE_ENTRIES // width)
    # the exponential table, then two scratch rows that each term of the
    # value's sum runs through in place
    table = np.empty((width + 2, min(block, flat.size)))
    sums = [[np.zeros_like(u) for _ in range(order + 1)] for _ in rows]
    for start in range(0, flat.size, block):
        ub = flat[start:start + block]
        tb = table[:, :ub.size]
        c, t = tb[width], tb[width + 1]
        for j in range(width):
            np.exp(-2.0 * j * ub, out=tb[j])
        for (form, terms), parts in zip(rows, sums):
            out = [s.reshape(-1)[start:start + block] for s in parts]
            K = form.top_index
            for k, *a in terms:
                lo, hi = tb[K - k], tb[K + k]
                np.add(lo, hi, out=c)
                c *= 0.5
                np.multiply(c, a[0], out=t)
                out[0] += t
                if order > 0:
                    out[1] += a[1] * (0.5 * (lo - hi))
                if order > 1:
                    out[2] += a[2] * c
    return u, [form for form, _ in rows], sums


def evaluate_scaled(form: HyperbolicForm, x) -> tuple[np.ndarray, ...]:
    """Value as (mantissa, exponent) with form(x) = mantissa * exp(exponent).

    The mantissa carries the sign (and the zeros) of the series; the
    exponent absorbs the full dynamic range.
    """
    u, _, [(pm,)] = _scaled_series([form], x, 0)
    return pm, _log_scale(form, u, log_cosh(3.0 * u), log_sinh(u))


def evaluate(form: HyperbolicForm, x) -> np.ndarray:
    """Plain float value; gracefully under/overflows to 0 or inf at extremes."""
    mant, log_scale = evaluate_scaled(form, x)
    with np.errstate(over="ignore"):
        return mant * np.exp(log_scale)


def sample_forms(forms, x) -> list[np.ndarray]:
    """The values of forms that share p at the points x, one array per
    form, each as `evaluate` gives it.  `forms` may be an iterator: a form
    that overflows float64 raises before any later one is drawn."""
    u, forms, sums = _scaled_series(forms, x, 0)
    log_cosh_3u, log_sinh_u = log_cosh(3.0 * u), log_sinh(u)
    with np.errstate(over="ignore"):
        for form, (v,) in zip(forms, sums):
            v *= np.exp(_log_scale(form, u, log_cosh_3u, log_sinh_u))
    return [v for v, in sums]


def evaluate_derivatives(form: HyperbolicForm, x) -> tuple[np.ndarray, ...]:
    """(psi, psi', psi'') evaluated analytically from the form.

    Used for operator residuals: no stencil error, only roundoff.
    """
    p = float(form.p)
    sigma, tau = float(form.sigma), float(form.tau)
    u, _, [(pm, p1m, p2m)] = _scaled_series([form], x, 2)
    log_scale = _log_scale(form, u, log_cosh(3.0 * u), log_sinh(u))
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
    Q(y) = den * P(1 + y) = sum_k coeffs[k] T_k(1 + y), isolated in Python
    ints by Descartes' rule of signs with bisection (Vincent; Collins and
    Akritas 1976).  The count is None where Q has a repeated root y > 0: a
    repeated root is no sign change, and bisection would never separate it.
    """
    shifted = _shifted_chebyshev(max(form.top_index for form in forms))
    counts = []
    for form in forms:
        q = [0] * len(form.coeffs)
        for a, t in zip(form.coeffs, shifted):
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


def _positive_roots(q) -> "int | None":
    """Number of distinct roots y > 0 of the integer polynomial q, or None
    when one of them is repeated.

    Bisection stops at a depth cap computed from q.  Distinct roots of an
    integer polynomial of degree d are more than
    sqrt(3) d^(-(d+2)/2) ||q||_2^(1-d) apart (Mahler 1964, for the
    square-free part).  An interval of width w shows at most one sign
    change when no two roots, counted with multiplicity, lie within
    sqrt(3) w of each other (the two-circle theorem; Alesina and Galuzzi
    1998, Krandick and Mehlhorn 2006).  With ||q||_2 < 2^bits and
    z = y/2^m, intervals at depth cap are narrower than that, so one that
    still shows two sign changes holds a repeated root, real (a conjugate
    pair would be two roots) and positive (every root is beyond 2^-bits
    of 0).  A square-free q never reaches the cap.
    """
    while not q[0]:
        q = q[1:]  # a root at y = 0 is the origin, not a node
    d = len(q) - 1
    changes = _sign_changes(q)
    if changes <= 1:  # Descartes: 0 or 1 positive roots, exactly
        return changes
    # every positive root lies below 2^m (Kioustelidis' bound); y = 2^m z
    # maps them into 0 < z < 1
    top = abs(q[-1]).bit_length()
    m = 0
    for i, c in enumerate(q[:-1]):
        if c and (c > 0) != (q[-1] > 0):
            m = max(m, -((top - 1 - abs(c).bit_length()) // (d - i)) + 1)
    bits = max(abs(c).bit_length() for c in q) + (d + 1).bit_length()
    cap = m + 2 + (d + 2) * d.bit_length() // 2 + (d - 1) * bits
    count = 0
    pending = [(_drop_twos([c << (m * i) for i, c in enumerate(q)]), 0)]
    while pending:
        q, depth = pending.pop()
        d = len(q) - 1
        # sign changes of (z+1)^d q(1/(z+1)) bound the roots in (0, 1)
        bound = _sign_changes(_taylor_shift(q[::-1]))
        if bound <= 1:
            count += bound
            continue
        if depth == cap:  # a repeated root, by the docstring's bound
            return None
        left = _drop_twos([c << (d - i) for i, c in enumerate(q)])  # 2^d q(z/2)
        right = _taylor_shift(left)  # 2^d q((z+1)/2)
        if not right[0]:  # a root at z = 1/2
            if not right[1]:  # a repeated one
                return None
            count += 1
            right = right[1:]
        pending += ((left, depth + 1), (right, depth + 1))
    return count
