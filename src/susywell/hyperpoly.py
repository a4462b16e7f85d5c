"""Exact eigenfunction forms and the creation-operator recursion.

Every state in this family is cosh(3px)^sigma * sinh(px)^tau * P(x) with P
a finite series sum_k a_k cosh(2kpx).  Applying the creation operator
(-d/dx + W) maps the family to itself: the exponents drop by one and the
series picks up two more terms.  Coefficients are exact: integer numerators
over one positive denominator per form.  Every command that builds
bound-state forms draws them from `ladder_forms`, which decides whether
they fit float64.

Evaluation goes through the integer polynomial Q(y) = den * P(1 + y) in
y = cosh(2px) - 1 = 2 sinh(px)^2 (`HyperbolicForm.shifted`, which the node
count reads too).  Where y <= 1 Horner's rule runs in y; past it, in 1/y
over the reversed coefficients, with K log y (K the degree) folded into the
one exponent that also carries the prefactor, so values, ratios and
residuals stay computable where the raw numbers would under- or overflow.
Each Horner step is two in-place passes over the points, and no
exponential table is built.  The samples stay within 1e-8 of the peak
where a float64 sum of a_k cosh(2kpx) cancels, as at (B, p) = (20, 1/4) up
to n = 40.  Steep wells are still wrong: at (7, 1/40) Q's coefficients
cancel too (6e-3 of the peak at n = 20, 1e6 at n = 40), and no error bound
is computed and no form refused.
Evaluators take numpy arrays of x > 0 and return arrays; a scalar x is
read as a 0-d array.

Node counts read the same Q: its positive roots are the form's zeros.  Most
are proven by Descartes' bound and exact signs of Q at dyadic points, O(K)
integer operations a point for degree K; Descartes-rule bisection, with
its O(K^2) Taylor shifts, runs only where that proof does not close.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .params import Float64RangeError, LadderParams, ModelParams, ladder, level_ratio
from .potential import _LN2, _positive_x, coth, csch_squared, log_cosh, log_sinh, sech_squared
from .spectrum import max_bound_states

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

    @cached_property
    def shifted(self) -> tuple[int, ...]:
        """Integer coefficients, lowest power first, of Q(y) = den * P(1 + y),
        y = cosh(2px) - 1: sum_k coeffs[k] T_k(1 + y), since
        cosh(2kpx) = T_k(cosh(2px)).  Built once per form, by Clenshaw's
        recurrence b_k = coeffs[k] + 2(1 + y) b_(k+1) - b_(k+2) on integer
        polynomials, with Q = coeffs[0] + (1 + y) b_1 - b_2.  The top
        coefficient is 2^(K-1) coeffs[K] for K >= 1.
        """
        b1 = b2 = [0] * len(self.coeffs)
        for a in self.coeffs[:0:-1]:
            b = [2 * (c + d) - e for c, d, e in zip(b1, [0, *b1], b2)]
            b[0] += a
            b1, b2 = b, b1
        q = [c + d - e for c, d, e in zip(b1, [0, *b1], b2)]
        q[0] += self.coeffs[0]
        return tuple(q)


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


def _check_range(form: HyperbolicForm, order: int) -> None:
    """Float64RangeError when a coefficient a_k = coeffs[k] / den, or a sum
    of |a_k| (2kp)^d over k, for a derivative d <= `order`, overflows float64.

    The one float64 gate: `ladder_forms` runs it on every form it yields.
    The evaluators need no such bound, since they scale Q by a power of two,
    but the gate fixes which forms a command refuses, and so its exit codes.
    """
    p = float(form.p)
    sums = [0.0] * (order + 1)
    for k, c in enumerate(form.coeffs):
        try:
            a = c / form.den
        except OverflowError:
            raise _overflow(form.top_index) from None
        if a == 0.0:
            continue
        rate = 2.0 * k * p
        for d in range(order + 1):
            sums[d] += abs(a)
            a *= rate
    if not all(map(math.isfinite, sums)):
        raise _overflow(form.top_index)


def _overflow(top_index: int) -> Float64RangeError:
    return Float64RangeError(
        f"coefficients of the exact form with top index {top_index} overflow float64"
    )


def ladder_forms(params: ModelParams, ns, order: int = 0) -> Iterator[HyperbolicForm]:
    """The bound-state forms n in ns, built one at a time as they are drawn,
    each tested against float64 with its derivatives up to `order`.

    Float64RangeError, as `_check_range` raises it: before the chain is
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
        _check_range(form, order)
        yield form


class _Points(NamedTuple):
    """The points u = p*x as every Horner sum reads them, in x's shape.

    y = 2 sinh(u)^2 = cosh(2u) - 1 where y <= 1 (`near`), w = 1/y past it,
    and log y past it (0 where y <= 1), taken from log_sinh so that nothing
    overflows at any u.
    """

    u: np.ndarray
    near: np.ndarray
    y: np.ndarray  # at the near points, flattened
    w: np.ndarray  # at the far points, flattened
    log_y: np.ndarray
    log_cosh_3u: np.ndarray
    log_sinh_u: np.ndarray


def _points(p, x) -> _Points:
    u = float(p) * _positive_x(x)
    with np.errstate(over="ignore"):
        y = 2.0 * np.sinh(u) ** 2  # inf past u ~ 355, where w reads 0
    near = y <= 1.0
    log_sinh_u = log_sinh(u)
    return _Points(u=u, near=near, y=y[near], w=1.0 / y[~near],
                   log_y=np.where(near, 0.0, _LN2 + 2.0 * log_sinh_u),
                   log_cosh_3u=log_cosh(3.0 * u), log_sinh_u=log_sinh_u)


def _horner(coeffs, z: np.ndarray) -> np.ndarray:
    """sum_i coeffs[i] z^(m - i), m = len(coeffs) - 1, by Horner's rule:
    two in-place passes per coefficient."""
    r = np.full_like(z, coeffs[0] if coeffs else 0.0)
    for c in coeffs[1:]:
        r *= z
        r += c
    return r


def _mantissa(coeffs, pts: _Points) -> np.ndarray:
    """Q(y) for Q with float coefficients `coeffs`, lowest power first:
    Horner in y where y <= 1, and Q(y) / y^deg Q, Horner in 1/y over the
    reversed coefficients, past it.  Every partial sum is then bounded by
    the sum of |coeffs|."""
    out = np.empty_like(pts.u)
    out[pts.near] = _horner(coeffs[::-1], pts.y)
    out[~pts.near] = _horner(coeffs, pts.w)
    return out


def _series(form: HyperbolicForm, pts: _Points, order: int):
    """The scaled Q, Q', ... up to the derivative `order` at the points, and
    the exponent that scales them back: Q^(d)(y) / (den 2^s), divided by
    y^(K-d) where y > 1, with K the degree of Q, and

        log of the prefactor + s log 2 + K log y (where y > 1),

    the one exponent every evaluator multiplies by.  s = 0, so the mantissa
    keeps the scale of the series, unless a coefficient of Q / den passes
    2^768; then 2^s, taken from the integers, brings the largest to about
    2^768.  Q's top coefficient is 2^(K-1) times the series' top, so Q may
    pass float64 where the series does not; the 2^256 left above 2^768
    holds the Horner sums of K + 1 terms, the factors j and j(j - 1) of Q'
    and Q'', and the chain rule's.  Each float is rounded once from the
    exact integers.
    """
    q = form.shifted
    s = max(0, max(abs(c).bit_length() for c in q) - form.den.bit_length() - 768)
    polys = [q]
    for _ in range(order):
        polys.append([j * c for j, c in enumerate(polys[-1])][1:])
    den = form.den << s
    mantissas = [_mantissa([c / den for c in poly], pts) for poly in polys]
    log_scale = (float(form.sigma) * pts.log_cosh_3u + float(form.tau) * pts.log_sinh_u
                 + (form.top_index * pts.log_y + s * _LN2))
    return mantissas, log_scale


def evaluate_scaled(form: HyperbolicForm, x) -> tuple[np.ndarray, ...]:
    """Value as (mantissa, exponent) with form(x) = mantissa * exp(exponent).

    The mantissa carries the sign (and the zeros) of the series; the
    exponent absorbs the full dynamic range.
    """
    (mant,), log_scale = _series(form, _points(form.p, x), 0)
    return mant, log_scale


def evaluate(form: HyperbolicForm, x) -> np.ndarray:
    """Plain float value; gracefully under/overflows to 0 or inf at extremes."""
    mant, log_scale = evaluate_scaled(form, x)
    with np.errstate(over="ignore"):
        return mant * np.exp(log_scale)


def sample_forms(forms, x) -> Iterator[np.ndarray]:
    """The values of forms that share p at the points x, yielded one array
    per form, each as `evaluate` gives it.  Every form is drawn before any is
    sampled: from an iterator, one that overflows float64 raises first."""
    forms = list(forms)
    if len({form.p for form in forms}) != 1:
        raise ValueError("sample_forms needs a nonempty list of forms with one p")
    pts = _points(forms[0].p, x)
    for form in forms:
        (v,), log_scale = _series(form, pts, 0)
        with np.errstate(over="ignore"):
            v *= np.exp(log_scale)
        yield v


def evaluate_derivatives(form: HyperbolicForm, x) -> tuple[np.ndarray, ...]:
    """(psi, psi', psi'') evaluated analytically from the form.

    Used for operator residuals: no stencil error, only roundoff.  With
    y = cosh(2u) - 1, dy/dx = 2p sinh(2u), (dy/dx)^2 = 4p^2 y(y + 2) and
    d2y/dx2 = 4p^2 (1 + y); past y = 1 each term is divided by the power of
    y that scales its Q^(d), which leaves 2p coth(u), 4p^2 (1 + 2/y) and
    4p^2 (1 + 1/y).  psi is bit for bit the value `evaluate` gives.
    """
    p = float(form.p)
    sigma, tau = float(form.sigma), float(form.tau)
    pts = _points(p, x)
    u, near = pts.u, pts.near
    (pm, q1, q2), log_scale = _series(form, pts, 2)
    # d/dx of y, its square and its second derivative, each over y^d where y > 1
    dy, dy2, d2y = np.empty_like(u), np.empty_like(u), np.empty_like(u)
    dy[near] = 2.0 * p * np.sinh(2.0 * u[near])
    dy[~near] = 2.0 * p * coth(u[~near])
    dy2[near] = 4.0 * p * p * pts.y * (pts.y + 2.0)
    dy2[~near] = 4.0 * p * p * (1.0 + 2.0 * pts.w)
    d2y[near] = 4.0 * p * p * (1.0 + pts.y)
    d2y[~near] = 4.0 * p * p * (1.0 + pts.w)
    p1m = q1 * dy
    p2m = q2 * dy2 + q1 * d2y
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
    Q(y) = den * P(1 + y) (`HyperbolicForm.shifted`).  Most counts are
    proven by exact signs of Q at dyadic points (`_proven_roots`); where
    those do not settle it, the roots are isolated in Python ints by
    Descartes' rule of signs with bisection (Vincent; Collins and Akritas
    1976).  The count is None where Q has a repeated root y > 0: a
    repeated root is no sign change, and bisection would never separate it.
    """
    counts = []
    for form in forms:
        count = _proven_roots(form.shifted)
        counts.append(_positive_roots(list(form.shifted)) if count is None else count)
    return counts


# the proof's grid: points per octave on its first pass, and the passes,
# each with twice the points of the one before
_OCTAVE_POINTS = 8
_GRID_PASSES = 5


def _proven_roots(q) -> "int | None":
    """Number of roots y > 0 of the integer polynomial q, all of them
    simple, when exact signs of q at dyadic points prove it; else None.

    Descartes' rule bounds the positive roots, counted with multiplicity,
    by the D sign changes of the coefficients.  A sign change between two
    points y < y' where q is nonzero brings a root in (y, y'), so S sign
    changes along a grid prove S <= distinct roots <= D, and S = D proves
    D roots, each simple.  The signs run from the one just above 0 (q's
    lowest nonzero coefficient's) to the one past every root (its top
    coefficient's); these two differ exactly when D is odd, so S has D's
    parity, and D - 1 changes before the end prove the D-th.  The grid is
    2^(j/N), each point rounded to a 16-bit mantissa a times 2^e, from
    the reciprocal of Kioustelidis' bound for the reversed q up to that
    bound for q; N is 8 on the first pass and doubles on each of four
    more.  Floats only choose the points: every sign is exact, from
    Horner's rule in a on the integers 2^max(0, -e K) q(a 2^e), K the
    degree of q.
    """
    changes = _sign_changes(q)
    if changes <= 1:  # Descartes: 0 or 1 positive roots, exactly
        return changes
    q = q[next(i for i, c in enumerate(q) if c):]  # a root at y = 0 is no node
    d = len(q) - 1
    lo, hi = -_root_bound(q[::-1]), _root_bound(q)
    for n in (_OCTAVE_POINTS << k for k in range(_GRID_PASSES)):
        mantissas = [round(2.0 ** (15 + r / n)) for r in range(n)]
        found, positive = 0, q[0] > 0
        for e in range(lo - 15, hi - 15):  # y = a 2^e with a in [2^15, 2^16)
            # sum_i terms[i] a^i is q(a 2^e), times 2^(-e K) where e < 0
            terms = [c << (e * i if e >= 0 else -e * (d - i)) for i, c in enumerate(q)]
            for a in mantissas:
                v = 0
                for t in reversed(terms):
                    v = v * a + t
                if v and (v > 0) != positive:
                    found, positive = found + 1, not positive
                    if found == changes - 1:
                        return changes
    return None


def _root_bound(q) -> int:
    """m with every positive root of the integer polynomial q below 2^m:
    Kioustelidis' bound, 2 max (|q_i| / |q_d|)^(1/(d - i)) over the
    coefficients q_i of sign opposite to the top one q_d, rounded up to a
    power of two, and at least 1."""
    d = len(q) - 1
    top = abs(q[-1]).bit_length()
    m = 0
    for i, c in enumerate(q[:-1]):
        if c and (c > 0) != (q[-1] > 0):
            m = max(m, -((top - 1 - abs(c).bit_length()) // (d - i)) + 1)
    return m


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
    pair would be two roots) and positive (every nonzero root is beyond
    2^-bits of 0).  A square-free q never reaches the cap.  A root at
    y = 0, the origin, is never counted: Descartes' rule skips zero
    coefficients, and bisection's intervals only end at 0.
    """
    d = len(q) - 1
    changes = _sign_changes(q)
    if changes <= 1:  # Descartes: 0 or 1 positive roots, exactly
        return changes
    # every positive root lies below 2^m; y = 2^m z maps them into 0 < z < 1
    m = _root_bound(q)
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
