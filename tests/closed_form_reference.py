"""The ladder's two closed forms in plain exact arithmetic, independent of
the integer formula in `spectrum.full_spectrum` and the float64 log2 sum in
`hyperpoly.check_top_coefficient`."""

import math
from fractions import Fraction


def reference_level(n, params):
    # E_n = (A-B)^2 - (A-B-4np)^2, in Fraction arithmetic
    d0 = params.A - params.B
    dn = d0 - 4 * n * params.p
    return d0 * d0 - dn * dn


def reference_top(n, params):
    # top coefficient of the n-th ladder form: 2 * prod_{m=n}^{2n-1} (d0 - 2mp)/2,
    # with d0 = A - B, as one exact product (1 for the ground form)
    if n == 0:
        return Fraction(1)
    d0, p = params.A - params.B, params.p
    num = 2 * math.prod(d0.numerator * p.denominator - 2 * m * p.numerator * d0.denominator
                        for m in range(n, 2 * n))
    return Fraction(num, (2 * d0.denominator * p.denominator) ** n)


def log2_exact(x):
    # log2 of a positive Fraction of any size, to float64 precision
    return math.log2(x.numerator) - math.log2(x.denominator)
