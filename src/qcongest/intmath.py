"""Exact integer arithmetic for partition sizes and round charges.

Round counts come from expressions like ceil(c * n**(a/b)).  Float powers
drift near integer boundaries (math.pow(32768, 0.2) is not exactly 8.0),
which would corrupt determinism and cost monotonicity, so everything here
is exact: integer comparisons, or a decimal bracket of an irrational value.
"""

from __future__ import annotations

from decimal import ROUND_FLOOR, Context, Decimal, localcontext
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]


def ceil_div(a: int, b: int) -> int:
    if b <= 0:
        raise ValueError("ceil_div needs a positive divisor")
    return -(-a // b)


def floor_root(x: int, k: int) -> int:
    """Largest r >= 0 with r**k <= x, by integer Newton steps from above."""
    if x < 0 or k < 1:
        raise ValueError("floor_root needs x >= 0, k >= 1")
    if x in (0, 1) or k == 1:
        return x
    if k >= x.bit_length():  # 2 <= x < 2**k: no Newton step on r**(k - 1)
        return 1
    r = 1 << -(-x.bit_length() // k)  # a power of two above the root
    while True:
        s = ((k - 1) * r + x // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def ceil_root(x: int, k: int) -> int:
    """Smallest r >= 0 with r**k >= x."""
    r = floor_root(x, k)
    return r if r**k == x else r + 1


def ceil_scaled_pow(base: Rational, exp: Rational, scale: Rational = 1) -> int:
    """Exact ceil(scale * base**exp) for rational base/scale, exp = p/q >= 0.

    Used for every analytic load and partition size; base may be a fraction
    (e.g. the average degree m/n) and scale carries density or multiplicity
    factors.
    """
    # ints and Fractions are read as they are (denominator > 0); others converted
    base = base if isinstance(base, (int, Fraction)) else Fraction(base)
    exp = exp if isinstance(exp, (int, Fraction)) else Fraction(exp)
    scale = scale if isinstance(scale, (int, Fraction)) else Fraction(scale)
    bn, bd = base.numerator, base.denominator
    p, q = exp.numerator, exp.denominator
    sn, sd = scale.numerator, scale.denominator
    if bn < 0 or sn < 0 or p < 0:
        raise ValueError("ceil_scaled_pow expects non-negative arguments")
    if sn == 0 or bn == 0:
        return 0
    if p == 0:
        return ceil_div(sn, sd)
    width = max(bn, bd).bit_length()
    powers = q * max(sn, sd).bit_length() + p * width  # bits of the powers formed below
    # past 2**16 bits, an irrational value far smaller than the powers is bracketed instead
    if (q > width and bn != bd and powers > 1 << 16
            and 16 * ((p // q + 1) * width + max(sn, sd).bit_length()) < powers):
        return _ceil_irrational(bn, bd, p, q, sn, sd)
    # k >= scale * base**(p/q)  <=>  (k*sd)**q * bd**p >= sn**q * bn**p
    rhs = sn**q * bn**p
    lhs_unit = bd**p
    # floor(scale * base**exp), since floor(floor(x)**(1/q)) = floor(x**(1/q))
    k = floor_root(rhs // (sd**q * lhs_unit), q)
    return k if (k * sd) ** q * lhs_unit >= rhs else k + 1


def _ceil_irrational(bn: int, bd: int, p: int, q: int, sn: int, sd: int) -> int:
    """ceil(sn/sd * (bn/bd)**(p/q)), p/q in lowest terms, for bn != bd below
    2**q: neither is a q-th power unless it is 1, so the value is irrational.
    Its decimal x from correctly rounded ln and exp at prec digits is off by
    less than x * slack / 10**prec (slack: 100 times `logs`, a bound on the
    logarithms and on x's bits); prec doubles until no integer is that close."""
    logs = ((bn.bit_length() + bd.bit_length()) * (p // q + 1)
            + sn.bit_length() + sd.bit_length() + 1)
    prec, slack = 40 + logs // 3, 100 * logs
    while True:
        with localcontext(Context(prec=prec)):
            ln = [Decimal(v).ln() for v in (bn, bd, sn, sd)]
            x = ((ln[0] - ln[1]) * p / q + ln[2] - ln[3]).exp()
            err = x * slack / 10**prec
            lo = (x - err).to_integral_value(ROUND_FLOOR)
            if lo == (x + err).to_integral_value(ROUND_FLOOR):
                return int(lo) + 1
        prec *= 2


def ceil_pow(n: Rational, exp: Rational) -> int:
    """Exact ceil(n**exp)."""
    return ceil_scaled_pow(n, exp)


def ceil_scaled_sqrt(x: int, scale: Rational = 1) -> int:
    """Exact ceil(scale * sqrt(x)) for x >= 0."""
    return ceil_scaled_pow(x, Fraction(1, 2), scale)
