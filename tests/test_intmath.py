"""Exact integer power/ceiling helpers underpinning all round charges."""

import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcongest import intmath
from qcongest.intmath import (
    ceil_div,
    ceil_pow,
    ceil_root,
    ceil_scaled_pow,
    ceil_scaled_sqrt,
    floor_root,
)


class TestRoots:
    @given(st.integers(0, 10**12), st.integers(1, 7))
    @settings(max_examples=200, deadline=None)
    def test_floor_and_ceil_root(self, x, k):
        f = floor_root(x, k)
        assert f**k <= x < (f + 1) ** k
        c = ceil_root(x, k)
        assert c**k >= x and (c == 0 or (c - 1) ** k < x)

    def test_a_root_below_two_takes_no_newton_step(self):
        # 2 <= x < 2**k: the root is 1, even where r**(k - 1) would not fit
        # in memory
        for x, k in ((2, 2), (3, 2), (2**20 - 1, 20), (2**20, 21), (10**6, 2**39)):
            assert floor_root(x, k) == 1
            assert ceil_root(x, k) == 2
        assert floor_root(2**20, 20) == 2

    def test_exact_cubes(self):
        assert ceil_root(27, 3) == 3
        assert ceil_root(28, 3) == 4
        assert floor_root(2**60, 5) == 2**12


class TestCeilScaledPow:
    @given(
        st.integers(1, 2**20),
        st.integers(0, 32), st.integers(1, 16),
        st.integers(0, 3200), st.integers(1, 64),
    )
    @settings(max_examples=300, deadline=None)
    def test_definition(self, n, en, ed, sn, sd):
        # smallest k with k >= scale * n**exp, verified by the defining
        # inequality in exact integer arithmetic (float/mpf references
        # misjudge exact ties like (1/29) * 29^2)
        exp = min(Fraction(en, ed), Fraction(2))
        scale = min(Fraction(sn, sd), Fraction(50))
        got = ceil_scaled_pow(n, exp, scale)
        p, q = exp.numerator, exp.denominator
        rhs = scale.numerator**q * n**p

        def at_least(k):  # k >= scale * n**(p/q)
            return (k * scale.denominator) ** q >= rhs

        assert at_least(got)
        assert got == 0 or not at_least(got - 1)

    @given(
        st.integers(1, 10**6),
        st.integers(1, 8), st.integers(1, 8),
        st.integers(1, 10**400), st.integers(1, 10**6),
    )
    @example(1000, 1, 2, 10**22, 1)  # its float seed is off by about 10^8 units
    @example(12, 1, 2, 10**400, 1)  # its float seed overflows
    @settings(max_examples=300, deadline=None)
    def test_definition_at_large_scales(self, n, en, ed, sn, sd):
        # scales far beyond a float's exact range (and beyond its range)
        exp, scale = Fraction(en, ed), Fraction(sn, sd)
        got = ceil_scaled_pow(n, exp, scale)
        p, q = exp.numerator, exp.denominator
        rhs = scale.numerator**q * n**p

        def at_least(k):  # k >= scale * n**(p/q)
            return (k * scale.denominator) ** q >= rhs

        assert at_least(got)
        assert got == 0 or not at_least(got - 1)

    @given(st.integers(0, 10**800), st.integers(1, 9))
    @settings(max_examples=300, deadline=None)
    def test_roots_of_large_integers(self, x, k):
        f = floor_root(x, k)
        assert f**k <= x < (f + 1) ** k

    def test_power_of_two_boundaries(self):
        # the float-pow trap: 32768**0.2 is not exactly 8.0 in floats
        assert ceil_pow(32768, Fraction(1, 5)) == 8
        assert ceil_pow(2**15, Fraction(3, 5)) == 2**9
        assert ceil_scaled_sqrt(1024, Fraction(1)) == 32

    def test_rational_base(self):
        # mu = m/n bases used by the sparsity-aware planner
        assert ceil_scaled_pow(Fraction(25), Fraction(1, 2)) == 5
        assert ceil_scaled_pow(Fraction(50, 2), Fraction(1, 2)) == 5
        assert ceil_scaled_pow(Fraction(26), Fraction(1, 2)) == 6

    def test_zero_cases(self):
        assert ceil_scaled_pow(0, Fraction(1, 2)) == 0
        assert ceil_scaled_pow(10, Fraction(1, 2), 0) == 0
        assert ceil_scaled_pow(10, 0, Fraction(7, 2)) == 4
        assert ceil_div(0, 5) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ceil_scaled_pow(4, Fraction(-1, 2))
        with pytest.raises(ValueError):
            ceil_div(1, 0)


class TestIrrationalBranch:
    """Where the integer powers would pass 2**16 bits and dwarf an irrational
    value, ceil_scaled_pow brackets the value in decimals instead."""

    @given(st.one_of(st.integers(2, 10**6), st.builds(Fraction, st.integers(1, 10**6),
                                                      st.integers(1, 10**4))),
           st.integers(1, 200), st.integers(0, 12),
           st.builds(Fraction, st.integers(1, 10**30), st.integers(1, 10**6)))
    @example(2, 1, 0, Fraction(1))
    @example(Fraction(1, 2), 3, 1, Fraction(10**20, 3))
    @example(Fraction(999, 1000), 1, 2, Fraction(7))
    @settings(max_examples=400, deadline=None)
    def test_matches_the_integer_path(self, base, p, extra_bits, scale):
        # exponents whose integer path is fast: the bracket gives its values
        base = Fraction(base)
        q = max(base.numerator, base.denominator).bit_length() + 1 + extra_bits
        if base == 1 or Fraction(p, q).denominator != q:  # not irrational by the branch's test
            return
        got = intmath._ceil_irrational(base.numerator, base.denominator, p, q,
                                       scale.numerator, scale.denominator)
        assert got == ceil_scaled_pow(base, Fraction(p, q), scale)

    def test_values_close_to_an_integer(self):
        # scale * 2**(1/3) within 10**-d of 10**20 + 7: the bracket must narrow
        for d in (10, 40, 90):
            root = floor_root(2 * 10**(3 * (d + 25)), 3)  # 2**(1/3) * 10**(d + 25)
            for bump in (0, 1):
                scale = Fraction((10**20 + 7) * 10**(2 * d + 25) // root + bump, 10**d)
                got = intmath._ceil_irrational(2, 1, 1, 3, scale.numerator, scale.denominator)
                assert got == ceil_scaled_pow(2, Fraction(1, 3), scale)

    def test_huge_exponents_form_no_power(self):
        # 64**(1 - 2**-39) and 64**(2**-39): the integer path would form 64**(2**39 - 1)
        with mock.patch.object(intmath, "floor_root", side_effect=AssertionError("int path")):
            assert ceil_pow(64, 1 - Fraction(1, 2**39)) == 64
            assert ceil_pow(64, Fraction(1, 2**39)) == 2
            assert ceil_scaled_pow(Fraction(5, 2), Fraction(2**24 - 1, 2**24), 100) == 250
            assert ceil_scaled_pow(64, 1 - Fraction(1, 2**24), Fraction(1, 10**9)) == 1

    def test_other_calls_keep_the_integer_path(self):
        # base 1, q within the bit width, powers below 2**16 bits, or a value
        # whose own size is close to the powers': floor_root runs
        calls = []
        real = intmath.floor_root
        with mock.patch.object(intmath, "floor_root",
                               side_effect=lambda x, k: calls.append(k) or real(x, k)):
            assert ceil_scaled_pow(1, Fraction(1, 2**20), 3) == 3
            assert ceil_pow(2**(2**17), Fraction(1, 2**17)) == 2
            assert ceil_pow(1000, Fraction(1, 3)) == 10
            assert ceil_pow(3, Fraction(40000, 7)).bit_length() == 9057
        assert calls == [2**20, 2**17, 3, 7]


def reference_ceil_scaled_pow(base, exp, scale=1):
    """ceil_scaled_pow as it was written before it read ints and Fractions
    without converting them: every argument becomes a Fraction first."""
    base = Fraction(base)
    exp = Fraction(exp)
    scale = Fraction(scale)
    if base < 0 or scale < 0 or exp < 0:
        raise ValueError("ceil_scaled_pow expects non-negative arguments")
    if scale == 0 or base == 0:
        return 0
    if exp == 0:
        return ceil_div(scale.numerator, scale.denominator)
    p, q = exp.numerator, exp.denominator
    bn, bd = base.numerator, base.denominator
    sn, sd = scale.numerator, scale.denominator
    rhs = sn**q * bn**p
    lhs_unit = bd**p
    k = floor_root(rhs // (sd**q * lhs_unit), q)
    return k if (k * sd) ** q * lhs_unit >= rhs else k + 1


def rationals(lo):
    """ints, and Fractions with numerator >= lo, some of them whole."""
    return st.one_of(st.integers(lo, 10**6),
                     st.builds(Fraction, st.integers(lo, 10**6), st.integers(1, 64)))


class TestCeilScaledPowMatchesReference:
    @given(rationals(-3), st.one_of(st.integers(-1, 3), st.builds(
        Fraction, st.integers(-2, 24), st.integers(1, 12))), rationals(-3))
    @example(0, 0, 5)  # a zero base wins over exp = 0
    @example(7, 0, Fraction(7, 2))  # exp = 0: ceil(scale)
    @example(7, Fraction(0, 3), 0)
    @example(Fraction(0, 5), Fraction(1, 2), Fraction(3, 4))
    @example(-1, Fraction(1, 2), 0)  # a negative base raises before the zero scale returns
    @example(4, Fraction(-1, 2), 1)
    @example(4, Fraction(1, 2), Fraction(-1, 3))
    @example(True, 1, 3)  # bool is an int
    @settings(max_examples=500, deadline=None)
    def test_same_value_or_same_error(self, base, exp, scale):
        try:
            want = reference_ceil_scaled_pow(base, exp, scale)
        except ValueError:
            with pytest.raises(ValueError, match="non-negative"):
                ceil_scaled_pow(base, exp, scale)
            return
        assert ceil_scaled_pow(base, exp, scale) == want

    @pytest.mark.parametrize("base, exp, scale", [
        (2.5, 0.5, 1), ("9/4", "1/2", 2), (10, 0.0, 3.5), (0.0, 1, 1)])
    def test_other_types_are_converted(self, base, exp, scale):
        assert ceil_scaled_pow(base, exp, scale) == reference_ceil_scaled_pow(base, exp, scale)
