"""Tests for the exact arithmetic kernels."""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgexact import exact
from cgexact.exact import (
    SignedSqrtRational,
    binomial,
    factorial,
    pochhammer,
    rational_to_decimal,
    sqrt_to_decimal,
)


def test_factorial_small_values():
    assert factorial(0) == 1
    assert factorial(1) == 1
    assert factorial(5) == 120


def test_factorial_negative_rejected():
    with pytest.raises(ValueError):
        factorial(-1)


def test_factorial_matches_math_factorial():
    for n in range(0, 200, 7):
        assert factorial(n) == math.factorial(n)


def test_factorial_cache_concurrent_growth():
    # concurrent readers and growers must all see correct values
    args = [503, 251, 17, 499, 251, 503, 89, 400] * 4
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(factorial, args))
    assert results == [math.factorial(n) for n in args]


def test_factorial_past_the_cache_bound():
    factorial(exact._FACT_MAX_CACHED)
    assert len(exact._FACT) == exact._FACT_MAX_CACHED + 1
    assert factorial(20000) == math.factorial(20000)
    assert len(exact._FACT) == exact._FACT_MAX_CACHED + 1


def test_binomial_examples():
    assert binomial(4, 2) == 6
    assert binomial(5, 0) == 1
    assert binomial(3, 5) == 0
    assert binomial(3, -1) == 0


def test_binomial_negative_row_rejected():
    with pytest.raises(ValueError):
        binomial(-2, 0)


def test_binomial_equals_factorial_ratio_up_to_60():
    for n in range(61):
        for k in range(n + 1):
            assert binomial(n, k) == factorial(n) // (factorial(k) * factorial(n - k))


def test_binomial_pascal_identity_up_to_60():
    for n in range(1, 61):
        for k in range(1, n + 1):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_binomial_large_row_bypasses_cache():
    assert binomial(40960, 10) == math.comb(40960, 10)


def test_pochhammer_examples():
    assert pochhammer(Fraction(0), 0) == 1
    for p in (1, 2, 5):
        assert pochhammer(Fraction(0), p) == 0
    for a in (Fraction(-3, 2), Fraction(7), Fraction(2, 5)):
        assert pochhammer(a, 0) == 1
    assert pochhammer(Fraction(2), 3) == 24


def test_pochhammer_negative_length_rejected():
    with pytest.raises(ValueError):
        pochhammer(Fraction(1), -1)


@given(
    a=st.fractions(min_value=-20, max_value=20, max_denominator=12),
    k=st.integers(min_value=0, max_value=30),
)
def test_pochhammer_gamma_ratio_recurrence(a, k):
    assert pochhammer(a, k + 1) == pochhammer(a, k) * (a + k)


class TestSignedSqrtRational:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            SignedSqrtRational(2, Fraction(1))
        with pytest.raises(ValueError):
            SignedSqrtRational(1, Fraction(-1, 2))
        with pytest.raises(ValueError):
            SignedSqrtRational(0, Fraction(1, 2))
        with pytest.raises(ValueError):
            SignedSqrtRational(1, Fraction(0))

    def test_equality_is_sign_and_radicand(self):
        a = SignedSqrtRational(1, Fraction(4, 9))
        assert a == SignedSqrtRational(1, Fraction(4, 9))
        assert a != SignedSqrtRational(-1, Fraction(4, 9))
        assert a != SignedSqrtRational(1, Fraction(2, 3))

    def test_from_rational(self):
        assert SignedSqrtRational.from_rational(Fraction(-2, 3)) == SignedSqrtRational(
            -1, Fraction(4, 9)
        )
        assert SignedSqrtRational.from_rational(0) == SignedSqrtRational.zero()

    def test_from_scaled_sqrt(self):
        # -3 * sqrt(1/2) = -sqrt(9/2)
        v = SignedSqrtRational.from_scaled_sqrt(Fraction(-3), Fraction(1, 2))
        assert v == SignedSqrtRational(-1, Fraction(9, 2))
        assert SignedSqrtRational.from_scaled_sqrt(0, Fraction(1, 2)).is_zero

    def test_algebra(self):
        a = SignedSqrtRational(1, Fraction(1, 2))
        b = SignedSqrtRational(-1, Fraction(2, 3))
        assert a * b == SignedSqrtRational(-1, Fraction(1, 3))
        assert -a == SignedSqrtRational(-1, Fraction(1, 2))
        assert a.scale(Fraction(-2)) == SignedSqrtRational(-1, Fraction(2))
        assert a.scale_sqrt(Fraction(1, 3)) == SignedSqrtRational(1, Fraction(1, 6))
        assert (a * SignedSqrtRational.zero()).is_zero


def _sqrt_digits_oracle(radicand: Fraction, digits: int) -> str:
    """Independent scaled-integer-sqrt rendering with 2 guard digits."""
    num, den = radicand.numerator, radicand.denominator
    # magnitude by direct exact comparison
    mag = 0
    while num >= den * 10 ** (2 * mag):
        mag += 1
    while num < den * 10 ** (2 * (mag - 1)) if mag >= 1 else False:
        mag -= 1
    scaled = math.isqrt((num * 10 ** (2 * (digits - mag + 2))) // den)
    q, r = divmod(scaled, 100)
    if r > 50 or (r == 50 and q % 2):
        q += 1
    return str(q)


def test_sqrt_to_decimal_examples():
    half = SignedSqrtRational(1, Fraction(1, 2))
    rendered = sqrt_to_decimal(half, 10)
    assert rendered == "0.7071067812"
    assert rendered.replace("0.", "") == _sqrt_digits_oracle(Fraction(1, 2), 10)
    assert sqrt_to_decimal(SignedSqrtRational.zero(), 5) == "0"
    assert sqrt_to_decimal(SignedSqrtRational(-1, Fraction(1, 4)), 5) == "-0.50000"


def test_sqrt_to_decimal_exact_square_ties_round_half_even():
    # sqrt(1/4) * 10^1 = 5 exactly: the tie rounds to the even digit below
    assert sqrt_to_decimal(SignedSqrtRational(1, Fraction(1, 4)), 1) == "0.5"
    # sqrt(25/4) = 2.5: one significant digit ties between 2 and 3, takes 2
    assert sqrt_to_decimal(SignedSqrtRational(1, Fraction(25, 4)), 1) == "2"
    # sqrt(49/4) = 3.5 ties between 3 and 4, takes 4
    assert sqrt_to_decimal(SignedSqrtRational(1, Fraction(49, 4)), 1) == "4"


def test_sqrt_to_decimal_magnitudes():
    assert sqrt_to_decimal(SignedSqrtRational(1, Fraction(1000000)), 2) == "1000"
    assert sqrt_to_decimal(SignedSqrtRational(1, Fraction(1, 1000000)), 3) == "0.00100"
    # rounding overflow: sqrt(0.99999999...) ~ 0.9999999 -> 1.0 at 3 digits
    assert sqrt_to_decimal(SignedSqrtRational(1, Fraction(999999, 1000000)), 3) == "1.00"


def test_sqrt_to_decimal_rejects_nonpositive_digits():
    with pytest.raises(ValueError):
        sqrt_to_decimal(SignedSqrtRational(1, Fraction(1, 2)), 0)


@settings(max_examples=300)
@given(
    radicand=st.fractions(
        min_value=Fraction(1, 10**6), max_value=Fraction(10**6), max_denominator=10**6
    ),
    sign=st.sampled_from((-1, 1)),
    digits=st.integers(min_value=3, max_value=40),
)
def test_sqrt_to_decimal_roundtrip_accuracy(radicand, sign, digits):
    value = SignedSqrtRational(sign, radicand)
    parsed = Fraction(sqrt_to_decimal(value, digits))
    assert (parsed < 0) == (sign < 0)
    relative = abs(parsed * parsed - radicand) / radicand
    assert relative < Fraction(10) ** (2 - digits)


def test_rational_to_decimal_basic():
    assert rational_to_decimal(Fraction(5, 9), 5) == "0.55556"
    assert rational_to_decimal(Fraction(2), 1) == "2"
    assert rational_to_decimal(Fraction(2), 3) == "2.00"
    assert rational_to_decimal(Fraction(-1, 18), 4) == "-0.05556"
    assert rational_to_decimal(Fraction(0), 7) == "0"


def test_rational_to_decimal_half_even_ties():
    assert rational_to_decimal(Fraction(25, 10), 1) == "2"
    assert rational_to_decimal(Fraction(35, 10), 1) == "4"
    assert rational_to_decimal(Fraction(1, 8), 2) == "0.12"


@settings(max_examples=200)
@given(
    value=st.fractions(
        min_value=Fraction(-(10**6)), max_value=Fraction(10**6), max_denominator=10**6
    ),
    digits=st.integers(min_value=2, max_value=30),
)
def test_rational_to_decimal_roundtrip_accuracy(value, digits):
    if value == 0:
        assert rational_to_decimal(value, digits) == "0"
        return
    parsed = Fraction(rational_to_decimal(value, digits))
    assert abs(parsed - value) <= abs(value) * Fraction(10) ** (1 - digits)


# References from the decimal module: exact operands, then one correctly
# rounded division or square root at 15 digits, half-even.
_EXACT = Context(prec=10_000, Emin=-999_999, Emax=999_999)
_ROUNDED = Context(prec=15, rounding=ROUND_HALF_EVEN, Emin=-999_999, Emax=999_999)


def test_rational_to_decimal_past_int_str_digit_limit():
    # 5071 and 4533 digits, beyond the 4300-digit default limit of int-to-str
    big, other = 7**6000 + 1, 3**9500
    cases = [
        (Fraction(big, other), _ROUNDED.divide(Decimal(big), Decimal(other))),
        (Fraction(-other, big), -_ROUNDED.divide(Decimal(other), Decimal(big))),
        (Fraction(1, other), _ROUNDED.divide(Decimal(1), Decimal(other))),
    ]
    for value, expected in cases:
        assert Decimal(rational_to_decimal(value, 15)) == expected


def test_sqrt_to_decimal_past_int_str_digit_limit():
    odd = 3**9501  # 4534 digits, coprime to 10
    cases = [
        (1, Fraction(odd), Decimal(odd)),
        (-1, Fraction(odd, 10**4400), Decimal(odd).scaleb(-4400, _EXACT)),
        (1, Fraction(odd, 10**9200), Decimal(odd).scaleb(-9200, _EXACT)),
    ]
    for sign, radicand, exact_radicand in cases:
        rendered = sqrt_to_decimal(SignedSqrtRational(sign, radicand), 15)
        assert Decimal(rendered) == sign * exact_radicand.sqrt(_ROUNDED)
