"""Tests for the exact arithmetic kernels."""

from __future__ import annotations

import dataclasses
import itertools
import math
import pickle
import random
import sys
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


def test_factorial_cache_growth_under_thread_switches():
    # growth takes no lock; with a 1 us switch interval, growers interleave
    # inside the growth loop, and every entry must still be its factorial
    args = [503, 251, 17, 499, 251, 503, 89, 400] * 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(30):
            del exact._FACT[1:]
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(factorial, args, timeout=60))
            assert results == [math.factorial(n) for n in args]
            assert exact._FACT == [math.factorial(i) for i in range(len(exact._FACT))]
    finally:
        sys.setswitchinterval(interval)


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


def test_binomial_is_math_comb_across_the_old_table_boundary():
    # rows up to 512 were once factorial-table quotients, larger ones math.comb
    for n in range(601):
        assert [binomial(n, k) for k in range(n + 1)] == [math.comb(n, k) for k in range(n + 1)]
        assert binomial(n, -1) == binomial(n, n + 1) == 0
    with pytest.raises(ValueError, match="negative row"):
        binomial(-1, 0)


def _prime_crossover(n):
    """The least min(k, n - k) that takes the prime-exponent path on row n."""
    if n <= exact._PRIMES_MAX_CACHED:
        return exact._PRIME_MIN_K + n // 64
    return exact._PRIME_MIN_K_SIEVED + n // 64


def _row_check(n, ks):
    assert [binomial(n, k) for k in ks] == [math.comb(n, k) if 0 <= k <= n else 0 for k in ks], n


def test_binomial_takes_the_prime_path_from_the_crossover(monkeypatch):
    calls = []
    real = exact._binomial_from_primes

    def counted(n, k, primes):
        calls.append((n, k))
        return real(n, k, primes)

    monkeypatch.setattr(exact, "_binomial_from_primes", counted)
    for n in (639, 640, 659):
        for k in range(n + 1):
            binomial(n, k)
    assert calls == []
    for n in (660, 704, 4096, 40000, 65536, 65537, 200000):
        j = _prime_crossover(n)
        for k in (j - 1, n - j + 1):
            binomial(n, k)
        assert calls == [], n
        binomial(n, j)
        binomial(n, n - j)
        assert calls == [(n, j), (n, j)], n
        calls.clear()


def test_binomial_is_math_comb_on_rows_straddling_the_crossover():
    for n in (639, 640, 659, 660, 703, 704, 1000):
        _row_check(n, range(-1, n + 2))
    for n in (65536, 65537):
        j = _prime_crossover(n)
        ks = [*range(j - 3, j + 4), n // 3, n // 2]
        _row_check(n, ks + [n - k for k in ks])


def test_binomial_is_math_comb_across_long_rows():
    _row_check(4096, range(0, 4097, 3))
    _row_check(40000, range(0, 40001, 797))
    _row_check(40000, range(_prime_crossover(40000) - 2, 20001, 4001))


def test_binomial_at_prime_powers_and_around_primes():
    # every exponent of 2, 3 and 7 reaches its last Legendre term, and a
    # prime row is its own largest prime factor
    for n in (2**15, 3**10, 7**5, 39989, 39990, 39988, 65521, 65522, 65520, 100003, 100004, 100002):
        j = _prime_crossover(n)
        _row_check(n, [j, j + 1, n // 7, n // 3, n // 2, n - j, n - n // 3])


def test_binomial_on_seeded_pairs_up_to_200000():
    rng = random.Random(20161504)
    pairs = []
    for _ in range(300):
        n = round(math.exp(rng.uniform(math.log(640), math.log(200000))))
        j = round(math.exp(rng.uniform(math.log(64), math.log(n // 2))))
        pairs.append((n, j if rng.random() < 0.5 else n - j))
    on_prime_path = sum(min(k, n - k) >= _prime_crossover(n) for n, k in pairs)
    above_cap = sum(n > exact._PRIMES_MAX_CACHED for n, _ in pairs)
    assert on_prime_path >= 100 and above_cap >= 30
    assert [binomial(n, k) for n, k in pairs] == [math.comb(n, k) for n, k in pairs]


def test_binomial_prime_path_zero_convention_and_negative_row():
    for n in (40000, 200000):
        assert binomial(n, -1) == binomial(n, n + 1) == binomial(n, -n) == 0
        with pytest.raises(ValueError, match="negative row"):
            binomial(-n, n // 2)


def _spy_binomial(monkeypatch, module):
    """Record each (n, k) that `module` passes to its `binomial`."""
    calls = []
    real = module.binomial

    def counted(n, k):
        calls.append((n, k))
        return real(n, k)

    monkeypatch.setattr(module, "binomial", counted)
    return calls


def test_binomial_quotient_on_every_small_row(monkeypatch):
    # every C(l1,k1) C(l2,k2) / C(l1+l2, k1+k2) with l1 + l2 <= 24, reduced
    # as Fraction reduces it, with the prime route forced on these short
    # rows and taken, since no binomial is built; rows with l1 or l2 below
    # sqrt(l1 + l2) included
    monkeypatch.setattr(exact, "_QUOTIENT_PRIME_MIN_K", 0)
    monkeypatch.setattr(exact, "_PRIME_MIN_K", 0)
    calls = _spy_binomial(monkeypatch, exact)
    for l in range(25):
        for l1 in range(l + 1):
            l2 = l - l1
            for k1 in range(l1 + 1):
                for k2 in range(l2 + 1):
                    q = exact._binomial_quotient(l1, k1, l2, k2)
                    want = Fraction(math.comb(l1, k1) * math.comb(l2, k2), math.comb(l, k1 + k2))
                    assert (q.numerator, q.denominator) == (want.numerator, want.denominator), (l1, k1, l2, k2)
    assert calls == []


def test_binomial_quotient_takes_primes_from_its_rule_on(monkeypatch):
    # the quotient's own rule on cached rows, `binomial`'s sieved rule above
    # them; k is split across both top binomials, from either side of the
    # row. Below the rule the quotient is the literal one of three binomials,
    # from it on it builds none; on both sides it holds the literal fields.
    calls = _spy_binomial(monkeypatch, exact)
    for l in (2200, 40000, 65536, 65537, 70000):
        if l <= exact._PRIMES_MAX_CACHED:
            j = exact._QUOTIENT_PRIME_MIN_K + l // 32
        else:
            j = exact._PRIME_MIN_K_SIEVED + l // 64
        l1 = l * 2 // 5
        l2 = l - l1
        for k in (j - 1, j, l - j + 1, l - j):
            k1 = min(l1, k * 2 // 5)
            q = exact._binomial_quotient(l1, k1, l2, k - k1)
            want = Fraction(math.comb(l1, k1) * math.comb(l2, k - k1), math.comb(l, k))
            assert (q.numerator, q.denominator) == (want.numerator, want.denominator), (l, k)
            literal = [(l1, k1), (l2, k - k1), (l, k)] if min(k, l - k) < j else []
            assert calls == literal, (l, k)
            calls.clear()


def test_prime_table_is_the_primes_up_to_its_cap():
    primerange = pytest.importorskip("sympy").primerange
    for n in range(2, 300):
        assert exact._primes_upto(n) == list(primerange(2, n + 1))
    binomial(40000, 20000)
    assert exact._PRIMES == list(primerange(2, exact._PRIMES_MAX_CACHED + 1))


def test_binomial_past_the_prime_cap():
    binomial(40000, 20000)
    table = list(exact._PRIMES)
    assert table[-1] <= exact._PRIMES_MAX_CACHED
    assert binomial(100003, 30011) == math.comb(100003, 30011)
    assert exact._PRIMES == table


def test_prime_table_fill_under_thread_switches():
    # the table is filled without a lock on the first prime-path row; with a
    # 1 us switch interval the fills interleave, and every reader must still
    # see either no table or the whole one
    args = [(40000, 20000), (39239, 10646), (4096, 2048), (65536, 1400)] * 4
    expected = [math.comb(n, k) for n, k in args]
    table = list(exact._primes_upto(exact._PRIMES_MAX_CACHED))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            del exact._PRIMES[:]
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(lambda nk: binomial(*nk), args, timeout=60))
            assert results == expected
            assert exact._PRIMES == table
    finally:
        sys.setswitchinterval(interval)


def test_reduced_is_the_fraction_of_coprime_ints():
    # every coprime pair with |num| <= 12 and den <= 12, den = 1 and zero
    # included, and a few past one machine word
    pairs = [(n, d) for n in range(-12, 13) for d in range(1, 13) if math.gcd(n, d) == 1]
    pairs += [(-(3**200), 2**150), (2**300 + 1, 1), (7**90, 10**80 + 1)]
    third = Fraction(1, 3)
    for n, d in pairs:
        got, want = exact._reduced(n, d), Fraction(n, d)
        assert type(got) is Fraction
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator) == (n, d)
        assert got == want and want == got and not got != want
        assert hash(got) == hash(want)
        assert repr(got) == repr(want) and str(got) == str(want)
        assert got + third == want + third and got - want == 0
        assert got * third == want * third and got**2 == want**2 and -got == -want
        assert (got < 1) == (want < 1) and float(got) == float(want)
        assert math.floor(got) == math.floor(want) and round(got) == round(want)
        if n:
            assert 1 / got == 1 / want
        restored = pickle.loads(pickle.dumps(got))
        assert type(restored) is Fraction
        assert (restored.numerator, restored.denominator) == (n, d)


def _fraction_grid() -> list[tuple[int, int]]:
    """Seeded (num, den) int pairs for Fraction(num, den): every |num| <= 6
    over every den in +-1..6 (zero, negative and den = 1 included), then
    pairs that share a random factor, some past 4300 digits."""
    rng = random.Random(19)
    pairs = [(n, d) for n in range(-6, 7) for d in range(-6, 7) if d]
    factors = [1, 2**64 + 13, 3**200, 10**4400 + 1]
    for _ in range(60):
        g = rng.choice(factors) * rng.randint(1, 30)
        n = g * rng.randint(-(10**6), 10**6) * rng.choice(factors)
        d = g * rng.choice((-1, 1)) * rng.randint(1, 10**6) * rng.choice(factors)
        pairs.append((n, d))
    return pairs


def test_fraction_is_the_fraction_of_ints():
    for n, d in _fraction_grid():
        got, want = exact._fraction(n, d), Fraction(n, d)
        assert type(got) is Fraction
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert got == want and want == got and hash(got) == hash(want)
        try:
            pickled = pickle.dumps(want)
        except ValueError:  # pickled through str(), which stops at 4300 digits
            with pytest.raises(ValueError):
                pickle.dumps(got)
        else:
            assert pickle.dumps(got) == pickled
            restored = pickle.loads(pickle.dumps(got))
            assert type(restored) is Fraction and restored == want
    for n in (0, 5, -(10**4400)):
        with pytest.raises(ZeroDivisionError):
            exact._fraction(n, 0)


def test_reduced_product_is_the_fraction_product():
    # lowest-terms values from the grid: every small one, so that both
    # cross gcds (an with bd, bn with ad) take out factors, and every fifth
    # big one
    grid = _fraction_grid()
    values = sorted({Fraction(n, d) for n, d in grid[:156]})
    values += [Fraction(n, d) for n, d in grid[156::5]]
    for a, b in itertools.product(values, repeat=2):
        want = a * b
        got = exact._reduced_product(a.numerator, a.denominator, b.numerator, b.denominator)
        assert type(got) is Fraction
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


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

    def test_product_with_a_plain_number_is_a_type_error(self):
        # __mul__ returns NotImplemented, and int has no product with it either
        with pytest.raises(TypeError):
            SignedSqrtRational(1, Fraction(1, 2)) * 2

    def test_from_scaled_sqrt(self):
        # -3 * sqrt(1/2) = -sqrt(9/2)
        v = SignedSqrtRational.from_scaled_sqrt(Fraction(-3), Fraction(1, 2))
        assert v == SignedSqrtRational(-1, Fraction(9, 2))
        assert SignedSqrtRational.from_scaled_sqrt(0, Fraction(1, 2)).is_zero

    def test_zero_is_one_shared_frozen_instance(self):
        zero = SignedSqrtRational.zero()
        assert SignedSqrtRational.zero() is zero
        assert zero == SignedSqrtRational(0, 0)
        assert zero.radicand == 0 and isinstance(zero.radicand, Fraction)
        with pytest.raises(dataclasses.FrozenInstanceError):
            zero.sign = 1

    def test_from_scaled_sqrt_matches_validated_constructor(self):
        coeffs = [0, 1, -1, 3, -7, Fraction(2, 3), Fraction(-5, 4), Fraction(-12, 18)]
        radicands = [0, 1, 2, Fraction(1, 2), Fraction(9, 4), Fraction(6, 35), 10**30 + 1]
        for coeff in coeffs:
            for radicand in radicands:
                value = SignedSqrtRational.from_scaled_sqrt(coeff, radicand)
                c, r = Fraction(coeff), Fraction(radicand)
                sign = (c > 0) - (c < 0) if r else 0
                expected = SignedSqrtRational(sign, c * c * r)
                assert (value.sign, value.radicand) == (expected.sign, expected.radicand)
                assert type(value.radicand) is Fraction
                assert value == expected

    def test_from_scaled_sqrt_rejects_negative_radicand(self):
        for coeff in (0, 1, Fraction(-2, 3)):
            with pytest.raises(ValueError, match="nonnegative"):
                SignedSqrtRational.from_scaled_sqrt(coeff, Fraction(-1, 2))

    def test_results_hold_the_constructor_invariants(self):
        # values built without __post_init__ must pass its checks; zero is
        # the shared instance
        zero = SignedSqrtRational.zero()
        values = [
            SignedSqrtRational.from_scaled_sqrt(coeff, radicand)
            for coeff in (0, -3, Fraction(4, 6), "-1/2", 0.75)
            for radicand in (0, 2, Fraction(6, 4), "9/12", 1.5)
        ]
        minus_one = SignedSqrtRational(-1, 1)
        values += [v * minus_one for v in values]
        values += [x * y for x in values[:10] for y in values[:10]]
        values += [v * SignedSqrtRational(1, f) for v in values[:10] for f in (3, Fraction(2, 8), 0.5)]
        values += [v * SignedSqrtRational.zero() for v in values[:10]]
        for value in values:
            radicand = value.radicand
            assert type(radicand) is Fraction and radicand >= 0
            assert math.gcd(radicand.numerator, radicand.denominator) == 1
            assert value.sign in (-1, 0, 1)
            assert (value.sign == 0) == (radicand == 0)
            assert (value.sign == 0) == (value is zero)
            assert value == SignedSqrtRational(value.sign, radicand)
        assert zero * minus_one is zero and SignedSqrtRational(0, 0) * minus_one is zero
        # a negative sqrt-scale factor fails in the constructor of its value
        for bad, shown in ((-2, "-2"), (Fraction(-2, 4), "-1/2"), (-0.5, "-1/2")):
            with pytest.raises(ValueError, match=f"nonnegative, got {shown}$"):
                SignedSqrtRational(1, bad)
            with pytest.raises(ValueError, match=f"nonnegative, got {shown}$"):
                SignedSqrtRational.from_scaled_sqrt(1, bad)

    def test_str_past_int_str_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        digits = "1" + "0" * 4999 + "1"  # 10**5000 + 1, coprime to 3
        radicand = Fraction(10**5000 + 1, 3)
        assert str(SignedSqrtRational(1, radicand)) == f"+sqrt({digits}/3)"
        assert str(SignedSqrtRational(-1, radicand)) == f"-sqrt({digits}/3)"
        assert str(SignedSqrtRational(1, 10**5000 + 1)) == f"+sqrt({digits})"
        assert sys.get_int_max_str_digits() == limit
        # below the limit the string is str(Fraction)'s, "/1" left out
        assert str(SignedSqrtRational(-1, Fraction(9, 2))) == "-sqrt(9/2)"
        assert str(SignedSqrtRational(1, 4)) == "+sqrt(4)"
        assert str(SignedSqrtRational.zero()) == "0"

    def test_algebra(self):
        a = SignedSqrtRational(1, Fraction(1, 2))
        b = SignedSqrtRational(-1, Fraction(2, 3))
        assert a * b == SignedSqrtRational(-1, Fraction(1, 3))
        assert a * SignedSqrtRational(-1, 1) == SignedSqrtRational(-1, Fraction(1, 2))
        assert a * SignedSqrtRational(1, Fraction(1, 3)) == SignedSqrtRational(1, Fraction(1, 6))
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


def test_rational_to_decimal_rejects_nonpositive_digits():
    with pytest.raises(ValueError, match="digits must be positive, got 0"):
        rational_to_decimal(Fraction(1, 3), 0)


def test_rational_to_decimal_same_digits_for_int_and_fraction_input():
    for value in (0, 7, -7, 10**40 + 5, -(3**200)):
        for digits in (1, 3, 15, 60):
            assert rational_to_decimal(value, digits) == rational_to_decimal(
                Fraction(value), digits
            )
    assert rational_to_decimal(-7, 3) == "-7.00"
    assert rational_to_decimal(Fraction(0, 5), 2) == "0"


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
_DEFAULT_INT_STR_DIGITS = sys.get_int_max_str_digits()


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


@pytest.mark.parametrize("digits", [4301, 5000])
def test_renderers_output_more_than_4300_digits(digits):
    # the digit string itself is past int-to-str's 4300-digit default cap;
    # negation is copy_negate, since unary minus would round to the thread's
    # 28-digit context
    rounded = Context(prec=digits, rounding=ROUND_HALF_EVEN, Emin=-999_999, Emax=999_999)
    big, other = 7**6000 + 1, 3**9500
    rendered = rational_to_decimal(Fraction(-big, other), digits)
    assert Decimal(rendered) == rounded.divide(Decimal(big), Decimal(other)).copy_negate()
    assert Decimal(rational_to_decimal(Fraction(2, 3), digits)) == rounded.divide(2, 3)
    odd = 3**9501
    cases = [
        (1, Fraction(2), Decimal(2)),
        (-1, Fraction(odd, 10**4400), Decimal(odd).scaleb(-4400, _EXACT)),
    ]
    for sign, radicand, exact_radicand in cases:
        rendered = sqrt_to_decimal(SignedSqrtRational(sign, radicand), digits)
        expected = exact_radicand.sqrt(rounded)
        assert Decimal(rendered) == (expected if sign > 0 else expected.copy_negate())
        assert len(rendered.lstrip("-").replace(".", "").lstrip("0")) == digits
    assert sys.get_int_max_str_digits() == _DEFAULT_INT_STR_DIGITS


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


def test_sqrt_to_decimal_takes_isqrt_of_a_quotient_of_about_twice_the_digits(monkeypatch):
    # the root is the isqrt of the scaled quotient, not of the radicand's
    # num * den product: every isqrt argument stays near 2(digits + 3) digits
    # however long the radicand is
    rng = random.Random(2402)
    num = rng.getrandbits(10_000) | 1 << 9_999
    den = rng.getrandbits(10_000) | 1 << 9_999
    value = SignedSqrtRational(-1, Fraction(num, den))
    isqrt = math.isqrt
    arguments = []

    def recorded(n):
        arguments.append(n)
        return isqrt(n)

    monkeypatch.setattr(math, "isqrt", recorded)
    rendered = {}
    for digits in (1, 15, 30, 100):
        arguments.clear()
        rendered[digits] = sqrt_to_decimal(value, digits)
        assert arguments and all(n < 10 ** (2 * digits + 8) for n in arguments), digits
    monkeypatch.undo()
    for digits, text in rendered.items():
        assert text == _reference_sqrt_to_decimal(value, digits), digits


def _rounded_sqrt(radicand: Fraction, digits: int) -> Decimal:
    """sqrt(radicand) to `digits` digits, half-even, from one integer isqrt:
    the magnitude by exact comparison, then floor and tie decided on exact
    rationals."""
    mag = (len(str(radicand.numerator)) - len(str(radicand.denominator))) // 2
    while radicand >= Fraction(100) ** mag:
        mag += 1
    while radicand < Fraction(100) ** (mag - 1):
        mag -= 1
    scaled = radicand * Fraction(100) ** (digits - mag)
    q = math.isqrt(scaled.numerator // scaled.denominator)
    # compare sqrt(scaled) with q + 1/2, squared
    if 4 * scaled > (2 * q + 1) ** 2 or (4 * scaled == (2 * q + 1) ** 2 and q % 2):
        q += 1
    return Decimal(q).scaleb(mag - digits, _EXACT)


def _fixed_point(value: Decimal, digits: int) -> str:
    """A value of at most `digits` significant digits written out as the
    renderers write it: `digits` significant digits, zeros padding an integer."""
    return format(value, f".{max(0, digits - 1 - value.adjusted())}f")


def _boundary_rationals(digits: int) -> list[Fraction]:
    """Powers of ten, values one unit either side of them, half-unit ties
    and round-ups that carry to 10^digits, at magnitudes down to 10^-300."""
    values = []
    for k in (-300, -41, -7, -1, 0, 1, 6, 40):
        power = Fraction(10) ** k
        values.append(power)
        for j in (digits - 1, digits, digits + 1, digits + 2):
            unit = power / 10**j
            values += [power - unit, power + unit, power - unit / 2, power + unit / 2]
    return [v for v in values if v > 0]


@pytest.mark.parametrize("digits", range(1, 41))
def test_rational_to_decimal_at_powers_of_ten(digits):
    rounded = Context(prec=digits, rounding=ROUND_HALF_EVEN, Emin=-999_999, Emax=999_999)
    for value in _boundary_rationals(digits):
        for signed in (value, -value):
            want = rounded.divide(Decimal(signed.numerator), Decimal(signed.denominator))
            assert rational_to_decimal(signed, digits) == _fixed_point(want, digits), signed


@pytest.mark.parametrize("digits", range(1, 41))
def test_sqrt_to_decimal_at_powers_of_ten(digits):
    # squares of the rational cases, so that each root sits one unit from a
    # power of ten, on a half-unit tie or exactly on the power, and radicands
    # one unit either side of those perfect squares
    radicands = []
    for root in _boundary_rationals(digits):
        square = root * root
        radicands += [square, square - square / 10 ** (2 * digits + 4), square * (1 + Fraction(1, 10**30))]
    for radicand in radicands:
        want = _rounded_sqrt(radicand, digits)
        for sign, signed in ((1, want), (-1, want.copy_negate())):
            got = sqrt_to_decimal(SignedSqrtRational(sign, radicand), digits)
            assert got == _fixed_point(signed, digits), radicand


def test_digit_string_falls_back_to_decimal_past_the_int_str_limit():
    # str(int) up to the interpreter's digit limit, Decimal's exact
    # conversion past it; the limit itself is never touched
    limit = sys.get_int_max_str_digits()
    for q in (0, 7, -7, 10**14 + 3, -(10**4299), 10**4299 + 1):
        assert exact._digit_string(q) == str(q)
    for q in (10**4300, -(10**4300) - 1, 7**6000):
        assert exact._digit_string(q) == str(Decimal(q))
    assert sys.get_int_max_str_digits() == limit


# The renderers as they were before they shared one core, kept as the
# reference the core must match character for character.
def _reference_magnitude_floor(num: int, den: int) -> int:
    return (num.bit_length() - den.bit_length() - 1) * 3010299956 // 10**10


def _reference_round_half_even(q: int, mag: int, digits: int, inexact: bool) -> tuple[int, int]:
    top = 10**digits
    unit = 10
    while q >= top * unit:
        unit *= 10
        mag += 1
    q, rest = divmod(q, unit)
    if 2 * rest > unit or (2 * rest == unit and (inexact or q % 2 == 1)):
        q += 1
    if q == top:
        q //= 10
        mag += 1
    return q, mag


def _reference_place_digits(digit_str: str, mag: int, negative: bool) -> str:
    if mag <= 0:
        body = "0." + "0" * (-mag) + digit_str
    elif mag >= len(digit_str):
        body = digit_str + "0" * (mag - len(digit_str))
    else:
        body = digit_str[:mag] + "." + digit_str[mag:]
    return "-" + body if negative else body


def _reference_sqrt_to_decimal(value: SignedSqrtRational, digits: int) -> str:
    if value.sign == 0:
        return "0"
    num, den = value.radicand.numerator, value.radicand.denominator
    mag = (_reference_magnitude_floor(num, den) + 1) // 2
    e = digits - mag + 1
    big_n, big_d = (num * den * 10 ** (2 * e), den) if e >= 0 else (num * den, den * 10 ** (-e))
    root = math.isqrt(big_n)
    q, r = divmod(root, big_d)
    q, mag = _reference_round_half_even(q, mag, digits, r != 0 or root * root != big_n)
    return _reference_place_digits(exact._digit_string(q), mag, value.sign < 0)


def _reference_rational_to_decimal(value, digits: int) -> str:
    if not isinstance(value, Fraction):
        value = Fraction(value)
    num, den = value.numerator, value.denominator
    if num == 0:
        return "0"
    negative = num < 0
    num = abs(num)
    mag = _reference_magnitude_floor(num, den)
    e = digits - mag + 1
    scaled_num, scaled_den = (num * 10**e, den) if e >= 0 else (num, den * 10 ** (-e))
    q, r = divmod(scaled_num, scaled_den)
    q, mag = _reference_round_half_even(q, mag, digits, r != 0)
    return _reference_place_digits(exact._digit_string(q), mag, negative)


class _FractionSubclass(Fraction):
    pass


def _render_cases(rng: random.Random):
    """(value, digits) pairs: the scale exponent e = digits - mag + 1 on both
    sides of the power table's +-64 edge (+-32 for a root's squared scale),
    digits 1-100 across 10**64, operands past 4300 digits, radicands of
    20,000-40,000 bits below 10**-200 and above 10**200 (so a root's scale
    is positive on one side and negative on the other), near-ties, zero,
    negative values, ints and a Fraction subclass."""
    for _ in range(2000):
        digits = rng.choice((rng.randint(1, 100), rng.randint(60, 68)))
        e = rng.choice((rng.randint(-70, -58), rng.randint(26, 38), rng.randint(58, 70), rng.randint(-300, 300)))
        mag = digits + 1 - e
        size = rng.choice((1, 3, 20, 60, 200))
        num = rng.randrange(1, 10**size)
        den = rng.randrange(1, 10**size)
        # num/den * 10**shift has magnitude about mag
        shift = mag - (len(str(num)) - len(str(den)))
        value = Fraction(num * 10**shift, den) if shift >= 0 else Fraction(num, den * 10**-shift)
        if rng.random() < 0.2:
            # a half-unit tie at `digits` digits, or one unit beside it
            unit = Fraction(10) ** (mag - digits)
            value = (value // unit + Fraction(1, 2)) * unit + rng.choice((0, 0, unit / 10**30, -unit / 10**30))
        yield value, digits
    for _ in range(20):
        num = rng.randrange(10**4300, 10**4400)
        den = rng.randrange(10**4300, 10**4500)
        yield Fraction(num, den), rng.randint(1, 100)
        yield Fraction(num, rng.randrange(1, 10**20)), rng.randint(1, 100)
        yield Fraction(rng.randrange(1, 10**20), den), rng.randint(1, 100)
    for i in range(10):
        bits = rng.randint(10_000, 19_000)
        gap = rng.randint(700, 2_000)
        big = rng.getrandbits(bits + gap) | 1 << (bits + gap - 1)
        small = rng.getrandbits(bits) | 1 << (bits - 1)
        yield (Fraction(big, small) if i % 2 else Fraction(small, big)), rng.randint(1, 100)
    yield Fraction(0), 15


def test_renderers_equal_the_pre_core_renderers():
    rng = random.Random(1802)
    for value, digits in _render_cases(rng):
        for signed in (value, -value):
            assert rational_to_decimal(signed, digits) == _reference_rational_to_decimal(signed, digits), (signed, digits)
        sub = _FractionSubclass(value.numerator, value.denominator)
        assert rational_to_decimal(sub, digits) == _reference_rational_to_decimal(sub, digits)
        if value:
            for sign in (1, -1):
                root = SignedSqrtRational(sign, value)
                assert sqrt_to_decimal(root, digits) == _reference_sqrt_to_decimal(root, digits), (sign, value, digits)
            square = SignedSqrtRational(1, value * value)
            assert sqrt_to_decimal(square, digits) == _reference_sqrt_to_decimal(square, digits)
        assert sqrt_to_decimal(SignedSqrtRational.zero(), digits) == "0"
    for _ in range(500):
        n = rng.choice((rng.randrange(-(10**30), 10**30), rng.randrange(-(10**4400), 10**4400), 10 ** rng.randint(0, 80)))
        digits = rng.randint(1, 100)
        assert rational_to_decimal(n, digits) == _reference_rational_to_decimal(n, digits), (n, digits)
