"""Exact arithmetic kernels.

Cached factorials, binomials with the out-of-support-zero convention, the
signed-square-root value type, and decimal rendering that never touches
machine floating point. Binomials come from math.comb below a measured
crossover and from Legendre prime exponents above it, where math.comb's
big-integer divisions dominate; past a crossover of its own, measured
here too, the same exponents give a quotient of three binomials directly
in lowest terms.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import compress

__all__ = [
    "SignedSqrtRational",
    "binomial",
    "factorial",
    "rational_to_decimal",
    "sqrt_to_decimal",
]

# Factorials of the same small arguments recur across every coefficient
# evaluation, so they live in a shared table that grows on demand. Entry i
# is i! whoever wrote it, so growth needs no lock: new entries go in with
# one slice assignment that never shrinks the table. The table stops at
# _FACT_MAX_CACHED! (about 0.6 MB in all); larger arguments go to
# math.factorial, so one huge request cannot pin memory.
_FACT = [1]
_FACT_MAX_CACHED = 1024


def factorial(n: int) -> int:
    """n! as an exact integer; values up to _FACT_MAX_CACHED are cached."""
    if n < 0:
        raise ValueError(f"factorial of negative argument {n}")
    if n >= len(_FACT):
        if n > _FACT_MAX_CACHED:
            return math.factorial(n)
        start = len(_FACT)
        acc = _FACT[start - 1]
        grown = []
        for i in range(start, n + 1):
            acc *= i
            grown.append(acc)
        _FACT[start : n + 1] = grown
    return _FACT[n]


# Primes for binomial rows up to _PRIMES_MAX_CACHED are sieved once, on the
# first row that needs them: 6542 primes, about 0.25 MB. A longer row sieves
# its own primes and drops them after the call, so no input grows the table
# past that cap. Sieving per call beats falling back to math.comb there: the
# sieve is linear in n, and math.comb on long central rows grows far faster.
_PRIMES: list[int] = []
_PRIMES_MAX_CACHED = 1 << 16

# Measured crossovers: the prime path is the faster once min(k, n - k)
# reaches _PRIME_MIN_K + n // 64 on cached rows and _PRIME_MIN_K_SIEVED +
# n // 64 on rows that sieve per call; the n term is the per-prime work.
# Rows shorter than _PRIME_MIN_ROW never reach it, so small calls pay one
# comparison for it.
_PRIME_MIN_K = 320
_PRIME_MIN_K_SIEVED = 2048
_PRIME_MIN_ROW = 2 * _PRIME_MIN_K

# Measured crossover of a three-binomial quotient from prime exponents
# against the literal quotient, on rows up to 2**16: from min(k, l - k) =
# _QUOTIENT_PRIME_MIN_K + l // 32 on, for the bottom binomial C(l, k). The
# quotient does the prime work of three binomials, so it starts later than
# `binomial`'s own rule. Measured as hypergeometric pmf points (l = n3,
# k = n2), fresh law per point, the two alternating, best of 11-21 per law
# (2 cores, Python 3.11). On the shapes of single-point requests (n1 =
# 0.4-0.6 n3, n2 = 0.2-0.3 n3, x near the mode, 20 laws per n3, two sweeps)
# prime/literal read 1.54 at n3 = 1000, 1.13-1.15 at 1200-1400, 1.00-1.05 at
# 1800, 0.91-0.96 at 2000, 0.89-0.91 at 2200 (prime faster on 17 and 18 of
# 20), 0.85-0.86 at 3200 and 0.74 at 6000. Across n2 (n1 = 0.4-0.6 n3, 8 laws
# each) it broke even near n2 = 490 at n3 = 2000, 550 at 3000, 700 at 5000
# and 850 at 10000, and between n2 = 788 (1.43) and 1576 (0.86-0.92) at
# 30000; at `binomial`'s own rule it read 1.18-1.59 on every n3 from 2200 to
# 60000. Rows above 2**16 sieve their primes per call in both routes, and
# there `binomial`'s rule holds: 0.79 at its threshold at n3 = 70000, 0.73
# at 120000 and 0.65 at 200000.
_QUOTIENT_PRIME_MIN_K = 512


def binomial(n: int, k: int) -> int:
    """C(n, k), defined as 0 whenever k lies outside [0, n].

    The zero convention keeps summation bounds implicit: "all k in support"
    needs no explicit clipping by the caller.
    """
    if n < 0:
        raise ValueError(f"binomial with negative row {n}")
    if k < 0 or k > n:
        return 0
    if n < _PRIME_MIN_ROW:
        return math.comb(n, k)
    k = min(k, n - k)
    primes = _prime_path(n, k)
    if primes is None:
        return math.comb(n, k)
    return _binomial_from_primes(n, k, primes)


def _prime_path(n: int, k: int) -> list[int] | None:
    """Every prime <= n, in increasing order, when C(n, k) for 0 <= k <= n - k
    is faster from prime exponents; None when math.comb is faster."""
    if n <= _PRIMES_MAX_CACHED:
        if k < _PRIME_MIN_K + (n >> 6):
            return None
        if not _PRIMES:
            _PRIMES[:] = _primes_upto(_PRIMES_MAX_CACHED)
        return _PRIMES
    if k < _PRIME_MIN_K_SIEVED + (n >> 6):
        return None
    return _primes_upto(n)


def _primes_upto(n: int) -> list[int]:
    """The primes <= n (n >= 2) in increasing order, from an odd-only sieve."""
    half = (n + 1) // 2  # entry i stands for 2i + 1
    sieve = bytearray([1]) * half
    sieve[0] = 0
    for i in range(1, (math.isqrt(n) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1
            start = p * p // 2
            sieve[start::p] = bytes(len(range(start, half, p)))
    return [2, *compress(range(1, n + 1, 2), sieve)]


def _binomial_from_primes(n: int, k: int, primes: list[int]) -> int:
    """C(n, k) for 0 <= k <= n - k as the product of its prime powers;
    `primes` holds every prime <= n in increasing order.

    Legendre's formula gives the exponent of p as the sum over i of
    n // p**i - k // p**i - (n - k) // p**i (Goetgheluck, Amer. Math. Monthly
    94 (1987) 360). Above sqrt(n) only i = 1 is left: see `_carry_ranges`.
    No big integer is divided, and every factor p**e is at most n.
    """
    m = n - k
    small = bisect_right(primes, math.isqrt(n))
    factors = []
    for p in primes[:small]:
        e = 0
        q = p
        while q <= n:
            e += n // q - k // q - m // q
            q *= p
        if e:
            factors.append(p**e)
    half, lo, hi = _carry_ranges(n, k, primes, small, len(primes))
    factors += [p for p in primes[small:half] if n % p < k % p]
    factors += primes[lo:hi]
    return _product(factors, 0, len(factors))


def _carry_ranges(n: int, k: int, primes: list[int], start: int, stop: int) -> tuple[int, int, int]:
    """Indices half <= lo <= hi of the primes in primes[start:stop] that
    divide C(n, k), for 0 <= k <= n - k and primes[start] > sqrt(n).

    Such a prime p divides C(n, k) at most once, exactly when n % p < k % p:
    the carry out of k + (n - k) in base p (Kummer). The ones in
    primes[start:half], up to n/2, need that test; every one in
    primes[lo:hi], in (n - k, n], divides it; no other one does. The ranges
    start at `start` even where n - k lies below primes[start], so a caller
    that took the Legendre sums of the primes before it counts none twice.
    """
    return (
        bisect_right(primes, n >> 1, start, stop),
        bisect_right(primes, n - k, start, stop),
        bisect_right(primes, n, start, stop),
    )


def _binomial_quotient_from_primes(l1: int, k1: int, l2: int, k2: int) -> Fraction | None:
    """C(l1, k1) C(l2, k2) / C(l1 + l2, k1 + k2) in lowest terms, for
    0 <= k1 <= l1 and 0 <= k2 <= l2, when it is faster from prime exponents;
    None when the literal quotient is faster. For j = min(k, l - k) of the
    bottom binomial C(l, k), that is from j = _QUOTIENT_PRIME_MIN_K + l // 32
    on rows up to 2**16, and where C(l, k) itself takes its prime path
    (`_prime_path`) on longer rows.

    Each prime's exponent is summed over the three binomials as in
    `_binomial_from_primes`: the Legendre sums up to sqrt(l1 + l2), which
    bounds every row, and the `_carry_ranges` of each binomial above it.
    Positive totals go to the numerator and negative ones to the
    denominator. The two share no prime, so the quotient is built in lowest
    terms without any big-integer gcd or division; Johansson and Forssen
    (SIAM J. Sci. Comput. 38 (2016) A376) keep factorial quotients as prime
    exponents for the same reason.
    """
    l, k = l1 + l2, k1 + k2
    m1, m2, m = l1 - k1, l2 - k2, l - k
    j = min(k, m)
    if l <= _PRIMES_MAX_CACHED and j < _QUOTIENT_PRIME_MIN_K + (l >> 5):
        return None
    primes = _prime_path(l, j)
    if primes is None:
        return None
    small = bisect_right(primes, math.isqrt(l))
    num, den = [], []
    for p in primes[:small]:
        e = 0
        q = p
        while q <= l:
            e += l1 // q - k1 // q - m1 // q + l2 // q - k2 // q - m2 // q - l // q + k // q + m // q
            q *= p
        if e > 0:
            num.append(p**e)
        elif e < 0:
            den.append(p**-e)
    # above sqrt(l) each binomial holds a prime at most once, so the total
    # is a + b - c for the three carry flags, combined bytewise as integers:
    # 1 on (a ^ b) & ~c; 2 - c on a & b, so once there and once more on
    # a & b & ~c; -1 on c & ~(a | b)
    stop = bisect_right(primes, l)
    big = primes[small:stop]
    flags = []
    for n, j in ((l1, k1), (l2, k2), (l, k)):
        j = min(j, n - j)
        half, lo, hi = _carry_ranges(n, j, primes, small, stop)
        carried = bytearray(len(big))
        carried[: half - small] = [n % p < j % p for p in primes[small:half]]
        carried[lo - small : hi - small] = b"\x01" * (hi - lo)
        flags.append(int.from_bytes(carried, "little"))
    a, b, c = flags
    for mask in ((a ^ b) & ~c, a & b, a & b & ~c):
        num += compress(big, mask.to_bytes(len(big), "little"))
    den += compress(big, (c & ~(a | b)).to_bytes(len(big), "little"))
    return _reduced(_product(num, 0, len(num)), _product(den, 0, len(den)))


def _product(xs: list[int], lo: int, hi: int) -> int:
    """xs[lo] * ... * xs[hi - 1], halved recursively so that the big
    multiplications meet operands of equal size."""
    if hi - lo <= 16:
        return math.prod(xs[lo:hi])
    mid = (lo + hi) // 2
    return _product(xs, lo, mid) * _product(xs, mid, hi)


def _reduced(num: int, den: int) -> Fraction:
    """Fraction(num, den) without its gcd, for a caller that already holds
    num and den > 0 coprime; the slots are the ones Fraction's own
    constructor sets, so ==, hash, repr and pickling are those of
    Fraction(num, den)."""
    value = object.__new__(Fraction)
    value._numerator = num
    value._denominator = den
    return value


def _fraction(num: int, den: int) -> Fraction:
    """Fraction(num, den) for ints, reduced here by one gcd: a negative den
    moves its sign to num, and den = 0 raises ZeroDivisionError as Fraction
    does (with a message that does not print num, which may be past the
    int-to-str digit limit). Fraction's constructor would take the same gcd
    behind its type dispatch."""
    if den <= 0:
        if not den:
            raise ZeroDivisionError("Fraction with denominator 0")
        num, den = -num, -den
    g = math.gcd(num, den)
    if g != 1:
        num //= g
        den //= g
    return _reduced(num, den)


def _product_parts(an: int, ad: int, bn: int, bd: int) -> tuple[int, int]:
    """Numerator and denominator of (an/ad)(bn/bd) in lowest terms, for two
    fractions in lowest terms with ad, bd > 0.

    No prime of an divides ad and none of bn divides bd, so gcd(an, bd) and
    gcd(bn, ad) take out every common factor of the product: Fraction's own
    product rule (CPython 3.12 on), two gcds of the factors in place of one
    gcd of the products.
    """
    g = math.gcd(an, bd)
    if g != 1:
        an //= g
        bd //= g
    g = math.gcd(bn, ad)
    if g != 1:
        bn //= g
        ad //= g
    return an * bn, ad * bd


def _rational(x: Fraction | int) -> Fraction | int:
    """x as a Fraction, or x itself when it is already an int or a Fraction:
    Fraction(x) on a Fraction goes through the numbers.Rational ABC check."""
    return x if type(x) is Fraction or type(x) is int else Fraction(x)


@dataclass(frozen=True)
class SignedSqrtRational:
    """Exact value sign * sqrt(radicand) with a nonnegative rational radicand.

    Radicands stay reduced (Fraction guarantees that) but are not made
    square-free, so equality is plain equality of (sign, radicand). The type
    is closed under products, rational scaling and sqrt-scaling, which is all
    the coefficient algebra needs.
    """

    sign: int
    radicand: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "radicand", Fraction(self.radicand))
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign}")
        if self.radicand < 0:
            raise ValueError(f"radicand must be nonnegative, got {self.radicand}")
        if (self.sign == 0) != (self.radicand == 0):
            raise ValueError("sign is 0 exactly when the radicand is 0")

    @classmethod
    def zero(cls) -> "SignedSqrtRational":
        """The shared zero value; instances are immutable."""
        return _ZERO

    @classmethod
    def from_scaled_sqrt(cls, coeff: Fraction | int, radicand: Fraction | int) -> "SignedSqrtRational":
        """The value coeff * sqrt(radicand), radicand >= 0."""
        coeff = _rational(coeff)
        radicand = _rational(radicand)
        c_num, r_num = coeff.numerator, radicand.numerator
        if r_num < 0:
            raise ValueError(f"radicand must be nonnegative, got {radicand}")
        if c_num == 0 or r_num == 0:
            return _ZERO
        c_den = coeff.denominator
        # c_num**2 / c_den**2 is in lowest terms as c_num / c_den is
        num, den = _product_parts(c_num * c_num, c_den * c_den, r_num, radicand.denominator)
        return _trusted(1 if c_num > 0 else -1, _reduced(num, den))

    @property
    def is_zero(self) -> bool:
        return self.sign == 0

    def __mul__(self, other: "SignedSqrtRational") -> "SignedSqrtRational":
        if not isinstance(other, SignedSqrtRational):
            return NotImplemented
        sign = self.sign * other.sign
        if sign == 0:
            return _ZERO
        a, b = self.radicand, other.radicand
        num, den = _product_parts(a._numerator, a._denominator, b._numerator, b._denominator)
        return _trusted(sign, _reduced(num, den))

    def __neg__(self) -> "SignedSqrtRational":
        if self.sign == 0:
            return _ZERO
        return _trusted(-self.sign, self.radicand)

    def scale_sqrt(self, factor: Fraction | int) -> "SignedSqrtRational":
        """Multiply by sqrt(factor), factor >= 0."""
        factor = _rational(factor)
        if factor.numerator < 0:
            raise ValueError(f"sqrt scale factor must be nonnegative, got {factor}")
        if factor.numerator == 0 or self.sign == 0:
            return _ZERO
        radicand = self.radicand
        num, den = _product_parts(
            radicand._numerator, radicand._denominator, factor.numerator, factor.denominator
        )
        return _trusted(self.sign, _reduced(num, den))

    def __str__(self) -> str:
        if self.sign == 0:
            return "0"
        prefix = "-" if self.sign < 0 else "+"
        return f"{prefix}sqrt({self.radicand})"


def _trusted(sign: int, radicand: Fraction) -> SignedSqrtRational:
    """SignedSqrtRational(sign, radicand) without __post_init__, for a caller
    that already holds what it checks: sign is +1 or -1 and radicand is a
    positive Fraction (hence in lowest terms)."""
    value = object.__new__(SignedSqrtRational)
    object.__setattr__(value, "sign", sign)
    object.__setattr__(value, "radicand", radicand)
    return value


_ZERO = SignedSqrtRational(0, Fraction(0))


def _digit_string(q: int) -> str:
    """str(q), a leading "-" included for negative q. Past the interpreter's
    int-to-str digit limit (4300 by default) str(int) raises ValueError;
    Decimal's exact conversion has no such cap and leaves the
    interpreter-wide limit alone, but costs twice as much on short values."""
    try:
        return str(q)
    except ValueError:
        return str(Decimal(q))


# 10**i for i < 64, built at import: nearly every rendering takes its scale
# and its rounding bound from here rather than raising 10 to a power per value
_POW10 = tuple(10**i for i in range(64))


def _render(num: int, den: int, digits: int, negative: bool, root: bool) -> str:
    """x = num/den (num, den > 0), or sqrt(num/den) when `root` is set, to
    `digits` significant digits, half-even, with a leading "-" if `negative`.

    One divmod (or one isqrt and a divmod) gives q = floor(x 10**e), where e
    comes from a lower bound on x's magnitude that is at most two low, so q
    carries one to three digits past `digits`. Only q, of about `digits`
    digits, is then rounded. For a root, a tie is a tie only when the root
    is exact and divides, so ties are resolved correctly even for perfect
    squares.
    """
    # 2**(b-1) < num/den < 2**(b+1) for b the bit-length difference, and the
    # constant is log10(2) rounded down to 10 digits, so mag is at most 2
    # below the magnitude (10**(mag-1) <= num/den < 10**mag) until |b| passes
    # a billion bits. Bit lengths have no digit limit.
    mag = (num.bit_length() - den.bit_length() - 1) * 3010299956 // 10**10
    if root:
        # sqrt(v) has magnitude (M + 1) // 2 when v has magnitude M; the
        # scale goes inside the root squared, or divides outside it
        mag = (mag + 1) // 2
        e = digits - mag + 1
        big = num * den
        if e >= 0:
            big *= _POW10[2 * e] if e < 32 else 10 ** (2 * e)
        else:
            den *= _POW10[-e] if e > -64 else 10**-e
        num = math.isqrt(big)
        q, r = divmod(num, den)
        inexact = r != 0 or num * num != big
    else:
        e = digits - mag + 1
        if e >= 0:
            num *= _POW10[e] if e < 64 else 10**e
        else:
            den *= _POW10[-e] if e > -64 else 10**-e
        q, r = divmod(num, den)
        inexact = r != 0
    # half-even over the one to three guard digits
    top = _POW10[digits] if digits < 64 else 10**digits
    unit = 10
    while q >= top * unit:
        unit *= 10
        mag += 1
    q, rest = divmod(q, unit)
    if 2 * rest > unit or (2 * rest == unit and (inexact or q & 1)):
        q += 1
    if q == top:
        q //= 10
        mag += 1
    digit_str = _digit_string(q)
    if mag <= 0:
        body = "0." + "0" * -mag + digit_str
    elif mag >= len(digit_str):
        body = digit_str + "0" * (mag - len(digit_str))
    else:
        body = digit_str[:mag] + "." + digit_str[mag:]
    return "-" + body if negative else body


def sqrt_to_decimal(value: SignedSqrtRational, digits: int) -> str:
    """Decimal expansion of sign * sqrt(radicand) to `digits` significant
    digits, half-even; bit-exact on every platform (see `_render`)."""
    if digits < 1:
        raise ValueError(f"digits must be positive, got {digits}")
    sign = value.sign
    if sign == 0:
        return "0"
    radicand = value.radicand
    return _render(radicand._numerator, radicand._denominator, digits, sign < 0, True)


def rational_to_decimal(value: Fraction | int, digits: int) -> str:
    """Decimal expansion of a rational to `digits` significant digits, half-even."""
    if digits < 1:
        raise ValueError(f"digits must be positive, got {digits}")
    if not isinstance(value, Fraction):
        value = Fraction(value)
    num = value._numerator
    if num == 0:
        return "0"
    return _render(abs(num), value._denominator, digits, num < 0, False)
