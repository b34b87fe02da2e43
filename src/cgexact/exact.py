"""Exact arithmetic kernels.

Cached factorials, binomials with the out-of-support-zero convention, rising
factorials over rationals, the signed-square-root value type, and decimal
rendering that never touches machine floating point.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "SignedSqrtRational",
    "binomial",
    "factorial",
    "pochhammer",
    "rational_to_decimal",
    "sqrt_to_decimal",
]

# Factorials of the same small arguments recur across every coefficient
# evaluation, so they live in a shared append-only table. Readers index a
# stable prefix without locking; growth is single-writer under the lock.
# The table stops at _FACT_MAX_CACHED! (about 0.6 MB in all); larger
# arguments go to math.factorial, so one huge request cannot pin memory.
_FACT_LOCK = threading.Lock()
_FACT = [1]
_FACT_MAX_CACHED = 1024

# Above this row size the multiplicative stdlib routine wins and the table
# would grow into huge-integer territory for no benefit.
_BINOMIAL_CACHE_LIMIT = 512


def factorial(n: int) -> int:
    """n! as an exact integer; values up to _FACT_MAX_CACHED are cached."""
    if n < 0:
        raise ValueError(f"factorial of negative argument {n}")
    if n >= len(_FACT):
        if n > _FACT_MAX_CACHED:
            return math.factorial(n)
        with _FACT_LOCK:
            acc = _FACT[-1]
            for i in range(len(_FACT), n + 1):
                acc *= i
                _FACT.append(acc)
    return _FACT[n]


def binomial(n: int, k: int) -> int:
    """C(n, k), defined as 0 whenever k lies outside [0, n].

    The zero convention keeps summation bounds implicit: "all k in support"
    needs no explicit clipping by the caller.
    """
    if n < 0:
        raise ValueError(f"binomial with negative row {n}")
    if k < 0 or k > n:
        return 0
    if n <= _BINOMIAL_CACHE_LIMIT:
        return factorial(n) // (factorial(k) * factorial(n - k))
    return math.comb(n, k)


def pochhammer(a: Fraction | int, k: int) -> Fraction:
    """Rising factorial a(a+1)...(a+k-1); the empty product (k = 0) is 1."""
    if k < 0:
        raise ValueError(f"pochhammer with negative length {k}")
    acc = Fraction(1)
    a = Fraction(a)
    for i in range(k):
        acc *= a + i
    return acc


def _sign_of(q: Fraction) -> int:
    return (q > 0) - (q < 0)


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
        return cls(0, Fraction(0))

    @classmethod
    def from_rational(cls, value: Fraction | int) -> "SignedSqrtRational":
        """Embed a plain rational: sign(value) * sqrt(value**2)."""
        value = Fraction(value)
        return cls(_sign_of(value), value * value)

    @classmethod
    def from_scaled_sqrt(cls, coeff: Fraction | int, radicand: Fraction | int) -> "SignedSqrtRational":
        """The value coeff * sqrt(radicand), radicand >= 0."""
        coeff = Fraction(coeff)
        radicand = Fraction(radicand)
        if radicand < 0:
            raise ValueError(f"radicand must be nonnegative, got {radicand}")
        if coeff == 0 or radicand == 0:
            return cls.zero()
        return cls(_sign_of(coeff), coeff * coeff * radicand)

    @property
    def is_zero(self) -> bool:
        return self.sign == 0

    def __mul__(self, other: "SignedSqrtRational") -> "SignedSqrtRational":
        if not isinstance(other, SignedSqrtRational):
            return NotImplemented
        sign = self.sign * other.sign
        if sign == 0:
            return SignedSqrtRational.zero()
        return SignedSqrtRational(sign, self.radicand * other.radicand)

    def __neg__(self) -> "SignedSqrtRational":
        return SignedSqrtRational(-self.sign, self.radicand)

    def scale(self, coeff: Fraction | int) -> "SignedSqrtRational":
        """Multiply by a plain rational."""
        coeff = Fraction(coeff)
        if coeff == 0 or self.sign == 0:
            return SignedSqrtRational.zero()
        return SignedSqrtRational(self.sign * _sign_of(coeff), self.radicand * coeff * coeff)

    def scale_sqrt(self, factor: Fraction | int) -> "SignedSqrtRational":
        """Multiply by sqrt(factor), factor >= 0."""
        factor = Fraction(factor)
        if factor < 0:
            raise ValueError(f"sqrt scale factor must be nonnegative, got {factor}")
        if factor == 0 or self.sign == 0:
            return SignedSqrtRational.zero()
        return SignedSqrtRational(self.sign, self.radicand * factor)

    def __str__(self) -> str:
        if self.sign == 0:
            return "0"
        prefix = "-" if self.sign < 0 else "+"
        return f"{prefix}sqrt({self.radicand})"


def _pow10(e: int) -> int:
    return 10**e


def _lt_pow10(num: int, den: int, e: int) -> bool:
    """num/den < 10**e for positive integers num, den."""
    if e >= 0:
        return num < den * _pow10(e)
    return num * _pow10(-e) < den


def _pow10_le(e: int, num: int, den: int) -> bool:
    """10**e <= num/den for positive integers num, den."""
    if e >= 0:
        return den * _pow10(e) <= num
    return den <= num * _pow10(-e)


def _magnitude(num: int, den: int) -> int:
    """The unique mag with 10**(mag-1) <= num/den < 10**mag (num, den > 0)."""
    # 2**(b-1) < num/den < 2**(b+1) with b the bit-length difference, and
    # 30103/100000 is log10(2) to 5 digits, so below ten million digits the
    # estimate is off by at most one and the loops below make it exact. Bit
    # lengths, unlike str(), have no digit limit.
    mag = (num.bit_length() - den.bit_length()) * 30103 // 100000 + 1
    while not _lt_pow10(num, den, mag):
        mag += 1
    while not _pow10_le(mag - 1, num, den):
        mag -= 1
    return mag


def _sqrt_magnitude(num: int, den: int) -> int:
    """The unique mag with 10**(mag-1) <= sqrt(num/den) < 10**mag."""
    mag = (_magnitude(num, den) + 1) // 2
    while not _lt_pow10(num, den, 2 * mag):
        mag += 1
    while not _pow10_le(2 * (mag - 1), num, den):
        mag -= 1
    return mag


def _place_digits(digit_str: str, mag: int, negative: bool) -> str:
    if mag <= 0:
        body = "0." + "0" * (-mag) + digit_str
    elif mag >= len(digit_str):
        body = digit_str + "0" * (mag - len(digit_str))
    else:
        body = digit_str[:mag] + "." + digit_str[mag:]
    return "-" + body if negative else body


def sqrt_to_decimal(value: SignedSqrtRational, digits: int) -> str:
    """Decimal expansion of sign * sqrt(radicand) to `digits` significant digits.

    Computed via an integer square root of a scaled numerator; the half-even
    rounding decision compares 4*N against (2q+1)^2*D^2 exactly, so ties are
    resolved correctly even for perfect squares and the output is bit-exact
    on every platform.
    """
    if digits < 1:
        raise ValueError(f"digits must be positive, got {digits}")
    if value.sign == 0:
        return "0"
    num, den = value.radicand.numerator, value.radicand.denominator
    mag = _sqrt_magnitude(num, den)
    e = digits - mag
    if e >= 0:
        big_n = num * den * _pow10(2 * e)
        big_d = den
    else:
        big_n = num * den
        big_d = den * _pow10(-e)
    q = math.isqrt(big_n) // big_d
    # round half-even: sqrt(big_n)/big_d vs q + 1/2, squared
    lhs = 4 * big_n
    rhs = (2 * q + 1) ** 2 * big_d * big_d
    if lhs > rhs or (lhs == rhs and q % 2 == 1):
        q += 1
    if q == _pow10(digits):
        q //= 10
        mag += 1
    return _place_digits(str(q), mag, value.sign < 0)


def rational_to_decimal(value: Fraction | int, digits: int) -> str:
    """Decimal expansion of a rational to `digits` significant digits, half-even."""
    if digits < 1:
        raise ValueError(f"digits must be positive, got {digits}")
    value = Fraction(value)
    if value == 0:
        return "0"
    num, den = abs(value.numerator), value.denominator
    mag = _magnitude(num, den)
    e = digits - mag
    if e >= 0:
        scaled_num, scaled_den = num * _pow10(e), den
    else:
        scaled_num, scaled_den = num, den * _pow10(-e)
    q, r = divmod(scaled_num, scaled_den)
    if 2 * r > scaled_den or (2 * r == scaled_den and q % 2 == 1):
        q += 1
    if q == _pow10(digits):
        q //= 10
        mag += 1
    return _place_digits(str(q), mag, value < 0)
