"""Expected results for benchmark ops, computed without cgexact.

Coefficients come from sympy's `wigner` module; distribution values are
re-derived with `math.comb` and `Fraction`; decimals are rounded by the
standard `decimal` module; the mgf is summed with mpmath. Every function
returns the JSON form that `ops.encode` gives the worker's results, so a
check compares fingerprints, except for the mgf, which is numeric and is
allowed one unit in its last place.
"""

from __future__ import annotations

from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from math import comb

import mpmath

from inputs import DIGITS, MGF_DIGITS, digest

# Working precision beyond the rendered digits for square roots, so the
# final rounding sees the exact tie whenever there is one.
_GUARD = 40


def _q(value: Fraction) -> list:
    return ["q", hex(value.numerator), hex(value.denominator)]


def _s(sign: int, radicand: Fraction) -> list:
    return ["s", sign, hex(radicand.numerator), hex(radicand.denominator)]


def _fixed(value: Decimal, digits: int, negative: bool) -> str:
    """Positional notation with exactly `digits` significant digits."""
    exponent = value.adjusted() - digits + 1
    value = value.quantize(Decimal(1).scaleb(exponent), context=Context(prec=digits + 2))
    return ("-" if negative else "") + format(value, "f")


def rational_decimal(value: Fraction, digits: int = DIGITS) -> str:
    if value == 0:
        return "0"
    ctx = Context(prec=digits, rounding=ROUND_HALF_EVEN)
    quotient = ctx.divide(Decimal(abs(value.numerator)), Decimal(value.denominator))
    return _fixed(quotient, digits, value < 0)


def sqrt_decimal(sign: int, radicand: Fraction, digits: int = DIGITS) -> str:
    if sign == 0:
        return "0"
    wide = Context(prec=digits + _GUARD, rounding=ROUND_HALF_EVEN)
    root = wide.sqrt(wide.divide(Decimal(radicand.numerator), Decimal(radicand.denominator)))
    rounded = Context(prec=digits, rounding=ROUND_HALF_EVEN).plus(root)
    return _fixed(rounded, digits, sign < 0)


def _signed_square(value) -> tuple[int, Fraction]:
    """(sign, value**2) of a sympy number of the form rational*sqrt(rational)."""
    square = value**2
    sign = 0 if value.is_zero else (1 if value.is_positive else -1)
    return sign, Fraction(int(square.p), int(square.q))


def cg(ta, tal, tb, tbe, tc, tg, ladder) -> list:
    from sympy import Rational
    from sympy.physics.wigner import clebsch_gordan, wigner_3j

    a, b, c = Rational(ta, 2), Rational(tb, 2), Rational(tc, 2)
    alpha, beta, gamma = Rational(tal, 2), Rational(tbe, 2), Rational(tg, 2)
    cg_sign, cg_sq = _signed_square(clebsch_gordan(a, b, c, alpha, beta, gamma))
    jm_sign, jm_sq = _signed_square(wigner_3j(a, b, c, alpha, beta, -gamma))
    backends = 3 if ladder else 2
    return [
        [_s(cg_sign, cg_sq)] * backends,
        True,
        _s(jm_sign, jm_sq),
        sqrt_decimal(cg_sign, cg_sq),
        sqrt_decimal(jm_sign, jm_sq),
    ]


def _hypergeom_pmf(n1: int, n2: int, n3: int) -> dict[int, Fraction]:
    total = comb(n3, n2)
    support = range(max(0, n1 + n2 - n3), min(n1, n2) + 1)
    return {x: Fraction(comb(n1, x) * comb(n3 - n1, n2 - x), total) for x in support}


def _binomial_pmf(trials: int, p: Fraction) -> list[Fraction]:
    return [comb(trials, k) * p**k * (1 - p) ** (trials - k) for k in range(trials + 1)]


def _values(values: list[Fraction]) -> list:
    return [[_q(v) for v in values], [rational_decimal(v) for v in values]]


def pmf_table(n1, n2, n3) -> list:
    return _values(list(_hypergeom_pmf(n1, n2, n3).values()))


def pmf_point(n1, n2, n3, x) -> list:
    return _values([Fraction(comb(n1, x) * comb(n3 - n1, n2 - x), comb(n3, n2))])


def pgf(n1, n2, n3, t_num, t_den) -> list:
    t = Fraction(t_num, t_den)
    return _values([sum(q * t**x for x, q in _hypergeom_pmf(n1, n2, n3).items())])


def moments(n1, n2, n3) -> list:
    pmf = _hypergeom_pmf(n1, n2, n3).items()
    mean = sum(x * q for x, q in pmf)
    variance = sum(x * x * q for x, q in pmf) - mean * mean
    return _values([mean, variance])


def convolve(t1, t2, p_num, p_den) -> list:
    return _values(_binomial_pmf(t1 + t2, Fraction(p_num, p_den)))


def conditional(l1, k1, l2, k2, p_num, p_den) -> list:
    return _values([Fraction(comb(l1, k1) * comb(l2, k2), comb(l1 + l2, k1 + k2))])


def limit(p_num, p_den, n2, n3_sequence) -> list:
    p = Fraction(p_num, p_den)
    binom = _binomial_pmf(n2, p)
    distances = []
    for n3 in n3_sequence:
        hyper = _hypergeom_pmf(p_num * n3 // p_den, n2, n3)
        distances.append(sum(abs(hyper.get(x, 0) - binom[x]) for x in range(n2 + 1)) / 2)
    return [list(n3_sequence), *_values(distances)]


def mgf(n1, n2, n3, t) -> mpmath.mpf:
    with mpmath.workdps(MGF_DIGITS + _GUARD):
        t = mpmath.mpf(t)
        total = mpmath.mpf(0)
        for x, q in _hypergeom_pmf(n1, n2, n3).items():
            total += mpmath.mpf(q.numerator) / q.denominator * mpmath.exp(t * x)
        return total


EXPECTED = {
    "cg": cg,
    "pmf_table": pmf_table,
    "pmf_point": pmf_point,
    "pgf": pgf,
    "mgf": mgf,
    "moments": moments,
    "convolve": convolve,
    "conditional": conditional,
    "limit": limit,
}


def expected(op: list):
    return EXPECTED[op[0]](*op[1:])


def matches(op: list, want, got: str) -> bool:
    """Whether a worker result agrees with the oracle value: the result's
    fingerprint, or for the mgf its decimal string."""
    if op[0] != "mgf":
        return got == digest(want)
    with mpmath.workdps(MGF_DIGITS + _GUARD):
        ulp = mpmath.mpf(10) ** (mpmath.floor(mpmath.log10(abs(want))) - MGF_DIGITS + 1)
        return abs(mpmath.mpf(got) - want) <= ulp
