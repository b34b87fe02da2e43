"""Terminating generalized hypergeometric series over exact rationals.

3F2 at unit argument and 2F1 at arbitrary rational argument. A series is
admissible only when some upper parameter is a nonpositive integer (so the
sum is finite) and no lower-parameter Pochhammer vanishes before that cutoff.

Both evaluators, the regularized 3F2 sum of `angular.cg_3f2` and the 2F1
generating function of `prob.hypergeom_pgf` run on one kernel,
`_terminating_sum`: Horner form on a plain integer numerator and
denominator, reduced once into a single `Fraction` at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import _fraction

__all__ = [
    "NonTerminatingError",
    "PoleBeforeTerminationError",
    "SeriesParams2F1",
    "SeriesParams3F2",
    "eval_2f1",
    "eval_3f2_unit",
]


class NonTerminatingError(ValueError):
    """No upper parameter is a nonpositive integer, so the series is infinite."""


class PoleBeforeTerminationError(ZeroDivisionError):
    """A lower-parameter Pochhammer vanishes at or before the last term."""


def _as_fractions(values) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


@dataclass(frozen=True)
class SeriesParams3F2:
    """Parameters of 3F2[upper; lower] at unit argument."""

    upper: tuple[Fraction, Fraction, Fraction]
    lower: tuple[Fraction, Fraction]

    def __post_init__(self) -> None:
        object.__setattr__(self, "upper", _as_fractions(self.upper))
        object.__setattr__(self, "lower", _as_fractions(self.lower))
        if len(self.upper) != 3 or len(self.lower) != 2:
            raise ValueError("3F2 takes three upper and two lower parameters")


@dataclass(frozen=True)
class SeriesParams2F1:
    """Parameters of 2F1[upper; lower] at a rational argument."""

    upper: tuple[Fraction, Fraction]
    lower: Fraction
    argument: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "upper", _as_fractions(self.upper))
        object.__setattr__(self, "lower", Fraction(self.lower))
        object.__setattr__(self, "argument", Fraction(self.argument))
        if len(self.upper) != 2:
            raise ValueError("2F1 takes two upper parameters")


def _termination_index(upper: tuple[Fraction, ...]) -> int:
    """Index of the last nonzero term, from the least-magnitude nonpositive
    integer upper parameter."""
    cutoffs = [-int(a) for a in upper if a <= 0 and a.denominator == 1]
    if not cutoffs:
        raise NonTerminatingError(f"no nonpositive-integer upper parameter in {upper}")
    return min(cutoffs)


def _check_poles(lower: tuple[Fraction, ...], cutoff: int) -> None:
    for b in lower:
        if b.denominator == 1 and -cutoff < b <= 0:
            raise PoleBeforeTerminationError(
                f"lower parameter {b} vanishes at term {1 - int(b)}, "
                f"before the series terminates at {cutoff}"
            )


def _terminating_sum(
    upper, lower, argument, start: int, cutoff: int, first_num: int, first_den: int
) -> Fraction:
    """Sum of t_k over start <= k <= cutoff, with t_start = first_num/first_den
    and t_k / t_(k-1) = argument * prod(a + k - 1) / (k * prod(b + k - 1)).

    Parameters and argument are ints or Fractions; a lower factor b + k - 1
    must not vanish for start < k <= cutoff, and start <= cutoff. With the
    argument written zn/zd and each parameter p/q, the ratio at k is
    N(k)/D(k) for the integers

        N(k) = zn * prod_b qb * prod_a (pa + qa (k-1))
        D(k) = zd * prod_a qa * k * prod_b (pb + qb (k-1)),

    so the sum is t_start * (1 + r(start+1) (1 + r(start+2) (... (1 + r(cutoff))))),
    r = N/D, accumulated on integers from the innermost bracket out.

    The integers keep their signs, so the final denominator is negative
    whenever an odd number of its factors are (a negative lower factor
    b + k - 1 for general lower parameters, or a negative first_den); the
    reduction moves that sign to the numerator, as Fraction(num, den) does,
    and the value's denominator is positive.
    """
    scale_num, scale_den = argument.numerator, argument.denominator
    ups = []
    for a in upper:
        scale_den *= a.denominator
        ups.append((a.numerator, a.denominator))
    lows = []
    for b in lower:
        scale_num *= b.denominator
        lows.append((b.numerator, b.denominator))
    num = den = 1
    for k in range(cutoff, start, -1):
        m = k - 1
        n = scale_num
        for p, q in ups:
            n *= p + q * m
        d = scale_den * k
        for p, q in lows:
            d *= p + q * m
        den *= d
        num = den + n * num
    return _fraction(first_num * num, first_den * den)


def eval_3f2_unit(params: SeriesParams3F2) -> Fraction:
    """Exact sum of the terminating 3F2 series at unit argument.

    Sums on integers from the last term back to the first (see
    `_terminating_sum`), so the cost is O(cutoff) small-by-big integer
    products and one reduction. A zero upper parameter gives cutoff 0 and
    value 1 immediately.
    """
    cutoff = _termination_index(params.upper)
    _check_poles(params.lower, cutoff)
    return _terminating_sum(params.upper, params.lower, 1, 0, cutoff, 1, 1)


def eval_2f1(params: SeriesParams2F1) -> Fraction:
    """Exact sum of the terminating 2F1 series at a rational argument."""
    cutoff = _termination_index(params.upper)
    _check_poles((params.lower,), cutoff)
    return _terminating_sum(params.upper, (params.lower,), params.argument, 0, cutoff, 1, 1)
