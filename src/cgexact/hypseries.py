"""The one terminating generalized hypergeometric series kernel.

`_terminating_sum` sums a pFq series with integer parameters and a rational
argument from a given first term up to a given cutoff: Horner form on a
plain integer numerator and denominator, reduced once into a single
`Fraction` at the end. Its callers are the regularized 3F2 at unit argument
of `angular.cg_3f2` and the 2F1 generating function of `prob.hypergeom_pgf`;
each passes its own first term and cutoff, and no lower factor of its series
vanishes between them. The module has no public names.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import _fraction

__all__: list[str] = []


def _terminating_sum(
    upper, lower, argument, start: int, cutoff: int, first_num: int, first_den: int
) -> Fraction:
    """Sum of t_k over start <= k <= cutoff, with t_start = first_num/first_den
    and t_k / t_(k-1) = argument * prod(a + k - 1) / (k * prod(b + k - 1)).

    Parameters are ints and the argument is an int or a Fraction zn/zd; a
    lower factor b + k - 1 must not vanish for start < k <= cutoff, and
    start <= cutoff. The ratio at k is N(k)/D(k) for the integers

        N(k) = zn * prod_a (a + k - 1)
        D(k) = zd * k * prod_b (b + k - 1),

    so the sum is t_start * (1 + r(start+1) (1 + r(start+2) (... (1 + r(cutoff))))),
    r = N/D, accumulated on integers from the innermost bracket out.

    The integers keep their signs, so the final denominator is negative
    whenever an odd number of its factors are (a negative lower factor
    b + k - 1, or a negative first_den); the reduction moves that sign to
    the numerator, as Fraction(num, den) does, and the value's denominator
    is positive.
    """
    zn, zd = argument.numerator, argument.denominator
    num = den = 1
    for k in range(cutoff, start, -1):
        m = k - 1
        n = zn
        for a in upper:
            n *= a + m
        d = zd * k
        for b in lower:
            d *= b + m
        den *= d
        num = den + n * num
    return _fraction(first_num * num, first_den * den)
