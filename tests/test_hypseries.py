"""Tests for the terminating hypergeometric series kernel.

Expected values come from an independent brute-force oracle that builds each
term from full Pochhammer products, never from the running-term recurrence
under test.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from cgexact.exact import binomial, factorial
from cgexact.hypseries import _terminating_sum


def pochhammer(a: Fraction, k: int) -> Fraction:
    """Rising factorial a(a+1)...(a+k-1); the empty product (k = 0) is 1."""
    acc = Fraction(1)
    for i in range(k):
        acc *= a + i
    return acc


def brute_term(upper, lower, argument, k) -> Fraction:
    num = Fraction(1)
    for a in upper:
        num *= pochhammer(Fraction(a), k)
    den = Fraction(factorial(k))
    for b in lower:
        den *= pochhammer(Fraction(b), k)
    return num / den * Fraction(argument) ** k


def cutoff_of(upper) -> int:
    """The least-magnitude nonpositive upper parameter, negated."""
    return min(-a for a in upper if a <= 0)


def brute_sum(upper, lower, argument=1) -> Fraction:
    return sum(
        (brute_term(upper, lower, argument, k) for k in range(cutoff_of(upper) + 1)), Fraction(0)
    )


def kernel_sum(upper, lower, argument=1) -> Fraction:
    """The whole series from its first term 1; parameters are ints and the
    argument an int or a Fraction, as `cg_3f2` and the pgf pass them."""
    return _terminating_sum(upper, lower, argument, 0, cutoff_of(upper), 1, 1)


def test_3f2_zero_upper_parameter_gives_one():
    # leading-zero upper parameter: only the k = 0 term survives
    for l1, k1, k2 in ((4, 2, 1), (7, 0, 3), (5, 5, 0), (1, 1, 1)):
        assert kernel_sum((0, -k1, k2), (k2 + 1, l1 - k1 + 1)) == 1


def test_3f2_two_term_series():
    value = kernel_sum((-1, 1, 1), (2, 2))
    assert value == Fraction(3, 4)
    assert value == brute_sum((-1, 1, 1), (2, 2))


def test_3f2_three_term_expansion_cancels():
    upper, lower = (-2, 1, 1), (1, 1)
    oracle = brute_sum(upper, lower)
    assert oracle == 1 - 2 + 1 == 0
    assert kernel_sum(upper, lower) == oracle


def test_3f2_against_brute_force_sweep():
    param_sets = [
        ((-3, 1, 2), (5, 4)),
        ((-5, -2, 7), (1, -6)),
        ((-4, -4, -4), (5, 9)),
        ((0, -3, 1), (2, 2)),
        ((-6, 2, -11), (-13, 3)),
    ]
    for upper, lower in param_sets:
        assert kernel_sum(upper, lower) == brute_sum(upper, lower)


def test_3f2_term_ratio_consistency():
    upper, lower = (-5, 3, -7), (-9, 2)
    a1, a2, a3 = map(Fraction, upper)
    b1, b2 = map(Fraction, lower)
    for k in range(1, 6):
        previous = brute_term(upper, lower, 1, k - 1)
        ratio = (a1 + k - 1) * (a2 + k - 1) * (a3 + k - 1) / ((b1 + k - 1) * (b2 + k - 1) * k)
        assert brute_term(upper, lower, 1, k) == previous * ratio


def test_3f2_lower_zero_hit_exactly_at_cutoff_is_fine():
    # lower parameter -3 first vanishes at term 4, one past the cutoff at 3;
    # its negative factors make the kernel's denominator negative
    value = kernel_sum((-3, 1, 1), (-3, 5))
    assert value == brute_sum((-3, 1, 1), (-3, 5))
    assert value.denominator > 0


def test_2f1_two_term_series():
    for t in (Fraction(2), Fraction(1, 3), Fraction(-5, 7)):
        assert kernel_sum((-1, -1), (1,), t) == 1 + t


def test_2f1_at_unit_argument_beats_pgf_prefactor():
    # (n1, n2, n3) = (1, 1, 2): value 2 makes the prefactor 1/2 normalize
    assert kernel_sum((-1, -1), (2 - 1 - 1 + 1,)) == 2


def test_2f1_argument_zero_gives_one():
    for upper, lower in (((-4, 7), 3), ((-2, -5), -3)):
        assert kernel_sum(upper, (lower,), 0) == 1


def test_2f1_vandermonde_identity_sweep():
    # 2F1[-n1, -n2; n3-n1-n2+1; 1] = C(n3, n2) / C(n3-n1, n2)
    for n3 in range(1, 16):
        for n1 in range(1, n3):
            for n2 in range(1, n1 + 1):
                if n3 - n1 < n2:
                    continue
                expected = Fraction(binomial(n3, n2), binomial(n3 - n1, n2))
                assert kernel_sum((-n1, -n2), (n3 - n1 - n2 + 1,)) == expected


def test_2f1_against_brute_force():
    for upper, lower, arg in (
        ((-4, 5), -7, Fraction(3, 5)),
        ((-7, -2), 4, Fraction(-1, 2)),
        ((0, 9), 1, Fraction(8)),
    ):
        assert kernel_sum(upper, (lower,), arg) == brute_sum(upper, (lower,), arg)


@pytest.mark.parametrize("cutoff", [0, 1, 2, 9, 23, 40])
def test_series_against_brute_force_up_to_cutoff_40(cutoff):
    # a negative lower parameter makes every lower factor negative, so the
    # kernel's denominator changes sign with each term; the 2F1 runs at
    # negative arguments
    upper3 = (-cutoff, 1, -cutoff - 7)
    lower3 = (3, -cutoff - 5)
    assert kernel_sum(upper3, lower3) == brute_sum(upper3, lower3)
    upper2 = (-cutoff, -cutoff - 2)
    for lower2, z in ((1, Fraction(-3, 7)), (-cutoff - 1, -2)):
        assert kernel_sum(upper2, (lower2,), z) == brute_sum(upper2, (lower2,), z)


def test_kernel_from_a_later_first_term():
    # summing from k0 > 0 with t_k0 given: the tail of the brute-force series
    upper, lower, z = (-17, 3, 4), (-20, 3), Fraction(-2, 5)
    for start in (0, 1, 4, 16, 17):
        first = brute_term(upper, lower, z, start)
        tail = sum((brute_term(upper, lower, z, k) for k in range(start, 18)), Fraction(0))
        assert _terminating_sum(
            upper, lower, z, start, 17, first.numerator, first.denominator
        ) == tail
