"""Tests for the exact distribution module."""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction

import pytest

from cgexact.angular import DegenerateLabels
from cgexact.prob import (
    BinomialParams,
    DegenerateConditioningError,
    DegenerateDistributionError,
    HypergeomParams,
    IndivisibleN3Error,
    MismatchedPError,
    PmfTable,
    SupportTooSmallError,
    UnsupportedParameterRegimeError,
    binomial_convolve,
    binomial_limit_tv,
    binomial_pmf,
    conditional_probability,
    hypergeom_mean,
    hypergeom_mgf,
    hypergeom_pgf,
    hypergeom_pmf,
    hypergeom_variance,
)

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


class TestParams:
    def test_hypergeom_validation(self):
        with pytest.raises(ValueError):
            HypergeomParams(3, 1, 2)
        with pytest.raises(ValueError):
            HypergeomParams(1, 3, 2)
        with pytest.raises(ValueError):
            HypergeomParams(-1, 0, 2)

    def test_binomial_validation(self):
        with pytest.raises(ValueError):
            BinomialParams(-1, HALF)
        with pytest.raises(ValueError):
            BinomialParams(2, Fraction(3, 2))
        assert BinomialParams(2, "1/2").p == HALF

    def test_support(self):
        assert list(HypergeomParams(5, 2, 10).support()) == [0, 1, 2]
        assert list(HypergeomParams(9, 8, 10).support()) == [7, 8]


class TestPmfTable:
    def test_validation(self):
        with pytest.raises(ValueError):
            PmfTable(((0, HALF), (1, HALF), (2, Fraction(1, 4))))
        with pytest.raises(ValueError):
            PmfTable(((1, HALF), (0, HALF)))
        with pytest.raises(ValueError):
            PmfTable(((0, Fraction(3, 2)), (1, Fraction(-1, 2))))

    def test_lookup(self):
        table = PmfTable(((0, Fraction(1, 4)), (1, Fraction(3, 4))))
        assert table.probability(1) == Fraction(3, 4)
        assert table.probability(5) == 0



def test_pmf_table_sum_check_over_mixed_denominators():
    # the exact sum-to-1 check sees every denominator, however large
    accepted = (
        ((0, Fraction(1, 3)), (1, Fraction(1, 6)), (2, Fraction(1, 2))),
        ((0, "2/7"), (3, Fraction(5, 7))),
        ((4, 1),),
        ((0, 0), (1, Fraction(10**40 - 1, 10**40)), (2, Fraction(1, 10**40))),
    )
    for entries in accepted:
        table = PmfTable(entries)
        assert sum(q for _, q in table.entries) == 1
    rejected = (
        (),
        ((0, Fraction(1, 3)), (1, Fraction(1, 6)), (2, Fraction(1, 2) + Fraction(1, 10**40))),
        ((0, Fraction(10**40 - 1, 10**40)),),
        ((0, Fraction(2, 3)), (1, Fraction(2, 3))),
    )
    for entries in rejected:
        with pytest.raises(ValueError, match="probabilities must sum to 1 exactly"):
            PmfTable(entries)

class TestHypergeomPmf:
    def test_examples(self):
        assert hypergeom_pmf(HypergeomParams(1, 1, 2), 0) == HALF
        assert hypergeom_pmf(HypergeomParams(5, 2, 10), 1) == Fraction(5, 9)

    def test_out_of_support(self):
        params = HypergeomParams(5, 2, 10)
        assert hypergeom_pmf(params, 3) == 0
        assert hypergeom_pmf(params, -1) == 0

    def test_sums_to_one(self):
        for n3 in range(1, 16):
            for n1 in range(n3 + 1):
                for n2 in range(n3 + 1):
                    params = HypergeomParams(n1, n2, n3)
                    total = sum(
                        (hypergeom_pmf(params, x) for x in params.support()), Fraction(0)
                    )
                    assert total == 1


class TestHypergeomPgf:
    def test_normalization_at_one(self):
        for n3 in range(1, 12):
            for n1 in range(n3 + 1):
                for n2 in range(n3 + 1):
                    if n3 - n1 - n2 + 1 < 1:
                        continue
                    assert hypergeom_pgf(HypergeomParams(n1, n2, n3), 1) == 1

    def test_closed_form_one_one_two(self):
        params = HypergeomParams(1, 1, 2)
        for t in (Fraction(0), Fraction(3), Fraction(-2, 7)):
            assert hypergeom_pgf(params, t) == (1 + t) / 2

    def test_constant_term_is_pmf_at_zero(self):
        for params in (HypergeomParams(5, 2, 10), HypergeomParams(3, 4, 9)):
            assert hypergeom_pgf(params, 0) == hypergeom_pmf(params, 0)

    def test_equals_power_sum(self):
        for params in (HypergeomParams(4, 3, 12), HypergeomParams(2, 5, 9)):
            for t in (Fraction(2), Fraction(-1, 3)):
                expected = sum(
                    (hypergeom_pmf(params, x) * t**x for x in params.support()),
                    Fraction(0),
                )
                assert hypergeom_pgf(params, t) == expected

    def test_unsupported_regime_rejected(self):
        with pytest.raises(UnsupportedParameterRegimeError):
            hypergeom_pgf(HypergeomParams(3, 3, 4), 1)
        # pmf and moments still work in that regime
        params = HypergeomParams(3, 3, 4)
        assert sum((hypergeom_pmf(params, x) for x in params.support()), Fraction(0)) == 1
        assert hypergeom_mean(params) == Fraction(9, 4)


class TestHypergeomMgf:
    def test_at_zero_is_one(self):
        value = hypergeom_mgf(HypergeomParams(5, 2, 10), Decimal(0), 25)
        assert value == Decimal(1)

    def test_closed_form_at_log_two(self):
        # M(t) = (1 + e^t)/2 for (1, 1, 2); at e^t = 2 this is 3/2
        ln2 = Decimal(2).ln()
        value = hypergeom_mgf(HypergeomParams(1, 1, 2), ln2, 30)
        assert abs(value - Decimal("1.5")) < Decimal(10) ** -25

    def test_derivative_at_zero_matches_mean(self):
        params = HypergeomParams(1, 1, 2)
        h = Decimal("1e-6")
        derivative = (hypergeom_mgf(params, h, 40) - hypergeom_mgf(params, -h, 40)) / (2 * h)
        mean = Decimal(1) / Decimal(2)
        assert abs(derivative - mean) / mean < Decimal("1e-6")

    def test_regime_and_digits_validation(self):
        with pytest.raises(UnsupportedParameterRegimeError):
            hypergeom_mgf(HypergeomParams(3, 3, 4), Decimal(0), 10)
        with pytest.raises(ValueError):
            hypergeom_mgf(HypergeomParams(1, 1, 2), Decimal(0), 0)

    def test_overflow_names_the_cause(self):
        with pytest.raises(OverflowError, match=r"e\^\(t\*x\)"):
            hypergeom_mgf(HypergeomParams(3, 2, 10), Decimal("1e400000"), 15)


class TestMoments:
    def test_mean_examples(self):
        assert hypergeom_mean(HypergeomParams(5, 4, 10)) == 2
        assert hypergeom_mean(HypergeomParams(0, 4, 10)) == 0
        params = HypergeomParams(1, 1, 2)
        assert hypergeom_mean(params) == HALF
        moment = sum((x * hypergeom_pmf(params, x) for x in params.support()), Fraction(0))
        assert moment == HALF

    def test_variance_examples(self):
        assert hypergeom_variance(HypergeomParams(5, 4, 10)) == Fraction(2, 3)
        assert hypergeom_variance(HypergeomParams(10, 4, 10)) == 0
        params = HypergeomParams(1, 1, 2)
        assert hypergeom_variance(params) == Fraction(1, 4)
        mean = hypergeom_mean(params)
        second = sum(
            (x * x * hypergeom_pmf(params, x) for x in params.support()), Fraction(0)
        )
        assert second - mean * mean == Fraction(1, 4)

    def test_moment_formulas_match_sums(self):
        for n3 in range(2, 14):
            for n1 in range(n3 + 1):
                for n2 in range(n3 + 1):
                    params = HypergeomParams(n1, n2, n3)
                    pmf = [(x, hypergeom_pmf(params, x)) for x in params.support()]
                    mean = sum((x * q for x, q in pmf), Fraction(0))
                    assert mean == hypergeom_mean(params)
                    fact2 = sum((x * (x - 1) * q for x, q in pmf), Fraction(0))
                    assert fact2 + mean - mean * mean == hypergeom_variance(params)

    def test_degenerate_variance_rejected(self):
        with pytest.raises(DegenerateDistributionError):
            hypergeom_variance(HypergeomParams(1, 1, 1))


class TestBinomialPmf:
    def test_examples(self):
        assert binomial_pmf(BinomialParams(2, HALF), 1) == HALF
        assert binomial_pmf(BinomialParams(7, Fraction(0)), 0) == 1
        assert binomial_pmf(BinomialParams(3, THIRD), 2) == Fraction(2, 9)

    def test_out_of_support(self):
        params = BinomialParams(3, THIRD)
        assert binomial_pmf(params, -1) == 0
        assert binomial_pmf(params, 4) == 0

    def test_sums_to_one(self):
        for trials in range(13):
            for p in (HALF, THIRD, Fraction(3, 10)):
                params = BinomialParams(trials, p)
                assert sum(
                    (binomial_pmf(params, r) for r in range(trials + 1)), Fraction(0)
                ) == 1


class TestConvolution:
    def test_two_coins(self):
        table = binomial_convolve(BinomialParams(1, HALF), BinomialParams(1, HALF))
        assert table.entries == ((0, Fraction(1, 4)), (1, HALF), (2, Fraction(1, 4)))

    def test_identity_element(self):
        params = BinomialParams(4, THIRD)
        table = binomial_convolve(params, BinomialParams(0, THIRD))
        assert table.entries == tuple((k, binomial_pmf(params, k)) for k in range(5))

    def test_closure_example(self):
        table = binomial_convolve(BinomialParams(2, THIRD), BinomialParams(3, THIRD))
        merged = BinomialParams(5, THIRD)
        assert table.entries == tuple((k, binomial_pmf(merged, k)) for k in range(6))

    def test_closure_sweep(self):
        for trials1 in range(7):
            for trials2 in range(7):
                for p in (HALF, THIRD, Fraction(3, 10)):
                    table = binomial_convolve(
                        BinomialParams(trials1, p), BinomialParams(trials2, p)
                    )
                    merged = BinomialParams(trials1 + trials2, p)
                    for k, q in table.entries:
                        assert q == binomial_pmf(merged, k)

    def test_mismatched_p_rejected(self):
        with pytest.raises(MismatchedPError):
            binomial_convolve(BinomialParams(2, HALF), BinomialParams(2, THIRD))


class TestBinomialAgainstReference:
    """binomial_pmf and binomial_convolve against math.comb over Fraction."""

    PS = (Fraction(0), Fraction(1), HALF, THIRD, Fraction(3, 10), Fraction(2, 7))

    @staticmethod
    def reference(trials, p, r):
        return math.comb(trials, r) * p**r * (1 - p) ** (trials - r)

    def test_pmf(self):
        for p in self.PS:
            for trials in range(41):
                params = BinomialParams(trials, p)
                for r in range(trials + 1):
                    assert binomial_pmf(params, r) == self.reference(trials, p, r)
                assert binomial_pmf(params, -1) == 0
                assert binomial_pmf(params, trials + 1) == 0

    def test_convolve(self):
        pairs = ((0, 0), (0, 5), (1, 1), (3, 7), (13, 2), (40, 0), (40, 1), (9, 40), (40, 12))
        for p in self.PS:
            for trials1, trials2 in pairs:
                table = binomial_convolve(BinomialParams(trials1, p), BinomialParams(trials2, p))
                total = trials1 + trials2
                assert table.entries == tuple(
                    (k, self.reference(total, p, k)) for k in range(total + 1)
                )


class TestConditionalProbability:
    def test_example_value(self):
        labels = DegenerateLabels(2, 1, 2, 1)
        assert conditional_probability(labels, THIRD) == Fraction(2, 3)
        assert conditional_probability(labels, Fraction(3, 10)) == Fraction(2, 3)

    def test_zero_counts_give_one(self):
        for p in (HALF, Fraction(99, 100)):
            assert conditional_probability(DegenerateLabels(3, 0, 5, 0), p) == 1

    def test_p_independence_sweep(self):
        ps = (HALF, THIRD, Fraction(3, 10), Fraction(99, 100))
        for l1 in range(5):
            for l2 in range(5):
                for k1 in range(l1 + 1):
                    for k2 in range(l2 + 1):
                        labels = DegenerateLabels(l1, k1, l2, k2)
                        values = {conditional_probability(labels, p) for p in ps}
                        assert len(values) == 1

    def test_degenerate_conditioning_rejected(self):
        labels = DegenerateLabels(2, 1, 2, 1)
        for p in (Fraction(0), Fraction(1)):
            with pytest.raises(DegenerateConditioningError):
                conditional_probability(labels, p)


class TestBinomialLimit:
    def test_anchor_value(self):
        results = binomial_limit_tv(HALF, 2, [10])
        assert results == [(10, Fraction(1, 18))]

    def test_point_mass_gives_zero(self):
        assert binomial_limit_tv(HALF, 0, [10]) == [(10, Fraction(0))]

    def test_strictly_decreasing(self):
        results = binomial_limit_tv(HALF, 2, [10, 100, 1000])
        distances = [tv for _, tv in results]
        assert distances[0] > distances[1] > distances[2]

    def test_indivisible_n3_rejected(self):
        with pytest.raises(IndivisibleN3Error):
            binomial_limit_tv(THIRD, 2, [10])

    def test_support_too_small_rejected(self):
        with pytest.raises(SupportTooSmallError):
            binomial_limit_tv(HALF, 6, [10])
