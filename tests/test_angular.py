"""Tests for the Clebsch-Gordan / 3jm backends and label types."""

from __future__ import annotations

import itertools
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest

from cgexact import angular
from cgexact.angular import (
    CgLabels,
    DegenerateLabels,
    HalfInt,
    InvalidLabelsError,
    PhaseUndefinedError,
    StepsOutOfRangeError,
    TriangleViolationError,
    cg_3f2,
    cg_degenerate_squared,
    cg_ladder_rows,
    cg_ladder_stretched,
    cg_racah,
    cg_to_3jm,
    delta_abc,
    racah_zsum_terms,
    selection_rule_violation,
    selection_rules_satisfied,
)
from cgexact.exact import SignedSqrtRational, binomial, factorial, sqrt_to_decimal


class TestHalfInt:
    def test_parse_forms(self):
        assert HalfInt.parse("3/2") == HalfInt(3)
        assert HalfInt.parse("-1/2") == HalfInt(-1)
        assert HalfInt.parse("2") == HalfInt(4)
        assert HalfInt.parse("-3") == HalfInt(-6)
        assert HalfInt.parse(" 4/2 ") == HalfInt(4)

    def test_parse_rejects_garbage(self):
        for text in ("x", "1/3", "3/", "1.5", ""):
            with pytest.raises(ValueError):
                HalfInt.parse(text)

    def test_arithmetic_and_str(self):
        three_halves = HalfInt(3)
        one = HalfInt.from_int(1)
        assert (three_halves + one).twice == 5
        assert (three_halves - one) == HalfInt(1)
        assert -three_halves == HalfInt(-3)
        assert abs(HalfInt(-3)) == three_halves
        assert str(three_halves) == "3/2"
        assert str(HalfInt(-4)) == "-2"
        assert not three_halves.is_integer
        assert one.is_integer and one.as_int() == 1
        with pytest.raises(ValueError):
            three_halves.as_int()

    def test_roundtrip_through_text(self):
        for twice in range(-9, 10):
            value = HalfInt(twice)
            assert HalfInt.parse(str(value)) == value


class TestCgLabels:
    def test_valid_construction(self):
        labels = CgLabels.from_twice(1, 1, 1, -1, 2, 0)
        assert labels.a == HalfInt(1)

    def test_projection_out_of_range(self):
        with pytest.raises(InvalidLabelsError):
            CgLabels.from_twice(1, 3, 1, -1, 2, 0)

    def test_parity_mismatch(self):
        with pytest.raises(InvalidLabelsError):
            CgLabels.from_twice(2, 1, 1, -1, 2, 0)

    def test_negative_momentum(self):
        with pytest.raises(InvalidLabelsError):
            CgLabels.from_twice(-1, 1, 1, -1, 2, 0)


class TestDegenerateLabels:
    def test_derived_quantities_and_mapping(self):
        labels = DegenerateLabels(l1=2, k1=1, l2=2, k2=1)
        assert labels.l == 4 and labels.k == 2
        assert labels.to_cg_labels() == CgLabels.from_twice(2, 0, 2, 0, 4, 0)

    def test_k_range_enforced(self):
        with pytest.raises(InvalidLabelsError):
            DegenerateLabels(l1=2, k1=3, l2=2, k2=1)
        with pytest.raises(InvalidLabelsError):
            DegenerateLabels(l1=2, k1=-1, l2=2, k2=1)
        with pytest.raises(InvalidLabelsError):
            DegenerateLabels(l1=-2, k1=0, l2=2, k2=1)


def test_selection_rules_examples():
    assert selection_rules_satisfied(CgLabels.from_twice(1, 1, 1, -1, 2, 0))
    assert not selection_rules_satisfied(CgLabels.from_twice(1, 1, 1, 1, 2, 0))
    assert not selection_rules_satisfied(CgLabels.from_twice(2, 0, 2, 0, 6, 0))
    # a + b + c non-integral fails, reachable only alongside gamma != alpha+beta
    # (label parities force integrality whenever gamma = alpha + beta)
    assert not selection_rules_satisfied(CgLabels.from_twice(1, 1, 1, -1, 1, 1))


class TestCgRacah:
    def test_degenerate_example(self):
        labels = DegenerateLabels(l1=2, k1=1, l2=2, k2=1).to_cg_labels()
        assert cg_racah(labels) == SignedSqrtRational(1, Fraction(2, 3))

    def test_delta_zero(self):
        assert cg_racah(CgLabels.from_twice(1, 1, 1, 1, 2, 0)).is_zero

    def test_half_spin_coupling_matches_ladder_oracle(self):
        labels = CgLabels.from_twice(1, 1, 1, -1, 2, 0)
        value = cg_racah(labels)
        assert value == SignedSqrtRational(1, Fraction(1, 2))
        vector = cg_ladder_stretched(HalfInt(1), HalfInt(1), 1)
        assert vector.amplitude(HalfInt(1), HalfInt(-1)) == value

    def test_condon_shortley_negative_value(self):
        # <1/2 -1/2; 1/2 1/2 | 0 0> is the negative branch
        value = cg_racah(CgLabels.from_twice(1, -1, 1, 1, 0, 0))
        assert value == SignedSqrtRational(-1, Fraction(1, 2))

    def test_zsum_cancellation_zero(self):
        # <1 0; 1 0 | 1 0> vanishes through cancellation, not selection rules
        labels = CgLabels.from_twice(2, 0, 2, 0, 2, 0)
        assert selection_rules_satisfied(labels)
        assert cg_racah(labels).is_zero


def test_racah_zsum_collapses_to_z0_for_degenerate_labels():
    for l1 in range(5):
        for l2 in range(5):
            for k1 in range(l1 + 1):
                for k2 in range(l2 + 1):
                    labels = DegenerateLabels(l1, k1, l2, k2)
                    terms = racah_zsum_terms(labels.to_cg_labels())
                    assert len(terms) == 1
                    z, term = terms[0]
                    assert z == 0 and term > 0


def test_racah_zsum_requires_selection_rules():
    with pytest.raises(ValueError):
        racah_zsum_terms(CgLabels.from_twice(1, 1, 1, 1, 2, 0))


class TestCg3f2:
    def test_degenerate_family_gives_binomial_ratio(self):
        for l1 in range(5):
            for l2 in range(5):
                for k1 in range(l1 + 1):
                    for k2 in range(l2 + 1):
                        labels = DegenerateLabels(l1, k1, l2, k2)
                        value = cg_3f2(labels.to_cg_labels())
                        assert value.sign == 1
                        assert value.radicand == cg_degenerate_squared(labels)

    def test_zero_momentum_coupling_is_identity(self):
        for tb in range(6):
            for tbe in range(-tb, tb + 1, 2):
                labels = CgLabels.from_twice(0, 0, tb, tbe, tb, tbe)
                assert cg_3f2(labels) == SignedSqrtRational(1, Fraction(1))

    def test_antiparallel_projections_at_c_zero(self):
        labels = CgLabels.from_twice(2, 2, 2, -2, 0, 0)
        value = cg_3f2(labels)
        assert value == cg_racah(labels)
        assert value == SignedSqrtRational(1, Fraction(1, 3))

    def test_orthonormality_of_a1_b1_gamma0_column(self):
        # brute-force cross-check of the 1/3 radicand above: the c = 0
        # amplitudes at (a, b) = (1, 1) must have unit norm
        total = sum(
            cg_racah(CgLabels.from_twice(2, tal, 2, -tal, 0, 0)).radicand
            for tal in (-2, 0, 2)
        )
        assert total == 1

    def test_delta_zero(self):
        assert cg_3f2(CgLabels.from_twice(1, 1, 1, 1, 2, 0)).is_zero

    def test_regularized_branch_matches_racah_and_known_value(self):
        # every orientation of the series route is singular here; the
        # regularized branch must still reproduce -1/sqrt(6)
        labels = CgLabels.from_twice(5, 3, 5, -3, 0, 0)
        value = cg_3f2(labels)
        assert value == cg_racah(labels)
        assert value == SignedSqrtRational(-1, Fraction(1, 6))


def test_backend_agreement_small_sweep():
    for ta in range(4):
        for tb in range(4):
            for tal in range(-ta, ta + 1, 2):
                for tbe in range(-tb, tb + 1, 2):
                    for tc in range(ta + tb + 3):
                        for tg in range(-tc, tc + 1, 2):
                            labels = CgLabels.from_twice(ta, tal, tb, tbe, tc, tg)
                            assert cg_racah(labels) == cg_3f2(labels)


class TestDeltaAbc:
    def test_examples(self):
        zero = HalfInt(0)
        assert delta_abc(zero, zero, zero) == SignedSqrtRational(1, Fraction(1))
        assert delta_abc(HalfInt(1), HalfInt(1), HalfInt(2)) == SignedSqrtRational(
            1, Fraction(1, 6)
        )

    def test_stretched_form(self):
        for l1 in range(6):
            for l2 in range(6):
                value = delta_abc(HalfInt(l1), HalfInt(l2), HalfInt(l1 + l2))
                expected = Fraction(factorial(l1) * factorial(l2), factorial(l1 + l2 + 1))
                assert value == SignedSqrtRational(1, expected)

    def test_triangle_violation(self):
        with pytest.raises(TriangleViolationError):
            delta_abc(HalfInt(2), HalfInt(2), HalfInt(6))
        with pytest.raises(TriangleViolationError):
            delta_abc(HalfInt(1), HalfInt(1), HalfInt(1))


def test_cg_degenerate_squared_examples():
    assert cg_degenerate_squared(DegenerateLabels(2, 1, 2, 1)) == Fraction(2, 3)
    for l1, l2 in ((3, 5), (0, 0), (7, 2)):
        assert cg_degenerate_squared(DegenerateLabels(l1, 0, l2, 0)) == 1
    assert cg_degenerate_squared(DegenerateLabels(1, 1, 1, 0)) == Fraction(1, 2)


class TestLadder:
    def test_single_lowering_of_two_half_spins(self):
        vector = cg_ladder_stretched(HalfInt(1), HalfInt(1), 1)
        assert vector.amplitude(HalfInt(1), HalfInt(-1)) == SignedSqrtRational(
            1, Fraction(1, 2)
        )
        assert vector.amplitude(HalfInt(-1), HalfInt(1)) == SignedSqrtRational(
            1, Fraction(1, 2)
        )
        assert len(vector.entries) == 2
        assert vector.norm_squared() == 1

    def test_top_state(self):
        vector = cg_ladder_stretched(HalfInt(3), HalfInt(4), 0)
        assert vector.entries == {
            (HalfInt(3), HalfInt(4)): SignedSqrtRational(1, Fraction(1))
        }

    def test_bottom_state_is_a_single_product_state(self):
        vector = cg_ladder_stretched(HalfInt(2), HalfInt(1), 3)
        assert vector.entries == {
            (HalfInt(-2), HalfInt(-1)): SignedSqrtRational(1, Fraction(1))
        }

    def test_steps_out_of_range(self):
        with pytest.raises(StepsOutOfRangeError):
            cg_ladder_stretched(HalfInt(1), HalfInt(1), 3)
        with pytest.raises(StepsOutOfRangeError):
            cg_ladder_stretched(HalfInt(1), HalfInt(1), -1)

    def test_every_vector_is_normalized(self):
        for ta in range(5):
            for tb in range(5):
                for steps in range(ta + tb + 1):
                    assert cg_ladder_stretched(HalfInt(ta), HalfInt(tb), steps).norm_squared() == 1

    def test_rows_equal_single_rows(self):
        for ta in range(13):
            for tb in range(13):
                rows = list(cg_ladder_rows(HalfInt(ta), HalfInt(tb)))
                assert len(rows) == ta + tb + 1
                for steps, row in enumerate(rows):
                    assert row == cg_ladder_stretched(HalfInt(ta), HalfInt(tb), steps)

    def test_rows_reject_negative_spins(self):
        # raised at the call, before any row is drawn
        with pytest.raises(InvalidLabelsError):
            cg_ladder_rows(HalfInt(-1), HalfInt(1))
        with pytest.raises(InvalidLabelsError):
            cg_ladder_rows(HalfInt(2), HalfInt(-2))
        with pytest.raises(InvalidLabelsError):
            cg_ladder_stretched(HalfInt(-1), HalfInt(1), 0)

    def test_merge_checks_the_shared_radical(self, monkeypatch):
        # a lowering factor that changes from call to call gives two paths
        # into the same key different radicals; the merge must refuse them
        factors = itertools.count(1)
        monkeypatch.setattr(angular, "_lowering_factor", lambda tj, tm: next(factors))
        with pytest.raises(ArithmeticError):
            cg_ladder_stretched(HalfInt(1), HalfInt(1), 2)


class TestCgTo3jm:
    def test_zero_passes_through(self):
        labels = CgLabels.from_twice(1, 1, 1, 1, 2, 0)
        assert cg_to_3jm(labels, SignedSqrtRational.zero()).is_zero

    def test_recomputed_end_to_end_value(self):
        # (1 1 0; 1 -1 0): phase exponent is 0 and 2c+1 = 1, so the 3jm
        # symbol keeps the CG radicand 1/3
        labels = CgLabels.from_twice(2, 2, 2, -2, 0, 0)
        symbol = cg_to_3jm(labels, cg_racah(labels))
        assert symbol == SignedSqrtRational(1, Fraction(1, 3))

    def test_phase_even_when_a_equals_b_and_gamma_zero(self):
        for tc in (0, 2, 4):
            labels = CgLabels.from_twice(2, 2, 2, -2, tc, 0)
            value = cg_racah(labels)
            symbol = cg_to_3jm(labels, value)
            assert symbol.sign == value.sign
            assert symbol.radicand == value.radicand / (tc + 1)

    def test_odd_phase_flips_sign(self):
        # <1 0; 1 1 | 1 1> = -1/sqrt(2); exponent a-b+gamma = 1 flips it
        labels = CgLabels.from_twice(2, 0, 2, 2, 2, 2)
        value = cg_racah(labels)
        assert value == SignedSqrtRational(-1, Fraction(1, 2))
        assert cg_to_3jm(labels, value) == SignedSqrtRational(1, Fraction(1, 6))

    def test_phase_undefined_surfaced(self):
        labels = CgLabels.from_twice(1, 1, 1, 1, 1, 1)
        with pytest.raises(PhaseUndefinedError):
            cg_to_3jm(labels, SignedSqrtRational.zero())


def test_normalization_within_fixed_c_gamma():
    for ta in range(4):
        for tb in range(4):
            for tc in range(abs(ta - tb), ta + tb + 1, 2):
                for tg in range(-tc, tc + 1, 2):
                    total = Fraction(0)
                    for tal in range(-ta, ta + 1, 2):
                        tbe = tg - tal
                        if abs(tbe) > tb:
                            continue
                        total += cg_racah(CgLabels.from_twice(ta, tal, tb, tbe, tc, tg)).radicand
                    assert total == 1


def test_cross_c_orthogonality_at_fifty_digits():
    getcontext().prec = 60
    tolerance = Decimal(10) ** -40
    ta, tb = 3, 4
    for tg in (-1, 1, 3):
        c_values = [tc for tc in range(abs(ta - tb), ta + tb + 1, 2) if tc >= abs(tg)]
        for i, tc1 in enumerate(c_values):
            for tc2 in c_values[i + 1 :]:
                total = Decimal(0)
                for tal in range(-ta, ta + 1, 2):
                    tbe = tg - tal
                    if abs(tbe) > tb:
                        continue
                    product = cg_racah(
                        CgLabels.from_twice(ta, tal, tb, tbe, tc1, tg)
                    ) * cg_racah(CgLabels.from_twice(ta, tal, tb, tbe, tc2, tg))
                    total += Decimal(sqrt_to_decimal(product, 50))
                assert abs(total) < tolerance


def test_ladder_amplitudes_match_racah_backend():
    for ta in range(5):
        for tb in range(5):
            for steps in range(ta + tb + 1):
                vector = cg_ladder_stretched(HalfInt(ta), HalfInt(tb), steps)
                tg = ta + tb - 2 * steps
                for (m1, m2), amplitude in vector.entries.items():
                    labels = CgLabels.from_twice(ta, m1.twice, tb, m2.twice, ta + tb, tg)
                    assert amplitude == cg_racah(labels)


def test_degenerate_binomial_ratio_identity_small():
    for l1 in range(6):
        for l2 in range(6):
            for k1 in range(l1 + 1):
                for k2 in range(l2 + 1):
                    labels = DegenerateLabels(l1, k1, l2, k2)
                    value = cg_racah(labels.to_cg_labels())
                    assert value.sign == 1
                    assert value.radicand == cg_degenerate_squared(labels)
                    expected = Fraction(
                        binomial(l1, k1) * binomial(l2, k2), binomial(l1 + l2, k1 + k2)
                    )
                    assert value.radicand == expected


def test_selection_rule_violation_names_the_first_broken_rule():
    cases = (
        ((1, 1, 1, -1, 2, 0), None),
        ((2, 0, 2, 0, 2, 0), None),
        ((1, 1, 1, 1, 2, 0), "selection rule: gamma != alpha+beta"),
        ((2, 0, 2, 0, 6, 0), "selection rule: triangle(a, b, c) violated"),
        ((1, 1, 1, -1, 1, 1), "selection rule: gamma != alpha+beta"),
    )
    for twice, expected in cases:
        labels = CgLabels.from_twice(*twice)
        assert selection_rule_violation(labels) == expected
        assert selection_rules_satisfied(labels) == (expected is None)


def _all_labels(max_twice_ab: int):
    """Every label set with 2a, 2b <= max_twice_ab that meets the selection rules."""
    for ta in range(max_twice_ab + 1):
        for tb in range(max_twice_ab + 1):
            for tc in range(abs(ta - tb), ta + tb + 1, 2):
                for tal in range(-ta, ta + 1, 2):
                    for tbe in range(-tb, tb + 1, 2):
                        if abs(tal + tbe) <= tc:
                            yield CgLabels.from_twice(ta, tal, tb, tbe, tc, tal + tbe)


def test_racah_and_3f2_match_sympy_wigner():
    # an oracle from outside this package, compared on sign and square
    sympy = pytest.importorskip("sympy")
    from sympy.physics.wigner import clebsch_gordan

    labels_seen = 0
    for labels in _all_labels(4):
        halves = [
            sympy.Rational(j.twice, 2)
            for j in (labels.a, labels.b, labels.c, labels.alpha, labels.beta, labels.gamma)
        ]
        expected = clebsch_gordan(*halves)
        sign = int(sympy.sign(expected))
        square = sympy.Rational(expected**2)
        for value in (cg_racah(labels), cg_3f2(labels)):
            assert value.sign == sign
            assert sympy.Rational(value.radicand.numerator, value.radicand.denominator) == square
        labels_seen += 1
    assert labels_seen == 517


def test_ladder_matches_sympy_wigner():
    # every stretched amplitude with 2a, 2b <= 6, on sign and square
    sympy = pytest.importorskip("sympy")
    from sympy.physics.wigner import clebsch_gordan

    amplitudes_seen = 0
    for ta in range(7):
        for tb in range(7):
            tc = ta + tb
            for steps, row in enumerate(cg_ladder_rows(HalfInt(ta), HalfInt(tb))):
                for tal in range(-ta, ta + 1, 2):
                    tbe = tc - 2 * steps - tal
                    if abs(tbe) > tb:
                        continue
                    expected = clebsch_gordan(
                        *(sympy.Rational(t, 2) for t in (ta, tb, tc, tal, tbe, tal + tbe))
                    )
                    value = row.amplitude(HalfInt(tal), HalfInt(tbe))
                    assert value.sign == int(sympy.sign(expected))
                    assert sympy.Rational(
                        value.radicand.numerator, value.radicand.denominator
                    ) == sympy.Rational(expected**2)
                    amplitudes_seen += 1
    assert amplitudes_seen == sum((ta + 1) * (tb + 1) for ta in range(7) for tb in range(7))


def _lower_parameters(labels: CgLabels) -> tuple[int, int]:
    """b1 = c-a-beta+1 and b2 = c-b+alpha+1 of the 3F2 route."""
    ta, tb, tc = labels.a.twice, labels.b.twice, labels.c.twice
    return (tc - ta - labels.beta.twice) // 2 + 1, (tc - tb + labels.alpha.twice) // 2 + 1


def test_racah_and_3f2_agree_at_large_j():
    # past the verify sweep (2a, 2b <= 5): both 3F2 lower-parameter regimes,
    # integer and half-integer momenta, 2j from 100 to 400
    label_sets = [
        (200, 10, 200, -4, 100, 6),
        (400, 0, 398, 2, 400, 2),
        (301, 51, 299, -47, 200, 4),
        (399, 3, 101, -1, 300, 2),
        (100, -36, 60, 12, 60, -24),
        (150, 20, 130, -30, 240, -10),
        (120, -40, 180, 60, 280, 20),
        (200, 100, 200, -100, 398, 0),
        (101, 7, 99, -5, 110, 2),
    ]
    regimes = set()
    for twice in label_sets:
        labels = CgLabels.from_twice(*twice)
        assert selection_rules_satisfied(labels)
        value = cg_3f2(labels)
        assert not value.is_zero
        assert value == cg_racah(labels)
        regimes.add(min(_lower_parameters(labels)) >= 1)
    assert regimes == {True, False}
