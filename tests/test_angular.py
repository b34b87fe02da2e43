"""Tests for the Clebsch-Gordan / 3jm backends and label types."""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
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


def _assert_canonical(value: SignedSqrtRational) -> None:
    """What SignedSqrtRational.__post_init__ checks, on a value built
    without it; zero is the shared instance."""
    radicand = value.radicand
    assert type(radicand) is Fraction and radicand >= 0
    assert math.gcd(radicand.numerator, radicand.denominator) == 1
    assert value.sign in (-1, 0, 1)
    assert (value.sign == 0) == (radicand == 0)
    if value.sign == 0:
        assert value is SignedSqrtRational.zero()


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

    def test_str_and_is_integer(self):
        three_halves = HalfInt(3)
        one = HalfInt(2)
        assert str(three_halves) == "3/2"
        assert str(HalfInt(-4)) == "-2"
        assert not three_halves.is_integer
        assert one.is_integer

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


# (2j, 2m) pairs of every kind: valid, negative j, |m| > j and parity
# mismatches, with spins on both sides of the shared HalfInt table's edge.
_TWICE_J = (-2, -1, 0, 1, 2, 255, 256, 257, 258)
_TWICE_M = (-258, -257, -256, -3, -2, -1, 0, 1, 2, 3, 256, 257)
# valid, valid, negative j, |m| > j, parity mismatch
_OTHER_PAIRS = ((1, 1), (2, 0), (-1, 1), (1, 3), (2, 1))


def _label_sweep():
    """Six-int tuples with every kind of (2j, 2m) pair in each of the three
    slots, the other two slots drawn from _OTHER_PAIRS; then two with
    non-int entries."""
    for slot in range(3):
        for pair in itertools.product(_TWICE_J, _TWICE_M):
            for others in itertools.product(_OTHER_PAIRS, repeat=2):
                pairs = [*others[:slot], pair, *others[slot:]]
                yield tuple(itertools.chain.from_iterable(pairs))
    yield (2.0, 0, 2, 0, 4, 0)
    yield (1, 0.5, 1, -1, 2, 0)


def _outcome(build):
    try:
        return build()
    except Exception as exc:  # the error is the outcome to compare
        return exc


class TestLeanLabels:
    def test_from_twice_is_the_constructor(self):
        for twice in _label_sweep():
            lean = _outcome(lambda: CgLabels.from_twice(*twice))
            public = _outcome(lambda: CgLabels(*map(HalfInt, twice)))
            if isinstance(public, Exception):
                assert (type(lean), str(lean)) == (type(public), str(public)), twice
                continue
            assert lean == public and hash(lean) == hash(public), twice
            assert repr(lean) == repr(public), twice
            assert vars(lean) == vars(public), twice

    def test_replace_validates_lean_labels(self):
        lean = CgLabels.from_twice(2, 0, 2, 2, 4, 2)
        assert dataclasses.replace(lean, c=HalfInt(2)) == CgLabels.from_twice(2, 0, 2, 2, 2, 2)
        for bad in ({"alpha": HalfInt(1)}, {"gamma": HalfInt(6)}, {"b": HalfInt(-2)}):
            with pytest.raises(InvalidLabelsError) as lean_error:
                dataclasses.replace(lean, **bad)
            with pytest.raises(InvalidLabelsError) as public_error:
                CgLabels(**{**vars(lean), **bad})
            assert str(lean_error.value) == str(public_error.value)

    def test_table_holds_each_halfint(self):
        top = angular._HALF_MAX
        assert len(angular._HALVES) == 2 * top + 1
        for twice, half in zip(range(-top, top + 1), angular._HALVES):
            assert half == HalfInt(twice) and repr(half) == repr(HalfInt(twice))
            assert angular._half(twice) is half
        for twice in (-top - 1, top + 1, 10**6):
            assert repr(angular._half(twice)) == repr(HalfInt(twice))
        assert CgLabels.from_twice(1, -1, 0, 0, 1, -1).alpha is angular._half(-1)


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
        with pytest.raises(InvalidLabelsError, match=r"k2 = 3 out of range \[0, 2\]"):
            DegenerateLabels(l1=2, k1=1, l2=2, k2=3)
        with pytest.raises(InvalidLabelsError, match=r"k2 = -1 out of range \[0, 2\]"):
            DegenerateLabels(l1=2, k1=1, l2=2, k2=-1)


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
                            racah = cg_racah(labels)
                            assert racah == cg_3f2(labels)
                            _assert_canonical(racah)
                            _assert_canonical(cg_3f2(labels))
                            if (ta - tb + tg) % 2 == 0:
                                _assert_canonical(cg_to_3jm(labels, racah))


# Twice each label (2a, 2alpha, 2b, 2beta, 2c, 2gamma): coeff_large_j shapes at
# 2j = 300-400, two on the literal 3F2 branch (lower parameters c-a-beta+1 and
# c-b+alpha+1 both positive), two on the regularized one and one stretched
# set, then the CI label a = b = 2000, c = 2400 (2j = 4000)
_LARGE_J_LABELS = [
    (315, 75, 318, -64, 273, 11),
    (373, 19, 290, -68, 317, -49),
    (360, -54, 400, -2, 228, -56),
    (386, -76, 376, 56, 302, -20),
    (180, 20, 180, -16, 360, 4),
    (4000, 2, 4000, -2, 4800, 0),
]


def test_large_j_values_are_in_lowest_terms():
    # the backends build radicands with exact._reduced, which trusts its
    # input, and two values whose radicands hold the same unreduced factor
    # still compare equal; so the fields themselves are checked
    values = []
    for twice in _LARGE_J_LABELS:
        labels = CgLabels.from_twice(*twice)
        racah, series = cg_racah(labels), cg_3f2(labels)
        assert racah == series and not racah.is_zero
        for value in (racah, series, cg_to_3jm(labels, racah)):
            _assert_canonical(value)
        values.append(racah)
    for x, y in itertools.combinations(values, 2):
        _assert_canonical(x * y)


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

    def test_raises_exactly_where_any_rule_or_sign_fails(self):
        # nonnegative momenta, integrality and the triangle rule, each stated
        # on its own; the triangle rule alone implies the first
        grid = range(-12, 25)
        for ta, tb, tc in itertools.product(grid, grid, grid):
            broken = min(ta, tb, tc) < 0 or (ta + tb + tc) % 2 or not abs(ta - tb) <= tc <= ta + tb
            a, b, c = HalfInt(ta), HalfInt(tb), HalfInt(tc)
            try:
                delta_abc(a, b, c)
            except TriangleViolationError as exc:
                assert broken
                assert str(exc) == f"({a}, {b}, {c}) violates the triangle rule"
            else:
                assert not broken


def test_cg_racah_sums_the_public_zsum(monkeypatch):
    # the z-sum is looked up on the module, so a wrapper rebound there sees it
    calls = []
    real = angular.racah_zsum_terms
    monkeypatch.setattr(angular, "racah_zsum_terms", lambda labels: calls.append(1) or real(labels))
    assert cg_racah(CgLabels.from_twice(1, 1, 1, -1, 2, 0)) == SignedSqrtRational(1, Fraction(1, 2))
    assert calls == [1]


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

    def test_row_amplitudes_hold_the_constructor_invariants(self):
        for ta in range(5):
            for tb in range(5):
                for row in cg_ladder_rows(HalfInt(ta), HalfInt(tb)):
                    for amplitude in row.entries.values():
                        _assert_canonical(amplitude)
                        assert amplitude.sign == 1

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

    @pytest.mark.parametrize("ta, tb", [(20, 20), (17, 30), (1, 59), (44, 7), (25, 33)])
    def test_rows_at_benchmark_sizes(self, ta, tb):
        # 2a + 2b = 40..60, the sizes of the benchmark's stretched ops: every
        # row is the single row at its depth, holds every key of that depth
        # with sign +1 and the binomial-ratio radicand, and its middle entry
        # equals cg_racah
        a, b = HalfInt(ta), HalfInt(tb)
        for steps, row in enumerate(cg_ladder_rows(a, b)):
            assert row == cg_ladder_stretched(a, b, steps)
            k2s = range(max(0, steps - ta), min(tb, steps) + 1)
            assert set(row.entries) == {
                (HalfInt(ta - 2 * (steps - k2)), HalfInt(tb - 2 * k2)) for k2 in k2s
            }
            for (m1, m2), amplitude in row.entries.items():
                labels = DegenerateLabels(ta, (ta - m1.twice) // 2, tb, (tb - m2.twice) // 2)
                assert amplitude.sign == 1
                assert amplitude.radicand == cg_degenerate_squared(labels)
            m1, m2 = list(row.entries)[len(row.entries) // 2]
            labels = CgLabels.from_twice(ta, m1.twice, tb, m2.twice, ta + tb, m1.twice + m2.twice)
            assert row.amplitude(m1, m2) == cg_racah(labels)

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


def _literal_zsum(labels: CgLabels) -> list[tuple[int, int]]:
    """The Racah z-sum from math.comb, over every z where all three
    binomials are in support."""
    ta, tb, tc = labels.a.twice, labels.b.twice, labels.c.twice
    p, q, r = (ta + tb - tc) // 2, (ta - tb + tc) // 2, (tb + tc - ta) // 2
    am, bp = (ta - labels.alpha.twice) // 2, (tb + labels.beta.twice) // 2
    return [
        (z, (-1) ** z * math.comb(p, z) * math.comb(q, am - z) * math.comb(r, bp - z))
        for z in range(min(p, am, bp) + 1)
        if am - z <= q and bp - z <= r
    ]


def test_racah_zsum_recurrence_matches_literal_binomials_small():
    checked = 0
    for ta, tb in itertools.product(range(11), repeat=2):
        for tc in range(abs(ta - tb), ta + tb + 1, 2):
            for tal, tbe in itertools.product(range(-ta, ta + 1, 2), range(-tb, tb + 1, 2)):
                if abs(tal + tbe) > tc:
                    continue
                labels = CgLabels.from_twice(ta, tal, tb, tbe, tc, tal + tbe)
                assert selection_rules_satisfied(labels)
                assert racah_zsum_terms(labels) == _literal_zsum(labels)
                checked += 1
    assert checked == 20_240


def test_racah_zsum_recurrence_matches_literal_binomials_from_shifted_start():
    # 2j from 100 to 1000 with the z range starting above 0 (am > q or bp > r),
    # so the first term is not the plain C(q, am) C(r, bp)
    rng = random.Random(20261018)
    checked = 0
    while checked < 200:
        ta, tb = rng.randint(100, 1000), rng.randint(100, 1000)
        tc = rng.randrange(abs(ta - tb), ta + tb + 1, 2)
        tal, tbe = rng.randrange(-ta, ta + 1, 2), rng.randrange(-tb, tb + 1, 2)
        if abs(tal + tbe) > tc:
            continue
        labels = CgLabels.from_twice(ta, tal, tb, tbe, tc, tal + tbe)
        terms = _literal_zsum(labels)
        if terms[0][0] == 0:
            continue
        assert racah_zsum_terms(labels) == terms
        checked += 1


def test_racah_and_3f2_agree_at_2j_up_to_4000():
    label_sets = [
        (1000, 2, 1000, 0, 1000, 2),
        (1001, 11, 999, -3, 1200, 8),
        (4000, 2, 4000, -2, 4800, 0),
        (1999, -101, 2001, 51, 1000, -50),
        (4000, 2, 4000, 0, 4000, 2),
        (4001, 3, 3999, -1, 3000, 2),
    ]
    for twice in label_sets:
        labels = CgLabels.from_twice(*twice)
        assert selection_rules_satisfied(labels)
        value = cg_racah(labels)
        assert not value.is_zero
        assert value == cg_3f2(labels)


def test_racah_and_3f2_both_vanish_by_cancellation_at_2j_2000():
    # <1000 0; 1000 0 | 1001 0> breaks no selection rule and its z-sum has
    # 1000 nonzero terms, yet it cancels exactly (a + b + c is odd)
    labels = CgLabels.from_twice(2000, 0, 2000, 0, 2002, 0)
    assert selection_rules_satisfied(labels)
    terms = racah_zsum_terms(labels)
    assert len(terms) == 1000 and all(t != 0 for _, t in terms)
    assert sum(t for _, t in terms) == 0
    assert cg_racah(labels).is_zero
    assert cg_3f2(labels).is_zero
