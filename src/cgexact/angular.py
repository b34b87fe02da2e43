"""Clebsch-Gordan and 3jm coefficients over exact arithmetic.

Three independent backends: the Racah alternating binomial sum, the 3F2
series route, and a ladder-operator construction of the stretched
(c = a + b) multiplet that serves as an oracle for the other two. Every
coefficient is a SignedSqrtRational, so agreement checks are exact.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .exact import SignedSqrtRational, binomial, factorial
from .hypseries import _terminating_sum

__all__ = [
    "CgLabels",
    "DegenerateLabels",
    "HalfInt",
    "InvalidLabelsError",
    "PhaseUndefinedError",
    "ProductStateVector",
    "StepsOutOfRangeError",
    "TriangleViolationError",
    "cg_3f2",
    "cg_degenerate_squared",
    "cg_ladder_rows",
    "cg_ladder_stretched",
    "cg_racah",
    "cg_to_3jm",
    "delta_abc",
    "racah_zsum_terms",
    "selection_rule_violation",
    "selection_rules_satisfied",
]


class InvalidLabelsError(ValueError):
    """Structural invariant violated: out-of-range projection, parity
    mismatch, or negative momentum. Distinct from selection-rule zeros."""


class TriangleViolationError(ValueError):
    """(a, b, c) do not satisfy the triangle rule with integral sum."""


class StepsOutOfRangeError(ValueError):
    """Lowering depth outside [0, 2(a+b)]."""


class PhaseUndefinedError(ValueError):
    """a - b + gamma is not an integer, so (-1)^(a-b+gamma) has no value."""


@dataclass(frozen=True, order=True)
class HalfInt:
    """Half-integer stored as twice its value, so all arithmetic stays integral."""

    twice: int

    @classmethod
    def from_int(cls, value: int) -> "HalfInt":
        return cls(2 * value)

    @classmethod
    def parse(cls, text: str) -> "HalfInt":
        """Accepts "k" (integer) and "k/2" (halves) forms; "3/2" means twice = 3."""
        s = text.strip()
        if s.endswith("/2"):
            return cls(int(s[:-2]))
        return cls(2 * int(s))

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def as_int(self) -> int:
        if not self.is_integer:
            raise ValueError(f"{self} is not an integer")
        return self.twice // 2

    def __add__(self, other: "HalfInt") -> "HalfInt":
        return HalfInt(self.twice + other.twice)

    def __sub__(self, other: "HalfInt") -> "HalfInt":
        return HalfInt(self.twice - other.twice)

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.twice)

    def __abs__(self) -> "HalfInt":
        return HalfInt(abs(self.twice))

    def __str__(self) -> str:
        return str(self.twice // 2) if self.is_integer else f"{self.twice}/2"


@dataclass(frozen=True)
class CgLabels:
    """The six quantum numbers of a coupling <a alpha; b beta | c gamma>.

    Construction enforces structural validity (|m| <= j, matching parity,
    nonnegative momenta). Selection-rule violations are legal labels whose
    coefficient is zero.
    """

    a: HalfInt
    alpha: HalfInt
    b: HalfInt
    beta: HalfInt
    c: HalfInt
    gamma: HalfInt

    def __post_init__(self) -> None:
        triples = (
            (self.a, self.alpha, "a", "alpha"),
            (self.b, self.beta, "b", "beta"),
            (self.c, self.gamma, "c", "gamma"),
        )
        for j, m, j_name, m_name in triples:
            if j.twice < 0:
                raise InvalidLabelsError(f"{j_name} must be nonnegative, got {j}")
            if abs(m.twice) > j.twice:
                raise InvalidLabelsError(f"{m_name} = {m} out of range for {j_name} = {j}")
            if (j.twice + m.twice) % 2:
                raise InvalidLabelsError(f"{j_name} = {j} and {m_name} = {m} differ in parity")

    @classmethod
    def from_twice(cls, ta: int, tal: int, tb: int, tbe: int, tc: int, tg: int) -> "CgLabels":
        return cls(HalfInt(ta), HalfInt(tal), HalfInt(tb), HalfInt(tbe), HalfInt(tc), HalfInt(tg))


@dataclass(frozen=True)
class DegenerateLabels:
    """Stretched-coupling labels: spins l1/2 and l2/2 with projections
    l_i/2 - k_i, coupled to l/2 with projection l/2 - k (l = l1+l2, k = k1+k2)."""

    l1: int
    k1: int
    l2: int
    k2: int

    def __post_init__(self) -> None:
        if self.l1 < 0 or self.l2 < 0:
            raise InvalidLabelsError(f"l1, l2 must be nonnegative, got {self.l1}, {self.l2}")
        if not 0 <= self.k1 <= self.l1:
            raise InvalidLabelsError(f"k1 = {self.k1} out of range [0, {self.l1}]")
        if not 0 <= self.k2 <= self.l2:
            raise InvalidLabelsError(f"k2 = {self.k2} out of range [0, {self.l2}]")

    @property
    def l(self) -> int:
        return self.l1 + self.l2

    @property
    def k(self) -> int:
        return self.k1 + self.k2

    def to_cg_labels(self) -> CgLabels:
        return CgLabels.from_twice(
            self.l1,
            self.l1 - 2 * self.k1,
            self.l2,
            self.l2 - 2 * self.k2,
            self.l,
            self.l - 2 * self.k,
        )


@dataclass(frozen=True)
class ProductStateVector:
    """Amplitudes over the product basis |a m1> (x) |b m2>, keyed by (m1, m2)."""

    entries: dict[tuple[HalfInt, HalfInt], SignedSqrtRational]

    def amplitude(self, m1: HalfInt, m2: HalfInt) -> SignedSqrtRational:
        return self.entries.get((m1, m2), SignedSqrtRational.zero())

    def norm_squared(self) -> Fraction:
        """Exact squared norm; signs square away, so this is a radicand sum."""
        return sum((v.radicand for v in self.entries.values()), Fraction(0))


def selection_rule_violation(labels: CgLabels) -> str | None:
    """The first selection rule the labels break, described; None if all hold.

    The rules, in order: gamma = alpha + beta, the triangle rule on
    (a, b, c), and integral a + b + c.
    """
    if labels.gamma.twice != labels.alpha.twice + labels.beta.twice:
        return "selection rule: gamma != alpha+beta"
    ta, tb, tc = labels.a.twice, labels.b.twice, labels.c.twice
    if not abs(ta - tb) <= tc <= ta + tb:
        return "selection rule: triangle(a, b, c) violated"
    if (ta + tb + tc) % 2:
        return "selection rule: a+b+c is not an integer"
    return None


def selection_rules_satisfied(labels: CgLabels) -> bool:
    """gamma = alpha + beta, the triangle rule, and integral a + b + c."""
    return selection_rule_violation(labels) is None


def racah_zsum_terms(labels: CgLabels) -> list[tuple[int, int]]:
    """The alternating binomial sum of the Racah formula, term by term.

    Returns (z, signed term) pairs over exactly the z range where all three
    binomials are simultaneously in support. Requires the selection rules to
    hold (the sum is undefined otherwise).
    """
    if not selection_rules_satisfied(labels):
        raise ValueError("z-sum is only defined when the selection rules hold")
    ta, tb, tc = labels.a.twice, labels.b.twice, labels.c.twice
    p = (ta + tb - tc) // 2  # a+b-c
    q = (ta - tb + tc) // 2  # a-b+c
    r = (tb + tc - ta) // 2  # b+c-a
    am = (ta - labels.alpha.twice) // 2  # a-alpha
    bp = (tb + labels.beta.twice) // 2  # b+beta
    terms = []
    for z in range(max(0, am - q, bp - r), min(p, am, bp) + 1):
        t = binomial(p, z) * binomial(q, am - z) * binomial(r, bp - z)
        terms.append((z, -t if z % 2 else t))
    return terms


def cg_racah(labels: CgLabels) -> SignedSqrtRational:
    """Clebsch-Gordan coefficient via the Racah binomial-sum formula.

    Zero when the selection rules fail; otherwise the alternating z-sum
    carries the sign and the binomial-ratio prefactor sits under the root.
    """
    if not selection_rules_satisfied(labels):
        return SignedSqrtRational.zero()
    zsum = sum(t for _, t in racah_zsum_terms(labels))
    if zsum == 0:
        return SignedSqrtRational.zero()
    ta, tb, tc = labels.a.twice, labels.b.twice, labels.c.twice
    p = (ta + tb - tc) // 2
    bracket = Fraction(
        binomial(ta, p) * binomial(tb, p),
        binomial((ta + tb + tc) // 2 + 1, p)
        * binomial(ta, (ta - labels.alpha.twice) // 2)
        * binomial(tb, (tb - labels.beta.twice) // 2)
        * binomial(tc, (tc - labels.gamma.twice) // 2),
    )
    return SignedSqrtRational.from_scaled_sqrt(zsum, bracket)


def delta_abc(a: HalfInt, b: HalfInt, c: HalfInt) -> SignedSqrtRational:
    """Triangle coefficient sqrt[(a+b-c)!(a-b+c)!(-a+b+c)!/(a+b+c+1)!]."""
    ta, tb, tc = a.twice, b.twice, c.twice
    if min(ta, tb, tc) < 0 or (ta + tb + tc) % 2 or not abs(ta - tb) <= tc <= ta + tb:
        raise TriangleViolationError(f"({a}, {b}, {c}) violates the triangle rule")
    radicand = Fraction(
        factorial((ta + tb - tc) // 2)
        * factorial((ta - tb + tc) // 2)
        * factorial((tb + tc - ta) // 2),
        factorial((ta + tb + tc) // 2 + 1),
    )
    return SignedSqrtRational(1, radicand)


def cg_3f2(labels: CgLabels) -> SignedSqrtRational:
    """Clebsch-Gordan coefficient via the 3F2-at-unit-argument route.

    The series has uppers (-(a+b-c), -(a-alpha), -(b+beta)) and lowers
    b1 = c-a-beta+1, b2 = c-b+alpha+1. It is summed in regularized form,

        S = sum_k (-p)_k (-am)_k (-bp)_k / (k! (b1+k-1)! (b2+k-1)!),

    with p = a+b-c, am = a-alpha, bp = b+beta, reading reciprocal factorials
    of negative integers as zero: the sum starts at k0 = max(0, 1-b1, 1-b2)
    and runs to min(p, am, bp). When b1, b2 >= 1 this is the literal
    3F2 / ((b1-1)! (b2-1)!); when a lower parameter is a nonpositive integer
    the literal series is singular and only this form exists. Either way the
    coefficient is S / p! times sqrt(Delta^2 * bracket), and it agrees with
    cg_racah exactly on every input.
    """
    if not selection_rules_satisfied(labels):
        return SignedSqrtRational.zero()
    ta, tb, tc = labels.a.twice, labels.b.twice, labels.c.twice
    tal, tbe, tg = labels.alpha.twice, labels.beta.twice, labels.gamma.twice
    p = (ta + tb - tc) // 2  # a+b-c
    am = (ta - tal) // 2  # a-alpha
    ap = (ta + tal) // 2  # a+alpha
    bp = (tb + tbe) // 2  # b+beta
    bm = (tb - tbe) // 2  # b-beta
    b1 = (tc - ta - tbe) // 2 + 1  # -a+c-beta+1
    b2 = (tc - tb + tal) // 2 + 1  # -b+c+alpha+1
    bracket = Fraction(
        factorial(ap)
        * factorial(bm)
        * factorial((tc + tg) // 2)
        * factorial((tc - tg) // 2)
        * (tc + 1),
        factorial(am) * factorial(bp),
    )
    # The selection rules put k0 at or below the cutoff min(p, am, bp).
    k0 = max(0, 1 - b1, 1 - b2)
    first_num = (
        (factorial(p) // factorial(p - k0))
        * (factorial(am) // factorial(am - k0))
        * (factorial(bp) // factorial(bp - k0))
    )
    first_den = factorial(k0) * factorial(b1 + k0 - 1) * factorial(b2 + k0 - 1) * factorial(p)
    coeff = _terminating_sum(
        (-p, -am, -bp), (b1, b2), 1, k0, min(p, am, bp),
        -first_num if k0 % 2 else first_num, first_den,
    )
    delta2 = delta_abc(labels.a, labels.b, labels.c).radicand
    return SignedSqrtRational.from_scaled_sqrt(coeff, delta2 * bracket)


def cg_degenerate_squared(labels: DegenerateLabels) -> Fraction:
    """Squared stretched coefficient as the three-binomial ratio
    C(l1,k1) C(l2,k2) / C(l,k)."""
    return Fraction(
        binomial(labels.l1, labels.k1) * binomial(labels.l2, labels.k2),
        binomial(labels.l, labels.k),
    )


def _lowering_factor(tj: int, tm: int) -> int:
    """(j + m)(j - m + 1), the squared amplitude of |j m> -> |j m-1>."""
    return ((tj + tm) // 2) * ((tj - tm) // 2 + 1)


def _check_spins(a: HalfInt, b: HalfInt) -> None:
    if a.twice < 0 or b.twice < 0:
        raise InvalidLabelsError(f"momenta must be nonnegative, got {a}, {b}")


def _lowering_states(ta: int, tb: int) -> Iterator[dict[tuple[int, int], tuple[int, int]]]:
    """Unnormalised lowering states of |a a> (x) |b b>, depth 0 to 2a+2b.

    Each state maps (2m1, 2m2) to (count, radical): the amplitude is
    count * sqrt(radical). A lowering step multiplies the radical by the
    spin's `_lowering_factor`, and every path into a key drops each spin by
    the same amount, so every path carries the same radical. Merging two
    paths therefore adds their counts, and the shared radical is checked
    exactly on every merge.
    """
    state = {(ta, tb): (1, 1)}
    yield state
    for _ in range(ta + tb):
        lowered: dict[tuple[int, int], tuple[int, int]] = {}
        for (t1, t2), (count, radical) in state.items():
            moves = (
                ((t1 - 2, t2), _lowering_factor(ta, t1)),
                ((t1, t2 - 2), _lowering_factor(tb, t2)),
            )
            for key, factor in moves:
                if factor == 0:
                    continue
                new_radical = radical * factor
                merged = lowered.get(key)
                if merged is None:
                    lowered[key] = (count, new_radical)
                    continue
                count0, radical0 = merged
                if new_radical != radical0:
                    raise ArithmeticError(
                        f"lowering paths into {key} carry radicals {radical0} and {new_radical}"
                    )
                lowered[key] = (count0 + count, radical0)
        state = lowered
        yield state


def _normalised(state: dict[tuple[int, int], tuple[int, int]]) -> ProductStateVector:
    """The state scaled to unit norm; counts are positive, so every sign is +1."""
    squares = {key: count * count * radical for key, (count, radical) in state.items()}
    norm2 = sum(squares.values())
    return ProductStateVector(
        {
            (HalfInt(t1), HalfInt(t2)): SignedSqrtRational(1, Fraction(square, norm2))
            for (t1, t2), square in squares.items()
        }
    )


def cg_ladder_stretched(a: HalfInt, b: HalfInt, steps: int) -> ProductStateVector:
    """Stretched-family coefficients built by repeated exact lowering.

    Starts from |a a> (x) |b b>, applies the total lowering operator
    `steps` times, and renormalizes exactly. The resulting amplitudes are
    the coefficients <a m1; b m2 | c gamma> at c = a+b, gamma = a+b-steps.
    Fully independent of both series backends.
    """
    _check_spins(a, b)
    if not 0 <= steps <= a.twice + b.twice:
        raise StepsOutOfRangeError(f"steps must lie in [0, {a.twice + b.twice}], got {steps}")
    states = _lowering_states(a.twice, b.twice)
    return _normalised(next(itertools.islice(states, steps, None)))


def cg_ladder_rows(a: HalfInt, b: HalfInt) -> Iterator[ProductStateVector]:
    """Every row of the ladder from one lowering pass.

    Yields cg_ladder_stretched(a, b, steps) for steps = 0, 1, ..., 2a+2b in
    order, lowering once per row instead of once per row and call.
    """
    _check_spins(a, b)
    return (_normalised(state) for state in _lowering_states(a.twice, b.twice))


def cg_to_3jm(labels: CgLabels, cg: SignedSqrtRational) -> SignedSqrtRational:
    """3jm symbol with lower row (alpha, beta, -gamma) from the CG value:
    phase (-1)^(a-b+gamma) and division by sqrt(2c+1)."""
    phase_twice = labels.a.twice - labels.b.twice + labels.gamma.twice
    if phase_twice % 2:
        raise PhaseUndefinedError(
            f"a - b + gamma = {HalfInt(phase_twice)} is not an integer"
        )
    out = cg.scale_sqrt(Fraction(1, labels.c.twice + 1))
    return -out if (phase_twice // 2) % 2 else out
