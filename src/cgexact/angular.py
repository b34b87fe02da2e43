"""Clebsch-Gordan and 3jm coefficients over exact arithmetic.

Three independent backends: the Racah alternating binomial sum, the 3F2
series route, and a ladder-operator construction of the stretched
(c = a + b) multiplet that serves as an oracle for the other two. Every
coefficient is a SignedSqrtRational, so agreement checks are exact.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import mul

from .exact import (
    _ZERO,
    SignedSqrtRational,
    _binomial_quotient,
    _fraction,
    _reduced,
    _trusted,
    binomial,
    factorial,
)
from .hypseries import _terminating_sum

__all__ = [
    "CgLabels",
    "DegenerateLabels",
    "HalfInt",
    "InvalidLabelsError",
    "ProductStateVector",
    "cg_3f2",
    "cg_degenerate_squared",
    "cg_ladder_rows",
    "cg_ladder_stretched",
    "cg_racah",
    "cg_to_3jm",
    "delta_abc",
    "racah_zsum_terms",
    "selection_rule_violation",
]


class InvalidLabelsError(ValueError):
    """Structural invariant violated: out-of-range projection, parity
    mismatch, or negative momentum. Distinct from selection-rule zeros."""


@dataclass(frozen=True)
class HalfInt:
    """Half-integer stored as twice its value; callers compute on `twice`, so
    all arithmetic stays integral."""

    twice: int

    @classmethod
    def parse(cls, text: str) -> "HalfInt":
        """Accepts "k" (integer) and "k/2" (halves) forms; "3/2" means twice = 3."""
        s = text.strip()
        if s.endswith("/2"):
            return cls(int(s[:-2]))
        return cls(2 * int(s))

    def __str__(self) -> str:
        return str(self.twice // 2) if self.twice % 2 == 0 else f"{self.twice}/2"


# HalfInt(t) for every |t| <= _HALF_MAX, built once: labels of that size
# share these instances instead of building their own. 513 entries, about
# 50 kB.
_HALF_MAX = 256
_HALVES = tuple(map(HalfInt, range(-_HALF_MAX, _HALF_MAX + 1)))


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
        """The labels with twice each quantum number given, a = ta/2 and so on.

        Labels that pass __post_init__'s checks, made here on the six ints,
        and whose spins are in the shared HalfInt table are built from its
        entries without running the checks again: the six fields go into the
        instance dict in one update, past the frozen dataclass's per-field
        __setattr__. Anything else goes through the constructor, so its
        errors are the constructor's own.
        """
        try:
            # -j <= m <= j makes j nonnegative; j <= _HALF_MAX keeps m in the table
            if (
                -ta <= tal <= ta <= _HALF_MAX
                and -tb <= tbe <= tb <= _HALF_MAX
                and -tc <= tg <= tc <= _HALF_MAX
                and not ((ta ^ tal) | (tb ^ tbe) | (tc ^ tg)) & 1
            ):
                labels = object.__new__(cls)
                labels.__dict__.update(
                    a=_HALVES[ta + _HALF_MAX],
                    alpha=_HALVES[tal + _HALF_MAX],
                    b=_HALVES[tb + _HALF_MAX],
                    beta=_HALVES[tbe + _HALF_MAX],
                    c=_HALVES[tc + _HALF_MAX],
                    gamma=_HALVES[tg + _HALF_MAX],
                )
                return labels
        except TypeError:  # not ints: the constructor decides
            pass
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
        l1, l2, k1, k2 = self.l1, self.l2, self.k1, self.k2
        return CgLabels.from_twice(
            l1, l1 - 2 * k1, l2, l2 - 2 * k2, l1 + l2, l1 + l2 - 2 * (k1 + k2)
        )


@dataclass(frozen=True)
class ProductStateVector:
    """Amplitudes over the product basis |a m1> (x) |b m2>, keyed by the ints
    (2m1, 2m2); `amplitude` takes m1 and m2 as HalfInts."""

    entries: dict[tuple[int, int], SignedSqrtRational]

    def amplitude(self, m1: HalfInt, m2: HalfInt) -> SignedSqrtRational:
        return self.entries.get((m1.twice, m2.twice), _ZERO)


def _triangle_violation(ta: int, tb: int, tc: int) -> str | None:
    """The first of the triangle rule on (a, b, c) and integral a + b + c
    that twice the momenta break, described; None if both hold. The triangle
    rule makes all three nonnegative."""
    if not abs(ta - tb) <= tc <= ta + tb:
        return "selection rule: triangle(a, b, c) violated"
    if (ta + tb + tc) % 2:
        return "selection rule: a+b+c is not an integer"
    return None


def selection_rule_violation(labels: CgLabels) -> str | None:
    """The first selection rule the labels break, described; None if all hold.

    The rules, in order: gamma = alpha + beta, the triangle rule on
    (a, b, c), and integral a + b + c.
    """
    if labels.gamma.twice != labels.alpha.twice + labels.beta.twice:
        return "selection rule: gamma != alpha+beta"
    return _triangle_violation(labels.a.twice, labels.b.twice, labels.c.twice)


def racah_zsum_terms(labels: CgLabels) -> list[tuple[int, int]]:
    """The alternating binomial sum of the Racah formula, term by term.

    Returns (z, t_z) pairs, t_z = (-1)^z C(p, z) C(q, am-z) C(r, bp-z) with
    p = a+b-c, q = a-b+c, r = b+c-a, am = a-alpha, bp = b+beta, over exactly
    the z range where all three binomials are simultaneously in support.
    Only the first term is built from its binomials; each later one comes
    from the term ratio

        t_{z+1} = -t_z (p-z)(am-z)(bp-z) / ((z+1)(q-am+z+1)(r-bp+z+1)),

    whose denominator is positive on the range (z >= am-q and z >= bp-r)
    and whose division is exact because t_{z+1} is an integer. Requires the
    selection rules to hold (the sum is undefined otherwise).
    """
    if selection_rule_violation(labels) is not None:
        raise ValueError("z-sum is only defined when the selection rules hold")
    ta, tb, tc = labels.a.twice, labels.b.twice, labels.c.twice
    p = (ta + tb - tc) // 2  # a+b-c
    q = (ta - tb + tc) // 2  # a-b+c
    r = (tb + tc - ta) // 2  # b+c-a
    am = (ta - labels.alpha.twice) // 2  # a-alpha
    bp = (tb + labels.beta.twice) // 2  # b+beta
    z0 = max(0, am - q, bp - r)
    t = binomial(p, z0) * binomial(q, am - z0) * binomial(r, bp - z0)
    t = -t if z0 % 2 else t
    terms = []
    for z in range(z0, min(p, am, bp) + 1):
        terms.append((z, t))
        t = -t * ((p - z) * (am - z) * (bp - z)) // (
            (z + 1) * (q - am + z + 1) * (r - bp + z + 1)
        )
    return terms


def cg_racah(labels: CgLabels) -> SignedSqrtRational:
    """Clebsch-Gordan coefficient via the Racah binomial-sum formula.

    Zero when the selection rules fail; otherwise the alternating z-sum
    carries the sign and the binomial-ratio prefactor sits under the root.
    The z-sum is racah_zsum_terms: its first term from three binomials,
    each later one as the previous times an integer ratio whose division is
    exact, because every term is an integer.
    """
    if selection_rule_violation(labels) is not None:
        return _ZERO
    zsum = sum(t for _, t in racah_zsum_terms(labels))
    if zsum == 0:
        return _ZERO
    ta, tb, tc = labels.a.twice, labels.b.twice, labels.c.twice
    p = (ta + tb - tc) // 2
    bracket = _fraction(
        binomial(ta, p) * binomial(tb, p),
        binomial((ta + tb + tc) // 2 + 1, p)
        * binomial(ta, (ta - labels.alpha.twice) // 2)
        * binomial(tb, (tb - labels.beta.twice) // 2)
        * binomial(tc, (tc - labels.gamma.twice) // 2),
    )
    return SignedSqrtRational.from_scaled_sqrt(zsum, bracket)


def delta_abc(a: HalfInt, b: HalfInt, c: HalfInt) -> SignedSqrtRational:
    """Triangle coefficient sqrt[(a+b-c)!(a-b+c)!(-a+b+c)!/(a+b+c+1)!].

    Raises ValueError unless (a, b, c) satisfy the triangle rule with an
    integral sum a + b + c, since a factorial would have a negative or
    half-integral argument.
    """
    ta, tb, tc = a.twice, b.twice, c.twice
    if _triangle_violation(ta, tb, tc):
        raise ValueError(f"({a}, {b}, {c}) violates the triangle rule")
    radicand = _fraction(
        factorial((ta + tb - tc) // 2)
        * factorial((ta - tb + tc) // 2)
        * factorial((tb + tc - ta) // 2),
        factorial((ta + tb + tc) // 2 + 1),
    )
    return _trusted(1, radicand)


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
    coefficient is Delta(abc) * (S / p!) * sqrt(bracket), formed by one
    product, and it agrees with cg_racah exactly on every input.
    """
    if selection_rule_violation(labels) is not None:
        return _ZERO
    ta, tb, tc = labels.a.twice, labels.b.twice, labels.c.twice
    tal, tbe, tg = labels.alpha.twice, labels.beta.twice, labels.gamma.twice
    p = (ta + tb - tc) // 2  # a+b-c
    am = (ta - tal) // 2  # a-alpha
    ap = (ta + tal) // 2  # a+alpha
    bp = (tb + tbe) // 2  # b+beta
    bm = (tb - tbe) // 2  # b-beta
    b1 = (tc - ta - tbe) // 2 + 1  # -a+c-beta+1
    b2 = (tc - tb + tal) // 2 + 1  # -b+c+alpha+1
    bracket = _fraction(
        factorial(ap)
        * factorial(bm)
        * factorial((tc + tg) // 2)
        * factorial((tc - tg) // 2)
        * (tc + 1),
        factorial(am) * factorial(bp),
    )
    # The selection rules put k0 at or below the cutoff min(p, am, bp).
    k0 = max(0, 1 - b1, 1 - b2)
    first_num = math.perm(p, k0) * math.perm(am, k0) * math.perm(bp, k0)
    first_den = factorial(k0) * factorial(b1 + k0 - 1) * factorial(b2 + k0 - 1) * factorial(p)
    coeff = _terminating_sum(
        (-p, -am, -bp), (b1, b2), 1, k0, min(p, am, bp),
        -first_num if k0 % 2 else first_num, first_den,
    )
    return delta_abc(labels.a, labels.b, labels.c) * SignedSqrtRational.from_scaled_sqrt(coeff, bracket)


def cg_degenerate_squared(labels: DegenerateLabels) -> Fraction:
    """Squared stretched coefficient as the three-binomial ratio
    C(l1,k1) C(l2,k2) / C(l,k), in lowest terms. The ratio is `exact`'s
    quotient kernel, `_binomial_quotient`: the literal quotient of three
    binomials below its rule, prime exponents from it on. The labels hold
    the kernel's contract, 0 <= k1 <= l1 and 0 <= k2 <= l2."""
    return _binomial_quotient(labels.l1, labels.k1, labels.l2, labels.k2)


def _lowering_factor(tj: int, tm: int) -> int:
    """(j + m)(j - m + 1), the squared amplitude of |j m> -> |j m-1>."""
    return ((tj + tm) // 2) * ((tj - tm) // 2 + 1)


def _check_spins(a: HalfInt, b: HalfInt) -> None:
    if a.twice < 0 or b.twice < 0:
        raise InvalidLabelsError(f"momenta must be nonnegative, got {a}, {b}")


def _lowering_radicals(tj: int) -> list[int]:
    """The radicals of |j j> lowered 0..2j times: running `_lowering_factor` products."""
    factors = (_lowering_factor(tj, tm) for tm in range(tj, -tj, -2))
    return list(accumulate(factors, mul, initial=1))


def _lowering_states(ta: int, tb: int, first: int) -> Iterator[ProductStateVector]:
    """Normalised lowering states of |a a> (x) |b b>, depth first to 2a+2b.

    At depth s, key j is (2m1, 2m2) = (ta - 2(s - j), tb - 2j). Before
    normalising its amplitude is count * sqrt(R1[s-j] R2[j]): count is the
    number of lowering paths into the key, and R1, R2 are each spin's
    `_lowering_radicals`, which no path changes. A row is a list of counts
    over j = lo..hi, and the next is J- = J1- + J2- on it: count'[j] =
    count[j-1] + count[j], the first term while spin 2 can still lower and
    the second while spin 1 can, a literal sum of positive path counts, so
    every sign is +1. Only the rows yielded are normalised.
    """
    r1, r2 = _lowering_radicals(ta), _lowering_radicals(tb)
    lo, counts = 0, [1]
    for s in range(ta + tb + 1):
        if s:
            summed = [x + y for x, y in zip([0, *counts], [*counts, 0])]
            new_lo = max(0, s - ta)
            counts = summed[new_lo - lo : min(tb, s) - lo + 1]
            lo = new_lo
        if s < first:
            continue
        squares = [c * c * r1[s - j] * r2[j] for j, c in enumerate(counts, lo)]
        norm2 = sum(squares)
        yield ProductStateVector(
            {
                (ta - 2 * (s - j), tb - 2 * j): _trusted(1, _fraction(q, norm2))
                for j, q in enumerate(squares, lo)
            }
        )


def cg_ladder_stretched(a: HalfInt, b: HalfInt, steps: int) -> ProductStateVector:
    """Stretched-family coefficients built by repeated exact lowering.

    Starts from |a a> (x) |b b>, applies the total lowering operator
    `steps` times to the path counts, and normalises that row alone. The
    resulting amplitudes are the coefficients <a m1; b m2 | c gamma> at
    c = a+b, gamma = a+b-steps. Fully independent of both series backends.
    Raises ValueError when the lowering depth `steps` is outside [0, 2(a+b)].
    """
    _check_spins(a, b)
    if not 0 <= steps <= a.twice + b.twice:
        raise ValueError(f"steps must lie in [0, {a.twice + b.twice}], got {steps}")
    return next(_lowering_states(a.twice, b.twice, steps))


def cg_ladder_rows(a: HalfInt, b: HalfInt) -> Iterator[ProductStateVector]:
    """Every row of the ladder from one lowering pass.

    Yields cg_ladder_stretched(a, b, steps) for steps = 0, 1, ..., 2a+2b in
    order, lowering once per row and normalising each row as it is yielded.
    """
    _check_spins(a, b)
    return _lowering_states(a.twice, b.twice, 0)


def cg_to_3jm(labels: CgLabels, cg: SignedSqrtRational) -> SignedSqrtRational:
    """3jm symbol with lower row (alpha, beta, -gamma) from the CG value: one
    product with (-1)^(a-b+gamma) / sqrt(2c+1), whose sign is the phase.

    A zero value is returned as zero before the phase is taken: labels with
    a half-integral a - b + gamma break gamma = alpha + beta, so their
    symbol is 0. The value comes from the caller, so a nonzero one with such
    labels raises ValueError, since (-1)^(a-b+gamma) has no value.
    """
    if cg.is_zero:
        return _ZERO
    phase_twice = labels.a.twice - labels.b.twice + labels.gamma.twice
    if phase_twice % 2:
        raise ValueError(f"a - b + gamma = {HalfInt(phase_twice)} is not an integer")
    return cg * _trusted(-1 if phase_twice % 4 else 1, _reduced(1, labels.c.twice + 1))
