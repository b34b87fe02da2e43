"""Hypergeometric and binomial distributions over exact rationals.

Pmf, generating functions, moments, convolution closure, the conditional
probability of two binomial components given their sum, and the exact
total-variation analysis of the binomial limit. The mgf is the single
non-exact operation; it is an arbitrary-precision numeric evaluation over
the exact pmf, never a parallel implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Context, Decimal, Overflow, localcontext
from fractions import Fraction

from .angular import DegenerateLabels
from .exact import binomial
from .hypseries import SeriesParams2F1, eval_2f1

__all__ = [
    "BinomialParams",
    "DegenerateConditioningError",
    "DegenerateDistributionError",
    "HypergeomParams",
    "IndivisibleN3Error",
    "MismatchedPError",
    "PmfTable",
    "SupportTooSmallError",
    "UnsupportedParameterRegimeError",
    "binomial_convolve",
    "binomial_limit_tv",
    "binomial_pmf",
    "conditional_probability",
    "hypergeom_mean",
    "hypergeom_mgf",
    "hypergeom_pgf",
    "hypergeom_pmf",
    "hypergeom_variance",
]


class UnsupportedParameterRegimeError(ValueError):
    """The 2F1 form of the generating function needs n3 - n1 - n2 + 1 >= 1."""


class DegenerateDistributionError(ValueError):
    """Variance needs at least two items to draw from."""


class MismatchedPError(ValueError):
    """Convolution closure requires a common success probability."""


class DegenerateConditioningError(ValueError):
    """Conditioning on the total is degenerate at p = 0 or p = 1."""


class IndivisibleN3Error(ValueError):
    """n3 is not a multiple of denominator(p), so n1 = p*n3 is not an integer."""


class SupportTooSmallError(ValueError):
    """n2 exceeds min(n1, n3 - n1); the comparison needs full support [0, n2]."""


@dataclass(frozen=True)
class HypergeomParams:
    """Draw n2 items from n3 of which n1 are marked; X counts marked draws."""

    n1: int
    n2: int
    n3: int

    def __post_init__(self) -> None:
        if not 0 <= self.n1 <= self.n3:
            raise ValueError(f"need 0 <= n1 <= n3, got n1={self.n1}, n3={self.n3}")
        if not 0 <= self.n2 <= self.n3:
            raise ValueError(f"need 0 <= n2 <= n3, got n2={self.n2}, n3={self.n3}")

    def support(self) -> range:
        return range(max(0, self.n1 + self.n2 - self.n3), min(self.n1, self.n2) + 1)


@dataclass(frozen=True)
class BinomialParams:
    """Number of trials and an exact success probability."""

    trials: int
    p: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", Fraction(self.p))
        if self.trials < 0:
            raise ValueError(f"trials must be nonnegative, got {self.trials}")
        if not 0 <= self.p <= 1:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")


@dataclass(frozen=True)
class PmfTable:
    """Finite pmf as (outcome, probability) pairs; exact and normalized."""

    entries: tuple[tuple[int, Fraction], ...]

    def __post_init__(self) -> None:
        entries = tuple((int(x), Fraction(q)) for x, q in self.entries)
        object.__setattr__(self, "entries", entries)
        if any(q < 0 for _, q in entries):
            raise ValueError("probabilities must be nonnegative")
        # summed on integers over the common denominator, not as Fractions
        # that reduce after every addition
        common = math.lcm(*(q.denominator for _, q in entries))
        if sum(q.numerator * (common // q.denominator) for _, q in entries) != common:
            raise ValueError("probabilities must sum to 1 exactly")
        outcomes = [x for x, _ in entries]
        if any(x >= y for x, y in zip(outcomes, outcomes[1:])):
            raise ValueError("outcomes must be strictly increasing")

    def probability(self, outcome: int) -> Fraction:
        for x, q in self.entries:
            if x == outcome:
                return q
        return Fraction(0)


def hypergeom_pmf(params: HypergeomParams, x: int) -> Fraction:
    """C(n1,x) C(n3-n1,n2-x) / C(n3,n2); zero outside the support."""
    return Fraction(
        binomial(params.n1, x) * binomial(params.n3 - params.n1, params.n2 - x),
        binomial(params.n3, params.n2),
    )


def _pgf_series(params: HypergeomParams, argument: Fraction) -> Fraction:
    lower = params.n3 - params.n1 - params.n2 + 1
    if lower <= 0:
        raise UnsupportedParameterRegimeError(
            f"generating function needs n3 - n1 - n2 + 1 >= 1, got {lower}"
        )
    prefactor = Fraction(
        binomial(params.n3 - params.n1, params.n2), binomial(params.n3, params.n2)
    )
    series = eval_2f1(SeriesParams2F1((-params.n1, -params.n2), lower, argument))
    return prefactor * series


def hypergeom_pgf(params: HypergeomParams, t: Fraction | int) -> Fraction:
    """G(t) = sum_x pmf(x) t^x, via the terminating 2F1 form."""
    return _pgf_series(params, Fraction(t))


def hypergeom_mgf(params: HypergeomParams, t: Decimal | str | int, digits: int) -> Decimal:
    """M(t) = sum_x pmf(x) e^(t x) to `digits` significant digits.

    The pmf is exact; only e^(tx) is numeric. Equals G(e^t) by construction.
    Raises OverflowError when some e^(tx) exceeds the largest decimal.
    """
    if digits < 1:
        raise ValueError(f"digits must be positive, got {digits}")
    lower = params.n3 - params.n1 - params.n2 + 1
    if lower <= 0:
        raise UnsupportedParameterRegimeError(
            f"generating function needs n3 - n1 - n2 + 1 >= 1, got {lower}"
        )
    t_dec = t if isinstance(t, Decimal) else Decimal(str(t))
    with localcontext(Context(prec=digits + 10)) as ctx:
        total = Decimal(0)
        for x in params.support():
            q = hypergeom_pmf(params, x)
            weight = Decimal(q.numerator) / Decimal(q.denominator)
            try:
                total += weight * (t_dec * x).exp()
            except Overflow:
                raise OverflowError(
                    f"mgf overflows at {digits} digits: e^(t*x) at t = {t_dec}, x = {x} "
                    f"exceeds the largest decimal (exponent {ctx.Emax})"
                ) from None
    return Context(prec=digits).plus(total)


def hypergeom_mean(params: HypergeomParams) -> Fraction:
    """E[X] = n1 n2 / n3."""
    if params.n3 < 1:
        raise ValueError("mean needs n3 >= 1")
    return Fraction(params.n1 * params.n2, params.n3)


def hypergeom_variance(params: HypergeomParams) -> Fraction:
    """Var[X] = n1 n2 (n3-n1)(n3-n2) / (n3^2 (n3-1))."""
    if params.n3 < 2:
        raise DegenerateDistributionError("variance needs n3 >= 2")
    n1, n2, n3 = params.n1, params.n2, params.n3
    return Fraction(n1 * n2 * (n3 - n1) * (n3 - n2), n3 * n3 * (n3 - 1))


def _pmf_numerator(params: BinomialParams, r: int) -> int:
    """C(trials, r) u^r (v-u)^(trials-r) for p = u/v, with r in [0, trials].

    This is the pmf at r times v^trials: every value of one binomial law
    shares that denominator, so callers work on these integers and build
    one Fraction per result. At p = 0 and p = 1 the empty power 0**0 is 1.
    """
    u, v = params.p.numerator, params.p.denominator
    return binomial(params.trials, r) * u**r * (v - u) ** (params.trials - r)


def binomial_pmf(params: BinomialParams, r: int) -> Fraction:
    """C(trials, r) p^r (1-p)^(trials-r); zero outside [0, trials]."""
    if r < 0 or r > params.trials:
        return Fraction(0)
    return Fraction(_pmf_numerator(params, r), params.p.denominator**params.trials)


def binomial_convolve(a: BinomialParams, b: BinomialParams) -> PmfTable:
    """Exact pmf of the sum of two independent binomial draws.

    Requires a common p = u/v; the result equals the single binomial with
    trials = a.trials + b.trials pointwise. Both pmfs are taken as integer
    numerators over v^a.trials and v^b.trials, so the value at k is

        sum_j num_a(j) num_b(k - j) / v^(a.trials + b.trials),

    summed on plain integers and reduced once per k. The double loop stays a
    literal convolution on purpose: closure under convolution is an identity
    the verify suite checks, and computing the result from the merged law
    (or Vandermonde's identity) would make that check true by construction.
    """
    if a.p != b.p:
        raise MismatchedPError(f"common p required, got {a.p} and {b.p}")
    num_a = [_pmf_numerator(a, j) for j in range(a.trials + 1)]
    num_b = [_pmf_numerator(b, j) for j in range(b.trials + 1)]
    denominator = a.p.denominator ** (a.trials + b.trials)
    entries = []
    for k in range(a.trials + b.trials + 1):
        # j and k - j outside the two supports contribute zero terms
        total = sum(
            num_a[j] * num_b[k - j]
            for j in range(max(0, k - b.trials), min(k, a.trials) + 1)
        )
        entries.append((k, Fraction(total, denominator)))
    return PmfTable(tuple(entries))


def conditional_probability(labels: DegenerateLabels, p: Fraction | int | str) -> Fraction:
    """P(component counts | total count) for two independent binomial draws.

    Computed literally as the quotient of pmf values; every power of p
    cancels, leaving C(l1,k1) C(l2,k2) / C(l,k) independent of p.
    """
    p = Fraction(p)
    if not 0 < p < 1:
        raise DegenerateConditioningError(f"p must lie strictly inside (0, 1), got {p}")
    numerator = binomial_pmf(BinomialParams(labels.l1, p), labels.k1) * binomial_pmf(
        BinomialParams(labels.l2, p), labels.k2
    )
    denominator = binomial_pmf(BinomialParams(labels.l, p), labels.k)
    return numerator / denominator


def binomial_limit_tv(
    p: Fraction | int | str, n2: int, n3_sequence: list[int]
) -> list[tuple[int, Fraction]]:
    """Exact total variation distance between the hypergeometric law with
    n1 = p*n3 and the binomial(n2, p) law, for each n3 in the sequence.

    n3 must be a multiple of denominator(p) so that n1 is an exact integer,
    and n2 must fit inside min(n1, n3 - n1) so both laws share the full
    support [0, n2].
    """
    p = Fraction(p)
    results = []
    for n3 in n3_sequence:
        if n3 <= 0:
            raise ValueError(f"n3 must be positive, got {n3}")
        if n3 % p.denominator:
            raise IndivisibleN3Error(f"n3 = {n3} is not a multiple of {p.denominator}")
        n1 = int(p * n3)
        if n2 > min(n1, n3 - n1):
            raise SupportTooSmallError(
                f"n2 = {n2} exceeds min(n1, n3 - n1) = {min(n1, n3 - n1)} at n3 = {n3}"
            )
        hyp = HypergeomParams(n1, n2, n3)
        bin_params = BinomialParams(n2, p)
        distance = (
            sum(
                (abs(hypergeom_pmf(hyp, x) - binomial_pmf(bin_params, x)) for x in range(n2 + 1)),
                Fraction(0),
            )
            / 2
        )
        results.append((n3, distance))
    return results
