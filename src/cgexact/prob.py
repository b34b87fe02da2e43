"""Hypergeometric and binomial distributions over exact rationals.

Pmf, generating functions, moments, convolution closure, the conditional
probability of two binomial components given their sum, and the exact
total-variation analysis of the binomial limit. The mgf is the single
non-exact operation; it is an arbitrary-precision numeric evaluation over
the exact pmf, never a parallel implementation.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass
from decimal import (
    MIN_EMIN,
    ROUND_HALF_EVEN,
    Context,
    Decimal,
    DivisionByZero,
    InvalidOperation,
    Overflow,
    localcontext,
)
from fractions import Fraction

from .angular import DegenerateLabels
from .exact import (
    _binomial_quotient,
    _check_digits,
    _fraction,
    _rational,
    _reduced,
    binomial,
)
from .hypseries import _terminating_sum

__all__ = [
    "BinomialParams",
    "HypergeomParams",
    "PmfTable",
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


# Measured crossover of the reduced pmf walk. On 40 laws per n3 shaped as the
# benchmark's pmf tables, whole supports walked against one reduced quotient
# per point, the two alternating, best of 21 per law (2 cores, Python 3.11),
# walk / quotient read 1.03-1.11 at n3 <= 48, 1.00-1.03 at 64, 0.98-1.00 at
# 72 and 80, 0.93-0.94 at 88, 0.92 at 96 (walk faster on 30 of 40 laws),
# 0.88-0.89 at 112, 0.84 at 128 and 0.73 at 160.
_PMF_STEP_MIN_N3 = 96


@dataclass(frozen=True, init=False)
class HypergeomParams:
    """Draw n2 items from n3 of which n1 are marked; X counts marked draws.

    Outside the dataclass fields a law keeps one thing, so eq, hash, repr,
    `replace` and `astuple` see only (n1, n2, n3), and a pickled law equals
    the original: from n3 = _PMF_STEP_MIN_N3 on, `_pmf`, the last pmf value
    (x, q) it served, already in lowest terms, so the next point up steps
    from it. Every call that needs the normaliser C(n3, n2) builds it.
    Sums over the whole support step by the 2F1 term ratio within one call
    and store nothing: the binomial-limit distance its numerators, through
    `_numerators`, and the mgf its decimal weights.
    """

    n1: int
    n2: int
    n3: int
    # no annotation, so not a field; hypergeom_pmf sets it per law
    _pmf = None

    def __init__(self, n1: int, n2: int, n3: int) -> None:
        # `dataclasses.replace` builds through this constructor too, so every
        # law is checked here; the three fields go into the instance dict in
        # one update, past the frozen dataclass's per-field __setattr__,
        # which made construction about a third slower
        if not 0 <= n1 <= n3:
            raise ValueError(f"need 0 <= n1 <= n3, got n1={n1}, n3={n3}")
        if not 0 <= n2 <= n3:
            raise ValueError(f"need 0 <= n2 <= n3, got n2={n2}, n3={n3}")
        self.__dict__.update(n1=n1, n2=n2, n3=n3)

    def support(self) -> range:
        return range(max(0, self.n1 + self.n2 - self.n3), min(self.n1, self.n2) + 1)

    def _numerator(self, x: int) -> int:
        """C(n1,x) C(n3-n1,n2-x), the pmf at x times the normaliser."""
        return binomial(self.n1, x) * binomial(self.n3 - self.n1, self.n2 - x)

    def _numerators(self) -> Iterator[int]:
        """`_numerator(x)` for each x of the support, in order: the first
        built afresh, each later one the last times the 2F1 term ratio at
        t = 1, a/b with a = (n1-x+1)(n2-x+1) and b = x (n3-n1-n2+x) > 0 as
        x - 1 is in the support. The division is exact, since the quotient
        is the next numerator."""
        n1, n2, n3 = self.n1, self.n2, self.n3
        support = self.support()
        num = self._numerator(support.start)
        yield num
        for x in range(support.start + 1, support.stop):
            num = num * ((n1 - x + 1) * (n2 - x + 1)) // (x * (n3 - n1 - n2 + x))
            yield num


@dataclass(frozen=True)
class BinomialParams:
    """Number of trials and an exact success probability."""

    trials: int
    p: Fraction

    def __post_init__(self) -> None:
        if type(self.p) is not Fraction:
            object.__setattr__(self, "p", Fraction(self.p))
        if self.trials < 0:
            raise ValueError(f"trials must be nonnegative, got {self.trials}")
        # p is a Fraction by now, so 0 <= p <= 1 is read off its slots
        # without Fraction's comparison, which cost half the construction
        if not 0 <= self.p._numerator <= self.p._denominator:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")


def _over_common_denominator(values: list[Fraction]) -> tuple[list[int], int]:
    """The numerators of `values` over their least common denominator, and
    that denominator. The lcm is folded pairwise, since an argument tuple
    unpacked into math.lcm stays on CPython's per-length tuple free list once
    freed, until a full collection, and skipped where the denominator
    already divides it. Every value is a Fraction, so its slots are read in
    place of its properties."""
    common = 1
    for q in values:
        if common % q._denominator:
            common = math.lcm(common, q._denominator)
    return [q._numerator * (common // q._denominator) for q in values], common


@dataclass(frozen=True)
class PmfTable:
    """Finite pmf as (outcome, probability) pairs; exact and normalized."""

    entries: tuple[tuple[int, Fraction], ...]

    def __post_init__(self) -> None:
        entries = self.entries
        # a tuple of (int, Fraction) pairs, as binomial_convolve builds, is
        # kept as it is; anything else is converted entry by entry, and an
        # outcome that is not an integer (1.7, or 1.0) is rejected, not cut
        if type(entries) is not tuple or not all(
            type(e) is tuple and len(e) == 2 and type(e[0]) is int and type(e[1]) is Fraction
            for e in entries
        ):
            entries = tuple((operator.index(x), Fraction(q)) for x, q in entries)
            object.__setattr__(self, "entries", entries)
        # every entry is a Fraction by now
        if any(q._numerator < 0 for _, q in entries):
            raise ValueError("probabilities must be nonnegative")
        # summed on integers, not as Fractions that reduce after every addition
        numerators, common = _over_common_denominator([q for _, q in entries])
        if sum(numerators) != common:
            raise ValueError("probabilities must sum to 1 exactly")
        outcomes = [x for x, _ in entries]
        if any(x >= y for x, y in zip(outcomes, outcomes[1:])):
            raise ValueError("outcomes must be strictly increasing")


def hypergeom_pmf(params: HypergeomParams, x: int) -> Fraction:
    """C(n1,x) C(n3-n1,n2-x) / C(n3,n2); zero outside the support.

    Every value holds the fields of Fraction(C(n1,x) C(n3-n1,n2-x),
    C(n3,n2)). From n3 = _PMF_STEP_MIN_N3 on, an x outside the support is 0
    before any route runs; any other x takes one of two routes:
    - Walk. Right after the value q = N/D at x - 1 the next one is q a/b,
      the 2F1 term ratio at t = 1 with a = (n1-x+1)(n2-x+1) and
      b = x (n3-n1-n2+x) > 0. With a/b reduced first and g1 = gcd(N, b),
      g2 = gcd(a, D), the result (N/g1)(a/g2) / ((D/g2)(b/g1)) is in lowest
      terms because gcd(N, D) = gcd(a, b) = 1: two gcds with a small operand
      replace one gcd of two big integers.
    - Quotient. Every other x is one `exact._binomial_quotient` call, which
      builds it from prime exponents from its measured rule on and as the
      literal quotient below it.
    `_pmf` is the only state the pmf stores on a law. It is replaced as one
    tuple, so a concurrent reader sees a consistent (x, q), and the next
    point up walks from it whatever route built it.
    """
    n1, n2, n3 = params.n1, params.n2, params.n3
    if n3 < _PMF_STEP_MIN_N3:
        # rows this short take math.comb inline, as `binomial` does, and
        # leave `_pmf`, the law's only stored state, unset, since no point
        # below the walk's crossover reads it; x outside [0, n2] is outside
        # the support. The normaliser is positive, so one gcd reduces the
        # quotient with no sign to move.
        num = math.comb(n1, x) * math.comb(n3 - n1, n2 - x) if 0 <= x <= n2 else 0
        den = math.comb(n3, n2)
        g = math.gcd(num, den)
        return _reduced(num // g, den // g)
    # the support max(0, n1+n2-n3) <= x <= min(n1, n2) as four plain
    # comparisons: max and min would cost each walked point about 0.3 us more
    if not (0 <= x <= n1 and n1 + n2 - n3 <= x <= n2):
        return Fraction(0)
    last = params._pmf
    if last is not None and last[0] == x - 1:
        q = last[1]
        a = (n1 - x + 1) * (n2 - x + 1)
        b = x * (n3 - n1 - n2 + x)
        g = math.gcd(a, b)
        if g != 1:
            a //= g
            b //= g
        num, den = q._numerator, q._denominator
        g1 = math.gcd(num, b)
        g2 = math.gcd(a, den)
        num = num // g1 * (a // g2)
        q = _reduced(num, den // g2 * (b // g1))
    else:
        q = _binomial_quotient(n1, x, n3 - n1, n2 - x)
    # stored past the frozen dataclass's __setattr__, as __init__ stores the
    # fields
    params.__dict__["_pmf"] = (x, q)
    return q


def hypergeom_pgf(params: HypergeomParams, t: Fraction | int) -> Fraction:
    """G(t) = sum_x pmf(x) t^x over the support, on the integer kernel.

    The series starts at x0 = max(0, n1 + n2 - n3) with the first term
    C(n1,x0) C(n3-n1,n2-x0) t^x0 / C(n3,n2), the law's numerator; each later
    term is the previous one times the 2F1(-n1, -n2; n3-n1-n2+1) ratio
    t (n1-x+1)(n2-x+1) / (x (n3-n1-n2+x)). Its lower factor n3-n1-n2+x is
    positive for every x > x0, so no law has a pole, and at x0 = 0 this is
    C(n3-n1,n2)/C(n3,n2) * 2F1(-n1, -n2; n3-n1-n2+1; t).
    """
    t = _rational(t)
    n1, n2, n3 = params.n1, params.n2, params.n3
    x0 = max(0, n1 + n2 - n3)
    first_num = params._numerator(x0) * t.numerator**x0
    first_den = binomial(n3, n2) * t.denominator**x0
    return _terminating_sum(
        (-n1, -n2), (n3 - n1 - n2 + 1,), t, x0, min(n1, n2), first_num, first_den
    )


def hypergeom_mgf(params: HypergeomParams, t: Decimal | str | int, digits: int) -> Decimal:
    """M(t) = sum_x pmf(x) e^(t x) to `digits` significant digits.

    The pmf is exact; weights and powers are decimal. Equals G(e^t) by
    construction. The first weight is the numerator C(n1,x0) C(n3-n1,n2-x0)
    over the normaliser C(n3,n2), divided once; each later one is the last
    times the 2F1 term ratio at t = 1, a/b with a = (n1-x+1)(n2-x+1) and
    b = x (n3-n1-n2+x), as one product and one quotient. The powers come
    from one running product: e^(t x0) at the first support point, then
    times e^t per later point, never past the last one, and e^t is computed
    only when the support has a second point.

    Precision: each exp, product and quotient is correctly rounded. With n
    support points a term carries at most 3n units in the last place (2n - 1
    in its weight, n in its power, one in their product); working at
    digits + 11 + len(str(n)) digits keeps that below one unit at digits + 10,
    the budget of a fresh exp per point. The weights have no exponent floor,
    so one below the smallest normal decimal keeps its digits. Rounding is
    half-even and only invalid operations, division by zero and overflow
    trap, whatever decimal.DefaultContext says; the exponent limits of the
    sum and its powers are DefaultContext's.

    Raises ValueError when t does not parse as a decimal or is not finite,
    OverflowError when some e^(tx) exceeds the largest decimal, and
    ArithmeticError when the sum underflows below the smallest normal
    decimal.
    """
    _check_digits(digits)
    try:
        t_dec = t if isinstance(t, Decimal) else Decimal(str(t))
    except InvalidOperation:
        raise ValueError(f"t must be a finite decimal number, got {t!r}") from None
    if not t_dec.is_finite():
        raise ValueError(f"t must be a finite decimal number, got {t!r}")
    n1, n2, n3 = params.n1, params.n2, params.n3
    support = params.support()
    x0 = support.start
    prec = digits + 11 + len(str(len(support)))
    fixed = dict(
        rounding=ROUND_HALF_EVEN, traps=[InvalidOperation, DivisionByZero, Overflow], clamp=0
    )
    weights = Context(prec=prec, Emin=MIN_EMIN, **fixed)
    with localcontext(Context(prec=prec, **fixed)) as ctx:
        weight = weights.divide(Decimal(params._numerator(x0)), binomial(n3, n2))
        total = Decimal(0)
        x = x0
        try:
            power = (t_dec * x0).exp()
            for x in support:
                if x > x0:
                    if x == x0 + 1:
                        step = t_dec.exp()
                    power *= step
                    weight = weights.multiply(weight, (n1 - x + 1) * (n2 - x + 1))
                    weight = weights.divide(weight, x * (n3 - n1 - n2 + x))
                total += weight * power
        except Overflow:
            raise OverflowError(
                f"mgf overflows at {digits} digits: e^(t*x) at t = {t_dec}, x = {x} "
                f"exceeds the largest decimal (exponent {ctx.Emax})"
            ) from None
        # every term is positive, so a sum that is not a normal decimal has
        # lost its digits to underflow
        if not total.is_normal():
            raise ArithmeticError(
                f"mgf underflows at {digits} digits: the sum at t = {t_dec} from x0 = {x0} "
                f"is below the smallest normal decimal (exponent {ctx.Emin})"
            )
    return Context(prec=digits, **fixed).plus(total)


def hypergeom_mean(params: HypergeomParams) -> Fraction:
    """E[X] = n1 n2 / n3."""
    if params.n3 < 1:
        raise ValueError("mean needs n3 >= 1")
    return _fraction(params.n1 * params.n2, params.n3)


def hypergeom_variance(params: HypergeomParams) -> Fraction:
    """Var[X] = n1 n2 (n3-n1)(n3-n2) / (n3^2 (n3-1)).

    Raises ValueError when n3 < 2: the variance needs at least two items to
    draw from.
    """
    if params.n3 < 2:
        raise ValueError("variance needs n3 >= 2")
    n1, n2, n3 = params.n1, params.n2, params.n3
    return _fraction(n1 * n2 * (n3 - n1) * (n3 - n2), n3 * n3 * (n3 - 1))


def _pmf_numerator(trials: int, p: Fraction, r: int) -> int:
    """C(trials, r) u^r (v-u)^(trials-r) for p = u/v, with r in [0, trials].

    This is the pmf at r times v^trials: every value of one binomial law
    shares that denominator, so callers work on these integers and build
    one Fraction per result. At p = 0 and p = 1 the empty power 0**0 is 1.
    Every caller passes p as a Fraction, so its slots are read in place of
    its properties.
    """
    u, v = p._numerator, p._denominator
    return binomial(trials, r) * u**r * (v - u) ** (trials - r)


def binomial_pmf(params: BinomialParams, r: int) -> Fraction:
    """C(trials, r) p^r (1-p)^(trials-r); zero outside [0, trials]."""
    if r < 0 or r > params.trials:
        return Fraction(0)
    trials, p = params.trials, params.p
    return _fraction(_pmf_numerator(trials, p, r), p._denominator**trials)


def binomial_convolve(a: BinomialParams, b: BinomialParams) -> PmfTable:
    """Exact pmf of the sum of two independent binomial draws.

    Requires a common p = u/v; the result equals the single binomial with
    trials = a.trials + b.trials pointwise. Both pmfs are taken as integer
    numerators over v^a.trials and v^b.trials, so the value at k is

        sum_j num_a(j) num_b(k - j) / v^(a.trials + b.trials),

    reduced by one gcd per k. All the sums come from one big-integer product
    (Kronecker substitution; D. Harvey, J. Symbolic Comput. 44 (2009) 1502):
    each side's numerators are packed into one integer, one per slot of w
    bytes, so slot k of the product is the k-th sum. Every term is
    nonnegative and the sums add up to v^a.trials v^b.trials, so w bytes
    that hold v^(a.trials + b.trials) leave no carry between slots. The
    product still forms every num_a(j) num_b(k - j): closure under
    convolution is an identity the verify suite checks, and computing the
    result from the merged law (or Vandermonde's identity) would make that
    check true by construction. Raises ValueError when a.p != b.p.
    """
    if a.p != b.p:
        raise ValueError(f"common p required, got {a.p} and {b.p}")
    p = a.p
    denominator = p.denominator ** (a.trials + b.trials)
    width = (denominator.bit_length() + 7) // 8
    sums = _slot_sums(
        [_pmf_numerator(a.trials, p, j) for j in range(a.trials + 1)],
        [_pmf_numerator(b.trials, p, j) for j in range(b.trials + 1)],
        width,
    )
    return PmfTable(tuple((k, _fraction(total, denominator)) for k, total in enumerate(sums)))


def _slot_sums(num_a: list[int], num_b: list[int], width: int) -> list[int]:
    """sum_j num_a[j] num_b[k - j] for every k, from one product of the two
    lists packed into slots of `width` bytes; every entry and every sum
    must fit in a slot, or the packing raises OverflowError or the sums
    carry into each other."""
    packed_a = int.from_bytes(b"".join([n.to_bytes(width, "little") for n in num_a]), "little")
    packed_b = int.from_bytes(b"".join([n.to_bytes(width, "little") for n in num_b]), "little")
    size = len(num_a) + len(num_b) - 1
    raw = memoryview((packed_a * packed_b).to_bytes(width * size, "little"))
    return [int.from_bytes(raw[i : i + width], "little") for i in range(0, width * size, width)]


def conditional_probability(labels: DegenerateLabels, p: Fraction | int | str) -> Fraction:
    """P(component counts | total count) for two independent binomial draws.

    Computed literally as the quotient of pmf values; every power of p
    cancels, leaving C(l1,k1) C(l2,k2) / C(l,k) independent of p. The
    three pmfs are taken as numerators over v^l1, v^l2 and v^l for p = u/v;
    since l = l1 + l2 those denominators cancel as well.

    Raises ValueError unless 0 < p < 1: conditioning on the total is
    degenerate at p = 0 and p = 1, where the pmf quotient can be 0/0.
    """
    p = _rational(p)
    if not 0 < p.numerator < p.denominator:
        raise ValueError(f"p must lie strictly inside (0, 1), got {p}")
    return _fraction(
        _pmf_numerator(labels.l1, p, labels.k1) * _pmf_numerator(labels.l2, p, labels.k2),
        _pmf_numerator(labels.l, p, labels.k),
    )


def binomial_limit_tv(
    p: Fraction | int | str, n2: int, n3_sequence: list[int]
) -> list[tuple[int, Fraction]]:
    """Exact total variation distance between the hypergeometric law with
    n1 = p*n3 and the binomial(n2, p) law, for each n3 in the sequence.

    p must lie in [0, 1], each n3 must be positive and a multiple of
    denominator(p) so that n1 is an exact integer, and n2 must fit inside
    min(n1, n3 - n1) so both laws share the full support [0, n2]; a failed
    condition raises ValueError, for the first bad n3, before any distance
    is summed.

    For p = u/v each distance is one Fraction: the integer sum over x of
    |C(n1,x) C(n3-n1,n2-x) v^n2 - _pmf_numerator(n2,p,x) C(n3,n2)|, over the
    common denominator 2 C(n3,n2) v^n2.
    """
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    # every n3 is checked before any sum is built, so a bad one late in the
    # list fails at once
    laws = []
    for n3 in n3_sequence:
        if n3 <= 0:
            raise ValueError(f"n3 must be positive, got {n3}")
        if n3 % p.denominator:
            raise ValueError(f"n3 = {n3} is not a multiple of {p.denominator}")
        n1 = n3 // p.denominator * p.numerator
        if n2 > min(n1, n3 - n1):
            raise ValueError(
                f"n2 = {n2} exceeds min(n1, n3 - n1) = {min(n1, n3 - n1)} at n3 = {n3}"
            )
        laws.append(HypergeomParams(n1, n2, n3))
    scale = p.denominator**n2
    binomial_nums = [_pmf_numerator(n2, p, x) for x in range(n2 + 1)]
    results = []
    for law in laws:
        normaliser = binomial(law.n3, n2)
        total = sum(
            abs(num * scale - binomial_num * normaliser)
            for num, binomial_num in zip(law._numerators(), binomial_nums)
        )
        results.append((law.n3, _fraction(total, 2 * normaliser * scale)))
    return results
