"""Tests for the exact distribution module."""

from __future__ import annotations

import dataclasses
import decimal
import math
import pickle
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from decimal import Context, Decimal, Overflow, localcontext
from fractions import Fraction

import mpmath
import pytest

from cgexact import exact, prob
from cgexact.angular import DegenerateLabels
from cgexact.prob import (
    BinomialParams,
    HypergeomParams,
    PmfTable,
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


def _comb(n: int, k: int) -> int:
    """math.comb with the zero convention for k < 0 as well."""
    return math.comb(n, k) if k >= 0 else 0


def _literal_pmf(n1: int, n2: int, n3: int, x: int) -> Fraction:
    return Fraction(_comb(n1, x) * _comb(n3 - n1, n2 - x), math.comb(n3, n2))


def _per_point_mgf(params: HypergeomParams, t: str, digits: int) -> str:
    """The mgf as it was first written: a fresh e^(t x) per support point over
    the reduced pmf, at digits + 10 digits, rounded to `digits`."""
    t_dec = Decimal(t)
    with localcontext(Context(prec=digits + 10)):
        total = Decimal(0)
        for x in params.support():
            q = _literal_pmf(params.n1, params.n2, params.n3, x)
            total += Decimal(q.numerator) / Decimal(q.denominator) * (t_dec * x).exp()
    return str(Context(prec=digits).plus(total))


def _reference_mgf(params: HypergeomParams, t: str, digits: int) -> str | tuple[type, str]:
    """The mgf with a per-point weight: each exact numerator C(n1,x)
    C(n3-n1,n2-x) over the normaliser, divided in decimal, with the running
    power, at digits + 10 + len(str(n)) digits for n support points, rounded
    to `digits`; its string, or the type and message of what it raised."""
    t_dec = Decimal(t)
    support = params.support()
    x0 = support.start
    with localcontext(Context(prec=digits + 10 + len(str(len(support))))) as ctx:
        normaliser = Decimal(math.comb(params.n3, params.n2))
        total = Decimal(0)
        x = x0
        try:
            power = (t_dec * x0).exp()
            for x in support:
                if x > x0:
                    if x == x0 + 1:
                        step = t_dec.exp()
                    power *= step
                total += Decimal(_literal_numerator(params, x)) / normaliser * power
        except Overflow:
            return OverflowError, (
                f"mgf overflows at {digits} digits: e^(t*x) at t = {t_dec}, x = {x} "
                f"exceeds the largest decimal (exponent {ctx.Emax})"
            )
        if not total.is_normal():
            return ArithmeticError, (
                f"mgf underflows at {digits} digits: the sum at t = {t_dec} from x0 = {x0} "
                f"is below the smallest normal decimal (exponent {ctx.Emin})"
            )
    return str(Context(prec=digits).plus(total))


def _mgf_outcome(params: HypergeomParams, t: str, digits: int) -> str | tuple[type, str]:
    try:
        return str(hypergeom_mgf(params, t, digits))
    except (OverflowError, ArithmeticError) as error:
        return type(error), str(error)


def _mpmath_mgf(params: HypergeomParams, t: str, digits: int) -> mpmath.mpf:
    with mpmath.workdps(digits + 20):
        total = mpmath.mpf(0)
        for x in params.support():
            q = _literal_pmf(params.n1, params.n2, params.n3, x)
            total += mpmath.mpf(q.numerator) / q.denominator * mpmath.exp(mpmath.mpf(t) * x)
        return total


def _within_one_unit(got: Decimal, want: mpmath.mpf, digits: int) -> bool:
    """|got - want| is at most one unit in the last of `digits` digits of got."""
    with mpmath.workdps(digits + 20):
        unit = mpmath.mpf(10) ** (got.adjusted() - digits + 1)
        return abs(mpmath.mpf(str(got)) - want) <= unit


# t values of the mgf sweeps: both signed zeros, tiny, moderate and large
# magnitudes, and a 51-digit pi
_MGF_TS = (
    "0", "-0", "1e-20", "0.5", "-0.5", "1", "-1", "2.5", "-7", "0.693147", "31.4", "-31.4",
    "3.14159265358979323846264338327950288419716939937510",
)


def _spy_binomials(monkeypatch) -> list[tuple[str, int, int]]:
    """Record each binomial that `prob` or `exact` builds, as (module, n, k)."""
    calls = []
    for module in (prob, exact):
        real = module.binomial

        def counted(n, k, name=module.__name__, real=real):
            calls.append((name, n, k))
            return real(n, k)

        monkeypatch.setattr(module, "binomial", counted)
    return calls


class TestParams:
    def test_hypergeom_validation(self):
        with pytest.raises(ValueError):
            HypergeomParams(3, 1, 2)
        with pytest.raises(ValueError):
            HypergeomParams(1, 3, 2)
        with pytest.raises(ValueError):
            HypergeomParams(-1, 0, 2)
        # replace goes through the one constructor, so it validates too
        with pytest.raises(ValueError):
            dataclasses.replace(HypergeomParams(1, 1, 2), n2=-1)

    def test_binomial_validation(self):
        with pytest.raises(ValueError):
            BinomialParams(-1, HALF)
        with pytest.raises(ValueError):
            BinomialParams(2, Fraction(3, 2))
        assert BinomialParams(2, "1/2").p == HALF
        # an exact Fraction is kept as it is; anything else is converted
        assert BinomialParams(2, THIRD).p is THIRD

        class Prob(Fraction):
            pass

        for p in ("1/3", Prob(1, 3), True):
            got = BinomialParams(2, p).p
            assert type(got) is Fraction and got == Fraction(p)

    def test_support(self):
        assert list(HypergeomParams(5, 2, 10).support()) == [0, 1, 2]
        assert list(HypergeomParams(9, 8, 10).support()) == [7, 8]

    def test_normaliser_is_not_a_field(self):
        # C(n3, n2) is built by each call that needs it and kept nowhere: a
        # law read by the pmf, the pgf and the mgf holds its fields alone
        params = HypergeomParams(5, 2, 10)
        unread = pickle.loads(pickle.dumps(params))
        assert hypergeom_pmf(params, 1) == Fraction(math.comb(5, 1) * math.comb(5, 1), math.comb(10, 2))
        assert hypergeom_pgf(params, 1) == 1
        hypergeom_mgf(params, "0.1", 20)
        assert vars(params) == dataclasses.asdict(params) == {"n1": 5, "n2": 2, "n3": 10}
        assert not hasattr(params, "_normaliser") and not hasattr(params, "_normaliser_value")
        assert [f.name for f in dataclasses.fields(params)] == ["n1", "n2", "n3"]
        assert repr(params) == "HypergeomParams(n1=5, n2=2, n3=10)"
        assert params == HypergeomParams(5, 2, 10) == unread
        assert hash(params) == hash(HypergeomParams(5, 2, 10)) == hash(unread)
        assert params != HypergeomParams(5, 3, 10)
        assert dataclasses.astuple(params) == (5, 2, 10)
        replaced = dataclasses.replace(params, n2=3)
        assert replaced == HypergeomParams(5, 3, 10)
        assert hypergeom_pgf(replaced, 1) == 1
        assert vars(replaced) == dataclasses.asdict(replaced)
        restored = pickle.loads(pickle.dumps(params))
        assert restored == params and vars(restored) == vars(params)
        with pytest.raises(dataclasses.FrozenInstanceError):
            params._normaliser = 1

    def test_construction_builds_no_binomial(self, monkeypatch):
        # neither a law nor a point on the prime route builds a binomial in
        # `prob` or in `exact`; the pgf and the mgf each build C(n3, n2) once
        # a call, and a literal-route point builds its three in `exact`
        calls = _spy_binomials(monkeypatch)
        law = HypergeomParams(20000, 10000, 40000)
        hypergeom_pmf(law, 5000)
        assert calls == []
        law = HypergeomParams(600, 200, 1000)
        for _ in range(2):
            hypergeom_pgf(law, THIRD)
            assert calls.count(("cgexact.prob", 1000, 200)) == 1
            calls.clear()
            hypergeom_mgf(law, "0.1", 20)
            assert calls.count(("cgexact.prob", 1000, 200)) == 1
            calls.clear()
            # off the walk and past the prime route, a point is the literal
            # quotient
            hypergeom_pmf(HypergeomParams(600, 200, 1000), 120)
            assert calls == [("cgexact.exact", 600, 120), ("cgexact.exact", 400, 80), ("cgexact.exact", 1000, 200)]
            calls.clear()


class TestPmfTable:
    def test_validation(self):
        with pytest.raises(ValueError):
            PmfTable(((0, HALF), (1, HALF), (2, Fraction(1, 4))))
        with pytest.raises(ValueError):
            PmfTable(((1, HALF), (0, HALF)))
        with pytest.raises(ValueError):
            PmfTable(((0, Fraction(3, 2)), (1, Fraction(-1, 2))))

    def test_exact_pairs_are_kept(self):
        entries = ((0, Fraction(1, 4)), (1, Fraction(3, 4)))
        assert PmfTable(entries).entries is entries

    def test_other_entries_are_converted(self):
        class Prob(Fraction):
            pass

        for entries in (
            [[0, "1/4"], [1, Fraction(3, 4)]],
            ((False, Fraction(1, 4)), (True, Fraction(3, 4))),
            ((0, Prob(1, 4)), (1, Prob(3, 4))),
            ((0, Fraction(1, 4)), [1, Fraction(3, 4)]),
            iter(((0, Fraction(1, 4)), (1, Fraction(3, 4)))),
        ):
            table = PmfTable(entries)
            assert table.entries == ((0, Fraction(1, 4)), (1, Fraction(3, 4)))
            assert type(table.entries) is tuple
            assert all(type(e) is tuple for e in table.entries)
            assert all(type(x) is int and type(q) is Fraction for x, q in table.entries)
        assert PmfTable(((4, 1),)).entries == ((4, Fraction(1)),)

    def test_non_integral_outcomes_are_rejected_not_truncated(self):
        # int() would read 1.7 as outcome 1 and build a valid-looking table
        for outcome in (1.7, 1.0, Fraction(3, 2), "1"):
            with pytest.raises(TypeError):
                PmfTable([(0, HALF), (outcome, HALF)])

    def test_negative_probability_message_on_both_paths(self):
        for entries in (
            ((0, Fraction(3, 2)), (1, Fraction(-1, 2))),
            ((0, "3/2"), (1, "-1/2")),
        ):
            with pytest.raises(ValueError, match="probabilities must be nonnegative"):
                PmfTable(entries)



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

    def test_equals_literal_quotient_every_small_law(self):
        for n3 in range(41):
            for n1 in range(n3 + 1):
                for n2 in range(n3 + 1):
                    params = HypergeomParams(n1, n2, n3)
                    support = params.support()
                    for x in range(support.start - 1, support.stop + 1):
                        assert hypergeom_pmf(params, x) == _literal_pmf(n1, n2, n3, x)

    def test_equals_literal_quotient_seeded_large_laws(self):
        rng = random.Random(20261018)
        for _ in range(200):
            n3 = round(math.exp(rng.uniform(math.log(41), math.log(40000))))
            n1, n2 = rng.randint(0, n3), rng.randint(0, n3)
            params = HypergeomParams(n1, n2, n3)
            support = params.support()
            x = rng.randint(support.start - 1, support.stop)
            assert hypergeom_pmf(params, x) == _literal_pmf(n1, n2, n3, x)


def _walk_order(support: range, rng: random.Random) -> list[int]:
    """x outside the support before and after a walk, then the support
    upward, downward, with repeats and shuffled."""
    lo, hi = support.start, support.stop - 1
    shuffled = list(support)
    rng.shuffle(shuffled)
    return [lo - 1, *support, hi + 1, hi + 2, *reversed(support), lo, lo, lo + 1, *shuffled, -1]


def _literal_numerator(params: HypergeomParams, x: int) -> int:
    return _comb(params.n1, x) * _comb(params.n3 - params.n1, params.n2 - x)


class TestNumeratorWalk:
    """`_numerators()` steps a law's numerators C(n1,x) C(n3-n1,n2-x) up its
    support within one call, and `_numerator(x)` builds one afresh; every
    value must still be the product of two math.comb calls, and the law
    keeps none of them."""

    def test_every_small_law_walks(self):
        # every law up to n3 = 40, edge laws included, and `_numerator` at a
        # point outside the support at both ends as well
        for n3 in range(41):
            for n1 in range(n3 + 1):
                for n2 in range(n3 + 1):
                    params = HypergeomParams(n1, n2, n3)
                    support = params.support()
                    want = [_literal_numerator(params, x) for x in support]
                    assert list(params._numerators()) == want, params
                    for x in (-1, support.start - 1, *support, support.stop, support.stop + 1):
                        assert params._numerator(x) == _literal_numerator(params, x), (params, x)

    def test_large_laws_at_the_measured_crossover(self):
        rng = random.Random(13)
        law = HypergeomParams(20000, 300, 40000)
        assert list(law._numerators()) == [_literal_numerator(law, x) for x in range(301)]
        for x in range(-1, 302):
            assert hypergeom_pmf(law, x) == _literal_pmf(20000, 300, 40000, x), x
        # support [10000, 20000]: the walk starts at 10000, not at 0; every
        # 1000th point, the last one included, is the literal product
        law = HypergeomParams(30000, 20000, 40000)
        checked = []
        for x, numerator in zip(law.support(), law._numerators()):
            if x % 1000 == 0:
                assert numerator == _literal_numerator(law, x), x
                checked.append(x)
        assert checked == list(range(10000, 20001, 1000))
        for n1, n2 in ((0, 0), (0, 300), (1000, 300), (300, 0), (300, 1000), (1000, 1000)):
            law = HypergeomParams(n1, n2, 1000)
            for x in _walk_order(law.support(), rng):
                assert hypergeom_pmf(law, x) == _literal_pmf(n1, n2, 1000, x), (law, x)

    def test_two_laws_walked_interleaved(self):
        a, b = HypergeomParams(20000, 300, 40000), HypergeomParams(150, 100, 400)
        walk_a, walk_b = a._numerators(), b._numerators()
        for x in range(101):
            assert next(walk_a) == _literal_numerator(a, x), x
            assert next(walk_b) == _literal_numerator(b, x), x
        assert next(walk_b, None) is None
        assert list(walk_a) == [_literal_numerator(a, x) for x in range(101, 301)]

    def test_threads_walking_one_shared_law(self):
        # numerators walk per call and pmf values walk on the law, on one
        # law shared by threads
        law = HypergeomParams(2000, 300, 4000)
        expected = [_literal_numerator(law, x) for x in law.support()]
        expected_pmf = [_fields(_literal_pmf(2000, 300, 4000, x)) for x in range(-1, 302)]

        def walk(start: int) -> bool:
            return all(
                list(law._numerators()) == expected
                and all(_fields(hypergeom_pmf(law, x)) == expected_pmf[x + 1] for x in range(start, 302))
                for _ in range(5)
            )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                assert all(pool.map(walk, (-1, 0, 7, 150), timeout=60))
        finally:
            sys.setswitchinterval(interval)

    def test_walk_state_is_not_a_field(self):
        # the pmf walks its own state, kept outside the fields: a law that
        # holds it and one that does not are the same law
        law = HypergeomParams(200, 50, 400)
        for x in range(40):
            hypergeom_pmf(law, x)
        assert law._pmf[0] == 39
        assert vars(law) == {**dataclasses.asdict(law), "_pmf": law._pmf}
        # below the walk's crossover a law stores nothing
        small = HypergeomParams(50, 20, 95)
        for x in range(21):
            hypergeom_pmf(small, x)
        assert vars(small) == dataclasses.asdict(small)
        fresh = HypergeomParams(200, 50, 400)
        assert law == fresh and hash(law) == hash(fresh) and repr(law) == repr(fresh)
        assert repr(law) == "HypergeomParams(n1=200, n2=50, n3=400)"
        assert law != HypergeomParams(200, 51, 400)
        replaced = dataclasses.replace(law)
        assert replaced == law and replaced._pmf is None
        assert dataclasses.replace(law, n2=51) == HypergeomParams(200, 51, 400)
        assert dataclasses.astuple(law) == (200, 50, 400)
        assert [f.name for f in dataclasses.fields(law)] == ["n1", "n2", "n3"]
        restored = pickle.loads(pickle.dumps(law))
        assert restored == law == fresh and hash(restored) == hash(fresh)
        with pytest.raises(dataclasses.FrozenInstanceError):
            law._pmf = None

    def test_sums_over_the_support_store_no_numerators(self, monkeypatch):
        # the mgf, the pgf and the binomial-limit distance leave a law
        # holding its fields and nothing else
        laws = []

        class Recorded(HypergeomParams):
            def __init__(self, n1, n2, n3):
                super().__init__(n1, n2, n3)
                laws.append(self)

        monkeypatch.setattr(prob, "HypergeomParams", Recorded)
        law = Recorded(150, 100, 400)
        hypergeom_mgf(law, "0.1", 20)
        hypergeom_pgf(law, THIRD)
        binomial_limit_tv(HALF, 20, [400, 1600])
        assert len(laws) == 3
        for law in laws:
            assert vars(law) == dataclasses.asdict(law), law


def _fields(q: Fraction) -> tuple[int, int]:
    """The stored numerator and denominator; a Fraction built without its gcd
    can hold unreduced ones that == alone need not show."""
    assert type(q) is Fraction
    return q.numerator, q.denominator


def _assert_reduced_as(q: Fraction, want: Fraction, where) -> None:
    num, den = _fields(q)
    assert (num, den) == _fields(want), where
    assert den > 0 and math.gcd(num, den) == 1, where


def _mostly_upward(support: range, rng: random.Random) -> list[int]:
    """x from below the support to past its top, by steps up with repeats,
    steps down and jumps anywhere in between mixed in."""
    lo, stop = support.start - 1, support.stop + 2
    xs, x = [], lo
    while x < stop:
        xs.append(x)
        r = rng.random()
        x = x + 1 if r < 0.9 else x - 1 if r < 0.95 else x if r < 0.975 else rng.randrange(lo, stop)
    return xs


class TestPmfWalk:
    """From n3 = _PMF_STEP_MIN_N3 on, the pmf steps its last reduced value by the
    term ratio; every value must hold the fields of the literal quotient."""

    def test_every_small_law_walks(self, monkeypatch):
        # with the crossover at 0 every law up to n3 = 40 walks, from below
        # its support to past its top, mostly upward with repeats, steps down
        # and jumps. Swapping n1 and n2 leaves the support, the first value
        # and every ratio a/b unchanged, so n1 <= n2 takes every step there is
        monkeypatch.setattr(prob, "_PMF_STEP_MIN_N3", 0)
        rng = random.Random(15)
        for n3 in range(41):
            for n2 in range(n3 + 1):
                for n1 in range(n2 + 1):
                    params = HypergeomParams(n1, n2, n3)
                    want = {}
                    for x in _mostly_upward(params.support(), rng):
                        if x not in want:
                            want[x] = _fields(_literal_pmf(n1, n2, n3, x))
                        # equal to the fields of a Fraction(n, d), so reduced
                        # over a positive denominator as well
                        q = hypergeom_pmf(params, x)
                        assert type(q) is Fraction, (params, x)
                        assert (q.numerator, q.denominator) == want[x], (params, x)

    def test_large_laws_at_the_measured_crossover(self):
        rng = random.Random(16)
        for n1, n2, n3 in (
            (20000, 150, 40000), (700, 200, 2000), (80, 90, 160), (159, 1, 160),
            (0, 40, 160), (100, 100, 160), (70, 60, 159),
        ):
            law = HypergeomParams(n1, n2, n3)
            xs = _walk_order(law.support(), rng)
            want = {x: _literal_pmf(n1, n2, n3, x) for x in xs}
            for x in xs:
                _assert_reduced_as(hypergeom_pmf(law, x), want[x], (law, x))
        # support [1000, 2000]: a step at each end
        law = HypergeomParams(3000, 2000, 4000)
        for x in (999, 1000, 1001, 2000, 2001):
            _assert_reduced_as(hypergeom_pmf(law, x), _literal_pmf(3000, 2000, 4000, x), x)

    def test_interleaved_with_the_other_walkers(self):
        # the pmf walk shares one law with the mgf, the pgf and `_numerator`;
        # each leaves the others' values as a fresh law gives them
        rng = random.Random(17)
        law = HypergeomParams(150, 100, 400)
        fresh_mgf = hypergeom_mgf(HypergeomParams(150, 100, 400), "0.1", 20)
        fresh_pgf = hypergeom_pgf(HypergeomParams(150, 100, 400), Fraction(1, 3))
        x = -1
        for _ in range(300):
            x = rng.choice((x + 1, x + 1, x + 1, x - 1, x, rng.randint(-1, 102)))
            kind = rng.randrange(6)
            if kind == 0:
                assert hypergeom_mgf(law, "0.1", 20) == fresh_mgf
            elif kind == 1:
                assert hypergeom_pgf(law, Fraction(1, 3)) == fresh_pgf
            elif kind == 2:
                assert law._numerator(x) == _literal_numerator(law, x), x
            else:
                _assert_reduced_as(hypergeom_pmf(law, x), _literal_pmf(150, 100, 400, x), x)


def _prime_crossover(n3: int) -> int:
    """The least min(n2, n3 - n2) on which an off-walk pmf point takes its
    prime route: the quotient's own crossover on rows up to 2**16, and
    binomial(n3, n2)'s prime path on rows that sieve per call."""
    if n3 <= exact._PRIMES_MAX_CACHED:
        return exact._QUOTIENT_PRIME_MIN_K + n3 // 32
    return exact._PRIME_MIN_K_SIEVED + n3 // 64


def _assert_literal_fields(q: Fraction, n1: int, n2: int, n3: int, x: int, normaliser: int) -> None:
    want = Fraction(_comb(n1, x) * _comb(n3 - n1, n2 - x), normaliser)
    assert _fields(q) == _fields(want), (n1, n2, n3, x)
    assert hash(q) == hash(want), (n1, n2, n3, x)


class TestPmfPrimeRoute:
    """Off the walk, on a law past the prime route's crossover, a pmf point
    is built in lowest terms from prime exponents; it must hold the fields
    of the literal quotient."""

    @staticmethod
    def _grid() -> list[tuple[int, int, int]]:
        # n2 at and around the crossover, from both sides of the row, on
        # cached rows and on rows above 2**16 that sieve per call; n1 spans
        # small and large marked counts, some below sqrt(n3) on either side
        rng = random.Random(17)
        laws = [(74, 3709, 5705), (5705 - 74, 3709, 5705), (10, 700, 1400), (700, 351, 1400)]
        for n3 in (1100, 1400, 2200, 4096, 39239, 65536, 65537, 70000):
            j = _prime_crossover(n3)
            n2s = [j - 1, j, n3 - j] + ([j + 1, n3 // 2] if n3 <= 4096 else [])
            root = math.isqrt(n3)
            for n2 in n2s:
                for n1 in (rng.randrange(1, root), n3 - rng.randrange(1, root), rng.randrange(n3 + 1)):
                    laws.append((n1, n2, n3))
        return laws

    def test_equals_the_literal_quotient(self):
        for n1, n2, n3 in self._grid():
            normaliser = math.comb(n3, n2)
            lo, hi = max(0, n1 + n2 - n3), min(n1, n2)
            for x in sorted({lo, lo + 1, n1 * n2 // n3, hi - 1, hi} & set(range(lo, hi + 1))):
                q = hypergeom_pmf(HypergeomParams(n1, n2, n3), x)
                _assert_literal_fields(q, n1, n2, n3, x, normaliser)

    def test_taken_exactly_where_the_rule_says(self, monkeypatch):
        # a quotient call takes the prime route when it builds no binomial
        calls = []
        built = _spy_binomials(monkeypatch)
        real = prob._binomial_quotient

        def counted(*args):
            built.clear()
            q = real(*args)
            if not built:
                calls.append(args)
            return q

        monkeypatch.setattr(prob, "_binomial_quotient", counted)
        for n1, n2, n3 in self._grid():
            law = HypergeomParams(n1, n2, n3)
            lo, hi = max(0, n1 + n2 - n3), min(n1, n2)
            on_route = min(n2, n3 - n2) >= _prime_crossover(n3)
            for x in (lo - 1, hi + 1):
                assert hypergeom_pmf(law, x) == 0
            assert calls == [], (law, x)
            # an off-walk point, the next one up walks, a jump is off-walk again
            for x, fresh in ((lo, True), (lo + 1, False), (hi, True)):
                if x > hi or (fresh and x == lo + 2):
                    continue
                hypergeom_pmf(law, x)
                want = [(n1, x, n3 - n1, n2 - x)] if on_route and fresh else []
                assert calls == want, (law, x)
                calls.clear()
        # the benchmark's table shapes (n2 <= 300) and the default verify
        # sweep (n3 <= 30) never take it, even with a fresh law per point
        for n1, n2, n3 in ((20000, 300, 40000), (3000, 300, 65536), (15, 15, 30), (10, 20, 30)):
            for x in HypergeomParams(n1, n2, n3).support():
                hypergeom_pmf(HypergeomParams(n1, n2, n3), x)
        assert calls == []

    def test_a_zero_takes_no_route(self, monkeypatch):
        # on a walked law, a point outside the support is 0 before any route:
        # it builds no binomial in `prob` or `exact`, asks no quotient and
        # leaves the last stored point for the next one up to walk from
        built = _spy_binomials(monkeypatch)
        quotients = []
        real = prob._binomial_quotient

        def counted(*args):
            quotients.append(args)
            return real(*args)

        monkeypatch.setattr(prob, "_binomial_quotient", counted)
        for n1, n2, n3 in ((20000, 10000, 40000), (600, 200, 1000), (65537, 3200, 70000)):
            law = HypergeomParams(n1, n2, n3)
            lo, hi = max(0, n1 + n2 - n3), min(n1, n2)
            normaliser = math.comb(n3, n2)
            for last in (hi, n1 * n2 // n3):
                hypergeom_pmf(law, last)
                stored = law._pmf
                built.clear()
                quotients.clear()
                for x in (-1, lo - 1, hi + 1, n2 + 1):
                    assert _fields(hypergeom_pmf(law, x)) == (0, 1), (law, x)
                assert built == [] and quotients == [], law
                assert law._pmf is stored, law
            _assert_literal_fields(hypergeom_pmf(law, last + 1), n1, n2, n3, last + 1, normaliser)
            assert quotients == [], law

    def test_walk_from_a_prime_route_point(self):
        for n1, n2, n3, x0 in ((18445, 10646, 39239, 5006), (74, 3709, 5705, 5), (65537, 3200, 70000, 2990)):
            law = HypergeomParams(n1, n2, n3)
            normaliser = math.comb(n3, n2)
            for x in range(x0, min(x0 + 8, min(n1, n2) + 2)):
                q = hypergeom_pmf(law, x)
                _assert_literal_fields(q, n1, n2, n3, x, normaliser)
                assert math.gcd(*_fields(q)) == 1

    def test_threads_sharing_one_law(self):
        # prime-route points and walked points, all on one law shared by
        # threads that switch every microsecond
        n1, n2, n3 = 2000, 1000, 4000
        law = HypergeomParams(n1, n2, n3)
        normaliser = math.comb(n3, n2)
        xs = [x for start in (100, 300, 500, 700, 900) for x in range(start, start + 4)]
        expected = {x: _fields(Fraction(math.comb(n1, x) * math.comb(n3 - n1, n2 - x), normaliser)) for x in xs}

        def serve(offset: int) -> bool:
            order = xs[offset:] + xs[:offset]
            return all(
                _fields(hypergeom_pmf(law, x)) == expected[x]
                for _ in range(3)
                for x in order
            )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                assert all(pool.map(serve, (0, 5, 10, 15), timeout=60))
        finally:
            sys.setswitchinterval(interval)


class TestHypergeomPgf:
    def test_normalization_at_one(self):
        for n3 in range(1, 12):
            for n1 in range(n3 + 1):
                for n2 in range(n3 + 1):
                    assert hypergeom_pgf(HypergeomParams(n1, n2, n3), 1) == 1

    def test_closed_form_one_one_two(self):
        params = HypergeomParams(1, 1, 2)
        for t in (Fraction(0), Fraction(3), Fraction(-2, 7)):
            assert hypergeom_pgf(params, t) == (1 + t) / 2

    def test_constant_term_is_pmf_at_zero(self):
        for params in (HypergeomParams(5, 2, 10), HypergeomParams(3, 4, 9), HypergeomParams(5, 5, 6)):
            assert hypergeom_pgf(params, 0) == hypergeom_pmf(params, 0)

    def test_equals_power_sum(self):
        # every law with n3 <= 25, against the literal pmf, including those
        # whose support starts above zero (n1 + n2 > n3)
        ts = (Fraction(-3, 2), Fraction(0), Fraction(2, 7), Fraction(5, 3), Fraction(7, 2))
        for n3 in range(26):
            for n1 in range(n3 + 1):
                for n2 in range(n3 + 1):
                    params = HypergeomParams(n1, n2, n3)
                    pmf = [(x, _literal_pmf(n1, n2, n3, x)) for x in params.support()]
                    for t in ts:
                        expected = sum((q * t**x for x, q in pmf), Fraction(0))
                        assert hypergeom_pgf(params, t) == expected

    def test_support_above_zero_equals_power_sum(self):
        # n3 - n1 - n2 + 1 < 1, where the 2F1 at x = 0 would have a pole
        for n1, n2, n3 in ((3, 3, 4), (5, 5, 6), (4, 4, 4), (30, 29, 31)):
            params = HypergeomParams(n1, n2, n3)
            pmf = [(x, _literal_pmf(n1, n2, n3, x)) for x in params.support()]
            for t in (Fraction(-3, 2), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(7, 2)):
                assert hypergeom_pgf(params, t) == sum((q * t**x for x, q in pmf), Fraction(0))
        # 5/6 * (1/2)^4 + 1/6 * (1/2)^5
        assert hypergeom_pgf(HypergeomParams(5, 5, 6), Fraction(1, 2)) == Fraction(11, 192)
        # pmf and moments in that regime
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

    def test_support_above_zero_and_digits_validation(self):
        # n3 - n1 - n2 + 1 < 1: the mgf is the sum over the support all the same
        for params in (HypergeomParams(3, 3, 4), HypergeomParams(5, 5, 6)):
            for t in ("0", "0.5", "-1.25"):
                value = hypergeom_mgf(params, Decimal(t), 15)
                assert _within_one_unit(value, _mpmath_mgf(params, t, 15), 15)
        with pytest.raises(ValueError):
            hypergeom_mgf(HypergeomParams(1, 1, 2), Decimal(0), 0)

    def test_overflow_names_the_cause(self):
        # e^0 at x = 0 is fine; e^t, first needed at x = 1, overflows
        with pytest.raises(OverflowError, match=r"e\^\(t\*x\) at t = 1E\+400000, x = 1 "):
            hypergeom_mgf(HypergeomParams(3, 2, 10), Decimal("1e400000"), 15)
        # support {2, 3}: the first power e^(2t) already overflows
        with pytest.raises(OverflowError, match=r", x = 2 "):
            hypergeom_mgf(HypergeomParams(3, 3, 4), Decimal("1e400000"), 15)

    def test_underflow_names_the_cause(self):
        # support {4, 5}: the whole sum falls below the smallest normal decimal
        with pytest.raises(ArithmeticError, match=r"underflows .* t = -4\.6E\+6 from x0 = 4 "):
            hypergeom_mgf(HypergeomParams(5, 5, 6), Decimal("-4.6e6"), 15)

    def test_tiny_sums_above_underflow(self):
        params = HypergeomParams(5, 5, 6)
        value = hypergeom_mgf(params, Decimal("-2e5"), 15)
        assert str(value) == "2.16419381971783E-347436"
        assert _within_one_unit(value, _mpmath_mgf(params, "-2e5", 15), 15)
        # every term but x = 0 underflows; the sum is its weight, 21/45
        value = hypergeom_mgf(HypergeomParams(3, 2, 10), Decimal("-4.6e6"), 15)
        assert str(value) == "0.466666666666667"

    def test_power_stops_at_the_last_support_point(self):
        # e^(2 * 10^6) fits in a decimal, e^(3 * 10^6) does not
        params = HypergeomParams(3, 2, 10)
        value = hypergeom_mgf(params, Decimal("1e6"), 15)
        assert str(value) == _per_point_mgf(params, "1e6", 15)
        assert _within_one_unit(value, _mpmath_mgf(params, "1e6", 15), 15)

    def test_one_point_support_needs_no_e_to_the_t(self):
        assert str(hypergeom_mgf(HypergeomParams(0, 5, 10), Decimal("1e400000"), 15)) == "1"

    def test_t_zero_string(self):
        assert str(hypergeom_mgf(HypergeomParams(5, 2, 10), Decimal(0), 15)) == "1.00000000000000"
        assert str(hypergeom_mgf(HypergeomParams(5, 2, 10), "-0", 15)) == "1.00000000000000"

    def test_equals_per_point_strings_seeded(self):
        # the running power and the per-point exps round to the same string
        rng = random.Random(20261019)
        for _ in range(300):
            n3 = rng.randint(1, 3000)
            n2, n1 = rng.randint(0, min(n3, 300)), rng.randint(0, n3)
            params = HypergeomParams(n1, n2, n3)
            t, digits = rng.choice(_MGF_TS), rng.randint(1, 50)
            assert str(hypergeom_mgf(params, t, digits)) == _per_point_mgf(params, t, digits)

    def test_equals_per_point_weights_seeded(self):
        # weights stepped by the term ratio round to the strings, and raise
        # the errors, of weights divided afresh per point
        rng = random.Random(20261021)
        ts = (*_MGF_TS, "1e6", "-1e6", "-4.6e6", "-2e5", "1e400000")
        # four one-point laws, then laws whose support starts at 0 or above
        laws = [HypergeomParams(n1, n2, 10) for n1, n2 in ((0, 7), (7, 0), (10, 4), (6, 10))]
        while len(laws) < 199:
            n3 = rng.randint(1, 400)
            laws.append(HypergeomParams(rng.randint(0, n3), rng.randint(0, n3), n3))
        cases = [(params, rng.choice(ts), rng.randint(1, 60)) for params in laws]
        cases.append((HypergeomParams(3000, 2000, 4000), "-0.5", 60))
        outcomes = []
        for params, t, digits in cases:
            outcome = _mgf_outcome(params, t, digits)
            assert outcome == _reference_mgf(params, t, digits), (params, t, digits)
            outcomes.append(outcome)
        starts = [params.support().start for params in laws]
        assert starts.count(0) >= 50 and len(starts) - starts.count(0) >= 50
        errors = [outcome[0] for outcome in outcomes if type(outcome) is tuple]
        assert errors.count(OverflowError) >= 5 and errors.count(ArithmeticError) >= 5

    def test_builds_one_exact_numerator(self, monkeypatch):
        # the weights step from the first one; no numerator past x0 is built
        built = []

        def numerator(self, x):
            built.append(x)
            return _literal_numerator(self, x)

        def numerators(self):
            raise AssertionError("the mgf does not iterate the numerators")

        monkeypatch.setattr(HypergeomParams, "_numerator", numerator)
        monkeypatch.setattr(HypergeomParams, "_numerators", numerators)
        params = HypergeomParams(300, 200, 400)
        assert str(hypergeom_mgf(params, "0.25", 30)) == _per_point_mgf(params, "0.25", 30)
        assert built == [100]

    def test_weights_below_the_smallest_normal_decimal(self, monkeypatch):
        # pmf(0) = pmf(500) = 1/C(1000, 500), about 4e-300. With the
        # smallest normal decimal at 1e-250 (at the default 1e-999999 this
        # takes n3 past 3.3 million), the weights at both ends keep their
        # digits: the first for every weight stepped from it, the last for
        # its term, which dominates the sum at t = 10
        monkeypatch.setattr(decimal.DefaultContext, "Emin", -250)
        params = HypergeomParams(500, 500, 1000)
        for t in ("0.1", "10"):
            value = hypergeom_mgf(params, t, 15)
            assert _within_one_unit(value, _mpmath_mgf(params, t, 15), 15), t

    @pytest.mark.parametrize("t", ["-4.6e6", "-1e6", "1e-400000", "-1e-400000", "1e-999999"])
    def test_equals_per_point_strings_at_extreme_t(self, t):
        params = HypergeomParams(3, 2, 10)
        assert str(hypergeom_mgf(params, t, 15)) == _per_point_mgf(params, t, 15)

    def test_within_one_unit_of_mpmath_seeded(self):
        rng = random.Random(20261020)
        for _ in range(200):
            n3 = rng.randint(1, 500)
            n2, n1 = rng.randint(0, min(n3, 100)), rng.randint(0, n3)
            params = HypergeomParams(n1, n2, n3)
            t, digits = rng.choice(_MGF_TS), rng.randint(1, 40)
            value = hypergeom_mgf(params, t, digits)
            assert _within_one_unit(value, _mpmath_mgf(params, t, digits), digits)

    @pytest.mark.parametrize(
        "t", [" abc", "", "1/2", "Infinity", " -Infinity", "NaN", "sNaN", Decimal("NaN")]
    )
    def test_t_must_be_a_finite_decimal(self, t):
        with pytest.raises(ValueError, match="t must be a finite decimal number") as info:
            hypergeom_mgf(HypergeomParams(3, 2, 10), t, 15)
        assert repr(t) in str(info.value)

    @pytest.mark.parametrize("alter", ["round_floor", "trap_inexact"])
    def test_ignores_the_default_context_rounding_and_traps(self, monkeypatch, alter):
        # the law (5, 2, 10) at t = 0.5 rounds down at the last digit under
        # ROUND_FLOOR, and every mgf is inexact; the other laws are shaped
        # like the benchmark's mgf requests, at its 30 digits
        cases = [(HypergeomParams(5, 2, 10), "0.5", 15)] + [
            (HypergeomParams(n1, n2, n3), t, 30)
            for (n1, n2, n3), t in (
                ((12, 7, 30), "-0.5"),
                ((400, 37, 900), "0.1"),
                ((1500, 80, 4000), "0.693147"),
                ((21000, 100, 40000), "1.25"),
                ((9000, 64, 12000), "-2"),
            )
        ]
        expected = [str(hypergeom_mgf(*case)) for case in cases]
        assert expected[0] == "1.74224111226875"
        if alter == "round_floor":
            monkeypatch.setattr(decimal.DefaultContext, "rounding", decimal.ROUND_FLOOR)
        else:
            monkeypatch.setitem(decimal.DefaultContext.traps, decimal.Inexact, True)
        assert [str(hypergeom_mgf(*case)) for case in cases] == expected


class TestMoments:
    def test_mean_examples(self):
        assert hypergeom_mean(HypergeomParams(5, 4, 10)) == 2
        assert hypergeom_mean(HypergeomParams(0, 4, 10)) == 0
        params = HypergeomParams(1, 1, 2)
        assert hypergeom_mean(params) == HALF
        moment = sum((x * hypergeom_pmf(params, x) for x in params.support()), Fraction(0))
        assert moment == HALF

    def test_mean_needs_a_positive_n3(self):
        with pytest.raises(ValueError, match=r"mean needs n3 >= 1"):
            hypergeom_mean(HypergeomParams(0, 0, 0))

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
        with pytest.raises(ValueError, match=r"^variance needs n3 >= 2$"):
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
        with pytest.raises(ValueError, match=r"^common p required, got 1/2 and 1/3$"):
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


def _literal_sums(num_a: list[int], num_b: list[int]) -> list[int]:
    """sum_j num_a[j] num_b[k - j] for every k, by the double loop that
    binomial_convolve ran before its packed product; kept as the reference."""
    t1, t2 = len(num_a) - 1, len(num_b) - 1
    return [
        sum(num_a[j] * num_b[k - j] for j in range(max(0, k - t2), min(k, t1) + 1))
        for k in range(t1 + t2 + 1)
    ]


class TestPackedConvolution:
    """binomial_convolve's one packed product against the literal double loop."""

    PS = (Fraction(0), Fraction(1), HALF, THIRD, Fraction(3, 10), Fraction(2, 7), Fraction(99, 100))

    @staticmethod
    def _numerators(trials: int, p: Fraction) -> list[int]:
        return [prob._pmf_numerator(trials, p, j) for j in range(trials + 1)]

    @staticmethod
    def _width(p: Fraction, trials: int) -> int:
        """The bytes that hold v^trials, the slot width binomial_convolve uses."""
        return ((p.denominator**trials).bit_length() + 7) // 8

    def test_slots_equal_the_literal_double_loop(self):
        # trials 0-40 on either side, against short, equal and long partners
        for p in self.PS:
            for t1 in range(41):
                for t2 in sorted({0, 1, t1, 40 - t1, 40}):
                    num_a, num_b = self._numerators(t1, p), self._numerators(t2, p)
                    literal = _literal_sums(num_a, num_b)
                    assert prob._slot_sums(num_a, num_b, self._width(p, t1 + t2)) == literal, (p, t1, t2)
                    denominator = p.denominator ** (t1 + t2)
                    entries = binomial_convolve(BinomialParams(t1, p), BinomialParams(t2, p)).entries
                    assert [k for k, _ in entries] == list(range(t1 + t2 + 1))
                    for (k, q), total in zip(entries, literal):
                        want = Fraction(total, denominator)
                        assert type(q) is Fraction and _fields(q) == _fields(want), (p, t1, t2, k)

    def test_a_slot_one_byte_narrower_fails(self, monkeypatch):
        # at p = 0 and p = 1, v = 1 and the whole mass v^(t1+t2) sits in one
        # slot, so the bound is tight; at p = 99/100 the largest slot needs
        # every byte of it as well. The width is the one binomial_convolve
        # packs with, so narrowing it there fails here too.
        widths = []
        real = prob._slot_sums
        monkeypatch.setattr(prob, "_slot_sums", lambda a, b, width: widths.append(width) or real(a, b, width))
        for p in (Fraction(0), Fraction(1), Fraction(99, 100)):
            for t1, t2 in ((0, 0), (1, 1), (7, 3), (0, 40), (40, 40)):
                num_a, num_b = self._numerators(t1, p), self._numerators(t2, p)
                literal = _literal_sums(num_a, num_b)
                entries = binomial_convolve(BinomialParams(t1, p), BinomialParams(t2, p)).entries
                assert [q * p.denominator ** (t1 + t2) for _, q in entries] == literal
                width = widths.pop()
                assert width == self._width(p, t1 + t2)
                try:
                    narrowed = real(num_a, num_b, width - 1)
                except OverflowError:
                    continue
                assert narrowed != literal, (p, t1, t2)


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

    def test_equals_quotient_of_binomial_pmfs(self):
        for p in (HALF, THIRD, Fraction(3, 10), Fraction(99, 100)):
            for l1 in range(7):
                for l2 in range(7):
                    for k1 in range(l1 + 1):
                        for k2 in range(l2 + 1):
                            labels = DegenerateLabels(l1, k1, l2, k2)
                            quotient = (
                                binomial_pmf(BinomialParams(l1, p), k1)
                                * binomial_pmf(BinomialParams(l2, p), k2)
                                / binomial_pmf(BinomialParams(l1 + l2, p), k1 + k2)
                            )
                            assert conditional_probability(labels, p) == quotient

    def test_degenerate_conditioning_rejected(self):
        labels = DegenerateLabels(2, 1, 2, 1)
        for p in (Fraction(0), Fraction(1)):
            with pytest.raises(ValueError, match=rf"^p must lie strictly inside \(0, 1\), got {p}$"):
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
        with pytest.raises(ValueError, match=r"^n3 = 10 is not a multiple of 3$"):
            binomial_limit_tv(THIRD, 2, [10])

    def test_support_too_small_rejected(self):
        with pytest.raises(
            ValueError, match=r"^n2 = 6 exceeds min\(n1, n3 - n1\) = 5 at n3 = 10$"
        ):
            binomial_limit_tv(HALF, 6, [10])

    def test_every_n3_is_checked_before_any_sum(self, monkeypatch):
        def computed(*args):
            pytest.fail("a sum was started before every n3 was checked")

        monkeypatch.setattr(prob, "_pmf_numerator", computed)
        monkeypatch.setattr(prob, "binomial", computed)
        with pytest.raises(ValueError, match=r"^n3 must be positive, got -4$"):
            binomial_limit_tv(HALF, 2, [10, 100, -4])

    @pytest.mark.parametrize(
        "p, shown", [(Fraction(3, 2), "3/2"), (Fraction(-1, 2), "-1/2"), ("5/4", "5/4")]
    )
    def test_p_outside_unit_interval_rejected(self, p, shown):
        # named as the cause, before any n3 is looked at, as BinomialParams words it
        for sequence in ([4], [], [3]):
            with pytest.raises(ValueError) as excinfo:
                binomial_limit_tv(p, 0, sequence)
            assert type(excinfo.value) is ValueError
            assert str(excinfo.value) == f"p must lie in [0, 1], got {shown}"
        with pytest.raises(ValueError, match=r"^p must lie in \[0, 1\], got 3/2$"):
            BinomialParams(0, Fraction(3, 2))

    @pytest.mark.parametrize("p", [0, 1])
    def test_p_at_the_ends_accepted(self, p):
        assert binomial_limit_tv(p, 0, [4]) == [(4, Fraction(0))]

    def test_equals_fraction_formula(self):
        def oracle(p, n2, n3_sequence):
            # pointwise Fraction differences, halved at the end
            results = []
            for n3 in n3_sequence:
                n1 = int(p * n3)
                total = Fraction(0)
                for x in range(n2 + 1):
                    binomial_value = math.comb(n2, x) * p**x * (1 - p) ** (n2 - x)
                    total += abs(_literal_pmf(n1, n2, n3, x) - binomial_value)
                results.append((n3, total / 2))
            return results

        rng = random.Random(7)
        probabilities = [HALF, THIRD, Fraction(1, 4), Fraction(2, 5), Fraction(3, 10)]
        for p in probabilities:
            for _ in range(4):
                n2 = rng.randint(0, 60)
                step = p.denominator
                # smallest multiple of denominator(p) leaving full support [0, n2]
                n3 = max(step, -(-n2 // min(p, 1 - p)))
                n3 += -n3 % step
                sequence = [n3]
                while sequence[-1] * 3 <= 40000:
                    sequence.append(sequence[-1] * 3)
                assert binomial_limit_tv(p, n2, sequence) == oracle(p, n2, sequence)
        assert binomial_limit_tv(HALF, 2, []) == []
