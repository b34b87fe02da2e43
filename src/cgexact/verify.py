"""Exhaustive identity verification suites with reproducible reports.

Each suite sweeps a deterministic parameter range (lexicographic on doubled
integers), compares public operations of the angular/prob modules against
each other, and returns its JSON record: the dict that `cgexact verify`
prints for it. The report layer performs no mathematics of its own. A
passing case yields None and is only counted; a failing one yields its
failure row (input, expected, actual), which is formatted only when the
check fails.

Every suite is declared once, as a row of `SUITES`; adding a suite means one
case generator, yielding None or a failure row per case, one row, and one
public runner `run_<name>`, listed in `__all__`. `_Suite.run` calls that
runner by name, so that a tracer or a monkeypatch sees the call. The CLI
builds its `--suite` choices and size flags from the rows.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from . import angular, prob
from .angular import CgLabels, DegenerateLabels, HalfInt
from .exact import SignedSqrtRational

__all__ = [
    "SUITES",
    "run_backend_agreement",
    "run_degenerate_identity",
    "run_distribution_identities",
]

_FAILURE_CAP = 20
_MAX_TRIALS = 12  # convolution closure's largest trial count
_CONVOLUTION_PS = (Fraction(1, 2), Fraction(1, 3), Fraction(3, 10))


def _agreement_cases(max_twice_ab: int) -> Iterator:
    for ta in range(max_twice_ab + 1):
        for tb in range(max_twice_ab + 1):
            for tal in range(-ta, ta + 1, 2):
                for tbe in range(-tb, tb + 1, 2):
                    for tc in range(ta + tb + 3):
                        for tg in range(-tc, tc + 1, 2):
                            labels = CgLabels.from_twice(ta, tal, tb, tbe, tc, tg)
                            racah = angular.cg_racah(labels)
                            series = angular.cg_3f2(labels)
                            yield None if racah == series else (
                                f"a={HalfInt(ta)} alpha={HalfInt(tal)} b={HalfInt(tb)} "
                                f"beta={HalfInt(tbe)} c={HalfInt(tc)} gamma={HalfInt(tg)}",
                                str(racah), str(series),
                            )


def _degenerate_cases(max_l: int) -> Iterator:
    one_third = Fraction(1, 3)
    zero = SignedSqrtRational.zero()
    for l1 in range(max_l + 1):
        for l2 in range(max_l + 1):
            for steps, vector in enumerate(angular.cg_ladder_rows(HalfInt(l1), HalfInt(l2))):
                for k1 in range(max(0, steps - l2), min(l1, steps) + 1):
                    k2 = steps - k1
                    labels = DegenerateLabels(l1, k1, l2, k2)
                    coefficient = angular.cg_racah(labels.to_cg_labels())
                    ratio = angular.cg_degenerate_squared(labels)
                    conditional = prob.conditional_probability(labels, one_third)
                    amplitude = vector.entries.get((l1 - 2 * k1, l2 - 2 * k2), zero)
                    ok = (
                        coefficient.sign == 1
                        and coefficient.radicand == ratio == conditional
                        and amplitude == coefficient
                    )
                    yield None if ok else (
                        f"l1={l1} k1={k1} l2={l2} k2={k2}",
                        f"sign=+1 radicand={ratio}",
                        f"cg={coefficient} conditional={conditional} ladder={amplitude}",
                    )


def _distribution_cases(max_n3: int) -> Iterator:
    for n3 in range(max_n3 + 1):
        for n1 in range(n3 + 1):
            for n2 in range(n3 + 1):
                params = prob.HypergeomParams(n1, n2, n3)
                support = params.support()
                pmf = [prob.hypergeom_pmf(params, x) for x in support]
                scaled, common = prob._over_common_denominator(pmf)
                total = sum(scaled)
                yield None if total == common else (
                    f"n1={n1} n2={n2} n3={n3} pmf-sum", "1", str(Fraction(total, common))
                )
                # each moment is a numerator over a known denominator, and
                # equals the expected Fraction when the cross products agree
                if n3 >= 1:
                    expected_mean = prob.hypergeom_mean(params)
                    a, b = expected_mean._numerator, expected_mean._denominator
                    products = list(map(mul, support, scaled))  # x times its numerator
                    mean = sum(products)
                    yield None if mean * b == a * common else (
                        f"n1={n1} n2={n2} n3={n3} mean",
                        str(expected_mean), str(Fraction(mean, common)),
                    )
                if n3 >= 2:
                    # E[X(X-1)] as E[X^2] - E[X], both on the numerators
                    fact2 = sum(map(mul, support, products)) - mean
                    # E[X(X-1)] + mean - mean^2 with mean = a/b, over common * b^2
                    variance = fact2 * b * b + (a * b - a * a) * common
                    expected_variance = prob.hypergeom_variance(params)
                    yield None if variance * expected_variance._denominator == (
                        expected_variance._numerator * common * b * b
                    ) else (
                        f"n1={n1} n2={n2} n3={n3} variance",
                        str(expected_variance), str(Fraction(variance, common * b * b)),
                    )
                # the pgf covers every law, but this case count is part of
                # the default report, so pgf(1) stays on laws whose support
                # starts at 0
                if support.start == 0:
                    value = prob.hypergeom_pgf(params, 1)
                    yield None if value == 1 else (f"n1={n1} n2={n2} n3={n3} pgf(1)", "1", str(value))
    max_trials = min(_MAX_TRIALS, max_n3)
    # the merged law is the one reference for every split of its trials, so
    # its table is built once per (trials, p); each split's table is still
    # convolved afresh and compared with it outcome by outcome
    merged = {}
    for trials1 in range(max_trials + 1):
        for trials2 in range(max_trials + 1):
            for p in _CONVOLUTION_PS:
                table = prob.binomial_convolve(
                    prob.BinomialParams(trials1, p), prob.BinomialParams(trials2, p)
                )
                trials = trials1 + trials2
                expected = merged.get((trials, p))
                if expected is None:
                    law = prob.BinomialParams(trials, p)
                    expected = tuple((k, prob.binomial_pmf(law, k)) for k in range(trials + 1))
                    merged[trials, p] = expected
                yield None if table.entries == expected else (
                    f"convolve trials1={trials1} trials2={trials2} p={p}",
                    "binomial pmf with summed trials", "pointwise mismatch",
                )


class _Suite(NamedTuple):
    name: str
    param: str
    default: int
    least: int
    cases: Callable[[int], Iterator[tuple[str, str, str] | None]]
    ranges: Callable[[int], str]

    def checked(self, size: int) -> int:
        if size < self.least:
            raise ValueError(f"{self.param} must be >= {self.least}, got {size}")
        return size

    def run(self, size: int) -> dict:
        # the public runner, looked up at call time so that a wrapper rebound
        # on this module (a tracer, a monkeypatch) sees the call
        return globals()[f"run_{self.name}"](size)

    def report(self, size: int) -> dict:
        """The suite's JSON record: the cases counted and the first failures,
        sorted by input."""
        self.checked(size)
        cases = failure_count = 0
        failures = []
        for row in self.cases(size):
            cases += 1
            if row is not None:
                failure_count += 1
                if len(failures) < _FAILURE_CAP:
                    failures.append(row)
        failures.sort(key=lambda row: row[0])
        return {
            "suite_name": self.name,
            "parameter_ranges": self.ranges(size),
            "cases_run": cases,
            "failure_count": failure_count,
            "passed": failure_count == 0,
            "failures": [{"input": i, "expected": e, "actual": a} for i, e, a in failures],
        }


# Every suite, keyed by its CLI name, in report order.
SUITES = {
    "agreement": _Suite(
        "backend_agreement", "max_twice_ab", 5, 1, _agreement_cases,
        lambda n: f"2a, 2b <= {n}; 2c <= 2a+2b+2; all projections",
    ),
    "degenerate": _Suite(
        "degenerate_identity", "max_l", 10, 1, _degenerate_cases,
        lambda n: f"l1, l2 <= {n}; all k1, k2",
    ),
    "distributions": _Suite(
        "distribution_identities", "max_n3", 30, 2, _distribution_cases,
        lambda n: f"n3 <= {n}, all valid (n1, n2); convolution trials <= "
        f"{min(_MAX_TRIALS, n)}, p in {{{', '.join(map(str, _CONVOLUTION_PS))}}}",
    ),
}


def run_backend_agreement(max_twice_ab: int) -> dict:
    """Exact (sign, radicand) agreement of the Racah and 3F2 backends.

    Sweeps every structurally valid label set with 2a, 2b <= max_twice_ab
    and 2c <= 2a + 2b + 2; the margin past the triangle bound exercises
    agreement on selection-rule zeros as well.
    """
    return SUITES["agreement"].report(max_twice_ab)


def run_degenerate_identity(max_l: int) -> dict:
    """The stretched coefficient against all of its independent expressions.

    For every (l1, k1, l2, k2) with l1, l2 <= max_l: the Racah radicand must
    equal the three-binomial ratio and the p = 1/3 conditional probability,
    the sign must be +1, and the ladder-oracle amplitude must match exactly.
    """
    return SUITES["degenerate"].report(max_l)


def run_distribution_identities(max_n3: int) -> dict:
    """Normalization, moments, pgf normalization, and convolution closure.

    Sweeps all (n1, n2, n3) with n3 <= max_n3, then convolution closure for
    trial counts up to min(12, max_n3) with p in {1/2, 1/3, 3/10}. The sums
    over the pmf are literal sums of hypergeom_pmf values, taken on integer
    numerators over the lcm of their denominators. Each closure case
    convolves its own two laws and compares its whole table, outcome by
    outcome, with the merged law binomial(trials1 + trials2, p). That law
    is the same reference for every split of its trials, so its table is
    built once per (trials, p).

    `cgexact verify` runs this suite in its forked child. At the defaults
    the child's record arrives a few ms after the parent's agreement and
    degenerate suites end, so this suite still sets the command's wall time.
    """
    return SUITES["distributions"].report(max_n3)
