"""Exhaustive identity verification suites with reproducible reports.

Each suite sweeps a deterministic parameter range (lexicographic on doubled
integers), compares public operations of the angular/prob modules against
each other, and returns a structured report. The report layer performs no
mathematics of its own.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from . import angular, prob
from .angular import CgLabels, DegenerateLabels, HalfInt

__all__ = [
    "Failure",
    "SuiteReport",
    "run_backend_agreement",
    "run_degenerate_identity",
    "run_distribution_identities",
]

_FAILURE_CAP = 20


@dataclass(frozen=True)
class Failure:
    input: str
    expected: str
    actual: str

    def to_dict(self) -> dict:
        return {"input": self.input, "expected": self.expected, "actual": self.actual}


@dataclass
class SuiteReport:
    suite_name: str
    parameter_ranges: str
    cases_run: int
    failure_count: int
    failures: list[Failure]

    @property
    def passed(self) -> bool:
        return self.failure_count == 0

    def to_dict(self) -> dict:
        return {
            "suite_name": self.suite_name,
            "parameter_ranges": self.parameter_ranges,
            "cases_run": self.cases_run,
            "failure_count": self.failure_count,
            "passed": self.passed,
            "failures": [f.to_dict() for f in self.failures],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


class _Recorder:
    """Counts cases and keeps the first failures up to the report cap."""

    def __init__(self) -> None:
        self.cases = 0
        self.failure_count = 0
        self.failures: list[Failure] = []

    def check(self, ok: bool, input_desc: str, expected: str, actual: str) -> None:
        self.cases += 1
        if ok:
            return
        self.failure_count += 1
        if len(self.failures) < _FAILURE_CAP:
            self.failures.append(Failure(input_desc, expected, actual))

    def report(self, name: str, ranges: str) -> SuiteReport:
        failures = sorted(self.failures, key=lambda f: f.input)
        return SuiteReport(name, ranges, self.cases, self.failure_count, failures)


def run_backend_agreement(max_twice_ab: int) -> SuiteReport:
    """Exact (sign, radicand) agreement of the Racah and 3F2 backends.

    Sweeps every structurally valid label set with 2a, 2b <= max_twice_ab
    and 2c <= 2a + 2b + 2; the margin past the triangle bound exercises
    agreement on selection-rule zeros as well.
    """
    if max_twice_ab < 1:
        raise ValueError(f"max_twice_ab must be >= 1, got {max_twice_ab}")
    rec = _Recorder()
    for ta in range(max_twice_ab + 1):
        for tb in range(max_twice_ab + 1):
            for tal in range(-ta, ta + 1, 2):
                for tbe in range(-tb, tb + 1, 2):
                    for tc in range(ta + tb + 3):
                        for tg in range(-tc, tc + 1, 2):
                            labels = CgLabels.from_twice(ta, tal, tb, tbe, tc, tg)
                            racah = angular.cg_racah(labels)
                            series = angular.cg_3f2(labels)
                            rec.check(
                                racah == series,
                                f"a={HalfInt(ta)} alpha={HalfInt(tal)} b={HalfInt(tb)} "
                                f"beta={HalfInt(tbe)} c={HalfInt(tc)} gamma={HalfInt(tg)}",
                                str(racah),
                                str(series),
                            )
    return rec.report(
        "backend_agreement",
        f"2a, 2b <= {max_twice_ab}; 2c <= 2a+2b+2; all projections",
    )


def run_degenerate_identity(max_l: int) -> SuiteReport:
    """The stretched coefficient against all of its independent expressions.

    For every (l1, k1, l2, k2) with l1, l2 <= max_l: the Racah radicand must
    equal the three-binomial ratio and the p = 1/3 conditional probability,
    the sign must be +1, and the ladder-oracle amplitude must match exactly.
    """
    if max_l < 1:
        raise ValueError(f"max_l must be >= 1, got {max_l}")
    rec = _Recorder()
    one_third = Fraction(1, 3)
    for l1 in range(max_l + 1):
        for l2 in range(max_l + 1):
            spin1, spin2 = HalfInt(l1), HalfInt(l2)
            for steps, vector in enumerate(angular.cg_ladder_rows(spin1, spin2)):
                for k1 in range(max(0, steps - l2), min(l1, steps) + 1):
                    k2 = steps - k1
                    labels = DegenerateLabels(l1, k1, l2, k2)
                    coefficient = angular.cg_racah(labels.to_cg_labels())
                    ratio = angular.cg_degenerate_squared(labels)
                    conditional = prob.conditional_probability(labels, one_third)
                    amplitude = vector.amplitude(HalfInt(l1 - 2 * k1), HalfInt(l2 - 2 * k2))
                    ok = (
                        coefficient.sign == 1
                        and coefficient.radicand == ratio == conditional
                        and amplitude == coefficient
                    )
                    rec.check(
                        ok,
                        f"l1={l1} k1={k1} l2={l2} k2={k2}",
                        f"sign=+1 radicand={ratio}",
                        f"cg={coefficient} conditional={conditional} ladder={amplitude}",
                    )
    return rec.report("degenerate_identity", f"l1, l2 <= {max_l}; all k1, k2")


def run_distribution_identities(max_n3: int) -> SuiteReport:
    """Normalization, moments, pgf normalization, and convolution closure.

    Sweeps all (n1, n2, n3) with n3 <= max_n3, then convolution closure for
    trial counts up to min(12, max_n3) with p in {1/2, 1/3, 3/10}.
    """
    if max_n3 < 2:
        raise ValueError(f"max_n3 must be >= 2, got {max_n3}")
    rec = _Recorder()
    for n3 in range(max_n3 + 1):
        for n1 in range(n3 + 1):
            for n2 in range(n3 + 1):
                params = prob.HypergeomParams(n1, n2, n3)
                pmf = [(x, prob.hypergeom_pmf(params, x)) for x in params.support()]
                total = sum((q for _, q in pmf), Fraction(0))
                tag = f"n1={n1} n2={n2} n3={n3}"
                rec.check(total == 1, f"{tag} pmf-sum", "1", str(total))
                if n3 >= 1:
                    mean = sum((x * q for x, q in pmf), Fraction(0))
                    rec.check(
                        mean == prob.hypergeom_mean(params),
                        f"{tag} mean",
                        str(prob.hypergeom_mean(params)),
                        str(mean),
                    )
                if n3 >= 2:
                    fact2 = sum((x * (x - 1) * q for x, q in pmf), Fraction(0))
                    mean = prob.hypergeom_mean(params)
                    variance = fact2 + mean - mean * mean
                    rec.check(
                        variance == prob.hypergeom_variance(params),
                        f"{tag} variance",
                        str(prob.hypergeom_variance(params)),
                        str(variance),
                    )
                if n3 - n1 - n2 + 1 >= 1:
                    value = prob.hypergeom_pgf(params, 1)
                    rec.check(value == 1, f"{tag} pgf(1)", "1", str(value))
    max_trials = min(12, max_n3)
    for trials1 in range(max_trials + 1):
        for trials2 in range(max_trials + 1):
            for p in (Fraction(1, 2), Fraction(1, 3), Fraction(3, 10)):
                table = prob.binomial_convolve(
                    prob.BinomialParams(trials1, p), prob.BinomialParams(trials2, p)
                )
                merged = prob.BinomialParams(trials1 + trials2, p)
                ok = all(
                    q == prob.binomial_pmf(merged, k) for k, q in table.entries
                )
                rec.check(
                    ok,
                    f"convolve trials1={trials1} trials2={trials2} p={p}",
                    "binomial pmf with summed trials",
                    "pointwise mismatch" if not ok else "match",
                )
    return rec.report(
        "distribution_identities",
        f"n3 <= {max_n3}, all valid (n1, n2); convolution trials <= {max_trials}, "
        "p in {1/2, 1/3, 3/10}",
    )
