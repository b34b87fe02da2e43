"""Tests for the verification suites: passing sweeps, fault injection,
report determinism and JSON shape."""

from __future__ import annotations

import inspect
import json
import tracemalloc
from fractions import Fraction

import pytest

from cgexact import angular, prob, verify
from cgexact.cli import main
from cgexact.exact import SignedSqrtRational
from cgexact.verify import (
    run_backend_agreement,
    run_degenerate_identity,
    run_distribution_identities,
)


def test_backend_agreement_minimal_and_small():
    report = run_backend_agreement(1)
    assert report["passed"]
    assert report["cases_run"] > 0
    assert report["failures"] == []
    assert run_backend_agreement(3)["passed"]


def test_degenerate_identity_small():
    report = run_degenerate_identity(4)
    assert report["passed"]
    assert report["cases_run"] == sum(
        (l1 + 1) * (l2 + 1) for l1 in range(5) for l2 in range(5)
    )


def test_distribution_identities_small():
    report = run_distribution_identities(8)
    assert report["passed"]
    assert report["cases_run"] > 0


def _lcm_call_sites(function) -> set[tuple[str, int]]:
    lines, start = inspect.getsourcelines(function)
    filename = function.__code__.co_filename
    return {(filename, start + i) for i, line in enumerate(lines) if "math.lcm(" in line}


def test_lcm_folds_leave_no_live_blocks():
    # an argument tuple unpacked into math.lcm outlives the call on CPython's
    # tuple free lists; the one pairwise fold, which PmfTable and the
    # distributions suite both call, allocates nothing that stays live
    assert not _lcm_call_sites(prob.PmfTable.__post_init__)
    assert not _lcm_call_sites(verify._distribution_cases)
    sites = _lcm_call_sites(prob._over_common_denominator)
    assert len(sites) == 1
    tracemalloc.start()
    try:
        assert run_distribution_identities(30)["passed"]
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    live = {
        (stat.traceback[0].filename, stat.traceback[0].lineno): stat.size
        for stat in snapshot.statistics("lineno")
    }
    assert {site: live[site] for site in sites if site in live} == {}


def test_size_preconditions():
    with pytest.raises(ValueError):
        run_backend_agreement(0)
    with pytest.raises(ValueError):
        run_degenerate_identity(0)
    with pytest.raises(ValueError):
        run_distribution_identities(1)


def test_every_suite_row_has_its_public_runner():
    # _Suite.run calls run_<name> by name, so a row added without its runner
    # would fail only when `cgexact verify` reached it
    for row in verify.SUITES.values():
        name = f"run_{row.name}"
        assert callable(getattr(verify, name, None)), name
        assert name in verify.__all__, name
        assert row.run(row.least) == row.report(row.least)


RECORD_KEYS = ["suite_name", "parameter_ranges", "cases_run", "failure_count", "passed", "failures"]


@pytest.mark.parametrize("name", list(verify.SUITES))
def test_a_runner_returns_the_record_the_cli_prints(capsys, name):
    row = verify.SUITES[name]
    record = row.run(row.least)
    assert type(record) is dict
    assert list(record) == RECORD_KEYS
    assert json.loads(json.dumps(record)) == record
    flag = "--" + row.param.replace("_", "-")
    assert main(["verify", "--suite", name, flag, str(row.least), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["suites"] == [record]


def test_cases_yield_none_or_their_failure_row(monkeypatch):
    # a passing case yields None, not a closure over its loop variables, and
    # a failing one yields its row of three strings, built only then
    for row in verify.SUITES.values():
        consts = row.cases.__code__.co_consts
        assert not [c for c in consts if inspect.iscode(c) and c.co_name == "<lambda>"], row.name
        assert all(item is None for item in row.cases(row.least)), row.name
    fault, _, size, cases, failure_count, *_ = GOLDEN_FAULTS["agreement"]
    fault(monkeypatch)
    items = list(verify.SUITES["agreement"].cases(size))
    failing = [item for item in items if item is not None]
    assert (len(items), len(failing)) == (cases, failure_count)
    for item in failing:
        assert type(item) is tuple and len(item) == 3, item
        assert all(type(field) is str for field in item), item


def test_backend_agreement_fault_injection(monkeypatch):
    # negation of zero is zero, so only genuinely nonzero cases disagree
    monkeypatch.setattr(angular, "cg_3f2", lambda labels: -angular.cg_racah(labels))
    report = run_backend_agreement(2)
    assert not report["passed"]
    assert report["failure_count"] > 0
    assert len(report["failures"]) <= 20
    assert report["failure_count"] >= len(report["failures"])


def test_degenerate_identity_fault_injection(monkeypatch):
    real = angular.cg_degenerate_squared

    def skewed(labels):
        return real(labels) * Fraction(2)

    monkeypatch.setattr(angular, "cg_degenerate_squared", skewed)
    report = run_degenerate_identity(3)
    assert not report["passed"]


def test_a_skewed_quotient_kernel_fails_its_one_degenerate_case(monkeypatch):
    # the ratio is exact's quotient kernel as angular calls it; doubled at
    # one (l1, k1, l2, k2), the suite fails that case and no other
    real = angular._binomial_quotient

    def skewed(l1, k1, l2, k2):
        q = real(l1, k1, l2, k2)
        return q * 2 if (l1, k1, l2, k2) == (7, 3, 5, 2) else q

    monkeypatch.setattr(angular, "_binomial_quotient", skewed)
    report = run_degenerate_identity(10)
    assert (report["cases_run"], report["failure_count"]) == (4356, 1)
    assert [f["input"] for f in report["failures"]] == ["l1=7 k1=3 l2=5 k2=2"]


def test_distribution_identities_fault_injection(monkeypatch):
    real = prob.hypergeom_variance

    def skewed(params):
        return real(params) + 1

    monkeypatch.setattr(prob, "hypergeom_variance", skewed)
    report = run_distribution_identities(4)
    assert not report["passed"]


def test_failure_cap_and_full_count(monkeypatch):
    monkeypatch.setattr(
        angular, "cg_3f2", lambda labels: SignedSqrtRational(1, Fraction(7, 5))
    )
    report = run_backend_agreement(3)
    assert len(report["failures"]) == 20
    assert report["failure_count"] > 20


def _dumped(report) -> str:
    return json.dumps(report, indent=2)


def test_reports_are_deterministic():
    assert _dumped(run_backend_agreement(2)) == _dumped(run_backend_agreement(2))
    assert _dumped(run_degenerate_identity(3)) == _dumped(run_degenerate_identity(3))


def test_report_json_shape():
    report = run_degenerate_identity(2)
    data = json.loads(_dumped(report))
    assert list(data) == [
        "suite_name",
        "parameter_ranges",
        "cases_run",
        "failure_count",
        "passed",
        "failures",
    ]
    assert data["suite_name"] == "degenerate_identity"
    assert data["passed"] is True
    assert data["failures"] == []


def test_failure_rows_have_input_expected_actual(monkeypatch):
    monkeypatch.setattr(
        angular, "cg_3f2", lambda labels: SignedSqrtRational(1, Fraction(7, 5))
    )
    report = run_backend_agreement(1)
    row = report["failures"][0]
    assert set(row) == {"input", "expected", "actual"}
    # failures are sorted by input for reproducible reports
    inputs = [f["input"] for f in report["failures"]]
    assert inputs == sorted(inputs)


# Golden failure rows. Each fault skews one operation so that exactly one
# leg of a suite (plus the legs that depend on it) fails; the pinned counts
# and rows are the reports of the Fraction-per-case implementation, so a
# suite that stops checking a leg, or formats a row differently, fails here.


def _constant_3f2(monkeypatch):
    monkeypatch.setattr(
        angular, "cg_3f2", lambda labels: SignedSqrtRational(1, Fraction(7, 5))
    )


def _gamma_blind_3f2(monkeypatch):
    # evaluates at gamma := alpha + beta wherever that label set is valid,
    # so only the gamma != alpha + beta zeros can go wrong
    real = angular.cg_3f2

    def blind(labels):
        try:
            labels = angular.CgLabels.from_twice(
                labels.a.twice, labels.alpha.twice, labels.b.twice, labels.beta.twice,
                labels.c.twice, labels.alpha.twice + labels.beta.twice,
            )
        except angular.InvalidLabelsError:
            pass
        return real(labels)

    monkeypatch.setattr(angular, "cg_3f2", blind)


def _doubled_ratio(monkeypatch):
    real = angular.cg_degenerate_squared
    monkeypatch.setattr(angular, "cg_degenerate_squared", lambda labels: real(labels) * 2)


def _doubled_conditional(monkeypatch):
    real = prob.conditional_probability
    monkeypatch.setattr(prob, "conditional_probability", lambda labels, p: real(labels, p) * 2)


def _negated_ladder(monkeypatch):
    real = angular.cg_ladder_rows

    def negated(a, b):
        for vector in real(a, b):
            yield angular.ProductStateVector({key: -v for key, v in vector.entries.items()})

    monkeypatch.setattr(angular, "cg_ladder_rows", negated)


def _doubled_top_pmf(monkeypatch):
    real = prob.hypergeom_pmf

    def doubled(params, x):
        value = real(params, x)
        return value * 2 if x == params.support()[-1] else value

    monkeypatch.setattr(prob, "hypergeom_pmf", doubled)


def _reflected_pmf(monkeypatch):
    # a permutation of the pmf: it still sums to 1, but the moments move
    real = prob.hypergeom_pmf

    def reflected(params, x):
        support = params.support()
        return real(params, support[0] + support[-1] - x)

    monkeypatch.setattr(prob, "hypergeom_pmf", reflected)


def _shifted_variance(monkeypatch):
    real = prob.hypergeom_variance
    monkeypatch.setattr(prob, "hypergeom_variance", lambda params: real(params) + 1)


def _shifted_pgf(monkeypatch):
    real = prob.hypergeom_pgf
    monkeypatch.setattr(prob, "hypergeom_pgf", lambda params, t: real(params, t) + Fraction(1, 3))


def _halved_binomial_at_one(monkeypatch):
    real = prob.binomial_pmf

    def halved(params, r):
        value = real(params, r)
        return value / 2 if r == 1 else value

    monkeypatch.setattr(prob, "binomial_pmf", halved)


GOLDEN_FAULTS = {
    "agreement": (
        _constant_3f2, run_backend_agreement, 2, 700, 700,
        ("a=0 alpha=0 b=0 beta=0 c=0 gamma=0", "+sqrt(1)", "+sqrt(7/5)"),
        ("a=0 alpha=0 b=1/2 beta=1/2 c=1/2 gamma=1/2", "+sqrt(1)", "+sqrt(7/5)"),
    ),
    "agreement-gamma": (
        _gamma_blind_3f2, run_backend_agreement, 2, 700, 116,
        ("a=0 alpha=0 b=1 beta=-1 c=1 gamma=0", "0", "+sqrt(1)"),
        ("a=1/2 alpha=1/2 b=1/2 beta=1/2 c=1 gamma=0", "0", "+sqrt(1)"),
    ),
    "degenerate-ratio": (
        _doubled_ratio, run_degenerate_identity, 3, 100, 100,
        ("l1=0 k1=0 l2=0 k2=0", "sign=+1 radicand=2",
         "cg=+sqrt(1) conditional=1 ladder=+sqrt(1)"),
        ("l1=1 k1=1 l2=2 k2=0", "sign=+1 radicand=2/3",
         "cg=+sqrt(1/3) conditional=1/3 ladder=+sqrt(1/3)"),
    ),
    "degenerate-conditional": (
        _doubled_conditional, run_degenerate_identity, 3, 100, 100,
        ("l1=0 k1=0 l2=0 k2=0", "sign=+1 radicand=1",
         "cg=+sqrt(1) conditional=2 ladder=+sqrt(1)"),
        ("l1=1 k1=1 l2=2 k2=0", "sign=+1 radicand=1/3",
         "cg=+sqrt(1/3) conditional=2/3 ladder=+sqrt(1/3)"),
    ),
    "degenerate-ladder": (
        _negated_ladder, run_degenerate_identity, 3, 100, 100,
        ("l1=0 k1=0 l2=0 k2=0", "sign=+1 radicand=1",
         "cg=+sqrt(1) conditional=1 ladder=-sqrt(1)"),
        ("l1=1 k1=1 l2=2 k2=0", "sign=+1 radicand=1/3",
         "cg=+sqrt(1/3) conditional=1/3 ladder=-sqrt(1/3)"),
    ),
    "pmf-sum": (
        _doubled_top_pmf, run_distribution_identities, 4, 269, 99,
        ("n1=0 n2=0 n3=0 pmf-sum", "1", "2"),
        ("n1=2 n2=2 n3=2 variance", "0", "2"),
    ),
    "mean": (
        _reflected_pmf, run_distribution_identities, 4, 269, 10,
        ("n1=1 n2=1 n3=3 mean", "1/3", "2/3"),
        ("n1=3 n2=3 n3=4 variance", "3/16", "35/16"),
    ),
    "variance": (
        _shifted_variance, run_distribution_identities, 4, 269, 50,
        ("n1=0 n2=0 n3=2 variance", "1", "0"),
        ("n1=2 n2=2 n3=3 variance", "11/9", "2/9"),
    ),
    "pgf": (
        _shifted_pgf, run_distribution_identities, 4, 269, 35,
        ("n1=0 n2=0 n3=0 pgf(1)", "1", "4/3"),
        ("n1=3 n2=0 n3=3 pgf(1)", "1", "4/3"),
    ),
    "convolution": (
        _halved_binomial_at_one, run_distribution_identities, 4, 269, 72,
        ("convolve trials1=0 trials2=1 p=1/2", "binomial pmf with summed trials",
         "pointwise mismatch"),
        ("convolve trials1=1 trials2=2 p=1/3", "binomial pmf with summed trials",
         "pointwise mismatch"),
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN_FAULTS))
def test_golden_failure_rows(monkeypatch, name):
    fault, runner, size, cases, failure_count, first, last = GOLDEN_FAULTS[name]
    fault(monkeypatch)
    report = runner(size)
    assert report["cases_run"] == cases
    assert report["failure_count"] == failure_count
    assert len(report["failures"]) == min(failure_count, 20)
    rows = [(f["input"], f["expected"], f["actual"]) for f in report["failures"]]
    assert (rows[0], rows[-1]) == (first, last)


def test_gamma_fault_fails_exactly_the_nonzero_corrected_cases():
    # the agreement-gamma row's failure count, counted from cg_racah: the
    # gamma != alpha + beta label sets whose value at gamma := alpha + beta,
    # where that set is valid, is nonzero
    count = 0
    for ta in range(3):
        for tb in range(3):
            for tal in range(-ta, ta + 1, 2):
                for tbe in range(-tb, tb + 1, 2):
                    tg = tal + tbe
                    for tc in range(ta + tb + 3):
                        if abs(tg) <= tc and (tc + tg) % 2 == 0:
                            labels = angular.CgLabels.from_twice(ta, tal, tb, tbe, tc, tg)
                            # one failing case per other gamma of this c
                            if not angular.cg_racah(labels).is_zero:
                                count += tc
    assert count == GOLDEN_FAULTS["agreement-gamma"][4]


def test_off_by_one_lowering_factor_is_caught(monkeypatch, capsys):
    # |1 1> -> |1 0> gets squared amplitude 3 instead of 2. The factor is
    # wrong on every call alike, so the ladder raises nothing and only the
    # comparison with the other backends can see it.
    argv = ["cg", "1", "0", "1", "0", "2", "0", "--backend", "all", "--format", "json"]
    assert run_degenerate_identity(4)["passed"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["agreement"] is True
    real = angular._lowering_factor
    monkeypatch.setattr(
        angular, "_lowering_factor", lambda tj, tm: real(tj, tm) + ((tj, tm) == (2, 2))
    )
    report = run_degenerate_identity(4)
    assert (report["cases_run"], report["failure_count"]) == (225, 45)
    rows = [(f["input"], f["expected"], f["actual"]) for f in report["failures"]]
    assert rows[0] == (
        "l1=1 k1=0 l2=2 k2=1", "sign=+1 radicand=2/3",
        "cg=+sqrt(2/3) conditional=2/3 ladder=+sqrt(3/4)",
    )
    assert main(argv) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["agreement"] is False
    assert record["backends"]["ladder"]["exact"]["radicand"] == {"num": "3", "den": "4"}


def test_a_row_without_a_key_fails_with_ladder_zero(monkeypatch):
    # the degenerate suite reads each (2m1, 2m2) key of the row; one that is
    # missing reads as 0, so each row fails once, at the key it lost
    real = angular.cg_ladder_rows

    def without_first_key(a, b):
        for vector in real(a, b):
            yield angular.ProductStateVector(dict(list(vector.entries.items())[1:]))

    monkeypatch.setattr(angular, "cg_ladder_rows", without_first_key)
    report = run_degenerate_identity(2)
    assert (report["cases_run"], report["failure_count"]) == (36, 27)
    assert all(f["actual"].endswith(" ladder=0") for f in report["failures"])
    assert (report["failures"][0]["input"], report["failures"][0]["actual"]) == (
        "l1=0 k1=0 l2=0 k2=0", "cg=+sqrt(1) conditional=1 ladder=0"
    )


def test_reflected_mean_fails_exactly_the_mean_cases(monkeypatch):
    # the variance leg reads hypergeom_mean too, but E[X(X-1)] + m - m^2 is
    # unchanged by m -> 1 - m, so only the mean leg fails, on every law whose
    # mean is not 1/2; rows as the Fraction-per-case implementation wrote them
    real = prob.hypergeom_mean
    monkeypatch.setattr(prob, "hypergeom_mean", lambda params: 1 - real(params))
    report = run_distribution_identities(4)
    assert (report["cases_run"], report["failure_count"]) == (269, 51)
    assert [(f["input"], f["expected"], f["actual"]) for f in report["failures"]] == [
        ("n1=0 n2=0 n3=1 mean", "1", "0"),
        ("n1=0 n2=0 n3=2 mean", "1", "0"),
        ("n1=0 n2=0 n3=3 mean", "1", "0"),
        ("n1=0 n2=1 n3=1 mean", "1", "0"),
        ("n1=0 n2=1 n3=2 mean", "1", "0"),
        ("n1=0 n2=1 n3=3 mean", "1", "0"),
        ("n1=0 n2=2 n3=2 mean", "1", "0"),
        ("n1=0 n2=2 n3=3 mean", "1", "0"),
        ("n1=0 n2=3 n3=3 mean", "1", "0"),
        ("n1=1 n2=0 n3=1 mean", "1", "0"),
        ("n1=1 n2=0 n3=2 mean", "1", "0"),
        ("n1=1 n2=0 n3=3 mean", "1", "0"),
        ("n1=1 n2=1 n3=1 mean", "0", "1"),
        ("n1=1 n2=1 n3=3 mean", "2/3", "1/3"),
        ("n1=1 n2=2 n3=2 mean", "0", "1"),
        ("n1=1 n2=2 n3=3 mean", "1/3", "2/3"),
        ("n1=1 n2=3 n3=3 mean", "0", "1"),
        ("n1=2 n2=0 n3=2 mean", "1", "0"),
        ("n1=2 n2=1 n3=2 mean", "0", "1"),
        ("n1=2 n2=2 n3=2 mean", "-1", "2"),
    ]
    laws = [(n1, n2, n3) for n3 in range(1, 5) for n1 in range(n3 + 1) for n2 in range(n3 + 1)]
    assert report["failure_count"] == sum(2 * n1 * n2 != n3 for n1, n2, n3 in laws)


def test_a_fault_in_one_split_fails_that_split_alone(monkeypatch):
    # the merged law is one reference for every split of its trials; the
    # (2, 1) table with outcomes 0 and 1 swapped still sums to 1, and only
    # its own comparison may see it, not the (1, 2) or (3, 0) split's
    real = prob.binomial_convolve

    def swapped(a, b):
        table = real(a, b)
        if (a.trials, b.trials) != (2, 1):
            return table
        (k0, q0), (k1, q1), *rest = table.entries
        return prob.PmfTable(((k0, q1), (k1, q0), *rest))

    monkeypatch.setattr(prob, "binomial_convolve", swapped)
    report = run_distribution_identities(4)
    assert (report["cases_run"], report["failure_count"]) == (269, 3)
    assert [f["input"] for f in report["failures"]] == [
        f"convolve trials1=2 trials2=1 p={p}" for p in ("1/2", "1/3", "3/10")
    ]


def test_default_cli_verify_stdout_is_pinned(capsys):
    assert main(["verify", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert len(out.encode()) == 806
    assert out == DEFAULT_VERIFY_JSON


DEFAULT_VERIFY_JSON = """\
{
  "command": "cgexact verify --format json",
  "status": "ok",
  "passed": true,
  "suites": [
    {
      "suite_name": "backend_agreement",
      "parameter_ranges": "2a, 2b <= 5; 2c <= 2a+2b+2; all projections",
      "cases_run": 23716,
      "failure_count": 0,
      "passed": true,
      "failures": []
    },
    {
      "suite_name": "degenerate_identity",
      "parameter_ranges": "l1, l2 <= 10; all k1, k2",
      "cases_run": 4356,
      "failure_count": 0,
      "passed": true,
      "failures": []
    },
    {
      "suite_name": "distribution_identities",
      "parameter_ranges": "n3 <= 30, all valid (n1, n2); convolution trials <= 12, p in {1/2, 1/3, 3/10}",
      "cases_run": 37205,
      "failure_count": 0,
      "passed": true,
      "failures": []
    }
  ],
  "detail": ""
}
"""
