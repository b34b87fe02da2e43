"""Acceptance suite: one test per criterion, exact comparisons throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion. Every tolerance is pinned here; nothing is deferred.
"""

from __future__ import annotations

import json
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from cgexact import angular
from cgexact.angular import (
    CgLabels,
    DegenerateLabels,
    HalfInt,
    cg_degenerate_squared,
    cg_ladder_stretched,
    cg_racah,
    racah_zsum_terms,
)
from cgexact.cli import main
from cgexact.exact import SignedSqrtRational, sqrt_to_decimal
from cgexact.prob import (
    BinomialParams,
    HypergeomParams,
    binomial_convolve,
    binomial_limit_tv,
    binomial_pmf,
    conditional_probability,
    hypergeom_mean,
    hypergeom_pgf,
    hypergeom_pmf,
    hypergeom_variance,
)
from cgexact.verify import run_backend_agreement

# Exact regression bound for the binomial-limit analysis, recorded from the
# first exact run of criterion 9 and frozen thereafter.
FROZEN_FINAL_TV = Fraction(234447966584791061, 3901690498045051142112)


def _report(number: int, text: str) -> None:
    print(f"ACCEPTANCE PASS {number}: {text}")


def test_criterion_1_backend_equivalence():
    report = run_backend_agreement(5)
    assert report["cases_run"] > 0
    assert report["failure_count"] == 0, report["failures"][:5]
    _report(1, f"cg_racah == cg_3f2 on {report['cases_run']} label sets (exact)")


def test_criterion_2_degenerate_identity():
    cases = 0
    for l1 in range(11):
        for l2 in range(11):
            for k1 in range(l1 + 1):
                for k2 in range(l2 + 1):
                    labels = DegenerateLabels(l1, k1, l2, k2)
                    value = cg_racah(labels.to_cg_labels())
                    assert value.sign == 1
                    assert value.radicand == cg_degenerate_squared(labels)
                    cases += 1
    _report(2, f"stretched radicand equals the binomial ratio on {cases} cases (exact)")


def test_criterion_3_ladder_oracle_equivalence():
    cases = 0
    for ta in range(13):
        for tb in range(13 - ta):
            spin1, spin2 = HalfInt(ta), HalfInt(tb)
            for steps in range(ta + tb + 1):
                vector = cg_ladder_stretched(spin1, spin2, steps)
                tg = ta + tb - 2 * steps
                for (m1, m2), amplitude in vector.entries.items():
                    labels = CgLabels.from_twice(ta, m1, tb, m2, ta + tb, tg)
                    assert amplitude == cg_racah(labels)
                    cases += 1
    _report(3, f"ladder amplitudes equal cg_racah on {cases} entries (exact)")


def test_criterion_4_degenerate_zsum_collapse():
    cases = 0
    for l1 in range(11):
        for l2 in range(11):
            for k1 in range(l1 + 1):
                for k2 in range(l2 + 1):
                    labels = DegenerateLabels(l1, k1, l2, k2).to_cg_labels()
                    nonzero = [(z, t) for z, t in racah_zsum_terms(labels) if t != 0]
                    assert len(nonzero) == 1
                    assert nonzero[0][0] == 0
                    cases += 1
    _report(4, f"z-sum has exactly one nonzero term, at z = 0, on {cases} cases")


def test_criterion_5_normalization_and_orthogonality():
    norm_cases = 0
    for ta in range(6):
        for tb in range(6):
            for tc in range(abs(ta - tb), ta + tb + 1, 2):
                for tg in range(-tc, tc + 1, 2):
                    total = Fraction(0)
                    for tal in range(-ta, ta + 1, 2):
                        tbe = tg - tal
                        if abs(tbe) > tb:
                            continue
                        total += cg_racah(
                            CgLabels.from_twice(ta, tal, tb, tbe, tc, tg)
                        ).radicand
                    assert total == 1
                    norm_cases += 1

    orth_cases = 0
    tolerance = Decimal(10) ** -40
    with localcontext() as ctx:
        ctx.prec = 60
        for ta in range(6):
            for tb in range(6):
                for tg in range(-(ta + tb), ta + tb + 1, 2):
                    c_values = [
                        tc
                        for tc in range(abs(ta - tb), ta + tb + 1, 2)
                        if tc >= abs(tg)
                    ]
                    for i, tc1 in enumerate(c_values):
                        for tc2 in c_values[i + 1 :]:
                            total = Decimal(0)
                            for tal in range(-ta, ta + 1, 2):
                                tbe = tg - tal
                                if abs(tbe) > tb:
                                    continue
                                product = cg_racah(
                                    CgLabels.from_twice(ta, tal, tb, tbe, tc1, tg)
                                ) * cg_racah(
                                    CgLabels.from_twice(ta, tal, tb, tbe, tc2, tg)
                                )
                                total += Decimal(sqrt_to_decimal(product, 50))
                            assert abs(total) < tolerance
                            orth_cases += 1
    _report(
        5,
        f"normalization exact on {norm_cases} columns; cross-c orthogonality "
        f"< 1e-40 at 50 digits on {orth_cases} pairs",
    )


def test_criterion_6_distribution_identities():
    cases = 0
    for n3 in range(31):
        for n1 in range(n3 + 1):
            for n2 in range(n3 + 1):
                params = HypergeomParams(n1, n2, n3)
                pmf = [(x, hypergeom_pmf(params, x)) for x in params.support()]
                assert sum((q for _, q in pmf), Fraction(0)) == 1
                if n3 >= 1:
                    mean = sum((x * q for x, q in pmf), Fraction(0))
                    assert mean == hypergeom_mean(params) == Fraction(n1 * n2, n3)
                if n3 >= 2:
                    second = sum((x * x * q for x, q in pmf), Fraction(0))
                    mean = hypergeom_mean(params)
                    assert second - mean * mean == hypergeom_variance(params)
                if n3 - n1 - n2 + 1 >= 1:
                    assert hypergeom_pgf(params, 1) == 1
                cases += 1
    _report(6, f"pmf/mean/variance/pgf identities exact on {cases} parameter sets")


def test_criterion_7_convolution_closure():
    cases = 0
    for trials1 in range(13):
        for trials2 in range(13):
            for p in (Fraction(1, 2), Fraction(1, 3), Fraction(3, 10)):
                table = binomial_convolve(
                    BinomialParams(trials1, p), BinomialParams(trials2, p)
                )
                merged = BinomialParams(trials1 + trials2, p)
                for k, q in table.entries:
                    assert q == binomial_pmf(merged, k)
                cases += 1
    _report(7, f"convolution closure pointwise exact on {cases} (l1, l2, p) triples")


def test_criterion_8_probabilistic_identity():
    ps = (Fraction(1, 2), Fraction(1, 3), Fraction(3, 10), Fraction(99, 100))
    cases = 0
    for l1 in range(11):
        for l2 in range(11):
            for k1 in range(l1 + 1):
                for k2 in range(l2 + 1):
                    labels = DegenerateLabels(l1, k1, l2, k2)
                    expected = cg_degenerate_squared(labels)
                    for p in ps:
                        assert conditional_probability(labels, p) == expected
                    cases += 1
    _report(8, f"conditional probability equals the squared coefficient, "
               f"p-invariant over {len(ps)} values, on {cases} cases")


def test_criterion_9_binomial_limit():
    anchor = binomial_limit_tv(Fraction(1, 2), 2, [10])
    assert anchor == [(10, Fraction(1, 18))]

    sequence = [40 * 4**i for i in range(6)]
    results = binomial_limit_tv(Fraction(1, 2), 10, sequence)
    distances = [tv for _, tv in results]
    for earlier, later in zip(distances, distances[1:]):
        assert later < earlier
    assert distances[-1] == FROZEN_FINAL_TV
    assert distances[-1] < Fraction(1, 1000)
    _report(9, f"tv strictly decreasing over n3 = {sequence}; final tv "
               f"= {distances[-1]} < 1/1000 (frozen)")


class TestCriterion10CliContract:
    def _json(self, capsys, *argv):
        code = main([*argv, "--format", "json"])
        out = capsys.readouterr().out
        return code, json.loads(out), out

    def test_documented_examples_and_exit_codes(self, capsys):
        code, record, _ = self._json(
            capsys, "cg", "1/2", "1/2", "1/2", "-1/2", "1", "0", "--backend", "all"
        )
        assert code == 0
        assert record["exact"] == {"sign": 1, "radicand": {"num": "1", "den": "2"}}
        assert record["agreement"] is True

        code, record, _ = self._json(capsys, "cg", "1/2", "1/2", "1/2", "1/2", "1", "0")
        assert code == 0  # mathematically zero results still exit 0
        assert record["status"] == "zero"
        assert "gamma != alpha+beta" in record["detail"]

        code, record, _ = self._json(capsys, "cg", "1/2", "3/2", "1/2", "-1/2", "1", "0")
        assert code == 2

        code, records, _ = self._json(
            capsys, "limit", "--p", "1/2", "--n2", "2", "--n3", "10"
        )
        assert code == 0
        assert records[0]["exact"] == {"rational": {"num": "1", "den": "18"}}

        code, record, _ = self._json(
            capsys, "dist", "hypergeom-pmf", "--n1", "5", "--n2", "2", "--n3", "10",
            "--x", "1",
        )
        assert code == 0
        assert record["exact"] == {"rational": {"num": "5", "den": "9"}}

        code, record, _ = self._json(
            capsys, "dist", "conditional", "--l1", "2", "--k1", "1", "--l2", "2",
            "--k2", "1", "--p", "1/3",
        )
        assert code == 0
        assert record["exact"] == {"rational": {"num": "2", "den": "3"}}

        code, record, _ = self._json(
            capsys, "verify", "--suite", "agreement", "--max-twice-ab", "2"
        )
        assert code == 0
        assert record["passed"] is True

    def test_round_trip_byte_identical(self, capsys):
        invocations = (
            ("cg", "1/2", "1/2", "1/2", "-1/2", "1", "0", "--backend", "all"),
            ("3jm", "1", "1", "1", "-1", "0", "0"),
            ("dist", "mean", "--n1", "5", "--n2", "4", "--n3", "10"),
            ("limit", "--p", "1/2", "--n2", "2", "--n3", "10,40"),
        )
        for argv in invocations:
            code, payload, first = self._json(capsys, *argv)
            assert code == 0
            record = payload[0] if isinstance(payload, list) else payload
            echoed = record["command"].split()
            assert echoed[0] == "cgexact"
            assert main(echoed[1:]) == 0
            second = capsys.readouterr().out
            assert first == second

    def test_verify_failure_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(
            angular, "cg_3f2", lambda labels: SignedSqrtRational(1, Fraction(5, 4))
        )
        code = main(["verify", "--suite", "agreement", "--max-twice-ab", "1",
                     "--format", "json"])
        capsys.readouterr()
        assert code == 1

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--suite", "bogus"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_reported(self):
        _report(10, "CLI JSON examples round-trip byte-identically; exit codes "
                    "follow the 0/1/2 mapping")
