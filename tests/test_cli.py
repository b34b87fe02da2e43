"""Tests for the command-line interface: values, exit codes, JSON stability
and round-tripping."""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import pytest

from cgexact import angular
from cgexact.cli import main
from cgexact.exact import SignedSqrtRational, sqrt_to_decimal
from cgexact.prob import HypergeomParams, hypergeom_pmf


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv: str):
    code, out = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out), out


class TestCgCommand:
    def test_backend_all_agreement(self, capsys):
        code, record, _ = run_json(
            capsys, "cg", "1/2", "1/2", "1/2", "-1/2", "1", "0", "--backend", "all"
        )
        assert code == 0
        assert record["status"] == "ok"
        assert record["exact"] == {"sign": 1, "radicand": {"num": "1", "den": "2"}}
        assert record["agreement"] is True
        assert set(record["backends"]) == {"racah", "3f2", "ladder"}
        for backend in record["backends"].values():
            assert backend["exact"] == record["exact"]

    def test_selection_rule_zero(self, capsys):
        code, record, _ = run_json(capsys, "cg", "1/2", "1/2", "1/2", "1/2", "1", "0")
        assert code == 0
        assert record["status"] == "zero"
        assert record["exact"]["sign"] == 0
        assert record["detail"] == "selection rule: gamma != alpha+beta"

    def test_structural_violation_exits_2(self, capsys):
        code, record, _ = run_json(capsys, "cg", "1/2", "3/2", "1/2", "-1/2", "1", "0")
        assert code == 2
        assert record["status"] == "error"
        assert "out of range" in record["detail"]

    def test_parse_error_exits_2(self, capsys):
        code, record, _ = run_json(capsys, "cg", "x", "1/2", "1/2", "-1/2", "1", "0")
        assert code == 2
        assert record["status"] == "error"

    def test_each_backend_individually(self, capsys):
        for backend in ("racah", "3f2", "ladder"):
            code, record, _ = run_json(
                capsys, "cg", "1", "0", "1", "0", "2", "0", "--backend", backend
            )
            assert code == 0
            assert record["exact"] == {"sign": 1, "radicand": {"num": "2", "den": "3"}}

    def test_ladder_inapplicable_off_stretch(self, capsys):
        code, record, _ = run_json(
            capsys, "cg", "1", "0", "1", "0", "1", "0", "--backend", "ladder"
        )
        assert code == 2
        assert "requires c = a + b" in record["detail"]

    def test_backend_all_skips_ladder_off_stretch(self, capsys):
        code, record, _ = run_json(
            capsys, "cg", "1", "1", "1", "-1", "1", "0", "--backend", "all"
        )
        assert code == 0
        assert set(record["backends"]) == {"racah", "3f2"}
        assert record["agreement"] is True
        assert "ladder backend skipped" in record["detail"]

    def test_text_format_default(self, capsys):
        code, out = run_cli(capsys, "cg", "1/2", "1/2", "1/2", "-1/2", "1", "0")
        assert code == 0
        assert out.startswith("+sqrt(1/2) = 0.7071067811")


class Test3jmCommand:
    def test_recomputed_example(self, capsys):
        code, record, _ = run_json(capsys, "3jm", "1", "1", "1", "-1", "0", "0")
        assert code == 0
        assert record["exact"] == {"sign": 1, "radicand": {"num": "1", "den": "3"}}

    def test_zero_case(self, capsys):
        code, record, _ = run_json(capsys, "3jm", "1/2", "1/2", "1/2", "1/2", "1", "0")
        assert code == 0
        assert record["status"] == "zero"

    def test_parse_error(self, capsys):
        code, record, _ = run_json(capsys, "3jm", "1", "1", "1", "-1", "0", "junk")
        assert code == 2
        assert record["status"] == "error"

    def test_backend_all_converts_consistently(self, capsys):
        code, record, _ = run_json(
            capsys, "3jm", "1", "0", "1", "0", "2", "0", "--backend", "all"
        )
        assert code == 0
        assert record["agreement"] is True


class TestDistCommand:
    def test_hypergeom_pmf(self, capsys):
        code, record, _ = run_json(
            capsys, "dist", "hypergeom-pmf", "--n1", "5", "--n2", "2", "--n3", "10",
            "--x", "1",
        )
        assert code == 0
        assert record["exact"] == {"rational": {"num": "5", "den": "9"}}
        assert record["decimal"].startswith("0.5555555555")

    def test_conditional(self, capsys):
        code, record, _ = run_json(
            capsys, "dist", "conditional", "--l1", "2", "--k1", "1", "--l2", "2",
            "--k2", "1", "--p", "1/3",
        )
        assert code == 0
        assert record["exact"] == {"rational": {"num": "2", "den": "3"}}

    def test_mean(self, capsys):
        code, record, _ = run_json(
            capsys, "dist", "mean", "--n1", "5", "--n2", "4", "--n3", "10"
        )
        assert code == 0
        assert record["exact"] == {"rational": {"num": "2", "den": "1"}}

    def test_variance(self, capsys):
        code, record, _ = run_json(
            capsys, "dist", "variance", "--n1", "5", "--n2", "4", "--n3", "10"
        )
        assert code == 0
        assert record["exact"] == {"rational": {"num": "2", "den": "3"}}

    def test_binomial_pmf(self, capsys):
        code, record, _ = run_json(
            capsys, "dist", "binomial-pmf", "--trials", "3", "--p", "1/3", "--r", "2"
        )
        assert code == 0
        assert record["exact"] == {"rational": {"num": "2", "den": "9"}}

    def test_pgf(self, capsys):
        code, record, _ = run_json(
            capsys, "dist", "pgf", "--n1", "1", "--n2", "1", "--n3", "2", "--t", "3"
        )
        assert code == 0
        assert record["exact"] == {"rational": {"num": "2", "den": "1"}}

    def test_mgf(self, capsys):
        code, record, _ = run_json(
            capsys, "dist", "mgf", "--n1", "1", "--n2", "1", "--n3", "2", "--t", "0",
            "--digits", "20",
        )
        assert code == 0
        assert record["exact"] is None
        assert record["decimal"].startswith("1")

    def test_convolve_table(self, capsys):
        code, record, _ = run_json(
            capsys, "dist", "convolve", "--trials1", "1", "--trials2", "1", "--p", "1/2"
        )
        assert code == 0
        assert [row["probability"] for row in record["table"]] == [
            {"num": "1", "den": "4"},
            {"num": "1", "den": "2"},
            {"num": "1", "den": "4"},
        ]

    def test_domain_error_exits_2(self, capsys):
        code, record, _ = run_json(
            capsys, "dist", "conditional", "--l1", "2", "--k1", "1", "--l2", "2",
            "--k2", "1", "--p", "1",
        )
        assert code == 2
        assert record["status"] == "error"



class TestValuesPastIntStrLimit:
    """Exact values with more than 4300 digits, Python's default cap on
    int-to-str conversion, render in both formats; the cap itself is left as
    it was for library callers."""

    ARGV = ("dist", "hypergeom-pmf", "--n1", "18126", "--n2", "7541", "--n3", "33648", "--x", "4059")

    @staticmethod
    def expected() -> Fraction:
        return hypergeom_pmf(HypergeomParams(18126, 7541, 33648), 4059)

    @staticmethod
    def parse_big(num: str, den: str) -> Fraction:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return Fraction(int(num), int(den))
        finally:
            sys.set_int_max_str_digits(limit)

    def test_json(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, record, _ = run_json(capsys, *self.ARGV)
        assert sys.get_int_max_str_digits() == limit
        assert code == 0
        assert record["status"] == "ok"
        assert record["decimal"] == "0.0104224925629355"
        exact = record["exact"]["rational"]
        assert len(exact["num"]) > 4300
        assert self.parse_big(exact["num"], exact["den"]) == self.expected()

    def test_text(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out = run_cli(capsys, *self.ARGV)
        assert sys.get_int_max_str_digits() == limit
        assert code == 0
        pretty, decimal = out.strip().split(" = ")
        assert decimal == "0.0104224925629355"
        assert self.parse_big(*pretty.split("/")) == self.expected()

class TestMgfOverflow:
    """e^(t x) past the largest decimal is a usage error with a message
    that names the cause, in both formats."""

    ARGV = ("dist", "mgf", "--n1", "3", "--n2", "2", "--n3", "10", "--t", "1e400000")

    def test_json(self, capsys):
        code = main([*self.ARGV, "--format", "json"])
        captured = capsys.readouterr()
        record = json.loads(captured.out)
        assert code == 2
        assert record["status"] == "error"
        assert "e^(t*x)" in record["detail"] and "overflows" in record["detail"]
        assert "<class" not in record["detail"]
        assert record["detail"] in captured.err

    def test_text(self, capsys):
        code = main(list(self.ARGV))
        captured = capsys.readouterr()
        assert code == 2
        assert "e^(t*x)" in captured.out and "overflows" in captured.out
        assert "<class" not in captured.out + captured.err
        assert "overflows" in captured.err


class TestLimitCommand:
    def test_anchor(self, capsys):
        code, records, _ = run_json(
            capsys, "limit", "--p", "1/2", "--n2", "2", "--n3", "10"
        )
        assert code == 0
        assert records[0]["n3"] == 10
        assert records[0]["exact"] == {"rational": {"num": "1", "den": "18"}}

    def test_zero_tv(self, capsys):
        code, records, _ = run_json(
            capsys, "limit", "--p", "1/2", "--n2", "0", "--n3", "10"
        )
        assert code == 0
        assert records[0]["status"] == "zero"

    def test_multiple_n3(self, capsys):
        code, records, _ = run_json(
            capsys, "limit", "--p", "1/2", "--n2", "2", "--n3", "10,100,1000"
        )
        assert code == 0
        assert [r["n3"] for r in records] == [10, 100, 1000]
        values = [Fraction(int(r["exact"]["rational"]["num"]), int(r["exact"]["rational"]["den"])) for r in records]
        assert values[0] > values[1] > values[2]

    def test_indivisible_n3_reported(self, capsys):
        code, record, _ = run_json(
            capsys, "limit", "--p", "1/3", "--n2", "2", "--n3", "10"
        )
        assert code == 2
        assert record["status"] == "error"
        assert "10" in record["detail"]


class TestVerifyCommand:
    def test_passing_suites_exit_0(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, record, _ = run_json(
            capsys, "verify", "--suite", "agreement", "--max-twice-ab", "2",
            "--output", str(out_path),
        )
        assert code == 0
        assert record["passed"] is True
        written = json.loads(out_path.read_text(encoding="utf-8"))
        assert written["suites"] == record["suites"]

    def test_all_suites_small(self, capsys):
        code, record, _ = run_json(
            capsys, "verify", "--max-twice-ab", "1", "--max-l", "2", "--max-n3", "4"
        )
        assert code == 0
        assert [s["suite_name"] for s in record["suites"]] == [
            "backend_agreement",
            "degenerate_identity",
            "distribution_identities",
        ]

    def test_fault_injected_build_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(
            angular, "cg_3f2", lambda labels: SignedSqrtRational(1, Fraction(9, 7))
        )
        code, record, _ = run_json(
            capsys, "verify", "--suite", "agreement", "--max-twice-ab", "1"
        )
        assert code == 1
        assert record["passed"] is False
        assert record["status"] == "error"

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--suite", "bogus"])
        assert excinfo.value.code == 2


class TestOutputContract:
    def test_json_is_byte_stable(self, capsys):
        argv = ("cg", "3/2", "1/2", "1", "-1", "5/2", "-1/2", "--backend", "all")
        _, _, first = run_json(capsys, *argv)
        _, _, second = run_json(capsys, *argv)
        assert first == second

    def test_command_echo_round_trips(self, capsys):
        argv = ["cg", "1/2", "1/2", "1/2", "-1/2", "1", "0", "--format", "json"]
        code, out_first = run_cli(capsys, *argv)
        record = json.loads(out_first)
        echoed = record["command"].split()
        assert echoed[0] == "cgexact"
        code, out_second = run_cli(capsys, *echoed[1:])
        assert code == 0
        assert out_first == out_second

    def test_decimal_field_is_derived_from_exact_field(self, capsys):
        _, record, _ = run_json(
            capsys, "cg", "3/2", "-1/2", "2", "1", "7/2", "1/2", "--digits", "30"
        )
        exact = record["exact"]
        value = SignedSqrtRational(
            exact["sign"],
            Fraction(int(exact["radicand"]["num"]), int(exact["radicand"]["den"])),
        )
        assert record["decimal"] == sqrt_to_decimal(value, 30)

    def test_printed_values_reparse_identically(self, capsys):
        _, record, _ = run_json(capsys, "dist", "hypergeom-pmf", "--n1", "5", "--n2",
                                "2", "--n3", "10", "--x", "1")
        rational = record["exact"]["rational"]
        assert Fraction(int(rational["num"]), int(rational["den"])) == Fraction(5, 9)

    def test_negative_half_integers_accepted_everywhere(self, capsys):
        code, record, _ = run_json(capsys, "cg", "2", "-1", "3/2", "-1/2", "7/2", "-3/2")
        assert code == 0
        assert record["status"] in ("ok", "zero")

    def test_text_format_verify_summary(self, capsys):
        code, out = run_cli(capsys, "verify", "--suite", "degenerate", "--max-l", "2")
        assert code == 0
        assert out.startswith("PASS degenerate_identity")

    def test_invalid_digits_is_clean_usage_error(self, capsys):
        code, record, _ = run_json(
            capsys, "cg", "1", "0", "1", "0", "2", "0", "--digits", "0"
        )
        assert code == 2
        assert record["status"] == "error"
