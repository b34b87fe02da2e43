"""Tests for the command-line interface: values, exit codes, JSON stability
and round-tripping."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from cgexact import angular, prob, verify
from cgexact.cli import main
from cgexact.exact import SignedSqrtRational, sqrt_to_decimal
from cgexact.prob import HypergeomParams, hypergeom_mgf, hypergeom_pmf


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
        skipped = "ladder backend skipped: requires c = a + b"
        # why a value is zero comes before the skip note
        for labels, reason in (
            ("1 1 1 -1 1 0", ""),
            ("1 1 1 1 1 0", "selection rule: gamma != alpha+beta"),
            ("1 0 1 0 1 0", "coefficient vanishes: alternating sum is zero"),
        ):
            code, record, _ = run_json(capsys, "cg", *labels.split(), "--backend", "all")
            assert code == 0
            assert set(record["backends"]) == {"racah", "3f2"}
            assert record["agreement"] is True
            assert record["detail"] == (f"{reason}; {skipped}" if reason else skipped)
            _, alone, _ = run_json(capsys, "cg", *labels.split())
            assert alone["detail"] == reason

    def test_text_format_default(self, capsys):
        code, out = run_cli(capsys, "cg", "1/2", "1/2", "1/2", "-1/2", "1", "0")
        assert code == 0
        assert out.startswith("+sqrt(1/2) = 0.7071067811")

    @pytest.mark.parametrize(
        "argv",
        [
            "1/2 1/2 1/2 1/2 1 1 --backend ladder",
            "0 0 0 0 0 0 --backend all",
            "1/2 1/2 1/2 -1/2 1 0",
            "1/2 -1/2 1/2 1/2 0 0 --backend 3f2",
        ],
    )
    def test_text_value_is_written_as_str_writes_it(self, capsys, argv):
        _, record, _ = run_json(capsys, "cg", *argv.split())
        exact = record["exact"]
        value = SignedSqrtRational(
            exact["sign"],
            Fraction(int(exact["radicand"]["num"]), int(exact["radicand"]["den"])),
        )
        _, out = run_cli(capsys, "cg", *argv.split())
        assert out.splitlines()[0] == f"{value} = {record['decimal']}"


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

    def test_digit_limit_is_never_set(self, capsys, monkeypatch):
        def refuse(limit):
            raise AssertionError(f"set_int_max_str_digits({limit}) called")

        monkeypatch.setattr(sys, "set_int_max_str_digits", refuse)
        code, record, _ = run_json(capsys, *self.ARGV)
        assert code == 0
        exact = record["exact"]["rational"]
        assert len(exact["num"]) > 4300
        parsed = Fraction(int(Decimal(exact["num"])), int(Decimal(exact["den"])))
        assert parsed == self.expected()
        code, out = run_cli(capsys, *self.ARGV)
        assert code == 0
        num, den = out.strip().split(" = ")[0].split("/")
        assert num == exact["num"] and den == exact["den"]

class TestDigitsPastIntStrLimit:
    """--digits past 4300 renders: <1 0; 1 0 | 2 0> = sqrt(2/3) to 4301
    significant digits, in both formats, with the int-to-str cap untouched."""

    ARGV = ("cg", "1", "0", "1", "0", "2", "0", "--digits", "4301")

    @staticmethod
    def assert_rounded_sqrt_two_thirds(decimal: str) -> None:
        assert decimal.startswith("0.8164965809")
        digits = decimal[2:]
        assert len(digits) == 4301
        # n = round(sqrt(2/3) * 10**4301): 3 (2n - 1)^2 < 8 * 10**8602 < 3 (2n + 1)^2
        n = int(Decimal(digits))
        bound = 8 * 10**8602
        assert 3 * (2 * n - 1) ** 2 < bound < 3 * (2 * n + 1) ** 2

    def test_json(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, record, _ = run_json(capsys, *self.ARGV)
        assert sys.get_int_max_str_digits() == limit
        assert code == 0
        assert record["status"] == "ok"
        assert record["exact"] == {"sign": 1, "radicand": {"num": "2", "den": "3"}}
        self.assert_rounded_sqrt_two_thirds(record["decimal"])

    def test_text(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out = run_cli(capsys, *self.ARGV)
        assert sys.get_int_max_str_digits() == limit
        assert code == 0
        pretty, decimal = out.strip().split(" = ")
        assert pretty == "+sqrt(2/3)"
        self.assert_rounded_sqrt_two_thirds(decimal)


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


class TestMgfUnderflow:
    """A sum below the smallest normal decimal is a usage error that names the
    underflow, t and x0, in both formats; tiny sums above it still render."""

    @staticmethod
    def argv(n1, n2, n3, t, fmt):
        return ["dist", "mgf", "--n1", n1, "--n2", n2, "--n3", n3, "--t", t, "--format", fmt]

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_underflow_exits_2(self, capsys, fmt):
        code = main(self.argv("5", "5", "6", "-4.6e6", fmt))
        captured = capsys.readouterr()
        message = captured.err.removeprefix("cgexact: ").rstrip("\n")
        assert code == 2
        assert "underflows" in message and "t = -4.6E+6 from x0 = 4 " in message
        if fmt == "json":
            record = json.loads(captured.out)
            assert record["status"] == "error" and record["detail"] == message
        else:
            assert captured.out == f"error: {message}\n"

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize(
        "law, t, decimal",
        [(("5", "5", "6"), "-2e5", "2.16419381971783E-347436"),
         (("3", "2", "10"), "-4.6e6", "0.466666666666667")],
    )
    def test_tiny_sums_render(self, capsys, fmt, law, t, decimal):
        code = main(self.argv(*law, t, fmt))
        out = capsys.readouterr().out
        assert code == 0
        if fmt == "json":
            assert json.loads(out)["decimal"] == decimal
        else:
            assert out.startswith(f"(no exact value) = {decimal}\n")


class TestMgfBadT:
    """A t that does not parse, or is not finite, is a usage error that
    names t, in both formats."""

    @staticmethod
    def argv(t):
        return ["dist", "mgf", "--n1", "3", "--n2", "2", "--n3", "10", "--t", t]

    @pytest.mark.parametrize("t", [" abc", "Infinity", " -Infinity", "NaN"])
    def test_json(self, capsys, t):
        code = main([*self.argv(t), "--format", "json"])
        captured = capsys.readouterr()
        record = json.loads(captured.out)
        assert code == 2
        assert record["status"] == "error"
        assert record["detail"] == f"t must be a finite decimal number, got {t!r}"
        assert record["detail"] in captured.err

    @pytest.mark.parametrize("t", [" abc", "Infinity", " -Infinity", "NaN"])
    def test_text(self, capsys, t):
        code = main(self.argv(t))
        captured = capsys.readouterr()
        assert code == 2
        assert f"t must be a finite decimal number, got {t!r}" in captured.out
        assert "<class" not in captured.out + captured.err


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


class TestNegativeValues:
    """Negative values in decimal, exponent or list form reach the library;
    the command echo keeps the argv as typed."""

    @pytest.mark.parametrize("t", ["-1e-5", "-4.6e6", "-1E+2", "-.5e1", "-5."])
    def test_mgf_exponent_and_decimal_forms(self, capsys, t):
        argv = ["dist", "mgf", "--n1", "3", "--n2", "2", "--n3", "10", "--t", t, "--format", "json"]
        code = main(argv)
        captured = capsys.readouterr()
        record = json.loads(captured.out)
        assert code == 0 and captured.err == ""
        assert record["command"] == "cgexact " + " ".join(argv)
        assert record["status"] == "ok"
        assert record["decimal"] == str(hypergeom_mgf(HypergeomParams(3, 2, 10), t, 15))
        if t == "-1e-5":
            assert record["decimal"] == "0.999994000036667"

    def test_limit_negative_n3_in_a_list(self, capsys):
        argv = ["limit", "--p", "1/2", "--n2", "1", "--n3", "-4,8", "--format", "json"]
        code = main(argv)
        captured = capsys.readouterr()
        record = json.loads(captured.out)
        assert code == 2
        assert record["command"] == "cgexact " + " ".join(argv)
        assert record["status"] == "error"
        assert record["detail"] == "n3 must be positive, got -4"
        assert captured.err == "cgexact: n3 must be positive, got -4\n"

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_limit_n3_list_that_does_not_parse(self, capsys, fmt):
        code = main(["limit", "--p", "1/2", "--n2", "1", "--n3", "1,x", "--format", fmt])
        captured = capsys.readouterr()
        message = "cannot parse n3 list '1,x'"
        assert code == 2
        assert captured.err == f"cgexact: {message}\n"
        if fmt == "json":
            assert json.loads(captured.out)["detail"] == message
        else:
            assert captured.out == f"error: {message}\n"

    @pytest.mark.parametrize("p", ["3/2", "-1/2"])
    def test_limit_p_outside_unit_interval(self, capsys, p):
        for fmt in ("json", "text"):
            code = main(["limit", "--p", p, "--n2", "0", "--n3", "4", "--format", fmt])
            captured = capsys.readouterr()
            message = f"p must lie in [0, 1], got {p}"
            assert code == 2
            assert captured.err == f"cgexact: {message}\n"
            if fmt == "json":
                assert json.loads(captured.out)["detail"] == message
            else:
                assert captured.out == f"error: {message}\n"


    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize(
        "argv, message",
        [(["cg", "-1/2x", "0", "1", "0", "1", "0"], "cannot parse a = '-1/2x' as a half-integer"),
         (["dist", "pgf", "--n1", "5", "--n2", "2", "--n3", "10", "--t", "-1/0"],
          "cannot parse t = '-1/0' as a rational"),
         (["limit", "--p", "-1/2x", "--n2", "2", "--n3", "10"],
          "cannot parse p = '-1/2x' as a rational")],
    )
    def test_parse_messages_quote_the_token_as_typed(self, capsys, fmt, argv, message):
        code = main([*argv, "--format", fmt])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"cgexact: {message}\n"
        if fmt == "json":
            assert json.loads(captured.out)["detail"] == message
        else:
            assert captured.out == f"error: {message}\n"


SMALL_SIZES = ("--max-twice-ab", "1", "--max-l", "2", "--max-n3", "4")
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the forked run needs os.fork")


class _TwoArgumentError(Exception):
    # pickles, but its one arg does not unpickle through __init__
    def __init__(self, first: str, second: str) -> None:
        super().__init__(first + second)


def _assert_no_child() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_sizes_are_checked_before_any_suite_runs(self, capsys, monkeypatch, fmt):
        calls = []
        real = angular.cg_racah
        monkeypatch.setattr(angular, "cg_racah", lambda labels: calls.append(1) or real(labels))
        # the first size in suite order that is too small is named
        for sizes, message in (
            (["--max-n3", "1"], "max_n3 must be >= 2, got 1"),
            (["--max-l", "0", "--max-n3", "1"], "max_l must be >= 1, got 0"),
        ):
            code = main(["verify", *sizes, "--format", fmt])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.err == f"cgexact: {message}\n"
        assert calls == []

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize(
        "where, strerror",
        [("missing/r.json", "No such file or directory"), ("", "Is a directory")],
    )
    def test_unwritable_output_exits_2_before_any_suite_runs(
        self, capsys, monkeypatch, tmp_path, fmt, where, strerror
    ):
        calls = []
        real = angular.cg_racah
        monkeypatch.setattr(angular, "cg_racah", lambda labels: calls.append(1) or real(labels))
        path = str(tmp_path / where) if where else str(tmp_path)
        argv = ["verify", "--suite", "agreement", "--max-twice-ab", "1", "--output", path]
        code = main([*argv, "--format", fmt])
        captured = capsys.readouterr()
        message = f"cannot write the report to {path!r}: {strerror}"
        assert code == 2
        assert captured.err == f"cgexact: {message}\n"
        if fmt == "json":
            assert json.loads(captured.out)["detail"] == message
        else:
            assert captured.out == f"error: {message}\n"
        assert calls == []

    def test_output_file_is_the_json_stdout(self, capsys, tmp_path):
        # with --suite all, the forked child holds the open report file too,
        # and must not write it a second time
        for suite_args in (
            ["--suite", "degenerate", "--max-l", "2"], ["--suite", "all", *SMALL_SIZES]
        ):
            out_path = tmp_path / "report.json"
            _, _, out = run_json(capsys, "verify", *suite_args, "--output", str(out_path))
            assert out_path.read_text(encoding="utf-8") == out

    def test_child_suite_fault_gives_the_in_process_rows(self, capsys, monkeypatch):
        monkeypatch.setattr(prob, "hypergeom_pgf", lambda params, t: 2)
        want = verify.run_distribution_identities(4).to_dict()
        assert want["failure_count"] > 0
        code, record, _ = run_json(capsys, "verify", *SMALL_SIZES)
        assert code == 1
        assert record["suites"][-1] == want

    @needs_fork
    @pytest.mark.parametrize("fork", [True, False])
    def test_child_suite_error_exits_2(self, capsys, monkeypatch, fork):
        def boom(size):
            raise ArithmeticError("boom")

        monkeypatch.setattr(verify, "run_distribution_identities", boom)
        if not fork:
            monkeypatch.delattr(os, "fork")
        code = main(["verify", *SMALL_SIZES, "--format", "json"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "cgexact: boom\n"
        assert json.loads(captured.out)["detail"] == "boom"

    def test_a_single_suite_runs_in_process(self, capsys, monkeypatch):
        _, every, _ = run_json(capsys, "verify", "--suite", "all", *SMALL_SIZES)

        def fork():
            raise AssertionError("a single suite forked a child")

        monkeypatch.setattr(os, "fork", fork, raising=False)
        for name, row in zip(verify.SUITES, every["suites"]):
            code, record, _ = run_json(capsys, "verify", "--suite", name, *SMALL_SIZES)
            assert code == 0
            assert record["suites"] == [row]

        def boom(size):
            raise ArithmeticError("boom")

        monkeypatch.setattr(verify, "run_degenerate_identity", boom)
        code = main(["verify", "--suite", "degenerate", *SMALL_SIZES, "--format", "json"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "cgexact: boom\n"
        assert json.loads(captured.out)["detail"] == "boom"

    @needs_fork
    def test_child_that_ends_without_a_report_has_its_suite_run_here(
        self, capsys, monkeypatch
    ):
        here = os.getpid()
        real = verify.run_distribution_identities

        def run(size):
            if os.getpid() != here:
                os._exit(3)
            return real(size)

        monkeypatch.setattr(verify, "run_distribution_identities", run)
        code, record, _ = run_json(capsys, "verify", *SMALL_SIZES)
        assert code == 0
        assert record["suites"][-1] == verify.run_distribution_identities(4).to_dict()
        _assert_no_child()

    @needs_fork
    @pytest.mark.parametrize("unpicklable", ["local class", "two-argument __init__"])
    def test_child_error_is_raised_as_in_process(self, capsys, monkeypatch, unpicklable):
        # neither error survives a pickle round trip; the object itself is
        # raised, by the parent's own run of the suite
        class Local(Exception):
            pass

        error = Local("boom") if unpicklable == "local class" else _TwoArgumentError("bo", "om")

        def fail(size):
            raise error

        monkeypatch.setattr(verify, "run_distribution_identities", fail)
        with pytest.raises(type(error)) as excinfo:
            main(["verify", *SMALL_SIZES])
        assert excinfo.value is error
        _assert_no_child()

    @needs_fork
    @pytest.mark.parametrize(
        "error", [None, ArithmeticError("boom"), KeyboardInterrupt()],
        ids=["returns", "ArithmeticError", "KeyboardInterrupt"],
    )
    def test_no_child_outlives_main(self, capsys, monkeypatch, error):
        argv = ["verify", *SMALL_SIZES]
        if error is not None:
            def fail(size):
                raise error

            monkeypatch.setattr(verify, "run_backend_agreement", fail)
            # the child's suite is still running when the parent's fails
            argv[-1] = "30"
        if isinstance(error, KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                main(argv)
        else:
            main(argv)
        _assert_no_child()

    @needs_fork
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_stdout_without_fork_is_the_forked_stdout(self, capfd, monkeypatch, fmt):
        # capfd, not capsys: the child's writes to the inherited stdio would
        # land in its own copy of an in-memory sys.stdout
        forked = run_cli(capfd, "verify", *SMALL_SIZES, "--format", fmt)
        monkeypatch.delattr(os, "fork")
        assert run_cli(capfd, "verify", *SMALL_SIZES, "--format", fmt) == forked

    @needs_fork
    def test_failing_text_report_lists_the_failure_rows(self, capfd, monkeypatch):
        monkeypatch.setattr(prob, "hypergeom_pgf", lambda params, t: 2)
        code, out = run_cli(capfd, "verify", *SMALL_SIZES, "--format", "text")
        _, record, _ = run_json(capfd, "verify", *SMALL_SIZES)
        failing = record["suites"][-1]
        assert code == 1
        assert failing["failures"]
        lines = out.splitlines()
        assert [line.split(" (")[0] for line in lines[:2]] == [
            "PASS backend_agreement", "PASS degenerate_identity"
        ]
        assert lines[2:] == [
            f"FAIL distribution_identities "
            f"(cases={failing['cases_run']} failures={failing['failure_count']})",
            *(
                f"  {row['input']}: expected {row['expected']}, got {row['actual']}"
                for row in failing["failures"]
            ),
            "error: one or more suites reported failures",
        ]
        monkeypatch.delattr(os, "fork")
        assert run_cli(capfd, "verify", *SMALL_SIZES, "--format", "text") == (code, out)

    def test_output_path_keeps_the_name_as_typed(self, capsys, monkeypatch, tmp_path):
        # "-1.json" starts like a negative number, so argparse sees it shielded
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "--suite", "degenerate", "--max-l", "1", "--output", "-1.json"]) == 0
        capsys.readouterr()
        assert [path.name for path in tmp_path.iterdir()] == ["-1.json"]

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--suite", "bogus"])
        assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "argv, flag, choices",
    [
        ("verify --suite bogus", "--suite", "'agreement', 'degenerate', 'distributions', 'all'"),
        ("cg 1 1 1 -1 2 0 --backend bogus", "--backend", "'racah', '3f2', 'ladder', 'all'"),
        ("dist mean --n1 1 --n2 1 --n3 2 --format bogus", "--format", "'text', 'json'"),
    ],
)
def test_invalid_choice_message_is_the_same_on_every_python(capsys, argv, flag, choices):
    # argparse's own message stopped quoting the choices in Python 3.13
    with pytest.raises(SystemExit) as excinfo:
        main(argv.split())
    assert excinfo.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.endswith(f"error: argument {flag}: invalid choice: 'bogus' (choose from {choices})")


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


# Bytes of whole invocations, pinned: sha256 of "<exit code>\n<stdout>\0<stderr>",
# first 16 hex digits, for the JSON and the text format of each argv. Text
# output and JSON key order are covered by nothing else; one ok and one error
# case per subcommand, every backend, and argparse's own usage errors, whose
# wrapping is fixed by COLUMNS.
PINNED_BYTES = [
    ("cg 1/2 1/2 1/2 -1/2 1 0", "b2cb6229a294742b", "c6ef867760e02d81"),
    ("cg 1 0 1 0 2 0 --backend 3f2", "e6a76ed48ed2f4e9", "56d9e860e281d214"),
    ("cg 1 0 1 0 2 0 --backend ladder --digits 40", "c1000a0c4e845b21", "0cd5d1ba9edd62f4"),
    ("cg 3/2 1/2 1 -1 5/2 -1/2 --backend all", "3b8a7a9a0a8177be", "3b03598a75e0aefe"),
    ("cg 1 1 1 -1 1 0 --backend all", "ac04f03bf021b225", "ad99e35143b98504"),
    ("cg 1 0 1 0 1 0 --backend all", "03f1bce3f48221e7", "2832c1d5f3d7bd53"),
    ("cg 1/2 1/2 1/2 1/2 1 0", "5e9c730d3c309b4d", "132df2c60990efe9"),
    ("cg 1 0 1 0 1 0 --backend ladder", "454b4988a1128582", "98424a3ecc3293fc"),
    ("cg 1/2 1/2 1/2 1/2 1 1 --backend ladder", "ee67728a32c7e869", "7306d6cfe961ab16"),
    ("cg 1/2 3/2 1/2 -1/2 1 0", "cf330a49d8480128", "24d805f1feef9a80"),
    ("cg x 1/2 1/2 -1/2 1 0", "47417fbe2bf2f043", "44e354453e11cff6"),
    ("cg 1 0 1 0 2 0 --digits 0", "2edd78d22eed0487", "e550b4bcde3940d6"),
    ("3jm 1 1 1 -1 0 0", "51787893469c2c3f", "dfb4c9dbe4babc1c"),
    ("3jm 1 0 1 0 2 0 --backend all", "32eaf55970d1a92d", "5b1330f6be1cbc4e"),
    ("3jm 1/2 1/2 1/2 -1/2 1/2 1/2 --backend all", "c2356c4a95f06cd8", "cbfec633b89a356a"),
    ("3jm 1 1 1 -1 0 junk", "2c749f08619cf447", "a06336cc50fa0d0e"),
    ("dist hypergeom-pmf --n1 5 --n2 2 --n3 10 --x 1", "4a07024c22604fae", "00bb3000e82b822d"),
    ("dist hypergeom-pmf --n1 11 --n2 2 --n3 10 --x 1", "6703ff9a45ae11a3", "3fb0bcef0bb49e28"),
    ("dist binomial-pmf --trials 3 --p 1/3 --r 2", "d5f158a492eacd1d", "e23e132cf5a555d3"),
    ("dist binomial-pmf --trials 3 --p 1/0 --r 2", "030226eb83401131", "a9a6735fd4ba0672"),
    ("dist pgf --n1 5 --n2 2 --n3 10 --t -1/2", "d3e3642666af5300", "2023d80fbcd9dfb4"),
    ("dist pgf --n1 5 --n2 2 --n3 10 --t x", "8b15272ef55521a5", "7d6b45e39686356e"),
    ("dist mgf --n1 3 --n2 2 --n3 10 --t -0.5", "25259af8b63ac9ec", "52fc01d2bca6bb2b"),
    ("dist mgf --n1 3 --n2 2 --n3 10 --t 1e400000", "cede069dfa187fca", "285f7d426a1b2f7d"),
    ("dist mean --n1 5 --n2 4 --n3 10", "435ed45031f6365a", "8146bd260eff6874"),
    ("dist mean --n1 5 --n2 11 --n3 10", "3acb03dcc9542283", "430f55a47d30a870"),
    ("dist variance --n1 5 --n2 4 --n3 10", "35bd07f6959ca75c", "b8bf4aac16c27bbd"),
    ("dist variance --n1 0 --n2 0 --n3 1", "c23747c5808b6a1d", "6c7d73028cd3080c"),
    ("dist convolve --trials1 2 --trials2 3 --p 1/3 --digits 5", "142f123c343fcac3", "f3d1ba1494b078ef"),
    ("dist convolve --trials1 2 --trials2 3 --p 2", "5e430a1f9b44bd0b", "15dc283f3e33b254"),
    ("dist conditional --l1 2 --k1 1 --l2 2 --k2 1 --p 1/3", "be24fcbdd535db7f", "b8bf4aac16c27bbd"),
    ("dist conditional --l1 -1 --k1 1 --l2 2 --k2 1 --p 1/3", "d2e52311155e7aef", "d56ebd255ea39c3c"),
    ("dist mean --n1 5 --n2 x --n3 10", "40e3a2dff5164e6b", "40e3a2dff5164e6b"),
    ("limit --p 1/2 --n2 2 --n3 10,100,1000", "7ac2c344c4833c41", "338ed6a1029c11c7"),
    ("limit --p 1/2 --n2 0 --n3 10", "f7482d3aaea50f92", "10b9136509e8f4ba"),
    ("limit --p 1/3 --n2 2 --n3 10", "0f7ebee5f40f73bf", "41a46aa491772463"),
    ("limit --p 1/2 --n2 2 --n3 ,", "46426cf0f97a0b37", "ea19fc6204a6f450"),
    ("limit --p 1/2 --n2 1 --n3 -4", "215cbcb4c6fc3a99", "33a82b6bcbef0c93"),
    ("verify --max-twice-ab 1 --max-l 2 --max-n3 4", "5abf2b3ad4230529", "fe680a89e3cb4b91"),
    ("verify --suite degenerate --max-l 2", "c0051f3cde936516", "665e2f0ad9ca6b8f"),
    ("verify --suite bogus", "c31cbf14e34ebb71", "c31cbf14e34ebb71"),
    ("verify --help", "ba8fc4753a99c8a1", "ba8fc4753a99c8a1"),
]


def _bytes_digest(code: object, out: str, err: str) -> str:
    return hashlib.sha256(f"{code}\n{out}\0{err}".encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "argv, fmt, digest",
    [pytest.param(argv, "json", j, id=f"json:{argv}") for argv, j, _ in PINNED_BYTES]
    + [pytest.param(argv, "text", t, id=f"text:{argv}") for argv, _, t in PINNED_BYTES],
)
def test_bytes_pinned(capsys, monkeypatch, argv, fmt, digest):
    monkeypatch.setenv("COLUMNS", "80")
    args = argv.split() + (["--format", "json"] if fmt == "json" else [])
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert _bytes_digest(code, captured.out, captured.err) == digest


def test_module_entry_point_exits_with_mains_code(capsys):
    # `python -m cgexact.cli` passes main's return value to sys.exit
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    argv = ["cg", "1/2", "1/2", "1/2", "1/2", "1", "1", "--backend", "ladder"]
    child = subprocess.run(
        [sys.executable, "-m", "cgexact.cli", *argv], env=env, capture_output=True, text=True
    )
    assert child.returncode == 0
    assert child.stdout == run_cli(capsys, *argv)[1]
    child = subprocess.run(
        [sys.executable, "-m", "cgexact.cli", "verify", "--max-n3", "1"],
        env=env, capture_output=True, text=True,
    )
    assert child.returncode == 2
    assert "max_n3 must be >= 2, got 1" in child.stderr
