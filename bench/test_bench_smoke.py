"""Smoke test of the benchmark harness at toy sizes.

It checks that every metric BENCHMARK.json names is emitted, that the
oracles run and can fail, and that the harness refuses to run without the
sources. It never gates on timing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import inputs
import oracles
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_and_every_output_checked(workload, trace):
    report = run.run_workload(workload, seed=5, seconds=0.2, trace=trace, scale=inputs.TOY)
    line = run.final_line(report)
    wanted = {m["name"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert set(line["metrics"]) == wanted
    assert line["correct"] is True
    assert line["attempted"] > 0 and line["failed"] == 0
    if workload != "verify_cli":
        assert report["check"]["ops"] == line["attempted"] == len(_pool(workload))


def _pool(workload):
    return (inputs.coeff_ops if workload == "coeff_large_j" else inputs.dist_ops)(5, inputs.TOY)


def test_traced_counts_repeat_exactly():
    counts = [
        {
            name: metric["value"]
            for name, metric in run.final_line(
                run.run_workload("dist_mix", seed=7, seconds=0.2, trace=True, scale=inputs.TOY)
            )["metrics"].items()
            if name.endswith((".calls", ".terms", ".cases", ".max_n", ".max_bits"))
        }
        for _ in range(2)
    ]
    assert counts[0] == counts[1]


def _spoil(value):
    """The same JSON result with its last decimal string altered."""
    if isinstance(value, str):
        return value[:-1] + ("1" if value[-1] != "1" else "2")
    spoiled = list(value)
    spoiled[-1] = _spoil(spoiled[-1])
    return spoiled


@pytest.mark.parametrize("op", inputs.coeff_ops(5, inputs.TOY)[:2] + inputs.dist_ops(5, inputs.TOY))
def test_oracle_rejects_a_wrong_result(op):
    want = oracles.expected(op)
    if op[0] == "mgf":
        right = oracles.mpmath.nstr(want, 30)
        wrong = oracles.mpmath.nstr(want * (1 + oracles.mpmath.mpf(10) ** -28), 30)
    else:
        right, wrong = inputs.digest(want), inputs.digest(_spoil(want))
    assert oracles.matches(op, want, right)
    assert not oracles.matches(op, want, wrong)


def test_decimal_oracle_rounds_half_even():
    from fractions import Fraction

    assert oracles.rational_decimal(Fraction(1, 8), 2) == "0.12"
    assert oracles.rational_decimal(Fraction(-3, 8), 2) == "-0.38"
    assert oracles.rational_decimal(Fraction(12345), 3) == "12300"
    assert oracles.sqrt_decimal(1, Fraction(1, 4), 3) == "0.500"
    assert oracles.sqrt_decimal(-1, Fraction(2), 15) == "-1.41421356237310"


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dist_mix", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
