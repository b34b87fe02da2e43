"""Workload process: runs ops against cgexact and writes what happened.

Usage: python worker.py JOB.json, with cgexact importable (PYTHONPATH=src).
The job names the ops, how long to run them, and whether to trace. The
result file holds per-op latencies, a fingerprint of every distinct output
of each op with its count, the errors ops raised, and, when tracing, the
tracer summary. A CLI job instead runs one command in this process and
records its exit code and either the tracer summary or the reference kernel
durations sampled during it. Checking the outputs is left to the parent,
which holds the oracles.
"""

from __future__ import annotations

import json
import sys
import time

import ops
import reference
from inputs import digest

# Op time between two runs of the reference kernel.
REFERENCE_EVERY_NS = 200_000_000
# Wall time between two runs of the reference kernel during a CLI command.
CLI_REFERENCE_EVERY_S = 0.1


class Outcomes:
    """Per op index, how often each distinct result and each error occurred.

    A result is kept as its fingerprint, or as itself when it is a string
    (the mgf, which is checked to a tolerance), so the worker holds no big
    values between ops."""

    def __init__(self) -> None:
        self.results: dict[int, dict[str, int]] = {}
        self.errors: dict[int, dict[str, int]] = {}

    def record(self, index: int, output, error: str | None) -> None:
        if error is None:
            key = output if isinstance(output, str) else digest(ops.encode(output))
            seen = self.results.setdefault(index, {})
        else:
            key = error
            seen = self.errors.setdefault(index, {})
        seen[key] = seen.get(key, 0) + 1

    def to_json(self) -> list:
        indexes = sorted(set(self.results) | set(self.errors))
        return [
            [i, sorted(self.results.get(i, {}).items()), sorted(self.errors.get(i, {}).items())]
            for i in indexes
        ]


def run_pool(
    pool: list, seconds: float | None, outcomes: Outcomes, runner=ops.run, tracer=None
) -> tuple[list[int], list[int]]:
    """Closed loop, one caller: run the pool in order, cycling until
    `seconds` have passed and every op has run at least once, or exactly
    once when seconds is None. Returns the
    op latencies and the reference kernel's durations, measured after every
    REFERENCE_EVERY_NS of op time and once at the end."""
    clock = time.perf_counter_ns
    deadline = None if seconds is None else clock() + int(seconds * 1e9)
    latencies, references = [], []
    since_reference = 0
    i = 0
    while True:
        index = i % len(pool)
        if tracer is not None:
            tracer.request = i
        start = clock()
        try:
            output, error = runner(pool[index]), None
        except Exception as exc:  # a failed op is counted, never fatal
            output, error = None, f"{type(exc).__name__}: {exc}"[:160]
        latencies.append(clock() - start)
        outcomes.record(index, output, error)
        since_reference += latencies[-1]
        if since_reference >= REFERENCE_EVERY_NS:
            references.append(reference.kernel_ns())
            since_reference = 0
        i += 1
        if i >= len(pool) and (deadline is None or clock() >= deadline):
            references.append(reference.kernel_ns())
            return latencies, references


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    result = {}
    if job["kind"] == "cli":
        # the CLI in this process, traced or with the reference kernel
        # sampled during it; its stdout is this process's
        from cgexact import cli

        if job["trace"]:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
            result["exit_code"] = cli.main(job["argv"])
        else:
            tracer = None
            with reference.sampled(CLI_REFERENCE_EVERY_S) as samples:
                result["exit_code"] = cli.main(job["argv"])
            result["reference_ns"] = samples
        sys.stdout.flush()
    else:
        outcomes = Outcomes()
        if job["trace"]:
            import tracing

            result["untraced_ns"], _ = run_pool(job["pool"], None, outcomes)
            tracer = tracing.Tracer()
            tracer.install()
            runner = tracer.wrap("op", ops.run)
            result["latency_ns"], _ = run_pool(job["pool"], None, outcomes, runner, tracer)
        else:
            tracer = None
            result["latency_ns"], result["reference_ns"] = run_pool(job["pool"], job["seconds"], outcomes)
        result["outcomes"] = outcomes.to_json()
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.dump(job["spans_path"])
    with open(job["result_path"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
