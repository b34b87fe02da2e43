"""cgexact benchmark: three closed-loop workloads, checked against oracles.

    python3 bench/run.py [--workload coeff_large_j|dist_mix|verify_cli|all]
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Each workload runs in fresh interpreters with
PYTHONPATH=src, one caller at a time, on inputs made from --seed. With
--trace 0 the run prints the end-to-end metrics; with --trace 1 it runs a
fixed amount of work once untraced and once traced and prints the per-layer
metrics. The last line of output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import inputs
import reference

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("coeff_large_j", "dist_mix", "verify_cli")
CHILD_TIMEOUT_S = 150

PROB_FUNCTIONS = [
    "hypergeom_pmf",
    "binomial_pmf",
    "binomial_convolve",
    "hypergeom_pgf",
    "hypergeom_mgf",
    "conditional_probability",
    "binomial_limit_tv",
]
SUITES = {
    "run_backend_agreement": "backend_agreement",
    "run_degenerate_identity": "degenerate_identity",
    "run_distribution_identities": "distribution_identities",
}
SIZE_GROUPS = [
    ("angular.cg_racah", "by_2j", inputs.TWICE_J_BUCKETS),
    ("angular.cg_3f2", "by_2j", inputs.TWICE_J_BUCKETS),
    ("prob.binomial_convolve", "by_trials", inputs.TRIALS_BUCKETS),
    ("prob.hypergeom_pmf", "by_n3", inputs.N3_BUCKETS),
]


class BenchError(Exception):
    """The benchmark itself could not run (not a failed op)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], stdout_path: Path) -> tuple[int, float, float]:
    """Run one process to completion: (exit code, wall seconds, its own peak
    RSS in MB). os.wait4 reports the usage of that child alone."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.monotonic_ns()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=child_env())
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = (time.monotonic_ns() - start) / 1e9
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


def child_failure(name: str, code: int, stdout_path: Path) -> BenchError:
    tail = stdout_path.with_suffix(".err").read_text(errors="replace")[-2000:]
    return BenchError(f"{name} exited with {code}:\n{tail}")


def measure_setup(probes: int, kernel: list[int]) -> list[float]:
    """Seconds from spawning an interpreter until `import cgexact` returns;
    the reference kernel runs after each probe and its durations are added
    to `kernel`. Each run takes half its probes before the workload and half
    after."""
    samples = []
    probe = "import cgexact; import time; print(time.monotonic_ns())"
    for _ in range(probes):
        path = OUT / "probe.out"
        start = time.monotonic_ns()
        code, _, _ = run_child([sys.executable, "-c", probe], path)
        if code != 0:
            raise child_failure("set-up probe", code, path)
        samples.append((int(path.read_text()) - start) / 1e9)
        kernel += [reference.kernel_ns() for _ in range(3)]
    return samples


def nominal_metrics(raw: dict, setup: list[float], setup_kernel: list[int], factor: float) -> tuple[dict, dict]:
    """End-to-end metrics at nominal machine speed, given the run's speed
    factor, and a note on each that gives the value as measured (see
    reference.py)."""
    setup_factor = reference.speed_factor(setup_kernel)
    measured = dict(raw, setup_s=median(setup))
    scale = {"setup_s": setup_factor, "ops_per_s": 1 / factor, "op_p50_ms": factor, "op_p99_ms": factor}
    units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p99_ms": "ms", "peak_rss_mb": "MB"}
    metrics = {name: (measured[name] * scale.get(name, 1), unit) for name, unit in units.items()}
    notes = {name: f"measured {measured[name]:.6g}" for name in scale}
    notes["ops_per_s"] += f"; machine speed factor {factor:.4f}"
    return metrics, notes


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(values: list[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    return ordered[middle] if len(ordered) % 2 else (ordered[middle - 1] + ordered[middle]) / 2


def run_worker(job: dict) -> tuple[dict, float, float]:
    """Run bench/worker.py on one job: (its result, wall seconds, its own
    peak RSS in MB). The worker's stdout is left in .bench_out/worker.out."""
    job = dict(job, result_path=str(OUT / "result.json"), spans_path=str(OUT / f"spans-{job['workload']}.json.gz"))
    job_path = OUT / "job.json"
    job_path.write_text(json.dumps(job))
    Path(job["result_path"]).unlink(missing_ok=True)
    stdout_path = OUT / "worker.out"
    code, wall, rss_mb = run_child([sys.executable, str(ROOT / "bench" / "worker.py"), str(job_path)], stdout_path)
    if code != 0:
        raise child_failure("worker", code, stdout_path)
    return json.loads(Path(job["result_path"]).read_text()), wall, rss_mb


def check_outcomes(pool: list, outcomes: list) -> dict:
    """Compare every distinct output of every op with its oracle value,
    computed here, after the worker has exited.

    `ops`, `wrong_ops` and `raising_ops` count distinct pool ops: an op is
    wrong if any of its runs returned a value its oracle rejects, and
    raising if any of its runs raised. Every op of the pool runs at least
    once, so these counts depend on the seed alone, not on how many times
    the timed loop went round. `runs` and `errors` count every run."""
    import oracles

    want = {i: oracles.expected(pool[i]) for i, _, _ in outcomes}
    runs = wrong_ops = raising_ops = 0
    errors: dict[str, int] = {}
    for i, outputs, op_errors in outcomes:
        wrong = False
        for got, count in outputs:
            runs += count
            wrong |= not oracles.matches(pool[i], want[i], got)
        for message, count in op_errors:
            runs += count
            errors[message] = errors.get(message, 0) + count
        wrong_ops += wrong
        raising_ops += bool(op_errors) and not wrong
    return {"ops": len(outcomes), "runs": runs, "wrong_ops": wrong_ops, "raising_ops": raising_ops, "errors": errors}


def layer_metrics(summary: dict | None, cases: dict[str, int], stdout_bytes: int, overhead: float) -> dict:
    summary = summary or {"calls": {}, "self_ns": {}, "counters": {}, "buckets": []}
    calls, self_ns, counters = summary["calls"], summary["self_ns"], summary["counters"]
    metrics: dict[str, tuple[float, str]] = {}

    def timed(metric: str, *functions: str, with_calls: bool = True) -> None:
        if with_calls:
            metrics[f"{metric}.calls"] = (sum(calls.get(f, 0) for f in functions), "count")
        metrics[f"{metric}.self_ms"] = (sum(self_ns.get(f, 0) for f in functions) / 1e6, "ms")

    timed("exact.binomial", "exact.binomial")
    timed("exact.factorial", "exact.factorial")
    metrics["exact.factorial.max_n"] = (counters.get("exact.factorial.max_n", 0), "count")
    timed("exact.decimal", "exact.rational_to_decimal", "exact.sqrt_to_decimal")
    metrics["exact.radicand.max_bits"] = (counters.get("exact.radicand.max_bits", 0), "bits")
    for series in ("eval_3f2_unit", "eval_2f1"):
        timed(f"hypseries.{series}", f"hypseries.{series}")
        metrics[f"hypseries.{series}.terms"] = (counters.get(f"hypseries.{series}.terms", 0), "count")
    timed("angular.cg_racah", "angular.cg_racah")
    timed("angular.racah_zsum_terms", "angular.racah_zsum_terms", with_calls=False)
    timed("angular.cg_3f2", "angular.cg_3f2")
    series = counters.get("angular.cg_3f2.series", 0)
    share = counters.get("angular.cg_3f2.regularized", 0) / series if series else 0.0
    metrics["angular.cg_3f2.regularized_share"] = (share, "ratio")
    timed("angular.cg_to_3jm", "angular.cg_to_3jm")
    timed("angular.cg_ladder_stretched", "angular.cg_ladder_stretched")
    ladders = calls.get("angular.cg_ladder_stretched", 0)
    lowerings = counters.get("angular.cg_ladder_stretched.lowerings", 0)
    metrics["angular.cg_ladder_stretched.lowerings_per_call"] = (lowerings / ladders if ladders else 0.0, "count")
    for function in PROB_FUNCTIONS:
        timed(f"prob.{function}", f"prob.{function}")
    for function, suite in SUITES.items():
        timed(f"verify.{function}", f"verify.{function}", with_calls=False)
        metrics[f"verify.{function}.cases"] = (cases.get(suite, 0), "count")
    timed("cli.main", "cli.main", with_calls=False)
    metrics["cli.stdout_bytes"] = (stdout_bytes, "B")
    metrics["trace.overhead_ratio"] = (overhead, "x")
    filed = {(name, size): (n, ns) for name, size, n, ns in summary["buckets"]}
    for function, group, edges in SIZE_GROUPS:
        for label in inputs.bucket_labels(edges):
            n, ns = filed.get((function, label), (0, 0))
            metrics[f"{function}.{group}.{label}.calls"] = (n, "count")
            metrics[f"{function}.{group}.{label}.self_ms"] = (ns / 1e6, "ms")
    return metrics


def run_inprocess(name: str, seed: int, seconds: float, trace: bool, scale: inputs.Scale) -> dict:
    pool = inputs.coeff_ops(seed, scale) if name == "coeff_large_j" else inputs.dist_ops(seed, scale)
    probes = 0 if trace else scale.setup_probes
    setup_kernel: list[int] = []
    setup = measure_setup(probes // 2, setup_kernel)
    job = {"workload": name, "kind": "pool", "pool": pool, "seconds": seconds, "trace": trace}
    result, _, rss_mb = run_worker(job)
    setup += measure_setup(probes - probes // 2, setup_kernel)
    check = check_outcomes(pool, result["outcomes"])
    latencies = [ns / 1e6 for ns in result["latency_ns"]]
    report = {
        "attempted": check["ops"],
        "failed": check["wrong_ops"] + check["raising_ops"],
        "correct": check["wrong_ops"] == 0,
        "check": check,
    }
    if trace:
        untraced_s = sum(result["untraced_ns"]) / 1e9
        overhead = (sum(latencies) / 1e3) / untraced_s
        report["metrics"] = layer_metrics(result["trace"], {}, 0, overhead)
    else:
        raw = {
            "ops_per_s": len(latencies) / (sum(latencies) / 1e3),
            "op_p50_ms": median(latencies),
            "op_p99_ms": percentile(latencies, 0.99),
            "peak_rss_mb": rss_mb,
        }
        factor = reference.speed_factor(result["reference_ns"])
        report["metrics"], notes = nominal_metrics(raw, setup, setup_kernel, factor)
        report["notes"] = {
            "setup_s": f"median of {len(setup)} interpreter starts; {notes['setup_s']}",
            "ops_per_s": f"{len(latencies)} ops over {sum(latencies) / 1e3:.2f} s of op time; {notes['ops_per_s']}",
            "op_p50_ms": f"n={len(latencies)} ops; {notes['op_p50_ms']}",
            "op_p99_ms": f"n={len(latencies)} ops, nearest rank; {notes['op_p99_ms']}",
        }
    return report


def verify_argv(scale: inputs.Scale) -> list[str]:
    return ["verify", "--format", "json", *(scale.verify_flags or ())]


def expected_cases(scale: inputs.Scale) -> dict[str, int]:
    sizes = dict(inputs.VERIFY_DEFAULTS)
    flags = scale.verify_flags or ()
    for flag, value in zip(flags[::2], flags[1::2]):
        sizes[flag.lstrip("-").replace("-", "_")] = int(value)
    return inputs.verify_case_counts(**sizes)


def check_verify_output(code: int, text: str, expected: dict[str, int]) -> tuple[int, int, dict]:
    """(cases run, cases failed, cases per suite) of one `cgexact verify
    --format json` run; every expected case counts as failed when the run
    exits non-zero, does not pass, or reports other case counts."""
    total = sum(expected.values())
    try:
        record = json.loads(text)
        suites = {s["suite_name"]: s for s in record["suites"]}
        counts = {name: s["cases_run"] for name, s in suites.items()}
    except (ValueError, KeyError, TypeError):
        return total, total, {}
    if code != 0 or record.get("passed") is not True or counts != expected:
        return total, total, counts
    return total, sum(s["failure_count"] for s in suites.values()), counts


def run_verify_cli(seconds: float, trace: bool, scale: inputs.Scale) -> dict:
    expected = expected_cases(scale)
    job = {"workload": "verify_cli", "kind": "cli", "argv": verify_argv(scale), "trace": False}
    if trace:
        stdout_path = OUT / "verify.out"
        code, wall, _ = run_child([sys.executable, "-m", "cgexact.cli", *verify_argv(scale)], stdout_path)
        attempted, failed, _ = check_verify_output(code, stdout_path.read_text(), expected)
        result, traced_wall, _ = run_worker(job | {"trace": True})
        cli_out = OUT / "worker.out"
        traced_attempted, traced_failed, cases = check_verify_output(
            result["exit_code"], cli_out.read_text(), expected
        )
        overhead = (traced_wall / traced_attempted) / (wall / attempted)
        metrics = layer_metrics(result["trace"], cases, cli_out.stat().st_size, overhead)
        return {
            "attempted": attempted + traced_attempted,
            "failed": failed + traced_failed,
            "correct": failed + traced_failed == 0,
            "metrics": metrics,
        }
    setup_kernel: list[int] = []
    setup = measure_setup(scale.setup_probes // 2, setup_kernel)
    # each process runs `cli.main` in the worker, which samples the reference
    # kernel during the command; the machine's speed changes within a
    # second, so samples taken between processes track it poorly. The
    # kernel's runs are taken out of the process's wall time, and the rest
    # is scaled by the factor of that process's own samples.
    walls, nominal_walls, rss = [], [], []
    attempted = failed = 0
    deadline = time.monotonic() + seconds
    while not walls or time.monotonic() < deadline:
        result, wall, rss_mb = run_worker(job)
        cases, bad, _ = check_verify_output(result["exit_code"], (OUT / "worker.out").read_text(), expected)
        attempted += cases
        failed += bad
        kernel = result["reference_ns"]
        walls.append(wall * 1e3 - sum(kernel) / 1e6)
        nominal_walls.append(walls[-1] * reference.speed_factor(kernel))
        rss.append(rss_mb)
    setup += measure_setup(scale.setup_probes - scale.setup_probes // 2, setup_kernel)
    raw = {
        "ops_per_s": attempted / (sum(walls) / 1e3),
        "op_p50_ms": median(walls),
        "op_p99_ms": percentile(walls, 0.99),
        "peak_rss_mb": max(rss),
    }
    metrics, notes = nominal_metrics(raw, setup, setup_kernel, sum(nominal_walls) / sum(walls))
    metrics["op_p50_ms"] = (median(nominal_walls), "ms")
    metrics["op_p99_ms"] = (percentile(nominal_walls, 0.99), "ms")
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "metrics": metrics,
        "notes": {
            "setup_s": f"median of {len(setup)} interpreter starts; {notes['setup_s']}",
            "ops_per_s": f"cases per second of wall time over {len(walls)} processes; {notes['ops_per_s']}",
            "op_p50_ms": f"n={len(walls)} verify processes; {notes['op_p50_ms']}",
            "op_p99_ms": f"n={len(walls)} verify processes, nearest rank; {notes['op_p99_ms']}",
        },
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: inputs.Scale = inputs.FULL) -> dict:
    OUT.mkdir(exist_ok=True)
    if name == "verify_cli":
        return run_verify_cli(seconds, trace, scale)
    return run_inprocess(name, seed, seconds, trace, scale)


def git_rev() -> str:
    """The commit checked out, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def final_line(report: dict) -> dict:
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in report["metrics"].items()},
    }


def print_report(name: str, seed: int, seconds: float, trace: bool, report: dict) -> None:
    print(f"# workload={name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    python = ".".join(map(str, sys.version_info[:3]))
    print(f"# python={python} git_rev={git_rev()} nproc={os.cpu_count()}")
    notes = report.get("notes", {})
    for metric, (value, unit) in report["metrics"].items():
        note = f"  ({notes[metric]})" if metric in notes else ""
        print(f"{metric:<48} {value:>14.6g} {unit}{note}")
    ratio = report["failed"] / report["attempted"]
    check = report.get("check")
    runs = f", {check['runs']} runs" if check else ""
    print(f"{'op_fail_ratio':<48} {ratio:>14.6g} 1  ({report['failed']} of {report['attempted']} ops{runs})")
    for message, count in sorted(check["errors"].items()) if check else ():
        print(f"#   {count} runs x {message}")
    print(f"# correct={report['correct']}: every output was compared with its oracle")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cgexact" / "__init__.py").is_file():
        print(f"error: no cgexact sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        # one parent per workload: a child's peak RSS starts from its
        # parent's, and the oracles make a parent large
        common = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        codes = [subprocess.call([sys.executable, __file__, "--workload", name, *common]) for name in WORKLOADS]
        return max(codes)
    try:
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print_report(args.workload, args.seed, args.seconds, bool(args.trace), report)
        print(json.dumps(final_line(report)), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for leftover in ("job.json", "result.json", "probe.out", "probe.err"):
            (OUT / leftover).unlink(missing_ok=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
