"""Command-line front-end with byte-stable, machine-readable JSON output.

Subcommands: cg, 3jm, dist, limit, verify. Every exact result is emitted as
decimal-digit strings (sign/radicand or numerator/denominator); the decimal
field is always derived from the exact field, never computed independently.

Exit codes: 0 success (including mathematically zero results), 1 verification
failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
from decimal import Decimal
from fractions import Fraction

from . import verify as verify_suites
from .angular import (
    CgLabels,
    DegenerateLabels,
    HalfInt,
    cg_3f2,
    cg_ladder_stretched,
    cg_racah,
    cg_to_3jm,
    selection_rule_violation,
)
from .exact import SignedSqrtRational, _digit_string, rational_to_decimal, sqrt_to_decimal
from .prob import (
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

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2

# argparse reads a token such as "-1/2", "-1e-5" or "-4,8" as an option
# string. A leading space shields every token that starts like a negative
# number, except the plain decimals ("-0.5") that argparse passes through as
# they are. main takes the space off again once argparse is done, so values
# and messages keep the token as typed.
_NEGATIVE_VALUE = re.compile(r"-(?!\d*\.\d+\Z)\.?\d")

_LABEL_NAMES = ("a", "alpha", "b", "beta", "c", "gamma")


def _parse_half(text: str, name: str) -> HalfInt:
    try:
        return HalfInt.parse(text)
    except ValueError:
        raise ValueError(f"cannot parse {name} = {text!r} as a half-integer") from None


def _parse_fraction(text: str, name: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse {name} = {text!r} as a rational") from None


def _echo(argv: list[str]) -> str:
    return " ".join(["cgexact"] + argv)


def _fraction_json(q: Fraction) -> dict:
    # Exact pmfs and radicands can run past Python's int-to-str digit limit
    # (4300 by default); _digit_string renders past it without touching the
    # interpreter-wide setting.
    return {"num": _digit_string(q.numerator), "den": _digit_string(q.denominator)}


def _exact_fields(value: SignedSqrtRational | Fraction, digits: int) -> dict:
    """The exact value as decimal-digit strings and the decimal derived from it."""
    if isinstance(value, SignedSqrtRational):
        exact = {"sign": value.sign, "radicand": _fraction_json(value.radicand)}
        return {"exact": exact, "decimal": sqrt_to_decimal(value, digits)}
    exact = {"rational": _fraction_json(value)}
    return {"exact": exact, "decimal": rational_to_decimal(value, digits)}


def _record(command: str, value: object, digits: int, detail: str = "", **fields) -> dict:
    """The record of one result, shaped by its type: a coefficient or a
    rational carries its exact value, a PmfTable one row per outcome, and a
    Decimal (the mgf) only its decimal. `fields` follow the status."""
    zero = False
    if isinstance(value, PmfTable):
        body = {
            "table": [
                {
                    "outcome": k,
                    "probability": _fraction_json(q),
                    "decimal": rational_to_decimal(q, digits),
                }
                for k, q in value.entries
            ]
        }
    elif isinstance(value, Decimal):
        body = {"exact": None, "decimal": str(value)}
        detail = "mgf is evaluated numerically over the exact pmf"
    else:
        body = _exact_fields(value, digits)
        zero = value.is_zero if isinstance(value, SignedSqrtRational) else value == 0
    status = "zero" if zero else "ok"
    return {"command": command, "status": status, **fields, **body, "detail": detail}


def _pretty_exact(exact: dict | None) -> str:
    """The text form of an exact field: a rational as `str(Fraction)` writes
    it, a signed root as `str(SignedSqrtRational)` does."""
    if exact is None:
        return "(no exact value)"
    if "rational" in exact:
        num, den = exact["rational"]["num"], exact["rational"]["den"]
        return num if den == "1" else f"{num}/{den}"
    sign = exact["sign"]
    if sign == 0:
        return "0"
    radicand = _pretty_exact({"rational": exact["radicand"]})
    return f"{'-' if sign < 0 else '+'}sqrt({radicand})"


def _ladder_value(labels: CgLabels) -> SignedSqrtRational:
    steps = (labels.a.twice + labels.b.twice - labels.gamma.twice) // 2
    vector = cg_ladder_stretched(labels.a, labels.b, steps)
    return vector.amplitude(labels.alpha, labels.beta)


# `--backend all` runs every backend in this order; racah's value is canonical
_BACKENDS = {"racah": cg_racah, "3f2": cg_3f2, "ladder": _ladder_value}


def _cmd_coefficient(args: argparse.Namespace, argv: list[str]) -> tuple[object, int]:
    """cg, or 3jm when args.to_3jm, from one backend or all of them."""
    labels = CgLabels(**{name: _parse_half(getattr(args, name), name) for name in _LABEL_NAMES})
    stretched = labels.c.twice == labels.a.twice + labels.b.twice
    if args.backend == "ladder" and not stretched:
        raise ValueError("ladder backend requires c = a + b")
    names = list(_BACKENDS) if args.backend == "all" else [args.backend]
    values = {}
    for name in names:
        if name == "ladder" and not stretched:
            continue
        value = _BACKENDS[name](labels)
        values[name] = cg_to_3jm(labels, value) if args.to_3jm else value
    value = values[names[0]]
    # why the value is zero comes first, then which backend did not run
    notes = []
    if value.is_zero:
        notes.append(
            selection_rule_violation(labels) or "coefficient vanishes: alternating sum is zero"
        )
    if len(values) < len(names):
        notes.append("ladder backend skipped: requires c = a + b")
    record = _record(_echo(argv), value, args.digits, "; ".join(notes))
    if args.backend == "all":
        # the comparison goes between the decimal and the detail, which stays last
        record.update(
            backends={name: _exact_fields(v, args.digits) for name, v in values.items()},
            agreement=len({(v.sign, v.radicand) for v in values.values()}) == 1,
            detail=record.pop("detail"),
        )
    return record, EXIT_OK


# Each dist subcommand once: its flags in --help order, the string flags among
# them with their help text (every other flag is an integer), and what it
# computes from the parsed arguments.
_LAW_FLAGS = ("n1", "n2", "n3")
_DIST_COMMANDS = {
    "hypergeom-pmf": (
        _LAW_FLAGS + ("x",), {},
        lambda a: hypergeom_pmf(HypergeomParams(a.n1, a.n2, a.n3), a.x),
    ),
    "binomial-pmf": (
        ("trials", "p", "r"), {"p": None},
        lambda a: binomial_pmf(BinomialParams(a.trials, _parse_fraction(a.p, "p")), a.r),
    ),
    "pgf": (
        _LAW_FLAGS + ("t",), {"t": "rational argument, 'num/den'"},
        lambda a: hypergeom_pgf(HypergeomParams(a.n1, a.n2, a.n3), _parse_fraction(a.t, "t")),
    ),
    "mgf": (
        _LAW_FLAGS + ("t",), {"t": "decimal argument"},
        lambda a: hypergeom_mgf(HypergeomParams(a.n1, a.n2, a.n3), a.t, a.digits),
    ),
    "mean": (_LAW_FLAGS, {}, lambda a: hypergeom_mean(HypergeomParams(a.n1, a.n2, a.n3))),
    "variance": (_LAW_FLAGS, {}, lambda a: hypergeom_variance(HypergeomParams(a.n1, a.n2, a.n3))),
    "convolve": (
        ("trials1", "trials2", "p"), {"p": None},
        lambda a: binomial_convolve(
            BinomialParams(a.trials1, p := _parse_fraction(a.p, "p")), BinomialParams(a.trials2, p)
        ),
    ),
    "conditional": (
        ("l1", "k1", "l2", "k2", "p"), {"p": None},
        lambda a: conditional_probability(
            DegenerateLabels(a.l1, a.k1, a.l2, a.k2), _parse_fraction(a.p, "p")
        ),
    ),
}


def _cmd_dist(args: argparse.Namespace, argv: list[str]) -> tuple[object, int]:
    return _record(_echo(argv), args.compute(args), args.digits), EXIT_OK


def _cmd_limit(args: argparse.Namespace, argv: list[str]) -> tuple[object, int]:
    p = _parse_fraction(args.p, "p")
    try:
        n3_list = [int(tok) for tok in args.n3.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"cannot parse n3 list {args.n3!r}") from None
    if not n3_list:
        raise ValueError("n3 list is empty")
    command = _echo(argv)
    results = binomial_limit_tv(p, args.n2, n3_list)
    return [_record(command, tv, args.digits, n3=n3) for n3, tv in results], EXIT_OK


def _run_suites(suites: list, sizes: list[int]) -> list[dict]:
    """Each suite's record, as `suite.run(size)` returns it, in the order given:
    of two or more suites, the last runs in a forked child while this
    process runs the others, since no suite reads what another computes. A
    single suite, or any suites without `os.fork`, run in this process one
    after another.

    The child calls the same `suite.run`, so a monkeypatched runner or
    backend is inherited, and writes its suite's record down a pipe as the
    JSON it is printed as. It always leaves through `os._exit`, so it never
    flushes the stdio or the `--output` file it inherited and runs no exit
    handlers. A child that sends no record, because its suite raised or it
    was killed, has its suite run again here: every error is raised by a
    suite run in this process, as without a fork. If a suite run here raises
    (KeyboardInterrupt included), the child is killed and reaped before the
    exception propagates, so no child outlives the call.
    """
    if len(suites) < 2 or not hasattr(os, "fork"):
        return [suite.run(size) for suite, size in zip(suites, sizes)]
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            data = json.dumps(suites[-1].run(sizes[-1])).encode()
            with open(write_fd, "wb") as pipe:
                pipe.write(data)
        finally:
            os._exit(0)
    os.close(write_fd)
    with open(read_fd, "rb") as pipe:
        try:
            records = [suite.run(size) for suite, size in zip(suites[:-1], sizes[:-1])]
            data = pipe.read()
        except BaseException:
            import signal  # only this path needs it

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
    os.waitpid(pid, 0)
    return records + [json.loads(data) if data else suites[-1].run(sizes[-1])]


def _cmd_verify(args: argparse.Namespace, argv: list[str]) -> tuple[object, int]:
    """The selected suites' report. Every suite error is raised by a suite
    run in this process, since `_run_suites` runs again here a forked suite
    that sent no record. One that raises ValueError or ArithmeticError is a
    usage error (exit 2); any other exception propagates from `main`."""
    suites = [s for name, s in verify_suites.SUITES.items() if args.suite in (name, "all")]
    sizes = [suite.checked(getattr(args, suite.param)) for suite in suites]
    # the report path is opened before any suite runs, so a path that cannot
    # be written is a usage error, not a failed verification after the run;
    # so is an error writing or closing it once the suites have run
    cannot_write = f"cannot write the report to {args.output!r}"
    try:
        output = open(args.output, "w", encoding="utf-8") if args.output else None
    except OSError as exc:
        raise ValueError(f"{cannot_write}: {exc.strerror}") from None
    with output or contextlib.nullcontext():
        records = _run_suites(suites, sizes)
        all_passed = all(r["passed"] for r in records)
        record = {
            "command": _echo(argv),
            "status": "ok" if all_passed else "error",
            "passed": all_passed,
            "suites": records,
            "detail": "" if all_passed else "one or more suites reported failures",
        }
        if output:
            # the inner with closes the file even when the write fails, so
            # the outer one has nothing left to raise
            try:
                with output:
                    output.write(json.dumps(record, indent=2) + "\n")
            except OSError as exc:
                raise ValueError(f"{cannot_write}: {exc.strerror}") from None
    return record, EXIT_OK if all_passed else EXIT_VERIFY_FAILED


def _render_text(payload: object) -> str:
    if isinstance(payload, list):
        return "\n".join(_render_text(record) for record in payload)
    record = payload
    # a failed verify lists its suites, failure rows included, before the error
    lines = []
    for suite in record.get("suites", ()):
        verdict = "PASS" if suite["passed"] else "FAIL"
        lines.append(
            f"{verdict} {suite['suite_name']} "
            f"(cases={suite['cases_run']} failures={suite['failure_count']})"
        )
        for failure in suite["failures"]:
            lines.append(
                f"  {failure['input']}: expected {failure['expected']}, got {failure['actual']}"
            )
    if record["status"] == "error":
        lines.append(f"error: {record['detail']}")
    if lines:
        return "\n".join(lines)
    if "table" in record:
        return "\n".join(
            f"{row['outcome']}: {_pretty_exact({'rational': row['probability']})} "
            f"= {row['decimal']}"
            for row in record["table"]
        )
    prefix = f"n3={record['n3']}: " if "n3" in record else ""
    pretty = _pretty_exact(record["exact"])
    body = f"{prefix}{pretty}"
    if record.get("decimal") and record["decimal"] != pretty:
        body += f" = {record['decimal']}"
    extras = []
    if "agreement" in record:
        extras.append(f"agreement: {str(record['agreement']).lower()}")
    if record.get("detail"):
        extras.append(record["detail"])
    return body + ("".join(f"\n{line}" for line in extras))


def _choice(choices: tuple[str, ...]):
    """An argparse type that rejects a value outside `choices` before
    argparse's own choice check does. Its message is the one Python 3.10 to
    3.12 print; 3.13 stopped quoting the choices, and usage errors are part
    of the CLI's byte-stable output."""

    def check(value: str) -> str:
        if value not in choices:
            raise argparse.ArgumentTypeError(
                f"invalid choice: {value!r} (choose from {', '.join(map(repr, choices))})"
            )
        return value

    return check


def build_parser() -> argparse.ArgumentParser:
    formats = ("text", "json")
    digits = argparse.ArgumentParser(add_help=False)
    digits.add_argument("--digits", type=int, default=15, help="significant digits for decimals")
    output_format = argparse.ArgumentParser(add_help=False)
    output_format.add_argument(
        "--format", choices=formats, type=_choice(formats), default="text", dest="fmt",
        help="output format",
    )
    # verify renders no decimals, so it takes only output_format
    common = [digits, output_format]

    parser = argparse.ArgumentParser(
        prog="cgexact",
        description="Exact Clebsch-Gordan / 3jm coefficients, exact discrete "
        "distributions, and identity verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, to_3jm in (
        ("cg", "Clebsch-Gordan coefficient", False),
        ("3jm", "3jm symbol with lower row (alpha, beta, -gamma)", True),
    ):
        coefficient_parser = sub.add_parser(name, parents=common, help=help_text)
        for label in _LABEL_NAMES:
            coefficient_parser.add_argument(label, help=f"half-integer {label} ('k' or 'k/2')")
        backends = (*_BACKENDS, "all")
        coefficient_parser.add_argument(
            "--backend",
            choices=backends,
            type=_choice(backends),
            default="racah",
            help="evaluation backend (ladder applies only when c = a+b)",
        )
        coefficient_parser.set_defaults(handler=_cmd_coefficient, to_3jm=to_3jm)

    dist_parser = sub.add_parser("dist", help="exact distribution operations")
    dist_sub = dist_parser.add_subparsers(dest="dist_command", required=True)
    for name, (flags, string_flags, compute) in _DIST_COMMANDS.items():
        p = dist_sub.add_parser(name, parents=common)
        for flag in flags:
            if flag in string_flags:
                p.add_argument(f"--{flag}", required=True, help=string_flags[flag])
            else:
                p.add_argument(f"--{flag}", type=int, required=True)
        p.set_defaults(compute=compute)
    dist_parser.set_defaults(handler=_cmd_dist)

    limit_parser = sub.add_parser(
        "limit", parents=common, help="total variation distance to the binomial limit"
    )
    limit_parser.add_argument("--p", required=True, help="success probability, 'num/den'")
    limit_parser.add_argument("--n2", type=int, required=True)
    limit_parser.add_argument("--n3", required=True, help="comma-separated n3 values")
    limit_parser.set_defaults(handler=_cmd_limit)

    verify_parser = sub.add_parser(
        "verify", parents=[output_format], help="run identity verification suites"
    )
    suites = (*verify_suites.SUITES, "all")
    verify_parser.add_argument("--suite", choices=suites, type=_choice(suites), default="all")
    for suite in verify_suites.SUITES.values():
        flag = "--" + suite.param.replace("_", "-")
        verify_parser.add_argument(flag, type=int, default=suite.default)
    verify_parser.add_argument("--output", help="also write the JSON report to this path")
    verify_parser.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    tokens = [" " + tok if _NEGATIVE_VALUE.match(tok) else tok for tok in argv]
    args = parser.parse_args(tokens)
    typed = dict(zip(tokens, argv))
    for name, value in vars(args).items():
        if isinstance(value, str) and value in typed:
            setattr(args, name, typed[value])
    try:
        payload, code = args.handler(args, argv)
    except (ValueError, ArithmeticError) as exc:
        payload = {
            "command": _echo(argv), "status": "error", "exact": None, "decimal": "",
            "detail": str(exc),
        }
        code = EXIT_USAGE
        print(f"cgexact: {exc}", file=sys.stderr)
    if args.fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(_render_text(payload))
    return code


if __name__ == "__main__":
    sys.exit(main())
