"""Command-line front-end with byte-stable, machine-readable JSON output.

Subcommands: cg, 3jm, dist, limit, verify. Every exact result is emitted as
decimal-digit strings (sign/radicand or numerator/denominator); the decimal
field is always derived from the exact field, never computed independently.

Exit codes: 0 success (including mathematically zero results), 1 verification
failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import verify as verify_suites
from .angular import (
    CgLabels,
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
    DegenerateLabels,
    HypergeomParams,
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

# argparse reads a bare "-1/2" as an option string; a leading space shields
# negative half-integers and rationals, and the value parsers strip it.
_NEGATIVE_VALUE = re.compile(r"-\d+(/\d+)?")


class _CommandError(Exception):
    """Input rejected: parse failure, structural violation, or domain error."""


def _shield_negatives(argv: list[str]) -> list[str]:
    return [" " + tok if _NEGATIVE_VALUE.fullmatch(tok) else tok for tok in argv]


def _parse_half(text: str, name: str) -> HalfInt:
    try:
        return HalfInt.parse(text)
    except ValueError:
        raise _CommandError(f"cannot parse {name} = {text!r} as a half-integer") from None


def _parse_fraction(text: str, name: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise _CommandError(f"cannot parse {name} = {text!r} as a rational") from None


def _echo(argv: list[str]) -> str:
    return " ".join(["cgexact"] + argv)


def _fraction_json(q: Fraction) -> dict:
    # Exact pmfs and radicands can run past Python's int-to-str digit limit
    # (4300 by default); _digit_string renders past it without touching the
    # interpreter-wide setting.
    return {"num": _digit_string(q.numerator), "den": _digit_string(q.denominator)}


def _sqrt_exact(value: SignedSqrtRational) -> dict:
    return {"sign": value.sign, "radicand": _fraction_json(value.radicand)}


def _rational_exact(q: Fraction) -> dict:
    return {"rational": _fraction_json(q)}


def _sqrt_record(command: str, value: SignedSqrtRational, digits: int, detail: str = "") -> dict:
    return {
        "command": command,
        "status": "zero" if value.is_zero else "ok",
        "exact": _sqrt_exact(value),
        "decimal": sqrt_to_decimal(value, digits),
        "detail": detail,
    }


def _rational_record(command: str, q: Fraction, digits: int, detail: str = "") -> dict:
    return {
        "command": command,
        "status": "zero" if q == 0 else "ok",
        "exact": _rational_exact(q),
        "decimal": rational_to_decimal(q, digits),
        "detail": detail,
    }


def _error_record(command: str, message: str) -> dict:
    return {"command": command, "status": "error", "exact": None, "decimal": "", "detail": message}


def _pretty_exact(exact: dict | None) -> str:
    if exact is None:
        return "(no exact value)"
    if "rational" in exact:
        num, den = exact["rational"]["num"], exact["rational"]["den"]
        return num if den == "1" else f"{num}/{den}"
    sign = exact["sign"]
    if sign == 0:
        return "0"
    num, den = exact["radicand"]["num"], exact["radicand"]["den"]
    return f"{'-' if sign < 0 else '+'}sqrt({num}/{den})"


def _zero_detail(labels: CgLabels) -> str:
    return selection_rule_violation(labels) or "coefficient vanishes: alternating sum is zero"


def _labels_from_args(args: argparse.Namespace) -> CgLabels:
    fields = [
        ("a", args.a), ("alpha", args.alpha), ("b", args.b),
        ("beta", args.beta), ("c", args.c), ("gamma", args.gamma),
    ]
    parsed = {name: _parse_half(text, name) for name, text in fields}
    try:
        return CgLabels(**parsed)
    except ValueError as exc:
        raise _CommandError(str(exc)) from None


def _ladder_value(labels: CgLabels) -> SignedSqrtRational:
    steps = (labels.a.twice + labels.b.twice - labels.gamma.twice) // 2
    vector = cg_ladder_stretched(labels.a, labels.b, steps)
    return vector.amplitude(labels.alpha, labels.beta)


def _coefficient_record(args: argparse.Namespace, argv: list[str], to_3jm: bool) -> dict:
    labels = _labels_from_args(args)
    command = _echo(argv)
    digits = args.digits
    stretched = labels.c.twice == labels.a.twice + labels.b.twice

    def convert(value: SignedSqrtRational) -> SignedSqrtRational:
        if not to_3jm:
            return value
        try:
            return cg_to_3jm(labels, value)
        except ValueError as exc:
            raise _CommandError(str(exc)) from None

    if args.backend == "all":
        values = {"racah": convert(cg_racah(labels)), "3f2": convert(cg_3f2(labels))}
        detail = ""
        if stretched:
            values["ladder"] = convert(_ladder_value(labels))
        else:
            detail = "ladder backend skipped: requires c = a + b"
        agreement = len({(v.sign, v.radicand) for v in values.values()}) == 1
        canonical = values["racah"]
        if canonical.is_zero and not detail:
            detail = _zero_detail(labels)
        return {
            "command": command,
            "status": "zero" if canonical.is_zero else "ok",
            "exact": _sqrt_exact(canonical),
            "decimal": sqrt_to_decimal(canonical, digits),
            "backends": {
                name: {"exact": _sqrt_exact(v), "decimal": sqrt_to_decimal(v, digits)}
                for name, v in values.items()
            },
            "agreement": agreement,
            "detail": detail,
        }
    if args.backend == "ladder":
        if not stretched:
            raise _CommandError("ladder backend requires c = a + b")
        value = convert(_ladder_value(labels))
    elif args.backend == "racah":
        value = convert(cg_racah(labels))
    else:
        value = convert(cg_3f2(labels))
    detail = _zero_detail(labels) if value.is_zero else ""
    return _sqrt_record(command, value, digits, detail)


def _cmd_cg(args: argparse.Namespace, argv: list[str]) -> tuple[object, int]:
    return _coefficient_record(args, argv, to_3jm=False), EXIT_OK


def _cmd_3jm(args: argparse.Namespace, argv: list[str]) -> tuple[object, int]:
    return _coefficient_record(args, argv, to_3jm=True), EXIT_OK


def _hypergeom_params(args: argparse.Namespace) -> HypergeomParams:
    try:
        return HypergeomParams(args.n1, args.n2, args.n3)
    except ValueError as exc:
        raise _CommandError(str(exc)) from None


def _cmd_dist(args: argparse.Namespace, argv: list[str]) -> tuple[object, int]:
    command = _echo(argv)
    digits = args.digits
    sub = args.dist_command
    try:
        if sub == "hypergeom-pmf":
            value = hypergeom_pmf(_hypergeom_params(args), args.x)
            return _rational_record(command, value, digits), EXIT_OK
        if sub == "binomial-pmf":
            p = _parse_fraction(args.p, "p")
            value = binomial_pmf(BinomialParams(args.trials, p), args.r)
            return _rational_record(command, value, digits), EXIT_OK
        if sub == "pgf":
            t = _parse_fraction(args.t, "t")
            value = hypergeom_pgf(_hypergeom_params(args), t)
            return _rational_record(command, value, digits), EXIT_OK
        if sub == "mgf":
            value = hypergeom_mgf(_hypergeom_params(args), args.t, digits)
            record = {
                "command": command,
                "status": "ok",
                "exact": None,
                "decimal": str(value),
                "detail": "mgf is evaluated numerically over the exact pmf",
            }
            return record, EXIT_OK
        if sub == "mean":
            value = hypergeom_mean(_hypergeom_params(args))
            return _rational_record(command, value, digits), EXIT_OK
        if sub == "variance":
            value = hypergeom_variance(_hypergeom_params(args))
            return _rational_record(command, value, digits), EXIT_OK
        if sub == "convolve":
            p = _parse_fraction(args.p, "p")
            table = binomial_convolve(
                BinomialParams(args.trials1, p), BinomialParams(args.trials2, p)
            )
            record = {
                "command": command,
                "status": "ok",
                "table": [
                    {
                        "outcome": k,
                        "probability": _fraction_json(q),
                        "decimal": rational_to_decimal(q, digits),
                    }
                    for k, q in table.entries
                ],
                "detail": "",
            }
            return record, EXIT_OK
        if sub == "conditional":
            p = _parse_fraction(args.p, "p")
            try:
                labels = DegenerateLabels(args.l1, args.k1, args.l2, args.k2)
            except ValueError as exc:
                raise _CommandError(str(exc)) from None
            value = conditional_probability(labels, p)
            return _rational_record(command, value, digits), EXIT_OK
    except (ValueError, ArithmeticError) as exc:
        raise _CommandError(str(exc)) from None
    raise _CommandError(f"unknown dist subcommand {sub!r}")


def _cmd_limit(args: argparse.Namespace, argv: list[str]) -> tuple[object, int]:
    command = _echo(argv)
    p = _parse_fraction(args.p, "p")
    try:
        n3_list = [int(tok) for tok in args.n3.split(",") if tok.strip()]
    except ValueError:
        raise _CommandError(f"cannot parse n3 list {args.n3!r}") from None
    if not n3_list:
        raise _CommandError("n3 list is empty")
    try:
        results = binomial_limit_tv(p, args.n2, n3_list)
    except (ValueError, ArithmeticError) as exc:
        raise _CommandError(str(exc)) from None
    records = [
        {
            "command": command,
            "status": "zero" if tv == 0 else "ok",
            "n3": n3,
            "exact": _rational_exact(tv),
            "decimal": rational_to_decimal(tv, args.digits),
            "detail": "",
        }
        for n3, tv in results
    ]
    return records, EXIT_OK


_SUITE_RUNNERS = {
    "agreement": lambda args: verify_suites.run_backend_agreement(args.max_twice_ab),
    "degenerate": lambda args: verify_suites.run_degenerate_identity(args.max_l),
    "distributions": lambda args: verify_suites.run_distribution_identities(args.max_n3),
}


def _cmd_verify(args: argparse.Namespace, argv: list[str]) -> tuple[object, int]:
    names = list(_SUITE_RUNNERS) if args.suite == "all" else [args.suite]
    reports = [_SUITE_RUNNERS[name](args) for name in names]
    all_passed = all(r.passed for r in reports)
    record = {
        "command": _echo(argv),
        "status": "ok" if all_passed else "error",
        "passed": all_passed,
        "suites": [r.to_dict() for r in reports],
        "detail": "" if all_passed else "one or more suites reported failures",
    }
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(record, indent=2) + "\n")
    return record, EXIT_OK if all_passed else EXIT_VERIFY_FAILED


def _render_text(payload: object) -> str:
    if isinstance(payload, list):
        return "\n".join(_render_text(record) for record in payload)
    record = payload
    if record.get("status") == "error":
        return f"error: {record['detail']}"
    if "suites" in record:
        lines = []
        for suite in record["suites"]:
            verdict = "PASS" if suite["passed"] else "FAIL"
            lines.append(
                f"{verdict} {suite['suite_name']} "
                f"(cases={suite['cases_run']} failures={suite['failure_count']})"
            )
            for failure in suite["failures"]:
                lines.append(
                    f"  {failure['input']}: expected {failure['expected']}, "
                    f"got {failure['actual']}"
                )
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


def _add_label_arguments(parser: argparse.ArgumentParser) -> None:
    for name in ("a", "alpha", "b", "beta", "c", "gamma"):
        parser.add_argument(name, help=f"half-integer {name} ('k' or 'k/2')")
    parser.add_argument(
        "--backend",
        choices=("racah", "3f2", "ladder", "all"),
        default="racah",
        help="evaluation backend (ladder applies only when c = a+b)",
    )


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--digits", type=int, default=15, help="significant digits for decimals")
    common.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt",
        help="output format",
    )

    parser = argparse.ArgumentParser(
        prog="cgexact",
        description="Exact Clebsch-Gordan / 3jm coefficients, exact discrete "
        "distributions, and identity verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cg_parser = sub.add_parser("cg", parents=[common], help="Clebsch-Gordan coefficient")
    _add_label_arguments(cg_parser)
    cg_parser.set_defaults(handler=_cmd_cg)

    threejm_parser = sub.add_parser(
        "3jm", parents=[common], help="3jm symbol with lower row (alpha, beta, -gamma)"
    )
    _add_label_arguments(threejm_parser)
    threejm_parser.set_defaults(handler=_cmd_3jm)

    dist_parser = sub.add_parser("dist", help="exact distribution operations")
    dist_sub = dist_parser.add_subparsers(dest="dist_command", required=True)

    def hyp_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n1", type=int, required=True)
        p.add_argument("--n2", type=int, required=True)
        p.add_argument("--n3", type=int, required=True)

    p = dist_sub.add_parser("hypergeom-pmf", parents=[common])
    hyp_flags(p)
    p.add_argument("--x", type=int, required=True)
    p = dist_sub.add_parser("binomial-pmf", parents=[common])
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--r", type=int, required=True)
    p = dist_sub.add_parser("pgf", parents=[common])
    hyp_flags(p)
    p.add_argument("--t", required=True, help="rational argument, 'num/den'")
    p = dist_sub.add_parser("mgf", parents=[common])
    hyp_flags(p)
    p.add_argument("--t", required=True, help="decimal argument")
    p = dist_sub.add_parser("mean", parents=[common])
    hyp_flags(p)
    p = dist_sub.add_parser("variance", parents=[common])
    hyp_flags(p)
    p = dist_sub.add_parser("convolve", parents=[common])
    p.add_argument("--trials1", type=int, required=True)
    p.add_argument("--trials2", type=int, required=True)
    p.add_argument("--p", required=True)
    p = dist_sub.add_parser("conditional", parents=[common])
    p.add_argument("--l1", type=int, required=True)
    p.add_argument("--k1", type=int, required=True)
    p.add_argument("--l2", type=int, required=True)
    p.add_argument("--k2", type=int, required=True)
    p.add_argument("--p", required=True)
    dist_parser.set_defaults(handler=_cmd_dist)

    limit_parser = sub.add_parser(
        "limit", parents=[common], help="total variation distance to the binomial limit"
    )
    limit_parser.add_argument("--p", required=True, help="success probability, 'num/den'")
    limit_parser.add_argument("--n2", type=int, required=True)
    limit_parser.add_argument("--n3", required=True, help="comma-separated n3 values")
    limit_parser.set_defaults(handler=_cmd_limit)

    verify_parser = sub.add_parser(
        "verify", parents=[common], help="run identity verification suites"
    )
    verify_parser.add_argument(
        "--suite",
        choices=("agreement", "degenerate", "distributions", "all"),
        default="all",
    )
    verify_parser.add_argument("--max-twice-ab", type=int, default=5)
    verify_parser.add_argument("--max-l", type=int, default=10)
    verify_parser.add_argument("--max-n3", type=int, default=30)
    verify_parser.add_argument("--output", help="also write the JSON report to this path")
    verify_parser.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(_shield_negatives(argv))
    try:
        payload, code = args.handler(args, argv)
    except (_CommandError, ValueError, ArithmeticError) as exc:
        payload, code = _error_record(_echo(argv), str(exc)), EXIT_USAGE
        print(f"cgexact: {exc}", file=sys.stderr)
    if args.fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(_render_text(payload))
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
