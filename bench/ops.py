"""Runs one benchmark op against cgexact, inside the worker process.

Each op calls the library the way the matching CLI request does and renders
its result to decimals; the returned tuple is what the oracles check. All
calls go through module attributes, so a tracer that rebinds them sees
every call.
"""

from __future__ import annotations

from fractions import Fraction

from cgexact import angular, exact, prob
from inputs import DIGITS, MGF_DIGITS


def _render(values) -> list[str]:
    return [exact.rational_to_decimal(q, DIGITS) for q in values]


def _hypergeom(n1: int, n2: int, n3: int):
    return prob.HypergeomParams(n1, n2, n3)


def cg(ta, tal, tb, tbe, tc, tg, ladder):
    labels = angular.CgLabels.from_twice(ta, tal, tb, tbe, tc, tg)
    racah = angular.cg_racah(labels)
    values = [racah, angular.cg_3f2(labels)]
    if ladder:
        steps = (ta + tb - tg) // 2
        vector = angular.cg_ladder_stretched(labels.a, labels.b, steps)
        values.append(vector.amplitude(labels.alpha, labels.beta))
    agreement = len({(v.sign, v.radicand) for v in values}) == 1
    jm = angular.cg_to_3jm(labels, racah)
    return (
        values,
        agreement,
        jm,
        exact.sqrt_to_decimal(racah, DIGITS),
        exact.sqrt_to_decimal(jm, DIGITS),
    )


def pmf_table(n1, n2, n3):
    params = _hypergeom(n1, n2, n3)
    values = [prob.hypergeom_pmf(params, x) for x in params.support()]
    return values, _render(values)


def pmf_point(n1, n2, n3, x):
    value = prob.hypergeom_pmf(_hypergeom(n1, n2, n3), x)
    return [value], _render([value])


def pgf(n1, n2, n3, t_num, t_den):
    value = prob.hypergeom_pgf(_hypergeom(n1, n2, n3), Fraction(t_num, t_den))
    return [value], _render([value])


def mgf(n1, n2, n3, t):
    return str(prob.hypergeom_mgf(_hypergeom(n1, n2, n3), t, MGF_DIGITS))


def moments(n1, n2, n3):
    params = _hypergeom(n1, n2, n3)
    values = [prob.hypergeom_mean(params), prob.hypergeom_variance(params)]
    return values, _render(values)


def convolve(t1, t2, p_num, p_den):
    p = Fraction(p_num, p_den)
    table = prob.binomial_convolve(prob.BinomialParams(t1, p), prob.BinomialParams(t2, p))
    values = [q for _, q in table.entries]
    return values, _render(values)


def conditional(l1, k1, l2, k2, p_num, p_den):
    labels = angular.DegenerateLabels(l1, k1, l2, k2)
    value = prob.conditional_probability(labels, Fraction(p_num, p_den))
    return [value], _render([value])


def limit(p_num, p_den, n2, n3_sequence):
    results = prob.binomial_limit_tv(Fraction(p_num, p_den), n2, n3_sequence)
    values = [tv for _, tv in results]
    return [n3 for n3, _ in results], values, _render(values)


RUNNERS = {
    "cg": cg,
    "pmf_table": pmf_table,
    "pmf_point": pmf_point,
    "pgf": pgf,
    "mgf": mgf,
    "moments": moments,
    "convolve": convolve,
    "conditional": conditional,
    "limit": limit,
}


def run(op: list):
    return RUNNERS[op[0]](*op[1:])


def encode(value):
    """JSON form of an op result; integers go as hex, which has no digit cap."""
    if isinstance(value, Fraction):
        return ["q", hex(value.numerator), hex(value.denominator)]
    if isinstance(value, exact.SignedSqrtRational):
        return ["s", value.sign, hex(value.radicand.numerator), hex(value.radicand.denominator)]
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    return value
