"""Span tracer that wraps cgexact's public functions from outside the library.

`Tracer.install` rebinds every public function of the layer modules at its
defining module and at every other module attribute bound to it by import
(for example `angular.binomial` and `prob.eval_2f1`), so calls between
layers pass through a wrapper. Each call is one span: name, start, end,
parent span and the op (request) it belongs to. Self time is a span's
duration minus the time its child spans cover; it is summed per function as
calls return, and the first `span_cap` spans are kept in memory and written
out by `dump` when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
import types
from array import array
from fractions import Fraction

import cgexact
from cgexact import angular, cli, exact, hypseries, prob, verify
from inputs import N3_BUCKETS, TRIALS_BUCKETS, TWICE_J_BUCKETS, bucket

LAYERS = {"exact": exact, "hypseries": hypseries, "angular": angular, "prob": prob, "verify": verify, "cli": cli}

def _twice_j(labels) -> int:
    return max(labels.a.twice, labels.b.twice, labels.c.twice)


def _series_terms(upper) -> int:
    """Terms after the first that a terminating series sums."""
    cutoffs = [-int(a) for a in upper if a <= 0 and a.denominator == 1]
    return min(cutoffs) if cutoffs else 0


def _bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


# Observers see a call's arguments before it runs, update counters, and may
# return a size bucket that the call's self time is also filed under.
def _obs_factorial(tracer, args):
    tracer.high("exact.factorial.max_n", args[0])


def _obs_series(name):
    def observe(tracer, args):
        tracer.add(f"hypseries.{name}.terms", _series_terms(args[0].upper))

    return observe


def _obs_decimal(kind):
    def observe(tracer, args):
        value = args[0].radicand if kind == "sqrt" else Fraction(args[0])
        tracer.high("exact.radicand.max_bits", _bits(value))

    return observe


def _obs_racah(tracer, args):
    return bucket(_twice_j(args[0]), TWICE_J_BUCKETS)


def _obs_3f2(tracer, args):
    labels = args[0]
    ta, tb, tc = labels.a.twice, labels.b.twice, labels.c.twice
    tal, tbe, tg = labels.alpha.twice, labels.beta.twice, labels.gamma.twice
    if tg == tal + tbe and abs(ta - tb) <= tc <= ta + tb and (ta + tb + tc) % 2 == 0:
        tracer.add("angular.cg_3f2.series", 1)
        if min(tc - ta - tbe, tc - tb + tal) // 2 + 1 <= 0:
            tracer.add("angular.cg_3f2.regularized", 1)
    return bucket(_twice_j(labels), TWICE_J_BUCKETS)


def _obs_ladder(tracer, args):
    tracer.add("angular.cg_ladder_stretched.lowerings", args[2])


def _obs_convolve(tracer, args):
    return bucket(max(args[0].trials, args[1].trials), TRIALS_BUCKETS)


def _obs_pmf(tracer, args):
    return bucket(args[0].n3, N3_BUCKETS)


OBSERVERS = {
    "exact.factorial": _obs_factorial,
    "exact.rational_to_decimal": _obs_decimal("rational"),
    "exact.sqrt_to_decimal": _obs_decimal("sqrt"),
    "hypseries.eval_3f2_unit": _obs_series("eval_3f2_unit"),
    "hypseries.eval_2f1": _obs_series("eval_2f1"),
    "angular.cg_racah": _obs_racah,
    "angular.cg_3f2": _obs_3f2,
    "angular.cg_ladder_stretched": _obs_ladder,
    "prob.binomial_convolve": _obs_convolve,
    "prob.hypergeom_pmf": _obs_pmf,
}


class Tracer:
    def __init__(self, span_cap: int = 200_000) -> None:
        self.span_cap = span_cap
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.counters: dict[str, int] = {}
        self.buckets: dict[tuple[str, str], list[int]] = {}
        self.stack: list[list[int]] = []
        self.request = -1
        self.spans = 0
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_request = array("i")

    def add(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def high(self, key: str, value: int) -> None:
        if value > self.counters.get(key, -1):
            self.counters[key] = value

    def wrap(self, name: str, fn, observe=None):
        """fn wrapped so that every call records one span under `name`."""
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_ns.append(0)
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            size = observe(tracer, args) if observe else None
            stack = tracer.stack
            sid = tracer.spans
            tracer.spans = sid + 1
            frame = [sid, 0]
            kept = sid < tracer.span_cap
            if kept:
                tracer.span_name.append(nid)
                tracer.span_parent.append(stack[-1][0] if stack else -1)
                tracer.span_request.append(tracer.request)
                tracer.span_start.append(0)
                tracer.span_end.append(0)
            stack.append(frame)
            start = clock()
            if kept:
                tracer.span_start[sid] = start
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[1]
                tracer.calls[nid] += 1
                tracer.self_ns[nid] += own
                if stack:
                    stack[-1][1] += duration
                if size is not None:
                    slot = tracer.buckets.setdefault((name, size), [0, 0])
                    slot[0] += 1
                    slot[1] += own
                if kept:
                    tracer.span_end[sid] = end

        return traced

    def install(self) -> None:
        """Rebind each public layer function wherever a module holds it."""
        holders = [cgexact, *LAYERS.values()]
        for short, module in LAYERS.items():
            public = getattr(module, "__all__", []) + (["main"] if module is cli else [])
            for attr in public:
                fn = getattr(module, attr)
                if not isinstance(fn, types.FunctionType) or fn.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                traced = self.wrap(name, fn, OBSERVERS.get(name))
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, traced)

    def summary(self) -> dict:
        return {
            "calls": dict(zip(self.names, self.calls)),
            "self_ns": dict(zip(self.names, self.self_ns)),
            "counters": dict(self.counters),
            "buckets": [[name, size, calls, ns] for (name, size), (calls, ns) in self.buckets.items()],
            "spans_total": self.spans,
            "spans_kept": min(self.spans, self.span_cap),
        }

    def dump(self, path: str) -> None:
        """Write the kept spans as gzipped JSON columns."""
        kept = min(self.spans, self.span_cap)
        record = {
            "names": self.names,
            "spans_total": self.spans,
            "name": self.span_name.tolist()[:kept],
            "start": self.span_start.tolist()[:kept],
            "end": self.span_end.tolist()[:kept],
            "parent": self.span_parent.tolist()[:kept],
            "request": self.span_request.tolist()[:kept],
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(record, handle)
