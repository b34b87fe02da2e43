"""Seeded inputs for the benchmark workloads.

Every op is a plain JSON list whose first element names its kind, so the
parent can hand the same list to the worker process and to the oracles.
Sizes are stratified: each kind gets a fixed number of ops, and op j of n
draws its main size from the j-th of n equal slices of that size's range,
and its second size and its choice of argument (p or t) from other slices,
in seeded order (a Latin hypercube). Seeds therefore change the labels and arguments but not the
size mix, which keeps the measured cost of a pool close from one seed to
the next.
"""

from __future__ import annotations

import json
import math
import random
import zlib
from typing import NamedTuple


class Scale(NamedTuple):
    """How much work one run's input pool holds."""

    coeff_ops: int
    min_twice_j: int
    max_twice_j: int
    max_twice_stretched: int
    dist_blocks: int
    max_n3: int
    max_trials: int
    setup_probes: int
    # None runs `cgexact verify` at its own defaults.
    verify_flags: tuple[str, ...] | None


FULL = Scale(
    coeff_ops=480,
    min_twice_j=20,
    max_twice_j=400,
    max_twice_stretched=60,
    dist_blocks=48,
    max_n3=40000,
    max_trials=40,
    setup_probes=8,
    verify_flags=None,
)

TOY = Scale(
    coeff_ops=8,
    min_twice_j=2,
    max_twice_j=12,
    max_twice_stretched=8,
    dist_blocks=1,
    max_n3=60,
    max_trials=6,
    setup_probes=2,
    verify_flags=("--max-twice-ab", "1", "--max-l", "2", "--max-n3", "3"),
)

# Size buckets of the traced scaling sweeps: (upper bound, label).
TWICE_J_BUCKETS = [(20, "le20"), (50, "21-50"), (100, "51-100"), (200, "101-200"), (400, "201-400")]
TRIALS_BUCKETS = [(12, "le12"), (24, "13-24"), (40, "25-40")]
N3_BUCKETS = [(30, "le30"), (1000, "31-1000"), (10000, "1001-10000"), (40000, "10001-40000")]


def bucket(value: int, edges: list[tuple[int, str]]) -> str:
    for top, label in edges:
        if value <= top:
            return label
    return f"gt{edges[-1][0]}"


def bucket_labels(edges: list[tuple[int, str]]) -> list[str]:
    return [label for _, label in edges] + [f"gt{edges[-1][0]}"]


# Significant digits of rendered decimals: the CLI default, and the mgf's.
DIGITS = 15
MGF_DIGITS = 30

# Defaults of `cgexact verify`; the expected case counts follow from them.
VERIFY_DEFAULTS = {"max_twice_ab": 5, "max_l": 10, "max_n3": 30}


def digest(encoded) -> str:
    """Fingerprint of an op result in its JSON form (see ops.encode): the
    length and CRC-32 of the text; zlib keeps the worker's memory small."""
    text = json.dumps(encoded, separators=(",", ":")).encode()
    return f"{len(text)}:{zlib.crc32(text):08x}"


def _strata(rng: random.Random, n: int) -> list[float]:
    """n points in [0, 1), one in each of n equal slices, in random order."""
    points = [(j + rng.random()) / n for j in range(n)]
    rng.shuffle(points)
    return points


def _log_size(u: float, lo: int, hi: int) -> int:
    return round(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))


def _projection(rng: random.Random, twice_j: int, spread: float) -> int:
    """A small doubled projection with the parity of twice_j."""
    bound = max(1, int(twice_j * spread)) // 2
    return 2 * rng.randint(-bound, bound) + twice_j % 2


def _classify(ta: int, tal: int, tb: int, tbe: int, tc: int) -> str:
    """Which branch cg_3f2 takes: the literal series needs both lower
    parameters c-a-beta+1 and c-b+alpha+1 to be positive."""
    if tc == ta + tb:
        return "stretched"
    b1 = (tc - ta - tbe) // 2 + 1
    b2 = (tc - tb + tal) // 2 + 1
    return "literal" if min(b1, b2) >= 1 else "regularized"


def _coeff_labels(rng: random.Random, kind: str, u: float, v: float, scale: Scale) -> list:
    lo, hi = scale.min_twice_j, scale.max_twice_j
    attempts = 0
    while True:
        if kind == "stretched":
            total = lo + round(u * (scale.max_twice_stretched - lo))
            ta = rng.randint(total // 4, total - total // 4)
            tb = total - ta
            tc = total
        else:
            ta = lo + round(u * (hi - lo))
            tb = min(hi, max(lo, ta + rng.randint(-ta // 4, ta // 4)))
            # central c: the middle half of the triangle range, so the
            # z-range and the 3F2 cutoff stay long
            t_lo, t_hi = abs(ta - tb), min(ta + tb, hi)
            quarter = (t_hi - t_lo) // 4
            c_lo, c_hi = max(lo, t_lo + quarter), max(lo, t_hi - quarter)
            tc = c_lo + round(v * (c_hi - c_lo))
            tc -= (ta + tb + tc) % 2
        if kind != "stretched" and attempts > 50:
            v = rng.random()
        attempts += 1
        tal = _projection(rng, ta, 0.25)
        tbe = _projection(rng, tb, 0.25)
        tg = tal + tbe
        if abs(tal) > ta or abs(tbe) > tb or abs(tg) > tc or tc < abs(ta - tb):
            continue
        if _classify(ta, tal, tb, tbe, tc) == kind:
            return ["cg", ta, tal, tb, tbe, tc, tg, kind == "stretched"]


def coeff_ops(seed: int, scale: Scale) -> list[list]:
    """`cg --backend all`-style requests; 15% stretched (ladder runs too),
    then an even split of literal and regularized 3F2 branches."""
    rng = random.Random(seed)
    n = scale.coeff_ops
    n_stretched = max(1, n * 15 // 100)
    n_regularized = max(1, (n - n_stretched) // 2)
    counts = {
        "stretched": n_stretched,
        "regularized": n_regularized,
        "literal": n - n_stretched - n_regularized,
    }
    ops = []
    for kind, count in counts.items():
        sizes = zip(_strata(rng, count), _strata(rng, count))
        ops += [_coeff_labels(rng, kind, u, v, scale) for u, v in sizes]
    rng.shuffle(ops)
    return ops


# Ops of each kind in one block of the distribution mix.
DIST_BLOCK = {
    "pmf_table": 3,
    "pmf_point": 2,
    "pgf": 2,
    "mgf": 2,
    "moments": 2,
    "convolve": 2,
    "conditional": 2,
    "limit": 1,
}

_PGF_ARGS = [(1, 3), (2, 3), (3, 4), (5, 4), (7, 2), (-1, 2)]
_MGF_ARGS = ["-0.5", "0.1", "0.693147", "1.25", "-2"]
_PROBS = [(1, 2), (1, 3), (3, 10), (2, 7)]
_LIMIT_PROBS = [(1, 2), (1, 3), (1, 4), (2, 5)]


def _pick(choices: list, w: float):
    return choices[int(w * len(choices))]


def _dist_op(rng: random.Random, kind: str, u: float, v: float, w: float, scale: Scale) -> list:
    top = scale.max_n3
    if kind == "pmf_table":
        n3 = _log_size(u, 30, top)
        n2 = 5 + round(v * (min(300, n3 // 2) - 5))
        return ["pmf_table", round(n3 * rng.uniform(0.2, 0.8)), n2, n3]
    if kind == "pmf_point":
        # one `dist hypergeom-pmf --x` request near the mode; past roughly
        # n3 = 28000 its exact value has more than 4300 decimal digits
        n3 = _log_size(u, min(1000, top // 2), top)
        n1 = round(n3 * (0.4 + 0.2 * w))
        n2 = round(n3 * (0.2 + 0.1 * v))
        lo, hi = max(0, n1 + n2 - n3), min(n1, n2)
        x = min(hi, max(lo, n1 * n2 // n3 + round(10 * v) - 5))
        return ["pmf_point", n1, n2, n3, x]
    if kind in ("pgf", "mgf", "moments"):
        n3 = _log_size(u, 30, top)
        cap = {"pgf": 150, "mgf": 100, "moments": 300}[kind]
        n2 = 2 + round(v * (min(cap, n3 // 3) - 2))
        n1 = round((n3 - n2) * rng.uniform(0.1, 0.9))
        if kind == "pgf":
            return ["pgf", n1, n2, n3, *_pick(_PGF_ARGS, w)]
        if kind == "mgf":
            return ["mgf", n1, n2, n3, _pick(_MGF_ARGS, w)]
        return ["moments", n1, n2, n3]
    if kind == "convolve":
        # the double loop costs (t1+t2)^2/2 steps and (t1+1)(t2+1) pmf
        # products, so both the total and the split are stratified
        lo, hi = 5, scale.max_trials
        total = 2 * lo + round(u * (2 * hi - 2 * lo))
        t1_lo, t1_hi = max(lo, total - hi), min(hi, total - lo)
        t1 = t1_lo + round(v * (t1_hi - t1_lo))
        return ["convolve", t1, total - t1, *_pick(_PROBS, w)]
    if kind == "conditional":
        l1 = _log_size(u, 1, 2000)
        l2 = _log_size(v, 1, 2000)
        return ["conditional", l1, rng.randint(0, l1), l2, rng.randint(0, l2), *_pick(_PROBS, w)]
    if kind == "limit":
        pn, pd = _pick(_LIMIT_PROBS, w)
        n2 = 5 + round(u * 55)
        # smallest multiple of pd whose n1 = p*n3 leaves full support [0, n2]
        n3 = -(-n2 * pd // min(pn, pd - pn))
        n3 += -n3 % pd
        seq = [n3]
        while seq[-1] * 4 <= top:
            seq.append(seq[-1] * 4)
        return ["limit", pn, pd, n2, seq]
    raise ValueError(f"unknown distribution op {kind!r}")


def _even_points(n: int) -> list[tuple[float, float, float]]:
    """n seed-independent points of [0, 1)^3: the first coordinate at the
    middle of each of n equal slices, the others from additive recurrences
    (golden ratio, square root of 2), which spread them evenly as well."""
    return [((j + 0.5) / n, (j * 0.6180339887) % 1, (j * 0.4142135624) % 1) for j in range(n)]


def dist_ops(seed: int, scale: Scale) -> list[list]:
    """A seeded mix of distribution requests, each rendered to decimals.

    The single-point pmf requests are the same for every seed (only their
    places in the pool move): some of them fail, and how many must not
    depend on the seed."""
    rng = random.Random(seed)
    ops = []
    for kind, per_block in DIST_BLOCK.items():
        n = per_block * scale.dist_blocks
        if kind == "pmf_point":
            sizes = _even_points(n)
        else:
            sizes = zip(_strata(rng, n), _strata(rng, n), _strata(rng, n))
        ops += [_dist_op(rng, kind, u, v, w, scale) for u, v, w in sizes]
    rng.shuffle(ops)
    return ops


def verify_case_counts(max_twice_ab: int, max_l: int, max_n3: int) -> dict[str, int]:
    """Cases each `cgexact verify` suite must report, counted from the sweep
    ranges the CLI documents rather than from the suites themselves."""
    agreement = sum(
        (ta + 1) * (tb + 1) * sum(tc + 1 for tc in range(ta + tb + 3))
        for ta in range(max_twice_ab + 1)
        for tb in range(max_twice_ab + 1)
    )
    degenerate = sum((l1 + 1) * (l2 + 1) for l1 in range(max_l + 1) for l2 in range(max_l + 1))
    distributions = 0
    for n3 in range(max_n3 + 1):
        for n1 in range(n3 + 1):
            for n2 in range(n3 + 1):
                # pmf sum, mean, variance, pgf(1) where each is defined
                distributions += 1 + (n3 >= 1) + (n3 >= 2) + (n3 - n1 - n2 >= 0)
    trials = min(12, max_n3)
    distributions += (trials + 1) ** 2 * 3
    return {
        "backend_agreement": agreement,
        "degenerate_identity": degenerate,
        "distribution_identities": distributions,
    }
