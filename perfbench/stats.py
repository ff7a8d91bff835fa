"""Speed probe and quantile estimates for the benchmark's timings.

The benchmark runs on shared machines whose speed drifts by up to 1.8x over
seconds to minutes, so raw wall-clock times of one run say more about the
neighbours than about the code.  Every timed interval is therefore bracketed
by a fixed pure-Python probe loop, and its time is expressed at reference
speed: raw time x PROBE_REF_S / (mean probe time), the mean taken over the
probes just before and just after the interval and, for long ops, those run
every 50 ms during it (their time is taken out of the op's).  The
probe is benchmark code, so a change to the library never changes it; the
raw times and the probe times go into the run record.

Quantiles use the Harrell-Davis estimator, a weighted mean of all order
statistics, so a median or tail over a few dozen ops does not jump when two
neighbouring ops swap places.  The mean is taken over log latencies, so a
few ops a hundred times slower than the rest do not pull the estimate.
"""

from __future__ import annotations

import math
import time

PROBE_REF_S = 0.001  # the probe's time at reference speed
TAIL_BEYOND = 10


def probe() -> float:
    """Seconds taken by a fixed loop of dict, tuple and int work (about 1 ms)."""
    start = time.perf_counter()
    table: dict = {}
    for i in range(1500):
        key = (i % 37, i % 11, i & 7)
        table[key] = table.get(key, 0) + ((i * 2654435761) >> 7 & 0xFFFF).bit_count()
    return time.perf_counter() - start


def at_reference(elapsed: float, probes: list[float]) -> float:
    """``elapsed`` seconds expressed at reference speed, from the probe times
    taken around and during the interval."""
    return elapsed * PROBE_REF_S * len(probes) / sum(probes)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        m2 = 2 * m
        for aa in (
            m * (b - m) * x / ((a - 1.0 + m2) * (a + m2)),
            -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2)),
        ):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-14:
            break
    return h


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def hd_quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of positive ``values``,
    weighting their logarithms."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    total, lower = 0.0, 0.0
    for i, value in enumerate(ordered, start=1):
        upper = betainc(a, b, i / n)
        total += (upper - lower) * math.log(value)
        lower = upper
    return math.exp(total)


def tail(values: list[float]) -> tuple[float, float, int]:
    """(estimate, percentile, ops beyond) at the highest percentile that
    leaves TAIL_BEYOND ops above it; for short passes, the largest value."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return max(values), 100.0, 0
    k = n - TAIL_BEYOND  # ops at or below the percentile
    return hd_quantile(values, k / n), 100.0 * k / n, TAIL_BEYOND
