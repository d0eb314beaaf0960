"""Arithmetic of the benchmark's reported figures.

Kept free of any mrhydro import so the tests can check it on synthetic
numbers.
"""
from __future__ import annotations

import math
import statistics

TAIL_BEYOND = 10  # samples that must lie above the reported tail percentile


def median(values) -> float:
    return float(statistics.median(values))


def tail_percentile(samples) -> tuple[int, float]:
    """Highest integer percentile with at least TAIL_BEYOND samples beyond it.

    Nearest-rank definition: the p-th percentile of N sorted samples is
    the k-th smallest with k = ceil(p * N / 100), and N - k samples lie
    beyond it.  Returns (p, value).  Needs more than TAIL_BEYOND samples.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples, got {n}")
    for p in range(100, 0, -1):
        k = -(-p * n // 100)  # integer ceil(p * n / 100)
        if n - k >= TAIL_BEYOND:
            return p, float(xs[k - 1])
    raise ValueError("no percentile leaves enough samples beyond it")


def failed_frac(attempted: int, failed: int) -> float:
    """Failed operations over attempted ones."""
    if attempted < 1:
        raise ValueError("no operation attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed count {failed} outside [0, {attempted}]")
    return failed / attempted


def close(measured, reference, rel: float) -> bool:
    """Equality to a relative tolerance; None and NaN only match themselves."""
    if measured is None or reference is None:
        return measured is None and reference is None
    a, b = float(measured), float(reference)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rel * max(abs(a), abs(b))


def same(a, b) -> bool:
    """Exact equality where NaN equals NaN."""
    return a == b or (a != a and b != b)
