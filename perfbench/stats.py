"""Order statistics shared by run.py and the trace summary; standard library only."""

from __future__ import annotations

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def percentile(xs, p: float) -> float:
    """Linear-interpolated percentile (numpy's default method); 0 for no samples."""
    xs = sorted(xs)
    if not xs:
        return 0.0
    k = (len(xs) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def tail(xs) -> tuple:
    """(p, value) of the highest ladder percentile with >= 10 samples beyond it."""
    for p in TAIL_LADDER:
        if len(xs) * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND:
            return p, percentile(xs, p)
    return None, 0.0
