"""Run-to-run statistics of spread.py: quartiles, spread and relative change."""

from __future__ import annotations

import statistics


def quartiles(values) -> tuple[float, float]:
    """First and third quartile, as statistics.quantiles(values, n=4) gives them."""
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def relative_spread(values) -> float:
    """(Q3 - Q1) / median: the run-to-run spread, as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)


def relative_change(before: float, after: float, better: str) -> float:
    """How much worse `after` is than `before`, as a share of `before`
    (negative when it is better)."""
    if better == "lower":
        return (after - before) / before
    return (before - after) / before
