"""Pure arithmetic behind the ledger: percentiles and span self time.

Nothing here imports the program under test, so the runner and the
benchmark's own tests can use it without a checkout of ``src/``.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Sequence, Tuple


def percentile(samples: Sequence[float], fraction: float) -> float:
    """The *fraction* quantile of *samples*, interpolated linearly
    between order statistics (``statistics.quantiles`` inclusive
    method); a single sample is its own every quantile."""
    if not samples:
        raise ValueError("percentile of no samples")
    if len(samples) == 1:
        return float(samples[0])
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return float(cuts[round(fraction * 100) - 1])


def latency_summary(samples: Sequence[float]) -> Dict[str, float]:
    """Median and p90 of *samples* with the counts that qualify them:
    ``n`` samples in all and ``beyond_p90`` strictly above the p90."""
    p50 = percentile(samples, 0.5)
    p90 = percentile(samples, 0.9)
    return {
        "p50": p50,
        "p90": p90,
        "n": len(samples),
        "beyond_p90": sum(1 for value in samples if value > p90),
    }


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> List[float]:
    """Each span's duration minus the durations of its direct children.

    Spans are given as parallel columns (``parents[i]`` indexes the
    same columns, -1 for a top-level span) for one thread.  Spans of
    one thread nest (a child opens and closes inside its parent, and
    siblings do not overlap), so the children's durations are exactly
    the part of the parent's interval they cover."""
    result = [end - start for start, end in zip(starts, ends)]
    for start, end, parent in zip(starts, ends, parents):
        if parent >= 0:
            result[parent] -= end - start
    return result


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total
