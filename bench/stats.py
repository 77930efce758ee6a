"""The benchmark's arithmetic, kept apart so ``bench/selftest.py`` can
check it without running a workload."""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from typing import Dict, Iterable, List, Sequence, Tuple

#: A percentile is reported only with at least this many samples
#: beyond it (choosing-metrics guide, section 1).
SAMPLES_BEYOND = 10


def gmean(values: Sequence[float]) -> float:
    """Geometric mean of positive numbers."""
    if not values:
        raise ValueError("gmean of no values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_name(count: int) -> str:
    return "the p90 of all ops" if count * 0.10 >= SAMPLES_BEYOND \
        else "the slowest input's median (too few ops for a p90)"


def tail(samples: Sequence[Tuple[str, float]]) -> float:
    """What ``op_ms_p90`` reports: the 90th percentile over all ops when
    ten samples lie beyond it (100 ops or more); else the largest of the
    per-input medians -- a workload too short for a percentile still
    says how its slowest input fares, from medians rather than from two
    or three extreme samples."""
    if len(samples) * 0.10 >= SAMPLES_BEYOND:
        return percentile([value for _, value in samples], 90)
    return max(input_medians(samples).values())


def input_medians(samples: Iterable[Tuple[str, float]]
                  ) -> Dict[str, float]:
    """Median per distinct input, in first-seen order."""
    by_input: Dict[str, List[float]] = {}
    for input_id, value in samples:
        by_input.setdefault(input_id, []).append(value)
    return {input_id: statistics.median(values)
            for input_id, values in by_input.items()}


def gmean_of_input_medians(samples: Iterable[Tuple[str, float]]) -> float:
    """One row per input, rows averaged geometrically (compilers sheet:
    a slow program must not outvote nineteen fast ones)."""
    return gmean(list(input_medians(samples).values()))


def worsening(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``
    (negative: it got better)."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be lower or higher, got {better!r}")
    if base == 0:
        raise ValueError("a metric's base value is never 0")
    delta = (new - base) / abs(base)
    return delta if better == "lower" else -delta


def within_bound(base: float, new: float, better: str,
                 bound: float) -> bool:
    return worsening(base, new, better) <= bound


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with Python's default quartiles -- the
    steadiness figure the driver computes over ten runs."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def sim_digest(records: Iterable[object]) -> str:
    """SHA-256 over simulated results -- ``(value, output, time_ns,
    stats.snapshot())`` per run -- so a simulator-only change can show
    it left every simulated statistic identical."""
    text = json.dumps(list(records), sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
