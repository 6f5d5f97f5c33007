"""Timing arithmetic: the tail rule, medians and speed adjustment.

Everything here is pure stdlib and free of ``repro`` imports, so the
self-tests exercise it without building an engine.

Speed adjustment
----------------
The machines this benchmark runs on are shared, and their speed changes by
up to a factor of two within seconds.  :class:`SpeedProbe` times a fixed
interpreter-bound loop (:func:`_reference_slice`) that lives in this file
and never changes, between the operations of a pass, and the pass's
durations are reported as they would have read on a machine where one
slice takes ``NOMINAL_REFERENCE_S``: each is multiplied by
``NOMINAL_REFERENCE_S / trimmed_mean(slice times of the pass)``.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Sequence

__all__ = [
    "NOMINAL_REFERENCE_S",
    "TAIL_BEYOND",
    "SpeedProbe",
    "latency_summary",
    "nearest_rank",
    "tail_percentile",
    "trimmed_mean",
]

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

#: The slice time (seconds) that adjusted timings are scaled to.  Any fixed
#: value works; this one is about the mean slice on a 2-vCPU Xeon VM at
#: 2.0 GHz, so adjusted numbers read close to wall time there.
NOMINAL_REFERENCE_S = 0.00215


def nearest_rank(sorted_values: Sequence[float], percentile: float) -> float:
    """The nearest-rank *percentile* of already sorted values."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(percentile / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(count: int, beyond: int = TAIL_BEYOND) -> Optional[int]:
    """The highest whole percentile in 50..99 with at least *beyond* of
    *count* samples strictly above its nearest-rank sample, or ``None``
    when even the median leaves fewer than *beyond* samples above it."""
    for percentile in range(99, 49, -1):
        rank = max(1, math.ceil(percentile / 100.0 * count))
        if count - rank >= beyond:
            return percentile
    return None


def latency_summary(samples: Sequence[float]) -> Dict[str, float]:
    """Median and tail of *samples*, with the tail's percentile and count.

    With too few samples for the tail rule the tail is the maximum and its
    percentile reads 100, so a report can never pass a thin tail off as a
    well-sampled one.
    """
    ordered = sorted(samples)
    percentile = tail_percentile(len(ordered))
    tail = ordered[-1] if percentile is None else nearest_rank(ordered, percentile)
    return {
        "p50": nearest_rank(ordered, 50),
        "tail": tail,
        "tail_percentile": 100 if percentile is None else percentile,
        "samples": len(ordered),
    }


# --------------------------------------------------------------------------- #
# the speed reference
# --------------------------------------------------------------------------- #
class _Node:
    __slots__ = ("label", "degree")

    def __init__(self, label: int, degree: int) -> None:
        self.label = label
        self.degree = degree


def _combine(left: int, right: int) -> int:
    return (left * 31 + right) & 0xFFFF


def _reference_slice() -> int:
    """One fixed slice of interpreter work, about 2 ms on the reference VM:
    small objects, attribute reads, calls, tuple hashing, set and dict
    traffic and string formatting, the mix the solver's inner loops run.
    It allocates afresh every time, so no slice inherits a lucky (or
    unlucky) memory layout from the previous one."""
    seen = set()
    table = {}
    acc = 0
    for i in range(1200):
        node = _Node(i & 31, i >> 5)
        key = (node.label, node.degree & 3)
        seen.add(key)
        table[key] = table.get(key, 0) + 1
        acc = _combine(acc, node.label)
        if (node.label, 1) in seen:
            acc += len("n%d" % (i & 15))
    return acc + len(table)


def _slice_times(slices: int) -> List[float]:
    times: List[float] = []
    for _ in range(slices):
        started = time.perf_counter()
        _reference_slice()
        times.append(time.perf_counter() - started)
    return times


def trimmed_mean(values: Sequence[float], trim: float = 0.1) -> float:
    """Mean of *values* without the lowest and highest *trim* share."""
    ordered = sorted(values)
    cut = int(len(ordered) * trim)
    kept = ordered[cut:len(ordered) - cut] or ordered
    return sum(kept) / len(kept)


class SpeedProbe:
    """Collects reference slice times taken between a workload's operations.

    The reference VM flips between a fast and a slow state (one slice reads
    about 1.3 ms or 2.2 ms) within seconds, and runs slower right after it
    idled, so slices taken before and after a pass (after a collection,
    with the engine closed) say little about the pass: over six runs of
    four ``zoo-cold`` passes, throughput adjusted that way spread 24%
    (interquartile range over median), raw throughput 23%, and throughput
    adjusted by slices taken between the pass's own operations 4%.  So the
    serial workloads take :meth:`sample` between operations, and each pass
    is scaled by :meth:`factor` of its own slices: the trimmed mean, not the
    median, because the time a fixed amount of work takes averages the two
    states by how long each lasted.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, slices: int = 1) -> None:
        self.samples.extend(_slice_times(slices))

    def mean(self) -> float:
        return trimmed_mean(self.samples)

    def factor(self, samples: Optional[Sequence[float]] = None) -> float:
        """The scale for the given slice times (default: all of them)."""
        return NOMINAL_REFERENCE_S / trimmed_mean(self.samples if samples is None else samples)
