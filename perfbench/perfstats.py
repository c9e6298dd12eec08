"""Pure helpers of the benchmark: percentiles, closed-loop accounting,
span self time and digests.

Nothing here imports the program under test, so the unit tests in
``perfbench/tests`` exercise these rules without running a workload.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import statistics
from collections.abc import Iterable, Mapping, Sequence

INF = float("inf")

#: A percentile is reported only when at least this many samples lie
#: beyond it (the choosing-metrics rule).
MIN_BEYOND = 10


def samples_needed(q: float, min_beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count that supports percentile ``q``."""
    return math.ceil(min_beyond / (1.0 - q / 100.0) - 1e-9)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; ``inf`` entries (failures) sort last."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def supported_percentile(values: Sequence[float], q: float,
                         min_beyond: int = MIN_BEYOND) -> float | None:
    """Percentile ``q``, or None when fewer than ``min_beyond`` samples
    lie beyond it."""
    if len(values) < samples_needed(q, min_beyond):
        return None
    return percentile(values, q)


@dataclasses.dataclass(frozen=True)
class Sample:
    """One closed-loop request: when it was sent, when its reply came."""

    index: int
    sent: float
    replied: float
    ok: bool

    @property
    def latency(self) -> float:
        """Seconds from send to reply; a failure is infinitely slow."""
        return self.replied - self.sent if self.ok else INF


@dataclasses.dataclass(frozen=True)
class LoopStats:
    """Accounting of one closed-loop timed phase."""

    attempted: int
    completed: int
    failed: int
    seconds: float
    latencies: tuple[float, ...]

    @property
    def throughput(self) -> float:
        return self.completed / self.seconds if self.seconds > 0 else 0.0

    def p(self, q: float) -> float | None:
        return supported_percentile(self.latencies, q)


def account(samples: Iterable[Sample], start: float,
            end: float) -> LoopStats:
    """Closed-loop accounting over the phase ``[start, end]``.

    Every request sent in the phase is attempted; it completed when it
    was answered correctly, and failed otherwise.  The phase ends when
    the last caller has its final reply, so no request is cut off and
    throughput is completed requests over the whole phase.
    """
    samples = sorted(samples, key=lambda s: s.index)
    if any(s.sent < start or s.replied > end for s in samples):
        raise ValueError("sample outside the timed phase")
    completed = sum(1 for s in samples if s.ok)
    return LoopStats(attempted=len(samples), completed=completed,
                     failed=len(samples) - completed,
                     seconds=end - start,
                     latencies=tuple(s.latency for s in samples))


def covered(intervals: Iterable[tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total, cursor = 0.0, lo
    for a, b in clipped:
        a = max(a, cursor)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_time(start: float, duration: float,
              children: Iterable[tuple[float, float]]) -> float:
    """A span's duration minus the part its children cover.

    ``children`` are ``(start, duration)`` pairs; parts of a child that
    fall outside the parent's interval (work handed to another thread
    that outlives the parent) do not count, and overlapping children
    are counted once.
    """
    end = start + duration
    spans = [(s, s + d) for s, d in children]
    return max(0.0, duration - covered(spans, start, end))


def stage_medians(runs: Sequence[Mapping[str, float]]) -> dict:
    """Each stage's median over ``runs``, in the first run's order.

    Their sum is the repeated job's time: a burst of host load that
    slows one stage of one run barely moves that stage's median, where
    it would move that run's whole total.
    """
    if not runs:
        raise ValueError("no runs")
    return {stage: statistics.median([run[stage] for run in runs])
            for stage in runs[0]}


def mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def ratio(num: float, den: float) -> float:
    """``num / den``, and 0 when nothing was counted."""
    return num / den if den else 0.0


def digest(records: Iterable) -> str:
    """Short stable digest of JSON-serializable records, in order."""
    h = hashlib.sha256()
    for record in records:
        h.update(json.dumps(record, sort_keys=True,
                            separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def float_bits(value: float) -> str:
    """Exact text of a float, so digests compare bit for bit."""
    return float(value).hex()

