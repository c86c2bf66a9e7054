"""Temporal clustering of racquet-impact detections into rally intervals.

Detections below the confidence threshold are dropped, the rest are grouped
wherever consecutive timestamps sit within the gap limit, small groups are
discarded, and surviving groups become padded intervals.  Padding can make
neighbours overlap; those are merged so the output stays disjoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class FlagCountMismatch(ValueError):
    """filter_intervals needs exactly one flag pair per interval."""


@dataclass(frozen=True)
class ImpactEvent:
    timestamp: float
    confidence: float

    def __post_init__(self):
        if not (math.isfinite(self.timestamp) and self.timestamp >= 0):
            raise ValueError(f"timestamp must be finite and >= 0, got {self.timestamp}")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")


@dataclass(frozen=True)
class SegmentationParams:
    confidence_threshold: float = 0.5
    max_gap_s: float = 3.0
    min_hits: int = 2
    padding_s: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.confidence_threshold <= 1.0:
            raise ValueError("confidence_threshold must be in [0, 1], "
                             f"got {self.confidence_threshold}")
        if not all(math.isfinite(x) and x >= 0 for x in (self.max_gap_s, self.padding_s)):
            raise ValueError("max_gap_s and padding_s must be finite and >= 0, "
                             f"got {self.max_gap_s} and {self.padding_s}")
        if self.min_hits < 1:
            raise ValueError(f"min_hits must be >= 1, got {self.min_hits}")


@dataclass(frozen=True)
class RallyInterval:
    start: float
    end: float
    hit_count: int

    def __post_init__(self):
        if not self.start < self.end:
            raise ValueError(f"interval start must precede end: "
                             f"[{self.start}, {self.end}]")
        if self.hit_count < 1:
            raise ValueError("hit_count must be >= 1")


def cluster_impacts(events, params: SegmentationParams | None = None) -> list[RallyInterval]:
    """Cluster impact detections into sorted, disjoint rally intervals.

    Input order does not matter.  Interval starts are clamped at zero after
    padding; padded intervals that touch or overlap are merged (their hit
    counts add up).
    """
    params = params or SegmentationParams()
    kept = sorted(e.timestamp for e in events
                  if e.confidence >= params.confidence_threshold)

    groups: list[list[float]] = []
    for t in kept:
        if groups and t - groups[-1][-1] <= params.max_gap_s:
            groups[-1].append(t)
        else:
            groups.append([t])

    intervals = []
    for members in groups:
        if len(members) < params.min_hits:
            continue
        start = max(0.0, members[0] - params.padding_s)
        end = members[-1] + params.padding_s
        if not start < end:
            continue  # zero padding around a lone hit has no temporal extent
        intervals.append((start, end, len(members)))

    merged: list[RallyInterval] = []
    for start, end, hits in intervals:
        if merged and start <= merged[-1].end:
            last = merged[-1]
            merged[-1] = RallyInterval(start=last.start,
                                       end=max(last.end, end),
                                       hit_count=last.hit_count + hits)
        else:
            merged.append(RallyInterval(start=start, end=end, hit_count=hits))
    return merged


def filter_intervals(intervals, view_flags) -> list[RallyInterval]:
    """Keep intervals whose (broadcast-view, scoreboard-visible) flags are
    both true; order is preserved."""
    intervals = list(intervals)
    view_flags = list(view_flags)
    if len(intervals) != len(view_flags):
        raise FlagCountMismatch(
            f"{len(intervals)} intervals but {len(view_flags)} flag pairs")
    kept = []
    for interval, (broadcast_view, scoreboard_visible) in zip(intervals, view_flags):
        if broadcast_view and scoreboard_visible:
            kept.append(interval)
    return kept
