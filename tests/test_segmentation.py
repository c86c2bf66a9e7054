"""Impact clustering and interval filtering tests."""

import random

import pytest

from courtside.segmentation import (
    FlagCountMismatch,
    ImpactEvent,
    RallyInterval,
    SegmentationParams,
    cluster_impacts,
    filter_intervals,
)

import oracles


def events_at(times, conf=0.9):
    return [ImpactEvent(timestamp=t, confidence=conf) for t in times]


class TestClusterImpacts:
    def test_empty_input(self):
        assert cluster_impacts([]) == []

    def test_two_groups_with_padding(self):
        events = events_at([10.0, 10.8, 11.5]) + events_at([20.0, 20.6])
        got = cluster_impacts(events, SegmentationParams(max_gap_s=3.0,
                                                         padding_s=1.0))
        assert got == [RallyInterval(9.0, 12.5, 3), RallyInterval(19.0, 21.6, 2)]

    def test_single_hit_dropped_by_min_hits(self):
        got = cluster_impacts(events_at([5.0]), SegmentationParams(min_hits=2))
        assert got == []

    def test_low_confidence_dropped(self):
        events = events_at([1.0, 1.5], conf=0.4) + events_at([8.0, 8.5], conf=0.9)
        got = cluster_impacts(events, SegmentationParams(confidence_threshold=0.5))
        assert got == [RallyInterval(7.0, 9.5, 2)]

    def test_unsorted_input_accepted(self):
        events = events_at([11.5, 10.0, 20.6, 10.8, 20.0])
        sorted_events = events_at([10.0, 10.8, 11.5, 20.0, 20.6])
        assert cluster_impacts(events) == cluster_impacts(sorted_events)

    def test_padding_clamped_at_zero(self):
        got = cluster_impacts(events_at([0.2, 0.8]),
                              SegmentationParams(padding_s=1.0))
        assert got == [RallyInterval(0.0, 1.8, 2)]

    def test_overlapping_padded_intervals_merged(self):
        # two clusters separated by 3.5 s with gap limit 3, padding 2 overlaps
        events = events_at([10.0, 10.5]) + events_at([14.0, 14.5])
        got = cluster_impacts(events, SegmentationParams(max_gap_s=3.0,
                                                         padding_s=2.0))
        assert got == [RallyInterval(8.0, 16.5, 4)]

    def test_matches_brute_force_closure_on_random_streams(self):
        rng = random.Random(7)
        for _ in range(1000):
            n = rng.randint(0, 40)
            events = [ImpactEvent(timestamp=round(rng.uniform(0, 120), 3),
                                  confidence=round(rng.random(), 3))
                      for _ in range(n)]
            params = SegmentationParams(
                confidence_threshold=round(rng.uniform(0.0, 0.9), 2),
                max_gap_s=round(rng.uniform(0.1, 6.0), 2),
                min_hits=rng.randint(1, 4),
                padding_s=round(rng.uniform(0.0, 2.5), 2),
            )
            got = [(i.start, i.end, i.hit_count)
                   for i in cluster_impacts(events, params)]
            expected = oracles.brute_force_clusters(
                [(e.timestamp, e.confidence) for e in events],
                params.confidence_threshold, params.max_gap_s,
                params.min_hits, params.padding_s)
            assert got == pytest.approx(expected)

    def test_output_sorted_disjoint_and_gap_bounded(self):
        rng = random.Random(3)
        events = [ImpactEvent(timestamp=round(rng.uniform(0, 300), 2),
                              confidence=round(rng.random(), 2))
                  for _ in range(200)]
        params = SegmentationParams()
        intervals = cluster_impacts(events, params)
        for a, b in zip(intervals, intervals[1:]):
            assert a.end < b.start
        kept = sorted(e.timestamp for e in events
                      if e.confidence >= params.confidence_threshold)
        for interval in intervals:
            inside = [t for t in kept
                      if interval.start <= t <= interval.end]
            assert len(inside) >= interval.hit_count >= params.min_hits
            for t1, t2 in zip(inside, inside[1:]):
                assert t2 - t1 <= params.max_gap_s + 2 * params.padding_s

    def test_threshold_monotonicity(self):
        rng = random.Random(11)
        events = [ImpactEvent(timestamp=round(rng.uniform(0, 60), 2),
                              confidence=round(rng.random(), 2))
                  for _ in range(100)]
        kept_counts = []
        for threshold in (0.1, 0.3, 0.5, 0.7, 0.9):
            kept_counts.append(sum(
                1 for e in events if e.confidence >= threshold))
        assert kept_counts == sorted(kept_counts, reverse=True)

    def test_min_hits_monotonicity(self):
        rng = random.Random(19)
        events = [ImpactEvent(timestamp=round(rng.uniform(0, 60), 2),
                              confidence=round(rng.random(), 2))
                  for _ in range(120)]
        counts = []
        for min_hits in (1, 2, 3, 4, 5):
            params = SegmentationParams(min_hits=min_hits)
            counts.append(len(cluster_impacts(events, params)))
        assert counts == sorted(counts, reverse=True)


class TestNonFiniteRejected:
    @pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf")])
    def test_impact_timestamp(self, t):
        with pytest.raises(ValueError, match="timestamp must be finite"):
            ImpactEvent(timestamp=t, confidence=0.9)

    @pytest.mark.parametrize("field", ["max_gap_s", "padding_s"])
    @pytest.mark.parametrize("x", [float("nan"), float("inf")])
    def test_gap_and_padding(self, field, x):
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            SegmentationParams(**{field: x})

    def test_threshold(self):
        with pytest.raises(ValueError, match="confidence_threshold"):
            SegmentationParams(confidence_threshold=float("nan"))


class TestRallyInterval:
    def test_start_must_precede_end(self):
        with pytest.raises(ValueError,
                           match=r"interval start must precede end: \[2.0, 1.0\]"):
            RallyInterval(2.0, 1.0, 1)

    def test_needs_a_hit(self):
        with pytest.raises(ValueError, match="hit_count must be >= 1"):
            RallyInterval(0.0, 1.0, 0)


class TestFilterIntervals:
    INTERVALS = [RallyInterval(0.0, 5.0, 3), RallyInterval(8.0, 12.0, 4),
                 RallyInterval(15.0, 18.0, 2)]

    def test_all_true_is_identity(self):
        flags = [(True, True)] * 3
        assert filter_intervals(self.INTERVALS, flags) == self.INTERVALS

    def test_all_false_is_empty(self):
        flags = [(False, False)] * 3
        assert filter_intervals(self.INTERVALS, flags) == []

    def test_mixed_keeps_true_true_subset_in_order(self):
        flags = [(True, False), (True, True), (False, True)]
        assert filter_intervals(self.INTERVALS, flags) == [self.INTERVALS[1]]

    def test_flag_count_mismatch(self):
        with pytest.raises(FlagCountMismatch):
            filter_intervals(self.INTERVALS, [(True, True)])
