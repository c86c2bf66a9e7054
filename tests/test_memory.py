"""Short-term window, consolidation and snapshot bookkeeping tests."""

import pytest

from courtside.event_stream import COUNT_FIELDS, STAT_WIDTH
from courtside.match_model import advance_point
from courtside.memory import (
    RATIO_FIELDS,
    LongTermMemory,
    MatchMemory,
    MemoryEntry,
    OutOfOrderEntry,
    PlayerStatLine,
    consolidate,
    ratios,
)
from courtside.simulate import simulate_match

P1, P2 = "player_1", "player_2"


def entries_for(records):
    return [MemoryEntry(rally_index=i, metadata=r,
                        commentary=f"c{i}") for i, r in enumerate(records)]


@pytest.fixture(scope="module")
def match_records():
    return simulate_match(seed=101)


class TestPushRally:
    def test_push_into_empty(self, match_records):
        memory = MatchMemory(capacity=4)
        e = entries_for(match_records[:1])[0]
        assert memory.observe(e) is None
        assert memory.short == [e]

    def test_fifo_eviction_at_capacity(self, match_records):
        entries = entries_for(match_records[:5])
        memory = MatchMemory(capacity=4)
        for e in entries[:4]:
            assert memory.observe(e) is None
        assert memory.observe(entries[4]) == entries[0]
        assert memory.short == entries[1:5]
        assert memory.long.rallies_consolidated == 1

    def test_out_of_order_rejected(self, match_records):
        entries = entries_for(match_records[:6])
        memory = MatchMemory(capacity=4)
        memory.observe(entries[5])
        with pytest.raises(OutOfOrderEntry, match="rally index 3 does not "
                                                  "exceed stored 5"):
            memory.observe(entries[3])

    def test_negative_rally_index_rejected(self, match_records):
        with pytest.raises(ValueError, match="rally_index must be non-negative"):
            MemoryEntry(-1, match_records[0], None)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity must be >= 1"):
            MatchMemory(capacity=0)


class TestConsolidate:
    def test_ace_rally_increments(self, match_records):
        ace = next(r for r in match_records if r.outcome.reason == "ace")
        long = LongTermMemory()
        consolidate(long, ace)
        server_idx = 0 if ace.shots[0].hitter == P1 else 1
        line = long.stat_lines[server_idx]
        other = long.stat_lines[1 - server_idx]
        assert line.aces == 1
        assert line.serve_points == 1
        assert line.serve_points_won == 1
        assert line.points_won == 1
        assert other.return_points == 1
        assert other.points_won == 0
        assert long.rallies_consolidated == 1

    def test_percentages_absent_before_any_serve(self):
        assert ratios([0] * STAT_WIDTH) == [None, None, None]
        report = LongTermMemory().report()
        for pid in (P1, P2):
            assert [report[pid][name] for name in RATIO_FIELDS] == [None] * 3

    def test_first_serve_pct_exact(self):
        long = LongTermMemory()
        long.counts[COUNT_FIELDS.index("serve_points")] = 8
        long.counts[COUNT_FIELDS.index("first_serves_in")] = 5
        assert ratios(long.stat_lines[0]) == [5 / 8, 0.0, None]
        line = long.report()[P1]
        assert [line[name] for name in RATIO_FIELDS] == [5 / 8, 0.0, None]

    def test_sequential_equals_batch_recount(self, match_records):
        long = LongTermMemory()
        for rally in match_records:
            consolidate(long, rally)
        expected = _recount_stats(match_records)
        for idx, pid in enumerate((P1, P2)):
            got = long.stat_lines[idx]
            for field_name, value in expected[pid].items():
                assert getattr(got, field_name) == value, (pid, field_name)
        assert long.rallies_consolidated == len(match_records)
        total_points = sum(line.points_won for line in long.stat_lines)
        assert total_points == long.rallies_consolidated

    def test_bounds_hold_after_every_step(self, match_records):
        long = LongTermMemory()
        for rally in match_records:
            consolidate(long, rally)
            for line in long.stat_lines:
                assert all(value >= 0 for value in line)
                assert line.first_serves_in <= line.serve_points
                assert line.serve_points_won <= line.serve_points
                assert line.return_points_won <= line.return_points
                assert line.break_points_saved <= line.break_points_faced

    def test_games_won_matches_score_walk(self, match_records):
        long = LongTermMemory()
        for rally in match_records:
            consolidate(long, rally)
        final = advance_point(match_records[-1].initial_score,
                              match_records[-1].outcome.point_winner)
        for idx in range(2):
            games = sum(pair[idx] for pair in final.completed_sets) + final.games[idx]
            assert long.stat_lines[idx].games_won == games


def _recount_stats(records):
    """One-pass brute-force restatement over the raw rally log."""
    out = {P1: {}, P2: {}}

    def bump(pid, key, by=1):
        out[pid][key] = out[pid].get(key, 0) + by

    for r in records:
        server = r.shots[0].hitter
        returner = P2 if server == P1 else P1
        winner = r.outcome.point_winner
        loser = r.outcome.point_loser
        bump(server, "serve_points")
        bump(returner, "return_points")
        bump(winner, "points_won")
        if winner == server:
            bump(server, "serve_points_won")
        else:
            bump(returner, "return_points_won")
        if any(s.stroke == "serve" and s.serve_attempt == "first"
               and s.outcome in ("in", "winner") for s in r.shots):
            bump(server, "first_serves_in")
        reason = r.outcome.reason
        if reason == "ace":
            bump(server, "aces")
        elif reason == "double_fault":
            bump(server, "double_faults")
        elif reason == "winner":
            bump(winner, "winners")
        elif reason == "unforced_error":
            bump(loser, "unforced_errors")
        elif reason == "forced_error":
            bump(loser, "forced_errors_conceded")
        score = r.initial_score
        if not score.in_tiebreak:
            ret_pts = score.point_of(score.returner)
            srv_pts = score.point_of(score.server)
            if ret_pts == "AD" or (ret_pts == "40" and srv_pts in ("0", "15", "30")):
                bump(server, "break_points_faced")
                if winner == server:
                    bump(server, "break_points_saved")
                else:
                    bump(returner, "break_points_converted")
        for s in r.shots:
            bump(s.hitter, "total_shots")
    return out


class TestSnapshotAndWindow:
    def test_fresh_snapshot_is_empty(self):
        view = MatchMemory().snapshot()
        assert view.recent == ()
        assert view.stat_lines == ((0,) * STAT_WIDTH, (0,) * STAT_WIDTH)
        assert all(type(line) is PlayerStatLine for line in view.stat_lines)

    def test_window_counts_after_six_rallies(self, match_records):
        memory = MatchMemory(capacity=4)
        for entry in entries_for(match_records[:6]):
            memory.observe(entry)
        view = memory.snapshot()
        assert len(view.recent) == 4
        assert view.rallies_consolidated == 2
        # the window holds rallies 2..5, the two oldest are consolidated
        assert view.recent[0].metadata is match_records[2]
        assert view.recent[-1].metadata is match_records[5]

    def test_window_invariant_at_every_step(self, match_records):
        memory = MatchMemory(capacity=4)
        for t, entry in enumerate(entries_for(match_records), start=1):
            memory.observe(entry)
            assert len(memory.short) == min(t, 4)
            assert memory.long.rallies_consolidated == max(0, t - 4)

    def test_every_rally_in_exactly_one_tier(self, match_records):
        memory = MatchMemory(capacity=4)
        for t, entry in enumerate(entries_for(match_records), start=1):
            memory.observe(entry)
            assert len(memory.short) + memory.long.rallies_consolidated == t

    def test_flush_consolidates_tail(self, match_records):
        memory = MatchMemory(capacity=4)
        for entry in entries_for(match_records[:6]):
            memory.observe(entry)
        memory.flush()
        assert len(memory.short) == 0
        assert memory.long.rallies_consolidated == 6

    def test_flush_total_equals_streamed_total(self, match_records):
        streamed = MatchMemory(capacity=4)
        for entry in entries_for(match_records):
            streamed.observe(entry)
        streamed.flush()
        direct = LongTermMemory()
        for rally in match_records:
            consolidate(direct, rally)
        assert streamed.long.stat_lines == direct.stat_lines

    def test_report_shape(self, match_records):
        memory = MatchMemory(capacity=4)
        for entry in entries_for(match_records[:8]):
            memory.observe(entry)
        report = memory.long.report()
        assert set(report) == {"player_1", "player_2", "rallies_consolidated",
                               "last_consolidated_score"}
        assert report["rallies_consolidated"] == 4
        assert isinstance(report["player_1"]["aces"], int)
