"""Scoring state machine and scoreboard parsing tests."""

import random

import pytest

from courtside.match_model import (
    AD,
    AmbiguousServer,
    IllegalToken,
    MatchScore,
    PLAYER_1,
    PLAYER_2,
    RowLengthMismatch,
    ScoringConfig,
    InvalidState,
    TerminalState,
    UnknownLayout,
    advance_point,
    is_break_point,
    is_terminal,
    other_player,
    parse_scoreboard,
    render_scoreboard,
    score_summary,
    validate_scoreboard,
)

import oracles

DEFAULT = ScoringConfig()
NO_AD = ScoringConfig(ad_scoring=False)

# Scoring configs checked set by set against oracles.reachable_set_states.
ORACLE_CONFIGS = (
    ScoringConfig(),
    NO_AD,
    ScoringConfig(3, 6, 10, 7, True),
    ScoringConfig(3, 1, 1, 1, True),
    ScoringConfig(3, 1, 7, 10, False),
    ScoringConfig(3, 2, 1, 3, True),
    ScoringConfig(3, 4, 2, 3, False),
    ScoringConfig(3, 3, 7, 7, True),
    ScoringConfig(5, 5, 3, 10, False),
    ScoringConfig(5, 8, 10, 10, True),
    ScoringConfig(3, 2, 2, 2, False),
    ScoringConfig(5, 6, 5, 1, True),
)


def config_id(c):
    return (f"bo{c.best_of}-t{c.set_trigger_games}-tb{c.tiebreak_points}-"
            f"{c.final_set_tiebreak_points}-{'ad' if c.ad_scoring else 'noad'}")


def fresh(server=PLAYER_1, config=DEFAULT):
    return MatchScore(server=server, config=config)


def play(score, *winners):
    for w in winners:
        score = advance_point(score, w)
    return score


def win_game(score, player):
    start_games = score.games
    while score.games == start_games and not score.in_tiebreak:
        score = advance_point(score, player)
    return score


class TestAdvancePoint:
    def test_first_point_of_game(self):
        s = advance_point(fresh(), PLAYER_1)
        assert s.points == ("15", "0")
        assert s.server == PLAYER_1

    def test_ladder_progression(self):
        s = play(fresh(), PLAYER_1, PLAYER_1, PLAYER_1)
        assert s.points == ("40", "0")

    def test_game_win_resets_and_swaps_server(self):
        s = play(fresh(), *[PLAYER_1] * 4)
        assert s.games == (1, 0)
        assert s.points == ("0", "0")
        assert s.server == PLAYER_2

    def test_deuce_then_advantage(self):
        s = play(fresh(), *([PLAYER_1] * 3 + [PLAYER_2] * 3))
        assert s.points == ("40", "40")
        s = advance_point(s, PLAYER_2)
        assert s.points == ("40", AD)

    def test_advantage_lost_returns_to_deuce(self):
        s = play(fresh(), *([PLAYER_1] * 3 + [PLAYER_2] * 4))
        s = advance_point(s, PLAYER_1)
        assert s.points == ("40", "40")

    def test_receiver_converts_advantage(self):
        s = play(fresh(), *([PLAYER_1] * 3 + [PLAYER_2] * 4))
        assert s.points == ("40", AD)
        s = advance_point(s, PLAYER_2)
        assert s.games == (0, 1)
        assert s.points == ("0", "0")
        assert s.server == PLAYER_2

    def test_no_ad_sudden_death(self):
        s = play(fresh(config=NO_AD), *([PLAYER_1] * 3 + [PLAYER_2] * 3))
        assert s.points == ("40", "40")
        s = advance_point(s, PLAYER_2)
        assert s.games == (0, 1)

    def test_set_win_at_six_four(self):
        s = fresh()
        for _ in range(4):
            s = win_game(s, PLAYER_1)
            s = win_game(s, PLAYER_2)
        s = win_game(s, PLAYER_1)
        s = win_game(s, PLAYER_1)
        assert s.completed_sets == ((6, 4),)
        assert s.games == (0, 0)

    def test_no_set_at_six_five(self):
        s = fresh()
        for _ in range(5):
            s = win_game(s, PLAYER_1)
            s = win_game(s, PLAYER_2)
        s = win_game(s, PLAYER_1)
        assert s.completed_sets == ()
        assert s.games == (6, 5)

    def test_tiebreak_entry_and_integer_points(self):
        s = fresh()
        for _ in range(6):
            s = win_game(s, PLAYER_1)
            s = win_game(s, PLAYER_2)
        assert s.in_tiebreak
        assert s.points == (0, 0)
        assert s.games == (6, 6)

    def test_tiebreak_no_two_point_margin_continues(self):
        s = _tiebreak_at(6, 6)
        s = advance_point(s, PLAYER_1)
        assert s.in_tiebreak
        assert s.points == (7, 6)

    def test_tiebreak_win_closes_set_seven_six(self):
        s = _tiebreak_at(6, 5)
        s = advance_point(s, PLAYER_1)
        assert not s.in_tiebreak
        assert s.completed_sets[-1] == (7, 6)
        assert s.games == (0, 0)

    def test_terminal_state_raises(self):
        s = MatchScore(completed_sets=((6, 0), (6, 0)))
        with pytest.raises(TerminalState):
            advance_point(s, PLAYER_1)

    def test_final_set_uses_ten_point_target(self):
        s = MatchScore(completed_sets=((6, 0), (0, 6)), games=(6, 6),
                       points=(7, 5))
        s = advance_point(s, PLAYER_1)
        assert s.in_tiebreak  # 8-5 is short of the 10-point target
        assert s.points == (8, 5)

    def test_game_transitions_match_count_oracle(self):
        for ad in (True, False):
            config = DEFAULT if ad else NO_AD
            for disp, winner, expected in oracles.enumerate_game_transitions(ad):
                s = MatchScore(points=disp, config=config)
                nxt = advance_point(s, PLAYER_1 if winner == 0 else PLAYER_2)
                if expected == "GAME":
                    assert nxt.games != (0, 0), (disp, winner)
                else:
                    assert nxt.points == expected, (disp, winner)

    @pytest.mark.parametrize("score, winner, error, message", [
        (MatchScore(points=(AD, AD)), PLAYER_1, InvalidState, "both players at AD"),
        (MatchScore(points=("0", "50")), PLAYER_1, InvalidState, "illegal point value"),
        (MatchScore(games=(-1, 0)), PLAYER_2, InvalidState,
         "games must be non-negative integers"),
        (MatchScore(games=(6, 6), points=(-1, 0)), PLAYER_1,
         InvalidState, "tiebreak points must be non-negative integers"),
        (MatchScore(games=(6, 6), points=(1.5, 0)), PLAYER_2,
         InvalidState, "tiebreak points must be non-negative integers"),
        (MatchScore(completed_sets=((6, 0), (6, 0))), PLAYER_1, TerminalState,
         "already decided"),
        # the winner id is checked before the state
        (MatchScore(points=(AD, AD)), "player_3", ValueError, "unknown player id"),
        (MatchScore(completed_sets=((6, 0), (6, 0))), "", ValueError,
         "unknown player id"),
        # the states validate_scoreboard rejects on structure alone; the
        # games decide the tiebreak, so ladder points at 6-6 are not a game
        (MatchScore(games=(6, 6)), PLAYER_1, InvalidState,
         "tiebreak points must be non-negative integers"),
        (MatchScore(games=(9, 0)), PLAYER_1, InvalidState, "exceed trigger"),
        (MatchScore(points=(AD, "15")), PLAYER_1, InvalidState,
         "AD with opponent at '15'"),
        (MatchScore(server="nobody"), PLAYER_2, InvalidState, "unknown server"),
        # a bool is not a tiebreak point, though it compares as 0 or 1
        (MatchScore(games=(6, 6), points=(True, False)), PLAYER_1, InvalidState,
         "tiebreak points must be non-negative integers"),
    ])
    def test_guards(self, score, winner, error, message):
        with pytest.raises(ValueError, match=message) as raised:
            advance_point(score, winner)
        assert type(raised.value) is error

    @pytest.mark.parametrize("config", ORACLE_CONFIGS, ids=config_id)
    def test_reach_over_one_set_matches_oracle(self, config):
        """From 0-0 with either server, in the first and the deciding set,
        the live states ``advance_point`` reaches are the oracle's, and each
        set it closes is a finished set won by the point's winner."""
        trigger = config.set_trigger_games
        split = ((trigger + 1, trigger), (trigger, trigger + 1)) * (config.best_of // 2)
        for sets, target in (((), config.tiebreak_points),
                             (split, config.final_set_tiebreak_points)):
            frontier = [MatchScore(sets, server=server, config=config)
                        for server in (PLAYER_1, PLAYER_2)]
            seen = {(s.games, False, s.points, s.server) for s in frontier}
            while frontier:
                score = frontier.pop()
                for winner in (PLAYER_1, PLAYER_2):
                    after = advance_point(score, winner)
                    if len(after.completed_sets) > len(sets):
                        a, b = after.completed_sets[-1]
                        assert oracles.set_over(a, b, trigger)
                        assert (a > b) == (winner == PLAYER_1)
                        continue
                    pts = after.points
                    if after.in_tiebreak:
                        # fold the win-by-two cycle as the oracle does
                        while min(pts) > target:
                            pts = (pts[0] - 1, pts[1] - 1)
                    state = (after.games, after.in_tiebreak, pts, after.server)
                    if state not in seen:
                        seen.add(state)
                        frontier.append(after)
            live = {state[:3] for state in seen}
            assert live == oracles.reachable_set_states(trigger, target,
                                                        config.ad_scoring)


def _tiebreak_at(a, b, config=DEFAULT):
    s = MatchScore(games=(6, 6), points=(0, 0), config=config)
    order = [PLAYER_1] * a + [PLAYER_2] * b
    # interleave to keep both sides short of the target mid-way
    mixed = []
    for i in range(max(a, b)):
        if i < a:
            mixed.append(PLAYER_1)
        if i < b:
            mixed.append(PLAYER_2)
    return play(s, *mixed)


class TestServerRotation:
    def test_server_constant_within_game(self):
        s = fresh()
        for _ in range(3):
            s = advance_point(s, PLAYER_1)
            assert s.server == PLAYER_1

    def test_server_alternates_across_games(self):
        s = fresh()
        servers = [s.server]
        for _ in range(5):
            s = win_game(s, PLAYER_1)
            servers.append(s.server)
        assert servers == [PLAYER_1, PLAYER_2, PLAYER_1, PLAYER_2, PLAYER_1, PLAYER_2]

    def test_tiebreak_one_then_two_each(self):
        s = _tiebreak_at(0, 0)
        first = s.server
        seen = []
        rng = random.Random(7)
        for _ in range(12):
            seen.append(s.server)
            s = advance_point(s, rng.choice([PLAYER_1, PLAYER_2]))
            if not s.in_tiebreak:
                break
        expected = []
        for k in range(len(seen)):
            expected.append(first if ((k + 1) // 2) % 2 == 0 else other_player(first))
        assert seen == expected

    def test_set_after_tiebreak_server_is_opponent_of_tb_first(self):
        s = _tiebreak_at(0, 0)
        first = s.server
        s = play(s, *[PLAYER_1] * 7)
        assert s.completed_sets[-1] == (7, 6)
        assert s.server == other_player(first)


class TestBreakAndTerminal:
    def test_returner_at_game_point(self):
        s = MatchScore(points=("30", "40"), server=PLAYER_1)
        assert is_break_point(s)

    def test_deuce_is_not_break_point(self):
        s = MatchScore(points=("40", "40"), server=PLAYER_1)
        assert not is_break_point(s)

    def test_returner_advantage_is_break_point(self):
        s = MatchScore(points=("40", AD), server=PLAYER_1)
        assert is_break_point(s)
        # oracle: the returner's next point must close the game
        nxt = advance_point(s, PLAYER_2)
        assert nxt.games == (0, 1)

    def test_no_ad_deciding_point_is_not_break_point(self):
        s = MatchScore(points=("40", "40"), server=PLAYER_1, config=NO_AD)
        assert not is_break_point(s)
        # although the returner's point there decides the game
        assert advance_point(s, PLAYER_2).games == (0, 1)

    def test_server_advantage_is_not(self):
        s = MatchScore(points=(AD, "40"), server=PLAYER_1)
        assert not is_break_point(s)

    def test_break_point_means_returner_point_breaks(self):
        rng = random.Random(3)
        s = fresh()
        for _ in range(4000):
            if is_terminal(s):
                break
            if is_break_point(s):
                nxt = advance_point(s, s.returner)
                total = lambda sc, i: sum(p[i] for p in sc.completed_sets) + sc.games[i]
                idx = 0 if s.returner == PLAYER_1 else 1
                assert total(nxt, idx) == total(s, idx) + 1
            s = advance_point(s, rng.choice([PLAYER_1, PLAYER_2]))

    def test_terminal_majority(self):
        assert is_terminal(MatchScore(completed_sets=((6, 0), (6, 1)))) == PLAYER_1
        assert is_terminal(fresh()) is None
        bo5 = ScoringConfig(best_of=5)
        split = MatchScore(completed_sets=((6, 0), (0, 6), (6, 0), (0, 6)), config=bo5)
        assert is_terminal(split) is None


class TestValidation:
    def test_fresh_match_valid(self):
        assert not validate_scoreboard(fresh())

    def test_double_advantage_flagged(self):
        report = validate_scoreboard(MatchScore(points=(AD, AD)))
        assert report
        assert any("both players at AD" in v for v in report)

    def test_unreachable_games_flagged(self):
        report = validate_scoreboard(MatchScore(games=(8, 2)))
        assert report

    def test_finished_set_as_current_games_flagged(self):
        report = validate_scoreboard(MatchScore(games=(6, 1)))
        assert report

    def test_ad_without_forty_flagged(self):
        report = validate_scoreboard(MatchScore(points=(AD, "30")))
        assert report

    def test_invalid_completed_set(self):
        report = validate_scoreboard(MatchScore(completed_sets=((6, 5),)))
        assert report

    def test_play_after_clinch_flagged(self):
        report = validate_scoreboard(
            MatchScore(completed_sets=((6, 0), (6, 0), (0, 6))))
        assert report

    def test_play_after_player_2_clinch_flagged(self):
        report = validate_scoreboard(
            MatchScore(completed_sets=((0, 6), (0, 6), (6, 0))))
        assert report == ("set 3 played after the match was decided",)

    @pytest.mark.parametrize("games, points", [
        ((1, 0), ("0", "0")),
        ((0, 0), ("15", "0")),
    ], ids=["games_only", "points_only"])
    def test_live_play_on_a_decided_match_flagged(self, games, points):
        score = MatchScore(completed_sets=((6, 0), (6, 0)), games=games, points=points)
        assert validate_scoreboard(score) == ("live games/points on a decided match",)

    @pytest.mark.parametrize("score, message", [
        (MatchScore(games=(True, False)),
         "games must be non-negative integers: (True, False)"),
        (MatchScore(games=(6.0, 2)),
         "games must be non-negative integers: (6.0, 2)"),
        (MatchScore(completed_sets=((6.0, 0),)),
         "set 1 result (6.0, 0) violates set-winning rules"),
        (MatchScore(completed_sets=((2, True),), config=ScoringConfig(3, 1, 7, 10, True)),
         "set 1 result (2, True) violates set-winning rules"),
    ], ids=["bool_games", "float_games", "float_set", "bool_set_trigger_1"])
    def test_a_count_is_an_int_exactly(self, score, message):
        assert validate_scoreboard(score) == (message,)

    def test_largest_format_validates(self):
        # trigger 99 and tiebreak target 99, where simulating a match is too slow
        config = ScoringConfig(3, 99, 99, 99, True)
        assert not validate_scoreboard(
            MatchScore(completed_sets=((100, 99),), games=(99, 99), points=(98, 97),
                       config=config))
        assert validate_scoreboard(
            MatchScore(games=(99, 99), points=(99, 97), config=config))
        with pytest.raises(ValueError, match="tiebreak targets must be in 1..99"):
            ScoringConfig(3, 99, 100, 99, True)

    def test_long_tiebreak_validates_in_constant_time(self):
        score = MatchScore(games=(6, 6), points=(10**15, 10**15 + 1))
        assert not validate_scoreboard(score)

    @pytest.mark.parametrize("config", ORACLE_CONFIGS, ids=config_id)
    def test_rule_matches_bfs_oracle(self, config):
        """In the first and the deciding set, a board passes exactly when the
        oracle's search reaches its games and points: every game pair to
        trigger+2 with every ladder or AD pair, and, at trigger-all, every
        tiebreak pair to target+3 (elsewhere only integer points 0-0)."""
        trigger = config.set_trigger_games
        split = ((trigger + 1, trigger), (trigger, trigger + 1)) * (config.best_of // 2)
        ladder = oracles.LADDER + (AD,)
        standard = [(a, b) for a in ladder for b in ladder]
        for sets, target in (((), config.tiebreak_points),
                             (split, config.final_set_tiebreak_points)):
            oracle = oracles.reachable_set_states(trigger, target, config.ad_scoring)
            tiebreak = [(a, b) for a in range(target + 4) for b in range(target + 4)]
            passed, wrong = set(), []
            for games in ((a, b) for a in range(trigger + 3) for b in range(trigger + 3)):
                integer = tiebreak if games == (trigger, trigger) else [(0, 0)]
                for pts in standard + integer:
                    score = MatchScore(sets, games, pts, PLAYER_1, config)
                    if pts in integer:
                        # fold the win-by-two cycle as the oracle does
                        while min(pts) > target:
                            pts = (pts[0] - 1, pts[1] - 1)
                    state = (games, score.in_tiebreak, pts)
                    ok = not validate_scoreboard(score)
                    if ok != (state in oracle):
                        wrong.append(score_summary(score))
                    if ok:
                        passed.add(state)
            assert wrong == []
            assert passed == oracle

    def test_advance_preserves_validity(self):
        rng = random.Random(11)
        for config in (DEFAULT, ScoringConfig(best_of=5), NO_AD):
            s = fresh(config=config)
            for _ in range(2500):
                if is_terminal(s):
                    break
                s = advance_point(s, rng.choice([PLAYER_1, PLAYER_2]))
                assert not validate_scoreboard(s), score_summary(s)

    def test_random_matches_terminate(self):
        rng = random.Random(5)
        for _ in range(20):
            s = fresh()
            for _ in range(3000):
                if is_terminal(s):
                    break
                s = advance_point(s, rng.choice([PLAYER_1, PLAYER_2]))
            assert is_terminal(s) is not None


class TestSummaryRoundTrip:
    """``score_summary`` is lossless: no two states share a summary."""

    def test_fresh_canonical_form(self):
        assert score_summary(fresh()) == "0-0, 0-0, 0:0, server player_1"

    def test_random_walk_summaries_are_distinct(self):
        rng = random.Random(23)
        s = fresh()
        by_summary = {score_summary(s): s}
        for _ in range(2000):
            if is_terminal(s):
                s = fresh()
            s = advance_point(s, rng.choice([PLAYER_1, PLAYER_2]))
            assert by_summary.setdefault(score_summary(s), s) == s
        # the walk reaches tiebreak and advantage states
        assert any(" TB," in text for text in by_summary)
        assert any(":AD," in text for text in by_summary)


AO_EXAMPLE = {
    "Alice": ["6", "1", "1", ""],
    "Bob": ["4", "6", "2", "AD"],
    "server": "Bob",
}
RG_EXAMPLE = {
    "Alice": ["6", "1", "40"],
    "Bob": ["4", "6", "AD"],
    "server": "Alice",
}
WIMBLEDON_VISIBLE = {
    "Alice": ["1", "2", "15"],
    "Bob": ["1", "2", "30"],
    "server": "Alice",
}
WIMBLEDON_HIDDEN = {
    "Alice": ["0", "2"],
    "Bob": ["1", "2"],
    "server": "Alice",
}


class TestScoreboardParsing:
    def test_ao_uso_ad_fill(self):
        raw = oracles.board("AO_USO", AO_EXAMPLE)
        score = parse_scoreboard(*raw)
        assert score.completed_sets == ((6, 4), (1, 6))
        assert score.games == (1, 2)
        assert score.points == ("40", AD)
        assert score.server == PLAYER_2
        rendered = render_scoreboard(score, "AO_USO", ("Alice", "Bob"))
        assert rendered == {
            "Alice": ["6", "1", "1", "40"],
            "Bob": ["4", "6", "2", "AD"],
            "server": "Bob",
        }

    def test_ad_fill_on_the_bottom_row(self):
        raw = oracles.board(
            "AO_USO", {"A": ["6", "3", "AD"], "B": ["4", "2", ""], "server": "A"})
        score = parse_scoreboard(*raw)
        assert (score.games, score.points) == ((3, 2), (AD, "40"))

    def test_rg_server_from_slash_row(self):
        raw = oracles.board("RG", RG_EXAMPLE)
        score = parse_scoreboard(*raw)
        assert score.server == PLAYER_1
        assert score.points == ("40", AD)
        rendered = render_scoreboard(score, "RG", ("Alice", "Bob"))
        assert rendered == {
            "Alice": ["6", "1", "40"],
            "Bob": ["4", "6", "AD"],
            "server": "Alice",
        }

    def test_wimbledon_points_visible(self):
        score = parse_scoreboard(*oracles.board("WIMBLEDON", WIMBLEDON_VISIBLE))
        assert score.sets_won() == (1, 1)
        assert score.games == (2, 2)
        assert score.points == ("15", "30")
        assert score.server == PLAYER_1
        rendered = render_scoreboard(score, "WIMBLEDON", ("Alice", "Bob"))
        assert rendered == {
            "Alice": ["1", "2", "15"],
            "Bob": ["1", "2", "30"],
            "server": "Alice",
        }

    def test_wimbledon_hidden_points_column(self):
        score = parse_scoreboard(*oracles.board("WIMBLEDON", WIMBLEDON_HIDDEN))
        assert score.sets_won() == (0, 1)
        assert score.games == (2, 2)
        assert score.points == ("0", "0")
        assert score.server == PLAYER_1
        rendered = render_scoreboard(score, "WIMBLEDON", ("Alice", "Bob"))
        assert rendered == {
            "Alice": ["0", "2", "0"],
            "Bob": ["1", "2", "0"],
            "server": "Alice",
        }

    def test_tiebreak_columns_parse_as_integers(self):
        raw = oracles.board(
            "AO_USO", {"A": ["6", "5"], "B": ["6", "3"], "server": "A"})
        score = parse_scoreboard(*raw)
        assert score.in_tiebreak
        assert score.points == (5, 3)

    def test_trigger_trigger_is_always_a_tiebreak(self):
        raw = oracles.board(
            "AO_USO", {"A": ["6", "0"], "B": ["6", "0"], "server": "A"})
        score = parse_scoreboard(*raw)
        assert score.in_tiebreak
        assert score.points == (0, 0)
        assert not validate_scoreboard(score)

    def test_unknown_layout(self):
        with pytest.raises(UnknownLayout):
            parse_scoreboard("ATP_FINALS", (("0", "0"), ("0", "0")), 0)

    def test_row_length_mismatch(self):
        raw = oracles.board(
            "AO_USO", {"A": ["6", "1", "0"], "B": ["4", "0"], "server": "A"})
        with pytest.raises(RowLengthMismatch):
            parse_scoreboard(*raw)

    def test_illegal_token(self):
        raw = oracles.board(
            "AO_USO", {"A": ["6", "love"], "B": ["4", "15"], "server": "A"})
        with pytest.raises(IllegalToken):
            parse_scoreboard(*raw)

    def test_missing_server_is_ambiguous(self):
        raw = oracles.board(
            "AO_USO", {"A": ["1", "0"], "B": ["2", "15"], "server": "Carol"})
        with pytest.raises(AmbiguousServer):
            parse_scoreboard(*raw)

    def test_finished_match_board_synthesizes_valid_set_order(self):
        from courtside.match_model import synthesize_completed_sets
        # a 2-1 board in best-of-3 must not read as play past the clinch
        assert synthesize_completed_sets(2, 1, 6) == ((6, 0), (0, 6), (6, 0))
        raw = oracles.board(
            "WIMBLEDON", {"A": ["2", "0", "0"], "B": ["1", "0", "0"],
                          "server": "A"})
        score = parse_scoreboard(*raw)
        assert is_terminal(score) == PLAYER_1
        assert not validate_scoreboard(score)

    def test_wimbledon_sets_beyond_best_of_rejected(self):
        # sets won are expanded into one synthetic set each, so a count past
        # the format is refused before anything is built from it
        raw = oracles.board(
            "WIMBLEDON", {"A": ["2", "0", "0"], "B": ["2", "0", "0"],
                          "server": "A"})
        with pytest.raises(IllegalToken, match="best-of-3"):
            parse_scoreboard(*raw)

    def test_tournament_example_summaries(self):
        for layout, obj, summary in (
                ("AO_USO", AO_EXAMPLE, "6-4 1-6, 1-2, 40:AD, server player_2"),
                ("RG", RG_EXAMPLE, "6-4, 1-6, 40:AD, server player_1"),
                ("WIMBLEDON", WIMBLEDON_VISIBLE,
                 "6-0 0-6, 2-2, 15:30, server player_1"),
                ("WIMBLEDON", WIMBLEDON_HIDDEN,
                 "0-6, 2-2, 0:0, server player_1")):
            score = parse_scoreboard(*oracles.board(layout, obj))
            assert score_summary(score) == summary

    def test_empty_rows(self):
        with pytest.raises(RowLengthMismatch, match="empty scoreboard rows"):
            parse_scoreboard("AO_USO", ((), ()), 0)

    def test_wimbledon_row_of_four_columns(self):
        raw = oracles.board(
            "WIMBLEDON", {"A": ["0", "1", "2", "0"], "B": ["0", "1", "2", "0"],
                          "server": "A"})
        with pytest.raises(RowLengthMismatch, match="must have 3 columns .* got 4"):
            parse_scoreboard(*raw)

    def test_rg_row_of_one_column(self):
        raw = oracles.board("RG", {"A": ["0"], "B": ["0"], "server": "A"})
        with pytest.raises(RowLengthMismatch, match="need at least games and points"):
            parse_scoreboard(*raw)

    def test_render_unknown_layout(self):
        with pytest.raises(UnknownLayout, match="unknown scoreboard layout: 'US'"):
            render_scoreboard(MatchScore(), "US", ("Alice", "Bob"))

    # a board is keyed by name and keeps the server's name under "server", so
    # either collision would drop a row
    @pytest.mark.parametrize("layout", ["AO_USO", "RG", "WIMBLEDON"])
    @pytest.mark.parametrize("names, message", [
        (("server", "Bob"), "no player may be named 'server'"),
        (("Alice", "server"), "no player may be named 'server'"),
        (("Ann", "Ann"), "both players are named 'Ann'"),
    ], ids=["server_first", "server_second", "same_name"])
    def test_render_refuses_colliding_names(self, layout, names, message):
        with pytest.raises(ValueError, match=message):
            render_scoreboard(MatchScore(), layout, names)
