"""Rally event validation, outcome derivation, edit score and stat increments."""

import random

import pytest

from courtside.event_stream import (
    COUNT_FIELDS,
    BounceEvent,
    IncompleteRally,
    MatchInfo,
    RallyOutcome,
    RallyRecord,
    STAT_WIDTH,
    SchemaViolation,
    ShotEvent,
    classify_point,
    derive_outcome,
    edit_score,
    parse_clip_id,
    rally_from_json,
    rally_to_json,
    validate_rally,
)
from courtside.match_model import (MatchScore, PlayerRef, TerminalState, advance_point,
                                   other_player)

import oracles

P1, P2 = "player_1", "player_2"

INFO = MatchInfo(
    tournament="Metro Open", round="Final", surface="hard",
    player_1=PlayerRef(name="Alice Moreau", handedness="right"),
    player_2=PlayerRef(name="Bob Keller", handedness="left"),
)


def serve(i, hitter, outcome="in", attempt="first", t=None, technique="flat",
          direction="T"):
    return ShotEvent(index=i, hitter=hitter, stroke="serve", technique=technique,
                     direction=direction, outcome=outcome,
                     timestamp=0.4 * i + 0.1 if t is None else t,
                     serve_attempt=attempt)


def shot(i, hitter, stroke="forehand", outcome="in", technique="topspin",
         direction="cross-court", t=None):
    return ShotEvent(index=i, hitter=hitter, stroke=stroke, technique=technique,
                     direction=direction, outcome=outcome,
                     timestamp=0.4 * i + 0.1 if t is None else t)


def make_rally(shots, score=None, outcome=None, clip_id="m001_10.0_18.0",
               bounces=(), commentary=None):
    if score is None:
        score = MatchScore(server=shots[0].hitter)
    if outcome is None:
        outcome = derive_outcome(shots)
    return RallyRecord(clip_id=clip_id, match_info=INFO, initial_score=score,
                       shots=tuple(shots), outcome=outcome,
                       transcript="crowd settles", bounces=tuple(bounces),
                       commentary=commentary)


class TestClipId:
    def test_parses_match_and_bounds(self):
        assert parse_clip_id("wimb_2023_f_120.5_127.25") == ("wimb_2023_f", 120.5, 127.25)

    def test_rejects_reversed_bounds(self):
        with pytest.raises(ValueError):
            parse_clip_id("m1_9.0_3.0")

    def test_rejects_missing_parts(self):
        with pytest.raises(ValueError):
            parse_clip_id("just-a-name")

    @pytest.mark.parametrize("clip_id", ["m_0_inf", "m_-inf_1", "m_0_Infinity",
                                         "m_1e3_1e309"])
    def test_rejects_non_finite_bounds(self, clip_id):
        with pytest.raises(ValueError, match="boundaries must be finite"):
            parse_clip_id(clip_id)


class TestDeriveOutcome:
    def test_no_shots_is_incomplete(self):
        with pytest.raises(IncompleteRally, match="empty shot sequence"):
            derive_outcome(())

    def test_untouched_winning_serve_is_ace(self):
        out = derive_outcome([serve(0, P1, outcome="winner")])
        assert out == RallyOutcome(P1, P2, "ace")

    def test_return_error_gives_server_the_point(self):
        out = derive_outcome([serve(0, P1), shot(1, P2, outcome="unforced_error")])
        assert out == RallyOutcome(P1, P2, "unforced_error")

    def test_double_fault(self):
        out = derive_outcome([serve(0, P1, outcome="fault"),
                              serve(1, P1, outcome="fault", attempt="second")])
        assert out == RallyOutcome(P2, P1, "double_fault")

    def test_touched_winning_serve_is_service_winner(self):
        out = derive_outcome([serve(0, P1, outcome="winner"),
                              shot(1, P2, outcome="forced_error")])
        assert out == RallyOutcome(P1, P2, "service_winner")

    def test_live_rally_is_incomplete(self):
        with pytest.raises(IncompleteRally):
            derive_outcome([serve(0, P1), shot(1, P2)])

    def test_single_first_fault_is_incomplete(self):
        with pytest.raises(IncompleteRally):
            derive_outcome([serve(0, P1, outcome="fault")])

    def test_six_shot_rally_ending_forced_error(self):
        shots = [serve(0, P1), shot(1, P2), shot(2, P1), shot(3, P2),
                 shot(4, P1), shot(5, P2, outcome="forced_error")]
        assert derive_outcome(shots) == RallyOutcome(P1, P2, "forced_error")

    def test_exhaustive_terminal_combinations_match_rule_table(self):
        cases = []
        for outcome in ("winner", "forced_error", "unforced_error", "net",
                        "fault", "in", "let"):
            for attempt in ("first", "second"):
                cases.append(([
                    serve(0, P1, outcome=outcome, attempt=attempt)
                ] if attempt == "first" else [
                    serve(0, P1, outcome="fault"),
                    serve(1, P1, outcome=outcome, attempt="second"),
                ], "serve", outcome, attempt, False))
            for stroke in ("forehand", "backhand"):
                cases.append(([serve(0, P1), shot(1, P2, stroke=stroke,
                                                  outcome=outcome)],
                              stroke, outcome, None, False))
        cases.append(([serve(0, P1, outcome="winner"),
                       shot(1, P2, outcome="net")],
                      "forehand", "net", None, True))

        for shots, stroke, outcome, attempt, after_winner_serve in cases:
            expected = oracles.outcome_rule_table(stroke, outcome, attempt,
                                                  after_winner_serve)
            hitter = shots[-1].hitter
            if expected == "INVALID":
                with pytest.raises(ValueError):
                    derive_outcome(shots)
                continue
            if expected is None:
                with pytest.raises(IncompleteRally):
                    derive_outcome(shots)
                continue
            side, reason = expected
            got = derive_outcome(shots)
            expected_winner = hitter if side == "hitter" else (
                P2 if hitter == P1 else P1)
            assert got.point_winner == expected_winner, (stroke, outcome, attempt)
            assert got.reason == reason, (stroke, outcome, attempt)


class TestValidateRally:
    def test_no_shots_flagged(self):
        rally = make_rally((), score=MatchScore(),
                           outcome=RallyOutcome(P1, P2, "ace"))
        assert validate_rally(rally) == ("shot sequence is empty",)

    def test_minimal_legal_rally(self):
        rally = make_rally([serve(0, P1), shot(1, P2, outcome="winner")])
        report = validate_rally(rally)
        assert not report, report
        assert rally.outcome.point_winner == P2

    def test_consecutive_hits_flagged(self):
        shots = [serve(0, P1), shot(1, P1, outcome="winner")]
        rally = make_rally(shots, outcome=RallyOutcome(P1, P2, "winner"))
        report = validate_rally(rally)
        assert any("alternation" in v for v in report)

    def test_double_fault_rally_valid(self):
        rally = make_rally([serve(0, P1, outcome="fault"),
                            serve(1, P1, outcome="fault", attempt="second")])
        assert not validate_rally(rally)
        assert rally.outcome == RallyOutcome(P2, P1, "double_fault")

    def test_non_increasing_timestamps_flagged(self):
        shots = [serve(0, P1, t=1.0), shot(1, P2, t=1.0, outcome="winner")]
        rally = make_rally(shots)
        assert any("timestamps" in v for v in validate_rally(rally))

    def test_outcome_disagreement_flagged(self):
        rally = make_rally([serve(0, P1, outcome="winner")],
                           outcome=RallyOutcome(P2, P1, "winner"))
        assert any("disagrees" in v for v in validate_rally(rally))

    def test_server_scoreboard_mismatch_flagged(self):
        rally = make_rally([serve(0, P2, outcome="winner")],
                           score=MatchScore(server=P1))
        assert any("server" in v for v in validate_rally(rally))

    def test_bounce_outside_clip_flagged(self):
        rally = make_rally([serve(0, P1, outcome="winner")],
                           bounces=[BounceEvent(timestamp=99.0, court_half="far")])
        assert any("outside the clip" in v for v in validate_rally(rally))

    def test_bounces_at_the_clip_ends_are_inside(self):
        rally = make_rally([serve(0, P1, outcome="winner")],
                           bounces=[BounceEvent(timestamp=0.0, court_half="far"),
                                    BounceEvent(timestamp=8.0, court_half="near")])
        assert not validate_rally(rally)

    @pytest.mark.parametrize("retry, winner", [
        (serve(1, P2, outcome="winner", attempt="second"), P2),
        (shot(1, P1, outcome="winner"), P1),
    ], ids=["other_player_serves", "same_player_non_serve"])
    def test_retry_wrong_in_one_way_flagged(self, retry, winner):
        rally = make_rally([serve(0, P1, outcome="fault"), retry],
                           outcome=RallyOutcome(winner, other_player(winner), "winner"))
        assert "shot 1: expected a serve retry by the same player" in validate_rally(rally)

    def test_play_after_point_end_flagged(self):
        shots = [serve(0, P1), shot(1, P2, outcome="unforced_error"),
                 shot(2, P1, outcome="winner")]
        rally = make_rally(shots, outcome=RallyOutcome(P1, P2, "winner"))
        assert any("continued" in v for v in validate_rally(rally))

    @pytest.mark.parametrize("shots", [
        # two touches after the winning serve
        [serve(0, P1, outcome="winner"), shot(1, P2, outcome="forced_error"),
         shot(2, P1, outcome="forced_error")],
        # the one trailing touch is the server's own
        [serve(0, P1, outcome="winner"), shot(1, P1, outcome="forced_error")],
    ], ids=["two_touches", "server_touch"])
    def test_touch_after_winning_serve_is_limited(self, shots):
        rally = make_rally(shots, outcome=RallyOutcome(P1, P2, "service_winner"))
        assert ("shot 1: play continued after a point-ending 'winner'"
                in validate_rally(rally))


class TestEditScore:
    def test_identical_sequences(self):
        assert edit_score(list("abcde"), list("abcde")) == 100.0

    def test_single_substitution_length_four(self):
        assert edit_score(list("abcd"), list("abxd")) == 75.0

    def test_empty_vs_three(self):
        assert edit_score([], list("abc")) == 0.0

    def test_both_empty(self):
        assert edit_score([], []) == 100.0

    def test_matches_dp_oracle_on_random_pairs(self):
        rng = random.Random(17)
        alphabet = ["fh", "bh", "serve", "bounce_near", "bounce_far", "volley"]
        for _ in range(1000):
            a = [rng.choice(alphabet) for _ in range(rng.randint(0, 14))]
            b = [rng.choice(alphabet) for _ in range(rng.randint(0, 14))]
            d = oracles.levenshtein(a, b)
            longest = max(len(a), len(b))
            expected = 100.0 if longest == 0 else 100.0 * (1.0 - d / longest)
            assert edit_score(a, b) == expected
            assert edit_score(a, b) == edit_score(b, a)
            assert 0.0 <= edit_score(a, b) <= 100.0


def increments(rally):
    """One rally's ``classify_point`` increments as ``{player: {field: n}}``,
    zero counts left out."""
    counts = [0] * (2 * STAT_WIDTH)
    classify_point(rally, counts)
    return {pid: {name: n for name, n in zip(COUNT_FIELDS, counts[offset:]) if n}
            for pid, offset in ((P1, 0), (P2, STAT_WIDTH))}


class TestClassifyPoint:
    def test_ace_increments(self):
        rally = make_rally([serve(0, P1, outcome="winner")])
        contrib = increments(rally)
        assert contrib[P1] == {"serve_points": 1, "first_serves_in": 1,
                               "aces": 1, "points_won": 1,
                               "serve_points_won": 1, "total_shots": 1}
        assert contrib[P2] == {"return_points": 1}

    def test_double_fault_increments(self):
        rally = make_rally([serve(0, P1, outcome="fault"),
                            serve(1, P1, outcome="fault", attempt="second")])
        contrib = increments(rally)
        assert contrib[P1] == {"serve_points": 1, "double_faults": 1,
                               "total_shots": 2}
        assert contrib[P2] == {"return_points": 1, "return_points_won": 1,
                               "points_won": 1}

    def test_break_point_converted(self):
        score = MatchScore(points=("30", "40"), server=P1)
        rally = make_rally([serve(0, P1), shot(1, P2, outcome="winner")],
                           score=score)
        contrib = increments(rally)
        assert contrib[P1]["break_points_faced"] == 1
        assert contrib[P2]["break_points_converted"] == 1
        assert "break_points_saved" not in contrib[P1]

    def test_break_point_saved(self):
        score = MatchScore(points=("30", "40"), server=P1)
        rally = make_rally([serve(0, P1, outcome="winner")], score=score)
        contrib = increments(rally)
        assert contrib[P1]["break_points_saved"] == 1

    @pytest.mark.parametrize("score,games_won", [
        (MatchScore(points=("40", "0"), server=P1), 1),
        (MatchScore(games=(6, 6), points=(6, 5), server=P1), 1),
        (MatchScore(games=(5, 3), points=("40", "30"), server=P1), 1),
        (MatchScore(points=("15", "30"), server=P1), None),
    ], ids=["hold_from_40_0", "tiebreak_from_6_5", "set_ending_game", "mid_game"])
    def test_games_won_credited_when_point_ends_game(self, score, games_won):
        contrib = increments(make_rally([serve(0, P1, outcome="winner")],
                                        score=score))
        assert contrib[P1].get("games_won") == games_won
        assert "games_won" not in contrib[P2]

    def test_exactly_one_point_and_serve_sides(self):
        rallies = _varied_rallies()
        for rally in rallies:
            contrib = increments(rally)
            total_points = sum(side.get("points_won", 0)
                               for side in contrib.values())
            assert total_points == 1
            server = rally.shots[0].hitter
            assert contrib[server].get("serve_points") == 1
            returner = P2 if server == P1 else P1
            assert contrib[returner].get("return_points") == 1

    def test_increment_sum_matches_recount_oracle(self):
        rallies = _varied_rallies()
        totals = {P1: {}, P2: {}}
        for rally in rallies:
            for pid, side in increments(rally).items():
                for k, n in side.items():
                    totals[pid][k] = totals[pid].get(k, 0) + n
        expected = _recount(rallies)
        assert totals == expected

    def test_rally_after_decided_match_leaves_counts_unchanged(self):
        decided = MatchScore(completed_sets=((6, 0), (6, 0)), server=P1)
        counts = list(range(2 * STAT_WIDTH))
        with pytest.raises(TerminalState):
            classify_point(make_rally([serve(0, P1, outcome="winner")],
                                      score=decided), counts)
        assert counts == list(range(2 * STAT_WIDTH))


def _varied_rallies():
    rallies = [
        make_rally([serve(0, P1, outcome="winner")]),
        make_rally([serve(0, P1, outcome="fault"),
                    serve(1, P1, outcome="fault", attempt="second")]),
        make_rally([serve(0, P2), shot(1, P1, outcome="unforced_error")],
                   score=MatchScore(server=P2)),
        make_rally([serve(0, P2), shot(1, P1), shot(2, P2, outcome="winner")],
                   score=MatchScore(server=P2)),
        make_rally([serve(0, P1, outcome="fault"),
                    serve(1, P1, attempt="second"), shot(2, P2),
                    shot(3, P1, outcome="forced_error")]),
        make_rally([serve(0, P1), shot(1, P2, outcome="net")],
                   score=MatchScore(points=("0", "40"), server=P1)),
        make_rally([serve(0, P2, outcome="winner"),
                    shot(1, P1, outcome="forced_error")],
                   score=MatchScore(server=P2)),
        make_rally([serve(0, P1), shot(1, P2), shot(2, P1), shot(3, P2),
                    shot(4, P1, outcome="winner")],
                   score=MatchScore(points=("30", "40"), server=P1)),
        make_rally([serve(0, P1), shot(1, P2, outcome="winner")],
                   score=MatchScore(points=("30", "40"), server=P1)),
    ]
    # pad with deterministic variations to reach 20
    rng = random.Random(99)
    while len(rallies) < 20:
        length = rng.randint(2, 7)
        shots = [serve(0, P1)]
        hitter = P2
        for i in range(1, length - 1):
            shots.append(shot(i, hitter))
            hitter = P2 if hitter == P1 else P1
        shots.append(shot(length - 1, hitter,
                          outcome=rng.choice(["winner", "unforced_error",
                                              "forced_error"])))
        rallies.append(make_rally(shots))
    return rallies


def _recount(rallies):
    """Brute-force restatement of the stat definitions, field by field."""
    out = {P1: {}, P2: {}}

    def bump(pid, key, by=1):
        out[pid][key] = out[pid].get(key, 0) + by

    for rally in rallies:
        server = rally.shots[0].hitter
        returner = P2 if server == P1 else P1
        winner, loser = rally.outcome.point_winner, rally.outcome.point_loser
        reason = rally.outcome.reason
        bump(server, "serve_points")
        bump(returner, "return_points")
        if any(s.stroke == "serve" and s.serve_attempt == "first"
               and s.outcome in ("in", "winner") for s in rally.shots):
            bump(server, "first_serves_in")
        bump(winner, "points_won")
        if winner == server:
            bump(server, "serve_points_won")
        else:
            bump(returner, "return_points_won")
        key = {"ace": (server, "aces"), "double_fault": (server, "double_faults"),
               "winner": (winner, "winners"),
               "unforced_error": (loser, "unforced_errors"),
               "forced_error": (loser, "forced_errors_conceded")}.get(reason)
        if key:
            bump(*key)
        score = rally.initial_score
        ret_pts = score.point_of(score.returner)
        srv_pts = score.point_of(score.server)
        bp = (not score.in_tiebreak
              and (ret_pts == "AD" or (ret_pts == "40" and srv_pts in ("0", "15", "30"))))
        if bp:
            bump(server, "break_points_faced")
            bump(server if winner == server else returner,
                 "break_points_saved" if winner == server else "break_points_converted")
        after = advance_point(score, winner)
        idx = 0 if winner == P1 else 1
        if oracles.total_games(after, idx) > oracles.total_games(score, idx):
            bump(winner, "games_won")
        for s in rally.shots:
            bump(s.hitter, "total_shots")
    return out


class TestJsonRoundTrip:
    def _full_record(self):
        score = MatchScore(completed_sets=((6, 0),), games=(2, 3),
                           points=("30", "15"), server=P1)
        return make_rally(
            [serve(0, P1, technique="kick", direction="wide"),
             shot(1, P2, stroke="backhand", technique="slice",
                  direction="down-the-line"),
             shot(2, P1, outcome="winner", direction="inside-out")],
            score=score,
            bounces=[BounceEvent(timestamp=1.2, court_half="far",
                                 position=(412.0, 300.5))],
            commentary="A crisp finish from Moreau.",
        )

    def test_json_object_round_trips(self):
        rally = self._full_record()
        obj = rally_to_json(rally)
        assert obj["scoreboard"]["Alice Moreau"] == [1, 2, 30]
        assert obj["scoreboard"]["Bob Keller"] == [0, 3, 15]
        assert obj["scoreboard"]["server"] == "Alice Moreau"
        assert rally_to_json(rally_from_json(obj)) == obj

    def test_record_round_trips_when_sets_are_synthetic(self):
        rally = self._full_record()
        reparsed = rally_from_json(rally_to_json(rally))
        assert reparsed == rally

    def test_tiebreak_score_round_trips(self):
        score = MatchScore(games=(6, 6), points=(5, 3), server=P2)
        rally = make_rally([serve(0, P2, outcome="winner")], score=score)
        obj = rally_to_json(rally)
        assert obj["scoreboard"]["Alice Moreau"] == [0, 6, 5]
        assert rally_from_json(obj) == rally

    def test_missing_field_is_schema_violation(self):
        obj = rally_to_json(self._full_record())
        del obj["clip_id"]
        with pytest.raises(SchemaViolation):
            rally_from_json(obj)

    def test_unknown_server_is_schema_violation(self):
        obj = rally_to_json(self._full_record())
        obj["scoreboard"]["server"] = "Carol"
        with pytest.raises(SchemaViolation, match="server"):
            rally_from_json(obj)

    @pytest.mark.parametrize("alice,bob", [
        # a scoreboard image may leave the trailing points blank beside AD;
        # a dataset row may not
        ([1, 2, "AD"], [1, 2, ""]),
        ([1, 2, "30"], [1, 2, 15]),
        ([1, 2, True], [1, 2, 15]),
        ([1, 2, 30.0], [1, 2, 15]),
        ([1, 2, [30]], [1, 2, 15]),
    ])
    def test_board_cells_must_be_ints_or_ad(self, alice, bob):
        obj = rally_to_json(self._full_record())
        obj["scoreboard"]["Alice Moreau"] = alice
        obj["scoreboard"]["Bob Keller"] = bob
        with pytest.raises(SchemaViolation, match="scoreboard: row for"):
            rally_from_json(obj)

    @pytest.mark.parametrize("path,value,message", [
        (("shot_sequence", 0, "timestamp"), "0.72",
         r"shot 0: expected a number, got '0\.72'$"),
        (("shot_sequence", 0, "timestamp"), True,
         r"shot 0: expected a number, got True$"),
        (("match_info", "tournament"), {"x": [1, 2]},
         r"match_info: tournament must be a string, got \{'x': \[1, 2\]\}$"),
        (("shot_sequence", 0, "shot_index"), 0.9,
         r"shot 0: shot_index must be an integer, got 0\.9$"),
        (("shot_sequence", 0, "shot_index"), False,
         r"shot 0: shot_index must be an integer, got False$"),
        (("bounces", 0, "position"), [412.0, True],
         r"bounce 0: expected a number, got True$"),
        (("clip_id",), 7, r"^record: clip_id must be a string, got 7$"),
        (("match_info", "player_1", "name"), 5,
         r"match_info: name must be a string, got 5$"),
        (("shot_sequence", 1, "technique"), ["slice"],
         r"shot 1: technique must be a string"),
        (("commentary",), 3, r"commentary must be a string, got 3$"),
        (("bounces",), {}, r"^m001_10\.0_18\.0: bounces must be a list, got \{\}$"),
        (("shot_sequence",), [],
         r"^m001_10\.0_18\.0: shot_sequence must be a non-empty list$"),
        (("shot_sequence",), "serve",
         r"^m001_10\.0_18\.0: shot_sequence must be a non-empty list$"),
    ], ids=["string_timestamp", "bool_timestamp", "object_tournament",
            "float_shot_index", "bool_shot_index", "bool_position",
            "int_clip_id", "int_name", "list_technique", "int_commentary",
            "object_bounces", "empty_shots", "string_shots"])
    def test_values_must_have_their_json_type(self, path, value, message):
        # no value is converted: a string, boolean or float where another
        # JSON type is meant is a violation, not read as that type
        obj = rally_to_json(self._full_record())
        holder = obj
        for step in path[:-1]:
            holder = holder[step]
        holder[path[-1]] = value
        with pytest.raises(SchemaViolation, match=message):
            rally_from_json(obj)

    def test_errors_name_the_record_part(self):
        obj = rally_to_json(self._full_record())
        del obj["shot_sequence"][1]["hitter"]
        with pytest.raises(SchemaViolation,
                           match=r"^m001_10\.0_18\.0 shot 1: missing field 'hitter'$"):
            rally_from_json(obj)

    def test_positions_survive(self):
        rally = make_rally([serve(0, P1, outcome="winner")])
        rally = RallyRecord(
            clip_id=rally.clip_id, match_info=rally.match_info,
            initial_score=rally.initial_score,
            shots=(ShotEvent(index=0, hitter=P1, stroke="serve", technique="flat",
                             direction="T", outcome="winner", timestamp=0.1,
                             serve_attempt="first", hitter_position=(630.0, 640.0),
                             ball_position=(612.5, 233.0)),),
            outcome=rally.outcome, transcript=rally.transcript)
        assert rally_from_json(rally_to_json(rally)) == rally
