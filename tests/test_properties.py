"""Property-based tests: the commentary sanity check on arbitrary text, the
judge-reply reader against its earlier three-way version, the rally codec on
simulated matches of every supported format, the scoreboard layouts over
whole matches of arbitrary formats, the scoring kernels on reachable and
malformed scores, dataset ingestion on arbitrary values, the text metrics on
arbitrary corpora, and whole replays against a reference replay over drawn
configs."""

import copy
import json
import math
import random
from dataclasses import asdict, replace
from functools import reduce
from operator import add
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from courtside.evaluation import (
    CRITERIA,
    CRITERION_MAX,
    DEFAULT_SHOT_TAXONOMY,
    MockJudgeClient,
    SanityViolation,
    _SCORE_PAIR_RE,
    _fold,
    _lcs,
    bleu4,
    build_judge_prompt,
    corpus_metrics,
    parse_scorecard,
    rouge_l,
    sanity_check,
    score_pairs,
    tokenize,
)
from courtside.event_stream import (COUNT_FIELDS, STAT_WIDTH, BounceEvent,
                                    SchemaViolation, classify_point,
                                    rally_from_json, rally_to_json)
from courtside.match_model import (LAYOUT_WIMBLEDON, LAYOUTS, PLAYER_IDS,
                                   MatchScore, ScoringConfig, _structure_violations,
                                   advance_point, is_break_point, is_terminal,
                                   parse_scoreboard, render_scoreboard,
                                   synthesize_completed_sets)
from courtside.memory import ContextView, MatchMemory, MemoryEntry, PlayerStatLine
from courtside import pipeline
from courtside.cli import main
from courtside.pipeline import PipelineConfig, load_dataset
from courtside.prompt_engine import (GenerationRequest, MockCommentaryClient, PersonaConfig,
                                     parse_metadata, serialize_memory, serialize_metadata)
from courtside.simulate import simulate_match

import oracles

# Best-of-3, best-of-5 and no-ad matches; each holds tiebreak and AD boards.
MATCHES = tuple(simulate_match(seed=seed, config=config) for seed, config in (
    (1, ScoringConfig()), (1, ScoringConfig(best_of=5)),
    (2, ScoringConfig(ad_scoring=False))))


def _board_pool():
    """Tiebreak, AD and ordinary boards from best-of-3, best-of-5 and no-ad."""
    pool = []
    for match in MATCHES:
        pool += [r for r in match if r.initial_score.in_tiebreak][:8]
        pool += [r for r in match if "AD" in r.initial_score.points][:8]
        pool += match[::25]
    return pool


BOARDS = _board_pool()

RECORDS = simulate_match(seed=404)[:40]
SURNAMES = sorted({r.match_info.player(pid).surname for r in RECORDS + BOARDS
                   for pid in ("player_1", "player_2")})

# Fragments the detectors react to: surnames (plain, accented, upper-cased),
# attribution and score terms, every shot term, score pairs, and characters
# whose fold changes the text's punctuation or length.
FRAGMENTS = st.sampled_from(
    SURNAMES + [s.upper() for s in SURNAMES] + [s[0] + "́" + s[1:] for s in SURNAMES]
    + ["ace", "aces", "surface", "double fault", "unforced error", "winner",
       "winners", "deuce", "advantage", "forehand", "backhand", "serve", "smash",
       "volley", "slice", "lob", "topspin", "15-0", "40:40", "AD-40", "6-6",
       "2-1", ". ", "! ", "? ", "...", "…", "！", "ß", "İ", "Ivanov", "é", "ﬁ",
       "Ω"])

TEXT = st.lists(st.one_of(st.text(max_size=12), FRAGMENTS), max_size=14).map(
    " ".join)


@settings(deadline=None)
@given(st.one_of(st.text(), st.text(st.characters(max_codepoint=127))))
def test_fold_equals_reference_fold(text):
    assert _fold(text) == oracles.fold_text(text)


LOST_BY_KOVAR = next(r for r in RECORDS
                     if r.match_info.player(r.outcome.point_loser).surname == "Kovar")


@settings(deadline=None, max_examples=300)
@given(TEXT, st.sampled_from(RECORDS) | st.sampled_from(BOARDS))
# attribution terms inside longer words name no actor
@example("Kovar: aces, winners and a surface to grace.", LOST_BY_KOVAR)
def test_sanity_check_never_raises(text, rally):
    report = sanity_check(text, rally)
    assert isinstance(report, tuple)
    assert all(isinstance(v, SanityViolation) for v in report)
    assert report == oracles.sanity_check(text, rally)


# Surnames that a simulated match never holds: apostrophes, hyphens, dots,
# underscores, digits, letters whose fold changes their length, a combining
# accent, and runs of those alone.
ODD_SURNAME_PARTS = ["O", "Ji", "Auger", "Nishi", "Stra", "İnce", "Le", ""]
ODD_SURNAME_MARKS = ["'", "’", "-", ".", "_", "7", "ß", "İ", "́"]
ODD_SURNAMES = st.one_of(
    st.builds(lambda a, mark, b: a + mark + b, st.sampled_from(ODD_SURNAME_PARTS),
              st.sampled_from(ODD_SURNAME_MARKS),
              st.sampled_from(["Neil", "Brien", "Aliassime", "kori", "uss", ""])),
    st.text(st.sampled_from(ODD_SURNAME_MARKS + ["a", "Z"]), min_size=1, max_size=5),
).filter(lambda s: s.strip())


def _renamed(rally, surname_1: str, surname_2: str):
    info = rally.match_info
    return replace(rally, match_info=replace(
        info, player_1=replace(info.player_1, name=f"Ann {surname_1}"),
        player_2=replace(info.player_2, name=f"Tom {surname_2}")))


@st.composite
def renamed_cases(draw):
    """A rally whose players carry drawn surnames, and a text of the usual
    fragments mixed with those surnames in several cases."""
    surnames = draw(st.tuples(ODD_SURNAMES, ODD_SURNAMES))
    rally = _renamed(draw(st.sampled_from(RECORDS) | st.sampled_from(BOARDS)), *surnames)
    cased = [case(s) for s in surnames
             for case in (str, str.upper, str.lower, str.title, str.casefold,
                          "{}'s".format, "O'{}".format, "{}-Smith".format, "O’{}".format)]
    words = draw(st.lists(st.one_of(FRAGMENTS, st.sampled_from(cased), st.text(max_size=4)),
                          max_size=14))
    return " ".join(words), rally


@settings(deadline=None, max_examples=200)
@given(renamed_cases())
@example(("O'Neil hits an ace. O’Brien's double fault. A winner for O’BRIEN, "
          "then an unforced error from o'neil!", _renamed(LOST_BY_KOVAR, "O'Neil", "O’Brien")))
@example(("- serves an ace. A double fault from Kovar -. Winner: - - winner.",
          _renamed(LOST_BY_KOVAR, "-", "Kovar")))
# a surname inside a longer token names nobody: an apostrophe or a hyphen
# is part of the token
@example(("O'Neil hits an ace. O'Brien hits an ace. Neil-Smith hits an ace. "
          "Brien-Smith hits an ace.", _renamed(LOST_BY_KOVAR, "Neil", "Brien")))
def test_sanity_check_equals_oracle_for_drawn_surnames(case):
    text, rally = case
    assert sanity_check(text, rally) == oracles.sanity_check(text, rally)


# Shot terms in case variants, with an accent, inside "serve-and-volley" and
# next to punctuation, among arbitrary text.
JUDGE_TERMS = [t for term in DEFAULT_SHOT_TAXONOMY for t in (
    term, term.upper(), term.title(), term[0] + "́" + term[1:])]
PREDICTIONS = st.lists(st.one_of(
    st.text(max_size=8), st.sampled_from(JUDGE_TERMS + [
        "serve-and-volley", "Serve-And-Volley", "forehands", "lobbed", ",", "!",
        "—", "'", "ß", "İ", "ﬁ", "é"])),
    min_size=1, max_size=12).map("".join).filter(bool)


@settings(deadline=None, max_examples=300)
@given(PREDICTIONS)
@example("Serve-and-volley, then a FOREHAND slíce")
def test_mock_judge_counts_each_taxonomy_term_once(prediction):
    bundle = build_judge_prompt("metadata", "a reference", prediction)
    scores = json.loads(MockJudgeClient().complete(
        GenerationRequest(bundle=bundle)).text)["scores"]
    assert scores["professionalism"] == min(
        CRITERION_MAX, 6 + 2 * oracles.judge_term_count(prediction))


# Judge replies: a scorecard, nested or flat, with scores in and out of range,
# perhaps a criterion left out, and a total that is right, off by one, or
# missing, written as JSON (indented or not) or as a Python literal, whole or
# cut short.  The wrappers put no brace outside it: code fences tagged or not,
# prose, whitespace, parentheses and comments.
CRITERION_VALUES = st.integers(0, CRITERION_MAX) | st.sampled_from(
    (-1, CRITERION_MAX + 1, True, 2.0))
BRACELESS = st.text(st.characters(exclude_characters="{}"), max_size=20)
PREFIXES = st.sampled_from(("", "```json\n", "```python\n", "```JSON\n", "```\n",
                            " \n\t", "Here is my verdict: ", "(", "# verdict\n"))
SUFFIXES = st.sampled_from(("", "\n```", "```", " Thanks.", ")", "  # done",
                            "\n\n"))


@st.composite
def judge_replies(draw):
    scores = {name: draw(CRITERION_VALUES) for name in CRITERIA}
    for name in draw(st.sets(st.sampled_from(CRITERIA), max_size=1)):
        del scores[name]
    card = {"scores": scores} if draw(st.booleans()) else dict(scores)
    total_key = draw(st.sampled_from(("total_score", "total", None)))
    if total_key:
        card[total_key] = sum(scores.values()) + draw(st.sampled_from((0, 0, 1)))
    body = (repr(card) if draw(st.booleans())
            else json.dumps(card, indent=draw(st.sampled_from((None, 2)))))
    if draw(st.integers(0, 4)) == 0:
        body = body[:draw(st.integers(1, len(body) - 1))]
    return draw(PREFIXES | BRACELESS) + body + draw(SUFFIXES | BRACELESS)


@settings(deadline=None, max_examples=300)
@given(judge_replies())
@example("```json\n" + json.dumps({"scores": dict.fromkeys(CRITERIA, 5),
                                   "total_score": 25}) + "\n```")
@example("(" + repr({**dict.fromkeys(CRITERIA, 4), "total": 21}) + ")  # done")
@example('[{"accuracy": 1}]')
def test_judge_reply_reads_as_its_brace_span(reply):
    """Reading only the span from the first "{" to the last "}" gives the
    card, or the exception type, that trying the raw reply, the reply without
    fences and that span in turn gave."""
    got = _outcome(parse_scorecard, reply)
    expected = _outcome(oracles.ref_parse_scorecard, reply)
    assert got[:2] == expected[:2]


def at_pinned_formats(args_of):
    """An ``@example`` at each of ``oracles.PINNED_CONFIGS``, with the
    arguments ``args_of(config)``."""
    def decorate(test):
        for config in oracles.PINNED_CONFIGS:
            test = example(*args_of(config))(test)
        return test
    return decorate


def _through_json(obj):
    return json.loads(json.dumps(obj, ensure_ascii=False))


@settings(deadline=None, max_examples=15)
@given(st.integers(min_value=0, max_value=100_000), oracles.SCORING_CONFIGS)
@at_pinned_formats(lambda config: (1, config))
def test_codec_round_trips_file_loaded_records(seed, config):
    for simulated in simulate_match(seed=seed, config=config):
        record = rally_from_json(_through_json(rally_to_json(simulated)), config)
        assert rally_from_json(_through_json(rally_to_json(record)), config) == record
        assert (parse_metadata(serialize_metadata(record), config)
                == replace(record, commentary=None))


@settings(deadline=None, max_examples=15)
@given(st.integers(min_value=0, max_value=100_000), oracles.SCORING_CONFIGS)
# a final-set tiebreak in best-of-3 with ad scoring and best-of-5 without
@example(4, ScoringConfig())
@example(2, ScoringConfig(best_of=5, ad_scoring=False))
@at_pinned_formats(lambda config: (1, config))
def test_ends_game_equals_games_rising(seed, config):
    for rally in simulate_match(seed=seed, config=config):
        score = rally.initial_score
        for idx, winner in enumerate(PLAYER_IDS):
            # the same rally with each player as the point winner
            won = replace(rally, outcome=replace(
                rally.outcome, point_winner=winner,
                point_loser=PLAYER_IDS[1 - idx]))
            after = advance_point(score, winner)
            rose = oracles.total_games(after, idx) > oracles.total_games(score, idx)
            assert won.ends_game == rose


@settings(deadline=None, max_examples=15)
@given(st.integers(min_value=0, max_value=100_000), oracles.SCORING_CONFIGS)
@at_pinned_formats(lambda config: (1, config))
def test_final_score_is_the_advanced_initial_score(seed, config):
    for rally in simulate_match(seed=seed, config=config):
        expected = advance_point(rally.initial_score, rally.outcome.point_winner)
        assert rally.final_score == expected
        assert rally.final_score is rally.final_score


def _outcome(function, *args):
    """What a call gave: its value, or its exception's type and message."""
    try:
        return "returned", function(*args)
    except Exception as exc:
        return "raised", type(exc), str(exc)


# Cells a malformed score may hold: every ladder string, AD, a number string
# off the ladder, negative and plain ints, floats, bools and an unhashable list.
POINT_CELLS = st.sampled_from(("0", "15", "30", "40", "AD", "50", -1, 0, 2, 15,
                               0.0, 2.5, True, False, [1]))


@st.composite
def drawn_scores(draw):
    """The parts of a score: one that a match reaches by a random walk, or
    one whose points, games or server are then overwritten with values that
    break the structure (lengths 1 and 3, negative, above trigger+1, bools,
    floats, an unknown server).  The history is the walk's, or one rebuilt
    from drawn sets won, which may be decided twice over."""
    config = draw(oracles.SCORING_CONFIGS)
    trigger = config.set_trigger_games
    rng = draw(st.randoms(use_true_random=False))
    score = MatchScore(config=config)
    for _ in range(draw(st.integers(0, 300))):
        if is_terminal(score):
            break
        score = advance_point(score, rng.choice(PLAYER_IDS))
    parts = dict(completed_sets=score.completed_sets, games=score.games,
                 points=score.points, server=score.server, config=config)
    if draw(st.booleans()):
        parts["completed_sets"] = synthesize_completed_sets(
            draw(st.integers(0, 3)), draw(st.integers(0, 3)), trigger)
    if draw(st.booleans()):
        cells = st.lists(POINT_CELLS, min_size=1, max_size=3)
        games = st.lists(st.sampled_from((trigger, trigger + 1, trigger + 2, -1, True,
                                          float(trigger), 0.5)) | st.integers(0, trigger),
                         min_size=1, max_size=3).map(tuple)
        if draw(st.booleans()):
            parts["points"] = tuple(draw(cells))
        if draw(st.booleans()):
            # trigger-all, the tiebreak, is as likely as all other games
            parts["games"] = draw(st.just((trigger, trigger)) | games)
        if draw(st.booleans()):
            parts["server"] = "nobody"
    return parts


def _parts(points=("0", "0"), games=(0, 0), server="player_1", completed_sets=()):
    return dict(completed_sets=completed_sets, games=games, points=points,
                server=server, config=ScoringConfig())


@settings(deadline=None, max_examples=400)
@given(drawn_scores())
# an unhashable point is an illegal point value, not a TypeError
@example(_parts(points=("15", [1])))
# games of length 1 and 3 are listed, not unpacked
@example(_parts(games=(6,)))
@example(_parts(games=(6, 6, 0), points=(2, 1)))
# games above trigger+1, both players at AD, under no-ad scoring too
@example(_parts(games=(8, 0), points=("AD", "AD")))
@example(dict(_parts(points=("40", "AD")), config=ScoringConfig(ad_scoring=False)))
# a point tuple of length 1, and 3 with an AD, and an unknown server
@example(_parts(points=("40",), server="nobody"))
@example(_parts(points=("AD", "40", "0"), server="player_2"))
def test_scoring_kernels_equal_their_generator_versions(parts):
    """Sets won, the winner, the structural check and the break-point test
    give what their earlier generator versions gave, value for value and
    message for message, on reachable and malformed scores alike."""
    built = _outcome(lambda: MatchScore(**parts))
    derived = _outcome(oracles.ref_post_init, parts["completed_sets"],
                       parts["games"], parts["config"])
    if built[0] == "raised":
        assert built == derived
        return
    score = built[1]
    assert derived == ("returned", {"in_tiebreak": score.in_tiebreak,
                                    "_sets_won": score.sets_won(),
                                    "_winner": is_terminal(score)})
    assert (_outcome(_structure_violations, score)
            == _outcome(oracles.ref_structure_violations, score))
    assert _outcome(is_break_point, score) == _outcome(oracles.ref_is_break_point, score)


SET_COUNTS = st.integers(-1, 5) | st.booleans() | st.sampled_from((0.0, 1.0, 2.5))


@settings(deadline=None, max_examples=200)
@given(SET_COUNTS, SET_COUNTS, st.integers(1, 99) | st.sampled_from((True, 6.0)))
@example(1.0, 0, 6)
@example(2, 1, 6.0)
def test_synthesized_history_equals_its_unmemoized_version(p1_sets, p2_sets, trigger):
    """The memoized history equals the unmemoized one, value or exception,
    also right after the ints equal to the drawn arguments were asked, when
    a memo keyed without the argument types would answer for them."""
    _outcome(synthesize_completed_sets, int(p1_sets), int(p2_sets), int(trigger))
    got = _outcome(synthesize_completed_sets, p1_sets, p2_sets, trigger)
    expected = _outcome(oracles.ref_synthesize_completed_sets, p1_sets, p2_sets, trigger)
    assert (got, repr(got)) == (expected, repr(expected))


@settings(deadline=None, max_examples=15)
@given(st.integers(min_value=0, max_value=100_000), oracles.SCORING_CONFIGS)
@at_pinned_formats(lambda config: (1, config))
def test_dataset_board_is_the_rendered_wimbledon_board(seed, config):
    """The board ``rally_to_json`` writes is the ``render_scoreboard``
    Wimbledon board of the rally's score, each number cell a JSON int, in
    the same key order."""
    for rally in simulate_match(seed=seed, config=config):
        info = rally.match_info
        board = render_scoreboard(rally.initial_score, LAYOUT_WIMBLEDON,
                                  (info.player_1.name, info.player_2.name))
        expected = {key: value if key == "server"
                    else [cell if cell == "AD" else int(cell) for cell in value]
                    for key, value in board.items()}
        assert json.dumps(rally_to_json(rally)["scoreboard"]) == json.dumps(expected)


@pytest.fixture(scope="module")
def stats_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("stats")


@settings(deadline=None, max_examples=15)
@given(st.integers(min_value=0, max_value=100_000), oracles.SCORING_CONFIGS)
@at_pinned_formats(lambda config: (1, config))
def test_fold_equals_recount_and_stats_equal_replay(stats_dir, seed, config):
    """A simulated match folded into one count list holds the recount of
    every field, and ``courtside stats`` of the written file prints the
    final statistics of a replay of it."""
    match = simulate_match(seed=seed, config=config)
    counts = [0] * (2 * STAT_WIDTH)
    for rally in match:
        classify_point(rally, counts)
    recount = oracles.stat_recount(match)
    for pid, offset in zip(PLAYER_IDS, (0, STAT_WIDTH)):
        assert counts[offset:offset + STAT_WIDTH] == [
            recount[pid].get(name, 0) for name in COUNT_FIELDS]

    dataset = stats_dir / "match.jsonl"
    dataset.write_text("".join(json.dumps(rally_to_json(r)) + "\n" for r in match),
                       encoding="utf-8")
    config_file = stats_dir / "config.json"
    config_file.write_text(json.dumps({"scoring": asdict(config)}), encoding="utf-8")
    out = stats_dir / "stats.json"
    code = main(["stats", "--input", str(dataset), "--config", str(config_file),
                 "--output", str(out)])
    replay = pipeline.replay_match(load_dataset(dataset, config, errors=[]),
                                   PipelineConfig(scoring=config))
    assert code == 0
    assert out.read_text(encoding="utf-8") == json.dumps(
        replay.final_stats, indent=2, ensure_ascii=False) + "\n"


@settings(deadline=None, max_examples=60)
@given(oracles.SCORING_CONFIGS, st.randoms(use_true_random=False))
@at_pinned_formats(lambda config: (config, random.Random(1)))
def test_scoreboard_parses_its_own_rendering(config, rng):
    score = MatchScore(config=config)
    while True:
        for layout in LAYOUTS:
            parsed = parse_scoreboard(*oracles.board(
                layout, render_scoreboard(score, layout, ("A", "B"))), config)
            expected = score
            if layout == LAYOUT_WIMBLEDON:
                # the board shows sets won, not the games of each set
                expected = replace(score, completed_sets=synthesize_completed_sets(
                    *score.sets_won(), config.set_trigger_games))
            assert parsed == expected
        if is_terminal(score):
            break
        score = advance_point(score, rng.choice(PLAYER_IDS))


# Strings json must escape or pass through: quotes, backslashes, control
# characters, line separators, non-BMP characters and lone surrogates.
JSON_TEXT = st.lists(st.one_of(st.text(max_size=5), st.sampled_from(
    ['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u2028", "\u2029", "é",
     "\U0001F3BE", "\ud800", "\udfff"])), max_size=6).map("".join)
# a position built in code may hold ints, which json writes without a point
POSITION = st.none() | st.tuples(*[st.one_of(st.floats(), st.integers(), st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324]))] * 2)


@st.composite
def metadata_rallies(draw):
    rally = draw(st.sampled_from(BOARDS))
    info = rally.match_info
    name_1, name_2 = draw(st.tuples(JSON_TEXT, JSON_TEXT).filter(
        lambda names: names[0].strip() and names[1].strip()
        and names[0] != names[1]))
    hands = draw(st.tuples(*[st.sampled_from(("left", "right"))] * 2))
    # a technique is free text: some shots carry one that json must escape
    shots = tuple(replace(shot, hitter_position=draw(POSITION), ball_position=draw(POSITION),
                          technique=draw(JSON_TEXT | st.just(shot.technique)))
                  for shot in rally.shots)
    bounces = draw(st.lists(st.builds(
        BounceEvent, timestamp=st.floats(), court_half=st.sampled_from(("near", "far")),
        position=POSITION), max_size=3))
    return replace(
        rally, clip_id=draw(JSON_TEXT), transcript=draw(JSON_TEXT),
        match_info=replace(info, tournament=draw(JSON_TEXT),
                           player_1=replace(info.player_1, name=name_1, handedness=hands[0]),
                           player_2=replace(info.player_2, name=name_2, handedness=hands[1])),
        shots=shots if draw(st.integers(0, 9)) else (), bounces=tuple(bounces))


@settings(deadline=None, max_examples=200)
@given(metadata_rallies())
def test_serialize_metadata_equals_json_dumps_of_oracle(rally):
    assert serialize_metadata(rally) == json.dumps(
        oracles.metadata_object(rally), indent=2, ensure_ascii=False)


def test_shot_description_follows_the_hitters_handedness():
    """Two rallies equal but for one player's handedness: the second is not
    given the first one's descriptions of that player's ground strokes."""
    rally = next(r for r in RECORDS
                 if any(s.stroke != "serve" and s.hitter == "player_1" for s in r.shots))
    info = rally.match_info
    flipped = {"left": "right", "right": "left"}[info.player_1.handedness]
    other = replace(rally, match_info=replace(
        info, player_1=replace(info.player_1, handedness=flipped)))
    texts = [serialize_metadata(r) for r in (rally, other, rally)]
    assert texts[0] == texts[2]
    for r, text in zip((rally, other), texts):
        assert text == json.dumps(oracles.metadata_object(r), indent=2, ensure_ascii=False)
    descriptions = [[entry["shot_description"] for entry in json.loads(text)["rally"]]
                    for text in texts[:2]]
    changed = [i for i, shot in enumerate(rally.shots)
               if shot.stroke != "serve" and shot.hitter == "player_1"]
    assert changed and all(descriptions[0][i] != descriptions[1][i] for i in changed)
    assert all(descriptions[0][i] == descriptions[1][i]
               for i in range(len(rally.shots)) if i not in changed)


COMMENTARY = st.none() | JSON_TEXT


@st.composite
def memory_windows(draw):
    """A match, the last rally observed (often a tiebreak or AD board), the
    window size and the commentaries of the last few observed rallies."""
    match = draw(st.sampled_from(MATCHES))
    boards = [i for i, r in enumerate(match)
              if r.initial_score.in_tiebreak or "AD" in r.initial_score.points]
    end = draw(st.sampled_from(boards) | st.integers(0, len(match) - 1))
    k = draw(st.integers(1, 16))
    tail = draw(st.lists(COMMENTARY, min_size=1, max_size=min(end + 1, k + 3)))
    names = draw(st.tuples(JSON_TEXT, JSON_TEXT))
    return match, end, k, tail, names


@settings(deadline=None, max_examples=100)
@given(memory_windows())
def test_serialize_memory_equals_oracle(window):
    """Each snapshot's memory block equals the line-by-line reference, also
    once the window has slid and each kept digest sits under a new prefix."""
    match, end, k, tail, names = window
    memory = MatchMemory(capacity=k)
    assert serialize_memory(memory.snapshot(), names) == oracles.memory_text(
        [], memory.long.stat_lines, 0, names)
    start = end + 1 - len(tail)
    commentaries = [None] * start + tail
    for i, rally in enumerate(match[:end + 1]):
        memory.observe(MemoryEntry(rally_index=i, metadata=rally,
                                   commentary=commentaries[i]))
        if i < start:
            continue
        first = max(0, i + 1 - k)
        recent = [(match[j], commentaries[j]) for j in range(first, i + 1)]
        view = memory.snapshot()
        assert serialize_memory(view, names) == oracles.memory_text(
            recent, view.stat_lines, first, names)


# Small counts that recur, large ones that seldom do, negative ones, and names
# of 0-40 characters, so that tables of several widths alternate.
TABLE_COUNTS = st.integers(0, 40) | st.integers(0, 10**6) | st.integers(-3, -1)
TABLE_NAMES = st.tuples(st.text(max_size=40), st.text(max_size=40))


@st.composite
def hand_built_tables(draw):
    """A few statistic tables, as (stat lines, names): the first one's names
    come back after a table that is at least as wide."""
    def lines():
        counts = draw(st.lists(TABLE_COUNTS, min_size=32, max_size=32))
        return PlayerStatLine._make(counts[:16]), PlayerStatLine._make(counts[16:])
    names = draw(TABLE_NAMES)
    wider = draw(TABLE_NAMES.filter(lambda n: max(map(len, n)) >= max(map(len, names))))
    tables = [(lines(), names), (lines(), wider), (lines(), names)]
    return tables + [(lines(), draw(TABLE_NAMES)) for _ in range(draw(st.integers(0, 2)))]


@settings(deadline=None, max_examples=60)
@given(hand_built_tables(), st.integers(0, 10**6))
# the same counts at a wide and then at a narrow width
@example([((PlayerStatLine._make([0] * 16), PlayerStatLine._make(range(16))), ("", "x" * 40)),
          ((PlayerStatLine._make([0] * 16), PlayerStatLine._make(range(16))), ("a", "b"))],
         3)
# a ratio of -0.0 (no first serve in of -1 serve points), one of 0.0, then -0.0 again
@example([((PlayerStatLine._make([0, 0, 0, -1] + [0] * 12),) * 2, ("a", "b")),
          ((PlayerStatLine._make([0, 0, 0, 5] + [0] * 12),) * 2, ("a", "b")),
          ((PlayerStatLine._make([0, 0, 0, -1] + [0] * 12),) * 2, ("a", "b"))], 0)
def test_serialize_memory_of_hand_built_views_equals_oracle(tables, consolidated):
    for stat_lines, names in tables:
        view = ContextView(recent=(), stat_lines=stat_lines,
                           rallies_consolidated=consolidated)
        assert serialize_memory(view, names) == oracles.memory_text(
            [], stat_lines, consolidated, names)


def _paths(value, path=()):
    """Every position in a JSON value, the root included."""
    yield path
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _paths(child, path + (key,))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from _paths(child, path + (i,))


def _put(obj, path, value):
    if not path:
        return value
    obj = copy.deepcopy(obj)
    holder = obj
    for step in path[:-1]:
        holder = holder[step]
    holder[path[-1]] = value
    return obj


def _with_positions(rally):
    shots = tuple(replace(s, hitter_position=(600.0, 640.0),
                          ball_position=(610.5, 230.0)) for s in rally.shots)
    return replace(rally, shots=shots,
                   bounces=(BounceEvent(timestamp=0.5, court_half="far",
                                        position=(412.0, 300.5)),))


# Two standard-game rallies, the second with pixel positions and a bounce,
# and a tiebreak rally (seed 404's first tiebreak starts at rally 86).
_FULL = simulate_match(seed=404)
LINES = [rally_to_json(r) for r in (_FULL[5], _with_positions(_FULL[12]), _FULL[87])]

JSON_VALUES = st.one_of(
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
        lambda inner: (st.lists(inner, max_size=3)
                       | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
        max_leaves=5),
    st.sampled_from(["AD", "", "15", "ambi", "player_1", "serve", -1,
                     10**15, 10**400, 1e308, [1, 2, "AD"], {}, []]))


@pytest.fixture(scope="module")
def line_file(tmp_path_factory):
    return tmp_path_factory.mktemp("lines") / "line.jsonl"


@settings(deadline=None, max_examples=400)
@given(st.sampled_from(LINES).flatmap(
           lambda obj: st.tuples(st.just(obj), st.sampled_from(list(_paths(obj))))),
       JSON_VALUES, oracles.SCORING_CONFIGS)
def test_load_dataset_yields_or_lists_any_line(line_file, line_and_path, value,
                                               config):
    obj, path = line_and_path
    line_file.write_text(json.dumps(_put(obj, path, value)) + "\n",
                         encoding="utf-8")
    errors = []
    loaded = list(load_dataset(line_file, config, errors=errors))
    assert len(loaded) + len(errors) == 1
    assert all(line == 1 and isinstance(message, str) for line, message in errors)


# Lines of two other matches, spliced in by the "splice" edit.
SPLICE_LINES = [rally_to_json(r) for seed in (12, 13)
                for r in simulate_match(seed=seed)[40:60]]
WINDOW = 80
POSITION_DRAW = st.integers(0, 10**6)  # taken modulo the number of lines
LINE_EDITS = st.one_of(
    st.tuples(st.sampled_from(("delete", "duplicate", "server")), POSITION_DRAW),
    st.tuples(st.just("swap"), POSITION_DRAW, POSITION_DRAW),
    st.tuples(st.just("splice"), POSITION_DRAW, POSITION_DRAW),
    st.tuples(st.just("cell"), POSITION_DRAW, st.integers(0, 1), st.integers(0, 2),
              st.sampled_from((True, 1.0, "15", "AD", -1))),
    # a player's row replaced by one of the wrong shape, or its key deleted (None)
    st.tuples(st.just("row"), POSITION_DRAW, st.integers(0, 1),
              st.sampled_from(([0, 0], [0, 0, 0, 0], "0-0", None))),
    st.tuples(st.just("board"), POSITION_DRAW),
    st.tuples(st.just("header"), POSITION_DRAW,
              st.sampled_from(("handedness", "no handedness", "name", "swap",
                               "tournament", "round", "surface", "extra", "no header")),
              st.sampled_from(PLAYER_IDS)))


def _editable(obj):
    """Whether a line still has its header and a board with a three-cell row
    per player, the parts that the line edits below rewrite."""
    board = obj.get("scoreboard")
    return "match_info" in obj and type(board) is dict and all(
        type(row) is list and len(row) == 3
        for row in (board.get(obj["match_info"][pid]["name"]) for pid in PLAYER_IDS))


def _edit_lines(lines, edit):
    """Apply one drawn edit to a list of dataset objects, in place."""
    kind, at = edit[0], edit[1] % len(lines)
    if kind == "delete":
        del lines[at]
    elif kind == "duplicate":
        lines.insert(at, copy.deepcopy(lines[at]))
    elif kind == "swap":
        other = edit[2] % len(lines)
        lines[at], lines[other] = lines[other], lines[at]
    elif kind == "splice":
        start = edit[2] % len(SPLICE_LINES)
        lines[at:at] = copy.deepcopy(SPLICE_LINES[start:start + 3])
    elif _editable(lines[at]):
        obj = lines[at] = copy.deepcopy(lines[at])
        info, board = obj["match_info"], obj["scoreboard"]
        names = [info[pid]["name"] for pid in PLAYER_IDS]
        if kind == "cell":
            _, _, row, cell, value = edit
            board[names[row]][cell] = value
        elif kind == "row":
            _, _, row, value = edit
            if value is None:
                del board[names[row]]
            else:
                board[names[row]] = value
        elif kind == "board":
            obj["scoreboard"] = list(board.values())
        elif kind == "server":
            board["server"] = names[1 - names.index(board["server"])]
        elif edit[2] == "handedness":
            player = info[edit[3]]
            player["handedness"] = ("left" if player.get("handedness") == "right"
                                    else "right")
        elif edit[2] == "no handedness":  # equal to the old header if "right"
            info[edit[3]].pop("handedness", None)
        elif edit[2] == "name":  # a renamed player, on the board too
            old = info[edit[3]]["name"]
            new = info[edit[3]]["name"] = old + " Jr"
            board[new] = board.pop(old)
            if board["server"] == old:
                board["server"] = new
        elif edit[2] == "swap":
            info["player_1"], info["player_2"] = info["player_2"], info["player_1"]
        elif edit[2] in ("tournament", "round", "surface"):
            info[edit[2]] = info.get(edit[2], "") + " Qualifying"
        elif edit[2] == "no header":
            del obj["match_info"]
        else:
            info["sponsor"] = "none"


def _decoded(obj, config, previous=None):
    try:
        return rally_from_json(obj, config, previous=previous)
    except SchemaViolation as exc:
        return str(exc)


@pytest.fixture(scope="module")
def chain_file(tmp_path_factory):
    return tmp_path_factory.mktemp("chain") / "match.jsonl"


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 100_000), oracles.SCORING_CONFIGS, oracles.SCORING_CONFIGS,
       POSITION_DRAW, st.lists(LINE_EDITS, max_size=3))
@at_pinned_formats(lambda config: (1, config, config, -1, []))
# the end of a match with a deciding-set tiebreak (seed 0, 4-game sets), with
# sets-won cells of 1 written as true and 1.0
@example(0, ScoringConfig(set_trigger_games=4), ScoringConfig(), -1,
         [("cell", 40, 0, 0, True), ("cell", 60, 1, 0, 1.0)])
# a first set, read again under a config that differs in ad scoring only
@example(1, ScoringConfig(), ScoringConfig(ad_scoring=False), 0, [])
# each header field changed once, the players swapped, the header left out
@example(1, ScoringConfig(), ScoringConfig(), 0,
         [("header", 8 * n, kind, pid) for n, (kind, pid) in enumerate(
             [("handedness", "player_1"), ("handedness", "player_2"),
              ("name", "player_1"), ("name", "player_2"), ("swap", None),
              ("tournament", None), ("round", None),
              ("surface", None), ("no header", None)], start=1)])
# each row and board edit once, on lines that would otherwise chain
@example(1, ScoringConfig(), ScoringConfig(), 0,
         [("row", 4, 0, [0, 0]), ("row", 12, 1, [0, 0, 0, 0]), ("row", 20, 0, "0-0"),
          ("row", 28, 1, None), ("board", 36)])
def test_chained_decode_equals_per_line_decode(chain_file, seed, config, other,
                                               start, edits):
    """Decoding each line against the last valid record yields the records
    and lists the errors that decoding every line on its own does; so does
    ``rally_from_json`` with a previous record decoded under another config."""
    match = simulate_match(seed=seed, config=config)
    start %= max(1, len(match) - WINDOW + 1)
    lines = [rally_to_json(r) for r in match[start:start + WINDOW]]
    for edit in edits:
        _edit_lines(lines, edit)
    chain_file.write_text("".join(json.dumps(obj) + "\n" for obj in lines),
                          encoding="utf-8")

    errors, expected_errors = [], []
    loaded = list(load_dataset(chain_file, config, errors=errors))
    expected = list(oracles.load_dataset_per_line(chain_file, config,
                                                  errors=expected_errors))
    assert loaded == expected
    assert errors == expected_errors
    if not edits:  # an unedited slice of any simulated match loads whole
        assert errors == []

    listed = {line for line, _ in errors}
    valid = [n for n in range(len(lines)) if n + 1 not in listed]
    objs = [json.loads(json.dumps(obj)) for obj in lines]
    for n, previous in zip(valid, loaded):
        if n + 1 < len(objs):
            assert (_decoded(objs[n + 1], other, previous)
                    == _decoded(objs[n + 1], other))


# Token lists over a small alphabet, so tokens repeat heavily, either short or
# longer than 64 tokens, so the LCS bit vector spans several machine words.
TOKEN_PAIRS = st.lists(st.text(max_size=3), min_size=1, max_size=4, unique=True).flatmap(
    lambda alphabet: st.tuples(*[st.one_of(
        st.lists(st.sampled_from(alphabet), max_size=12),
        st.lists(st.sampled_from(alphabet), min_size=65, max_size=150))] * 2))


@settings(deadline=None)
@given(TOKEN_PAIRS)
@example(([], []))
@example((["ace"], []))
@example((["a"] * 130, ["a", "b"] * 40))
def test_lcs_equals_dp_table(pair):
    a, b = pair
    assert _lcs(a, b) == oracles.lcs_length(a, b)


WORDS = ["Ace!", "ace", "the", "net,", "Forehand", "forehand", "down", "line.",
         "Moreau", "deuce", "...", "winner", "a", "break"]
TEXT_OF_WORDS = st.lists(st.sampled_from(WORDS), max_size=20).map(" ".join)
CORPORA = st.lists(st.tuples(TEXT_OF_WORDS,
                             st.lists(TEXT_OF_WORDS, min_size=1, max_size=3)),
                   min_size=2, max_size=8)


def _mean(values):
    return reduce(add, values, 0.0) / len(values)


@settings(deadline=None)
@given(CORPORA)
# three references; two lengths are equally close, and the shorter one counts
@example([("Ace down the line.", ["a break", "ace down line.", "Forehand down the line winner"]),
          ("deuce", ["deuce a break"])])
# an empty candidate, and one that is only punctuation
@example([("", ["the net,"]), ("...", ["a winner", "ace"]), ("winner", ["a winner"])])
# candidate grams that no reference holds take the unseen weight
@example([("Moreau forehand winner", ["the net", "a break"]), ("ace ace", ["ace", "deuce"])])
# grams counted 3 times, where ``(weight * ref_tf) * idf`` rounds differently
# from ``weight * (ref_tf * idf)``: the last bits pin the dot term's order
@example([("ace", ["a"]), ("ace ace ace net, a", ["a ace ace ace a deuce"]),
          ("ace ace ace net,", ["a deuce", "a deuce deuce ace"]),
          ("ace net,", ["deuce a a deuce net,"]), ("net,", ["ace deuce"])])
def test_corpus_metrics_are_means_of_sentence_metrics(pairs):
    bleus = [bleu4(cand, refs) for cand, refs in pairs]
    rouges = [rouge_l(cand, refs[0]) for cand, refs in pairs]
    report = corpus_metrics(pairs)
    scores = score_pairs(pairs)
    ciders = [s.cider for s in scores]
    assert [(s.bleu4, s.rouge_l) for s in scores] == list(zip(bleus, rouges))
    assert scores == oracles.exact_score_pairs(pairs)
    assert (report.bleu4, report.rouge_l, report.cider, report.pairs_evaluated) == (
        _mean(bleus), _mean(rouges), _mean(ciders), len(pairs))

    tokens = [(tokenize(cand), [tokenize(r) for r in refs]) for cand, refs in pairs]
    for (cand, refs), b, r, c, ref_c in zip(tokens, bleus, rouges, ciders,
                                          oracles.ref_cider(tokens)):
        assert abs(b - oracles.ref_bleu4(cand, refs)) <= 1e-9
        assert abs(r - oracles.ref_rouge_l(cand, refs[0])) <= 1e-9
        assert abs(c - ref_c) <= 1e-9


# Unicode digits as well as ASCII ones, AD in three cases, the two separators
# and spaces, so drawn texts hold score pairs next to longer digit runs.
SCORE_TEXT = st.lists(st.sampled_from(
    ["0", "1", "4", "5", "3", "9", "١", "٥", "１", "５", "ad", "AD", "Ad", "-", ":",
     " "]), max_size=16).map("".join)


@settings(deadline=None, max_examples=300)
@given(SCORE_TEXT)
@example("15-30 40:AD 150-3 3-05 0-0 Ad - 15 ١٥-٣٠ １５:０")
def test_score_pair_pattern_equals_pattern_with_literals(text):
    assert _SCORE_PAIR_RE.findall(text) == oracles.SCORE_PAIR_RE.findall(text)


PERSONAS = st.builds(PersonaConfig,
                     system_text=st.sampled_from((PersonaConfig().system_text,
                                                  "You are a terse umpire.")),
                     min_words=st.integers(1, 10), max_words=st.integers(10, 80))


@pytest.fixture(scope="module")
def replay_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("replay")


class RecordingMock(MockCommentaryClient):
    """The mock client, keeping each prompt that it is sent."""

    def __init__(self):
        self.sent = []

    def complete(self, request):
        bundle = request.bundle
        self.sent.append((bundle.system_text, bundle.prior_interaction,
                          bundle.user_text))
        return super().complete(request)


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 100_000), oracles.SCORING_CONFIGS, st.integers(1, 20), PERSONAS,
       st.sampled_from((16_000, 2_500)), POSITION_DRAW, st.integers(1, 60))
@at_pinned_formats(lambda config: (1, config, 16, PersonaConfig(), 16_000, -1, 60))
# a deciding-set tiebreak (seed 0, 4-game sets) to the end of the match
@example(0, ScoringConfig(set_trigger_games=4), 16, PersonaConfig(), 16_000, -1, 60)
def test_replay_equals_reference_replay(replay_dir, seed, scoring, window, persona,
                                        token_cap, start, length):
    """The ``--no-timing`` report of a simulated match, written to a file
    and replayed, and every prompt that the client is sent, equal those of
    the reference replay, which rebuilds each prompt from the whole
    history."""
    match = simulate_match(seed=seed, config=scoring)
    start %= len(match)
    objs = [rally_to_json(r) for r in match[start:start + length]]
    for obj in objs:
        del obj["commentary"]  # no references, so no corpus metrics
    dataset = replay_dir / "match.jsonl"
    dataset.write_text("".join(json.dumps(obj) + "\n" for obj in objs),
                       encoding="utf-8")
    config = PipelineConfig(scoring=scoring, memory_window=window,
                            token_cap=token_cap, persona=persona)
    config_file = replay_dir / "config.json"
    config_file.write_text(json.dumps({
        "scoring": asdict(scoring), "memory_window": window, "token_cap": token_cap,
        "persona": asdict(persona)}), encoding="utf-8")
    out = replay_dir / "report.json"

    client = RecordingMock()
    with mock.patch.object(pipeline, "make_client", lambda _: client):
        code = main(["replay", "--input", str(dataset), "--config", str(config_file),
                     "--client", "mock", "--no-timing", "--output", str(out)])
    reference, sent = oracles.replay_reference(list(load_dataset(dataset, scoring, errors=[])),
                                               config)
    assert code == (3 if reference["failures"] else 0)
    assert client.sent == sent
    assert out.read_text(encoding="utf-8") == json.dumps(
        reference, indent=2, ensure_ascii=False) + "\n"
