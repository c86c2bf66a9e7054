"""Property-based tests: the commentary sanity check on arbitrary text, and
the rally codec on simulated matches of every supported format."""

import json
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from courtside.evaluation import SanityReport, _fold, sanity_check
from courtside.event_stream import rally_from_json, rally_to_json
from courtside.match_model import ScoringConfig
from courtside.prompt_engine import parse_metadata, serialize_metadata
from courtside.simulate import simulate_match

import oracles

RECORDS = simulate_match(seed=404)[:40]
SURNAMES = sorted({r.match_info.player(pid).surname
                   for r in RECORDS for pid in ("player_1", "player_2")})

# Fragments the detectors react to: surnames (plain, accented, upper-cased),
# attribution and score terms, shot terms and score pairs.
FRAGMENTS = st.sampled_from(
    SURNAMES + [s.upper() for s in SURNAMES] + [s[0] + "́" + s[1:] for s in SURNAMES]
    + ["ace", "double fault", "unforced error", "winner", "deuce",
       "advantage", "forehand", "backhand", "smash", "volley", "lob",
       "15-0", "40:40", "AD-40", "6-6", "2-1", ". ", "! ", "? ", "...",
       "Ivanov", "é", "ﬁ", "Ω"])

TEXT = st.lists(st.one_of(st.text(max_size=12), FRAGMENTS), max_size=14).map(
    " ".join)


@settings(deadline=None)
@given(st.one_of(st.text(), st.text(st.characters(max_codepoint=127))))
def test_fold_equals_reference_fold(text):
    assert _fold(text) == oracles.fold_text(text)


@settings(deadline=None)
@given(TEXT, st.sampled_from(RECORDS),
       st.lists(st.sampled_from(["Ivanov", "Boris Ivanov", "Élodie Marchand"]
                                + SURNAMES), max_size=3))
def test_sanity_check_never_raises(text, rally, known_players):
    report = sanity_check(text, rally, known_players=known_players)
    assert isinstance(report, SanityReport)
    assert report.passed == (not report.violations)


FORMATS = (ScoringConfig(), ScoringConfig(best_of=5),
           ScoringConfig(ad_scoring=False))


def _through_json(obj):
    return json.loads(json.dumps(obj, ensure_ascii=False))


@settings(deadline=None, max_examples=15)
@given(st.integers(min_value=0, max_value=100_000), st.sampled_from(FORMATS))
def test_codec_round_trips_file_loaded_records(seed, config):
    for simulated in simulate_match(seed=seed, config=config):
        record = rally_from_json(_through_json(rally_to_json(simulated)), config)
        assert rally_from_json(_through_json(rally_to_json(record)), config) == record
        assert (parse_metadata(serialize_metadata(record), config)
                == replace(record, commentary=None))
