"""Prompt serialization, token budgeting and client boundary tests."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from courtside.event_stream import SchemaViolation
from courtside.match_model import MatchScore
from courtside.memory import MatchMemory, MemoryEntry
from courtside.prompt_engine import (
    GenerationRequest,
    GenerationResponse,
    MalformedResponse,
    MockCommentaryClient,
    PersonaConfig,
    PromptBundle,
    TransportFailure,
    build_commentary_prompt,
    estimate_tokens,
    generate,
    parse_metadata,
    serialize_memory,
    serialize_metadata,
    COMMENTATOR_SYSTEM_PROMPT,
)
from courtside.pipeline import PipelineConfig, replay_match
from courtside.simulate import simulate_match

P1, P2 = "player_1", "player_2"


@pytest.fixture(scope="module")
def records():
    return simulate_match(seed=77)


def view_after(records, n, capacity=4):
    memory = MatchMemory(capacity=capacity)
    for i, r in enumerate(records[:n]):
        memory.observe(MemoryEntry(rally_index=i, metadata=r, commentary=f"call {i}"))
    return memory.snapshot()


def names_of(records):
    info = records[0].match_info
    return info.player_1.name, info.player_2.name


class TestTokenEstimate:
    def test_empty(self):
        assert estimate_tokens("") == 0

    def test_four_hundred_chars(self):
        assert estimate_tokens("x" * 400) == 100

    def test_rounds_up(self):
        assert estimate_tokens("abcde") == 2

    def test_monotone_in_length(self):
        last = -1
        for n in range(0, 50, 3):
            count = estimate_tokens("y" * n)
            assert count >= last
            last = count


class TestSerializeMetadata:
    def test_section_names(self, records):
        obj = json.loads(serialize_metadata(records[0]))
        assert list(obj)[:6] == ["clip_id", "match_info", "score_state (initial)",
                                 "rally", "outcome",
                                 "audio_transcription (background context)"]
        assert {"server", "returner", "sets", "games_in_current_set",
                "points_in_current_game"} <= set(obj["score_state (initial)"])
        assert {"shot_index", "hitter", "shot_description"} <= set(obj["rally"][0])
        assert {"point_winner", "point_loser", "reason"} == set(obj["outcome"])

    def test_ace_rally_block(self, records):
        ace = next(r for r in records if r.outcome.reason == "ace")
        obj = json.loads(serialize_metadata(ace))
        assert obj["outcome"]["reason"] == "ace"
        serves = [e for e in obj["rally"]
                  if "serve" in e["shot_description"].split()[0]]
        assert serves and obj["rally"][-1]["shot_description"].endswith("(winner)")

    def test_round_trip_recovers_record(self, records):
        for rally in records[:40]:
            parsed = parse_metadata(serialize_metadata(rally))
            expected = replace(rally, commentary=None)
            assert parsed == expected

    def test_deterministic_output(self, records):
        assert serialize_metadata(records[3]) == serialize_metadata(records[3])


class TestParseMetadataErrors:
    """A malformed metadata block raises SchemaViolation and nothing else."""

    @staticmethod
    def block(rally):
        return json.loads(serialize_metadata(rally))

    def test_illegal_point_value(self, records):
        obj = self.block(records[0])
        name = records[0].match_info.player_1.name
        obj["score_state (initial)"]["points_in_current_game"][name] = 50
        with pytest.raises(SchemaViolation, match="illegal point value"):
            parse_metadata(json.dumps(obj))

    def test_unknown_outcome_reason(self, records):
        obj = self.block(records[0])
        obj["outcome"]["reason"] = "hawk_eye_review"
        with pytest.raises(SchemaViolation, match="unknown outcome reason"):
            parse_metadata(json.dumps(obj))

    def test_unparsable_shot_description(self, records):
        obj = self.block(records[0])
        obj["rally"][0]["shot_description"] = "a lovely shot"
        with pytest.raises(SchemaViolation,
                           match="unparsable shot description: 'a lovely shot'"):
            parse_metadata(json.dumps(obj))

    def test_unknown_hitter_name(self, records):
        obj = self.block(records[0])
        obj["rally"][0]["hitter"] = "Nobody Known"
        with pytest.raises(SchemaViolation, match="unknown player name"):
            parse_metadata(json.dumps(obj))

    def test_missing_score_state(self, records):
        obj = self.block(records[0])
        del obj["score_state (initial)"]
        with pytest.raises(SchemaViolation, match="score_state"):
            parse_metadata(json.dumps(obj))

    def test_shared_player_name(self, records):
        info = records[0].match_info
        text = serialize_metadata(records[0]).replace(
            json.dumps(info.player_2.name), json.dumps(info.player_1.name))
        with pytest.raises(SchemaViolation, match="both players are named"):
            parse_metadata(text)


class TestSerializeMemory:
    def test_empty_memory(self):
        text = serialize_memory(MatchMemory().snapshot(), ("player_1", "player_2"))
        assert "(none yet)" in text
        assert "consolidated over 0 rallies" in text
        # all-zero table
        assert "aces" in text and "points_won" in text

    def test_full_window_has_k_rows(self, records):
        view = view_after(records, 9, capacity=4)
        text = serialize_memory(view, names_of(records))
        digest = [line for line in text.splitlines()
                  if line[:2] in ("1.", "2.", "3.", "4.", "5.")]
        assert len(digest) == 4

    def test_stats_reprint_long_term_fields(self, records):
        view = view_after(records, 9, capacity=4)
        text = serialize_memory(view, names_of(records))
        for idx in (0, 1):
            line = view.stat_lines[idx]
            for name in ("aces", "winners", "points_won", "total_shots"):
                assert str(getattr(line, name)) in text


class TestBuildPrompt:
    def test_first_rally_has_no_prior(self, records):
        bundle = build_commentary_prompt(records[0], view_after(records, 0))
        assert bundle.prior_interaction is None
        assert bundle.system_text == COMMENTATOR_SYSTEM_PROMPT

    def test_single_prior_interaction(self, records):
        bundle = build_commentary_prompt(records[1], view_after(records, 1),
                                         prior=("earlier prompt", "earlier call"))
        assert bundle.prior_interaction == ("earlier prompt", "earlier call")

    def test_length_bounds_in_user_text(self, records):
        bundle = build_commentary_prompt(records[0], view_after(records, 0))
        assert "between 5 and 60 words" in bundle.user_text

    def test_persona_overrides_bounds(self, records):
        persona = PersonaConfig(min_words=10, max_words=30)
        bundle = build_commentary_prompt(records[0], view_after(records, 0),
                                         persona=persona)
        assert "between 10 and 30 words" in bundle.user_text


class TestMockClient:
    def test_deterministic_for_identical_requests(self, records):
        client = MockCommentaryClient()
        bundle = build_commentary_prompt(records[2], view_after(records, 2))
        request = GenerationRequest(bundle=bundle)
        a = generate(client, request)
        b = generate(client, request)
        assert a.text == b.text

    def test_ace_names_server_reason_and_game_closure(self, records):
        # craft an ace at 40-30 that closes the game
        base = next(r for r in records if r.outcome.reason == "ace"
                    and r.outcome.point_winner == r.initial_score.server)
        server = base.initial_score.server
        points = ("40", "30") if server == P1 else ("30", "40")
        score = MatchScore(points=points, server=server)
        rally = replace(base, initial_score=score)
        bundle = build_commentary_prompt(rally, view_after(records, 0))
        response = generate(MockCommentaryClient(), GenerationRequest(bundle=bundle))
        surname = rally.match_info.player(rally.outcome.point_winner).surname
        assert surname in response.text
        assert "ace" in response.text
        assert f"at {points[0]}-{points[1]}" in response.text
        assert "seals the game" in response.text

    def test_tally_appears_once_history_exists(self, records):
        client = MockCommentaryClient()
        early = build_commentary_prompt(records[0], view_after(records, 0))
        late = build_commentary_prompt(records[9], view_after(records, 9))
        early_text = generate(client, GenerationRequest(bundle=early)).text
        late_text = generate(client, GenerationRequest(bundle=late)).text
        assert "Tally so far" not in early_text
        assert "Tally so far" in late_text

    def test_bundle_without_rally_facts_is_malformed(self, records):
        built = build_commentary_prompt(records[2], view_after(records, 2))
        bare = PromptBundle(system_text=built.system_text,
                            user_text=built.user_text)
        assert bare == built  # the facts are not part of the prompt's identity
        with pytest.raises(MalformedResponse):
            MockCommentaryClient().complete(GenerationRequest(bundle=bare))

    def test_budget_guard_fires_before_call(self, records):
        calls = []

        class Spy:
            def complete(self, request):
                calls.append(request)
                raise AssertionError("must not be reached")

        report = replay_match(records[:3], PipelineConfig(token_cap=10),
                              client=Spy())
        assert calls == []
        assert report.failures == 3
        assert all(r.failure.startswith("BudgetExceeded: prompt estimate")
                   for r in report.rallies)


class TestMockGolden:
    def test_frozen_mock_commentaries_reproduced(self):
        golden = json.loads(
            (Path(__file__).parent / "golden" / "mock_commentary.json")
            .read_text())
        records = simulate_match(seed=golden["seed"])
        memory = MatchMemory(capacity=4)
        client = MockCommentaryClient()
        prior = None
        for i, expected in enumerate(golden["rows"]):
            rally = records[i]
            assert rally.clip_id == expected["clip_id"]
            bundle = build_commentary_prompt(rally, memory.snapshot(),
                                             prior=prior)
            text = generate(client, GenerationRequest(bundle=bundle)).text
            assert text == expected["commentary"]
            prior = (bundle.user_text, text)
            memory.observe(MemoryEntry(rally_index=i, metadata=rally, commentary=text))


class TestRetries:
    def _request(self):
        return GenerationRequest(bundle=PromptBundle(system_text="s",
                                                     user_text="u"))

    def test_transport_failures_retried_with_backoff(self):
        class Flaky:
            def __init__(self):
                self.attempts = 0

            def complete(self, request):
                self.attempts += 1
                if self.attempts < 3:
                    raise TransportFailure("connection dropped")
                return GenerationResponse(text="ok", usage={})

        slept = []
        client = Flaky()
        response = generate(client, self._request(), sleep=slept.append)
        assert response.text == "ok"
        assert client.attempts == 3
        assert slept == [0.5, 1.0]

    def test_gives_up_after_bounded_retries(self):
        class Dead:
            attempts = 0

            def complete(self, request):
                Dead.attempts += 1
                raise TransportFailure("down")

        slept = []
        with pytest.raises(TransportFailure):
            generate(Dead(), self._request(), sleep=slept.append)
        assert Dead.attempts == 4
        assert slept == [0.5, 1.0, 2.0]

    def test_malformed_response_not_retried(self):
        class Broken:
            attempts = 0

            def complete(self, request):
                Broken.attempts += 1
                raise MalformedResponse("gibberish")

        with pytest.raises(MalformedResponse):
            generate(Broken(), self._request())
        assert Broken.attempts == 1

    def test_empty_text_is_malformed(self):
        class Mute:
            def complete(self, request):
                return GenerationResponse(text="", usage={})

        with pytest.raises(MalformedResponse, match="empty commentary text"):
            generate(Mute(), self._request())


class TestBoundedContext:
    def test_context_is_constant_in_rally_index(self):
        records = simulate_match(seed=5, min_points=160)
        memory = MatchMemory(capacity=4)
        client = MockCommentaryClient()
        prior = None
        turn_sizes, context_sizes = [], []
        for i, rally in enumerate(records[:150]):
            bundle = build_commentary_prompt(rally, memory.snapshot(), prior=prior)
            turn_sizes.append(estimate_tokens(
                bundle.system_text + "\n" + bundle.user_text))
            context_sizes.append(estimate_tokens(bundle.context_text()))
            response = generate(client, GenerationRequest(bundle=bundle))
            prior = (bundle.user_text, response.text)
            memory.observe(MemoryEntry(rally_index=i, metadata=rally,
                                       commentary=response.text))
        baseline = turn_sizes[4]  # first rally with a full window behind it
        assert max(turn_sizes) <= baseline + 512
        assert max(context_sizes) <= 16_000

    def test_at_most_one_prior_interaction(self):
        bundle = PromptBundle(system_text="s", user_text="u",
                              prior_interaction=("a", "b"))
        assert isinstance(bundle.prior_interaction, tuple)
        assert len(bundle.prior_interaction) == 2
