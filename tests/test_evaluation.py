"""Text metrics, sanity checking, judge prompt and scorecard tests."""

import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

from courtside.evaluation import (
    CorpusTooSmall,
    CriterionOutOfRange,
    JudgeScorecard,
    MissingKey,
    MockJudgeClient,
    UnparsableOutput,
    _left_sum,
    aggregate,
    bleu4,
    build_judge_prompt,
    cider,
    corpus_metrics,
    parse_scorecard,
    rouge_l,
    sanity_check,
    score_pairs,
    tokenize,
)
from courtside.prompt_engine import (
    GenerationRequest,
    MockCommentaryClient,
    build_commentary_prompt,
    generate,
)
from courtside.match_model import MatchScore
from courtside.memory import MatchMemory, MemoryEntry
from courtside.simulate import simulate_match

import oracles

GOLDEN = json.loads((Path(__file__).parent / "golden" / "metrics_golden.json")
                    .read_text())
CORPUS = [(entry["candidate"], entry["references"]) for entry in GOLDEN["corpus"]]


class TestTokenizer:
    def test_lowercase_and_punctuation(self):
        assert tokenize("Moreau fires, an ACE!") == ["moreau", "fires", "an", "ace"]

    def test_whitespace_split(self):
        assert tokenize("a\tb\n c") == ["a", "b", "c"]

    def test_empty(self):
        assert tokenize("  ") == []


class TestBleu:
    def test_identical_pair_is_one(self):
        text = "a clean backhand winner down the line"
        assert bleu4(text, [text]) == pytest.approx(1.0)

    def test_disjoint_pair_is_zero(self):
        assert bleu4("alpha beta gamma delta", ["epsilon zeta eta theta"]) == 0.0

    def test_golden_values(self):
        for (cand, refs), expected in zip(CORPUS, GOLDEN["bleu4"]):
            assert bleu4(cand, refs) == pytest.approx(expected, abs=1e-6)

    def test_matches_oracle_on_random_texts(self):
        rng = random.Random(31)
        vocab = "serve return winner error net forehand backhand deep short".split()
        for _ in range(300):
            cand = " ".join(rng.choices(vocab, k=rng.randint(1, 12)))
            refs = [" ".join(rng.choices(vocab, k=rng.randint(1, 12)))
                    for _ in range(rng.randint(1, 3))]
            expected = oracles.ref_bleu4(tokenize(cand), [tokenize(r) for r in refs])
            assert bleu4(cand, refs) == pytest.approx(expected, abs=1e-9)

    def test_whitespace_normalization_invariance(self):
        a = "a  strong   kick serve"
        b = "a strong kick serve"
        assert bleu4(a, [b]) == bleu4(b, [a]) == pytest.approx(1.0)


class TestRouge:
    def test_identical_is_one(self):
        assert rouge_l("the same words", "the same words") == pytest.approx(1.0)

    def test_disjoint_is_zero(self):
        assert rouge_l("aa bb cc", "dd ee ff") == 0.0

    def test_hand_computed_lcs_case(self):
        # candidate "a b c d" vs reference "a c d e": LCS 3, P = R = 3/4
        beta_sq = 1.2 ** 2
        p = r = 3 / 4
        expected = (1 + beta_sq) * p * r / (r + beta_sq * p)
        assert rouge_l("a b c d", "a c d e") == pytest.approx(expected)

    def test_golden_values(self):
        for (cand, refs), expected in zip(CORPUS, GOLDEN["rouge_l"]):
            assert rouge_l(cand, refs[0]) == pytest.approx(expected, abs=1e-6)


class TestLeftSum:
    def test_folds_left_to_right_without_compensation(self):
        # compensated summation (builtin sum since Python 3.12) gives 1.0
        assert _left_sum([1e16, 1.0, -1e16]) == 0.0

    def test_empty_is_zero(self):
        assert _left_sum([]) == 0.0


class TestCider:
    def test_golden_values(self):
        scores = [s.cider for s in score_pairs(CORPUS)]
        for got, expected in zip(scores, GOLDEN["cider"]):
            assert got == pytest.approx(expected, abs=1e-6)
        assert cider(CORPUS) == pytest.approx(GOLDEN["cider_mean"], abs=1e-6)

    def test_identical_candidate_maximal_in_varied_corpus(self):
        scores = [s.cider for s in score_pairs(CORPUS)]
        assert scores[0] == pytest.approx(10.0, abs=1e-9)
        assert max(scores) <= 10.0 + 1e-9

    def test_disjoint_candidate_scores_zero(self):
        assert score_pairs(CORPUS)[5].cider == 0.0

    def test_corpus_too_small(self):
        with pytest.raises(CorpusTooSmall):
            cider([("a b", ["a b"])])

    def test_corpus_metrics_means(self):
        report = corpus_metrics(CORPUS)
        assert report.bleu4 == pytest.approx(GOLDEN["bleu4_mean"], abs=1e-6)
        assert report.rouge_l == pytest.approx(GOLDEN["rouge_l_mean"], abs=1e-6)
        assert report.cider == pytest.approx(GOLDEN["cider_mean"], abs=1e-6)
        assert report.pairs_evaluated == 10


@pytest.fixture(scope="module")
def records():
    return simulate_match(seed=404)


def mock_commentary_for(records, index):
    memory = MatchMemory(capacity=4)
    client = MockCommentaryClient()
    for i, rally in enumerate(records[: index + 1]):
        bundle = build_commentary_prompt(rally, memory.snapshot())
        text = generate(client, GenerationRequest(bundle=bundle)).text
        if i == index:
            return text
        memory.observe(MemoryEntry(rally_index=i, metadata=rally, commentary=text))
    raise AssertionError


class TestSanityCheck:
    def test_reference_commentary_self_consistent(self, records):
        for rally in records:
            report = sanity_check(rally.commentary, rally)
            assert not report, (rally.clip_id, report)

    def test_mock_commentary_self_consistent(self, records):
        for index in (0, 3, 7, 11):
            rally = records[index]
            text = mock_commentary_for(records, index)
            report = sanity_check(text, rally)
            assert not report, (rally.clip_id, text, report)

    def test_wrong_actor_on_final_winner_flagged(self, records):
        rally = next(r for r in records if r.outcome.reason == "winner")
        loser = rally.match_info.player(rally.outcome.point_loser).surname
        commentary = f"{loser} crushes the winner."
        report = sanity_check(commentary, rally)
        assert any(v.kind == "player_name" for v in report)

    def test_inconsistent_score_flagged(self, records):
        rally = records[0]  # fresh match: points 0-0
        report = sanity_check("They arrive at 30-30 in a flash.", rally)
        assert any(v.kind == "score_mention" for v in report)

    def test_consistent_post_point_score_allowed(self, records):
        rally = records[0]
        # first point of the match: 15-0 (in some order) is the post state
        report = sanity_check("And that makes it 15-0.", rally)
        score_flags = [v for v in report if v.kind == "score_mention"]
        assert score_flags == []

    def test_phantom_shot_term_flagged(self, records):
        rally = next(r for r in records if r.outcome.reason == "double_fault")
        report = sanity_check("A gorgeous smash ends it.", rally)
        assert any(v.kind == "shot_term" for v in report)

    def test_deuce_mention_checked(self, records):
        rally = records[0]
        report = sanity_check("Deuce already!", rally)
        assert any("deuce" in v.detail for v in report)

    def test_advantage_pair_mention_valid_when_ad_held(self, records):
        base = next(r for r in records if not r.initial_score.in_tiebreak)
        server = base.initial_score.server
        points = ("40", "AD") if server == "player_1" else ("AD", "40")
        score = MatchScore(points=points, server=server)
        rally = replace(base, initial_score=score)
        report = sanity_check(f"Advantage saved at {points[0]}-{points[1]}.",
                              rally)
        assert not any(v.kind == "score_mention" for v in report)

    def test_advantage_mention_invalid_without_ad(self, records):
        rally = records[0]
        report = sanity_check("Advantage to the server.", rally)
        assert any("advantage" in v.detail for v in report)


class TestJudgePrompt:
    def test_rubric_header_present(self):
        bundle = build_judge_prompt("m", "r", "p")
        assert "SCORING RUBRIC (0-20 points per category, Total 100)" in bundle.user_text

    def test_slots_appear_exactly_once(self):
        bundle = build_judge_prompt("<<M>>", "<<R>>", "<<P>>")
        assert bundle.user_text.count("<<M>>") == 1
        assert bundle.user_text.count("<<R>>") == 1
        assert bundle.user_text.count("<<P>>") == 1

    def test_matches_golden_template(self):
        golden_dir = Path(__file__).parent / "golden"
        bundle = build_judge_prompt("<<METADATA-SLOT>>", "<<REFERENCE-SLOT>>",
                                    "<<PREDICTION-SLOT>>")
        assert bundle.system_text == (golden_dir / "judge_prompt_system.txt").read_text()
        assert bundle.user_text == (golden_dir / "judge_prompt_user.txt").read_text()

    def test_output_keys_demanded(self):
        bundle = build_judge_prompt("m", "r", "p")
        for key in ('"accuracy"', '"coherence"', '"excitement"',
                    '"professionalism"', '"pacing"', '"total_score"'):
            assert key in bundle.user_text

    def test_empty_slot_rejected(self):
        with pytest.raises(ValueError):
            build_judge_prompt("", "r", "p")


class TestParseScorecard:
    def test_maximum_card(self):
        card = parse_scorecard(json.dumps({
            "scores": {c: 20 for c in ("accuracy", "coherence", "excitement",
                                       "professionalism", "pacing")},
            "total_score": 100,
        }))
        assert card.total == 100
        assert not card.corrected

    def test_flat_shape_accepted(self):
        card = parse_scorecard('{"accuracy": 10, "coherence": 11, '
                               '"excitement": 12, "professionalism": 13, '
                               '"pacing": 14, "total": 60}')
        assert card.total == 60

    def test_total_mismatch_corrected_and_flagged(self):
        card = parse_scorecard(json.dumps({
            "scores": {"accuracy": 18, "coherence": 18, "excitement": 18,
                       "professionalism": 17, "pacing": 17},
            "total_score": 85,
        }))
        assert card.total == 88
        assert card.corrected

    def test_out_of_range_rejected(self):
        with pytest.raises(CriterionOutOfRange):
            parse_scorecard(json.dumps({
                "scores": {"accuracy": 25, "coherence": 10, "excitement": 10,
                           "professionalism": 10, "pacing": 10},
                "total_score": 65,
            }))

    def test_missing_key_rejected(self):
        with pytest.raises(MissingKey):
            parse_scorecard('{"scores": {"accuracy": 10}, "total_score": 10}')

    def test_python_dict_string_accepted(self):
        card = parse_scorecard("{'scores': {'accuracy': 9, 'coherence': 9, "
                               "'excitement': 9, 'professionalism': 9, "
                               "'pacing': 9}, 'total_score': 45}")
        assert card.total == 45

    def test_fenced_output_accepted(self):
        payload = json.dumps({"scores": {c: 5 for c in (
            "accuracy", "coherence", "excitement", "professionalism",
            "pacing")}, "total_score": 25})
        card = parse_scorecard(f"```json\n{payload}\n```")
        assert card.total == 25

    def test_garbage_rejected(self):
        with pytest.raises(UnparsableOutput):
            parse_scorecard("the commentary was quite good, 17/20 overall")

    # too deep for the JSON decoder's recursion, for literal_eval's recursion
    # and for the parser's stack; which error each raises varies by version
    @pytest.mark.parametrize("text", ["[" * 100_000, "-" * 5_000 + "1",
                                      "-" * 10_001 + "1"],
                             ids=["brackets", "minus_5000", "minus_10001"])
    def test_deep_nesting_is_unparsable(self, text):
        with pytest.raises(UnparsableOutput):
            parse_scorecard(text)

    def test_bool_is_not_an_int_score(self):
        with pytest.raises(CriterionOutOfRange):
            parse_scorecard('{"accuracy": true, "coherence": 1, '
                            '"excitement": 1, "professionalism": 1, '
                            '"pacing": 1, "total": 5}')


class TestMockJudge:
    def test_deterministic_scorecard(self, records):
        rally = records[0]
        bundle = build_judge_prompt("metadata block", rally.commentary,
                                    "A solid point for the server.")
        client = MockJudgeClient()
        a = client.complete(GenerationRequest(bundle=bundle)).text
        b = client.complete(GenerationRequest(bundle=bundle)).text
        assert a == b
        card = parse_scorecard(a)
        assert 0 <= card.total <= 100

    def test_identical_prediction_scores_full_accuracy(self, records):
        rally = records[0]
        bundle = build_judge_prompt("metadata", rally.commentary,
                                    rally.commentary)
        card = parse_scorecard(
            MockJudgeClient().complete(GenerationRequest(bundle=bundle)).text)
        assert card.accuracy == 20

    def test_scores_from_bundle_fields_not_prompt_text(self, records):
        bundle = build_judge_prompt("metadata", records[0].commentary,
                                    "A deep forehand winner down the line!")
        unrelated = replace(bundle, user_text="nothing to parse here")
        client = MockJudgeClient()
        assert (client.complete(GenerationRequest(bundle=unrelated)).text
                == client.complete(GenerationRequest(bundle=bundle)).text)


class TestAggregate:
    def _card(self, base):
        values = {c: min(20, base + i) for i, c in enumerate(
            ("accuracy", "coherence", "excitement", "professionalism", "pacing"))}
        return JudgeScorecard(**values)

    def test_single_scorecard_means_equal_itself(self):
        card = self._card(10)
        summary = aggregate([card])
        assert summary["judge"]["accuracy_mean"] == card.accuracy
        assert summary["judge"]["total_mean"] == card.total

    def test_two_scorecards_arithmetic_mean(self):
        a, b = self._card(8), self._card(12)
        summary = aggregate([a, b])
        assert summary["judge"]["pacing_mean"] == (a.pacing + b.pacing) / 2

    def test_hundred_random_scorecards_match_recount(self):
        rng = random.Random(13)
        cards = []
        for _ in range(100):
            values = {c: rng.randint(0, 20) for c in (
                "accuracy", "coherence", "excitement", "professionalism",
                "pacing")}
            cards.append(JudgeScorecard(**values))
        summary = aggregate(cards)
        for name in ("accuracy", "coherence", "excitement", "professionalism",
                     "pacing", "total"):
            expected = sum(getattr(c, name) for c in cards) / len(cards)
            assert summary["judge"][f"{name}_mean"] == pytest.approx(expected)
