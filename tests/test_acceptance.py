"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance and time budget is pinned here.
"""

import json
import random
import time
from pathlib import Path

import numpy as np
import pytest

from courtside.cli import main
from courtside.evaluation import (
    CriterionOutOfRange,
    MissingKey,
    UnparsableOutput,
    bleu4,
    build_judge_prompt,
    cider_scores,
    parse_scorecard,
    rouge_l,
    sanity_check,
)
from courtside.court_geometry import (
    Homography,
    PixelPoint,
    estimate_homography,
    project,
    reprojection_error,
)
from courtside.event_stream import edit_score, rally_from_json, rally_to_json, validate_rally
from courtside.match_model import (
    MatchScore,
    ScoringConfig,
    advance_point,
    is_terminal,
    other_player,
    parse_scoreboard,
    render_scoreboard,
    validate_scoreboard,
)
from courtside.memory import LongTermMemory, MatchMemory, MemoryEntry, consolidate
from courtside.pipeline import PipelineConfig, load_dataset, replay_match
from courtside.segmentation import ImpactEvent, SegmentationParams, cluster_impacts
from courtside.simulate import simulate_match

import oracles

GOLDEN_DIR = Path(__file__).parent / "golden"


def _finish(number: int, elapsed: float, budget: float, description: str):
    assert elapsed < budget, (f"criterion {number} overran its {budget}s "
                              f"budget: {elapsed:.2f}s")
    print(f"ACCEPTANCE {number:2d} PASS ({elapsed:5.2f}s < {budget:g}s): "
          f"{description}")


def test_criterion_01_scoreboard_layout_fidelity():
    started = time.perf_counter()

    ao = parse_scoreboard(*oracles.board("AO_USO", {
        "Alice": ["6", "1", "1", ""], "Bob": ["4", "6", "2", "AD"],
        "server": "Bob"}))
    assert ao.completed_sets == ((6, 4), (1, 6))
    assert ao.games == (1, 2)
    assert ao.points == ("40", "AD")
    assert ao.server == "player_2"
    assert render_scoreboard(ao, "AO_USO", ("Alice", "Bob")) == {
        "Alice": ["6", "1", "1", "40"], "Bob": ["4", "6", "2", "AD"],
        "server": "Bob"}

    rg = parse_scoreboard(*oracles.board("RG", {
        "Alice": ["6", "1", "40"], "Bob": ["4", "6", "AD"], "server": "Alice"}))
    assert rg.server == "player_1"
    assert rg.points == ("40", "AD")
    assert render_scoreboard(rg, "RG", ("Alice", "Bob")) == {
        "Alice": ["6", "1", "40"], "Bob": ["4", "6", "AD"], "server": "Alice"}

    wimbledon_visible = parse_scoreboard(*oracles.board("WIMBLEDON", {
        "Alice": ["1", "2", "15"], "Bob": ["1", "2", "30"], "server": "Alice"}))
    assert wimbledon_visible.sets_won() == (1, 1)
    assert wimbledon_visible.points == ("15", "30")
    assert render_scoreboard(wimbledon_visible, "WIMBLEDON", ("Alice", "Bob")) == {
        "Alice": ["1", "2", "15"], "Bob": ["1", "2", "30"], "server": "Alice"}

    wimbledon_hidden = parse_scoreboard(*oracles.board("WIMBLEDON", {
        "Alice": ["0", "2"], "Bob": ["1", "2"], "server": "Alice"}))
    assert wimbledon_hidden.points == ("0", "0")
    assert wimbledon_hidden.server == "player_1"
    assert render_scoreboard(wimbledon_hidden, "WIMBLEDON", ("Alice", "Bob")) == {
        "Alice": ["0", "2", "0"], "Bob": ["1", "2", "0"], "server": "Alice"}

    _finish(1, time.perf_counter() - started, 1.0,
            "all tournament scoreboard examples parse exactly, AD fill and "
            "hidden points column included")


def test_criterion_02_schema_round_trip():
    started = time.perf_counter()
    listing = {
        "clip_id": "match001_128.00_136.50",
        "match_info": {
            "tournament": "Metro Open", "round": "Final", "surface": "hard",
            "player_1": {"name": "Player A", "handedness": "right"},
            "player_2": {"name": "Player B", "handedness": "left"},
        },
        "scoreboard": {
            "Player A": [1, 2, 30],
            "Player B": [0, 3, 15],
            "server": "Player A",
        },
        "audio_transcript": "and the crowd settles again...",
        "shot_sequence": [
            {"shot_index": 0, "hitter": "player_1", "stroke": "serve",
             "technique": "flat", "direction": "T", "outcome": "in",
             "timestamp": 0.4, "serve_attempt": "first"},
            {"shot_index": 1, "hitter": "player_2", "stroke": "backhand",
             "technique": "slice", "direction": "cross-court",
             "outcome": "unforced_error", "timestamp": 1.3},
        ],
        "outcome": {"point_winner": "player_1", "point_loser": "player_2",
                    "reason": "unforced_error"},
        "commentary": "Player A takes it when the slice drifts long.",
    }
    record = rally_from_json(listing)
    assert record.initial_score.sets_won() == (1, 0)
    assert record.initial_score.games == (2, 3)
    assert record.initial_score.points == ("30", "15")
    assert record.initial_score.server == "player_1"
    assert not validate_rally(record)
    assert not validate_scoreboard(record.initial_score)
    serialized = rally_to_json(record)
    assert serialized == listing
    assert rally_from_json(serialized) == record
    _finish(2, time.perf_counter() - started, 1.0,
            "dataset listing record ingests, validates and round-trips "
            "byte-identically")


def test_criterion_03_scoring_machine_mass_simulation():
    started = time.perf_counter()
    rng = random.Random(20240809)
    players = ("player_1", "player_2")

    def expected_tb_server(first, k):
        return first if ((k + 1) // 2) % 2 == 0 else other_player(first)

    for match_index in range(1000):
        config = ScoringConfig(best_of=3 if match_index % 2 == 0 else 5)
        score = MatchScore(server=rng.choice(players), config=config)
        tb_first = None
        for _ in range(4000):
            if is_terminal(score) is not None:
                break
            if score.in_tiebreak:
                if tb_first is None:
                    tb_first = score.server
                    assert sum(score.points) == 0
                assert score.server == expected_tb_server(
                    tb_first, sum(score.points))
            nxt = advance_point(score, rng.choice(players))
            assert not validate_scoreboard(nxt)
            game_boundary = (nxt.games != score.games
                             or nxt.completed_sets != score.completed_sets
                             or nxt.in_tiebreak != score.in_tiebreak)
            if not score.in_tiebreak:
                if game_boundary:
                    assert nxt.server == other_player(score.server)
                else:
                    assert nxt.server == score.server
            elif not nxt.in_tiebreak:
                assert nxt.completed_sets != score.completed_sets
                assert nxt.server == other_player(tb_first)
                tb_first = None
            score = nxt
        assert is_terminal(score) is not None, "match failed to terminate"
    _finish(3, time.perf_counter() - started, 10.0,
            "1,000 random matches terminate with every state valid and both "
            "serve rotations intact")


def test_criterion_04_memory_oracle_equivalence():
    started = time.perf_counter()
    records = simulate_match(seed=88, min_points=10_000)
    assert len(records) >= 10_000

    memory = MatchMemory(capacity=4)
    for t, record in enumerate(records, start=1):
        memory.observe(MemoryEntry(rally_index=t - 1, metadata=record, commentary=None))
        assert len(memory.short) == min(t, 4)
        assert memory.long.rallies_consolidated == max(0, t - 4)
    memory.flush()

    batch = LongTermMemory()
    for record in records:
        consolidate(batch, record)
    assert memory.long.stat_lines == batch.stat_lines
    assert memory.long.rallies_consolidated == len(records)

    # field-by-field against the independent recount of the raw log
    recount = oracles.stat_recount(records)
    for idx, pid in enumerate(("player_1", "player_2")):
        line = memory.long.stat_lines[idx]
        for field_name, value in recount[pid].items():
            assert getattr(line, field_name) == value, (pid, field_name)
    _finish(4, time.perf_counter() - started, 10.0,
            "10,000 streamed rallies: window bookkeeping exact, final "
            "statistics equal the batch recount on every field")


def test_criterion_05_homography_recovery():
    started = time.perf_counter()
    rng = np.random.default_rng(515)
    checked = 0
    while checked < 100:
        m = rng.normal(size=(3, 3))
        m[2, 2] = 3.0 + abs(m[2, 2])
        if abs(np.linalg.det(m)) < 0.1 or np.linalg.cond(m) > 50.0:
            continue
        truth = Homography.from_array(m)
        pairs = []
        while len(pairs) < 6:
            p = PixelPoint(float(rng.uniform(-4, 4)), float(rng.uniform(-4, 4)))
            try:
                pairs.append((p, project(truth, p)))
            except Exception:
                continue
        estimated = estimate_homography(pairs)
        assert reprojection_error(estimated, pairs) < 1e-6
        inverse = estimated.inverse()
        for pixel, court in pairs:
            back = project(inverse, PixelPoint(court.x, court.y))
            assert abs(back.x - pixel.x) < 1e-9
            assert abs(back.y - pixel.y) < 1e-9
        checked += 1
    _finish(5, time.perf_counter() - started, 5.0,
            "100 random homographies recovered from 6 exact correspondences "
            "(RMS < 1e-6, inverse round-trip < 1e-9)")


def test_criterion_06_bounded_context():
    started = time.perf_counter()
    records = simulate_match(seed=66, min_points=500)
    assert len(records) >= 500
    report = replay_match(records, PipelineConfig())
    sizes = [r.prompt_tokens for r in report.rallies]
    assert all(size <= 16_000 for size in sizes)
    assert all(r.context_tokens <= 16_000 for r in report.rallies)
    baseline = sizes[4]  # t = K + 1 with K = 4
    assert max(sizes) <= baseline + 512, (max(sizes), baseline)
    _finish(6, time.perf_counter() - started, 30.0,
            f"500-rally prompt sizes bounded (max {max(sizes)} tokens, "
            f"baseline {baseline}, growth {max(sizes) - baseline} <= 512)")


def test_criterion_07_engine_latency():
    started = time.perf_counter()
    records = simulate_match(seed=70, min_points=100)[:100]
    report = replay_match(records, PipelineConfig())
    worst = max(r.engine_ms for r in report.rallies)
    assert worst < 100.0, f"worst per-rally engine time {worst:.1f} ms"
    _finish(7, time.perf_counter() - started, 30.0,
            f"per-rally engine time excluding client calls stays under "
            f"100 ms (worst {worst:.1f} ms)")


def test_criterion_08_metric_identities_and_oracles():
    started = time.perf_counter()
    text = "a heavy topspin forehand pins the returner deep"
    assert bleu4(text, [text]) == pytest.approx(1.0)
    assert rouge_l(text, text) == pytest.approx(1.0)
    assert bleu4("alpha beta gamma delta", ["omega psi chi phi"]) == 0.0
    assert rouge_l("alpha beta gamma", "omega psi chi") == 0.0

    rng = random.Random(808)
    alphabet = ["serve", "fh", "bh", "volley", "bounce_near", "bounce_far"]
    for _ in range(1000):
        a = [rng.choice(alphabet) for _ in range(rng.randint(0, 15))]
        b = [rng.choice(alphabet) for _ in range(rng.randint(0, 15))]
        distance = oracles.levenshtein(a, b)
        longest = max(len(a), len(b))
        expected = 100.0 if longest == 0 else 100.0 * (1.0 - distance / longest)
        assert edit_score(a, b) == expected

    golden = json.loads((GOLDEN_DIR / "metrics_golden.json").read_text())
    corpus = [(e["candidate"], e["references"]) for e in golden["corpus"]]
    for (cand, refs), expected in zip(corpus, golden["bleu4"]):
        assert bleu4(cand, refs) == pytest.approx(expected, abs=1e-6)
    for got, expected in zip(cider_scores(corpus), golden["cider"]):
        assert got == pytest.approx(expected, abs=1e-6)
    _finish(8, time.perf_counter() - started, 10.0,
            "metric identities hold, edit score matches the DP oracle on "
            "1,000 pairs, frozen golden corpus reproduced within 1e-6")


def test_criterion_09_judge_rubric():
    started = time.perf_counter()
    valid = parse_scorecard(json.dumps({
        "scores": {"accuracy": 20, "coherence": 20, "excitement": 20,
                   "professionalism": 20, "pacing": 20},
        "total_score": 100}))
    assert valid.total == 100 and not valid.corrected

    corrected = parse_scorecard(json.dumps({
        "scores": {"accuracy": 18, "coherence": 18, "excitement": 18,
                   "professionalism": 17, "pacing": 17},
        "total_score": 85}))
    assert corrected.total == 88 and corrected.corrected

    with pytest.raises(CriterionOutOfRange):
        parse_scorecard(json.dumps({
            "scores": {"accuracy": 25, "coherence": 0, "excitement": 0,
                       "professionalism": 0, "pacing": 0},
            "total_score": 25}))
    with pytest.raises(MissingKey):
        parse_scorecard('{"scores": {"accuracy": 1}, "total_score": 1}')
    with pytest.raises(UnparsableOutput):
        parse_scorecard("a fine effort, I give it ninety")

    bundle = build_judge_prompt("<<METADATA-SLOT>>", "<<REFERENCE-SLOT>>",
                                "<<PREDICTION-SLOT>>")
    assert bundle.system_text == (GOLDEN_DIR / "judge_prompt_system.txt").read_text()
    assert bundle.user_text == (GOLDEN_DIR / "judge_prompt_user.txt").read_text()
    _finish(9, time.perf_counter() - started, 1.0,
            "scorecard bounds and total correction enforced; judge prompt "
            "matches the golden template")


def test_criterion_10_segmentation_oracle():
    started = time.perf_counter()
    rng = random.Random(1010)
    for _ in range(1000):
        n = rng.randint(0, 35)
        events = [ImpactEvent(timestamp=round(rng.uniform(0, 90), 3),
                              confidence=round(rng.random(), 3))
                  for _ in range(n)]
        params = SegmentationParams(
            confidence_threshold=round(rng.uniform(0.0, 0.9), 2),
            max_gap_s=round(rng.uniform(0.2, 5.0), 2),
            min_hits=rng.randint(1, 4),
            padding_s=round(rng.uniform(0.0, 2.0), 2),
        )
        got = [(i.start, i.end, i.hit_count)
               for i in cluster_impacts(events, params)]
        expected = oracles.brute_force_clusters(
            [(e.timestamp, e.confidence) for e in events],
            params.confidence_threshold, params.max_gap_s, params.min_hits,
            params.padding_s)
        assert got == expected

    # monotonicity in the confidence threshold and the min-hit rule
    events = [ImpactEvent(timestamp=round(rng.uniform(0, 90), 3),
                          confidence=round(rng.random(), 3))
              for _ in range(150)]
    previous_events = None
    for threshold in (0.1, 0.3, 0.5, 0.7, 0.9):
        kept = sum(1 for e in events if e.confidence >= threshold)
        if previous_events is not None:
            assert kept <= previous_events
        previous_events = kept
    previous_intervals = None
    for min_hits in (1, 2, 3, 4, 6):
        count = len(cluster_impacts(events, SegmentationParams(min_hits=min_hits)))
        if previous_intervals is not None:
            assert count <= previous_intervals
        previous_intervals = count
    _finish(10, time.perf_counter() - started, 10.0,
            "clustering equals brute-force transitive closure on 1,000 "
            "streams; threshold and min-hit monotonicity hold")


def test_criterion_11_end_to_end_determinism(tmp_path):
    started = time.perf_counter()
    match_path = tmp_path / "match.jsonl"
    assert main(["simulate", "--seed", "31", "--output", str(match_path)]) == 0

    out_a = tmp_path / "run_a.json"
    out_b = tmp_path / "run_b.json"
    assert main(["replay", "--input", str(match_path), "--client", "mock",
                 "--no-timing", "--output", str(out_a)]) == 0
    assert main(["replay", "--input", str(match_path), "--client", "mock",
                 "--no-timing", "--output", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()

    report = json.loads(out_a.read_text())
    assert report["failures"] == 0
    assert all(r["sanity_passed"] for r in report["rallies"])

    # belt and braces: re-run sanity on the emitted commentaries
    records = list(load_dataset(match_path, errors=[]))
    for row, record in zip(report["rallies"], records):
        assert not sanity_check(row["commentary"], record)
    _finish(11, time.perf_counter() - started, 30.0,
            f"mock replay of {len(records)} rallies byte-identical across "
            f"runs; every commentary passes the sanity check")
