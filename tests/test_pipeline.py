"""Dataset ingestion, replay loop and CLI behavior tests."""

import errno
import json
import os
import subprocess
import sys
import threading
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from courtside import cli, event_stream
from courtside.cli import main
from courtside.event_stream import rally_to_json
from courtside.match_model import ScoringConfig, is_terminal, advance_point
from courtside.pipeline import (
    ConfigError,
    PipelineConfig,
    RallyRunRecord,
    load_dataset,
    replay_match,
)
from courtside.prompt_engine import MockCommentaryClient, TransportFailure
from courtside.simulate import simulate_match

import oracles

P1, P2 = "player_1", "player_2"


@pytest.fixture(scope="module")
def records():
    return simulate_match(seed=2024)


@pytest.fixture()
def dataset_file(tmp_path, records):
    path = tmp_path / "match.jsonl"
    path.write_text("\n".join(json.dumps(rally_to_json(r)) for r in records)
                    + "\n", encoding="utf-8")
    return path


def _run_cli(argv, **kwargs):
    """``python -m courtside.cli`` in a fresh interpreter whose stdout is
    buffered, as a console's is (the environment's PYTHONUNBUFFERED dropped)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "courtside.cli", *argv], env=env,
                          stderr=subprocess.PIPE, text=True, timeout=60, **kwargs)


def _board(obj, row_1, row_2):
    info = obj["match_info"]
    obj["scoreboard"].update({info["player_1"]["name"]: row_1,
                              info["player_2"]["name"]: row_2})


def _first_serve(obj, **changes):
    return {**obj["shot_sequence"][0], **changes}


# Each edit breaks one rule of a line: a decoding, event or scoreboard rule.
BROKEN_LINES = {
    "winner_is_loser": (
        lambda o: o["outcome"].update(point_loser=o["outcome"]["point_winner"]),
        "outcome: point winner and loser must differ"),
    "clip_bounds_not_numeric": (
        lambda o: o.update(clip_id="sim2024_start_end"),
        "sim2024_start_end: clip_id boundaries must be numeric: "
        "'sim2024_start_end'"),
    "clip_id_without_bounds": (
        lambda o: o.update(clip_id="sim2024"),
        "sim2024: clip_id must look like matchID_start_end: 'sim2024'"),
    "first_shot_not_a_serve": (
        lambda o: o["shot_sequence"][0].update(stroke="forehand"),
        "first event must be a serve, got 'forehand'"),
    "shot_index_out_of_order": (
        lambda o: o["shot_sequence"][1].update(shot_index=7),
        "shot 1 carries index 7"),
    "fault_retried_as_first_serve": (
        lambda o: o.update(shot_sequence=[
            _first_serve(o, outcome="fault"),
            _first_serve(o, shot_index=1, timestamp=1.5, outcome="winner")]),
        "shot 1: retry after a fault must be a second serve"),
    "serve_in_mid_rally": (
        lambda o: o["shot_sequence"][1].update(stroke="serve",
                                               serve_attempt="second"),
        "shot 1: serve in the middle of a rally"),
    "last_shot_in": (
        lambda o: o.update(shot_sequence=[_first_serve(o, outcome="in")]),
        "outcome cannot be derived: rally still live after 'in'"),
    "negative_cell": (
        lambda o: _board(o, [0, -1, 0], [0, 0, 15]),
        "scoreboard: games column must be a non-negative integer, got '-1'"),
    "advantage_at_six_all": (
        lambda o: _board(o, [0, 6, "AD"], [0, 6, 40]),
        "scoreboard: AD is not a legal tiebreak point value"),
}


class TestLoadDataset:
    @pytest.mark.parametrize("edit,message", BROKEN_LINES.values(),
                             ids=BROKEN_LINES.keys())
    def test_broken_line_is_listed_with_its_rule(self, tmp_path, records, edit,
                                                 message):
        """A line that breaks one rule is listed with that rule's message, and
        the lines around it load."""
        objs = [rally_to_json(r) for r in records[:3]]
        edit(objs[1])
        path = tmp_path / "one_broken_line.jsonl"
        path.write_text("".join(json.dumps(o) + "\n" for o in objs),
                        encoding="utf-8")
        errors = []
        loaded = list(load_dataset(path, errors=errors))
        assert [r.clip_id for r in loaded] == [records[0].clip_id,
                                               records[2].clip_id]
        [(line, text)] = errors
        assert line == 2 and message in text

    def test_non_ascii_name_loads(self, tmp_path, records):
        """A name outside ASCII is valid Unicode: written as UTF-8, each line
        loads and writes back as it was read."""
        objs = [rally_to_json(r) for r in records[:5]]
        old = records[0].match_info.player_1.name
        for obj in objs:
            obj["match_info"]["player_1"]["name"] = "Zoë Ångström"
            board = obj["scoreboard"]
            board["Zoë Ångström"] = board.pop(old)
            if board["server"] == old:
                board["server"] = "Zoë Ångström"
        path = tmp_path / "non_ascii.jsonl"
        path.write_text("".join(json.dumps(o, ensure_ascii=False) + "\n"
                                for o in objs), encoding="utf-8")
        errors = []
        loaded = list(load_dataset(path, errors=errors))
        assert errors == []
        assert [rally_to_json(r) for r in loaded] == objs

    def test_round_trips_full_file(self, dataset_file, records):
        errors = []
        loaded = list(load_dataset(dataset_file, errors=errors))
        assert errors == []
        assert len(loaded) == len(records)
        # the wire format carries sets as won-counts, so equality holds at
        # the JSON level, and at the record level after one canonicalization
        for got, expected in zip(loaded, records):
            assert rally_to_json(got) == rally_to_json(expected)
        reloaded = [json.loads(json.dumps(rally_to_json(r))) for r in loaded]
        assert [rally_to_json(r) for r in loaded] == reloaded

    def test_reports_malformed_lines_with_numbers(self, tmp_path, records):
        good = json.dumps(rally_to_json(records[0]))
        bad_json = "{not json"
        missing_field = json.dumps(
            {k: v for k, v in rally_to_json(records[1]).items() if k != "clip_id"})
        path = tmp_path / "mixed.jsonl"
        path.write_text("\n".join([good, bad_json, missing_field]) + "\n",
                        encoding="utf-8")
        errors = []
        loaded = list(load_dataset(path, errors=errors))
        assert len(loaded) == 1
        assert [line for line, _ in errors] == [2, 3]
        assert "clip_id" in errors[1][1]

    def test_deeply_nested_line_is_listed(self, tmp_path, records):
        path = tmp_path / "nested.jsonl"
        path.write_text("[" * 100_000 + "]" * 100_000 + "\n"
                        + json.dumps(rally_to_json(records[0])) + "\n",
                        encoding="utf-8")
        errors = []
        assert len(list(load_dataset(path, errors=errors))) == 1
        assert [line for line, _ in errors] == [1]
        assert "invalid JSON" in errors[0][1]

    def test_trigger_one_file_loads(self, tmp_path):
        """Under a set trigger of 1, a won set is rebuilt as 2-0, a finished
        set (1-0 is still live), so a simulated file loads with no listed line."""
        config = ScoringConfig(set_trigger_games=1, tiebreak_points=1,
                               final_set_tiebreak_points=1)
        records = simulate_match(seed=7, config=config)
        assert len(records[-1].initial_score.completed_sets) >= 1
        path = tmp_path / "trigger_one.jsonl"
        path.write_text("".join(json.dumps(rally_to_json(r)) + "\n" for r in records),
                        encoding="utf-8")
        errors = []
        loaded = list(load_dataset(path, config, errors=errors))
        assert errors == []
        assert [rally_to_json(r) for r in loaded] == [rally_to_json(r) for r in records]

    def test_missing_file_raises(self):
        with pytest.raises(FileNotFoundError):
            list(load_dataset("/nonexistent/match.jsonl", errors=[]))

    def test_records_share_one_default_config(self, dataset_file, records):
        """Without a config, one default serves the whole file, so each new
        set's parsed board and every chained score carry the same object."""
        assert len(records[-1].final_score.completed_sets) >= 2
        loaded = list(load_dataset(dataset_file, errors=[]))
        configs = {id(score.config) for r in loaded
                   for score in (r.initial_score, r.final_score)}
        assert len(configs) == 1

    def test_board_parsed_once_per_set(self, dataset_file, records, monkeypatch):
        """On a best-of-3 file, a line that shows the previous record's post-point board takes it
        unparsed; the first line, and the first after each set, are parsed."""
        parses = []

        def counting_parse(*args, **kwargs):
            parses.append(args)
            return original(*args, **kwargs)

        original = event_stream.parse_scoreboard
        monkeypatch.setattr(event_stream, "parse_scoreboard", counting_parse)
        errors = []
        loaded = list(load_dataset(dataset_file, errors=errors))
        assert errors == [] and len(loaded) == len(records)
        sets_played = len(records[-1].final_score.completed_sets)
        assert 1 <= len(parses) <= 1 + sets_played

    def test_clip_id_parsed_once_per_line(self, dataset_file, records,
                                          monkeypatch):
        """The clip id has one reader, validate_rally: the decoder checks only
        that it is a string."""
        parses = []

        def counting_parse(clip_id):
            parses.append(clip_id)
            return original(clip_id)

        original = event_stream.parse_clip_id
        monkeypatch.setattr(event_stream, "parse_clip_id", counting_parse)
        errors = []
        loaded = list(load_dataset(dataset_file, errors=errors))
        assert errors == [] and len(loaded) == len(records)
        assert parses == [r.clip_id for r in records]

    def test_header_without_handedness_still_chains(self, tmp_path, records):
        """Lines that omit both ``handedness`` keys are decoded against the line
        before, since headers are compared with the decode's defaults: the file
        loads as the per-line loader loads it, and inside each set every record
        starts at its predecessor's cached final score."""
        path = tmp_path / "no_handedness.jsonl"
        objs = [rally_to_json(r) for r in records]
        for obj in objs:
            for pid in (P1, P2):
                del obj["match_info"][pid]["handedness"]
        path.write_text("".join(json.dumps(obj) + "\n" for obj in objs),
                        encoding="utf-8")
        loaded = list(load_dataset(path, errors=[]))
        assert loaded == list(oracles.load_dataset_per_line(path, errors=[]))
        assert len(loaded) == len(records)
        for before, after in zip(loaded, loaded[1:]):
            if (len(after.initial_score.completed_sets)
                    == len(before.initial_score.completed_sets)):
                assert after.initial_score is before.final_score

    def test_order_preserved_on_large_file(self, tmp_path):
        records = simulate_match(seed=9, min_points=1000)
        path = tmp_path / "big.jsonl"
        path.write_text("\n".join(json.dumps(rally_to_json(r)) for r in records)
                        + "\n", encoding="utf-8")
        loaded = list(load_dataset(path, errors=[]))
        assert len(loaded) == len(records)
        assert [r.clip_id for r in loaded] == [r.clip_id for r in records]


class TestSimulateContract:
    def test_same_seed_identical_stream(self):
        a = [json.dumps(rally_to_json(r)) for r in simulate_match(seed=50)]
        b = [json.dumps(rally_to_json(r)) for r in simulate_match(seed=50)]
        assert a == b

    def test_match_terminates_with_winner(self, records):
        final = advance_point(records[-1].initial_score,
                              records[-1].outcome.point_winner)
        assert is_terminal(final) is not None

    def test_best_of_five_supported(self):
        records = simulate_match(seed=8, config=ScoringConfig(best_of=5))
        final = advance_point(records[-1].initial_score,
                              records[-1].outcome.point_winner)
        winner_sets = max(final.sets_won())
        assert winner_sets == 3


class TestReplay:
    def test_ten_rally_replay_produces_commentaries(self, records):
        report = replay_match(records[:10], PipelineConfig())
        assert len(report.rallies) == 10
        assert all(r.commentary for r in report.rallies)
        assert all(r.sanity_passed for r in report.rallies)
        assert report.failures == 0

    def test_stats_equal_recount(self, records):
        report = replay_match(records, PipelineConfig())
        from courtside.memory import LongTermMemory, consolidate
        direct = LongTermMemory()
        for rally in records:
            consolidate(direct, rally)
        assert report.final_stats["player_1"] == direct.report()["player_1"]
        assert report.final_stats["player_2"] == direct.report()["player_2"]
        assert report.final_stats["rallies_consolidated"] == len(records)

    def test_mock_replay_advances_each_point_once(self, monkeypatch):
        # fresh records: the post-point score is cached on each record
        records = simulate_match(seed=31)
        calls = []

        def counted(score, winner):
            calls.append(1)
            return advance_point(score, winner)

        for name, module in list(sys.modules.items()):
            if (name == "courtside" or name.startswith("courtside.")) and (
                    vars(module).get("advance_point") is advance_point):
                monkeypatch.setattr(module, "advance_point", counted)
        report = replay_match(records, PipelineConfig())
        assert report.failures == 0
        assert len(calls) == len(records)

    def test_window_counts_at_rally_seven(self, records):
        seen = {}

        class SpyClient(MockCommentaryClient):
            def complete(self, request):
                count = request.bundle.user_text.count("\n1. [")
                seen[len(seen)] = request.bundle.user_text
                return super().complete(request)

        replay_match(records[:7], PipelineConfig(), client=SpyClient())
        seventh = seen[6]
        assert "consolidated over 2 rallies" in seventh
        digest_rows = [line for line in seventh.splitlines()
                       if line.startswith(("1. [", "2. [", "3. [", "4. [", "5. ["))]
        assert len(digest_rows) == 4

    def test_empty_match_empty_report(self):
        report = replay_match([], PipelineConfig())
        assert report.rallies == ()
        assert report.final_stats["rallies_consolidated"] == 0
        assert report.evaluation is None

    def test_reference_metrics_computed(self, records):
        report = replay_match(records[:12], PipelineConfig())
        assert report.evaluation is not None
        assert 0.0 <= report.evaluation["bleu4"] <= 1.0
        assert report.evaluation["pairs_evaluated"] == 12

    def test_one_referenced_rally_has_no_evaluation(self, records):
        # corpus metrics need two pairs
        rallies = [records[0]] + [replace(r, commentary=None)
                                  for r in records[1:4]]
        report = replay_match(rallies, PipelineConfig())
        assert report.failures == 0
        assert report.evaluation is None
        assert report.as_dict()["evaluation"] is None

    def test_failed_rallies_keep_stats_complete(self, records):
        class FlakyClient(MockCommentaryClient):
            def __init__(self):
                super().__init__()
                self.calls = 0

            def complete(self, request):
                self.calls += 1
                if self.calls % 3 == 0:
                    raise TransportFailure("synthetic outage")
                return super().complete(request)

        subset = records[:12]
        report = replay_match(subset, PipelineConfig(),
                              client=FlakyClient())
        # generate() retries transport failures, so the flaky client only
        # fails a rally when four consecutive attempts land on the outage
        clean = replay_match(subset, PipelineConfig())
        assert report.final_stats["player_1"] == clean.final_stats["player_1"]
        assert report.final_stats["player_2"] == clean.final_stats["player_2"]

    def test_hard_failures_marked_and_skipped_in_memory(self, records):
        class DeadOnThird(MockCommentaryClient):
            def __init__(self):
                super().__init__()
                self.rally = -1

            def complete(self, request):
                self.rally += 1
                if self.rally == 2:
                    raise __import__("courtside.prompt_engine",
                                     fromlist=["MalformedResponse"]
                                     ).MalformedResponse("garbage")
                return super().complete(request)

        subset = records[:8]
        report = replay_match(subset, PipelineConfig(), client=DeadOnThird())
        assert report.failures == 1
        failed = report.rallies[2]
        assert failed.failed and failed.commentary is None
        assert failed.sanity_passed is None
        # the failed rally still counts in the statistics
        assert report.final_stats["rallies_consolidated"] == len(subset)
        # and its absent commentary shows as a placeholder in later digests
        later = replay_match(subset, PipelineConfig(), client=DeadOnThird())
        assert later.rallies[3].commentary is not None

    @pytest.mark.parametrize("run", [
        RallyRunRecord(0, "sim0001_0.0_6.5", 412, 96, "Sinner holds.", True,
                       False, None, 0.25, 1.5),
        RallyRunRecord(1, "sim0001_6.5_9.0", 420, 101, None, None, True,
                       "MalformedResponse: garbage", 0.125, 0.0),
    ], ids=["passed", "failed"])
    def test_run_record_dict_is_asdict_in_field_order(self, run):
        assert list(run.as_dict().items()) == list(asdict(run).items())
        untimed = asdict(run)
        del untimed["engine_ms"], untimed["client_ms"]
        assert list(run.as_dict(include_timing=False).items()) == \
            list(untimed.items())

    def test_deterministic_report_without_timing(self, records):
        a = replay_match(records[:15], PipelineConfig())
        b = replay_match(records[:15], PipelineConfig())
        assert json.dumps(a.as_dict(include_timing=False)) == \
            json.dumps(b.as_dict(include_timing=False))


class TestConfig:
    def test_defaults(self):
        config = PipelineConfig()
        assert config.memory_window == 4
        assert config.token_cap == 16_000
        assert config.client == "mock"

    def test_from_file_with_overrides(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "memory_window": 6,
            "scoring": {"best_of": 5},
        }), encoding="utf-8")
        config = PipelineConfig.from_file(str(path))
        assert config.memory_window == 6
        assert config.scoring.best_of == 5

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig(memory_window=0)
        with pytest.raises(ConfigError):
            PipelineConfig(token_cap=0)
        with pytest.raises(ConfigError):
            PipelineConfig(client="imaginary")

    @pytest.mark.parametrize("key", ["segmentation", "memory_windw"])
    def test_unknown_key_rejected(self, tmp_path, key):
        with pytest.raises(ConfigError, match=key):
            PipelineConfig.from_dict({key: 4})
        path = tmp_path / "config.json"
        path.write_text(json.dumps({key: 4}), encoding="utf-8")
        match = tmp_path / "match.jsonl"
        assert main(["simulate", "--seed", "1", "--output", str(match)]) == 0
        assert main(["validate", "--input", str(match),
                     "--config", str(path)]) == 2

    @pytest.mark.parametrize("config,message", [
        ({"scoring": {"bogus": 1}}, "unknown scoring keys: ['bogus']"),
        ({"persona": {"tone": "dry", "max_word": 9}},
         "unknown persona keys: ['max_word', 'tone']"),
        ({"scoring": []}, "scoring must be a JSON object"),
        ({"scoring": None}, "scoring must be a JSON object"),
        ({"persona": []}, "persona must be a JSON object"),
        ({"persona": "calm"}, "persona must be a JSON object"),
    ])
    def test_nested_keys_rejected_as_top_level_keys_are(self, tmp_path, capsys,
                                                        config, message):
        with pytest.raises(ConfigError) as caught:
            PipelineConfig.from_dict(config)
        assert str(caught.value) == message
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        assert main(["validate", "--input", str(empty),
                     "--config", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_request_log_needs_http_client(self, dataset_file, tmp_path, capsys):
        log = str(tmp_path / "traffic.jsonl")
        with pytest.raises(ConfigError, match="log_requests"):
            PipelineConfig(log_requests=log)
        assert PipelineConfig(client="http", log_requests=log).log_requests == log
        assert main(["replay", "--input", str(dataset_file),
                     "--log-requests", log]) == 2
        assert "log_requests" in capsys.readouterr().err

    def test_bad_file_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(ConfigError):
            PipelineConfig.from_file(str(path))

    def test_file_holding_a_list_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[]", encoding="utf-8")
        with pytest.raises(ConfigError, match="must hold a JSON object"):
            PipelineConfig.from_file(str(path))

    @pytest.mark.parametrize("scoring,message", [
        ({"best_of": 4}, "best_of must be 3 or 5"),
        ({"set_trigger_games": 0}, "set_trigger_games must be in 1..99"),
        ({"set_trigger_games": 100}, "set_trigger_games must be in 1..99"),
    ])
    def test_scoring_values_out_of_range_rejected(self, scoring, message):
        with pytest.raises(ConfigError, match=message):
            PipelineConfig.from_dict({"scoring": scoring})

    def test_scoring_values_above_two_digits_rejected(self):
        with pytest.raises(ConfigError, match="1..99"):
            PipelineConfig.from_dict({"scoring": {"tiebreak_points": 1000}})

    @pytest.mark.parametrize("config,message", [
        # no games score equals 6.5, so a set could never reach its tiebreak
        ({"scoring": {"set_trigger_games": 6.5}}, "set_trigger_games"),
        ({"scoring": {"best_of": 3.0}}, "best_of"),
        ({"scoring": {"tiebreak_points": 7.5}}, "tiebreak_points"),
        ({"scoring": {"final_set_tiebreak_points": True}},
         "final_set_tiebreak_points"),
        ({"scoring": {"ad_scoring": "no"}}, "ad_scoring"),
        ({"scoring": {"ad_scoring": 0}}, "ad_scoring"),
        ({"memory_window": 2.5}, "memory window"),
        ({"memory_window": True}, "memory window"),
        ({"token_cap": 1e9}, "token cap"),
        ({"client": "http", "log_requests": 5}, "log_requests"),
    ])
    def test_non_integer_value_exits_two(self, tmp_path, capsys, config,
                                         message):
        # the config is rejected before any record is read, so an empty
        # input keeps a regression from hanging on the first scoreboard
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        assert main(["replay", "--input", str(empty), "--no-timing",
                     "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("persona,message", [
        ({"system_text": ""}, "system_text"),
        ({"system_text": 5}, "system_text"),
        ({"min_words": 80, "max_words": 10}, "min_words <= max_words"),
        ({"min_words": -3}, "min_words <= max_words"),
        # a request log holds the system text, and could not be written
        ({"system_text": "You are \ud800 a commentator"}, "valid Unicode"),
    ])
    def test_persona_that_cannot_make_a_prompt_exits_two(
            self, dataset_file, tmp_path, capsys, persona, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"persona": persona}), encoding="utf-8")
        assert main(["replay", "--input", str(dataset_file), "--no-timing",
                     "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


class TestCli:
    def test_validate_clean_file_exit_zero(self, dataset_file, capsys):
        code = main(["validate", "--input", str(dataset_file)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["violations"] == []

    def test_validate_echoes_non_utf8_input_name_as_utf8(self, dataset_file,
                                                        tmp_path, capsys):
        """A name holding byte 0xff reaches Python as ``"\\udcff"``; the report
        shows its bytes escaped, the same in a file and on stdout."""
        named = tmp_path / "x\udcff.jsonl"
        named.write_bytes(dataset_file.read_bytes())
        out = tmp_path / "v.json"
        assert main(["validate", "--input", str(named), "--output", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads(out.read_bytes().decode("utf-8"))
        assert report["input"] == str(tmp_path / "x\\xff.jsonl")
        assert main(["validate", "--input", str(named)]) == 0
        assert capsys.readouterr().out == out.read_text(encoding="utf-8")

    def test_validate_dirty_file_exit_one(self, tmp_path, records, capsys):
        path = tmp_path / "dirty.jsonl"
        path.write_text(json.dumps(rally_to_json(records[0])) + "\n{broken\n",
                        encoding="utf-8")
        code = main(["validate", "--input", str(path)])
        assert code == 1
        out = json.loads(capsys.readouterr().out)
        assert len(out["violations"]) == 1

    def test_validate_lists_non_utf8_line(self, tmp_path, records, capsys):
        lines = [json.dumps(rally_to_json(r)).encode("utf-8") for r in records]
        key = b'"audio_transcript": "'
        at = lines[3].index(key) + len(key)
        lines[3] = lines[3][:at] + b"\xff\xfe" + lines[3][at:]
        path = tmp_path / "non_utf8.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n")
        assert main(["validate", "--input", str(path)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["valid_records"] == len(records) - 1
        [violation] = out["violations"]
        assert violation["line"] == 4
        assert violation["message"].startswith("invalid JSON: 'utf-8' codec")

    @pytest.mark.parametrize("path,value,part", [
        (("match_info", "player_1", "handedness"), "ambi", "match_info"),
        (("match_info", "player_2", "name"), "", "match_info"),
        (("match_info",), ["not", "an", "object"], "match_info"),
        (("shot_sequence", 0), "serve", "shot 0"),
        (("shot_sequence", 0, "timestamp"), "0.72", "shot 0"),
        (("match_info", "tournament"), {"x": [1, 2]}, "match_info"),
        (("shot_sequence", 0, "shot_index"), 0.9, "shot 0"),
    ])
    def test_validate_reports_malformed_values(self, tmp_path, records, capsys,
                                               path, value, part):
        bad = rally_to_json(records[1])
        holder = bad
        for step in path[:-1]:
            holder = holder[step]
        holder[path[-1]] = value
        lines = [json.dumps(rally_to_json(records[0])), json.dumps(bad)]
        input_path = tmp_path / "malformed.jsonl"
        input_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["validate", "--input", str(input_path)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["valid_records"] == 1
        [violation] = out["violations"]
        assert violation["line"] == 2
        assert violation["message"].startswith(f"{records[1].clip_id} {part}: ")

    @pytest.mark.parametrize("field", ["clip_id", "name", "tournament",
                                       "technique", "audio_transcript",
                                       "commentary"])
    def test_lone_surrogate_is_a_violation(self, tmp_path, records, capsys,
                                           field):
        """JSON decodes ``"\\ud800"`` to a string that UTF-8 cannot encode;
        such a string is listed on its line, so validate, replay and stats
        write their reports and exit 1."""
        lines = [rally_to_json(r) for r in records[:5]]
        bad = lines[2]
        if field == "name":
            info, board = bad["match_info"], bad["scoreboard"]
            old = info["player_1"]["name"]
            new = info["player_1"]["name"] = old + "\ud800"
            board[new] = board.pop(old)
            if board["server"] == old:
                board["server"] = new
        elif field == "tournament":
            bad["match_info"]["tournament"] += "\ud800"
        elif field == "technique":
            bad["shot_sequence"][0]["technique"] += "\ud800"
        else:
            bad[field] += "\ud800"
        path = tmp_path / "surrogate.jsonl"
        path.write_text("".join(json.dumps(o) + "\n" for o in lines),
                        encoding="utf-8")
        for command in (["validate"], ["replay", "--no-timing"], ["stats"]):
            out = tmp_path / "out.json"
            assert main([*command, "--input", str(path), "--output", str(out)]) == 1
            assert "Traceback" not in capsys.readouterr().err
            report = json.loads(out.read_text(encoding="utf-8"))
            [violation] = report.get("violations") or report["schema_violations"]
            assert violation["line"] == 3
            assert f"{field} must be valid Unicode, got " in violation["message"]

    def test_validate_lists_non_finite_numbers(self, tmp_path, records, capsys):
        lines = [rally_to_json(r) for r in records[:6]]
        lines[1]["shot_sequence"][0]["timestamp"] = float("nan")
        lines[2]["shot_sequence"][1]["hitter_position"] = [float("nan"), float("inf")]
        lines[3]["shot_sequence"][0]["ball_position"] = [1.0, float("-inf")]
        lines[4]["bounces"] = [{"timestamp": float("inf"), "court_half": "near"}]
        lines[5]["shot_sequence"][0]["timestamp"] = 10 ** 400
        path = tmp_path / "non_finite.jsonl"
        path.write_text("".join(json.dumps(o) + "\n" for o in lines),
                        encoding="utf-8")
        assert "NaN" in path.read_text() and "Infinity" in path.read_text()
        assert main(["validate", "--input", str(path)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["valid_records"] == 1
        assert [(v["line"], v["message"]) for v in out["violations"]] == [
            (2, f"{records[1].clip_id} shot 0: expected a finite number, got nan"),
            (3, f"{records[2].clip_id} shot 1: expected a finite number, got nan"),
            (4, f"{records[3].clip_id} shot 0: expected a finite number, got -inf"),
            (5, f"{records[4].clip_id} bounce 0: expected a finite number, got inf"),
            (6, f"{records[5].clip_id} shot 0: int too large to convert to float"),
        ]

    @pytest.mark.parametrize("argv,key", [(["validate"], "violations"),
                                          (["replay", "--client", "mock",
                                            "--no-timing"], "schema_violations")])
    def test_shared_player_name_is_listed(self, tmp_path, capsys, argv, key):
        # The board is keyed by name: with one name, one row reads for both.
        served = [r for r in simulate_match(seed=1)
                  if r.initial_score.server == P1][:12]
        lines = []
        for record in served:
            obj = rally_to_json(record)
            del obj["scoreboard"][record.match_info.player_2.name]
            obj["match_info"]["player_2"]["name"] = record.match_info.player_1.name
            lines.append(json.dumps(obj))
        path = tmp_path / "one_name.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main([*argv, "--input", str(path)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out.get("valid_records", 0) == 0 and not out.get("rallies")
        assert [v["line"] for v in out[key]] == list(range(1, 13))
        assert all("match_info: both players are named" in v["message"]
                   for v in out[key])

    @pytest.mark.parametrize("argv,key", [(["validate"], "violations"),
                                          (["replay", "--client", "mock",
                                            "--no-timing"], "schema_violations")])
    def test_whitespace_player_name_is_listed(self, tmp_path, records, capsys,
                                              argv, key):
        # a blank name has no surname for the prompt and the commentary
        blank = rally_to_json(records[1])
        blank["match_info"]["player_2"]["name"] = "   "
        lines = [rally_to_json(records[0]), blank, rally_to_json(records[2])]
        path = tmp_path / "blank_name.jsonl"
        path.write_text("\n".join(json.dumps(x) for x in lines) + "\n",
                        encoding="utf-8")
        assert main([*argv, "--input", str(path)]) == 1
        out = json.loads(capsys.readouterr().out)
        [violation] = out[key]
        assert violation["line"] == 2
        assert ("match_info: player name must contain a non-whitespace "
                "character" in violation["message"])
        if "rallies" in out:
            assert [r["clip_id"] for r in out["rallies"]] == [
                records[0].clip_id, records[2].clip_id]
        else:
            assert out["valid_records"] == 2

    @pytest.mark.parametrize("argv,key", [(["validate"], "violations"),
                                          (["stats"], "schema_violations"),
                                          (["replay", "--no-timing"],
                                           "schema_violations")])
    def test_rally_after_match_decided_is_listed(self, tmp_path, records, capsys,
                                                 argv, key):
        decided = rally_to_json(records[0])
        decided["scoreboard"][records[0].match_info.player_1.name] = [2, 0, 0]
        lines = [rally_to_json(records[0]), decided, rally_to_json(records[1])]
        path = tmp_path / "decided.jsonl"
        path.write_text("\n".join(json.dumps(x) for x in lines) + "\n",
                        encoding="utf-8")
        assert main([*argv, "--input", str(path)]) == 1
        [violation] = json.loads(capsys.readouterr().out)[key]
        assert violation["line"] == 2
        assert "rally starts after the match was decided" in violation["message"]

    def test_player_named_server_is_listed(self, tmp_path, records, capsys):
        """The board keeps the server's name under the key "server", so a
        player of that name would lose their row to it."""
        named = rally_to_json(records[1])
        old = named["match_info"]["player_2"]["name"]
        named["match_info"]["player_2"]["name"] = "server"
        del named["scoreboard"][old]  # its row is lost to the server key
        lines = [rally_to_json(records[0]), named, rally_to_json(records[2])]
        path = tmp_path / "server_name.jsonl"
        path.write_text("\n".join(json.dumps(x) for x in lines) + "\n",
                        encoding="utf-8")
        assert main(["validate", "--input", str(path)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["valid_records"] == 2
        assert out["violations"] == [{
            "line": 2, "message": f"{records[1].clip_id} match_info: "
                                  f"no player may be named 'server'"}]

    def test_simulate_then_replay_round_trip(self, tmp_path, capsys):
        match_path = tmp_path / "sim.jsonl"
        code = main(["simulate", "--seed", "4", "--output", str(match_path)])
        assert code == 0
        report_path = tmp_path / "report.json"
        code = main(["replay", "--input", str(match_path), "--client", "mock",
                     "--no-timing", "--output", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["failures"] == 0
        assert report["rally_count"] > 50
        assert all(r["prompt_tokens"] <= 16_000 for r in report["rallies"])

    def test_replay_over_token_cap_fails_every_rally(self, tmp_path, capsys):
        match_path = tmp_path / "sim.jsonl"
        assert main(["simulate", "--seed", "31", "--output", str(match_path)]) == 0
        code = main(["replay", "--input", str(match_path), "--client", "mock",
                     "--token-cap", "10", "--no-timing"])
        assert code == 3
        report = json.loads(capsys.readouterr().out)
        record_count = len(match_path.read_text().splitlines())
        assert report["rally_count"] == report["failures"] == record_count
        for rally in report["rallies"]:
            assert rally["failed"] and rally["commentary"] is None
            assert rally["failure"].startswith("BudgetExceeded: prompt estimate")
        assert report["final_stats"]["rallies_consolidated"] == record_count

    def test_replay_refused_line_outranks_failed_rallies(self, tmp_path, capsys):
        """A refused dataset line exits 1 even when every rally also failed."""
        match_path = tmp_path / "sim.jsonl"
        assert main(["simulate", "--seed", "31", "--output", str(match_path)]) == 0
        lines = match_path.read_text(encoding="utf-8").splitlines()
        lines.insert(1, "{broken")
        match_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["replay", "--input", str(match_path), "--client", "mock",
                     "--token-cap", "10", "--no-timing"])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert [v["line"] for v in report["schema_violations"]] == [2]
        assert report["rally_count"] == report["failures"] == len(lines) - 1
        assert all(rally["failed"] for rally in report["rallies"])

    def test_replay_byte_identical_across_runs(self, tmp_path):
        match_path = tmp_path / "sim.jsonl"
        main(["simulate", "--seed", "12", "--output", str(match_path)])
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        main(["replay", "--input", str(match_path), "--no-timing",
              "--output", str(out_a)])
        main(["replay", "--input", str(match_path), "--no-timing",
              "--output", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_stats_command_matches_replay_stats(self, dataset_file, tmp_path):
        stats_path = tmp_path / "stats.json"
        code = main(["stats", "--input", str(dataset_file),
                     "--output", str(stats_path)])
        assert code == 0
        report_path = tmp_path / "report.json"
        main(["replay", "--input", str(dataset_file), "--no-timing",
              "--output", str(report_path)])
        stats = json.loads(stats_path.read_text())
        replay_stats = json.loads(report_path.read_text())["final_stats"]
        assert stats["player_1"] == replay_stats["player_1"]
        assert stats["player_2"] == replay_stats["player_2"]

    def test_evaluate_command(self, tmp_path, records, capsys):
        pairs_path = tmp_path / "pairs.jsonl"
        rows = [{"clip_id": r.clip_id, "prediction": r.commentary,
                 "reference": r.commentary} for r in records[:5]]
        pairs_path.write_text("\n".join(json.dumps(x) for x in rows) + "\n",
                              encoding="utf-8")
        per_clip = tmp_path / "per_clip.jsonl"
        code = main(["evaluate", "--input", str(pairs_path),
                     "--per-clip", str(per_clip)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["metrics"]["bleu4"] == pytest.approx(1.0)
        clip_rows = [json.loads(line) for line in
                     per_clip.read_text().splitlines()]
        assert len(clip_rows) == 5
        assert all(row["rouge_l"] == pytest.approx(1.0) for row in clip_rows)

    def test_evaluate_with_mock_judge(self, tmp_path, dataset_file, records, capsys):
        pairs_path = tmp_path / "pairs.jsonl"
        rows = [{"clip_id": r.clip_id, "prediction": r.commentary,
                 "reference": r.commentary} for r in records[:3]]
        pairs_path.write_text("\n".join(json.dumps(x) for x in rows) + "\n",
                              encoding="utf-8")
        code = main(["evaluate", "--input", str(pairs_path), "--judge", "mock",
                     "--dataset", str(dataset_file)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["judge"]["count"] == 3
        assert summary["judge"]["accuracy_mean"] == 20.0

    def test_evaluate_lists_malformed_dataset_line(self, tmp_path, records,
                                                   capsys):
        lines = [rally_to_json(r) for r in records[:6]]
        lines[2]["match_info"]["player_1"]["handedness"] = "ambi"
        dataset = tmp_path / "dataset.jsonl"
        dataset.write_text("\n".join(json.dumps(x) for x in lines) + "\n",
                           encoding="utf-8")
        pairs_path = tmp_path / "pairs.jsonl"
        rows = [{"clip_id": r.clip_id, "prediction": r.commentary,
                 "reference": r.commentary} for r in records[:6]]
        pairs_path.write_text("\n".join(json.dumps(x) for x in rows) + "\n",
                              encoding="utf-8")
        code = main(["evaluate", "--input", str(pairs_path), "--judge", "mock",
                     "--dataset", str(dataset)])
        assert code == 1
        summary = json.loads(capsys.readouterr().out)
        assert [v["line"] for v in summary["schema_violations"]] == [3]
        assert summary["judge"]["count"] == 5
        # the dataset is read even when there is nothing to score
        pairs_path.write_text("", encoding="utf-8")
        code = main(["evaluate", "--input", str(pairs_path), "--judge", "mock",
                     "--dataset", str(dataset)])
        assert code == 1
        summary = json.loads(capsys.readouterr().out)
        assert summary["pairs"] == 0
        assert [v["line"] for v in summary["schema_violations"]] == [3]

    def test_evaluate_refused_dataset_line_still_writes_per_clip(
            self, tmp_path, records, capsys):
        lines = [json.dumps(rally_to_json(r)) for r in records[:3]]
        lines.insert(1, "{broken")
        dataset = tmp_path / "dataset.jsonl"
        dataset.write_text("\n".join(lines) + "\n", encoding="utf-8")
        pairs_path = tmp_path / "pairs.jsonl"
        pairs_path.write_text("".join(
            json.dumps({"clip_id": r.clip_id, "prediction": r.commentary,
                        "reference": r.commentary}) + "\n" for r in records[:3]),
            encoding="utf-8")
        per_clip = tmp_path / "per_clip.jsonl"
        code = main(["evaluate", "--input", str(pairs_path), "--judge", "mock",
                     "--dataset", str(dataset), "--per-clip", str(per_clip)])
        assert code == 1
        summary = json.loads(capsys.readouterr().out)
        assert [v["line"] for v in summary["schema_violations"]] == [2]
        rows = [json.loads(line) for line in per_clip.read_text().splitlines()]
        assert [row["clip_id"] for row in rows] == [r.clip_id for r in records[:3]]
        assert all("judge" in row for row in rows)

    def test_segment_command(self, tmp_path, capsys):
        impacts = tmp_path / "impacts.jsonl"
        rows = [{"t": 10.0, "conf": 0.9}, {"t": 10.8, "conf": 0.95},
                {"t": 11.5, "conf": 0.8}, {"t": 20.0, "conf": 0.9},
                {"t": 20.6, "conf": 0.7}, {"t": 40.0, "conf": 0.2}]
        impacts.write_text("\n".join(json.dumps(r) for r in rows) + "\n",
                           encoding="utf-8")
        code = main(["segment", "--input", str(impacts)])
        assert code == 0
        out = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert out == [{"start": 9.0, "end": 12.5, "hits": 3},
                       {"start": 19.0, "end": 21.6, "hits": 2}]

    def test_config_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{]", encoding="utf-8")
        code = main(["validate", "--input", str(bad), "--config", str(bad)])
        assert code == 2

    def test_evaluate_reads_its_config_without_dataset(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text("", encoding="utf-8")
        missing = str(tmp_path / "missing.json")
        code = main(["evaluate", "--input", str(pairs), "--config", missing])
        assert code == 2
        assert "missing.json" in capsys.readouterr().err

    def test_segment_takes_no_config(self, tmp_path, capsys):
        impacts = tmp_path / "impacts.jsonl"
        impacts.write_text("", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["segment", "--input", str(impacts),
                  "--config", str(tmp_path / "missing.json")])
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err

    def test_http_client_without_endpoint_exit_two(self, dataset_file,
                                                   monkeypatch, capsys):
        monkeypatch.delenv("COMMENTARY_API_URL", raising=False)
        code = main(["replay", "--input", str(dataset_file),
                     "--client", "http"])
        assert code == 2
        assert "endpoint" in capsys.readouterr().err

    def test_replay_on_dirty_file_exit_one_with_report(self, tmp_path, records,
                                                       capsys):
        path = tmp_path / "dirty.jsonl"
        lines = [json.dumps(rally_to_json(r)) for r in records[:3]]
        lines.insert(1, "{broken")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["replay", "--input", str(path), "--no-timing"])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["rally_count"] == 3
        assert report["schema_violations"][0]["line"] == 2

    @pytest.mark.parametrize("argv", [
        "validate --input DIR", "replay --input DIR", "stats --input DIR",
        "evaluate --input DIR", "evaluate --input PAIRS --dataset DIR --judge mock",
        "segment --input DIR", "segment --input IMPACTS --flags DIR",
        "simulate --output DIR", "validate --input MATCH --output DIR",
        "replay --input MATCH --output DIR", "stats --input MATCH --output DIR",
        "evaluate --input PAIRS --output DIR", "evaluate --input PAIRS --per-clip DIR",
        "segment --input IMPACTS --output DIR",
    ])
    def test_directory_for_a_file_exits_two(self, tmp_path, dataset_file, capsys,
                                            argv):
        pairs, impacts = tmp_path / "pairs.jsonl", tmp_path / "impacts.jsonl"
        pairs.write_text('{"clip_id": "a", "prediction": "p", "reference": "r"}\n',
                         encoding="utf-8")
        impacts.write_text('{"t": 1.0, "conf": 0.9}\n{"t": 1.5, "conf": 0.9}\n',
                           encoding="utf-8")
        paths = {"DIR": tmp_path, "MATCH": dataset_file, "PAIRS": pairs,
                 "IMPACTS": impacts}
        code = main([str(paths.get(arg, arg)) for arg in argv.split()])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert str(tmp_path) in captured.err

    @pytest.mark.parametrize("argv", [
        "validate --input MATCH --output LONG",
        "evaluate --input PAIRS --per-clip LONG",
        "replay --input MATCH --client http --log-requests LONG",
    ])
    def test_file_name_the_system_refuses_exits_two(
            self, tmp_path, dataset_file, monkeypatch, capsys, argv):
        # no request is sent: the log path is checked before the first rally
        monkeypatch.setenv("COMMENTARY_API_URL", "https://api.example/c")
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text('{"clip_id": "a", "prediction": "p", "reference": "r"}\n',
                         encoding="utf-8")
        long = tmp_path / ("x" * 300 + ".json")
        paths = {"MATCH": dataset_file, "PAIRS": pairs, "LONG": long}
        code = main([str(paths.get(arg, arg)) for arg in argv.split()])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "File name too long" in captured.err

    @pytest.mark.parametrize("command", ["replay", "stats"])
    @pytest.mark.parametrize("output", ["DIR", "DIR/missing/out.json",
                                        "DIR/dangling.json"])
    def test_unwritable_output_exits_before_reading_input(
            self, tmp_path, dataset_file, monkeypatch, capsys, command, output):
        (tmp_path / "dangling.json").symlink_to(tmp_path / "missing" / "x.json")
        calls = []
        monkeypatch.setattr(cli, "replay_match",
                            lambda *args, **kwargs: calls.append(args))
        monkeypatch.setattr(cli, "load_dataset",
                            lambda *args, **kwargs: calls.append(args) or iter(()))
        output = output.replace("DIR", str(tmp_path))
        code = main([command, "--input", str(dataset_file), "--output", output])
        captured = capsys.readouterr()
        assert code == 2
        assert calls == []
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert output in captured.err
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("argv, work", [
        ("validate --input MATCH --output OUT", "load_dataset"),
        ("evaluate --input PAIRS --output OUT", "score_pairs"),
        ("evaluate --input PAIRS --per-clip OUT", "score_pairs"),
        ("evaluate --input PAIRS --per-clip DANGLING", "score_pairs"),
        ("segment --input IMPACTS --output OUT", "cluster_impacts"),
        ("simulate --output OUT", "simulate_match"),
    ])
    def test_unwritable_output_exits_before_any_work(
            self, tmp_path, dataset_file, monkeypatch, capsys, argv, work):
        def fail(*args, **kwargs):
            raise AssertionError(f"{work} called before the output check")

        monkeypatch.setattr(cli, work, fail)
        pairs, impacts = tmp_path / "pairs.jsonl", tmp_path / "impacts.jsonl"
        pairs.write_text('{"clip_id": "a", "prediction": "p", "reference": "r"}\n',
                         encoding="utf-8")
        impacts.write_text('{"t": 1.0, "conf": 0.9}\n', encoding="utf-8")
        output = tmp_path / "missing" / "out.json"
        dangling = tmp_path / "dangling.jsonl"
        dangling.symlink_to(output)
        paths = {"MATCH": dataset_file, "PAIRS": pairs, "IMPACTS": impacts,
                 "OUT": output, "DANGLING": dangling}
        argv = [str(paths.get(arg, arg)) for arg in argv.split()]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert argv[-1] in captured.err
        assert not output.parent.exists()

    def test_claimed_output_keeps_its_bytes(self, tmp_path, dataset_file, capsys):
        """The early claim opens an existing output for append: a run that
        then exits 2 (here on a config that is not JSON) leaves it as it was."""
        output, config = tmp_path / "out.json", tmp_path / "config.json"
        output.write_bytes(b"earlier result\n")
        config.write_text("{not json", encoding="utf-8")
        code = main(["validate", "--input", str(dataset_file), "--config",
                     str(config), "--output", str(output)])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err
        assert output.read_bytes() == b"earlier result\n"

    @pytest.mark.parametrize("command", ["validate", "stats", "replay"])
    def test_stdout_that_cannot_be_written_exits_two(
            self, tmp_path, dataset_file, monkeypatch, capsys, command):
        """A full disk behind stdout (``> /dev/full``) is a configuration
        error, not a traceback, and stdout's descriptor then points at the
        null device, so the flush at exit has nowhere left to fail."""
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)

        class FullStdout:
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            def fileno(self):
                return fd

        monkeypatch.setattr(sys, "stdout", FullStdout())
        try:
            code = main([command, "--input", str(dataset_file)])
            assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        finally:
            os.close(fd)
        err = capsys.readouterr().err
        assert code == 2
        assert "cannot write stdout: [Errno 28] No space left on device" in err
        assert "Traceback" not in err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("command", ["validate", "stats"])
    def test_entry_point_to_a_full_disk_exits_two(self, dataset_file, command):
        """The real entry point with a buffered stdout: a small report stays
        buffered after the failed write, and the flush at exit must not turn
        exit 2 into 120 ("Exception ignored ... OSError")."""
        with open("/dev/full", "wb") as full:
            result = _run_cli([command, "--input", str(dataset_file)], stdout=full)
        assert result.returncode == 2
        assert "cannot write stdout: [Errno 28]" in result.stderr
        assert "Traceback" not in result.stderr
        assert "Exception ignored" not in result.stderr

    @pytest.mark.parametrize("command", ["validate", "replay"])
    def test_stdout_that_cannot_encode_the_report_exits_two(
            self, tmp_path, records, monkeypatch, command):
        """A report that stdout's encoding cannot represent (a non-ASCII
        file or player name under ``PYTHONIOENCODING=ascii``) is a result
        that cannot be written to stdout: exit 2, not a traceback."""
        objs = [rally_to_json(r) for r in records[:5]]
        old = records[0].match_info.player_1.name
        for obj in objs:
            obj["match_info"]["player_1"]["name"] = "Zoë Ñandú"
            board = obj["scoreboard"]
            board["Zoë Ñandú"] = board.pop(old)
            if board["server"] == old:
                board["server"] = "Zoë Ñandú"
        path = tmp_path / "Ñ.jsonl"
        path.write_text("".join(json.dumps(o) + "\n" for o in objs), encoding="utf-8")
        monkeypatch.setenv("PYTHONIOENCODING", "ascii")
        argv = [command, "--input", str(path)]
        if command == "replay":
            argv += ["--client", "mock", "--no-timing"]
        result = _run_cli(argv, stdout=subprocess.PIPE)
        assert result.returncode == 2, result.stderr
        assert "configuration error: cannot write stdout: 'ascii' codec" in result.stderr
        assert "Traceback" not in result.stderr
        assert result.stdout == ""

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_named_pipe_output_gets_the_whole_report(self, tmp_path, dataset_file):
        """A named pipe is not opened by the claim, whose close would end the
        reader, so the report reaches the reader in one piece."""
        fifo = tmp_path / "report.pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(
            fifo.read_text(encoding="utf-8")), daemon=True)
        reader.start()
        result = _run_cli(["validate", "--input", str(dataset_file),
                          "--output", str(fifo)])
        reader.join(timeout=60)
        assert result.returncode == 0, result.stderr
        assert json.loads(received[0])["violations"] == []

    @pytest.mark.parametrize("argv", [
        "validate --input NEW --output NEW",
        "evaluate --input PAIRS --dataset NEW --per-clip NEW",
        "segment --input NEW --output NEW",
    ])
    def test_output_naming_a_missing_input_exits_two(
            self, tmp_path, capsys, argv):
        """An input that does not exist is refused before the outputs are
        claimed, so the claim cannot create it and have it read as empty."""
        pairs, new = tmp_path / "pairs.jsonl", tmp_path / "new.jsonl"
        pairs.write_text('{"clip_id": "a", "prediction": "a b c d", '
                         '"reference": "a b c d"}\n', encoding="utf-8")
        paths = {"NEW": new, "PAIRS": pairs}
        code = main([str(paths.get(arg, arg)) for arg in argv.split()])
        err = capsys.readouterr().err
        assert code == 2
        assert f"cannot read {new}: No such file or directory" in err
        assert not new.exists()

    def test_simulate_deterministic_output_file(self, tmp_path):
        a_path = tmp_path / "a.jsonl"
        b_path = tmp_path / "b.jsonl"
        main(["simulate", "--seed", "3", "--output", str(a_path)])
        main(["simulate", "--seed", "3", "--output", str(b_path)])
        assert a_path.read_bytes() == b_path.read_bytes()


class TestBestOfFive:
    @pytest.fixture(scope="class")
    def bo5(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("bo5")
        records = simulate_match(seed=3, config=ScoringConfig(best_of=5))
        match_path = root / "match.jsonl"
        match_path.write_text("\n".join(json.dumps(rally_to_json(r))
                                        for r in records) + "\n",
                              encoding="utf-8")
        config_path = root / "config.json"
        config_path.write_text('{"scoring": {"best_of": 5}}', encoding="utf-8")
        return match_path, config_path

    def test_mock_replay_completes_with_match_stats(self, bo5, tmp_path):
        match_path, config_path = bo5
        config = PipelineConfig(scoring=ScoringConfig(best_of=5))
        report = replay_match(load_dataset(match_path, config.scoring, errors=[]), config)
        assert report.failures == 0
        assert all(r.sanity_passed for r in report.rallies)
        stats_path = tmp_path / "stats.json"
        assert main(["stats", "--input", str(match_path), "--config",
                     str(config_path), "--output", str(stats_path)]) == 0
        assert (json.loads(json.dumps(report.final_stats))
                == json.loads(stats_path.read_text()))

    def test_replay_command_exit_zero(self, bo5, tmp_path):
        match_path, config_path = bo5
        code = main(["replay", "--input", str(match_path), "--config",
                     str(config_path), "--no-timing",
                     "--output", str(tmp_path / "report.json")])
        assert code == 0

    def test_simulate_command_writes_the_match(self, bo5, tmp_path):
        match_path, _ = bo5
        output = tmp_path / "simulated.jsonl"
        assert main(["simulate", "--seed", "3", "--best-of", "5",
                     "--output", str(output)]) == 0
        assert output.read_bytes() == match_path.read_bytes()


class TestBadInputLines:
    """Unusable lines in evaluate/segment input exit 2 with the line number."""

    def _run(self, tmp_path, capsys, command, lines, extra=()):
        path = tmp_path / "input.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main([command, "--input", str(path), *extra])
        assert code == 2
        return capsys.readouterr().err

    def test_evaluate_non_json_line(self, tmp_path, capsys):
        good = json.dumps({"clip_id": "a", "prediction": "x", "reference": "y"})
        err = self._run(tmp_path, capsys, "evaluate", [good, "{oops"])
        assert "line 2" in err and "invalid JSON" in err

    def test_evaluate_non_utf8_line(self, tmp_path, capsys):
        path = tmp_path / "input.jsonl"
        path.write_bytes(b'{"clip_id": "a", "prediction": "x", "reference": "y"}\n'
                         b'{"clip_id": "b", "prediction": "\xff\xfe", '
                         b'"reference": "y"}\n')
        assert main(["evaluate", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "'utf-8' codec can't decode" in err

    @pytest.mark.parametrize("pair,message", [
        ({"prediction": 5, "reference": "y"}, "'prediction' must be a string"),
        ({"prediction": "x", "reference": None}, "'reference' must be a string"),
        ({"prediction": "", "reference": "y", "metadata": "facts"},
         "must be non-empty"),
        ({"clip_id": [1], "prediction": "x", "reference": "y"},
         "'clip_id' must be a string"),
        ({"prediction": "x", "reference": "y", "metadata": 5},
         "'metadata' must be a non-empty string"),
        ({"prediction": "x", "reference": "y", "metadata": {"k": [1, 2]}},
         "'metadata' must be a non-empty string"),
        ({"prediction": "x"}, "missing 'reference'"),
    ])
    def test_evaluate_unusable_pair(self, tmp_path, capsys, pair, message):
        good = json.dumps({"clip_id": "a", "prediction": "x", "reference": "y"})
        bad = json.dumps({"clip_id": "b", **pair})
        err = self._run(tmp_path, capsys, "evaluate", [good, bad],
                        extra=("--judge", "mock"))
        assert "input.jsonl line 2" in err and message in err

    @pytest.mark.parametrize("key", ["clip_id", "prediction", "reference",
                                     "metadata"])
    def test_evaluate_lone_surrogate_is_unusable(self, tmp_path, capsys, key):
        good = {"clip_id": "a", "prediction": "x", "reference": "y",
                "metadata": "facts"}
        bad = json.dumps({**good, key: good[key] + "\ud800"})
        err = self._run(tmp_path, capsys, "evaluate", [json.dumps(good), bad],
                        extra=("--judge", "mock", "--per-clip",
                               str(tmp_path / "rows.jsonl")))
        assert "input.jsonl line 2" in err
        assert f"{key!r} must be valid Unicode, got " in err

    def test_evaluate_unjudged_empty_prediction_scores(self, tmp_path, capsys):
        path = tmp_path / "input.jsonl"
        path.write_text(json.dumps({"clip_id": "a", "prediction": "",
                                    "reference": "y"}) + "\n", encoding="utf-8")
        assert main(["evaluate", "--input", str(path), "--judge", "mock"]) == 0
        assert json.loads(capsys.readouterr().out)["pairs"] == 1

    GOOD_LINES = {
        "evaluate --input": json.dumps({"clip_id": "a", "prediction": "x",
                                        "reference": "y"}),
        "segment --input": '{"t": 1.0, "conf": 0.9}',
        "segment --flags": '{"broadcast_view": true, "scoreboard_visible": true}',
    }

    def _bad_third_line(self, tmp_path, capsys, source, bad):
        """Run ``source`` on a good line, a blank line and ``bad``; return
        stderr and the ``<path> line 3: `` prefix that must name the line."""
        path = tmp_path / "rows.jsonl"
        path.write_text("\n".join([self.GOOD_LINES[source], "", bad]) + "\n",
                        encoding="utf-8")
        if source == "segment --flags":
            impacts = tmp_path / "impacts.jsonl"
            impacts.write_text("\n".join(self.IMPACTS) + "\n", encoding="utf-8")
            argv = ["segment", "--input", str(impacts), "--flags", str(path)]
        else:
            argv = [*source.split(), str(path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        return captured.err, f"{path} line 3: "

    @pytest.mark.parametrize("source", list(GOOD_LINES))
    def test_non_json_line(self, tmp_path, capsys, source):
        err, where = self._bad_third_line(tmp_path, capsys, source, "not json")
        assert where + "invalid JSON" in err

    @pytest.mark.parametrize("source", list(GOOD_LINES))
    def test_non_object_line(self, tmp_path, capsys, source):
        err, where = self._bad_third_line(tmp_path, capsys, source, "[1.5, 0.9]")
        assert where + "expected a JSON object" in err

    @pytest.mark.parametrize("row,key", [({"t": 2.0}, "conf"),
                                         ({"conf": 0.9}, "t")])
    def test_segment_row_missing_key(self, tmp_path, capsys, row, key):
        err = self._run(tmp_path, capsys, "segment",
                        ['{"t": 1.0, "conf": 0.9}', json.dumps(row)])
        assert "line 2" in err and repr(key) in err

    def test_segment_confidence_out_of_range(self, tmp_path, capsys):
        err = self._run(tmp_path, capsys, "segment", ['{"t": 1.0, "conf": 1.5}'])
        assert ("line 1: bad impact row: confidence must be in [0, 1], got 1.5"
                in err)

    def test_segment_flags_row_missing_key(self, tmp_path, capsys):
        flags = tmp_path / "flags.jsonl"
        flags.write_text('{"broadcast_view": true}\n', encoding="utf-8")
        err = self._run(tmp_path, capsys, "segment",
                        ['{"t": 1.0, "conf": 0.9}', '{"t": 1.5, "conf": 0.9}'],
                        extra=("--flags", str(flags)))
        assert "line 1" in err and "'scoreboard_visible'" in err

    IMPACTS = ['{"t": 1.0, "conf": 0.9}', '{"t": 1.5, "conf": 0.9}',
               '{"t": 9.0, "conf": 0.9}', '{"t": 9.5, "conf": 0.9}']

    def _segment_with_flags(self, tmp_path, capsys, flag_lines):
        flags = tmp_path / "flags.jsonl"
        flags.write_text("\n".join(flag_lines) + "\n", encoding="utf-8")
        return self._run(tmp_path, capsys, "segment", self.IMPACTS,
                         extra=("--flags", str(flags)))

    @pytest.mark.parametrize("command", ["evaluate", "segment", "segment --flags",
                                         "simulate --config"])
    def test_deeply_nested_json_exits_two(self, tmp_path, capsys, command):
        nested = tmp_path / "nested.json"
        nested.write_text("[" * 100_000 + "\n", encoding="utf-8")
        inputs = tmp_path / "impacts.jsonl"
        inputs.write_text("\n".join(self.IMPACTS) + "\n", encoding="utf-8")
        argv = {
            "evaluate": ["evaluate", "--input", str(nested)],
            "segment": ["segment", "--input", str(nested)],
            "segment --flags": ["segment", "--input", str(inputs),
                                "--flags", str(nested)],
            "simulate --config": ["simulate", "--config", str(nested)],
        }[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "maximum recursion depth" in captured.err
        assert str(nested) in captured.err

    @pytest.mark.parametrize("count", [1, 3])
    def test_segment_flag_count_mismatch(self, tmp_path, capsys, count):
        row = '{"broadcast_view": true, "scoreboard_visible": true}'
        err = self._segment_with_flags(tmp_path, capsys, [row] * count)
        assert f"2 intervals but {count} flag pairs" in err

    @pytest.mark.parametrize("value", ['"false"', '"no"', "0", "null"])
    def test_segment_flag_must_be_a_json_boolean(self, tmp_path, capsys, value):
        good = '{"broadcast_view": true, "scoreboard_visible": true}'
        bad = f'{{"broadcast_view": true, "scoreboard_visible": {value}}}'
        err = self._segment_with_flags(tmp_path, capsys, [good, bad])
        assert "line 2" in err and "'scoreboard_visible' must be true or false" in err

    @pytest.mark.parametrize("lines,bad_line", [
        (['{"t": 2.0, "conf": 0.9}', '{"t": NaN, "conf": 0.9}',
          '{"t": 1.5, "conf": 0.9}'], 2),
        (['{"t": Infinity, "conf": 0.9}', '{"t": Infinity, "conf": 0.9}'], 1),
    ])
    def test_segment_non_finite_impact_timestamp(self, tmp_path, capsys, lines,
                                                 bad_line):
        path = tmp_path / "input.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["segment", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"line {bad_line}" in captured.err and "finite" in captured.err

    def test_segment_impact_too_large_for_a_float(self, tmp_path, capsys):
        path = tmp_path / "input.jsonl"
        path.write_text('{"t": 1.0, "conf": 0.9}\n{"t": 1%s, "conf": 0.9}\n'
                        % ("0" * 400), encoding="utf-8")
        assert main(["segment", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 2" in captured.err
        assert "int too large to convert to float" in captured.err

    @pytest.mark.parametrize("lines,bad_line", [
        (['{"t": 1.0, "conf": 0.9}', '{"t": "1.5", "conf": 0.9}'], 2),
        (['{"t": 1.0, "conf": true}', '{"t": 1.5, "conf": 0.9}'], 1),
    ])
    def test_segment_impact_must_be_a_json_number(self, tmp_path, capsys, lines,
                                                  bad_line):
        path = tmp_path / "input.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["segment", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"line {bad_line}" in captured.err and "expected a number" in captured.err

    @pytest.mark.parametrize("flag,value", [
        ("--threshold", "2"), ("--threshold", "NaN"), ("--min-hits", "0"),
        ("--max-gap", "-1"), ("--max-gap", "nan"), ("--padding", "inf"),
    ])
    def test_segment_parameter_out_of_range(self, tmp_path, capsys, flag, value):
        path = tmp_path / "input.jsonl"
        path.write_text("\n".join(self.IMPACTS) + "\n", encoding="utf-8")
        assert main(["segment", "--input", str(path), flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "configuration error: segment parameters:" in captured.err
