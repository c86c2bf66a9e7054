"""HTTP commentary client wire-shape, retry and logging tests (no network)."""

import json

import pytest
import requests

from courtside.evaluation import build_judge_prompt
from courtside.event_stream import rally_to_json
from courtside.prompt_engine import (
    GenerationRequest,
    HttpCommentaryClient,
    MalformedResponse,
    PromptBundle,
    TransportFailure,
    generate,
)
from courtside.cli import main
from courtside.pipeline import ConfigError, PipelineConfig, make_client, replay_match
from courtside.simulate import simulate_match


class FakeResponse:
    def __init__(self, status_code=200, payload=None, text=None):
        self.status_code = status_code
        self.text = text if text is not None else json.dumps(payload or {})

    def json(self):
        return json.loads(self.text)


class FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers,
                           "timeout": timeout})
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


RALLY = simulate_match(seed=2024)[0]


def request_with_prior():
    bundle = PromptBundle(system_text="persona", user_text="current rally",
                          prior_interaction=("previous rally", "previous call"),
                          rally=RALLY)
    return GenerationRequest(bundle=bundle)


class TestWireShape:
    def test_success_and_body_layout(self):
        session = FakeSession([FakeResponse(payload={
            "text": "a tidy hold", "usage": {"prompt_tokens": 10}})])
        client = HttpCommentaryClient(endpoint="https://api.example/commentary",
                                      api_key="sk-secret", session=session)
        response = client.complete(request_with_prior())
        assert response.text == "a tidy hold"
        assert response.usage == {"prompt_tokens": 10}

        call = session.calls[0]
        assert call["url"] == "https://api.example/commentary"
        assert call["headers"]["Authorization"] == "Bearer sk-secret"
        body = call["json"]
        assert body["system"] == "persona"
        assert body["messages"] == [
            {"role": "user", "content": "previous rally"},
            {"role": "assistant", "content": "previous call"},
            {"role": "user", "content": "current rally"},
        ]
        assert body["clip_ref"] == RALLY.clip_id

    def test_replay_sends_each_rally_clip_id(self):
        records = simulate_match(seed=2024)[:4]
        session = FakeSession([FakeResponse(payload={"text": f"call {i}"})
                               for i in range(len(records))])
        client = HttpCommentaryClient(endpoint="https://api.example/c",
                                      session=session)
        report = replay_match(records, client=client)
        assert report.failures == 0
        assert ([call["json"]["clip_ref"] for call in session.calls]
                == [r.clip_id for r in records])

    def test_judge_bundle_sends_no_clip_ref(self):
        session = FakeSession([FakeResponse(payload={"text": "ok"})])
        client = HttpCommentaryClient(endpoint="https://api.example/c",
                                      session=session)
        bundle = build_judge_prompt("metadata", "a deep forehand",
                                    "a deep forehand winner")
        client.complete(GenerationRequest(bundle=bundle))
        assert "clip_ref" not in session.calls[0]["json"]

    def test_no_prior_single_message(self):
        session = FakeSession([FakeResponse(payload={"text": "ok"})])
        client = HttpCommentaryClient(endpoint="https://api.example/c",
                                      session=session)
        bundle = PromptBundle(system_text="s", user_text="u")
        client.complete(GenerationRequest(bundle=bundle))
        assert session.calls[0]["json"]["messages"] == [
            {"role": "user", "content": "u"}]

    def test_endpoint_from_environment(self, monkeypatch):
        monkeypatch.setenv("COMMENTARY_API_URL", "https://env.example/c")
        monkeypatch.setenv("COMMENTARY_API_KEY", "env-key")
        session = FakeSession([FakeResponse(payload={"text": "ok"})])
        client = HttpCommentaryClient(session=session)
        client.complete(request_with_prior())
        assert session.calls[0]["url"] == "https://env.example/c"
        assert session.calls[0]["headers"]["Authorization"] == "Bearer env-key"

    def test_missing_endpoint_rejected(self, monkeypatch):
        monkeypatch.delenv("COMMENTARY_API_URL", raising=False)
        with pytest.raises(ValueError):
            HttpCommentaryClient()


class TestFailureModes:
    def test_server_error_is_transport_failure(self):
        session = FakeSession([FakeResponse(status_code=503, payload={})])
        client = HttpCommentaryClient(endpoint="https://api.example/c",
                                      session=session)
        with pytest.raises(TransportFailure):
            client.complete(request_with_prior())

    def test_connection_error_is_transport_failure(self):
        session = FakeSession([requests.ConnectionError("refused")])
        client = HttpCommentaryClient(endpoint="https://api.example/c",
                                      session=session)
        with pytest.raises(TransportFailure):
            client.complete(request_with_prior())

    @pytest.mark.parametrize("exc", [
        requests.exceptions.ChunkedEncodingError("connection broken"),
        requests.exceptions.ContentDecodingError("bad gzip"),
        requests.exceptions.TooManyRedirects("loop"),
        requests.RequestException("generic"),
    ])
    def test_any_request_exception_is_transport_failure(self, exc):
        session = FakeSession([exc])
        client = HttpCommentaryClient(endpoint="https://api.example/c",
                                      session=session)
        with pytest.raises(TransportFailure, match=type(exc).__name__):
            client.complete(request_with_prior())

    def test_replay_survives_broken_chunked_reply(self):
        records = simulate_match(seed=2024)[:2]
        session = FakeSession([
            requests.exceptions.ChunkedEncodingError("connection broken"),
            FakeResponse(payload={"text": "recovered", "usage": {}}),
            FakeResponse(payload={"text": "steady", "usage": {}}),
        ])
        client = HttpCommentaryClient(endpoint="https://api.example/c",
                                      session=session)
        report = replay_match(records, client=client)
        assert [r.commentary for r in report.rallies] == ["recovered", "steady"]
        assert report.failures == 0
        assert len(session.calls) == 3

    def test_client_error_is_malformed_not_retried(self):
        session = FakeSession([FakeResponse(status_code=401, payload={})])
        client = HttpCommentaryClient(endpoint="https://api.example/c",
                                      session=session)
        with pytest.raises(MalformedResponse):
            generate(client, request_with_prior(), sleep=lambda s: None)
        assert len(session.calls) == 1

    def test_non_json_reply_is_malformed(self):
        session = FakeSession([FakeResponse(status_code=200, payload=None,
                                            text="<html>oops</html>")])
        client = HttpCommentaryClient(endpoint="https://api.example/c",
                                      session=session)
        with pytest.raises(MalformedResponse):
            client.complete(request_with_prior())

    def test_missing_text_is_malformed(self):
        session = FakeSession([FakeResponse(payload={"usage": {}})])
        client = HttpCommentaryClient(endpoint="https://api.example/c",
                                      session=session)
        with pytest.raises(MalformedResponse):
            client.complete(request_with_prior())

    @pytest.mark.parametrize("body", ["[1]", '"hi"', "null"])
    def test_non_object_reply_is_malformed_not_retried(self, body):
        session = FakeSession([FakeResponse(text=body)])
        client = HttpCommentaryClient(endpoint="https://api.example/c",
                                      session=session)
        with pytest.raises(MalformedResponse, match="not a JSON object"):
            generate(client, request_with_prior(), sleep=lambda s: None)
        assert len(session.calls) == 1

    def test_replay_marks_non_object_replies_failed(self):
        records = simulate_match(seed=2024)[:3]
        session = FakeSession([FakeResponse(text=body)
                               for body in ("[1]", '"hi"', "null")])
        client = HttpCommentaryClient(endpoint="https://api.example/c",
                                      session=session)
        report = replay_match(records, client=client)
        assert report.failures == 3
        assert [r.failure for r in report.rallies] == [
            "MalformedResponse: reply is not a JSON object"] * 3
        assert [r.commentary for r in report.rallies] == [None] * 3
        assert report.final_stats == replay_match(records).final_stats

    def test_replay_marks_deeply_nested_reply_failed(self, tmp_path, monkeypatch,
                                                     capsys):
        records = simulate_match(seed=2024)[:3]
        replies = [FakeResponse(text="[" * 100_000),
                   FakeResponse(payload={"text": "steady"}),
                   FakeResponse(payload={"text": "calm"})]
        client = HttpCommentaryClient(endpoint="https://api.example/c",
                                      session=FakeSession(replies))
        report = replay_match(records, client=client)
        assert report.failures == 1
        assert report.rallies[0].failure.startswith("MalformedResponse: non-JSON reply")
        assert [r.commentary for r in report.rallies] == [None, "steady", "calm"]

        monkeypatch.setenv(HttpCommentaryClient.ENDPOINT_ENV, "https://api.example/c")
        monkeypatch.setattr(requests, "Session", lambda: FakeSession(replies))
        match = tmp_path / "match.jsonl"
        match.write_text("".join(json.dumps(rally_to_json(r)) + "\n" for r in records),
                         encoding="utf-8")
        code = main(["replay", "--input", str(match), "--client", "http", "--no-timing"])
        captured = capsys.readouterr()
        assert code == 3
        assert "Traceback" not in captured.err
        assert json.loads(captured.out)["failures"] == 1

    def test_replay_marks_lone_surrogate_reply_failed(self, tmp_path, monkeypatch,
                                                     capsys):
        """JSON decodes ``"\\ud800"`` to a string that no report can hold as
        UTF-8: the rally fails, and the run goes on and writes its report."""
        records = simulate_match(seed=2024)[:3]
        replies = [FakeResponse(payload={"text": "Nice \ud800 point"}),
                   FakeResponse(payload={"text": "steady"}),
                   FakeResponse(payload={"text": "calm"})]
        client = HttpCommentaryClient(endpoint="https://api.example/c",
                                      session=FakeSession(replies))
        report = replay_match(records, client=client)
        assert report.failures == 1
        assert report.rallies[0].failure == (
            r"MalformedResponse: reply text is not valid Unicode: 'Nice \ud800 point'")
        assert [r.commentary for r in report.rallies] == [None, "steady", "calm"]

        monkeypatch.setenv(HttpCommentaryClient.ENDPOINT_ENV, "https://api.example/c")
        monkeypatch.setattr(requests, "Session", lambda: FakeSession(replies))
        match = tmp_path / "match.jsonl"
        match.write_text("".join(json.dumps(rally_to_json(r)) + "\n" for r in records),
                         encoding="utf-8")
        out = tmp_path / "report.json"
        code = main(["replay", "--input", str(match), "--client", "http",
                     "--no-timing", "--output", str(out)])
        assert code == 3
        assert "Traceback" not in capsys.readouterr().err
        assert json.loads(out.read_text(encoding="utf-8"))["failures"] == 1

    def test_generate_retries_transient_server_errors(self):
        session = FakeSession([
            FakeResponse(status_code=502, payload={}),
            FakeResponse(status_code=502, payload={}),
            FakeResponse(payload={"text": "recovered", "usage": {}}),
        ])
        client = HttpCommentaryClient(endpoint="https://api.example/c",
                                      session=session)
        slept = []
        response = generate(client, request_with_prior(), sleep=slept.append)
        assert response.text == "recovered"
        assert len(session.calls) == 3
        assert slept == [0.5, 1.0]

    def test_rate_limited_reply_is_retried(self):
        session = FakeSession([
            FakeResponse(status_code=429, payload={}),
            FakeResponse(payload={"text": "after the wait", "usage": {}}),
        ])
        client = HttpCommentaryClient(endpoint="https://api.example/c",
                                      session=session)
        slept = []
        response = generate(client, request_with_prior(), sleep=slept.append)
        assert response.text == "after the wait"
        assert len(session.calls) == 2
        assert slept == [0.5]


class TestRequestLogging:
    def test_log_written_with_credential_redacted(self, tmp_path):
        log_path = tmp_path / "requests.jsonl"
        session = FakeSession([FakeResponse(payload={"text": "ok", "usage": {}})])
        client = HttpCommentaryClient(endpoint="https://api.example/c",
                                      api_key="sk-very-secret", session=session,
                                      log_path=str(log_path))
        client.complete(request_with_prior())
        raw = log_path.read_text()
        assert "sk-very-secret" not in raw
        entry = json.loads(raw.splitlines()[0])
        assert entry["credential"] == "redacted"
        assert entry["status"] == 200
        assert entry["request"]["system"] == "persona"

    @pytest.mark.parametrize("target", ["DIR", "DIR/missing/requests.jsonl"])
    def test_unwritable_log_path_fails_before_any_request(self, tmp_path, target):
        log_path = target.replace("DIR", str(tmp_path))
        session = FakeSession([FakeResponse(payload={"text": "ok"})])
        with pytest.raises(ValueError, match="request log"):
            HttpCommentaryClient(endpoint="https://api.example/c",
                                 session=session, log_path=log_path)
        assert session.calls == []
        assert not (tmp_path / "missing").exists()

    def test_unwritable_log_path_is_a_config_error(self, tmp_path, monkeypatch,
                                                   capsys):
        monkeypatch.setenv(HttpCommentaryClient.ENDPOINT_ENV, "https://api.example/c")
        with pytest.raises(ConfigError):
            make_client(PipelineConfig(client="http", log_requests=str(tmp_path)))
        sessions = []
        monkeypatch.setattr(requests, "Session",
                            lambda: sessions.append(FakeSession([])) or sessions[-1])
        match = tmp_path / "match.jsonl"
        match.write_text("".join(json.dumps(rally_to_json(r)) + "\n"
                                 for r in simulate_match(seed=2024)[:3]),
                         encoding="utf-8")
        code = main(["replay", "--input", str(match), "--client", "http",
                     "--log-requests", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert all(session.calls == [] for session in sessions)

    def test_dangling_log_symlink_fails_before_any_request(self, tmp_path,
                                                           monkeypatch, capsys):
        """The parent of a dangling symlink exists, but the file it names
        cannot be opened: that is a configuration error, not a failure after
        the first reply."""
        log_path = tmp_path / "log.jsonl"
        log_path.symlink_to(tmp_path / "missing" / "x.jsonl")
        session = FakeSession([FakeResponse(payload={"text": "ok"})])
        with pytest.raises(ValueError, match="cannot write request log .*: "
                                             "No such file or directory"):
            HttpCommentaryClient(endpoint="https://api.example/c",
                                 session=session, log_path=str(log_path))
        assert session.calls == []
        monkeypatch.setenv(HttpCommentaryClient.ENDPOINT_ENV, "https://api.example/c")
        sessions = []
        monkeypatch.setattr(requests, "Session",
                            lambda: sessions.append(FakeSession([])) or sessions[-1])
        match = tmp_path / "match.jsonl"
        match.write_text("".join(json.dumps(rally_to_json(r)) + "\n"
                                 for r in simulate_match(seed=2024)[:3]),
                         encoding="utf-8")
        code = main(["replay", "--input", str(match), "--client", "http",
                     "--log-requests", str(log_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "request log" in captured.err and "Traceback" not in captured.err
        assert all(session.calls == [] for session in sessions)

    @pytest.mark.parametrize("name", ["log\ud800.jsonl", "log\x00.jsonl"],
                             ids=["lone_surrogate", "nul"])
    def test_log_path_no_file_can_have_is_a_config_error(self, tmp_path, monkeypatch,
                                                         capsys, name):
        """A config may spell a path that no file system can name; it fails
        with the rest of the config, before the first request."""
        monkeypatch.setenv(HttpCommentaryClient.ENDPOINT_ENV, "https://api.example/c")
        sessions = []
        monkeypatch.setattr(requests, "Session",
                            lambda: sessions.append(FakeSession([])) or sessions[-1])
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"client": "http",
                                      "log_requests": str(tmp_path / name)}),
                          encoding="utf-8")
        match = tmp_path / "match.jsonl"
        match.write_text("".join(json.dumps(rally_to_json(r)) + "\n"
                                 for r in simulate_match(seed=2024)[:3]),
                         encoding="utf-8")
        code = main(["replay", "--input", str(match), "--config", str(config)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "not a valid file name" in captured.err
        assert all(session.calls == [] for session in sessions)

    def test_log_name_with_escaped_bytes_is_written(self, tmp_path):
        """A name holding byte 0xff, as the command line passes it, is a file
        name the system can hold."""
        log_path = tmp_path / "log\udcff.jsonl"
        session = FakeSession([FakeResponse(payload={"text": "ok"})])
        client = HttpCommentaryClient(endpoint="https://api.example/c",
                                      session=session, log_path=str(log_path))
        client.complete(request_with_prior())
        assert b"log\xff.jsonl" in [p.name.encode("utf-8", "surrogateescape")
                                    for p in tmp_path.iterdir()]
