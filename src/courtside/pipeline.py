"""Orchestration: dataset ingestion, the online replay loop and run reports.

``replay_match`` drives one match end to end: snapshot the memory, assemble
the prompt and check it against the token cap, call the configured client,
sanity-check the result, then advance the memory (evictions consolidate into
the statistic lines).  Budget and client failures mark the rally as failed
and the run continues; the rally's metadata still reaches memory so match
statistics stay complete.
"""

from __future__ import annotations

import json
import time
from dataclasses import field, fields
from pathlib import Path

from .evaluation import corpus_metrics, CorpusTooSmall, sanity_check
from .event_stream import (
    RallyRecord,
    SchemaViolation,
    rally_from_json,
    validate_rally,
)
from .match_model import ScoringConfig, field_values, frozen, validate_scoreboard
from .memory import DEFAULT_WINDOW, MatchMemory, MemoryEntry
from .prompt_engine import (
    BudgetExceeded,
    GenerationRequest,
    HttpCommentaryClient,
    MalformedResponse,
    MockCommentaryClient,
    PersonaConfig,
    TransportFailure,
    build_commentary_prompt,
    estimate_tokens,
    generate,
)

CLIENT_KINDS = ("mock", "http")


class ConfigError(ValueError):
    """Configuration file or flag values are unusable."""


@frozen
class PipelineConfig:
    scoring: ScoringConfig = field(default_factory=ScoringConfig)
    memory_window: int = DEFAULT_WINDOW
    token_cap: int = 16_000
    client: str = "mock"
    persona: PersonaConfig = field(default_factory=PersonaConfig)
    log_requests: str | None = None

    def __post_init__(self):
        if type(self.memory_window) is not int or self.memory_window < 1:
            raise ConfigError("memory window must be an integer >= 1")
        if type(self.token_cap) is not int or self.token_cap <= 0:
            raise ConfigError("token cap must be an integer > 0")
        if self.client not in CLIENT_KINDS:
            raise ConfigError(f"client must be one of {CLIENT_KINDS}")
        if self.log_requests is not None and (type(self.log_requests) is not str
                                              or not self.log_requests):
            raise ConfigError(f"log_requests must be a non-empty file path "
                              f"string, got {self.log_requests!r}")
        if self.log_requests and self.client != "http":
            raise ConfigError("log_requests needs the http client; "
                              "the mock client sends no requests")

    @classmethod
    def from_dict(cls, obj: dict) -> "PipelineConfig":
        known = _known_keys(obj, cls, "config")
        scoring = _known_keys(obj.get("scoring", {}), ScoringConfig, "scoring")
        persona = _known_keys(obj.get("persona", {}), PersonaConfig, "persona")
        try:
            return cls(**{**known,
                          "scoring": ScoringConfig(**scoring),
                          "persona": PersonaConfig(**persona)})
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_file(cls, path: str) -> "PipelineConfig":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        try:
            obj = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        return cls.from_dict(obj)

    def summary(self) -> dict:
        return {
            "scoring": field_values(self.scoring),
            "memory_window": self.memory_window,
            "token_cap": self.token_cap,
            "client": self.client,
        }


def _known_keys(obj, cls, what: str) -> dict:
    """``obj`` when it is a JSON object whose keys all name fields of
    ``cls``; a ConfigError naming ``what`` otherwise."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a JSON object")
    unknown = sorted(set(obj) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {what} keys: {unknown}")
    return obj


def make_client(config: PipelineConfig):
    if config.client == "mock":
        return MockCommentaryClient()
    try:
        return HttpCommentaryClient(log_path=config.log_requests)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Dataset ingestion
# ---------------------------------------------------------------------------


def _read_record(line: bytes, config: ScoringConfig | None,
                 previous: RallyRecord | None) -> RallyRecord:
    """One dataset line as a validated record; SchemaViolation otherwise.
    A score taken from ``previous`` was validated with it, so it is not
    checked again."""
    try:
        obj = json.loads(line.decode("utf-8").strip())
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError included
        raise SchemaViolation(f"invalid JSON: {exc}") from None
    record = rally_from_json(obj, config, previous=previous)
    problems = validate_rally(record)
    if previous is None or record.initial_score is not previous.final_score:
        problems += validate_scoreboard(record.initial_score)
    if problems:
        raise SchemaViolation(f"{record.clip_id}: " + "; ".join(problems))
    return record


def read_lines(path):
    """Yield ``(line_number, line)`` for each non-blank line of a file, as bytes;
    a path that cannot be opened, a directory too, is a FileNotFoundError."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise FileNotFoundError(f"cannot read {path}: {exc.strerror}") from None
    with fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.isspace():
                yield line_no, line


def load_dataset(path, config: ScoringConfig | None = None, *, errors: list):
    """Stream valid rally records from a JSONL file, in file order.

    Each record passes the schema, event and scoreboard validators.  A
    malformed line is appended to ``errors`` as ``(line_number, message)``
    and skipped, so one bad line never sinks the stream.

    Each line is decoded against the last record yielded, which
    :func:`rally_from_json` may take a line's score from.  Such a score
    needs no second reachability check, because ``advance_point`` moves a
    valid non-final score only to valid scores.  The records and ``errors``
    equal those of decoding each line on its own.
    """
    config = config or ScoringConfig()
    previous = None
    for line_no, line in read_lines(path):
        try:
            record = _read_record(line, config, previous)
        except SchemaViolation as exc:
            errors.append((line_no, str(exc)))
            continue
        previous = record
        yield record


# ---------------------------------------------------------------------------
# Replay loop
# ---------------------------------------------------------------------------


@frozen
class RallyRunRecord:
    rally_index: int
    clip_id: str
    prompt_tokens: int
    context_tokens: int
    commentary: str | None
    sanity_passed: bool | None
    failed: bool
    failure: str | None
    engine_ms: float
    client_ms: float

    def as_dict(self, include_timing: bool = True) -> dict:
        out = field_values(self)
        if not include_timing:
            del out["engine_ms"], out["client_ms"]
        return out


@frozen
class RunReport:
    rallies: tuple[RallyRunRecord, ...]
    final_stats: dict
    evaluation: dict | None
    config: dict

    @property
    def failures(self) -> int:
        return sum(1 for r in self.rallies if r.failed)

    def as_dict(self, include_timing: bool = True) -> dict:
        return {
            "config": self.config,
            "rallies": [r.as_dict(include_timing) for r in self.rallies],
            "rally_count": len(self.rallies),
            "failures": self.failures,
            "final_stats": self.final_stats,
            "evaluation": self.evaluation,
        }


_CLIENT_ERRORS = (TransportFailure, MalformedResponse, BudgetExceeded)


def replay_match(records, config: PipelineConfig | None = None,
                 client=None) -> RunReport:
    """Run the online loop over one match's records, in order.

    Each prompt is measured once: a prompt whose estimate exceeds
    ``config.token_cap`` fails its rally with :class:`BudgetExceeded` before
    the client is called.  The snapshot handed to prompt assembly never
    contains the current rally; after generation the rally (with its
    commentary, or none on failure) enters the window and evictions
    consolidate.  References present on the records are scored against the
    generated commentary at the end.
    """
    config = config or PipelineConfig()
    client = client or make_client(config)
    memory = MatchMemory(capacity=config.memory_window)
    prior: tuple[str, str] | None = None

    run_records: list[RallyRunRecord] = []
    generated: list[tuple[str, str]] = []  # (generated, reference) pairs

    for index, rally in enumerate(records):
        engine_started = time.perf_counter()
        bundle = build_commentary_prompt(rally, memory.snapshot(),
                                         persona=config.persona, prior=prior)
        prompt_tokens = estimate_tokens(
            bundle.system_text + "\n" + bundle.user_text)
        context_tokens = estimate_tokens(bundle.context_text())
        request = GenerationRequest(bundle=bundle)

        commentary = None
        failure = None
        client_started = time.perf_counter()
        try:
            if context_tokens > config.token_cap:
                raise BudgetExceeded(f"prompt estimate {context_tokens} tokens "
                                     f"exceeds cap {config.token_cap}")
            response = generate(client, request)
            commentary = response.text
        except _CLIENT_ERRORS as exc:
            failure = f"{type(exc).__name__}: {exc}"
        client_s = time.perf_counter() - client_started

        sanity_passed = None
        if commentary is not None:
            sanity_passed = not sanity_check(commentary, rally)
            prior = (bundle.user_text, commentary)
            if rally.commentary:
                generated.append((commentary, rally.commentary))

        memory.observe(MemoryEntry(rally_index=index, metadata=rally,
                                   commentary=commentary))
        engine_s = (time.perf_counter() - engine_started) - client_s
        run_records.append(RallyRunRecord(
            rally_index=index, clip_id=rally.clip_id,
            prompt_tokens=prompt_tokens, context_tokens=context_tokens,
            commentary=commentary, sanity_passed=sanity_passed,
            failed=failure is not None, failure=failure,
            engine_ms=engine_s * 1000.0, client_ms=client_s * 1000.0,
        ))

    memory.flush()

    evaluation = None
    if generated:
        try:
            report = corpus_metrics((g, [r]) for g, r in generated)
            evaluation = report.as_dict()
        except CorpusTooSmall:
            evaluation = None

    return RunReport(
        rallies=tuple(run_records),
        final_stats=memory.long.report(),
        evaluation=evaluation,
        config=config.summary(),
    )
