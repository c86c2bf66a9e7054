"""Prompt assembly and the pluggable commentary-model client boundary.

Rally metadata and the memory snapshot are serialized into a bounded-size
text prompt; a request for a commentary client carries that prompt together
with the rally and memory snapshot it was built from.  The HTTP client
speaks a minimal chat-completion JSON shape; the mock client is a pure
function of its request and is used for tests and offline runs.
Conversation context keeps at most the single most recent interaction, so
context size stays constant as a match progresses.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import time
from dataclasses import field
from pathlib import Path

from .event_stream import (COUNT_FIELDS, RallyRecord, SchemaViolation, ShotEvent,
                           rally_from_json, score_cell, valid_unicode)
from .match_model import (
    PLAYER_1,
    PLAYER_2,
    PLAYER_IDS,
    PlayerRef,
    ScoringConfig,
    frozen,
)
from .memory import RATIO_FIELDS, ContextView, PlayerStatLine, ratios

COMMENTATOR_SYSTEM_PROMPT = """\
I want you to act as a professional tennis commentator and coach. I will give \
you descriptions of tennis matches in progress, which include both detailed \
shot-by-shot data and real broadcast transcripts. You will commentate on the \
match, providing your analysis on what has happened thus far and predicting \
how the match will go.

You should be knowledgeable of tennis terminology, tactics, players involved \
in each match. Your commentary must be factually accurate based on the shot \
data. Explicitly use the broadcast transcripts to extract long-term match \
context, tactical shifts, and any rolling match statistics mentioned by the \
original commentators (e.g., serve percentages, error counts). Weave these \
macro trends into your commentary naturally when they add strategic depth to \
the current point.

Be professionally insightful, engaging the audience, and maintain narrative \
coherence by connecting the current rally to the momentum of the recent \
points and the overall match story. Ensure the length is appropriate and use \
natural pauses (ellipses...) and transitions. Focus on intelligent analysis \
rather than just narrating play-by-play.\
"""

USER_INSTRUCTION_TEMPLATE = (
    "Here is the metadata for the current rally. Provide a commentary for the "
    "rally between {min_words} and {max_words} words, adjusting the length "
    "based on rally duration and importance. Return the output strictly as "
    "plain text."
)

_METADATA_MARKER = "Metadata:"
_CONTEXT_MARKER = "Match context:"

HTTP_TIMEOUT_S = 30.0
GENERATE_RETRIES = 3
GENERATE_BACKOFF_S = 0.5


class TransportFailure(RuntimeError):
    """Network-level failure talking to the commentary endpoint; retryable."""


class MalformedResponse(RuntimeError):
    """The endpoint answered, but not in the agreed shape."""


class BudgetExceeded(RuntimeError):
    """The assembled prompt overruns the configured token cap."""


@frozen
class PromptBundle:
    """The prompt text, plus the facts it was built from.

    ``rally`` and ``view`` are set by :func:`build_commentary_prompt`, and
    ``reference`` and ``prediction`` by the judge prompt builder; they are
    facts for offline clients and never leave the process.
    """

    system_text: str
    user_text: str
    prior_interaction: tuple[str, str] | None = None
    rally: RallyRecord | None = field(default=None, compare=False, repr=False)
    view: ContextView | None = field(default=None, compare=False, repr=False)
    reference: str | None = field(default=None, compare=False, repr=False)
    prediction: str | None = field(default=None, compare=False, repr=False)

    def context_text(self) -> str:
        parts = [self.system_text]
        if self.prior_interaction is not None:
            parts.extend(self.prior_interaction)
        parts.append(self.user_text)
        return "\n".join(parts)


@frozen
class PersonaConfig:
    system_text: str = COMMENTATOR_SYSTEM_PROMPT
    min_words: int = 5
    max_words: int = 60

    def __post_init__(self):
        if not isinstance(self.system_text, str) or not self.system_text:
            raise ValueError("persona system_text must be a non-empty string")
        if not valid_unicode(self.system_text):
            raise ValueError(f"persona system_text must be valid Unicode, "
                             f"got {self.system_text!r}")
        if not (type(self.min_words) is int and type(self.max_words) is int
                and 1 <= self.min_words <= self.max_words):
            raise ValueError("persona word counts must be ints with "
                             f"1 <= min_words <= max_words, got "
                             f"{self.min_words!r} and {self.max_words!r}")

    @functools.cached_property
    def instruction(self) -> str:  # rendered once per persona
        return USER_INSTRUCTION_TEMPLATE.format(min_words=self.min_words,
                                                max_words=self.max_words)


@frozen
class GenerationRequest:
    bundle: PromptBundle


@frozen
class GenerationResponse:
    text: str
    usage: dict


def estimate_tokens(text: str) -> int:
    """Model-agnostic size proxy: one token per four characters, rounded up."""
    return math.ceil(len(text) / 4)


# ---------------------------------------------------------------------------
# Metadata serialization
# ---------------------------------------------------------------------------


def describe_shot(shot: ShotEvent, hitter: PlayerRef) -> str:
    """Readable yet machine-invertible one-line shot description."""
    if shot.stroke == "serve":
        head = f"{shot.serve_attempt}-serve"
    else:
        head = f"{hitter.handedness}-handed {shot.stroke}"
    return f"{head} {shot.technique} {shot.direction} ({shot.outcome})"


_SERVE_DESC_RE = re.compile(r"^(first|second)-serve (\S+) (\S+) \((\w+)\)$")
_SHOT_DESC_RE = re.compile(r"^(left|right)-handed (forehand|backhand) (\S+) (\S+) \((\w+)\)$")


def _parse_shot_description(desc: str) -> dict:
    m = _SERVE_DESC_RE.match(desc)
    if m:
        return {"stroke": "serve", "serve_attempt": m.group(1),
                "technique": m.group(2), "direction": m.group(3),
                "outcome": m.group(4)}
    m = _SHOT_DESC_RE.match(desc)
    if m:
        return {"stroke": m.group(2), "serve_attempt": None,
                "technique": m.group(3), "direction": m.group(4),
                "outcome": m.group(5)}
    raise SchemaViolation(f"unparsable shot description: {desc!r}")


_encode = json.encoder.encode_basestring  # the C encoder json.dumps uses for str


def _number(x: float) -> str:
    """A float as json writes it: its repr, or NaN, Infinity, -Infinity."""
    if math.isfinite(x):
        return repr(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _pair(pos: tuple[float, float]) -> str:
    x, y = pos
    return f"[\n        {_number(x)},\n        {_number(y)}\n      ]"


def _cell(value) -> str:
    """A point cell as JSON text: the dataset's :func:`score_cell`, written."""
    cell = score_cell(value)
    return repr(cell) if type(cell) is int else _encode(cell)


def serialize_metadata(rally: RallyRecord) -> str:
    """The metadata block as indented JSON text.

    Byte contract: the result equals ``json.dumps(metadata_object(rally),
    indent=2, ensure_ascii=False)``, where ``metadata_object`` is the
    reference dict builder in ``tests/oracles.py``: same keys in the same
    order, ``tiebreak``, a shot's ``hitter_position``/``ball_position``,
    ``bounces`` and a bounce's ``position`` present only when set, strings
    through json's encoder, ints by ``int.__repr__``, floats by json's rule
    (``NaN``, ``Infinity``, ``-Infinity`` when not finite) and an empty shot
    list as ``[]``.  The layout is written directly because json's indenting
    encoder is pure Python and was the costliest step of prompt assembly.
    """
    info = rally.match_info
    score = rally.initial_score
    outcome = rally.outcome
    p1, p2 = info.player_1, info.player_2
    n1, n2 = _encode(p1.name), _encode(p2.name)
    names = {PLAYER_1: n1, PLAYER_2: n2}
    s1, s2 = score.sets_won()
    g1, g2 = score.games
    parts = [
        f'{{\n  "clip_id": {_encode(rally.clip_id)},\n'
        f'  "match_info": {{\n'
        f'    "tournament": {_encode(info.tournament)},\n'
        f'    "round": {_encode(info.round)},\n'
        f'    "surface": {_encode(info.surface)},\n'
        f'    "player_1": {{\n      "name": {n1},\n'
        f'      "handedness": {_encode(p1.handedness)}\n    }},\n'
        f'    "player_2": {{\n      "name": {n2},\n'
        f'      "handedness": {_encode(p2.handedness)}\n    }}\n  }},\n'
        f'  "score_state (initial)": {{\n'
        f'    "server": {names[score.server]},\n'
        f'    "returner": {names[score.returner]},\n'
        f'    "sets": {{\n      {n1}: {s1!r},\n      {n2}: {s2!r}\n    }},\n'
        f'    "games_in_current_set": {{\n      {n1}: {g1!r},\n'
        f'      {n2}: {g2!r}\n    }},\n'
        f'    "points_in_current_game": {{\n      {n1}: {_cell(score.points[0])},\n'
        f'      {n2}: {_cell(score.points[1])}\n    }}'
    ]
    if score.in_tiebreak:
        parts.append(',\n    "tiebreak": true')
    parts.append('\n  },\n  "rally": [')
    sep = "\n    {"
    for shot in rally.shots:
        hitter = p1 if shot.hitter == PLAYER_1 else p2
        parts.append(
            f'{sep}\n      "shot_index": {shot.index!r},\n'
            f'      "hitter": {names[shot.hitter]},\n'
            f'      "shot_description": {_encode(describe_shot(shot, hitter))},\n'
            f'      "timestamp": {_number(shot.timestamp)}')
        if shot.hitter_position is not None:
            parts.append(f',\n      "hitter_position": {_pair(shot.hitter_position)}')
        if shot.ball_position is not None:
            parts.append(f',\n      "ball_position": {_pair(shot.ball_position)}')
        parts.append("\n    }")
        sep = ",\n    {"
    parts.append("\n  ]" if rally.shots else "]")
    parts.append(
        f',\n  "outcome": {{\n'
        f'    "point_winner": {names[outcome.point_winner]},\n'
        f'    "point_loser": {names[outcome.point_loser]},\n'
        f'    "reason": {_encode(outcome.reason)}\n  }},\n'
        f'  "audio_transcription (background context)": {_encode(rally.transcript)}')
    if rally.bounces:
        sep = ',\n  "bounces": [\n    {'
        for bounce in rally.bounces:
            parts.append(f'{sep}\n      "timestamp": {_number(bounce.timestamp)},\n'
                         f'      "court_half": {_encode(bounce.court_half)}')
            if bounce.position is not None:
                parts.append(f',\n      "position": {_pair(bounce.position)}')
            parts.append("\n    }")
            sep = ",\n    {"
        parts.append("\n  ]")
    parts.append("\n}")
    return "".join(parts)


def _dataset_shape(obj: dict) -> dict:
    """The dataset JSON object that a metadata block describes."""
    ids = {obj["match_info"][pid]["name"]: pid for pid in PLAYER_IDS}

    def pid_of(name: str) -> str:
        if name not in ids:
            raise SchemaViolation(f"unknown player name: {name!r}")
        return ids[name]

    state = obj["score_state (initial)"]
    scoreboard = {name: [state["sets"][name], state["games_in_current_set"][name],
                         state["points_in_current_game"][name]]
                  for name in ids}
    scoreboard["server"] = state["server"]
    shot_sequence = [{**entry, **_parse_shot_description(entry["shot_description"]),
                      "hitter": pid_of(entry["hitter"])}
                     for entry in obj["rally"]]
    outcome = obj["outcome"]
    return {
        "clip_id": obj["clip_id"],
        "match_info": obj["match_info"],
        "scoreboard": scoreboard,
        "audio_transcript": obj["audio_transcription (background context)"],
        "shot_sequence": shot_sequence,
        "outcome": {"point_winner": pid_of(outcome["point_winner"]),
                    "point_loser": pid_of(outcome["point_loser"]),
                    "reason": outcome["reason"]},
        "bounces": obj.get("bounces", []),
    }


def parse_metadata(text: str | dict,
                   config: ScoringConfig | None = None) -> RallyRecord:
    """Invert :func:`serialize_metadata` (commentary is never carried).

    The block is translated to the dataset shape and parsed by
    :func:`rally_from_json`, so it passes the same schema checks as a dataset
    line; a malformed block raises :class:`SchemaViolation`.
    """
    try:
        obj = json.loads(text) if isinstance(text, str) else text
        return rally_from_json(_dataset_shape(obj), config)
    except SchemaViolation:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaViolation(
            f"malformed metadata block: {type(exc).__name__}: {exc}") from None


# ---------------------------------------------------------------------------
# Memory serialization
# ---------------------------------------------------------------------------


def _pct(value: float | None) -> str:
    return "-" if value is None else f"{100.0 * value:.1f}%"


_STATISTIC_LABEL = f"{'statistic':<26}"
_COUNT_LABELS = tuple(f"{name:<26}" for name in COUNT_FIELDS)
_RATIO_LABELS = tuple(f"{name:<26}" for name in RATIO_FIELDS)


class _CountCells(dict):
    """``str(x).rjust(width)`` of the counts met so far at one table width:
    each is written on its first use, and at most 1,024 are kept."""

    def __init__(self, width: int):
        self.width = width

    def __missing__(self, x) -> str:
        cell = str(x).rjust(self.width)
        if type(x) is int and len(self) < 1024:  # a bool or float would equal an int key
            self[x] = cell
        return cell


_count_cells = functools.lru_cache(maxsize=16)(_CountCells)  # one per table width met


def _stats_table(lines: tuple[PlayerStatLine, PlayerStatLine],
                 names: tuple[str, str]) -> str:
    width = max(len(names[0]), len(names[1]), 10) + 2
    a, b = lines
    cells = _count_cells(width)  # the counts are ints, as consolidated
    rows = [_STATISTIC_LABEL + names[0].rjust(width) + names[1].rjust(width)]
    for label, x, y in zip(_COUNT_LABELS, a, b):
        rows.append(label + cells[x] + cells[y])
    for label, x, y in zip(_RATIO_LABELS, ratios(a), ratios(b)):
        rows.append(label + _pct(x).rjust(width) + _pct(y).rjust(width))
    return "\n".join(rows)


def serialize_memory(view: ContextView, names: tuple[str, str]) -> str:
    """Recent-rally digest plus the two-column statistics table headed by ``names``."""
    lines = ["RECENT RALLIES (oldest first):"]
    if view.recent:
        for i, entry in enumerate(view.recent, start=1):
            lines.append(f"{i}. {entry.digest}")
    else:
        lines.append("(none yet)")
    lines.append("")
    lines.append(f"MATCH STATISTICS (consolidated over "
                 f"{view.rallies_consolidated} rallies):")
    lines.append(_stats_table(view.stat_lines, names))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Prompt assembly
# ---------------------------------------------------------------------------


def build_commentary_prompt(rally: RallyRecord, view: ContextView,
                            persona: PersonaConfig | None = None,
                            prior: tuple[str, str] | None = None) -> PromptBundle:
    """Assemble the full request prompt for one rally.

    ``prior`` carries the most recent (user, assistant) exchange; older
    interactions are deliberately dropped.
    """
    persona = persona or PersonaConfig()
    info = rally.match_info
    user_text = "\n\n".join([
        persona.instruction,
        f"{_METADATA_MARKER}\n{serialize_metadata(rally)}",
        f"{_CONTEXT_MARKER}\n"
        f"{serialize_memory(view, (info.player_1.name, info.player_2.name))}",
    ])
    return PromptBundle(system_text=persona.system_text, user_text=user_text,
                        prior_interaction=prior, rally=rally, view=view)


# ---------------------------------------------------------------------------
# Clients
# ---------------------------------------------------------------------------


class MockCommentaryClient:
    """Deterministic offline stand-in for the commentary model.

    The produced sentence is a pure function of the rally facts carried on
    the request's bundle: it names the point winner, the rally-ending reason,
    the score the point started at, and folds in the consolidated tally once
    history exists.  A bundle without those facts is a malformed request.
    """

    def complete(self, request: GenerationRequest) -> GenerationResponse:
        bundle = request.bundle
        if bundle.rally is None or bundle.view is None:
            raise MalformedResponse("prompt bundle carries no rally facts")
        return GenerationResponse(
            text=self._commentary(bundle.rally, bundle.view), usage={})

    def _commentary(self, rally: RallyRecord, view: ContextView) -> str:
        info = rally.match_info
        outcome = rally.outcome
        score = rally.initial_score
        win = info.player(outcome.point_winner).surname
        lose = info.player(outcome.point_loser).surname
        pa, pb = score.points
        at = f"at {pa}-{pb}"
        final = rally.shots[-1]

        reason = outcome.reason
        if reason == "ace":
            sentence = f"{win} fires an ace {at}."
        elif reason == "double_fault":
            sentence = f"A double fault from {lose} {at} hands the point to {win}."
        elif reason == "service_winner":
            sentence = f"{win} lands an unreturnable serve {at}."
        elif reason == "winner":
            sentence = (f"{win} ends it with a {final.stroke} {final.technique} "
                        f"winner {at}.")
        elif reason == "unforced_error":
            sentence = (f"An unforced error from {lose} {at} gives {win} "
                        f"the point.")
        else:
            sentence = f"{win} wrestles the point away {at}, forcing the miss."

        idx = 0 if outcome.point_winner == PLAYER_1 else 1
        if rally.ends_game:
            sentence += " That seals the game."

        if view.rallies_consolidated > 0:
            other = view.stat_lines[1 - idx]
            sentence += (f" Tally so far puts {win} on "
                         f"{view.stat_lines[idx].winners} winners against "
                         f"{other.winners + other.unforced_errors} decisive "
                         f"moments for {lose}.")
        return sentence


def claim_file(path) -> None:
    """Open ``path`` for append and close it at once, before any input is read:
    an absent file is created empty and an existing one keeps its bytes (a named
    pipe is not opened, as the close would end its reader).  A name the system
    cannot encode (a NUL, a lone surrogate) or refuses to open (a directory, a
    missing directory, a dangling symlink, a name too long) is a ValueError."""
    try:
        if not Path(path).is_fifo():
            open(path, "a", encoding="utf-8").close()
    except ValueError:  # UnicodeEncodeError included
        raise ValueError("it is not a valid file name") from None
    except OSError as exc:
        raise ValueError(exc.strerror) from None


class HttpCommentaryClient:
    """Thin chat-completion client over the minimal JSON wire shape.

    Request body: ``{system, messages, clip_ref}``, where ``clip_ref`` is the
    ``clip_id`` of the bundle's rally and is left out when there is none;
    expected reply: a JSON object ``{"text": ..., "usage": {...}}``.  Endpoint and
    credential come from the environment unless given explicitly.  Each reply
    is appended to ``log_path`` when one is given; the log is claimed here,
    before any request (see ``claim_file``), and a path it refuses is a
    ValueError.
    """

    ENDPOINT_ENV = "COMMENTARY_API_URL"
    API_KEY_ENV = "COMMENTARY_API_KEY"

    def __init__(self, endpoint: str | None = None, api_key: str | None = None,
                 session=None, log_path: str | None = None):
        self.endpoint = endpoint or os.environ.get(self.ENDPOINT_ENV)
        self.api_key = api_key or os.environ.get(self.API_KEY_ENV)
        if not self.endpoint:
            raise ValueError(
                f"no endpoint configured; set {self.ENDPOINT_ENV} or pass one")
        if log_path:
            try:
                claim_file(log_path)
            except ValueError as exc:
                raise ValueError(f"cannot write request log {log_path!r}: {exc}") from None
        import requests  # only the HTTP client needs it; keeps replay start-up light
        self.session = session or requests.Session()
        self.log_path = log_path

    def _messages(self, bundle: PromptBundle) -> list[dict]:
        messages = []
        if bundle.prior_interaction is not None:
            prior_user, prior_assistant = bundle.prior_interaction
            messages.append({"role": "user", "content": prior_user})
            messages.append({"role": "assistant", "content": prior_assistant})
        messages.append({"role": "user", "content": bundle.user_text})
        return messages

    def complete(self, request: GenerationRequest) -> GenerationResponse:
        body = {
            "system": request.bundle.system_text,
            "messages": self._messages(request.bundle),
        }
        if request.bundle.rally is not None:
            body["clip_ref"] = request.bundle.rally.clip_id

        headers = {}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        import requests
        try:
            http_response = self.session.post(
                self.endpoint, json=body, headers=headers, timeout=HTTP_TIMEOUT_S)
        except requests.RequestException as exc:
            raise TransportFailure(f"{type(exc).__name__}: {exc}") from exc

        self._log(body, http_response)
        if http_response.status_code == 429:
            raise TransportFailure("rate limited (status 429)")
        if http_response.status_code >= 500:
            raise TransportFailure(f"server error {http_response.status_code}")
        if http_response.status_code >= 400:
            raise MalformedResponse(
                f"request rejected with status {http_response.status_code}")
        try:
            payload = http_response.json()
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
            raise MalformedResponse(f"non-JSON reply: {exc}") from exc
        if not isinstance(payload, dict):
            raise MalformedResponse("reply is not a JSON object")
        text = payload.get("text")
        if not text or not isinstance(text, str):
            raise MalformedResponse("reply carries no text")
        if not valid_unicode(text):
            raise MalformedResponse(f"reply text is not valid Unicode: {text!r}")
        return GenerationResponse(text=text, usage=payload.get("usage", {}))

    def _log(self, body: dict, http_response) -> None:
        if not self.log_path:
            return
        entry = {
            "endpoint": self.endpoint,
            "request": body,
            "status": http_response.status_code,
            "response": http_response.text[:10_000],
            "credential": "redacted" if self.api_key else None,
        }
        with open(self.log_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry, ensure_ascii=False) + "\n")


def generate(client, request: GenerationRequest,
             sleep=time.sleep) -> GenerationResponse:
    """Run one generation call with bounded retries.

    Only transport-level failures are retried (exponential backoff);
    malformed replies are not.  The token budget is the caller's to check.
    """
    attempt = 0
    while True:
        try:
            response = client.complete(request)
        except TransportFailure:
            if attempt >= GENERATE_RETRIES:
                raise
            sleep(GENERATE_BACKOFF_S * (2 ** attempt))
            attempt += 1
            continue
        if not response.text:
            raise MalformedResponse("empty commentary text")
        return response
