"""Fine-grained rally event sequences: validation, outcomes and statistics.

A rally is a list of :class:`ShotEvent` (serve first, hitters alternating,
timestamps strictly increasing) plus optional ball bounces.  The module
derives the rally outcome from the final events, turns a rally into per-player
statistic increments, and scores predicted event sequences against references
with the normalized edit-distance metric.
"""

from __future__ import annotations

import math
from functools import cached_property

from .match_model import (
    AD,
    LAYOUT_WIMBLEDON,
    MatchScore,
    PLAYER_1,
    PLAYER_IDS,
    PlayerRef,
    ScoringConfig,
    advance_point,
    check_player_names,
    frozen,
    is_break_point,
    is_terminal,
    other_player,
    parse_scoreboard,
)

STROKES = ("serve", "forehand", "backhand")
DIRECTIONS = ("cross-court", "down-the-line", "down-the-middle", "inside-out",
              "inside-in", "body", "wide", "T")
SHOT_OUTCOMES = ("in", "winner", "forced_error", "unforced_error", "fault",
                 "let", "net")
OUTCOME_REASONS = ("ace", "double_fault", "winner", "forced_error",
                   "unforced_error", "service_winner")
SERVE_ATTEMPTS = ("first", "second")

class IncompleteRally(ValueError):
    """The shot sequence does not end in a point-deciding event."""


class SchemaViolation(ValueError):
    """A serialized rally record does not match the dataset schema."""


@frozen
class ShotEvent:
    """One hit in the rally event sequence.

    ``timestamp`` is seconds from clip start.  ``serve_attempt`` must be set
    exactly when the stroke is a serve.  Pixel positions are optional samples
    of the hitter and ball at the moment of contact.
    """

    index: int
    hitter: str
    stroke: str
    technique: str
    direction: str
    outcome: str
    timestamp: float
    serve_attempt: str | None = None
    hitter_position: tuple[float, float] | None = None
    ball_position: tuple[float, float] | None = None

    def __post_init__(self):
        if self.hitter not in PLAYER_IDS:
            raise ValueError(f"unknown hitter: {self.hitter!r}")
        if self.stroke not in STROKES:
            raise ValueError(f"unknown stroke: {self.stroke!r}")
        if self.outcome not in SHOT_OUTCOMES:
            raise ValueError(f"unknown shot outcome: {self.outcome!r}")
        if self.direction not in DIRECTIONS:
            raise ValueError(f"unknown direction: {self.direction!r}")
        if self.serve_attempt is not None and self.serve_attempt not in SERVE_ATTEMPTS:
            raise ValueError(f"serve_attempt must be first or second, got {self.serve_attempt!r}")


@frozen
class BounceEvent:
    timestamp: float
    court_half: str
    position: tuple[float, float] | None = None

    def __post_init__(self):
        if self.court_half not in ("near", "far"):
            raise ValueError(f"court_half must be near or far, got {self.court_half!r}")


@frozen
class RallyOutcome:
    point_winner: str
    point_loser: str
    reason: str

    def __post_init__(self):
        if self.point_winner == self.point_loser:
            raise ValueError("point winner and loser must differ")
        if self.point_winner not in PLAYER_IDS or self.point_loser not in PLAYER_IDS:
            raise ValueError("outcome players must be player_1/player_2")
        if self.reason not in OUTCOME_REASONS:
            raise ValueError(f"unknown outcome reason: {self.reason!r}")


@frozen
class MatchInfo:
    tournament: str
    round: str
    surface: str
    player_1: PlayerRef
    player_2: PlayerRef

    def __post_init__(self):
        # Prompts and name lookups are keyed by display name too.
        check_player_names((self.player_1.name, self.player_2.name))

    def player(self, player_id: str) -> PlayerRef:
        return self.player_1 if player_id == "player_1" else self.player_2

    def name_of(self, player_id: str) -> str:
        return self.player(player_id).name


@frozen
class RallyRecord:
    """One annotated rally: identity, context, events, outcome and text."""

    clip_id: str
    match_info: MatchInfo
    initial_score: MatchScore
    shots: tuple[ShotEvent, ...]
    outcome: RallyOutcome
    transcript: str = ""
    bounces: tuple[BounceEvent, ...] = ()
    commentary: str | None = None

    @cached_property
    def final_score(self) -> MatchScore:
        """The score after this rally's point.  The record is immutable, so
        the point is applied on first read and the result kept for the
        record's life; raises TerminalState when the rally starts after the
        match was decided."""
        return advance_point(self.initial_score, self.outcome.point_winner)

    @property
    def ends_game(self) -> bool:
        """True iff this rally's point ends a game (a tiebreak too): the games
        changed or a set was completed."""
        before, after = self.initial_score, self.final_score
        return (after.games != before.games
                or len(after.completed_sets) != len(before.completed_sets))


def parse_clip_id(clip_id: str) -> tuple[str, float, float]:
    """Split ``matchID_start_end`` into its parts; start/end are seconds."""
    parts = clip_id.rsplit("_", 2)
    if len(parts) != 3 or not parts[0]:
        raise ValueError(f"clip_id must look like matchID_start_end: {clip_id!r}")
    try:
        start, end = float(parts[1]), float(parts[2])
    except ValueError:
        raise ValueError(f"clip_id boundaries must be numeric: {clip_id!r}") from None
    if not start < end:
        raise ValueError(f"clip_id start must precede end: {clip_id!r}")
    if not (math.isfinite(start) and math.isfinite(end)):
        raise ValueError(f"clip_id boundaries must be finite: {clip_id!r}")
    return parts[0], start, end


# ---------------------------------------------------------------------------
# Outcome derivation
# ---------------------------------------------------------------------------


def _touched_service_winner(shots) -> bool:
    # A winning serve followed by a recorded touch that never came back.
    return (len(shots) >= 2
            and shots[-2].stroke == "serve"
            and shots[-2].outcome == "winner"
            and shots[-1].hitter == other_player(shots[-2].hitter))


def derive_outcome(shots) -> RallyOutcome:
    """Decide the point from the final events of a structurally valid rally.

    Dispatch is on the last shot: a winner credits its hitter (an ace when the
    winning shot is an untouched serve, a service winner when the dataset
    records a failed touch after it); errors credit the opponent; a second
    fault is a double fault.  Netted shots count as unforced errors.
    """
    if not shots:
        raise IncompleteRally("empty shot sequence")
    last = shots[-1]

    if last.outcome in ("in", "let"):
        raise IncompleteRally(f"rally still live after {last.outcome!r}")

    if last.outcome == "fault":
        if last.stroke != "serve":
            raise ValueError("fault outcome on a non-serve event")
        if last.serve_attempt == "second":
            winner = other_player(last.hitter)
            return RallyOutcome(winner, last.hitter, "double_fault")
        raise IncompleteRally("first-serve fault awaits the second serve")

    if _touched_service_winner(shots):
        server = shots[-2].hitter
        return RallyOutcome(server, other_player(server), "service_winner")

    if last.outcome == "winner":
        reason = "ace" if last.stroke == "serve" else "winner"
        return RallyOutcome(last.hitter, other_player(last.hitter), reason)

    if last.outcome == "forced_error":
        return RallyOutcome(other_player(last.hitter), last.hitter, "forced_error")

    # unforced_error, plus net which is treated as an unforced miss
    return RallyOutcome(other_player(last.hitter), last.hitter, "unforced_error")


# ---------------------------------------------------------------------------
# Structural validation
# ---------------------------------------------------------------------------


def _shot_violations(shots) -> list[str]:
    v: list[str] = []
    if not shots:
        return ["shot sequence is empty"]
    if shots[0].stroke != "serve":
        v.append(f"first event must be a serve, got {shots[0].stroke!r}")
    elif shots[0].serve_attempt != "first":
        v.append("the opening serve must be a first-serve attempt")

    for i, shot in enumerate(shots):
        if shot.index != i:
            v.append(f"shot {i} carries index {shot.index}")
        if (shot.serve_attempt is not None) != (shot.stroke == "serve"):
            v.append(f"shot {i}: serve_attempt present iff the stroke is a serve")

    for i in range(1, len(shots)):
        prev, cur = shots[i - 1], shots[i]
        if not cur.timestamp > prev.timestamp:
            v.append(f"timestamps must strictly increase at shot {i}")
        if prev.outcome in ("fault", "let"):
            if cur.hitter != prev.hitter or cur.stroke != "serve":
                v.append(f"shot {i}: expected a serve retry by the same player")
            elif prev.outcome == "fault" and cur.serve_attempt != "second":
                v.append(f"shot {i}: retry after a fault must be a second serve")
        else:
            if cur.hitter == prev.hitter:
                v.append(f"shot {i}: hitter alternation violated")
            if cur.stroke == "serve":
                v.append(f"shot {i}: serve in the middle of a rally")
        if prev.outcome not in ("in", "fault", "let"):
            # one trailing touch after a winning serve is a recorded fact,
            # not continued play
            if not (i == len(shots) - 1 and _touched_service_winner(shots)):
                v.append(f"shot {i}: play continued after a point-ending "
                         f"{prev.outcome!r}")
    return v


def validate_rally(rally: RallyRecord) -> tuple[str, ...]:
    """Violations of the structural rules for one record (events, identity,
    outcome); an empty tuple means the record passed."""
    v = _shot_violations(rally.shots)

    try:
        _, start, end = parse_clip_id(rally.clip_id)
        duration = end - start
    except ValueError as exc:
        v.append(str(exc))
        duration = None

    if duration is not None:
        for i, bounce in enumerate(rally.bounces):
            if not 0.0 <= bounce.timestamp <= duration:
                v.append(f"bounce {i} at {bounce.timestamp}s is outside the clip")

    if rally.shots and rally.shots[0].stroke == "serve":
        if rally.shots[0].hitter != rally.initial_score.server:
            v.append("opening server does not match the scoreboard server")

    if is_terminal(rally.initial_score) is not None:
        v.append("rally starts after the match was decided")

    if not v:
        try:
            derived = derive_outcome(rally.shots)
        except ValueError as exc:
            v.append(f"outcome cannot be derived: {exc}")
        else:
            if derived != rally.outcome:
                v.append(
                    f"recorded outcome {rally.outcome} disagrees with "
                    f"derived {derived}")
    return tuple(v)


# ---------------------------------------------------------------------------
# Edit Score
# ---------------------------------------------------------------------------


def _levenshtein(a, b) -> int:
    # Two-row DP; tokens only need equality.
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, tok_a in enumerate(a, start=1):
        current = [i]
        for j, tok_b in enumerate(b, start=1):
            cost = 0 if tok_a == tok_b else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1,
                               previous[j - 1] + cost))
        previous = current
    return previous[-1]


def edit_score(predicted, reference) -> float:
    """100 * (1 - edit distance / max length); two empty sequences score 100."""
    predicted = list(predicted)
    reference = list(reference)
    longest = max(len(predicted), len(reference))
    if longest == 0:
        return 100.0
    return 100.0 * (1.0 - _levenshtein(predicted, reference) / longest)


# ---------------------------------------------------------------------------
# Statistic increments
# ---------------------------------------------------------------------------


# The statistic counts of one player, in report and prompt-table order.  A
# count list holds player_1's block of ``STAT_WIDTH`` counts, then player_2's.
COUNT_FIELDS = ("aces", "double_faults", "first_serves_in", "serve_points",
                "serve_points_won", "return_points", "return_points_won",
                "winners", "unforced_errors", "forced_errors_conceded",
                "break_points_faced", "break_points_saved",
                "break_points_converted", "points_won", "games_won",
                "total_shots")
STAT_WIDTH = len(COUNT_FIELDS)
(_ACES, _DOUBLE_FAULTS, _FIRST_SERVES_IN, _SERVE_POINTS, _SERVE_POINTS_WON,
 _RETURN_POINTS, _RETURN_POINTS_WON, _WINNERS, _UNFORCED_ERRORS,
 _FORCED_ERRORS_CONCEDED, _BREAK_POINTS_FACED, _BREAK_POINTS_SAVED,
 _BREAK_POINTS_CONVERTED, _POINTS_WON, _GAMES_WON, _TOTAL_SHOTS) = range(STAT_WIDTH)


def classify_point(rally: RallyRecord, counts: list[int]) -> None:
    """Add one rally's statistic increments into ``counts``, a count list.

    Covers service, return, shot-ending, break-point and game categories:
    every rally adds one point won, one serve point and one return point,
    and a point that ends a game (a tiebreak too) one game won for its winner.
    Shots are read one by one, so a record never validated counts as it is.
    """
    shots = rally.shots
    outcome = rally.outcome
    server = 0 if shots[0].hitter == PLAYER_1 else STAT_WIDTH
    winner = 0 if outcome.point_winner == PLAYER_1 else STAT_WIDTH
    server_won = winner == server
    # First: past a decided match the post-point score raises, and ``counts``
    # must then stay as it was.
    if rally.ends_game:
        counts[winner + _GAMES_WON] += 1
    counts[server + _SERVE_POINTS] += 1
    counts[STAT_WIDTH - server + _RETURN_POINTS] += 1
    counts[winner + _POINTS_WON] += 1
    counts[winner + (_SERVE_POINTS_WON if server_won else _RETURN_POINTS_WON)] += 1
    if is_break_point(rally.initial_score):
        counts[server + _BREAK_POINTS_FACED] += 1
        counts[winner + (_BREAK_POINTS_SAVED if server_won
                         else _BREAK_POINTS_CONVERTED)] += 1

    reason = outcome.reason
    if reason == "ace":
        counts[server + _ACES] += 1
    elif reason == "double_fault":
        counts[server + _DOUBLE_FAULTS] += 1
    elif reason == "winner":
        counts[winner + _WINNERS] += 1
    elif reason == "unforced_error":
        counts[STAT_WIDTH - winner + _UNFORCED_ERRORS] += 1
    elif reason == "forced_error":
        counts[STAT_WIDTH - winner + _FORCED_ERRORS_CONCEDED] += 1

    player_1_shots = first_serve_in = 0
    for shot in shots:
        if shot.hitter == PLAYER_1:
            player_1_shots += 1
        if (shot.stroke == "serve" and shot.serve_attempt == "first"
                and shot.outcome in ("in", "winner")):
            first_serve_in = 1
    counts[server + _FIRST_SERVES_IN] += first_serve_in
    counts[_TOTAL_SHOTS] += player_1_shots
    counts[STAT_WIDTH + _TOTAL_SHOTS] += len(shots) - player_1_shots


# ---------------------------------------------------------------------------
# Dataset (JSONL) serialization
# ---------------------------------------------------------------------------


def score_cell(value):
    """A point value as the dataset and the prompts write it: AD or an int."""
    return value if value == AD else int(value)


def _dataset_rows(score: MatchScore) -> tuple[list, list]:
    """The Wimbledon board's ``[sets won, games, points]`` rows of ``score``,
    player_1's first, with the JSON types the dataset writes."""
    sets, games, points = score.sets_won(), score.games, score.points
    return ([sets[0], games[0], score_cell(points[0])],
            [sets[1], games[1], score_cell(points[1])])


def rally_to_json(rally: RallyRecord) -> dict:
    """Render one record as the dataset's JSON object.

    The scoreboard block is the Wimbledon board: per-player
    ``[sets won, games, points]`` plus the server's display name.
    """
    info = rally.match_info
    score = rally.initial_score
    row_1, row_2 = _dataset_rows(score)
    scoreboard = {info.player_1.name: row_1, info.player_2.name: row_2,
                  "server": info.name_of(score.server)}
    shot_sequence = []
    for shot in rally.shots:
        entry = {
            "shot_index": shot.index,
            "hitter": shot.hitter,
            "stroke": shot.stroke,
            "technique": shot.technique,
            "direction": shot.direction,
            "outcome": shot.outcome,
            "timestamp": shot.timestamp,
        }
        if shot.serve_attempt is not None:
            entry["serve_attempt"] = shot.serve_attempt
        if shot.hitter_position is not None:
            entry["hitter_position"] = list(shot.hitter_position)
        if shot.ball_position is not None:
            entry["ball_position"] = list(shot.ball_position)
        shot_sequence.append(entry)

    obj = {
        "clip_id": rally.clip_id,
        "match_info": {
            "tournament": info.tournament,
            "round": info.round,
            "surface": info.surface,
            "player_1": {"name": info.player_1.name,
                         "handedness": info.player_1.handedness},
            "player_2": {"name": info.player_2.name,
                         "handedness": info.player_2.handedness},
        },
        "scoreboard": scoreboard,
        "audio_transcript": rally.transcript,
        "shot_sequence": shot_sequence,
        "outcome": {
            "point_winner": rally.outcome.point_winner,
            "point_loser": rally.outcome.point_loser,
            "reason": rally.outcome.reason,
        },
    }
    if rally.bounces:
        obj["bounces"] = [
            {"timestamp": b.timestamp, "court_half": b.court_half,
             **({"position": list(b.position)}
                if b.position is not None else {})}
            for b in rally.bounces
        ]
    if rally.commentary is not None:
        obj["commentary"] = rally.commentary
    return obj


def json_number(value) -> float:
    """A finite JSON number as a float; a numeric string or a boolean is not
    one (TypeError), nor is NaN or an infinity (ValueError)."""
    if type(value) is not float and type(value) is not int:
        raise TypeError(f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError as exc:  # an int of over 308 digits
        raise ValueError(str(exc)) from None
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def _pair(value) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"expected an [x, y] pair, got {value!r}")
    return json_number(value[0]), json_number(value[1])


def valid_unicode(text: str) -> bool:
    """Whether ``text`` can be written as UTF-8.  JSON decodes a lone
    surrogate escape such as ``"\\ud800"``, and no report holding one can
    be written; a message quoting it with ``repr`` can."""
    if text.isascii():
        return True
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _text(value, name: str) -> str:
    if type(value) is not str:
        raise TypeError(f"{name} must be a string, got {value!r}")
    if not valid_unicode(value):
        raise ValueError(f"{name} must be valid Unicode, got {value!r}")
    return value


def _board_row(row, name: str) -> list:
    if not (isinstance(row, list) and len(row) == 3
            and (type(row[0]) is int or row[0] == AD)
            and (type(row[1]) is int or row[1] == AD)
            and (type(row[2]) is int or row[2] == AD)):
        raise ValueError(f"row for {name!r} must be [sets, games, points] "
                         f"of ints or {AD!r}, got {row!r}")
    return row


def _same_header(info_obj, info: MatchInfo) -> bool:
    """Whether ``info_obj`` decodes to ``info``, field by field with the
    decode's defaults; exact, as no other JSON value equals a string."""
    if type(info_obj) is not dict:
        return False
    p1, p2 = info_obj.get("player_1"), info_obj.get("player_2")
    return (type(p1) is dict and type(p2) is dict
            and p1.get("name") == info.player_1.name
            and p2.get("name") == info.player_2.name
            and p1.get("handedness", "right") == info.player_1.handedness
            and p2.get("handedness", "right") == info.player_2.handedness
            and info_obj.get("tournament", "") == info.tournament
            and info_obj.get("round", "") == info.round
            and info_obj.get("surface", "") == info.surface)


def rally_from_json(obj: dict, config: ScoringConfig | None = None, *,
                    previous: RallyRecord | None = None) -> RallyRecord:
    """Parse one dataset JSON object; raises only SchemaViolation.

    The scoreboard block is read as a Wimbledon board by
    :func:`parse_scoreboard`.  A missing field or malformed value is reported
    with the record part it sits in, e.g. ``"<clip_id> shot 3: ..."``.  The
    clip id is checked to be a string only; :func:`validate_rally` parses it.

    ``previous`` is the valid record decoded from the line before, as
    :func:`courtside.pipeline.load_dataset` passes it.  Its ``MatchInfo`` is
    reused if the line's ``match_info`` decodes to it (:func:`_same_header`).
    Every board's two rows pass the same type check, :func:`_board_row` (ints
    that are not booleans, or ``"AD"``), and its server is resolved to a row.
    A line is chained when, in addition, the config is the same object, the
    server is the previous record's, the previous point finished no set, and
    the typed rows equal those of the previous record's ``final_score``: that
    score becomes the new ``initial_score`` without a parse.  The value equals
    the one the parse would give.  A parse keeps finished sets only as sets
    won, rebuilt as ``trigger-0`` results (``2-0`` under a trigger of 1), and
    the previous record's ``initial_score`` holds that history: a parse built
    it, or it was inherited in the same way.  That is why ``previous`` must be
    the record this function decoded from the line before.  Any other line is
    parsed, so its errors are the same.
    """
    config = config or ScoringConfig()
    where = "record"  # a template, filled with clip_id and i only on failure
    clip_id = i = None
    try:
        if not isinstance(obj, dict):
            raise TypeError(f"must be a JSON object, got {type(obj).__name__}")
        clip_id = _text(obj["clip_id"], "clip_id")

        where = "{} match_info"
        info_obj = obj["match_info"]
        if previous is not None and _same_header(info_obj, previous.match_info):
            info = previous.match_info
        else:
            previous = None  # a new header: the board is parsed in full
            p1, p2 = (PlayerRef(_text(info_obj[pid]["name"], "name"),
                                info_obj[pid].get("handedness", "right"))
                      for pid in PLAYER_IDS)
            info = MatchInfo(_text(info_obj.get("tournament", ""), "tournament"),
                             _text(info_obj.get("round", ""), "round"),
                             _text(info_obj.get("surface", ""), "surface"),
                             p1, p2)

        # Fields checked against a fixed vocabulary below (hitter, stroke,
        # direction, outcome, court_half, serve_attempt, the outcome block
        # and the server's name) are taken as given: no other JSON value
        # equals one of their strings.
        where = "{} scoreboard"
        board = obj["scoreboard"]
        name_1, name_2 = names = (info.player_1.name, info.player_2.name)
        rows = (_board_row(board[name_1], name_1), _board_row(board[name_2], name_2))
        server = board["server"]
        if server not in names:
            raise ValueError(f"server {server!r} is not a match player")
        server_row = names.index(server)
        score = None if previous is None else previous.final_score
        if (score is None or score.config is not config
                or score.server != PLAYER_IDS[server_row]
                or len(score.completed_sets)
                != len(previous.initial_score.completed_sets)
                or rows != _dataset_rows(score)):
            score = parse_scoreboard(LAYOUT_WIMBLEDON, rows, server_row, config)

        where = "{}"
        raw_shots = obj["shot_sequence"]
        if not isinstance(raw_shots, list) or not raw_shots:
            raise ValueError("shot_sequence must be a non-empty list")
        shots = []
        where = "{} shot {}"
        for i, s in enumerate(raw_shots):
            index = s["shot_index"]
            if type(index) is not int:
                raise TypeError(f"shot_index must be an integer, got {index!r}")
            shots.append(ShotEvent(
                index, s["hitter"], s["stroke"], _text(s["technique"], "technique"),
                s["direction"], s["outcome"], json_number(s["timestamp"]),
                s.get("serve_attempt"),
                _pair(s["hitter_position"]) if "hitter_position" in s else None,
                _pair(s["ball_position"]) if "ball_position" in s else None))

        where = "{}"
        raw_bounces = obj.get("bounces", [])
        if not isinstance(raw_bounces, list):
            raise TypeError(f"bounces must be a list, got {raw_bounces!r}")
        bounces = []
        where = "{} bounce {}"
        for i, b in enumerate(raw_bounces):
            bounces.append(BounceEvent(
                json_number(b["timestamp"]), b["court_half"],
                _pair(b["position"]) if "position" in b else None))

        where = "{} outcome"
        outcome_obj = obj["outcome"]
        outcome = RallyOutcome(outcome_obj["point_winner"],
                               outcome_obj["point_loser"], outcome_obj["reason"])

        where = "{}"
        transcript = _text(obj.get("audio_transcript", ""), "audio_transcript")
        commentary = obj.get("commentary")
        if commentary is not None:
            _text(commentary, "commentary")
    except KeyError as exc:
        raise SchemaViolation(f"{where.format(clip_id, i)}: "
                              f"missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise SchemaViolation(f"{where.format(clip_id, i)}: {exc}") from None

    return RallyRecord(clip_id, info, score, tuple(shots), outcome, transcript,
                       tuple(bounces), commentary)
