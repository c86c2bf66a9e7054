"""Tennis scoring state machine and tournament scoreboard parsing.

The match state lives in :class:`MatchScore`: completed sets, games in the
current set, points in the current game (``0/15/30/40/AD`` strings, or plain
integers inside a tiebreak) and the current server.  ``advance_point`` is the
only legal transition, one function that builds the next score directly:
ladder, game, tiebreak and set, with the server.  ``validate_scoreboard``
decides by closed-form rules whether ``advance_point`` can reach a given
state from a fresh match.

All values are immutable; operations return new instances.
"""

from __future__ import annotations

import functools
from dataclasses import MISSING, dataclass, field, fields


def frozen(cls):
    """Declare ``cls`` an immutable value: ``dataclass(frozen=True)``, built
    at the cost of a plain dataclass.

    Equality, hashing, ``repr``, ``dataclasses.replace``, pickling, the
    refused ``__setattr__``/``__delattr__`` and the signature of ``__init__``
    are the stock ones, and ``__post_init__`` runs on every construction.
    Only the body of ``__init__`` differs: it stores the fields with one
    update of the instance dict, where the stock body makes one call to
    ``object``'s ``__setattr__`` per field.
    """
    cls = dataclass(frozen=True)(cls)
    stock = cls.__init__
    code = stock.__code__
    names = code.co_varnames[1:code.co_argcount]
    declared = fields(cls)
    if code.co_kwonlyargcount or names != tuple(f.name for f in declared):
        raise TypeError(f"{cls.__name__}: frozen takes only fields that __init__ "
                        f"sets by position (no InitVar, kw_only or init=False)")
    defaults = stock.__defaults__ or ()
    first_default = len(names) - len(defaults)
    namespace = {}
    lines = []
    for i, f in enumerate(declared):
        if f.default_factory is not MISSING:
            # the stock default is a sentinel that asks for a fresh value
            namespace[f"__sentinel_{i}__"] = defaults[i - first_default]
            namespace[f"__factory_{i}__"] = f.default_factory
            lines.append(f" if {f.name} is __sentinel_{i}__: {f.name} = __factory_{i}__()")
    # One update from a dict literal, not one store per key: on CPython 3.11
    # the update gives the instance a combined dict, whose attributes read as
    # fast as stock ones, while stores per key keep a split dict that reads
    # twice as slowly.
    fill = ", ".join(f"{n!r}: {n}" for n in names)
    lines.append(f" self.__dict__.update({{{fill}}})")
    if hasattr(cls, "__post_init__"):
        lines.append(" self.__post_init__()")
    params = ", ".join(n if i < first_default else f"{n}=None"
                       for i, n in enumerate(names))
    exec(f"def __init__(self, {params}):\n" + "\n".join(lines), namespace)
    init = namespace["__init__"]
    init.__defaults__ = stock.__defaults__
    init.__annotations__ = stock.__annotations__
    init.__qualname__ = stock.__qualname__
    init.__module__ = stock.__module__
    cls.__init__ = init
    return cls


PLAYER_1 = "player_1"
PLAYER_2 = "player_2"
PLAYER_IDS = (PLAYER_1, PLAYER_2)

POINT_LADDER = ("0", "15", "30", "40")
AD = "AD"

LAYOUT_AO_USO = "AO_USO"
LAYOUT_RG = "RG"
LAYOUT_WIMBLEDON = "WIMBLEDON"
LAYOUTS = (LAYOUT_AO_USO, LAYOUT_RG, LAYOUT_WIMBLEDON)


class ScoreboardError(ValueError):
    """Base class for scoreboard ingestion failures."""


class UnknownLayout(ScoreboardError):
    pass


class RowLengthMismatch(ScoreboardError):
    pass


class IllegalToken(ScoreboardError):
    pass


class AmbiguousServer(ScoreboardError):
    pass


class TerminalState(ValueError):
    """The match is already decided; no further points may be played."""


class InvalidState(ValueError):
    """The score value is structurally broken and cannot be advanced."""


def other_player(player_id: str) -> str:
    if player_id == PLAYER_1:
        return PLAYER_2
    if player_id == PLAYER_2:
        return PLAYER_1
    raise ValueError(f"unknown player id: {player_id!r}")


@frozen
class PlayerRef:
    """One of the two competitors, as referenced by metadata and prompts."""

    name: str
    handedness: str = "right"

    def __post_init__(self):
        # A blank name has no surname to put in prompts and commentary.
        if not self.name or self.name.isspace():
            raise ValueError(f"player name must contain a non-whitespace "
                             f"character, got {self.name!r}")
        if self.handedness not in ("left", "right"):
            raise ValueError(f"handedness must be left or right, got {self.handedness!r}")

    @functools.cached_property
    def surname(self) -> str:
        return self.name.split()[-1]


@frozen
class ScoringConfig:
    """Match format: set count, set trigger games and tiebreak targets.

    Defaults follow the harmonised Grand Slam format: best of 3, tiebreak to 7
    at 6-6, and a 10-point tiebreak at 6-6 in the deciding set.
    """

    best_of: int = 3
    set_trigger_games: int = 6
    tiebreak_points: int = 7
    final_set_tiebreak_points: int = 10
    ad_scoring: bool = True

    def __post_init__(self):
        for name in ("best_of", "set_trigger_games", "tiebreak_points",
                     "final_set_tiebreak_points"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if type(self.ad_scoring) is not bool:
            raise ValueError(f"ad_scoring must be a boolean, got {self.ad_scoring!r}")
        if self.best_of not in (3, 5):
            raise ValueError("best_of must be 3 or 5")
        # Scores have at most two digits.
        if not 1 <= self.set_trigger_games <= 99:
            raise ValueError("set_trigger_games must be in 1..99")
        for target in (self.tiebreak_points, self.final_set_tiebreak_points):
            if not 1 <= target <= 99:
                raise ValueError("tiebreak targets must be in 1..99")

    @property
    def sets_to_win(self) -> int:
        return self.best_of // 2 + 1


@frozen
class MatchScore:
    """Full scoring state: finished sets, current games, points and server.

    ``completed_sets`` lists ``(player_1 games, player_2 games)`` per finished
    set, oldest first.  ``points`` holds ladder strings in a standard game and
    non-negative integers in a tiebreak.  The games decide which: the set is
    in its tiebreak, ``in_tiebreak``, exactly at trigger-all.
    """

    completed_sets: tuple[tuple[int, int], ...] = ()
    games: tuple[int, int] = (0, 0)
    points: tuple = ("0", "0")
    server: str = PLAYER_1
    config: ScoringConfig = field(default_factory=ScoringConfig)

    def __post_init__(self):
        # Derived once: a score is one rally's final and the next one's initial.
        # One plain loop: it runs per rally, where a generator costs more
        # than the count.
        p1 = p2 = 0
        for a, b in self.completed_sets:
            if a > b:
                p1 += 1
            if b > a:
                p2 += 1
        need = self.config.sets_to_win
        trigger = self.config.set_trigger_games
        self.__dict__.update(in_tiebreak=self.games == (trigger, trigger),
                             _sets_won=(p1, p2),
                             _winner=PLAYER_1 if p1 >= need
                             else PLAYER_2 if p2 >= need else None)

    def sets_won(self) -> tuple[int, int]:
        return self._sets_won

    def tiebreak_target(self) -> int:
        need = self.config.best_of // 2
        if self._sets_won == (need, need):
            return self.config.final_set_tiebreak_points
        return self.config.tiebreak_points

    def point_of(self, player_id: str):
        return self.points[_index(player_id)]

    @property
    def returner(self) -> str:
        return other_player(self.server)


def _index(player_id: str) -> int:
    if player_id == PLAYER_1:
        return 0
    if player_id == PLAYER_2:
        return 1
    raise ValueError(f"unknown player id: {player_id!r}")


def _tiebreak_server_at(first_server: str, k: int) -> str:
    """Server of tiebreak point k (0-indexed): one serve, then two each.

    The rotation is its own inverse: given the server of point k, the same
    call returns the server of point 0.
    """
    if ((k + 1) // 2) % 2 == 0:
        return first_server
    return other_player(first_server)


# ---------------------------------------------------------------------------
# Public transitions
# ---------------------------------------------------------------------------


def is_terminal(score: MatchScore) -> str | None:
    """Return the match winner's player id, or None while the match is live."""
    return score._winner


def advance_point(score: MatchScore, winner: str) -> MatchScore:
    """Apply one point won by player id ``winner`` and return the next state.

    Handles the full progression: point ladder, deuce/advantage (or sudden
    death when ad scoring is off), game and set closure, tiebreak entry at
    trigger-trigger with the one-then-two serve rotation, and the deciding-set
    tiebreak target.  A score with a structural violation (the first part
    of :func:`validate_scoreboard`) raises InvalidState naming them all.
    """
    w = _index(winner)
    if is_terminal(score) is not None:
        raise TerminalState("match already decided")
    problems = _structure_violations(score)
    if problems:
        raise InvalidState("; ".join(problems))
    l = 1 - w
    sets, games, server, config = (score.completed_sets, score.games,
                                   score.server, score.config)
    trigger = config.set_trigger_games

    if score.in_tiebreak:
        played = sum(score.points)
        points = list(score.points)
        points[w] += 1
        if points[w] >= score.tiebreak_target() and points[w] - points[l] >= 2:
            result = [trigger, trigger]
            result[w] += 1
            # The player who received first in the tiebreak serves next.
            return MatchScore(sets + (tuple(result),), (0, 0), ("0", "0"),
                              other_player(_tiebreak_server_at(server, played)),
                              config)
        # One serve, then two each: the serve changes after points 0, 2, 4...
        if played % 2 == 0:
            server = other_player(server)
        return MatchScore(sets, games, tuple(points), server, config)

    mine, theirs = score.points[w], score.points[l]
    points = list(score.points)
    if mine == "40" and theirs == AD:
        points[l] = "40"
    elif mine == "40" and theirs == "40" and config.ad_scoring:
        points[w] = AD
    elif mine not in ("40", AD):
        points[w] = POINT_LADDER[POINT_LADDER.index(mine) + 1]
    else:
        won = list(games)
        won[w] += 1
        server = other_player(server)
        if won[w] >= trigger and won[w] - won[l] >= 2:
            return MatchScore(sets + (tuple(won),), (0, 0), ("0", "0"), server,
                              config)
        if won[w] == won[l] == trigger:
            return MatchScore(sets, (trigger, trigger), (0, 0), server, config)
        return MatchScore(sets, tuple(won), ("0", "0"), server, config)
    return MatchScore(sets, games, tuple(points), server, config)


def is_break_point(score: MatchScore) -> bool:
    """True iff the returner takes the game by winning the next point,
    except at a no-ad deciding point (40-40), which is not counted.

    Defined for standard games only; inside a tiebreak there is no game to
    break and the answer is False.
    """
    if score.in_tiebreak:
        return False
    points, server = score.points, score.server
    # the returner's point first, as ``point_of(returner)`` read it
    if server == PLAYER_1:
        ret, srv = points[1], points[0]
    elif server == PLAYER_2:
        ret, srv = points[0], points[1]
    else:
        raise ValueError(f"unknown player id: {server!r}")
    if ret == AD:
        return True
    return ret == "40" and srv in ("0", "15", "30")


# ---------------------------------------------------------------------------
# Validation: structure and reachability
# ---------------------------------------------------------------------------


def _structure_violations(score: MatchScore) -> list[str]:
    """Violations of the current-set structure: server, point values against
    the ladder or tiebreak, and games in 0..trigger+1.  A count is an int
    exactly: a bool or a float is not one, as in the dataset decoder.
    ``advance_point`` refuses a score that has any; ``validate_scoreboard``
    reports them first.

    Each check is a plain loop that stops at its first failure, and only a
    failure builds its message: this runs on every rally."""
    v: list[str] = []
    config = score.config
    most = config.set_trigger_games + 1
    points, games = score.points, score.games

    if score.server not in PLAYER_IDS:
        v.append(f"unknown server: {score.server!r}")

    if score.in_tiebreak:
        for p in points:
            if not (type(p) is int and p >= 0):
                v.append(f"tiebreak points must be non-negative integers: {points!r}")
                break
    else:
        for p in points:
            if p not in POINT_LADDER and p != AD:
                bad = [p for p in points if p not in POINT_LADDER and p != AD]
                v.append(f"illegal point values: {bad!r}")
                break
        if AD in points:
            if points == (AD, AD):
                v.append("both players at AD")
            else:
                opp = points[1] if points[0] == AD else points[0]
                if opp != "40":
                    v.append(f"AD with opponent at {opp!r}, expected 40")
                if not config.ad_scoring:
                    v.append("AD under no-ad scoring")

    # Games above trigger+1 count only when every game is a non-negative int.
    over = False
    for g in games:
        if type(g) is not int or g < 0:
            v.append(f"games must be non-negative integers: {games!r}")
            break
        if g > most:
            over = True
    else:
        if over:
            v.append(f"games exceed trigger+1: {games!r}")
    return v


def _set_state_reachable(score: MatchScore) -> bool:
    """Whether a live set can show these games and points, for a score that
    passed every structural check: each ladder pair, and AD against 40 under
    ad scoring, occurs in every live game, so only games and tiebreak points
    decide."""
    if score.in_tiebreak:
        a, b = score.points
        return max(a, b) < score.tiebreak_target() or abs(a - b) < 2
    g1, g2 = score.games
    trigger = score.config.set_trigger_games
    return max(g1, g2) < trigger or (max(g1, g2) == trigger and abs(g1 - g2) == 1)


def synthesize_completed_sets(p1_sets: int, p2_sets: int,
                              trigger: int) -> tuple[tuple[int, int], ...]:
    """Reconstruct per-set game pairs from bare won-set counts.

    Boards and dataset rows carry only how many sets each player holds, so
    each won set becomes a synthetic trigger-0 result, 2-0 under a trigger of
    1, where 1-0 is still a live set.  Sets alternate before the leader's
    surplus so the sequence never continues past a clinched match when the
    counts themselves are legal.

    A dataset decode asks for it only when it parses a board, about once
    per set (see :func:`courtside.event_stream.rally_from_json`).
    """
    won = max(trigger, 2)
    win_1, win_2 = (won, 0), (0, won)
    shared = min(p1_sets, p2_sets)
    sets: list[tuple[int, int]] = []
    for _ in range(shared):
        sets.extend((win_1, win_2))
    sets.extend([win_1] * (p1_sets - shared))
    sets.extend([win_2] * (p2_sets - shared))
    return tuple(sets)


def _valid_set_result(pair: tuple[int, int], trigger: int) -> bool:
    w, l = max(pair), min(pair)
    if type(w) is not int or type(l) is not int or w == l:
        return False
    return (w == trigger and w - l >= 2) or (w == trigger + 1 and l in (trigger - 1, trigger))


def validate_scoreboard(score: MatchScore) -> tuple[str, ...]:
    """Violations of every MatchScore invariant, including reachability.

    An empty tuple means the state passed: ``advance_point`` transitions
    can produce it from a fresh match under the score's own config.
    """
    v = _structure_violations(score)
    config = score.config
    trigger = config.set_trigger_games

    if len(score.completed_sets) > config.best_of:
        v.append(f"{len(score.completed_sets)} completed sets exceeds best-of-{config.best_of}")
    for i, pair in enumerate(score.completed_sets):
        if not _valid_set_result(pair, trigger):
            v.append(f"set {i + 1} result {pair} violates set-winning rules")

    need = config.sets_to_win
    p1 = p2 = 0
    for i, (a, b) in enumerate(score.completed_sets):
        decided_before = p1 >= need or p2 >= need
        if decided_before:
            v.append(f"set {i + 1} played after the match was decided")
            break
        p1 += 1 if a > b else 0
        p2 += 1 if b > a else 0

    if not v:
        if is_terminal(score) is not None:
            if score.games != (0, 0) or score.points != ("0", "0"):
                v.append("live games/points on a decided match")
        elif not _set_state_reachable(score):
            v.append(
                f"state games={score.games} points={score.points} "
                f"in_tiebreak={score.in_tiebreak} unreachable from 0-0"
            )

    return tuple(v)


# ---------------------------------------------------------------------------
# Canonical text rendering
# ---------------------------------------------------------------------------


def score_summary(score: MatchScore) -> str:
    """Lossless one-line rendering: sets, games, points, server.

    No two distinct states under one config share a summary.
    """
    if score.completed_sets:
        sets_part = " ".join(f"{a}-{b}" for a, b in score.completed_sets)
    else:
        sets_part = "0-0"
    games_part = f"{score.games[0]}-{score.games[1]}"
    pa, pb = score.points
    points_part = f"{pa}:{pb}"
    if score.in_tiebreak:
        points_part += " TB"
    return f"{sets_part}, {games_part}, {points_part}, server {score.server}"


# ---------------------------------------------------------------------------
# Scoreboard ingestion (tournament layouts)
# ---------------------------------------------------------------------------


def _normalize_rows(layout: str, rows) -> tuple[list[str], list[str]]:
    top = [str(c).strip() for c in rows[0]]
    bottom = [str(c).strip() for c in rows[1]]

    if layout == LAYOUT_WIMBLEDON and len(top) == 2 and len(bottom) == 2:
        # Points column absent between games: both players at 0.
        top.append("0")
        bottom.append("0")

    if len(top) != len(bottom):
        raise RowLengthMismatch(f"row lengths differ: {len(top)} vs {len(bottom)}")
    if not top:
        raise RowLengthMismatch("empty scoreboard rows")

    # One row shows AD in the last column, the other is left blank: fill 40.
    last = (top[-1], bottom[-1])
    if last[0] == AD and last[1] == "":
        bottom[-1] = "40"
    elif last[1] == AD and last[0] == "":
        top[-1] = "40"

    return top, bottom


def _parse_int(token: str, what: str) -> int:
    if not token.isdigit():
        raise IllegalToken(f"{what} column must be a non-negative integer, got {token!r}")
    return int(token)


def parse_scoreboard(layout: str, rows, server_row: int | None,
                     config: ScoringConfig | None = None) -> MatchScore:
    """Interpret extracted scoreboard columns as a MatchScore.

    ``rows`` holds the two players' columns, top row first; ``server_row`` is
    the index of the row carrying the serve indicator, None when the marker
    is missing or on both rows.

    AO/US Open and Roland Garros rows read left-to-right as completed-set
    games, current-set games, then points; Wimbledon rows are the fixed
    ``[sets won, games, points]`` triple (sets won are stored as synthetic
    ``trigger-0`` set results, ``2-0`` under a trigger of 1, since the board
    does not show per-set games).
    Integer point columns at trigger-trigger games are read as a tiebreak.
    """
    if layout not in LAYOUTS:
        raise UnknownLayout(f"unknown scoreboard layout: {layout!r}")
    config = config or ScoringConfig()
    top, bottom = _normalize_rows(layout, rows)

    if server_row not in (0, 1):
        raise AmbiguousServer("serve indicator missing or not attributable to one row")
    server = PLAYER_IDS[server_row]

    if layout == LAYOUT_WIMBLEDON:
        if len(top) != 3:
            raise RowLengthMismatch(
                f"Wimbledon rows must have 3 columns after normalization, got {len(top)}")
        sets_top = _parse_int(top[0], "sets-won")
        sets_bottom = _parse_int(bottom[0], "sets-won")
        if sets_top + sets_bottom > config.best_of:
            raise IllegalToken(f"sets won {sets_top}-{sets_bottom} exceed "
                               f"best-of-{config.best_of}")
        completed = synthesize_completed_sets(sets_top, sets_bottom,
                                              config.set_trigger_games)
        games = (_parse_int(top[1], "games"), _parse_int(bottom[1], "games"))
        point_tokens = (top[2], bottom[2])
    else:
        if len(top) < 2:
            raise RowLengthMismatch("need at least games and points columns")
        completed = tuple(
            (_parse_int(a, "set games"), _parse_int(b, "set games"))
            for a, b in zip(top[:-2], bottom[:-2])
        )
        games = (_parse_int(top[-2], "games"), _parse_int(bottom[-2], "games"))
        point_tokens = (top[-1], bottom[-1])

    trigger = config.set_trigger_games
    in_tiebreak = games == (trigger, trigger)
    if in_tiebreak and any(t == AD for t in point_tokens):
        raise IllegalToken("AD is not a legal tiebreak point value")
    if in_tiebreak:
        points: tuple = tuple(_parse_int(t, "tiebreak points") for t in point_tokens)
    else:
        for t in point_tokens:
            if t not in POINT_LADDER and t != AD:
                raise IllegalToken(f"illegal point value: {t!r}")
        points = point_tokens

    return MatchScore(completed_sets=completed, games=games, points=points,
                      server=server, config=config)


def check_player_names(names: tuple[str, str]) -> None:
    """Refuse two names that would collide as board keys: a board is keyed by
    display name and keeps the server's name under the key "server"."""
    if names[0] == names[1]:
        raise ValueError(f"both players are named {names[0]!r}")
    if "server" in names:
        raise ValueError("no player may be named 'server'")


def render_scoreboard(score: MatchScore, layout: str, names: tuple[str, str]) -> dict:
    """Render a MatchScore back into the per-layout JSON column format."""
    if layout not in LAYOUTS:
        raise UnknownLayout(f"unknown scoreboard layout: {layout!r}")
    check_player_names(names)
    if layout == LAYOUT_WIMBLEDON:
        p1_sets, p2_sets = score.sets_won()
        top = [str(p1_sets), str(score.games[0]), str(score.points[0])]
        bottom = [str(p2_sets), str(score.games[1]), str(score.points[1])]
    else:
        top = [str(a) for a, _ in score.completed_sets]
        bottom = [str(b) for _, b in score.completed_sets]
        top += [str(score.games[0]), str(score.points[0])]
        bottom += [str(score.games[1]), str(score.points[1])]
    server_name = names[0] if score.server == PLAYER_1 else names[1]
    return {names[0]: top, names[1]: bottom, "server": server_name}
