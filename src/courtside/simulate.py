"""Deterministic synthetic match generator.

Produces full rally records whose scoreboards follow ``advance_point``
exactly and whose shot sequences reproduce their recorded outcomes, so every
generated record passes both validators.  The same seed always yields a
byte-identical stream.  A minimum point count can be requested for stress
streams; the walk then steers away from match-ending points (the deuce and
tiebreak loops make this always possible) until the quota is met.
"""

from __future__ import annotations

import random

from .event_stream import (
    BounceEvent,
    MatchInfo,
    RallyOutcome,
    RallyRecord,
    ShotEvent,
    derive_outcome,
)
from .match_model import (
    MatchScore,
    PLAYER_1,
    PLAYER_2,
    PlayerRef,
    ScoringConfig,
    advance_point,
    is_terminal,
    other_player,
)

_NAME_POOL = (
    "Ava North", "Maya Field", "Iris Vann", "Lena Marsh", "Tessa Brook",
    "Nora Sand", "Dana Kovar", "Ruth Ellery", "Petra Salo", "Vera Lindt",
)
_TOURNAMENTS = ("Metro Open", "Harbor Classic", "Ridgeline Cup", "Lakeside Invitational")
_ROUNDS = ("First Round", "Quarterfinal", "Semifinal", "Final")
_SURFACES = ("hard", "clay", "grass")
_TECHNIQUES = ("topspin", "slice", "flat", "drive", "volley", "lob")
_SERVE_TECHNIQUES = ("flat", "kick", "slice")
_DIRECTIONS = ("cross-court", "down-the-line", "down-the-middle",
               "inside-out", "inside-in")
_SERVE_DIRECTIONS = ("T", "wide", "body")

_REASONS = ("ace", "double_fault", "service_winner", "winner",
            "unforced_error", "forced_error")
_REASON_WEIGHTS = (8, 4, 3, 33, 31, 21)

_REASON_PHRASES = {
    "ace": "an ace",
    "double_fault": "a double fault",
    "service_winner": "an unreturnable serve",
    "winner": "a clean winner",
    "unforced_error": "an unforced error",
    "forced_error": "a forced error",
}


def _pick_players(rng: random.Random) -> tuple[PlayerRef, PlayerRef]:
    first, second = rng.sample(_NAME_POOL, 2)
    return (
        PlayerRef(name=first, handedness=rng.choice(("left", "right"))),
        PlayerRef(name=second, handedness=rng.choice(("left", "right"))),
    )


def _serve(index, hitter, t, attempt, outcome, rng):
    return ShotEvent(
        index=index, hitter=hitter, stroke="serve",
        technique=rng.choice(_SERVE_TECHNIQUES),
        direction=rng.choice(_SERVE_DIRECTIONS),
        outcome=outcome, timestamp=t, serve_attempt=attempt,
    )


def _groundstroke(index, hitter, t, outcome, rng):
    return ShotEvent(
        index=index, hitter=hitter, stroke=rng.choice(("forehand", "backhand")),
        technique=rng.choice(_TECHNIQUES), direction=rng.choice(_DIRECTIONS),
        outcome=outcome, timestamp=t,
    )


def _build_shots(server, winner, reason, rng) -> list[ShotEvent]:
    """Construct a shot list whose derived outcome is (winner, reason)."""
    returner = other_player(server)
    shots: list[ShotEvent] = []
    t = round(rng.uniform(0.3, 0.8), 2)

    def tick():
        nonlocal t
        value = t
        t = round(t + rng.uniform(0.5, 0.9), 2)
        return value

    attempt = "first"
    if reason == "double_fault":
        shots.append(_serve(0, server, tick(), "first", "fault", rng))
        shots.append(_serve(1, server, tick(), "second", "fault", rng))
        return shots

    if rng.random() < 0.05:
        shots.append(_serve(len(shots), server, tick(), attempt, "let", rng))
    if rng.random() < 0.3:
        shots.append(_serve(len(shots), server, tick(), attempt, "fault", rng))
        attempt = "second"

    if reason == "ace":
        shots.append(_serve(len(shots), server, tick(), attempt, "winner", rng))
        return shots
    if reason == "service_winner":
        shots.append(_serve(len(shots), server, tick(), attempt, "winner", rng))
        shots.append(_groundstroke(len(shots), returner, tick(), "forced_error", rng))
        return shots

    shots.append(_serve(len(shots), server, tick(), attempt, "in", rng))
    # rally extension: hitters alternate starting with the returner; kept
    # short so per-rally prompt size stays within a narrow band
    extra = rng.randint(0, 2) * 2
    hitter = returner
    for _ in range(extra):
        shots.append(_groundstroke(len(shots), hitter, tick(), "in", rng))
        hitter = other_player(hitter)

    if reason == "winner":
        # the winner hits last
        if hitter != winner:
            shots.append(_groundstroke(len(shots), hitter, tick(), "in", rng))
            hitter = other_player(hitter)
        shots.append(_groundstroke(len(shots), winner, tick(), "winner", rng))
        return shots

    # error endings: the loser hits last
    loser = other_player(winner)
    if hitter != loser:
        shots.append(_groundstroke(len(shots), hitter, tick(), "in", rng))
    outcome = "unforced_error" if reason == "unforced_error" else "forced_error"
    shots.append(_groundstroke(len(shots), loser, tick(), outcome, rng))
    return shots


def _reference_commentary(info: MatchInfo, score: MatchScore,
                          outcome: RallyOutcome, shots) -> str:
    winner = info.player(outcome.point_winner).surname
    loser = info.player(outcome.point_loser).surname
    pa, pb = score.points
    phrase = _REASON_PHRASES[outcome.reason]
    final = shots[-1]
    detail = ""
    if final.stroke != "serve":
        detail = f" off the {final.stroke}"
    if outcome.reason in ("double_fault", "unforced_error", "forced_error"):
        cause = f"after {phrase} from {loser}{detail}"
    else:
        cause = f"with {phrase}{detail}"
    return (f"{winner} claims the point {cause} "
            f"at {pa}-{pb}, {len(shots)} shots in all.")


def _choose_winner(rng: random.Random, score: MatchScore,
                   points_played: int, min_points: int | None) -> str:
    winner = score.server if rng.random() < 0.58 else score.returner
    if min_points is not None and points_played + 1 < min_points:
        if is_terminal(advance_point(score, winner)) is not None:
            winner = other_player(winner)
    return winner


def simulate_match(seed: int, config: ScoringConfig | None = None,
                   min_points: int | None = None,
                   match_id: str | None = None) -> list[RallyRecord]:
    """Generate one complete synthetic match as a list of rally records."""
    rng = random.Random(seed)
    config = config or ScoringConfig()
    match_id = match_id or f"sim{seed:04d}"
    player_1, player_2 = _pick_players(rng)
    info = MatchInfo(
        tournament=rng.choice(_TOURNAMENTS), round=rng.choice(_ROUNDS),
        surface=rng.choice(_SURFACES), player_1=player_1, player_2=player_2,
    )
    score = MatchScore(server=rng.choice((PLAYER_1, PLAYER_2)), config=config)

    records: list[RallyRecord] = []
    clock = round(rng.uniform(40.0, 90.0), 2)
    hard_cap = 20000 + 10 * (min_points or 0)
    while is_terminal(score) is None:
        if len(records) >= hard_cap:
            raise RuntimeError("simulated match failed to terminate")
        winner = _choose_winner(rng, score, len(records), min_points)
        reason = rng.choices(_REASONS, weights=_REASON_WEIGHTS, k=1)[0]
        if winner != score.server and reason in ("ace", "service_winner"):
            reason = "winner"
        if winner == score.server and reason == "double_fault":
            reason = "unforced_error"
        shots = _build_shots(score.server, winner, reason, rng)
        outcome = derive_outcome(shots)
        assert outcome.point_winner == winner and outcome.reason == reason

        duration = round(shots[-1].timestamp + rng.uniform(1.0, 2.5), 2)
        clip_id = f"{match_id}_{clock:.2f}_{clock + duration:.2f}"
        bounces = []
        for shot in shots:
            if len(bounces) == 2:
                break
            if shot.outcome == "in" and rng.random() < 0.4:
                bounces.append(BounceEvent(
                    timestamp=round(min(shot.timestamp + 0.3, duration), 2),
                    court_half=rng.choice(("near", "far")),
                    position=(round(rng.uniform(100, 1180), 1),
                              round(rng.uniform(100, 620), 1)),
                ))
        records.append(RallyRecord(
            clip_id=clip_id, match_info=info, initial_score=score,
            shots=tuple(shots), outcome=outcome,
            transcript=f"The crowd murmurs as play resumes at {clock:.0f} seconds.",
            bounces=tuple(bounces),
            commentary=_reference_commentary(info, score, outcome, shots),
        ))
        clock = round(clock + duration + rng.uniform(8.0, 25.0), 2)
        score = advance_point(score, winner)

    return records
