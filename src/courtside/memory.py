"""Hierarchical match memory: a bounded FIFO of recent rallies plus
consolidated per-player statistics.

New rallies enter the short-term window; once the window overflows, the
oldest rally is evicted and folded into the long-term statistic lines, so at
any instant every past rally is represented in exactly one of the two tiers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .event_stream import RallyRecord, classify_point
from .match_model import (
    MatchScore,
    PLAYER_1,
    PLAYER_2,
    score_summary,
)

DEFAULT_WINDOW = 4


class OutOfOrderEntry(ValueError):
    """A pushed rally does not extend the stored sequence."""


class NonSequentialConsolidation(ValueError):
    """Rallies must be consolidated in stream order, without gaps."""


class PlayerStatLine(NamedTuple):
    """Cumulative broadcast statistics for one player.

    A tuple of int counts, one per field in report and prompt-table order
    (``COUNT_FIELDS``), so a fold can add increments by index and rebuild
    the line with ``_make``; it equals the plain tuple of the same counts.
    The ratios are derived views.
    """

    aces: int = 0
    double_faults: int = 0
    first_serves_in: int = 0
    serve_points: int = 0
    serve_points_won: int = 0
    return_points: int = 0
    return_points_won: int = 0
    winners: int = 0
    unforced_errors: int = 0
    forced_errors_conceded: int = 0
    break_points_faced: int = 0
    break_points_saved: int = 0
    break_points_converted: int = 0
    points_won: int = 0
    games_won: int = 0
    total_shots: int = 0

    # Ratios are views; with a zero denominator they are absent, never 0.
    @property
    def first_serve_pct(self) -> float | None:
        if self.serve_points == 0:
            return None
        return self.first_serves_in / self.serve_points

    @property
    def serve_points_won_pct(self) -> float | None:
        if self.serve_points == 0:
            return None
        return self.serve_points_won / self.serve_points

    @property
    def return_points_won_pct(self) -> float | None:
        if self.return_points == 0:
            return None
        return self.return_points_won / self.return_points

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in COUNT_FIELDS + RATIO_FIELDS}


# The count and derived-ratio fields of PlayerStatLine, in report and
# prompt-table order.
COUNT_FIELDS = PlayerStatLine._fields
RATIO_FIELDS = ("first_serve_pct", "serve_points_won_pct", "return_points_won_pct")

_FIELD_INDEX = {name: i for i, name in enumerate(COUNT_FIELDS)}

COMMENTARY_PLACEHOLDER = "[commentary unavailable]"


@dataclass(frozen=True)
class MemoryEntry:
    """One remembered rally: its stream index, metadata and commentary."""

    rally_index: int
    metadata: RallyRecord
    commentary: str | None

    def __post_init__(self):
        if self.rally_index < 0:
            raise ValueError("rally_index must be non-negative")

    @cached_property
    def digest(self) -> str:
        """The rally's line in the prompt's recent-rally digest, without its
        ``"{i}. "`` position prefix: the score the point started at, the
        server, the point winner and reason, then the commentary in double
        quotes as given (no escaping), or ``COMMENTARY_PLACEHOLDER`` when there
        is none.  Players are named by surname.  The entry is immutable, so
        the text is rendered on first read and kept for the entry's life."""
        rally = self.metadata
        info = rally.match_info
        score = rally.initial_score
        sets_won = score.sets_won()
        winner = info.player(rally.outcome.point_winner).surname
        server = info.player(score.server).surname
        commentary = self.commentary
        return (f"[sets {sets_won[0]}-{sets_won[1]}, games "
                f"{score.games[0]}-{score.games[1]}, points "
                f"{score.points[0]}:{score.points[1]}, {server} serving] "
                f"{winner} won ({rally.outcome.reason}) -- "
                + (f'"{commentary}"' if commentary is not None
                   else COMMENTARY_PLACEHOLDER))


@dataclass(frozen=True)
class LongTermMemory:
    stat_lines: tuple[PlayerStatLine, PlayerStatLine] = (PlayerStatLine(),
                                                         PlayerStatLine())
    rallies_consolidated: int = 0
    last_consolidated_score: MatchScore | None = None

    def report(self) -> dict:
        """Stable JSON-serializable statistics report."""
        return {
            "player_1": self.stat_lines[0].as_dict(),
            "player_2": self.stat_lines[1].as_dict(),
            "rallies_consolidated": self.rallies_consolidated,
            "last_consolidated_score": (
                score_summary(self.last_consolidated_score)
                if self.last_consolidated_score is not None else None),
        }


def consolidate(long: LongTermMemory, evicted: MemoryEntry) -> LongTermMemory:
    """Fold one evicted rally's statistic increments into the cumulative
    lines and record the score after its point, the rally's cached
    ``final_score``, so a rally the mock or the sanity check already read
    is not advanced again.

    Rallies must arrive in stream order.
    """
    if evicted.rally_index != long.rallies_consolidated:
        raise NonSequentialConsolidation(
            f"expected rally {long.rallies_consolidated}, got {evicted.rally_index}")

    rally = evicted.metadata
    contribution = classify_point(rally)
    return LongTermMemory(
        stat_lines=(_plus(long.stat_lines[0], contribution[PLAYER_1]),
                    _plus(long.stat_lines[1], contribution[PLAYER_2])),
        rallies_consolidated=long.rallies_consolidated + 1,
        last_consolidated_score=rally.final_score,
    )


def _plus(line: PlayerStatLine, increments: dict[str, int]) -> PlayerStatLine:
    """``line`` with ``increments`` added; an unknown field raises KeyError."""
    counts = list(line)
    for name, n in increments.items():
        counts[_FIELD_INDEX[name]] += n
    return PlayerStatLine._make(counts)


@dataclass(frozen=True)
class ContextView:
    """Immutable snapshot handed to prompt assembly: the window's entries,
    oldest first, plus the consolidated statistic lines."""

    recent: tuple[MemoryEntry, ...]
    stat_lines: tuple[PlayerStatLine, PlayerStatLine]
    rallies_consolidated: int


class MatchMemory:
    """The two memory tiers of one match: a window of the ``capacity`` most
    recent entries, oldest first, and the consolidated statistic lines.

    Rally order is semantically meaningful, so one instance serves one match;
    snapshots are immutable and safe to share.
    """

    def __init__(self, capacity: int = DEFAULT_WINDOW):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.short: list[MemoryEntry] = []
        self.long = LongTermMemory()

    def snapshot(self) -> ContextView:
        return ContextView(
            recent=tuple(self.short),
            stat_lines=self.long.stat_lines,
            rallies_consolidated=self.long.rallies_consolidated,
        )

    def observe(self, entry: MemoryEntry) -> MemoryEntry | None:
        """Append an entry; once the window overflows, consolidate and
        return the evicted oldest entry."""
        if self.short and entry.rally_index <= self.short[-1].rally_index:
            raise OutOfOrderEntry(
                f"rally index {entry.rally_index} does not exceed stored "
                f"{self.short[-1].rally_index}")
        self.short.append(entry)
        if len(self.short) <= self.capacity:
            return None
        evicted = self.short.pop(0)
        self.long = consolidate(self.long, evicted)
        return evicted

    def flush(self) -> None:
        """Consolidate everything left in the window (used at match end)."""
        for entry in self.short:
            self.long = consolidate(self.long, entry)
        self.short = []
