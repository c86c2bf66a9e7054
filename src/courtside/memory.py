"""Hierarchical match memory: a bounded FIFO of recent rallies plus
consolidated per-player statistics.

New rallies enter the short-term window; once the window overflows, the
oldest rally is evicted and folded into the long-term count list, so at
any instant every past rally is represented in exactly one of the two tiers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .event_stream import STAT_WIDTH, RallyRecord, classify_point
from .match_model import MatchScore, frozen, score_summary

DEFAULT_WINDOW = 4


class OutOfOrderEntry(ValueError):
    """A pushed rally does not extend the stored sequence."""


class PlayerStatLine(NamedTuple):
    """Cumulative broadcast statistics for one player.

    A tuple of int counts, one per field in report and prompt-table order
    (``COUNT_FIELDS``): one player's block of a count list, so it is built
    from a slice with ``_make`` and equals the plain tuple of the same
    counts.  The ratios are derived views.
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

    @property
    def first_serve_pct(self) -> float | None:
        return _ratio(self.first_serves_in, self.serve_points)

    @property
    def serve_points_won_pct(self) -> float | None:
        return _ratio(self.serve_points_won, self.serve_points)

    @property
    def return_points_won_pct(self) -> float | None:
        return _ratio(self.return_points_won, self.return_points)

    def as_dict(self) -> dict:
        return _stat_dict(self)


def _ratio(part: int, whole: int) -> float | None:
    """A derived ratio: with a zero denominator it is absent, never 0."""
    return part / whole if whole else None


def _stat_dict(counts) -> dict:
    """One player's report from a block of counts in ``COUNT_FIELDS`` order:
    each count by name, then the ratio views."""
    line = dict(zip(COUNT_FIELDS, counts))
    line["first_serve_pct"] = _ratio(line["first_serves_in"], line["serve_points"])
    line["serve_points_won_pct"] = _ratio(line["serve_points_won"], line["serve_points"])
    line["return_points_won_pct"] = _ratio(line["return_points_won"],
                                           line["return_points"])
    return line


# The count and derived-ratio fields of PlayerStatLine, in report and
# prompt-table order.
COUNT_FIELDS = PlayerStatLine._fields
RATIO_FIELDS = ("first_serve_pct", "serve_points_won_pct", "return_points_won_pct")

COMMENTARY_PLACEHOLDER = "[commentary unavailable]"


@frozen
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


@dataclass(slots=True)
class LongTermMemory:
    """The consolidated tier: one count list, player_1's ``COUNT_FIELDS``
    then player_2's, that ``consolidate`` adds each rally into in place."""

    counts: list[int] = field(default_factory=lambda: [0] * (2 * STAT_WIDTH))
    rallies_consolidated: int = 0
    last_consolidated_score: MatchScore | None = None

    @property
    def stat_lines(self) -> tuple[PlayerStatLine, PlayerStatLine]:
        """The two players' lines, built from the counts on each read."""
        return (PlayerStatLine._make(self.counts[:STAT_WIDTH]),
                PlayerStatLine._make(self.counts[STAT_WIDTH:]))

    def report(self) -> dict:
        """Stable JSON-serializable statistics report."""
        return {
            "player_1": _stat_dict(self.counts[:STAT_WIDTH]),
            "player_2": _stat_dict(self.counts[STAT_WIDTH:]),
            "rallies_consolidated": self.rallies_consolidated,
            "last_consolidated_score": (
                score_summary(self.last_consolidated_score)
                if self.last_consolidated_score is not None else None),
        }


def consolidate(long: LongTermMemory, rally: RallyRecord) -> None:
    """Fold one rally's statistic increments into ``long`` in place, and
    record the score after its point: the rally's cached ``final_score``, so
    a rally that the mock or the sanity check read is not advanced again."""
    classify_point(rally, long.counts)
    long.rallies_consolidated += 1
    long.last_consolidated_score = rally.final_score


@frozen
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
        consolidate(self.long, evicted.metadata)
        return evicted

    def flush(self) -> None:
        """Consolidate everything left in the window (used at match end)."""
        for entry in self.short:
            consolidate(self.long, entry.metadata)
        self.short = []
