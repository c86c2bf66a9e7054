"""Independent reference implementations used as test oracles.

Everything here is written from first principles, structured differently from
the package code it checks: point counts instead of ladder strings, O(n^2)
transitive closure instead of sorted sweeps, plain DP tables, and so on.
"""

from __future__ import annotations

import ast
import json
import math
import re
import unicodedata
from collections import Counter, defaultdict
from dataclasses import replace
from functools import reduce
from operator import add
from types import SimpleNamespace

from hypothesis import strategies as st

from courtside.evaluation import (
    CRITERIA,
    DEFAULT_SHOT_TAXONOMY,
    JudgeScorecard,
    MissingKey,
    PairScore,
    SanityViolation,
    UnparsableOutput,
    _ATTRIBUTION_TERMS,
    _SENTENCE_SPLIT_RE,
)
from courtside.event_stream import SchemaViolation, rally_from_json, validate_rally
from courtside.match_model import (AD, PLAYER_1, PLAYER_2, PLAYER_IDS, ScoringConfig,
                                   advance_point, other_player, validate_scoreboard)
from courtside.memory import ContextView
from courtside.pipeline import read_lines
from courtside.prompt_engine import (USER_INSTRUCTION_TEMPLATE, GenerationRequest,
                                     MockCommentaryClient, PromptBundle, describe_shot)

LADDER = ("0", "15", "30", "40")


# ---------------------------------------------------------------------------
# Scoring formats
# ---------------------------------------------------------------------------

# Every format up to 12 games and 12 tiebreak points: the set trigger, both
# tiebreak targets, best-of and ad scoring are drawn independently.
SCORING_CONFIGS = st.builds(
    ScoringConfig, best_of=st.sampled_from((3, 5)),
    set_trigger_games=st.integers(1, 12), tiebreak_points=st.integers(1, 12),
    final_set_tiebreak_points=st.integers(1, 12), ad_scoring=st.booleans())

# Edges each property pins as examples: a trigger of 1, where the tiebreak
# starts at games 1-1; tiebreaks to 1 point, still won by two (2-0, 3-1...);
# and tiebreak targets above the trigger.
PINNED_CONFIGS = (
    ScoringConfig(best_of=5, set_trigger_games=1, ad_scoring=False),
    ScoringConfig(tiebreak_points=1, final_set_tiebreak_points=1),
    ScoringConfig(set_trigger_games=3, tiebreak_points=12,
                  final_set_tiebreak_points=9, ad_scoring=False),
)


# ---------------------------------------------------------------------------
# Single-game scoring, via point counts
# ---------------------------------------------------------------------------


def game_display(p: int, q: int, ad: bool = True) -> tuple[str, str]:
    """Display of a live standard game where the players have won p and q points."""
    if ad and p >= 3 and q >= 3:
        if p == q:
            return ("40", "40")
        if p == q + 1:
            return ("AD", "40")
        if q == p + 1:
            return ("40", "AD")
        raise ValueError("not a live game")
    return (LADDER[min(p, 3)], LADDER[min(q, 3)])


def game_over(p: int, q: int, ad: bool = True) -> bool:
    if ad:
        return p >= 4 and p - q >= 2
    return p >= 4 and p > q


def enumerate_game_transitions(ad: bool = True):
    """Yield (display, winner_index, next_display_or_'GAME') over the whole
    single-game state graph (deuce cycle folded)."""
    seen = set()
    frontier = [(0, 0)]
    visited = {(0, 0)}
    while frontier:
        p, q = frontier.pop()
        disp = game_display(p, q, ad)
        for winner in (0, 1):
            np_, nq = (p + 1, q) if winner == 0 else (p, q + 1)
            won, lost = (np_, nq) if winner == 0 else (nq, np_)
            if game_over(won, lost, ad):
                if (disp, winner) not in seen:
                    seen.add((disp, winner))
                    yield disp, winner, "GAME"
                continue
            # fold the deuce cycle so the walk terminates
            while np_ >= 4 and nq >= 4:
                np_, nq = np_ - 1, nq - 1
            if (disp, winner) not in seen:
                seen.add((disp, winner))
                yield disp, winner, game_display(np_, nq, ad)
            if (np_, nq) not in visited:
                visited.add((np_, nq))
                frontier.append((np_, nq))


# ---------------------------------------------------------------------------
# Set-level reachability by breadth-first search over point counts
# ---------------------------------------------------------------------------


def set_over(ga: int, gb: int, trigger: int) -> bool:
    w, l = max(ga, gb), min(ga, gb)
    return (w >= trigger and w - l >= 2) or (w == trigger + 1 and l == trigger)


def reachable_set_states(trigger: int = 6, tb_target: int = 7, ad: bool = True) -> set:
    """All live (games, in_tiebreak, display_points) states of one set.

    Tiebreak point pairs beyond target-all are folded down by one, mirroring
    the win-by-two cycle, so the search terminates.
    """
    out = set()
    start = (0, 0, False, 0, 0)  # games_a, games_b, in_tb, pts_a, pts_b (counts)
    frontier = [start]
    visited = {start}

    def display(state):
        ga, gb, tb, pa, pb = state
        if tb:
            return ((ga, gb), True, (pa, pb))
        return ((ga, gb), False, game_display(pa, pb, ad))

    out.add(display(start))
    while frontier:
        ga, gb, tb, pa, pb = frontier.pop()
        for winner in (0, 1):
            npa, npb = (pa + 1, pb) if winner == 0 else (pa, pb + 1)
            if tb:
                w, l = (npa, npb) if winner == 0 else (npb, npa)
                if w >= tb_target and w - l >= 2:
                    continue  # set decided via tiebreak
                while npa > tb_target and npb > tb_target:
                    npa, npb = npa - 1, npb - 1
                nxt = (ga, gb, True, npa, npb)
            else:
                w, l = (npa, npb) if winner == 0 else (npb, npa)
                if game_over(w, l, ad):
                    nga, ngb = (ga + 1, gb) if winner == 0 else (ga, gb + 1)
                    if set_over(nga, ngb, trigger):
                        continue
                    if nga == trigger and ngb == trigger:
                        nxt = (nga, ngb, True, 0, 0)
                    else:
                        nxt = (nga, ngb, False, 0, 0)
                else:
                    while npa >= 4 and npb >= 4:
                        npa, npb = npa - 1, npb - 1
                    nxt = (ga, gb, False, npa, npb)
            if nxt not in visited:
                visited.add(nxt)
                frontier.append(nxt)
                out.add(display(nxt))
    return out


# The package's per-rally scoring kernels as they were written with
# generators and list comprehensions, kept verbatim as an oracle: the
# plain-loop rewrites must give the same values, messages and exceptions on
# any score, well-formed or not.  One edit since: a count in
# ``ref_structure_violations`` is an int exactly (``type(x) is int``), as a
# bool or a float is not a count.


def ref_post_init(completed_sets, games, config) -> dict:
    """The fields ``MatchScore.__post_init__`` derives."""
    p1 = sum(1 for a, b in completed_sets if a > b)
    p2 = sum(1 for a, b in completed_sets if b > a)
    need = config.sets_to_win
    trigger = config.set_trigger_games
    return dict(in_tiebreak=games == (trigger, trigger),
                _sets_won=(p1, p2),
                _winner=PLAYER_1 if p1 >= need
                else PLAYER_2 if p2 >= need else None)


def ref_is_break_point(score) -> bool:
    if score.in_tiebreak:
        return False
    ret = score.point_of(score.returner)
    srv = score.point_of(score.server)
    if ret == AD:
        return True
    return ret == "40" and srv in ("0", "15", "30")


def ref_structure_violations(score) -> list[str]:
    v: list[str] = []
    config = score.config
    trigger = config.set_trigger_games

    if score.server not in PLAYER_IDS:
        v.append(f"unknown server: {score.server!r}")

    if score.in_tiebreak:
        if not all(type(p) is int and p >= 0 for p in score.points):
            v.append(f"tiebreak points must be non-negative integers: {score.points!r}")
    else:
        bad = [p for p in score.points if p not in LADDER and p != AD]
        if bad:
            v.append(f"illegal point values: {bad!r}")
        if score.points == (AD, AD):
            v.append("both players at AD")
        elif AD in score.points:
            opp = score.points[1] if score.points[0] == AD else score.points[0]
            if opp != "40":
                v.append(f"AD with opponent at {opp!r}, expected 40")
            if not config.ad_scoring:
                v.append("AD under no-ad scoring")

    if any(type(g) is not int or g < 0 for g in score.games):
        v.append(f"games must be non-negative integers: {score.games!r}")
    elif any(g > trigger + 1 for g in score.games):
        v.append(f"games exceed trigger+1: {score.games!r}")
    return v


def ref_synthesize_completed_sets(p1_sets: int, p2_sets: int,
                                  trigger: int) -> tuple[tuple[int, int], ...]:
    won = max(trigger, 2)
    win_1, win_2 = (won, 0), (0, won)
    shared = min(p1_sets, p2_sets)
    sets: list[tuple[int, int]] = []
    for _ in range(shared):
        sets.extend((win_1, win_2))
    sets.extend([win_1] * (p1_sets - shared))
    sets.extend([win_2] * (p2_sets - shared))
    return tuple(sets)


def total_games(score, idx: int) -> int:
    """Games won by player ``idx`` (0 or 1) over the whole match so far:
    the games of every completed set plus those of the live set."""
    return sum(pair[idx] for pair in score.completed_sets) + score.games[idx]


def board(layout: str, obj: dict) -> tuple:
    """``parse_scoreboard``'s leading arguments for a board written as
    ``{"NAME1": [cols], "NAME2": [cols], "server": name}``."""
    names = [key for key in obj if key != "server"]
    rows = tuple(tuple(obj[name]) for name in names)
    server = obj.get("server")
    return layout, rows, names.index(server) if server in names else None


# ---------------------------------------------------------------------------
# Text folding
# ---------------------------------------------------------------------------


def fold_text(text: str) -> str:
    """Accent-insensitive casefold, character by character with no fast path:
    NFKD-decompose, drop every combining mark, then casefold."""
    kept = []
    for ch in unicodedata.normalize("NFKD", text):
        if unicodedata.combining(ch) == 0:
            kept.append(ch)
    return "".join(kept).casefold()


# ---------------------------------------------------------------------------
# Sequence metrics
# ---------------------------------------------------------------------------


def levenshtein(a, b) -> int:
    """Plain full-table DP edit distance."""
    n, m = len(a), len(b)
    table = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        table[i][0] = i
    for j in range(m + 1):
        table[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + cost,
            )
    return table[n][m]


def lcs_length(a, b) -> int:
    n, m = len(a), len(b)
    table = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[n][m]


# ---------------------------------------------------------------------------
# Text-metric references (shared tokenizer contract: caller passes tokens)
# ---------------------------------------------------------------------------

METRIC_PUNCT = ".,!?;:\"'`()[]{}“”‘’…"


def metric_tokens(text: str) -> list[str]:
    """The metric tokenizer's contract: lowercase, split on whitespace,
    strip punctuation from both ends of each word, drop what is left empty."""
    words = (word.strip(METRIC_PUNCT) for word in text.lower().split())
    return [word for word in words if word]


def gram_counts(tokens) -> Counter:
    """Counts of the 1..4-grams as tuples, first met by n, then position."""
    counts = Counter()
    for n in range(1, 5):
        for i in range(len(tokens) - n + 1):
            counts[tuple(tokens[i:i + n])] += 1
    return counts


def left_fold(values) -> float:
    """Left-to-right float sum, with no compensated rounding."""
    return reduce(add, values, 0.0)


def ref_bleu4(candidate_tokens, reference_token_lists) -> float:
    """Sentence BLEU-4: modified n-gram precision, geometric mean, brevity
    penalty; zero-match higher-order precisions get add-one smoothing."""
    c = len(candidate_tokens)
    if c == 0:
        return 0.0
    log_sum = 0.0
    for n in range(1, 5):
        cand_ngrams = Counter(
            tuple(candidate_tokens[i:i + n]) for i in range(len(candidate_tokens) - n + 1))
        max_ref = Counter()
        for ref in reference_token_lists:
            ref_ngrams = Counter(tuple(ref[i:i + n]) for i in range(len(ref) - n + 1))
            for g, k in ref_ngrams.items():
                if k > max_ref[g]:
                    max_ref[g] = k
        matched = sum(min(k, max_ref[g]) for g, k in cand_ngrams.items())
        total = sum(cand_ngrams.values())
        if matched > 0:
            p = matched / total
        elif n == 1:
            return 0.0
        else:
            p = (matched + 1) / (total + 1)
        log_sum += math.log(p) / 4.0
    ref_lens = [len(r) for r in reference_token_lists]
    r = min(ref_lens, key=lambda l: (abs(l - c), l))
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    return bp * math.exp(log_sum)


def ref_rouge_l(candidate_tokens, reference_tokens, beta: float = 1.2) -> float:
    if not candidate_tokens or not reference_tokens:
        return 0.0
    lcs = lcs_length(candidate_tokens, reference_tokens)
    if lcs == 0:
        return 0.0
    precision = lcs / len(candidate_tokens)
    recall = lcs / len(reference_tokens)
    return (1 + beta ** 2) * precision * recall / (recall + beta ** 2 * precision)


def ref_cider(pairs_tokens) -> list[float]:
    """Plain CIDEr: per-n TF-IDF cosine against each reference, averaged over
    n=1..4 and over references, scaled by 10.  Returns per-pair scores."""

    def ngrams(tokens, n):
        return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))

    num_images = len(pairs_tokens)
    doc_freq = [defaultdict(int) for _ in range(4)]
    for _, refs in pairs_tokens:
        for n in range(4):
            present = set()
            for ref in refs:
                present.update(ngrams(ref, n + 1).keys())
            for g in present:
                doc_freq[n][g] += 1

    def tfidf_vec(tokens, n):
        counts = ngrams(tokens, n + 1)
        vec = {}
        for g, tf in counts.items():
            df = max(doc_freq[n][g], 1)
            vec[g] = tf * math.log(num_images / df)
        return vec

    def cosine(u, v):
        dot = sum(u[g] * v.get(g, 0.0) for g in u)
        nu = math.sqrt(sum(x * x for x in u.values()))
        nv = math.sqrt(sum(x * x for x in v.values()))
        if nu == 0.0 or nv == 0.0:
            return 0.0
        return dot / (nu * nv)

    scores = []
    for cand, refs in pairs_tokens:
        per_n = []
        for n in range(4):
            cv = tfidf_vec(cand, n)
            sims = [cosine(cv, tfidf_vec(ref, n)) for ref in refs]
            per_n.append(sum(sims) / len(sims))
        scores.append(10.0 * sum(per_n) / 4.0)
    return scores


# The package's earlier metric path, kept verbatim as an oracle for the exact
# float bits: BLEU by a set intersection of gram keys, CIDEr through a TF-IDF
# dict per text and a separate dot-product walk.


def _exact_bleu(cand, refs) -> float:
    cand_tokens, counts = cand
    if not cand_tokens:
        return 0.0
    clip = refs[0][1]
    for _, ref_grams in refs[1:]:
        clip = clip | ref_grams  # per-gram maximum
    matched = [0] * 5  # by n
    for gram in counts.keys() & clip.keys():
        matched[len(gram)] += min(counts[gram], clip[gram])

    length = len(cand_tokens)
    log_precision_sum = 0.0
    for n in range(1, 5):
        total = max(length - n + 1, 0)
        if matched[n] > 0:
            precision = matched[n] / total
        elif n == 1:
            return 0.0
        else:
            precision = (matched[n] + 1) / (total + 1)
        log_precision_sum += 0.25 * math.log(precision)

    closest_ref = min((len(tokens) for tokens, _ in refs),
                      key=lambda ref_len: (abs(ref_len - length), ref_len))
    brevity = 1.0 if length > closest_ref else math.exp(1.0 - closest_ref / length)
    return brevity * math.exp(log_precision_sum)


def _exact_tfidf(grams, idf: dict, unseen: float) -> tuple[dict, list[float]]:
    vec = {}
    norm_sq = [0.0] * 5
    for gram, tf in grams.items():
        weight = tf * idf.get(gram, unseen)
        vec[gram] = weight
        norm_sq[len(gram)] += weight * weight
    return vec, [math.sqrt(x) for x in norm_sq]


def _exact_cider(cand, refs, idf: dict, unseen: float) -> float:
    cand_vec, cand_norm = _exact_tfidf(cand[1], idf, unseen)
    sims = [[] for _ in range(5)]  # by n, one per reference
    for _, ref_grams in refs:
        ref_vec, ref_norm = _exact_tfidf(ref_grams, idf, unseen)
        dot = [0.0] * 5
        for gram, weight in cand_vec.items():
            if gram in ref_vec:
                dot[len(gram)] += weight * ref_vec[gram]
        for n in range(1, 5):
            if cand_norm[n] == 0.0 or ref_norm[n] == 0.0:
                sims[n].append(0.0)
            else:
                sims[n].append(dot[n] / (cand_norm[n] * ref_norm[n]))
    per_n = [left_fold(s) / len(s) for s in sims[1:]]
    return 10.0 * left_fold(per_n) / 4.0


def exact_score_pairs(pairs) -> list[PairScore]:
    """``score_pairs`` by the earlier path, bit for bit: the same tokenizer,
    gram order, document frequencies and ROUGE-L, and every float folded in
    the same order."""
    pairs = [(metric_tokens(cand), [metric_tokens(r) for r in refs]) for cand, refs in pairs]
    weights = None
    if len(pairs) >= 2:
        doc_freq = Counter()
        for _, refs in pairs:
            present = set()
            for ref in refs:
                present.update(gram_counts(ref))
            for gram in present:
                doc_freq[gram] += 1
        weights = ({gram: math.log(len(pairs) / df) for gram, df in doc_freq.items()},
                   math.log(len(pairs)))

    scores = []
    for cand_tokens, ref_tokens in pairs:
        cand = cand_tokens, gram_counts(cand_tokens)
        refs = [(r, gram_counts(r)) for r in ref_tokens]
        scores.append(PairScore(_exact_bleu(cand, refs),
                                ref_rouge_l(cand_tokens, ref_tokens[0]),
                                None if weights is None else _exact_cider(cand, refs, *weights)))
    return scores


# ---------------------------------------------------------------------------
# Facts derived from a score or a player, recomputed on every call
# ---------------------------------------------------------------------------


def sets_won(score) -> tuple[int, int]:
    return (sum(a > b for a, b in score.completed_sets),
            sum(b > a for a, b in score.completed_sets))


def match_decided(score) -> bool:
    return max(sets_won(score)) > score.config.best_of // 2


def surname(player) -> str:
    return player.name.split()[-1]


def post_point(rally):
    """The score after the rally's point, applied afresh."""
    return advance_point(rally.initial_score, rally.outcome.point_winner)


def score_text(score) -> str:
    """``match_model.score_summary``'s one-line rendering."""
    sets = " ".join(f"{a}-{b}" for a, b in score.completed_sets) or "0-0"
    tiebreak = " TB" if score.in_tiebreak else ""
    return (f"{sets}, {score.games[0]}-{score.games[1]}, "
            f"{score.points[0]}:{score.points[1]}{tiebreak}, server {score.server}")


# ---------------------------------------------------------------------------
# Prompt metadata block, as a dict for json.dumps(indent=2)
# ---------------------------------------------------------------------------


def metadata_object(rally) -> dict:
    """The structured metadata block, with commentary-facing display names.

    ``json.dumps(metadata_object(r), indent=2, ensure_ascii=False)`` is the
    byte contract of ``prompt_engine.serialize_metadata(r)``.
    """
    info = rally.match_info
    score = rally.initial_score
    players = {"player_1": info.player_1, "player_2": info.player_2}
    p1, p2 = info.player_1, info.player_2
    won = sets_won(score)

    def cell(value):
        return value if value == "AD" else int(value)

    score_state = {
        "server": players[score.server].name,
        "returner": players["player_2" if score.server == "player_1"
                            else "player_1"].name,
        "sets": {p1.name: won[0], p2.name: won[1]},
        "games_in_current_set": {p1.name: score.games[0], p2.name: score.games[1]},
        "points_in_current_game": {p1.name: cell(score.points[0]),
                                   p2.name: cell(score.points[1])},
    }
    if score.in_tiebreak:
        score_state["tiebreak"] = True

    rally_block = []
    for shot in rally.shots:
        hitter = players[shot.hitter]
        entry = {
            "shot_index": shot.index,
            "hitter": hitter.name,
            "shot_description": describe_shot(shot, hitter),
            "timestamp": shot.timestamp,
        }
        if shot.hitter_position is not None:
            entry["hitter_position"] = list(shot.hitter_position)
        if shot.ball_position is not None:
            entry["ball_position"] = list(shot.ball_position)
        rally_block.append(entry)

    obj = {
        "clip_id": rally.clip_id,
        "match_info": {
            "tournament": info.tournament,
            "round": info.round,
            "surface": info.surface,
            "player_1": {"name": p1.name, "handedness": p1.handedness},
            "player_2": {"name": p2.name, "handedness": p2.handedness},
        },
        "score_state (initial)": score_state,
        "rally": rally_block,
        "outcome": {
            "point_winner": players[rally.outcome.point_winner].name,
            "point_loser": players[rally.outcome.point_loser].name,
            "reason": rally.outcome.reason,
        },
        "audio_transcription (background context)": rally.transcript,
    }
    if rally.bounces:
        bounces = []
        for bounce in rally.bounces:
            entry = {"timestamp": bounce.timestamp, "court_half": bounce.court_half}
            if bounce.position is not None:
                entry["position"] = list(bounce.position)
            bounces.append(entry)
        obj["bounces"] = bounces
    return obj


# ---------------------------------------------------------------------------
# Prompt memory block, rendered line by line on every call
# ---------------------------------------------------------------------------

COMMENTARY_PLACEHOLDER = "[commentary unavailable]"
COUNT_FIELDS = ("aces", "double_faults", "first_serves_in", "serve_points",
                "serve_points_won", "return_points", "return_points_won",
                "winners", "unforced_errors", "forced_errors_conceded",
                "break_points_faced", "break_points_saved",
                "break_points_converted", "points_won", "games_won",
                "total_shots")
RATIO_FIELDS = ("first_serve_pct", "serve_points_won_pct", "return_points_won_pct")


def digest_line(index: int, rally, commentary) -> str:
    info = rally.match_info
    score = rally.initial_score
    won = sets_won(score)
    winner = surname(info.player(rally.outcome.point_winner))
    server = surname(info.player(score.server))
    line = (f"{index}. [sets {won[0]}-{won[1]}, games "
            f"{score.games[0]}-{score.games[1]}, points "
            f"{score.points[0]}:{score.points[1]}, {server} serving] "
            f"{winner} won ({rally.outcome.reason}) -- ")
    line += f'"{commentary}"' if commentary is not None else COMMENTARY_PLACEHOLDER
    return line


def _pct(value) -> str:
    return "-" if value is None else f"{100.0 * value:.1f}%"


def stats_table(lines, names: tuple[str, str]) -> str:
    # Every ratio is recomputed from the counts, whatever ``lines`` carry.
    lines = [stat_line({name: getattr(line, name) for name in COUNT_FIELDS})
             for line in lines]
    width = max(len(names[0]), len(names[1]), 10) + 2
    header = f"{'statistic':<26}{names[0]:>{width}}{names[1]:>{width}}"
    rows = [header]
    for name in COUNT_FIELDS:
        rows.append(f"{name:<26}{getattr(lines[0], name):>{width}}"
                    f"{getattr(lines[1], name):>{width}}")
    for name in RATIO_FIELDS:
        rows.append(f"{name:<26}{_pct(getattr(lines[0], name)):>{width}}"
                    f"{_pct(getattr(lines[1], name)):>{width}}")
    return "\n".join(rows)


def memory_text(recent, stat_lines, rallies_consolidated: int,
                names: tuple[str, str]) -> str:
    """The prompt's memory block from ``(rally, commentary)`` pairs, oldest
    first: the byte contract of ``prompt_engine.serialize_memory``."""
    lines = ["RECENT RALLIES (oldest first):"]
    if recent:
        for i, (rally, commentary) in enumerate(recent, start=1):
            lines.append(digest_line(i, rally, commentary))
    else:
        lines.append("(none yet)")
    lines.append("")
    lines.append(f"MATCH STATISTICS (consolidated over "
                 f"{rallies_consolidated} rallies):")
    lines.append(stats_table(stat_lines, names))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Temporal clustering by transitive closure
# ---------------------------------------------------------------------------


def brute_force_clusters(events, threshold: float, max_gap: float, min_hits: int,
                         padding: float):
    """O(n^2) union-find clustering of (timestamp, confidence) events."""
    kept = sorted(t for t, conf in events if conf >= threshold)
    n = len(kept)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(kept[i] - kept[j]) <= max_gap:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj

    groups = defaultdict(list)
    for i in range(n):
        groups[find(i)].append(kept[i])
    intervals = []
    for members in groups.values():
        if len(members) < min_hits:
            continue
        lo, hi = max(0.0, min(members) - padding), max(members) + padding
        if not lo < hi:
            continue
        intervals.append((lo, hi, len(members)))
    intervals.sort()
    merged = []
    for start, end, hits in intervals:
        if merged and start <= merged[-1][1]:
            last = merged[-1]
            merged[-1] = (last[0], max(last[1], end), last[2] + hits)
        else:
            merged.append((start, end, hits))
    return merged


# ---------------------------------------------------------------------------
# Rally outcome rule table
# ---------------------------------------------------------------------------


def outcome_rule_table(last_stroke: str, last_outcome: str, serve_attempt,
                       prev_serve_winner: bool):
    """Expected (winner_side, reason) for the player who hit the last shot.

    winner_side is 'hitter' or 'opponent'; returns None for incomplete
    rallies.  ``prev_serve_winner`` marks a winning serve immediately before a
    touched return attempt.
    """
    if last_outcome in ("in", "let"):
        return None
    if last_outcome == "fault":
        if last_stroke != "serve":
            return "INVALID"
        if serve_attempt == "second":
            return ("opponent", "double_fault")
        return None
    if prev_serve_winner and last_outcome in ("forced_error", "unforced_error", "net"):
        return ("opponent", "service_winner")
    if last_outcome == "winner":
        if last_stroke == "serve":
            return ("hitter", "ace")
        return ("hitter", "winner")
    if last_outcome == "forced_error":
        return ("opponent", "forced_error")
    if last_outcome in ("unforced_error", "net"):
        return ("opponent", "unforced_error")
    raise ValueError(last_outcome)


# ---------------------------------------------------------------------------
# Commentary term checks, one regex per term
# ---------------------------------------------------------------------------


# The score-pair pattern with an alternative for each point literal;
# ``evaluation._SCORE_PAIR_RE`` leaves them to \d{1,2}.
SCORE_PAIR_RE = re.compile(r"\b(0|15|30|40|ad|\d{1,2})\s*[-:]\s*(0|15|30|40|ad|\d{1,2})\b",
                           re.IGNORECASE)


def _score_pairs_of(score) -> set[tuple[str, str]]:
    pairs = set()
    won = sets_won(score)
    candidates = [
        (str(score.points[0]), str(score.points[1])),
        (str(score.games[0]), str(score.games[1])),
        (str(won[0]), str(won[1])),
    ]
    for a, b in candidates:
        pairs.add((a.lower(), b.lower()))
        pairs.add((b.lower(), a.lower()))
    return pairs


def sanity_check(commentary: str, rally) -> tuple[SanityViolation, ...]:
    """Reference sanity check: each sentence and the whole text are
    tokenized, and each term is searched for with its own ``\\b``-bounded
    regex."""
    violations: list[SanityViolation] = []
    info = rally.match_info
    folded_text = fold_text(commentary)
    text_tokens = set(re.findall(r"[\w'-]+", folded_text))

    surnames = {
        "player_1": fold_text(surname(info.player_1)),
        "player_2": fold_text(surname(info.player_2)),
    }

    winner_id = rally.outcome.point_winner
    loser_id = rally.outcome.point_loser
    for sentence in _SENTENCE_SPLIT_RE.split(commentary):
        folded = fold_text(sentence)
        tokens = set(re.findall(r"[\w'-]+", folded))
        named = [pid for pid, s in surnames.items() if s in tokens]
        if len(named) != 1:
            continue
        for term, actor in _ATTRIBUTION_TERMS.items():
            if term in folded and re.search(rf"\b{term}\b", folded):
                expected = winner_id if actor == "winner" else loser_id
                if named[0] != expected:
                    violations.append(SanityViolation(
                        "player_name",
                        f"{info.name_of(named[0])!r} named as the actor of "
                        f"{term!r}, expected {info.name_of(expected)!r}"))

    initial = rally.initial_score
    valid_pairs = _score_pairs_of(initial)
    post = None
    if not match_decided(initial):
        post = post_point(rally)
        valid_pairs |= _score_pairs_of(post)
    for a, b in SCORE_PAIR_RE.findall(commentary):
        if (a.lower(), b.lower()) not in valid_pairs:
            violations.append(SanityViolation(
                "score_mention", f"score {a}-{b} matches neither the initial "
                                 f"nor the post-point state"))

    states = [initial] + ([post] if post is not None else [])
    if "deuce" in text_tokens:
        if not any(s.points == ("40", "40") for s in states):
            violations.append(SanityViolation(
                "score_mention", "mentions deuce but the game is not at 40-40"))
    if "advantage" in text_tokens:
        if not any(AD in s.points for s in states):
            violations.append(SanityViolation(
                "score_mention", "mentions advantage but nobody holds AD"))

    seen_terms = set()
    for shot in rally.shots:
        seen_terms.add(shot.stroke)
        seen_terms.add(shot.technique)
    for term in DEFAULT_SHOT_TAXONOMY:
        folded_term = fold_text(term)
        if (folded_term in folded_text
                and re.search(rf"\b{re.escape(folded_term)}\b", folded_text)):
            if term not in seen_terms:
                violations.append(SanityViolation(
                    "shot_term", f"mentions {term!r} which never occurs in "
                                 f"the rally"))

    return tuple(violations)


def judge_term_count(prediction: str) -> int:
    """Taxonomy terms the mock judge credits: each term whose own regex finds
    it as a whole word of the lower-cased prediction, counted once."""
    return sum(1 for t in DEFAULT_SHOT_TAXONOMY
               if re.search(rf"\b{t}\b", prediction.lower()))


# ---------------------------------------------------------------------------
# Judge replies, read three ways
# ---------------------------------------------------------------------------

# The package's earlier judge-reply reader, kept verbatim as an oracle: it
# tried the raw reply, the reply without code fences, and the span from the
# first "{" to the last "}", in turn.  On a reply with no brace outside the
# dictionary, reading the span alone must give the same card or raise the
# same exception type.

_FENCE_RE = re.compile(r"^```(?:json|python)?|```$", re.MULTILINE)


def _candidate_payloads(text: str):
    yield text
    # judge models occasionally wrap the dictionary in prose or fences
    fenced = _FENCE_RE.sub("", text.strip()).strip()
    if fenced != text:
        yield fenced
    start = text.find("{")
    end = text.rfind("}")
    if start != -1 and end > start:
        yield text[start:end + 1]


def _loads_loose(payload: str) -> dict:
    try:
        return json.loads(payload)
    except (ValueError, RecursionError):  # RecursionError: nested too deeply
        pass
    try:
        value = ast.literal_eval(payload)
    except (ValueError, SyntaxError, RecursionError, MemoryError):
        # deep nesting overflows the parser (MemoryError) or literal_eval's
        # recursion (RecursionError), by depth and Python version
        raise UnparsableOutput("not a JSON-compatible dictionary") from None
    if not isinstance(value, dict):
        raise UnparsableOutput("parsed value is not a dictionary")
    return value


def ref_parse_scorecard(judge_output: str) -> JudgeScorecard:
    obj = None
    last_error: Exception | None = None
    for payload in _candidate_payloads(judge_output):
        try:
            parsed = _loads_loose(payload)
        except UnparsableOutput as exc:
            last_error = exc
            continue
        if isinstance(parsed, dict):
            obj = parsed
            break
    if obj is None:
        raise UnparsableOutput(str(last_error) if last_error else "no dictionary found")

    source = obj.get("scores") if isinstance(obj.get("scores"), dict) else obj
    for name in CRITERIA:
        if name not in source:
            raise MissingKey(f"missing criterion {name!r}")
    card = JudgeScorecard(**{name: source[name] for name in CRITERIA})

    total = obj.get("total_score", obj.get("total"))
    if total is None:
        raise MissingKey("missing total_score")
    return replace(card, corrected=True) if total != card.total else card


# ---------------------------------------------------------------------------
# Dataset ingestion, one line at a time
# ---------------------------------------------------------------------------


def read_record(line: bytes, config) -> object:
    """One dataset line decoded and validated on its own, with no previous
    record: a fresh header, a parsed board and a full reachability check."""
    try:
        obj = json.loads(line.decode("utf-8").strip())
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError included
        raise SchemaViolation(f"invalid JSON: {exc}") from None
    record = rally_from_json(obj, config)
    problems = validate_rally(record) + validate_scoreboard(record.initial_score)
    if problems:
        raise SchemaViolation(f"{record.clip_id}: " + "; ".join(problems))
    return record


def load_dataset_per_line(path, config=None, *, errors):
    """``pipeline.load_dataset`` without chained decoding: the same records
    and the same ``errors``, each line paying for its own decode."""
    for line_no, line in read_lines(path):
        try:
            record = read_record(line, config)
        except SchemaViolation as exc:
            errors.append((line_no, str(exc)))
            continue
        yield record


# ---------------------------------------------------------------------------
# Match statistics, recounted from the raw rallies
# ---------------------------------------------------------------------------


def stat_recount(records) -> dict:
    """Per player id, every statistic count that the rallies raise."""
    out = {"player_1": {}, "player_2": {}}

    def bump(pid, key, by=1):
        out[pid][key] = out[pid].get(key, 0) + by

    for r in records:
        server = r.shots[0].hitter
        returner = other_player(server)
        winner, loser = r.outcome.point_winner, r.outcome.point_loser
        bump(server, "serve_points")
        bump(returner, "return_points")
        bump(winner, "points_won")
        bump(server if winner == server else returner,
             "serve_points_won" if winner == server else "return_points_won")
        if any(s.stroke == "serve" and s.serve_attempt == "first"
               and s.outcome in ("in", "winner") for s in r.shots):
            bump(server, "first_serves_in")
        reason = r.outcome.reason
        if reason == "ace":
            bump(server, "aces")
        elif reason == "double_fault":
            bump(server, "double_faults")
        elif reason == "winner":
            bump(winner, "winners")
        elif reason == "unforced_error":
            bump(loser, "unforced_errors")
        elif reason == "forced_error":
            bump(loser, "forced_errors_conceded")
        score = r.initial_score
        if not score.in_tiebreak:
            rp = score.point_of(score.returner)
            sp = score.point_of(score.server)
            if rp == "AD" or (rp == "40" and sp in ("0", "15", "30")):
                bump(server, "break_points_faced")
                bump(server if winner == server else returner,
                     "break_points_saved" if winner == server
                     else "break_points_converted")
        for s in r.shots:
            bump(s.hitter, "total_shots")
        after = advance_point(score, winner)
        for idx, pid in enumerate(("player_1", "player_2")):
            delta = (sum(p[idx] for p in after.completed_sets) + after.games[idx]
                     - sum(p[idx] for p in score.completed_sets) - score.games[idx])
            if delta:
                bump(pid, "games_won", delta)
    return out


def stat_line(counts: dict) -> SimpleNamespace:
    """One player's statistic line: every count, 0 when never raised, and
    the three ratios, None over a zero denominator."""
    line = {name: counts.get(name, 0) for name in COUNT_FIELDS}

    def ratio(part, whole):
        return None if line[whole] == 0 else line[part] / line[whole]

    return SimpleNamespace(
        **line,
        first_serve_pct=ratio("first_serves_in", "serve_points"),
        serve_points_won_pct=ratio("serve_points_won", "serve_points"),
        return_points_won_pct=ratio("return_points_won", "return_points"))


def _stat_lines(records) -> tuple[SimpleNamespace, SimpleNamespace]:
    counts = stat_recount(records)
    return stat_line(counts["player_1"]), stat_line(counts["player_2"])


# ---------------------------------------------------------------------------
# Replay report, rebuilt from the whole history at every rally
# ---------------------------------------------------------------------------


def replay_reference(records, config) -> tuple[dict, list]:
    """``replay_match(records, config).as_dict(include_timing=False)`` for
    records without reference commentary, and the ``(system_text,
    prior_interaction, user_text)`` of each prompt sent to the client.
    Every rally's window and statistics are recomputed from the whole
    history: the window holds the last ``memory_window`` rallies, and the
    statistics recount every rally before it.  Only the commentary comes
    from the package, because the mock client stands for the model."""
    persona = config.persona
    instruction = USER_INSTRUCTION_TEMPLATE.format(
        min_words=persona.min_words, max_words=persona.max_words)
    history, rows, sent, prior = [], [], [], None
    for index, rally in enumerate(records):
        cut = max(0, len(history) - config.memory_window)
        lines = _stat_lines([r for r, _ in history[:cut]])
        info = rally.match_info
        metadata = json.dumps(metadata_object(rally), indent=2, ensure_ascii=False)
        memory = memory_text(history[cut:], lines, cut,
                             (info.player_1.name, info.player_2.name))
        user_text = (f"{instruction}\n\nMetadata:\n{metadata}"
                     f"\n\nMatch context:\n{memory}")
        system = persona.system_text
        context = "\n".join([system, *(prior or ()), user_text])
        context_tokens = math.ceil(len(context) / 4)
        commentary = failure = None
        if context_tokens > config.token_cap:
            failure = (f"BudgetExceeded: prompt estimate {context_tokens} tokens "
                       f"exceeds cap {config.token_cap}")
        else:
            view = ContextView(recent=(), stat_lines=lines, rallies_consolidated=cut)
            bundle = PromptBundle(system, user_text, prior, rally=rally, view=view)
            sent.append((system, prior, user_text))
            commentary = MockCommentaryClient().complete(GenerationRequest(bundle)).text
            prior = (user_text, commentary)
        rows.append({
            "rally_index": index,
            "clip_id": rally.clip_id,
            "prompt_tokens": math.ceil(len(system + "\n" + user_text) / 4),
            "context_tokens": context_tokens,
            "commentary": commentary,
            "sanity_passed": (None if commentary is None
                              else not sanity_check(commentary, rally)),
            "failed": failure is not None,
            "failure": failure,
        })
        history.append((rally, commentary))

    lines = _stat_lines(records)
    scoring = config.scoring
    report = {
        "config": {
            "scoring": {"best_of": scoring.best_of,
                        "set_trigger_games": scoring.set_trigger_games,
                        "tiebreak_points": scoring.tiebreak_points,
                        "final_set_tiebreak_points": scoring.final_set_tiebreak_points,
                        "ad_scoring": scoring.ad_scoring},
            "memory_window": config.memory_window,
            "token_cap": config.token_cap,
            "client": config.client,
        },
        "rallies": rows,
        "rally_count": len(rows),
        "failures": sum(row["failed"] for row in rows),
        "final_stats": {
            **{pid: {name: getattr(line, name) for name in COUNT_FIELDS + RATIO_FIELDS}
               for pid, line in zip(PLAYER_IDS, lines)},
            "rallies_consolidated": len(records),
            "last_consolidated_score": (score_text(post_point(records[-1]))
                                        if records else None),
        },
        "evaluation": None,
    }
    return report, sent
