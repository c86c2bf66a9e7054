"""Commentary evaluation: entity sanity checks, text metrics and the
five-criterion judge protocol.

All text metrics share one tokenizer (lowercase, whitespace split, terminal
punctuation stripped) so scores stay comparable.  The judge side builds the
fixed evaluator prompt, parses the returned scorecard and enforces the
0-20-per-criterion rubric; a deterministic mock judge exists for offline runs.
"""

from __future__ import annotations

import ast
import functools
import json
import math
import re
import unicodedata
from collections import Counter
from dataclasses import replace
from itertools import chain
from typing import NamedTuple

from .event_stream import RallyRecord
from .match_model import AD, PLAYER_IDS, frozen, is_terminal
from .prompt_engine import GenerationRequest, GenerationResponse, PromptBundle

CRITERIA = ("accuracy", "coherence", "excitement", "professionalism", "pacing")
CRITERION_MAX = 20

ROUGE_BETA = 1.2  # recall-weighted F measure

DEFAULT_SHOT_TAXONOMY = (
    "forehand", "backhand", "serve", "volley", "smash", "slice", "lob",
    "topspin",
)


class UnparsableOutput(ValueError):
    pass


class MissingKey(ValueError):
    pass


class CriterionOutOfRange(ValueError):
    pass


class CorpusTooSmall(ValueError):
    pass


# ---------------------------------------------------------------------------
# Tokenization
# ---------------------------------------------------------------------------

_PUNCT = ".,!?;:\"'`()[]{}“”‘’…"


def tokenize(text: str) -> list[str]:
    """Shared metric tokenizer: lowercase, whitespace split, strip terminal
    punctuation from each token."""
    tokens = []
    for raw in text.lower().split():
        token = raw.strip(_PUNCT)
        if token:
            tokens.append(token)
    return tokens


def _fold(text: str) -> str:
    """Casefold with accents stripped (NFKD, combining marks dropped)."""
    if text.isascii():  # NFKD leaves ASCII unchanged and adds no marks
        return text.casefold()
    decomposed = unicodedata.normalize("NFKD", text)
    return "".join(c for c in decomposed if not unicodedata.combining(c)).casefold()


# ---------------------------------------------------------------------------
# Text metrics
# ---------------------------------------------------------------------------
#
# Each text is tokenized once.  CIDEr's document frequencies take each
# reference's set of grams; then, one pair at a time, each text's 1..4-gram
# counts are built once, in one Counter keyed by the gram tuples (a gram's n
# is its length), and ``_scores`` reads them for BLEU-4 and CIDEr together.
# One walk over the candidate's grams adds up BLEU's clipped matches, the
# candidate's TF-IDF norms and its dot product with the first reference;
# each further reference takes one more candidate walk for its own dot
# product, and each reference one walk over its own grams for its norms.
# No TF-IDF vector is built.  Only one pair's counts are alive at a time.
# Every float is an exact left-to-right fold, in Counter order, so the bytes
# are the same on every supported Python.


def _left_sum(values) -> float:
    """Plain left-to-right float sum.  Builtin ``sum()`` compensates float
    rounding since Python 3.12, which changes the last bits of a mean."""
    total = 0.0
    for value in values:
        total += value
    return total


class _Counted(NamedTuple):
    tokens: list[str]
    grams: Counter


def _grams(t: list[str]):
    """The 1-grams, then the 2-grams, ...; each n in order of position."""
    return chain(zip(t), zip(t, t[1:]), zip(t, t[1:], t[2:]), zip(t, t[1:], t[2:], t[3:]))


def _count(tokens: list[str]) -> _Counted:
    return _Counted(tokens, Counter(_grams(tokens)))


def _tokenize_pair(candidate: str, references) -> tuple[list[str], list[list[str]]]:
    refs = [tokenize(r) for r in references]
    if not refs:
        raise ValueError("references must be non-empty")
    return tokenize(candidate), refs


def _scores(cand: _Counted, refs: list[_Counted], idf: dict | None,
            unseen: float) -> tuple[float, float | None]:
    """BLEU-4 and, given document frequencies, CIDEr of one pair, in the
    walks that the comment above describes.  A dot term is
    ``weight * (ref_tf * gram_idf)``, the product of the two texts' TF-IDF
    weights of the gram."""
    first = refs[0].grams
    clip = first
    for ref in refs[1:]:
        clip = clip | ref.grams  # per-gram maximum
    idf_get, first_get, clip_get = ({} if idf is None else idf).get, first.get, clip.get
    several = len(refs) > 1
    matched = [0] * 5  # by n
    cand_sq = [0.0] * 5
    dots = [[0.0] * 5]  # by reference, then by n; absent grams would add +0.0
    dot = dots[0]
    for gram, tf in cand.grams.items():
        n = len(gram)
        gram_idf = idf_get(gram, unseen)
        weight = tf * gram_idf
        cand_sq[n] += weight * weight
        ref_tf = first_get(gram)
        if ref_tf:
            dot[n] += weight * (ref_tf * gram_idf)
        if several:  # with one reference, its counts are the clip
            ref_tf = clip_get(gram)
        if ref_tf:
            matched[n] += tf if tf < ref_tf else ref_tf
    bleu = 0.0
    if matched[1]:  # else 0.0, as unigram precision takes no smoothing
        length = len(cand.tokens)
        log_precision_sum = 0.0
        for n in range(1, 5):
            total = max(length - n + 1, 0)
            if matched[n] > 0:
                precision = matched[n] / total
            else:
                precision = (matched[n] + 1) / (total + 1)
            log_precision_sum += 0.25 * math.log(precision)
        closest_ref = min((len(r.tokens) for r in refs),
                          key=lambda ref_len: (abs(ref_len - length), ref_len))
        brevity = 1.0 if length > closest_ref else math.exp(1.0 - closest_ref / length)
        bleu = brevity * math.exp(log_precision_sum)
    if idf is None:
        return bleu, None

    for ref in refs[1:]:
        ref_get, dot = ref.grams.get, [0.0] * 5
        for gram, tf in cand.grams.items():
            ref_tf = ref_get(gram)
            if ref_tf:
                gram_idf = idf_get(gram, unseen)
                dot[len(gram)] += tf * gram_idf * (ref_tf * gram_idf)
        dots.append(dot)
    cand_norm = [math.sqrt(x) for x in cand_sq]
    sims = [[] for _ in range(5)]  # by n, one per reference
    for ref, dot in zip(refs, dots):
        ref_sq = [0.0] * 5
        for gram, tf in ref.grams.items():
            weight = tf * idf_get(gram, unseen)
            ref_sq[len(gram)] += weight * weight
        for n in range(1, 5):
            ref_norm = math.sqrt(ref_sq[n])
            if cand_norm[n] == 0.0 or ref_norm == 0.0:
                sims[n].append(0.0)
            else:
                sims[n].append(dot[n] / (cand_norm[n] * ref_norm))
    per_n = [_left_sum(s) / len(s) for s in sims[1:]]
    return bleu, 10.0 * _left_sum(per_n) / 4.0


def bleu4(candidate: str, references) -> float:
    """Sentence BLEU with n = 1..4 modified precisions and brevity penalty.

    Higher-order precisions with zero matches take add-one smoothing on both
    numerator and denominator; unigram precision is never smoothed, so
    zero-overlap pairs score 0.
    """
    cand, refs = _tokenize_pair(candidate, references)
    return _scores(_count(cand), [_count(r) for r in refs], None, 0.0)[0]


def _lcs(a, b) -> int:
    """Length of the longest common subsequence, bit-parallel (Allison & Dix
    1986; Hyyrö 2004).  The bits of ``v`` stand for the positions of the
    longer sequence; after each token of the shorter one, the clear bits mark
    where the DP table's row steps up by one, so the length is their count."""
    if len(a) < len(b):
        a, b = b, a
    masks: dict = {}
    for i, token in enumerate(a):
        masks[token] = masks.get(token, 0) | 1 << i
    full = (1 << len(a)) - 1
    v = full
    for token in b:
        u = v & masks.get(token, 0)
        v = ((v + u) | (v - u)) & full
    return len(a) - v.bit_count()


def _rouge(cand, ref) -> float:
    lcs = _lcs(cand, ref)
    if lcs == 0:
        return 0.0
    precision = lcs / len(cand)
    recall = lcs / len(ref)
    return ((1 + ROUGE_BETA ** 2) * precision * recall
            / (recall + ROUGE_BETA ** 2 * precision))


def rouge_l(candidate: str, reference: str) -> float:
    """Longest-common-subsequence F measure over tokens, recall-weighted."""
    return _rouge(tokenize(candidate), tokenize(reference))


def _idf(ref_lists) -> tuple[dict | None, float]:
    """Inverse document frequency of every gram over the reference side of
    the corpus, and the weight of a gram that no reference holds (df 1);
    none below two pairs, where CIDEr has no corpus statistics."""
    corpus_size = len(ref_lists)
    if corpus_size < 2:
        return None, 0.0
    doc_freq: Counter = Counter()
    for refs in ref_lists:
        doc_freq.update(set(chain.from_iterable(map(_grams, refs))))
    return ({gram: math.log(corpus_size / df) for gram, df in doc_freq.items()},
            math.log(corpus_size))


def cider(pairs) -> float:
    """Corpus CIDEr: the mean over pairs of the TF-IDF n-gram cosine
    (n = 1..4) against each reference, averaged over n and references and
    scaled by 10.  IDF comes from the reference side of the whole corpus."""
    return MetricReport.of(score_pairs(pairs)).cider


@frozen
class PairScore:
    bleu4: float
    rouge_l: float  # against the first reference
    cider: float | None  # None below two pairs: CIDEr needs corpus statistics


def score_pairs(pairs) -> list[PairScore]:
    """BLEU-4, ROUGE-L and CIDEr of every (candidate, references) pair, in
    one pass that tokenizes each text once and counts its n-grams once."""
    pairs = [_tokenize_pair(cand, refs) for cand, refs in pairs]
    weights = _idf([refs for _, refs in pairs])
    scores = []
    for cand_tokens, ref_tokens in pairs:
        bleu, cider = _scores(_count(cand_tokens), [_count(r) for r in ref_tokens], *weights)
        scores.append(PairScore(bleu, _rouge(cand_tokens, ref_tokens[0]), cider))
    return scores


@frozen
class MetricReport:
    bleu4: float
    rouge_l: float
    cider: float
    pairs_evaluated: int

    @classmethod
    def of(cls, scores) -> MetricReport:
        """Left-fold means of per-pair scores."""
        count = len(scores)
        if count < 2:
            raise CorpusTooSmall("corpus metrics need at least 2 pairs")
        return cls(bleu4=_left_sum(s.bleu4 for s in scores) / count,
                   rouge_l=_left_sum(s.rouge_l for s in scores) / count,
                   cider=_left_sum(s.cider for s in scores) / count,
                   pairs_evaluated=count)

    def as_dict(self) -> dict:
        return {"bleu4": self.bleu4, "rouge_l": self.rouge_l,
                "cider": self.cider, "pairs_evaluated": self.pairs_evaluated}


def corpus_metrics(pairs) -> MetricReport:
    """Mean sentence metrics over (candidate, references) pairs."""
    return MetricReport.of(score_pairs(pairs))


# ---------------------------------------------------------------------------
# Sanity checking against rally metadata
# ---------------------------------------------------------------------------


@frozen
class SanityViolation:
    kind: str  # player_name | score_mention | shot_term
    detail: str


# \d{1,2} also matches the point literals 0, 15, 30 and 40
_SCORE_PAIR_RE = re.compile(r"\b(ad|\d{1,2})\s*[-:]\s*(ad|\d{1,2})\b", re.IGNORECASE)
_SENTENCE_SPLIT_RE = re.compile(r"(?<=[.!?])\s+")
_WORD_RE = re.compile(r"[\w'-]+")

# reason term -> who must be the actor when a sentence names exactly one player
_ATTRIBUTION_TERMS = {
    "ace": "winner",
    "double fault": "loser",
    "unforced error": "loser",
    "winner": "winner",
}
_ATTRIBUTION_RE = re.compile(r"\b(?:" + "|".join(map(re.escape, _ATTRIBUTION_TERMS)) + r")\b")
_TAXONOMY_RE = re.compile(r"\b(?:" + "|".join(map(re.escape, DEFAULT_SHOT_TAXONOMY)) + r")\b")

_fold_surname = functools.lru_cache(maxsize=256)(_fold)  # names recur on every rally


def _shows_pair(a: str, b: str, states) -> bool:
    """Whether lower-cased ``a``-``b`` is, in either order, the points, the
    games or the sets won of one of the states."""
    for score in states:
        for x, y in (score.points, score.games, score.sets_won()):
            x, y = str(x).lower(), str(y).lower()
            if a == x and b == y or a == y and b == x:
                return True
    return False


def sanity_check(commentary: str, rally: RallyRecord) -> tuple[SanityViolation, ...]:
    """Deterministic entity checks of a commentary against its rally.

    Returns one violation per (a) player-name problem: a single-name sentence
    naming the wrong player as the actor of a rally-ending act; (b) score
    mention inconsistent with the rally's initial or post-point score (the
    record's cached ``final_score``, read only while the match is live); (c)
    taxonomy shot term absent from the rally. The terms of (a) and (c) come
    only from ``_ATTRIBUTION_TERMS`` and ``DEFAULT_SHOT_TAXONOMY``, and
    violations follow their table order. Unparsable text is ignored; an empty
    tuple means it passed.  Each scan is skipped only where its own match
    could not occur, so the guards are exact: a term, surname token or word
    token of a sentence or of the text is a substring of it, and a sentence
    folds to a substring of the folded text (it ends at whitespace).
    """
    violations: list[SanityViolation] = []
    info = rally.match_info
    folded_text = _fold(commentary)
    surname = {pid: _fold_surname(info.player(pid).surname) for pid in PLAYER_IDS}

    winner_id, loser_id = rally.outcome.point_winner, rally.outcome.point_loser
    sentences = (_SENTENCE_SPLIT_RE.split(commentary)
                 if _ATTRIBUTION_RE.search(folded_text) else ())
    for sentence in sentences:
        folded = _fold(sentence)
        present = [(pid, s) for pid, s in surname.items() if s in folded]
        terms = present and set(_ATTRIBUTION_RE.findall(folded))
        if not terms:
            continue
        tokens = set(_WORD_RE.findall(folded))
        named = [pid for pid, s in present if s in tokens]
        if len(named) != 1:
            continue
        for term, actor in _ATTRIBUTION_TERMS.items():
            if term in terms:
                expected = winner_id if actor == "winner" else loser_id
                if named[0] != expected:
                    violations.append(SanityViolation(
                        "player_name",
                        f"{info.name_of(named[0])!r} named as the actor of "
                        f"{term!r}, expected {info.name_of(expected)!r}"))

    initial = rally.initial_score
    states = (initial,) if is_terminal(initial) else (initial, rally.final_score)
    for a, b in _SCORE_PAIR_RE.findall(commentary):
        if not _shows_pair(a.lower(), b.lower(), states):
            violations.append(SanityViolation(
                "score_mention", f"score {a}-{b} matches neither the initial "
                                 f"nor the post-point state"))

    if "deuce" in folded_text or "advantage" in folded_text:
        text_tokens = set(_WORD_RE.findall(folded_text))
        if "deuce" in text_tokens and not any(s.points == ("40", "40") for s in states):
            violations.append(SanityViolation(
                "score_mention", "mentions deuce but the game is not at 40-40"))
        if "advantage" in text_tokens and not any(AD in s.points for s in states):
            violations.append(SanityViolation(
                "score_mention", "mentions advantage but nobody holds AD"))

    if any(term in folded_text for term in DEFAULT_SHOT_TAXONOMY):
        mentioned = set(_TAXONOMY_RE.findall(folded_text)).difference(
            *((shot.stroke, shot.technique) for shot in rally.shots))
        for term in DEFAULT_SHOT_TAXONOMY:
            if term in mentioned:
                violations.append(SanityViolation(
                    "shot_term", f"mentions {term!r} which never occurs in the rally"))

    return tuple(violations)


# ---------------------------------------------------------------------------
# Judge protocol
# ---------------------------------------------------------------------------

JUDGE_SYSTEM_PROMPT = (
    "You are a senior Tennis Analyst and expert commentator evaluator. Your "
    "task is to evaluate a **Generated Commentary** against strict **Match "
    "Metadata** and a **Reference Commentary** (Ground Truth)."
)

JUDGE_USER_TEMPLATE = """\
### INPUT DATA:
1. **METADATA (Ground Truth):** {metadata}
2. **REFERENCE COMMENTARY (Style/Tone Baseline):** "{reference}"
3. **PREDICTION (Target to Evaluate):** "{prediction}"

### SCORING RUBRIC (0-20 points per category, Total 100):
1. **ACCURACY (0-20 pts):** Alignment with METADATA (players, shot types, score, court positions).
   - 20: Perfect factual match.
   - 0: Hallucinations (wrong player, wrong shot) or contradictions with Metadata.
2. **COHERENCE (0-20 pts):** Logical flow and pronoun usage.
   - 20: Natural narrative; events connect logically.
   - 0: Confusing structure; contradictions within the text.
3. **EXCITEMENT (0-20 pts):** Tone matches the event intensity.
   - 20: Highly engaging; emotive vocabulary fitting the moment.
   - 0: Robotic, flat, or mismatched tone (e.g., boring description of a winner).
4. **PROFESSIONALISM (0-20 pts):** Domain terminology and depth of analysis.
   - 20: Insightful observation (e.g., noting "inside-out forehand" or "tactical adjustment").
   - 0: Superficial or generic description only.
5. **PACING (0-20 pts):** Length relative to event complexity.
   - 20: Concise for quick points; descriptive for long rallies.
   - 0: Severe mismatch (e.g., long paragraph for a simple double fault).

### OUTPUT INSTRUCTION:
Provide your evaluation **strictly** as a Python dictionary string (JSON compatible).
Do NOT output any markdown or conversational text.
The dictionary must have the following keys:
{{
    "scores": {{
        "accuracy": <int>,
        "coherence": <int>,
        "excitement": <int>,
        "professionalism": <int>,
        "pacing": <int>
    }},
    "total_score": <int>
}}"""


@frozen
class JudgeScorecard:
    accuracy: int
    coherence: int
    excitement: int
    professionalism: int
    pacing: int
    corrected: bool = False

    def __post_init__(self):
        for name in CRITERIA:
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise CriterionOutOfRange(f"{name} must be an integer, got {value!r}")
            if not 0 <= value <= CRITERION_MAX:
                raise CriterionOutOfRange(
                    f"{name}={value} outside [0, {CRITERION_MAX}]")

    @property
    def total(self) -> int:
        return sum(getattr(self, c) for c in CRITERIA)

    def as_dict(self) -> dict:
        out = {c: getattr(self, c) for c in CRITERIA}
        out["total"] = self.total
        out["corrected"] = self.corrected
        return out


def build_judge_prompt(metadata: str, reference: str,
                       prediction: str) -> PromptBundle:
    """Fill the evaluator templates with the three inputs, verbatim."""
    if not (metadata and reference and prediction):
        raise ValueError("metadata, reference and prediction must be non-empty")
    user = JUDGE_USER_TEMPLATE.format(metadata=metadata, reference=reference,
                                      prediction=prediction)
    return PromptBundle(system_text=JUDGE_SYSTEM_PROMPT, user_text=user,
                        reference=reference, prediction=prediction)


def _loads_loose(payload: str) -> dict:
    """Read ``payload`` as JSON, else as a Python literal; anything but a
    dictionary is :class:`UnparsableOutput`."""
    try:
        value = json.loads(payload)
    except (ValueError, RecursionError):  # RecursionError: nested too deeply
        try:
            value = ast.literal_eval(payload)
        except (ValueError, TypeError, SyntaxError, RecursionError, MemoryError):
            # TypeError: an unhashable key or set member; MemoryError or
            # RecursionError: nesting too deep, by depth and Python version
            raise UnparsableOutput("not a JSON-compatible dictionary") from None
    if not isinstance(value, dict):
        raise UnparsableOutput("parsed value is not a dictionary")
    return value


def parse_scorecard(judge_output: str) -> JudgeScorecard:
    """Extract and validate a five-criterion scorecard from judge text.

    The scorecard is the span from the first ``{`` to the last ``}``, so
    prose and code fences around it are ignored.  Accepts the nested
    ``{"scores": {...}, "total_score": n}`` shape and the flat variant.
    Criterion values are hard bounds, never clamped; a total that disagrees
    with the criterion sum is recomputed and flagged.
    """
    start = judge_output.find("{")
    end = judge_output.rfind("}")
    if not 0 <= start < end:
        raise UnparsableOutput("no dictionary found")
    obj = _loads_loose(judge_output[start:end + 1])

    source = obj.get("scores") if isinstance(obj.get("scores"), dict) else obj
    for name in CRITERIA:
        if name not in source:
            raise MissingKey(f"missing criterion {name!r}")
    card = JudgeScorecard(**{name: source[name] for name in CRITERIA})

    total = obj.get("total_score", obj.get("total"))
    if total is None:
        raise MissingKey("missing total_score")
    return replace(card, corrected=True) if total != card.total else card


class MockJudgeClient:
    """Deterministic judge stand-in: scores surface overlap between the
    prediction and the reference carried on the request's bundle."""

    def complete(self, request: GenerationRequest) -> GenerationResponse:
        reference = request.bundle.reference
        prediction = request.bundle.prediction
        if reference is None or prediction is None:
            raise UnparsableOutput("judge prompt carries no reference/prediction")

        overlap = rouge_l(prediction, reference)
        accuracy = round(overlap * CRITERION_MAX)
        coherence = min(CRITERION_MAX, 10 + len(tokenize(prediction)) // 8)
        excitement = 12 if any(c in prediction for c in "!—") else 10
        terms = set(_TAXONOMY_RE.findall(prediction.lower()))
        professionalism = min(CRITERION_MAX, 6 + 2 * len(terms))
        word_count = len(prediction.split())
        pacing = CRITERION_MAX - min(CRITERION_MAX, abs(word_count - 25) // 2)
        scores = dict(zip(CRITERIA, (accuracy, coherence, excitement,
                                     professionalism, pacing)))
        text = json.dumps({"scores": scores, "total_score": sum(scores.values())})
        return GenerationResponse(text=text, usage={})


# ---------------------------------------------------------------------------
# Corpus aggregation
# ---------------------------------------------------------------------------


def aggregate(scorecards, metric_report: MetricReport | None = None) -> dict:
    """Corpus summary: per-criterion judge means and the metric means; empty
    when there is neither."""
    scorecards = list(scorecards)
    summary: dict = {}
    if scorecards:
        block = {"count": len(scorecards)}
        for name in CRITERIA + ("total",):
            block[f"{name}_mean"] = (
                sum(getattr(c, name) for c in scorecards) / len(scorecards))
        summary["judge"] = block
    if metric_report is not None:
        summary["metrics"] = metric_report.as_dict()
    return summary
