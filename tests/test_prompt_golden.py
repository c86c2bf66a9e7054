"""Frozen prompt bytes: every ``user_text`` a file-loaded mock replay sends.

``prompt_digests.json`` holds one sha256 per match over the ``user_text`` of
every rally, in order, each followed by a NUL byte.  The matches are
simulated, written as JSONL with ``rally_to_json`` and read back with
``load_dataset``, so the digests cover the dataset codec, metadata and
memory serialization, and the mock commentary folded into the digest lines.
``prompt_tiebreak_best_of_5.txt`` is the full ``user_text`` of the first
tiebreak rally of the best-of-5 match, so that a change shows as a readable
diff.
"""

import hashlib
import json
from pathlib import Path

import pytest

from courtside.event_stream import rally_to_json
from courtside.match_model import ScoringConfig
from courtside.pipeline import PipelineConfig, load_dataset, replay_match
from courtside.prompt_engine import MockCommentaryClient
from courtside.simulate import simulate_match

GOLDEN = Path(__file__).parent / "golden"

MATCHES = {
    "seed31_default": (31, ScoringConfig()),
    "seed3_best_of_5": (3, ScoringConfig(best_of=5)),
    "seed31_no_ad": (31, ScoringConfig(ad_scoring=False)),
}


class RecordingClient(MockCommentaryClient):
    """The mock client, keeping every bundle it is handed."""

    def __init__(self):
        super().__init__()
        self.bundles = []

    def complete(self, request):
        self.bundles.append(request.bundle)
        return super().complete(request)


def replay_bundles(name, tmp_path):
    seed, scoring = MATCHES[name]
    path = tmp_path / f"{name}.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for record in simulate_match(seed=seed, config=scoring):
            fh.write(json.dumps(rally_to_json(record), ensure_ascii=False) + "\n")
    client = RecordingClient()
    report = replay_match(load_dataset(path, scoring, errors=[]),
                          PipelineConfig(scoring=scoring), client=client)
    assert report.failures == 0
    return client.bundles


def digest(bundles) -> str:
    h = hashlib.sha256()
    for bundle in bundles:
        h.update(bundle.user_text.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(MATCHES))
def test_prompt_digest_matches_golden(name, tmp_path):
    expected = json.loads((GOLDEN / "prompt_digests.json").read_text())
    assert digest(replay_bundles(name, tmp_path)) == expected[name]


def test_tiebreak_prompt_matches_golden(tmp_path):
    bundles = replay_bundles("seed3_best_of_5", tmp_path)
    tiebreak = next(b for b in bundles if b.rally.initial_score.in_tiebreak)
    golden = (GOLDEN / "prompt_tiebreak_best_of_5.txt").read_text(encoding="utf-8")
    assert tiebreak.user_text == golden
