"""Frozen `courtside evaluate` outputs: the summary and the per-clip rows.

The pairs are the first 20 rallies of simulated seed 31: the prediction is
the mock client's commentary from a `--no-timing` replay, the reference is
the rally's own commentary.  The mock judge reads its metadata from the
dataset.  A single pair is scored too, where CIDEr has no corpus statistics
and every `cider` is null.  Any change to tokenizing, BLEU-4, ROUGE-L, CIDEr,
their means or the float folds behind them that alters one byte fails here.
"""

import json
from pathlib import Path

import pytest

from courtside.cli import main

GOLDEN = Path(__file__).parent / "golden"
PAIRS = 20


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("evaluate")
    dataset = root / "seed31.jsonl"
    assert main(["simulate", "--seed", "31", "--output", str(dataset)]) == 0
    replay = root / "replay.json"
    assert main(["replay", "--input", str(dataset), "--client", "mock",
                 "--no-timing", "--output", str(replay)]) == 0
    rallies = json.loads(replay.read_text(encoding="utf-8"))["rallies"]
    references = [json.loads(line)["commentary"] for line in
                  dataset.read_text(encoding="utf-8").splitlines()]
    rows = [{"clip_id": rally["clip_id"], "prediction": rally["commentary"],
             "reference": reference}
            for rally, reference in zip(rallies[:PAIRS], references)]
    return root, dataset, rows


def _evaluate(root, rows, name, *extra):
    pairs = root / f"{name}_pairs.jsonl"
    pairs.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    output, per_clip = root / f"{name}.json", root / f"{name}_per_clip.jsonl"
    code = main(["evaluate", "--input", str(pairs), "--output", str(output),
                 "--per-clip", str(per_clip), *extra])
    assert code == 0
    return output.read_bytes(), per_clip.read_bytes()


def test_evaluate_outputs_match_golden(inputs):
    root, dataset, rows = inputs
    assert len(rows) == PAIRS
    output, per_clip = _evaluate(root, rows, "corpus", "--judge", "mock",
                                 "--dataset", str(dataset))
    assert output == (GOLDEN / "evaluate_seed31.json").read_bytes()
    assert per_clip == (GOLDEN / "evaluate_seed31_per_clip.jsonl").read_bytes()


def test_single_pair_has_no_cider(inputs):
    root, _, rows = inputs
    output, per_clip = _evaluate(root, rows[:1], "single")
    assert output == (GOLDEN / "evaluate_single.json").read_bytes()
    assert per_clip == (GOLDEN / "evaluate_single_per_clip.jsonl").read_bytes()
    assert json.loads(per_clip)["cider"] is None
