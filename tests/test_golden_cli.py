"""Frozen CLI outputs: `--no-timing` replay reports and a `stats` output.

The seed 31 goldens were produced under the default config with
``courtside replay --client mock --no-timing`` and ``courtside stats``; the
seed 7 golden with ``courtside replay --client mock --k 16 --no-timing``,
the memory window of the live-feed benchmark.  Any change to ingest, prompt
assembly, the mock client, the sanity check, memory or report rendering that
alters one byte of an output fails here.
"""

from pathlib import Path

import pytest

from courtside.cli import main

GOLDEN = Path(__file__).parent / "golden"
SEED = "31"


def _simulated(tmp_path_factory, seed: str):
    path = tmp_path_factory.mktemp("golden") / f"seed{seed}.jsonl"
    assert main(["simulate", "--seed", seed, "--output", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def match_file(tmp_path_factory):
    return _simulated(tmp_path_factory, SEED)


def test_replay_report_matches_golden(match_file, tmp_path):
    out = tmp_path / "replay.json"
    code = main(["replay", "--input", str(match_file), "--client", "mock",
                 "--no-timing", "--output", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / "replay_seed31.json").read_bytes()


def test_stats_output_matches_golden(match_file, tmp_path):
    out = tmp_path / "stats.json"
    assert main(["stats", "--input", str(match_file), "--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "stats_seed31.json").read_bytes()


def test_k16_replay_report_matches_golden(tmp_path_factory, tmp_path):
    match = _simulated(tmp_path_factory, "7")
    out = tmp_path / "replay.json"
    code = main(["replay", "--input", str(match), "--client", "mock", "--k", "16",
                 "--no-timing", "--output", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / "replay_seed7_k16.json").read_bytes()
