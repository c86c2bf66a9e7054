"""Frozen CLI outputs: a `--no-timing` replay report and a `stats` output.

Both goldens were produced from simulated seed 31 under the default config
with ``courtside replay --client mock --no-timing`` and ``courtside stats``.
Any change to prompt assembly, the mock client, the sanity check, memory or
report rendering that alters one byte of either output fails here.
"""

from pathlib import Path

import pytest

from courtside.cli import main

GOLDEN = Path(__file__).parent / "golden"
SEED = "31"


@pytest.fixture(scope="module")
def match_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "seed31.jsonl"
    assert main(["simulate", "--seed", SEED, "--output", str(path)]) == 0
    return path


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
