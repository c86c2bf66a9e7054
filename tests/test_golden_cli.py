"""Frozen CLI outputs: `--no-timing` replay reports and a `stats` output.

The seed 31 goldens were produced under the default config with
``courtside replay --client mock --no-timing`` and ``courtside stats``; the
seed 7 golden with ``courtside replay --client mock --k 16 --no-timing``,
the memory window of the live-feed benchmark.  The two ``*_violations``
goldens are a ``validate`` and a ``stats`` report of a file with a line that
is not JSON and a record that breaks the schema, read by a relative,
non-ASCII ``--input`` name.  Any change to ingest, prompt assembly, the mock
client, the sanity check, memory or report rendering that alters one byte of
an output fails here.
"""

import json
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


BROKEN_NAME = "rallies_Ñ.jsonl"


@pytest.fixture
def broken_file(match_file, tmp_path, monkeypatch):
    """Seed 31's first two lines, a line that is not JSON, then its third
    record with a shot timestamp given as a numeric string; the working
    directory is the file's, so ``BROKEN_NAME`` is a relative ``--input``."""
    lines = match_file.read_text(encoding="utf-8").splitlines(keepends=True)
    third = json.loads(lines[2])
    third["shot_sequence"][0]["timestamp"] = "0.72"
    (tmp_path / BROKEN_NAME).write_text(
        "".join(lines[:2]) + '{"clip_id": \n' + json.dumps(third) + "\n",
        encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return BROKEN_NAME


@pytest.mark.parametrize("command, golden", [("validate", "validate_violations.json"),
                                             ("stats", "stats_violations.json")])
def test_report_with_violations_matches_golden(broken_file, command, golden):
    assert main([command, "--input", broken_file, "--output", "out.json"]) == 1
    assert Path("out.json").read_bytes() == (GOLDEN / golden).read_bytes()
