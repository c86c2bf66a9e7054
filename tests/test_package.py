"""The package root: its lazy namespace, and the modules a cold start loads."""

import importlib
import json
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import courtside

SRC = Path(__file__).resolve().parents[1] / "src"

# Every name the package root exports, by the submodule that defines it.
EXPORTS = {
    "match_model": [
        "MatchScore", "PlayerRef", "ScoringConfig", "advance_point",
        "is_break_point", "is_terminal", "parse_scoreboard",
        "render_scoreboard", "score_summary", "validate_scoreboard",
    ],
    "event_stream": [
        "BounceEvent", "MatchInfo", "RallyOutcome", "RallyRecord", "ShotEvent",
        "classify_point", "derive_outcome", "edit_score", "rally_from_json",
        "rally_to_json", "validate_rally",
    ],
    "court_geometry": [
        "CourtModel", "CourtPoint", "Homography", "PixelPoint",
        "estimate_homography", "in_bounds", "project", "reprojection_error",
    ],
    "memory": [
        "ContextView", "LongTermMemory", "MatchMemory", "MemoryEntry",
        "PlayerStatLine", "consolidate",
    ],
    "prompt_engine": [
        "GenerationRequest", "GenerationResponse", "HttpCommentaryClient",
        "MockCommentaryClient", "PersonaConfig", "PromptBundle",
        "build_commentary_prompt", "estimate_tokens", "generate",
        "parse_metadata", "serialize_memory", "serialize_metadata",
    ],
    "evaluation": [
        "JudgeScorecard", "MetricReport", "aggregate", "bleu4",
        "build_judge_prompt", "cider", "parse_scorecard", "rouge_l",
        "sanity_check",
    ],
    "segmentation": [
        "ImpactEvent", "RallyInterval", "SegmentationParams",
        "cluster_impacts", "filter_intervals",
    ],
    "pipeline": ["PipelineConfig", "RunReport", "load_dataset", "replay_match"],
    "simulate": ["simulate_match"],
}
NAMES = [name for names in EXPORTS.values() for name in names]


class TestNamespace:
    def test_all_is_exactly_the_exported_names(self):
        assert len(NAMES) == 66
        assert sorted(courtside.__all__) == sorted(NAMES)

    @pytest.mark.parametrize("module, name", [
        (module, name) for module, names in EXPORTS.items() for name in names])
    def test_name_is_the_submodule_object(self, module, name):
        submodule = importlib.import_module(f"courtside.{module}")
        assert getattr(courtside, name) is getattr(submodule, name)

    def test_dir_lists_every_name(self):
        listing = dir(courtside)
        assert set(NAMES) <= set(listing)
        assert "__version__" in listing

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from courtside import *", namespace)
        assert set(NAMES) <= set(namespace)

    def test_submodules_import_from_the_root(self):
        from courtside import cli, pipeline
        assert isinstance(cli, types.ModuleType)
        assert cli is sys.modules["courtside.cli"]
        assert pipeline is sys.modules["courtside.pipeline"]

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            courtside.no_such_name
        assert not hasattr(courtside, "no_such_name")
        with pytest.raises(ImportError):
            exec("from courtside import no_such_name", {})


# Runs in a fresh interpreter: this test session has numpy loaded already.
COLD_START = textwrap.dedent("""
    import json, os, sys
    from courtside import cli

    work = sys.argv[1]
    match = os.path.join(work, "m.jsonl")
    codes = [
        cli.main(["simulate", "--seed", "7", "--output", match]),
        cli.main(["replay", "--input", match, "--client", "mock", "--no-timing",
                  "--output", os.path.join(work, "r.json")]),
        cli.main(["stats", "--input", match,
                  "--output", os.path.join(work, "s.json")]),
    ]
    heavy = sorted(n for n in sys.modules if n.startswith(("numpy", "requests")))
    from courtside import estimate_homography
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump({"codes": codes, "heavy": heavy,
                   "numpy_after_geometry": "numpy" in sys.modules}, fh)
""")


def test_cold_start_loads_neither_numpy_nor_requests(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", COLD_START, str(tmp_path)],
                   env=env, check=True, capture_output=True, timeout=120)
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["codes"] == [0, 0, 0]
    assert result["heavy"] == []
    assert result["numpy_after_geometry"]
