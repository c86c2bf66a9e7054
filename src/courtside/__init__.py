"""Deterministic rally-stream engine for tennis broadcast commentary
pipelines: scoring state machine, scoreboard parsing, event streams, court
geometry, hierarchical match memory, prompt assembly and evaluation.

Every public name below is imported from its submodule on first access
(PEP 562), so a process loads only the modules its path uses: a mock replay
never imports numpy (``court_geometry``) or ``requests`` (the HTTP client).
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it exports at the package root
_EXPORTS = {
    "match_model": (
        "MatchScore", "PlayerRef", "ScoringConfig", "advance_point",
        "is_break_point", "is_terminal", "parse_scoreboard",
        "render_scoreboard", "score_summary", "validate_scoreboard",
    ),
    "event_stream": (
        "BounceEvent", "MatchInfo", "RallyOutcome", "RallyRecord", "ShotEvent",
        "classify_point", "derive_outcome", "edit_score", "rally_from_json",
        "rally_to_json", "validate_rally",
    ),
    "court_geometry": (
        "CourtModel", "CourtPoint", "Homography", "PixelPoint",
        "estimate_homography", "in_bounds", "project", "reprojection_error",
    ),
    "memory": (
        "ContextView", "LongTermMemory", "MatchMemory", "MemoryEntry",
        "PlayerStatLine", "consolidate",
    ),
    "prompt_engine": (
        "GenerationRequest", "GenerationResponse", "HttpCommentaryClient",
        "MockCommentaryClient", "PersonaConfig", "PromptBundle",
        "build_commentary_prompt", "estimate_tokens", "generate",
        "parse_metadata", "serialize_memory", "serialize_metadata",
    ),
    "evaluation": (
        "JudgeScorecard", "MetricReport", "aggregate", "bleu4",
        "build_judge_prompt", "cider", "parse_scorecard", "rouge_l",
        "sanity_check",
    ),
    "segmentation": (
        "ImpactEvent", "RallyInterval", "SegmentationParams",
        "cluster_impacts", "filter_intervals",
    ),
    "pipeline": ("PipelineConfig", "RunReport", "load_dataset", "replay_match"),
    "simulate": ("simulate_match",),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
