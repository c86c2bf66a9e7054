"""Deterministic rally-stream engine for tennis broadcast commentary
pipelines: scoring state machine, scoreboard parsing, event streams, court
geometry, hierarchical match memory, prompt assembly and evaluation."""

from .match_model import (
    MatchScore,
    PlayerRef,
    RawScoreboard,
    ScoringConfig,
    advance_point,
    is_break_point,
    is_terminal,
    parse_scoreboard,
    parse_summary,
    render_scoreboard,
    score_summary,
    validate_scoreboard,
)
from .event_stream import (
    BounceEvent,
    MatchInfo,
    RallyOutcome,
    RallyRecord,
    ShotEvent,
    classify_point,
    derive_outcome,
    edit_score,
    rally_from_json,
    rally_to_json,
    validate_rally,
)
from .court_geometry import (
    CourtModel,
    CourtPoint,
    Homography,
    PixelPoint,
    estimate_homography,
    in_bounds,
    project,
    reprojection_error,
)
from .memory import (
    ContextView,
    LongTermMemory,
    MatchMemory,
    MemoryEntry,
    PlayerStatLine,
    ShortTermMemory,
    consolidate,
    flush_memory,
    memory_snapshot,
    push_rally,
)
from .prompt_engine import (
    GenerationRequest,
    GenerationResponse,
    HttpCommentaryClient,
    MockCommentaryClient,
    PersonaConfig,
    PromptBundle,
    build_commentary_prompt,
    estimate_tokens,
    generate,
    parse_metadata,
    serialize_memory,
    serialize_metadata,
)
from .evaluation import (
    JudgeScorecard,
    MetricReport,
    SanityReport,
    aggregate,
    bleu4,
    build_judge_prompt,
    cider,
    parse_scorecard,
    rouge_l,
    sanity_check,
)
from .segmentation import (
    ImpactEvent,
    RallyInterval,
    SegmentationParams,
    cluster_impacts,
    filter_intervals,
)
from .pipeline import PipelineConfig, RunReport, load_dataset, replay_match
from .simulate import simulate_match
from .validity import ValidityReport

__version__ = "0.1.0"
