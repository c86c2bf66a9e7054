"""Command-line interface.

Commands: validate, replay, stats, evaluate, segment, simulate.
Exit codes: 0 success, 1 validation failures, 2 configuration error,
3 client or transport failure.  A refused dataset line exits 1 even when
rallies also failed: 1 outranks 3.  Every file a command writes is opened
for append before any input is read (an absent one is created empty), and
a result that cannot be written, to a file or to stdout (a full disk, or
an encoding without one of its characters), exits 2.

Output bytes: a report (validate, replay, stats, evaluate) is
``json.dumps(report, indent=2, ensure_ascii=False)`` plus a newline, written
by :func:`_report_text`; a JSON-lines output (segment, simulate, evaluate's
--per-clip, the request log) is one ``json.dumps(row, ensure_ascii=False)``
per line.  Files are UTF-8.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

from .evaluation import (
    CorpusTooSmall,
    MetricReport,
    MockJudgeClient,
    aggregate,
    build_judge_prompt,
    parse_scorecard,
    score_pairs,
)
from .match_model import field_values
from .memory import LongTermMemory, consolidate
from .pipeline import (CLIENT_KINDS, ConfigError, PipelineConfig, load_dataset,
                       read_lines, replay_match)
from .prompt_engine import (GenerationRequest, claim_file, generate,
                            serialize_metadata)
from .event_stream import (json_float, json_number, json_string, rally_to_json,
                           valid_unicode)
# segmentation and simulate are imported inside the commands that run them
# (segment, simulate), so that no other command compiles them at start-up.

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_CLIENT = 3


def _emit(text: str, output: str | None) -> None:
    """Write ``text`` to the ``output`` file, or to stdout without one; a
    write that fails (a full disk, or a stdout encoding without one of the
    text's characters) is a configuration error."""
    try:
        if output:
            Path(output).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except (OSError, UnicodeEncodeError) as exc:
        if not output:  # the flush at exit would retry the buffered bytes
            with open(os.devnull, "wb") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        raise ConfigError(f"cannot write {output or 'stdout'}: {exc}") from None


def _claim_files(args) -> None:
    """Before any work: refuse a JSON-lines input that does not exist, which
    an output claimed next (see ``claim_file``) would create empty."""
    for path in filter(None, map(vars(args).get, ("input", "dataset", "flags"))):
        try:
            os.stat(path)
        except OSError as exc:
            raise FileNotFoundError(f"cannot read {path}: {exc.strerror}") from None
    for path in filter(None, map(vars(args).get, ("output", "per_clip"))):
        try:
            claim_file(path)
        except ValueError as exc:
            raise ConfigError(f"cannot write {path}: {exc}") from None


# A leaf's JSON text by its exact type; bool is looked up apart from int.
_LEAF_TEXT = {str: json_string, int: int.__repr__, float: json_float,
              bool: {True: "true", False: "false"}.__getitem__,
              type(None): {None: "null"}.__getitem__}
_leaf = _LEAF_TEXT.get


def _report_text(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2, ensure_ascii=False)``, written without
    json's indenting encoder, which is pure Python.  ``pad`` is a newline and
    the indentation of ``value``'s line.  A dict key that is not a str (the
    C string encoder refuses it), and a value that is not a dict, list,
    tuple, str, int, float, bool or None, raise ``TypeError``; a subclass of
    str, int or float is written as json writes it, by its base's rule."""
    leaf = _leaf(type(value))
    if leaf is not None:
        return leaf(value)
    inner = pad + "  "
    # A leaf item is written in place, not by a call: a call per item made
    # the stats report ~20% slower.
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([
            text(item) if (text := _leaf(type(item))) else _report_text(item, inner)
            for item in value]) + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        return "{" + inner + ("," + inner).join([
            f"{json_string(key)}: "
            f"{text(item) if (text := _leaf(type(item))) else _report_text(item, inner)}"
            for key, item in value.items()]) + pad + "}"
    for base in (str, int, float):
        if isinstance(value, base):
            return _LEAF_TEXT[base](value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_output(payload, output: str | None) -> None:
    _emit(_report_text(payload) + "\n", output)


def _write_jsonl(rows, output: str | None) -> None:
    lines = [json.dumps(row, ensure_ascii=False) + "\n" for row in rows]
    _emit("".join(lines), output)


def _overrides(args, cls) -> dict:
    """The fields of ``cls`` that options set, each option's dest being a
    field name; an option not given (None) or given as "" is left out."""
    return {f.name: getattr(args, f.name) for f in fields(cls)
            if getattr(args, f.name, None) not in (None, "")}


def _build_config(args) -> PipelineConfig:
    config = (PipelineConfig.from_file(args.config)
              if getattr(args, "config", None) else PipelineConfig())
    overrides = _overrides(args, PipelineConfig)
    if getattr(args, "best_of", None) is not None:
        overrides["scoring"] = replace(config.scoring, best_of=args.best_of)
    if overrides:
        config = replace(config, **overrides)
    return config


def _violations(errors) -> list[dict]:
    return [{"line": line, "message": message} for line, message in errors]


def _finish(payload: dict, errors, output: str | None, code: int = EXIT_OK) -> int:
    """Write ``payload``, with the refused dataset lines listed under
    ``schema_violations``; a refused line exits 1, ahead of ``code``."""
    if errors:
        payload["schema_violations"] = _violations(errors)
    _write_output(payload, output)
    return EXIT_VALIDATION if errors else code


def cmd_validate(args) -> int:
    config = _build_config(args)
    errors: list[tuple[int, str]] = []
    valid = sum(1 for _ in load_dataset(args.input, config.scoring, errors=errors))
    report = {
        # a non-UTF-8 name's bytes escaped ("\\xff"): the report stays UTF-8
        "input": os.fsencode(args.input).decode("utf-8", "backslashreplace"),
        "valid_records": valid,
        "violations": _violations(errors),
    }
    _write_output(report, args.output)
    return EXIT_VALIDATION if errors else EXIT_OK


def cmd_replay(args) -> int:
    config = _build_config(args)
    errors: list[tuple[int, str]] = []
    records = load_dataset(args.input, config.scoring, errors=errors)
    report = replay_match(records, config)
    return _finish(report.as_dict(include_timing=not args.no_timing), errors,
                   args.output, EXIT_CLIENT if report.failures else EXIT_OK)


def cmd_stats(args) -> int:
    config = _build_config(args)
    errors: list[tuple[int, str]] = []
    long_term = LongTermMemory()
    for record in load_dataset(args.input, config.scoring, errors=errors):
        consolidate(long_term, record)
    return _finish(long_term.report(), errors, args.output)


def _read_rows(path, row) -> list:
    """``(line_number, row(obj))`` for each non-blank line of a JSONL input.
    A line that is not a UTF-8 JSON object, or whose object ``row`` refuses
    (KeyError, TypeError or ValueError), is a :class:`ConfigError` naming it."""
    rows = []
    for line_no, line in read_lines(path):
        try:
            try:
                obj = json.loads(line.decode("utf-8").strip())
            except (ValueError, RecursionError) as exc:  # UnicodeDecodeError included
                raise ValueError(f"invalid JSON: {exc}") from None
            if not isinstance(obj, dict):
                raise ValueError("expected a JSON object")
            rows.append((line_no, row(obj)))
        except KeyError as exc:
            raise ConfigError(f"{path} line {line_no}: missing {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path} line {line_no}: {exc}") from None
    return rows


def _pair(obj: dict) -> dict:
    for key in ("clip_id", "prediction", "reference"):
        if not isinstance(obj[key], str):
            raise TypeError(f"{key!r} must be a string")
    if "metadata" in obj and not (isinstance(obj["metadata"], str)
                                  and obj["metadata"]):
        raise TypeError("'metadata' must be a non-empty string")
    for key in ("clip_id", "prediction", "reference", "metadata"):
        if not valid_unicode(obj.get(key, "")):
            raise ValueError(f"{key!r} must be valid Unicode, got {obj[key]!r}")
    return obj


def _impact(obj: dict):
    from .segmentation import ImpactEvent
    try:
        return ImpactEvent(timestamp=json_number(obj["t"]),
                           confidence=json_number(obj["conf"]))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad impact row: {exc}") from None


def _flags(obj: dict) -> tuple[bool, bool]:
    for key in ("broadcast_view", "scoreboard_visible"):
        if not isinstance(obj.get(key), bool):
            raise TypeError(f"{key!r} must be true or false")
    return obj["broadcast_view"], obj["scoreboard_visible"]


def cmd_evaluate(args) -> int:
    config = _build_config(args)
    pairs = _read_rows(args.input, _pair)
    scores = score_pairs((p["prediction"], [p["reference"]]) for _, p in pairs)
    try:
        report = MetricReport.of(scores)
    except CorpusTooSmall:
        report = None

    errors: list[tuple[int, str]] = []
    records = (list(load_dataset(args.dataset, config.scoring, errors=errors))
               if args.dataset else [])
    judge = MockJudgeClient() if args.judge == "mock" else None
    # The metadata block is read only by the judge.
    metadata_by_clip = ({r.clip_id: serialize_metadata(r) for r in records}
                        if judge is not None else {})

    per_clip = []
    scorecards = []
    for (line_no, obj), score in zip(pairs, scores):
        row = {"clip_id": obj["clip_id"], **field_values(score)}
        if judge is not None:
            metadata = obj.get("metadata") or metadata_by_clip.get(obj["clip_id"])
            if metadata:
                try:
                    bundle = build_judge_prompt(metadata, obj["reference"],
                                                obj["prediction"])
                except ValueError as exc:
                    raise ConfigError(f"{args.input} line {line_no}: {exc}") from None
                response = generate(judge, GenerationRequest(bundle=bundle))
                card = parse_scorecard(response.text)
                scorecards.append(card)
                row["judge"] = card.as_dict()
        per_clip.append(row)

    summary = aggregate(scorecards, metric_report=report)
    summary["pairs"] = len(pairs)
    if args.per_clip:
        _write_jsonl(per_clip, args.per_clip)
    return _finish(summary, errors, args.output)


def cmd_segment(args) -> int:
    from .segmentation import (FlagCountMismatch, SegmentationParams,
                               cluster_impacts, filter_intervals)
    try:
        params = SegmentationParams(**_overrides(args, SegmentationParams))
    except ValueError as exc:
        raise ConfigError(f"segment parameters: {exc}") from None
    events = [event for _, event in _read_rows(args.input, _impact)]
    intervals = cluster_impacts(events, params)
    if args.flags:
        flags = [pair for _, pair in _read_rows(args.flags, _flags)]
        try:
            intervals = filter_intervals(intervals, flags)
        except FlagCountMismatch as exc:
            raise ConfigError(f"{args.flags}: {exc}") from None
    rows = [{"start": round(i.start, 3), "end": round(i.end, 3),
             "hits": i.hit_count} for i in intervals]
    _write_jsonl(rows, args.output)
    return EXIT_OK


def cmd_simulate(args) -> int:
    from .simulate import simulate_match
    config = _build_config(args)
    records = simulate_match(seed=args.seed, config=config.scoring,
                             min_points=args.min_points)
    _write_jsonl([rally_to_json(r) for r in records], args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="courtside",
        description="Deterministic rally-stream engine for tennis commentary "
                    "pipelines.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", required=True, help="input JSONL file")
        p.add_argument("--config", help="pipeline config JSON file")
        p.add_argument("--output", help="write the result here instead of stdout")

    p = sub.add_parser("validate", help="schema-check a rally dataset")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("replay", help="run the commentary loop over a match")
    common(p)
    p.add_argument("--client", choices=CLIENT_KINDS)
    p.add_argument("--k", type=int, dest="memory_window", metavar="K",
                   help="short-term memory window size")
    p.add_argument("--token-cap", type=int, dest="token_cap")
    p.add_argument("--log-requests", dest="log_requests",
                   help="JSONL file capturing client traffic (credentials redacted)")
    p.add_argument("--no-timing", action="store_true",
                   help="omit latency fields for reproducible output")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("stats", help="consolidated statistics for a match file")
    common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("evaluate", help="score predictions against references")
    common(p)
    p.add_argument("--per-clip", dest="per_clip",
                   help="write per-clip metric rows to this JSONL file")
    p.add_argument("--judge", choices=("none", "mock"), default="none",
                   help="also run the deterministic mock judge")
    p.add_argument("--dataset", help="rally dataset supplying judge metadata")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("segment", help="cluster impact detections into intervals")
    p.add_argument("--input", required=True, help="impact detections JSONL file")
    p.add_argument("--output", help="write the result here instead of stdout")
    # An option not given stays None and keeps its SegmentationParams default.
    p.add_argument("--threshold", type=float, dest="confidence_threshold")
    p.add_argument("--max-gap", type=float, dest="max_gap_s")
    p.add_argument("--min-hits", type=int, dest="min_hits")
    p.add_argument("--padding", type=float, dest="padding_s")
    p.add_argument("--flags", help="JSONL of per-interval view/scoreboard flags")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("simulate", help="generate a synthetic match as JSONL")
    common(p, needs_input=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--best-of", type=int, choices=(3, 5), dest="best_of")
    p.add_argument("--min-points", type=int, dest="min_points",
                   help="steer the walk until at least this many rallies exist")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _claim_files(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
