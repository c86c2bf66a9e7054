"""Outside-in layer tracing for the benchmark's traced run.

The program carries no instrumentation of its own, so the tracer replaces
each layer's public functions, wherever a ``courtside`` module holds a
reference to them, with timed wrappers, and puts the originals back when the
traced phase ends.  Spans are aggregated as they close rather than stored:
per span name the call count, the inclusive time, the self time (inclusive
time minus the time of spans opened inside it) and the exceptions raised.
"""

from __future__ import annotations

import json
import statistics
import sys
import types
from time import perf_counter

# (module, attribute) of every traced callable.  The span is named
# "<module>.<last part of the attribute>", e.g. "memory.snapshot".
TARGETS = (
    ("pipeline", "load_dataset"),
    ("pipeline", "replay_match"),
    ("event_stream", "rally_from_json"),
    ("event_stream", "validate_rally"),
    ("event_stream", "classify_point"),
    ("match_model", "validate_scoreboard"),
    ("match_model", "advance_point"),
    ("memory", "MatchMemory.snapshot"),
    ("memory", "MatchMemory.observe"),
    ("memory", "consolidate"),
    ("prompt_engine", "build_commentary_prompt"),
    ("prompt_engine", "serialize_metadata"),
    ("prompt_engine", "serialize_memory"),
    ("prompt_engine", "PromptBundle.context_text"),
    ("prompt_engine", "generate"),
    ("prompt_engine", "parse_metadata"),
    ("evaluation", "sanity_check"),
    ("evaluation", "corpus_metrics"),
    ("evaluation", "bleu4"),
    ("evaluation", "rouge_l"),
    ("evaluation", "cider"),
    ("evaluation", "tokenize"),
)

# json.loads inside load_dataset, reached through pipeline's "json" global.
DECODE = "pipeline.decode"


class SpanStats:
    __slots__ = ("calls", "total_s", "self_s", "raised")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.raised = 0


class _TracedIterator:
    """Times each ``next()`` of a generator as one span."""

    def __init__(self, traced_next):
        self._next = traced_next

    def __iter__(self):
        return self

    def __next__(self):
        return self._next()


class Tracer:
    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.prompt_chars: list[int] = []
        self._open: list[float] = []  # time of closed child spans, per open span
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def wrap(self, name, fn):
        stat = self.stats.setdefault(name, SpanStats())
        open_spans = self._open

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            except StopIteration:
                raise
            except Exception:
                stat.raised += 1
                raise
            finally:
                elapsed = perf_counter() - started
                children = open_spans.pop()
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - children
                if open_spans:
                    open_spans[-1] += elapsed

        return traced

    def _wrap_generator(self, name, fn):
        def traced(*args, **kwargs):
            return _TracedIterator(self.wrap(name, fn(*args, **kwargs).__next__))
        return traced

    def _wrap_generate(self, traced_generate, context_text):
        """Record the size of the prompt handed to the client; the time this
        takes is kept out of the caller's self time."""
        open_spans = self._open

        def generate(client, request, *args, **kwargs):
            started = perf_counter()
            self.prompt_chars.append(len(context_text(request.bundle)))
            if open_spans:
                open_spans[-1] += perf_counter() - started
            return traced_generate(client, request, *args, **kwargs)

        return generate

    def counts(self) -> dict[str, int]:
        return {name: stat.calls for name, stat in self.stats.items()}

    # -- patching --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "courtside" or n.startswith("courtside.")) and m]
        prompt_engine = sys.modules["courtside.prompt_engine"]
        context_text = prompt_engine.PromptBundle.context_text
        for module_name, attr in TARGETS:
            module = sys.modules[f"courtside.{module_name}"]
            name = f"{module_name}.{attr.rsplit('.', 1)[-1]}"
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                self._set(owner, method, self.wrap(name, owner.__dict__[method]))
                continue
            original = getattr(module, attr)
            if attr == "load_dataset":
                wrapped = self._wrap_generator(name, original)
            elif attr == "generate":
                wrapped = self._wrap_generate(self.wrap(name, original),
                                              context_text)
            else:
                wrapped = self.wrap(name, original)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._set(holder, key, wrapped)

        pipeline = sys.modules["courtside.pipeline"]
        proxy = types.ModuleType("json")
        proxy.__dict__.update(vars(json))
        proxy.loads = self.wrap(DECODE, json.loads)
        self._set(pipeline, "json", proxy)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)


def _ms_per(stats, name, denominator, scale, field="total_s"):
    stat = stats.get(name)
    if stat is None or denominator == 0:
        return 0.0
    return 1000.0 * scale * getattr(stat, field) / denominator


def layer_metrics(tracer: Tracer, phase, untraced_rallies_per_s: float) -> dict:
    """Per-layer metrics of one traced phase.

    Times are divided by the rallies read (or the matches replayed) and
    scaled to reference speed by the phase's median speed factor; the
    ``calls_per_*`` counts only by matches that returned a report, so that a
    match lost part-way cannot move them and they repeat exactly.
    """
    s = tracer.stats
    scale = statistics.median(phase.speed_factors)
    rallies = phase.rallies_read
    matches = phase.matches_run
    counted = phase.counted_calls
    counted_rallies = phase.counted_rallies

    def per_rally(name, field="total_s"):
        return _ms_per(s, name, rallies, scale, field)

    def per_match(name):
        return _ms_per(s, name, matches, scale)

    def calls(name, denominator):
        return counted.get(name, 0) / denominator if denominator else 0.0

    chars = sorted(tracer.prompt_chars)
    traced_rate = phase.rallies_per_s
    metrics = {
        "pipeline.load_dataset.ms_per_rally": (per_rally("pipeline.load_dataset"), "ms"),
        "pipeline.decode.ms_per_rally": (per_rally(DECODE, "self_s"), "ms"),
        "pipeline.replay_match.self_ms_per_rally": (
            per_rally("pipeline.replay_match", "self_s"), "ms"),
        "pipeline.replay_match.matches_lost": (phase.matches_lost, "count"),
        "pipeline.load_dataset.schema_violations": (phase.schema_violations, "count"),
        "event_stream.rally_from_json.ms_per_rally": (
            per_rally("event_stream.rally_from_json"), "ms"),
        "event_stream.validate_rally.ms_per_rally": (
            per_rally("event_stream.validate_rally"), "ms"),
        "event_stream.classify_point.ms_per_rally": (
            per_rally("event_stream.classify_point"), "ms"),
        "match_model.validate_scoreboard.ms_per_rally": (
            per_rally("match_model.validate_scoreboard"), "ms"),
        "match_model.advance_point.calls_per_rally": (
            calls("match_model.advance_point", counted_rallies), "calls"),
        "memory.snapshot.ms_per_rally": (per_rally("memory.snapshot"), "ms"),
        "memory.observe.ms_per_rally": (per_rally("memory.observe"), "ms"),
        "memory.consolidate.ms_per_rally": (per_rally("memory.consolidate"), "ms"),
        "prompt_engine.build_commentary_prompt.ms_per_rally": (
            per_rally("prompt_engine.build_commentary_prompt"), "ms"),
        "prompt_engine.serialize_metadata.ms_per_rally": (
            per_rally("prompt_engine.serialize_metadata"), "ms"),
        "prompt_engine.serialize_memory.ms_per_rally": (
            per_rally("prompt_engine.serialize_memory"), "ms"),
        "prompt_engine.context_text.calls_per_rally": (
            calls("prompt_engine.context_text", counted_rallies), "calls"),
        "prompt_engine.prompt_chars.p50": (
            float(chars[(len(chars) - 1) // 2]) if chars else 0.0, "chars"),
        "prompt_engine.generate.ms_per_rally": (
            per_rally("prompt_engine.generate"), "ms"),
        "prompt_engine.generate.failures": (
            s["prompt_engine.generate"].raised if "prompt_engine.generate" in s else 0,
            "count"),
        "prompt_engine.parse_metadata.calls_per_rally": (
            calls("prompt_engine.parse_metadata", counted_rallies), "calls"),
        "evaluation.sanity_check.ms_per_rally": (
            per_rally("evaluation.sanity_check"), "ms"),
        "evaluation.corpus_metrics.ms_per_match": (
            per_match("evaluation.corpus_metrics"), "ms"),
        "evaluation.bleu4.ms_per_match": (per_match("evaluation.bleu4"), "ms"),
        "evaluation.rouge_l.ms_per_match": (per_match("evaluation.rouge_l"), "ms"),
        "evaluation.cider.ms_per_match": (per_match("evaluation.cider"), "ms"),
        "evaluation.tokenize.calls_per_pair": (
            calls("evaluation.tokenize", phase.counted_pairs), "calls"),
        "trace.rallies_per_s": (traced_rate, "1/s"),
        "trace.overhead": (
            untraced_rallies_per_s / traced_rate if traced_rate else 0.0, "ratio"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}
