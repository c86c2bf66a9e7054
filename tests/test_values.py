"""The value-type contract: every frozen dataclass in courtside is declared
with ``match_model.frozen`` and behaves as stock ``dataclass(frozen=True)``.

The types are found by walking the package's submodules, and a sample of each
is taken from the values that ordinary calls return, so a new type is covered
without editing this file.
"""

import __future__

import functools
import importlib
import inspect
import pickle
import pkgutil
import re
import sys
import textwrap
from dataclasses import (MISSING, FrozenInstanceError, InitVar, asdict,
                         dataclass, field, fields, is_dataclass, replace)
from pathlib import Path
from typing import ClassVar, Optional

import pytest
from hypothesis import given, strategies as st

import courtside
import oracles
from courtside.court_geometry import (CourtModel, Homography, PixelPoint,
                                      project)
from courtside.evaluation import (MetricReport, PairScore, parse_scorecard,
                                  sanity_check, score_pairs)
from courtside.match_model import field_values, frozen
from courtside.memory import MatchMemory, MemoryEntry
from courtside.pipeline import PipelineConfig, RallyRunRecord, replay_match
from courtside.prompt_engine import (GenerationRequest, MockCommentaryClient,
                                     build_commentary_prompt, generate)
from courtside.segmentation import (ImpactEvent, SegmentationParams,
                                    cluster_impacts)
from courtside.simulate import simulate_match

SRC = Path(courtside.__file__).resolve().parent


def _frozen_types():
    found = []
    for info in pkgutil.iter_modules(courtside.__path__):
        module = importlib.import_module(f"courtside.{info.name}")
        for value in vars(module).values():
            if (isinstance(value, type) and value.__module__ == module.__name__
                    and is_dataclass(value)
                    and value.__dataclass_params__.frozen):
                found.append(value)
    return found


FROZEN_TYPES = _frozen_types()


def _walk(value, found):
    """Record the first instance of each frozen type reachable from value."""
    if is_dataclass(value) and not isinstance(value, type):
        if type(value) in found:
            return
        found[type(value)] = value
        for f in fields(value):
            _walk(getattr(value, f.name), found)
    elif isinstance(value, (tuple, list)):
        for item in value:
            _walk(item, found)
    elif isinstance(value, dict):
        for item in value.values():
            _walk(item, found)


@functools.cache
def _samples():
    records = simulate_match(seed=5)[:8]
    memory = MatchMemory(capacity=2)
    for index, rally in enumerate(records[:4]):
        memory.observe(MemoryEntry(index, rally, f"commentary {index}"))
    request = GenerationRequest(
        bundle=build_commentary_prompt(records[4], memory.snapshot()))
    scorecard = parse_scorecard(
        '{"scores": {"accuracy": 18, "coherence": 18, "excitement": 18, '
        '"professionalism": 17, "pacing": 17}, "total_score": 85}')
    scores = score_pairs([("a deep forehand winner", ["a deep forehand"]),
                          ("an ace down the T", ["an ace out wide"])])
    homography = Homography.from_array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                        [0.0, 0.0, 1.0]])
    pixel = PixelPoint(1.0, 2.0)
    events = [ImpactEvent(1.0, 0.9), ImpactEvent(1.5, 0.9)]
    params = SegmentationParams()
    roots = [
        records, replay_match(records, PipelineConfig()), PipelineConfig(),
        request, generate(MockCommentaryClient(), request), scorecard,
        scores, MetricReport.of(scores), CourtModel(), homography, pixel,
        project(homography, pixel), events, params,
        cluster_impacts(events, params),
        sanity_check("Nobody hits a 9-9 lob.", records[0]),
    ]
    found = {}
    _walk(roots, found)
    return found


def _sample(cls):
    sample = _samples().get(cls)
    if sample is None:
        pytest.fail(f"no sample of {cls.__name__}: return one from a call "
                    f"in _samples")
    return sample


def _values(value):
    return {f.name: getattr(value, f.name) for f in fields(value)}


def _stock_twin(cls):
    """The same class source, declared with stock dataclass(frozen=True)."""
    module = sys.modules[cls.__module__]
    source = textwrap.dedent(inspect.getsource(cls))
    assert source.startswith("@frozen\n"), f"{cls.__name__} is not @frozen"
    source = "@dataclass(frozen=True)\n" + source[len("@frozen\n"):]
    namespace = dict(vars(module), dataclass=dataclass)
    exec(compile(source, module.__file__, "exec", dont_inherit=True,
                 flags=__future__.annotations.compiler_flag), namespace)
    return namespace[cls.__name__]


def _type_id(cls):
    return f"{cls.__module__.rsplit('.', 1)[-1]}.{cls.__name__}"


by_type = pytest.mark.parametrize("cls", FROZEN_TYPES, ids=_type_id)


def test_walk_finds_the_types_of_every_value_module():
    assert {cls.__module__ for cls in FROZEN_TYPES} == {
        f"courtside.{name}" for name in (
            "match_model", "event_stream", "memory", "prompt_engine",
            "pipeline", "evaluation", "court_geometry", "segmentation")}


@by_type
def test_fields_can_be_neither_set_nor_deleted(cls):
    sample = _sample(cls)
    name = fields(cls)[0].name
    with pytest.raises(FrozenInstanceError):
        setattr(sample, name, getattr(sample, name))
    with pytest.raises(FrozenInstanceError):
        delattr(sample, name)


@by_type
def test_replace_and_pickle_give_equal_values(cls):
    sample = _sample(cls)
    copies = [replace(sample), pickle.loads(pickle.dumps(sample))]
    for copy in copies:
        assert type(copy) is cls and copy == sample
    try:
        expected = hash(sample)
    except TypeError:  # a field holds a dict
        with pytest.raises(TypeError):
            hash(copies[0])
    else:
        assert hash(copies[0]) == expected


@pytest.mark.parametrize("cls", [
    cls for cls in FROZEN_TYPES
    if any(f.default_factory is not MISSING for f in fields(cls))],
    ids=_type_id)
def test_default_factory_gives_a_fresh_value_per_construction(cls):
    given = {f.name: getattr(_sample(cls), f.name) for f in fields(cls)
             if f.default_factory is MISSING}
    first, second = cls(**given), cls(**given)
    for f in fields(cls):
        if f.default_factory is not MISSING:
            assert getattr(first, f.name) == f.default_factory()
            assert getattr(first, f.name) is not getattr(second, f.name)


@pytest.mark.parametrize("type_name, name, bad", [
    ("ShotEvent", "hitter", "umpire"),
    ("BounceEvent", "court_half", "net"),
    ("RallyOutcome", "reason", "let"),
])
def test_post_init_still_refuses_a_bad_vocabulary_value(type_name, name, bad):
    cls = getattr(courtside.event_stream, type_name)
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        replace(_sample(cls), **{name: bad})


@by_type
def test_matches_a_stock_frozen_dataclass_of_the_same_source(cls):
    twin = _stock_twin(cls)
    assert inspect.signature(cls) == inspect.signature(twin)
    assert cls.__doc__ == twin.__doc__
    values = _values(_sample(cls))
    built, stock = cls(**values), twin(**values)
    assert vars(built) == vars(stock)
    assert repr(built) == repr(stock)
    # the stock body stores each field through object.__setattr__
    assert "__setattr__" not in cls.__init__.__code__.co_names
    assert repr(cls.__dataclass_params__) == repr(twin.__dataclass_params__)
    assert cls.__match_args__ == twin.__match_args__
    assert built == cls(**values)
    try:
        expected = hash(stock)
    except TypeError:  # a field holds a dict
        pass
    else:
        assert hash(built) == expected


@pytest.mark.parametrize("annotation, spec", [
    (InitVar[int], None),
    (int, field(default=0, kw_only=True)),
    (int, field(default=0, init=False)),
], ids=["InitVar", "kw_only", "init_false"])
def test_frozen_refuses_a_field_init_does_not_take_by_position(annotation, spec):
    namespace = {"__annotations__": {"x": int, "y": annotation}}
    if spec is not None:
        namespace["y"] = spec
    with pytest.raises(TypeError, match="no InitVar, kw_only or init=False"):
        frozen(type("Value", (), namespace))


def _docless(decorate):
    @decorate
    class Rally:
        index: int
        player: str
        speed: float
        won: bool
        games: tuple[int, ...]
        note: str | None = None
        label: Optional[str] = "deuce"
        shots: list[str] = field(default_factory=list)
    return Rally


def test_frozen_writes_the_stock_docstring_without_a_signature(monkeypatch):
    twin = _docless(dataclass(frozen=True))

    def refuse(*args, **kwargs):
        raise AssertionError("frozen asked inspect for a signature")

    with monkeypatch.context() as patch:
        patch.setattr(inspect, "signature", refuse)
        built = _docless(frozen)
    assert built.__doc__ == twin.__doc__
    assert inspect.signature(built) == inspect.signature(twin)


def test_frozen_accepts_a_class_variable():
    @frozen
    class Value:
        limit: ClassVar[int] = 3
        x: int

    assert [f.name for f in fields(Value)] == ["x"]
    assert Value.limit == 3 and Value(1) == Value(x=1)


def test_frozen_refuses_a_field_without_default_after_one_with():
    namespace = {"__annotations__": {"x": int, "y": int}, "x": 0}
    with pytest.raises(TypeError, match="non-default argument 'y' follows"):
        frozen(type("Value", (), namespace))


@pytest.mark.parametrize("name", ["__init__", "__eq__", "__hash__",
                                  "__repr__", "__setattr__", "__delattr__"])
def test_frozen_refuses_a_class_that_defines_a_method_it_writes(name):
    namespace = {"__annotations__": {"x": int}, name: lambda self, *args: None}
    with pytest.raises(TypeError, match=f"frozen writes {name} itself"):
        frozen(type("Value", (), namespace))


def test_no_value_type_is_declared_with_stock_frozen_dataclass():
    stock = re.compile(r"^\s*@(dataclasses\.)?dataclass\(.*frozen\s*=\s*True",
                       re.MULTILINE)
    offenders = [path.name for path in sorted(SRC.glob("*.py"))
                 if stock.search(path.read_text(encoding="utf-8"))]
    assert offenders == []


_TEXTS = st.text(max_size=12)
_FLOATS = st.floats(allow_nan=False)
_RECORD_VALUES = st.one_of(
    oracles.SCORING_CONFIGS,
    st.builds(PairScore, _FLOATS, _FLOATS, st.none() | _FLOATS),
    st.builds(RallyRunRecord, st.integers(0, 10**6), _TEXTS, st.integers(0, 10**5),
              st.integers(0, 10**5), st.none() | _TEXTS, st.none() | st.booleans(),
              st.booleans(), st.none() | _TEXTS, _FLOATS, _FLOATS))


@given(_RECORD_VALUES)
def test_field_values_is_asdict_without_the_copy(value):
    """The report blocks built from field values have asdict's keys, in its
    order, and hold the fields themselves."""
    values = field_values(value)
    assert list(values.items()) == list(asdict(value).items())
    assert all(values[f.name] is getattr(value, f.name) for f in fields(value))
