"""The report writer: ``cli._report_text(v)`` is the text of
``json.dumps(v, indent=2, ensure_ascii=False)``, for any tree of JSON
values, and refuses what json refuses."""

import enum
import json
import math
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from courtside.cli import _report_text

GOLDEN = Path(__file__).parent / "golden"

# Keys and strings that json escapes or that sit at the edge of its rules.
EDGE_STRINGS = ["", " ", '"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "Zoë Ñandú",
                "\ud800", '"quoted" \\ key\n']
strings = st.text() | st.sampled_from(EDGE_STRINGS)
leaves = (strings
          | st.integers()
          | st.integers(min_value=2 ** 64) | st.integers(max_value=-2 ** 64)
          | st.floats()
          | st.sampled_from([-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf])
          | st.booleans()
          | st.none())


def _containers(children):
    return (st.lists(children, max_size=4)
            | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(strings, children, max_size=4))


trees = st.recursive(leaves, _containers, max_leaves=24)


def _holding(bad):
    """Trees with a ``bad`` value at some depth, among well-formed siblings."""
    def wrap(inner):
        listed = st.tuples(st.lists(trees, max_size=2), inner,
                           st.lists(trees, max_size=2)).map(
            lambda t: [*t[0], t[1], *t[2]])
        keyed = st.tuples(st.dictionaries(strings, trees, max_size=2), strings,
                          inner).map(lambda t: {**t[0], t[1]: t[2]})
        return listed | listed.map(tuple) | keyed
    return st.recursive(bad, wrap, max_leaves=4)


@given(trees)
@example({"": [[], {}, ()], " ": {"a": [[[]], {"b": {}}]}})
@example([{"x": (1, 2.5, None)}, [True, False], -0.0, 10 ** 30])
def test_report_text_equals_json_dumps(value):
    assert _report_text(value) == json.dumps(value, indent=2, ensure_ascii=False)


@given(_holding(st.sampled_from([set(), {1}, b"", b"bytes"]) | st.builds(object)))
def test_report_text_refuses_what_json_refuses(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2, ensure_ascii=False)
    with pytest.raises(TypeError):
        _report_text(value)


def test_report_text_refuses_a_key_that_is_not_a_string():
    """json would write the key 1 as "1"; no report has such a key."""
    with pytest.raises(TypeError):
        _report_text({"a": {1: "one"}})


def test_report_text_writes_a_subclass_by_its_base():
    class Code(enum.IntEnum):
        FAILED = 3

    class Name(str):
        pass

    class Seconds(float):
        def __repr__(self):
            return "Seconds()"

    value = {Name("k"): [Code.FAILED, Name("Zoë"), Seconds(1.5), Seconds("nan")]}
    assert _report_text(value) == json.dumps(value, indent=2, ensure_ascii=False)


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.name)
def test_golden_json_re_encodes_to_its_own_bytes(path):
    """The CLI's reports end in one newline; the two fixtures that it did not
    write (``metrics_golden.json``, ``mock_commentary.json``) end without."""
    text = path.read_bytes().decode("utf-8")
    assert _report_text(json.loads(text)) == text.removesuffix("\n")
