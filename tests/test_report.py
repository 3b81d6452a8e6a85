"""Report serialization: numpy values and Fractions reduce to plain JSON,
and the one-walk writer gives the text ``json.dumps`` gives."""

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfib import polybase, report, topo


def reference_reduce(obj):
    """The reduction the writer does on the fly, as a separate pass."""
    if isinstance(obj, dict):
        return {str(k): reference_reduce(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_reduce(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if hasattr(obj, "tolist"):
        return reference_reduce(obj.tolist())
    return obj


def reference_json(doc) -> str:
    return json.dumps(reference_reduce(doc), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


finite = st.floats(allow_nan=False, allow_infinity=False)
leaves = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(min_value=-2**200, max_value=2**200),
    finite, st.sampled_from([-0.0, 1e300, -1e-300, 5e-324]),
    st.text(), st.text(alphabet=st.characters(max_codepoint=0x20), max_size=4),
    st.fractions(),
    st.builds(np.float64, finite), st.builds(np.float32, st.floats(width=32, allow_nan=False,
                                                                 allow_infinity=False)),
    st.builds(np.int64, st.integers(-2**63, 2**63 - 1)), st.builds(np.bool_, st.booleans()),
    st.lists(finite, max_size=3).map(np.array),
    st.lists(st.lists(st.integers(-9, 9), min_size=2, max_size=2), max_size=2).map(
        lambda rows: np.array(rows, dtype=np.int32)),
)
keys = st.one_of(st.text(max_size=4), st.integers(-3, 3), st.booleans(), st.none(),
                 st.sampled_from(["1", "True", "None", "é", "\x00"]))


def shared(t):
    """The one object ``t`` twice at one indent and once at two deeper ones."""
    return [t, t, [t, {"t": t}]]


documents = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
        st.one_of(
            st.lists(children, max_size=4).map(tuple),
            st.tuples(st.lists(children, max_size=2),
                      st.dictionaries(keys, children, max_size=2)),
        ).map(shared),
    ),
    max_leaves=25,
)


@settings(deadline=None, max_examples=100)
@given(documents)
def test_canonical_json_is_the_json_dumps_text(doc):
    assert report.canonical_json(doc) == reference_json(doc)


#: 1, True and 1.0 are equal keys that print differently; "1" prints as 1 does
EQUAL_KEYS = [1, True, 1.0, "1"]


@st.composite
def repeated_shapes(draw):
    """Sibling dicts that repeat one key set, each in an insertion order of
    its own, at two indents, and next to them one-key dicts whose keys are
    ``EQUAL_KEYS`` in some order."""
    names = draw(st.lists(keys, min_size=1, max_size=4, unique_by=str))
    shaped = [{names[k]: draw(documents) for k in draw(st.permutations(range(len(names))))}
              for _ in range(draw(st.integers(2, 5)))]
    equal = [{k: draw(documents)} for k in draw(st.permutations(EQUAL_KEYS))]
    return [shaped, {"shaped": shaped, "equal": equal}, equal]


@settings(deadline=None, max_examples=100)
@given(repeated_shapes())
def test_repeated_dict_shapes_give_the_json_dumps_text(doc):
    assert report.canonical_json(doc) == reference_json(doc)


def test_no_text_outlives_a_call():
    rows = [1, 2]
    doc = {"t": (rows, {"rows": rows})}
    first = report.canonical_json(doc)
    rows.append(3)
    second = report.canonical_json(doc)
    assert second == reference_json(doc) != first


def test_validation_report_hands_over_the_shared_conjugators():
    boundary = polybase.LatticeSimplexBoundary(4)
    g = polybase.classify_signs(polybase.build_quintic_graph(boundary), boundary)
    rep = topo.validate_semistable(g, topo.canonical_assignment(g))
    items = rep.to_json()["items"]
    assert all(it.conjugator is not None for it in rep.items)
    assert all(d["conjugator"] is it.conjugator for d, it in zip(items, rep.items))


def assert_plain(value, expected):
    """``value == expected`` with the same Python type at every node."""
    assert type(value) is type(expected), (value, expected)
    if isinstance(expected, dict):
        assert list(value) == list(expected)
        for k in expected:
            assert_plain(value[k], expected[k])
    elif isinstance(expected, list):
        assert len(value) == len(expected)
        for v, e in zip(value, expected):
            assert_plain(v, e)
    else:
        assert value == expected


def test_canonical_json_reduces_numpy_and_fractions_to_plain_values():
    data = {
        "flag": np.bool_(True),
        "count": np.int64(-7),
        "x": np.float64(0.1),
        "grid": np.array([[0.5, -1.25], [3.0, 1e-12]]),
        "ids": np.array([1, 2, 3], dtype=np.int32),
        "q": Fraction(-3, 4),
        "nested": ({"a": [np.float32(0.5), (1, "s")]}, [np.int8(2), None]),
        3: "int key",
    }
    # read back in the writer's key order: sorted
    assert_plain(json.loads(report.canonical_json(data)), {
        "3": "int key",
        "count": -7,
        "flag": True,
        "grid": [[0.5, -1.25], [3.0, 1e-12]],
        "ids": [1, 2, 3],
        "nested": [{"a": [0.5, [1, "s"]]}, [2, None]],
        "q": "-3/4",
        "x": 0.1,
    })


def test_canonical_json_text_of_numpy_values():
    text = report.canonical_json({
        "b": np.bool_(False),
        "f": np.float64(1e-12),
        "i": np.int64(3),
        "m": np.array([[1.5], [2.0]]),
        "q": Fraction(1, 3),
    })
    assert text == (
        '{\n'
        '  "b": false,\n'
        '  "f": 1e-12,\n'
        '  "i": 3,\n'
        '  "m": [\n'
        '    [\n'
        '      1.5\n'
        '    ],\n'
        '    [\n'
        '      2.0\n'
        '    ]\n'
        '  ],\n'
        '  "q": "1/3"\n'
        '}\n'
    )


@pytest.mark.parametrize("value", [np.float64("nan"), np.float32("inf"),
                                   np.array([1.0, -np.inf])])
def test_non_finite_numpy_value_is_not_json(value):
    with pytest.raises(ValueError):
        report.canonical_json({"x": value})


@pytest.mark.parametrize("value", [
    math.nan, math.inf, -math.inf, [1, (2.0, -math.inf)], {"y": {3: math.nan}},
    np.float64("nan"), np.float32("-inf"), np.array([[1.0], [np.inf]]),
])
def test_non_finite_values_raise_the_json_dumps_error(value):
    with pytest.raises(ValueError) as want:
        reference_json({"x": value})
    with pytest.raises(ValueError, match=re.escape(str(want.value))):
        report.canonical_json({"x": value})


@pytest.mark.parametrize("value", [object(), {1, 2}, 1j, b"bytes", [range(2)]])
def test_unsupported_objects_raise_the_json_dumps_error(value):
    with pytest.raises(TypeError) as want:
        reference_json({"x": value})
    with pytest.raises(TypeError, match=re.escape(str(want.value))):
        report.canonical_json({"x": value})
