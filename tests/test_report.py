"""Report serialization: numpy values and Fractions reduce to plain JSON."""

from fractions import Fraction

import numpy as np
import pytest

from tfib import report


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


def test_sanitize_reduces_numpy_and_fractions_to_plain_values():
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
    assert_plain(report.sanitize(data), {
        "flag": True,
        "count": -7,
        "x": 0.1,
        "grid": [[0.5, -1.25], [3.0, 1e-12]],
        "ids": [1, 2, 3],
        "q": "-3/4",
        "nested": [{"a": [0.5, [1, "s"]]}, [2, None]],
        "3": "int key",
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
